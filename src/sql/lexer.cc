#include "sql/lexer.h"

#include <cstdlib>
#include <string>
#include <unordered_set>

namespace chrono::sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const auto* kKeywords = new std::unordered_set<std::string>{
      "SELECT", "FROM",   "WHERE",    "AND",    "OR",     "NOT",   "JOIN",
      "LEFT",   "INNER",  "CROSS",    "ON",     "AS",     "WITH",  "GROUP",
      "BY",     "ORDER",  "ASC",      "DESC",   "LIMIT",  "LATERAL",
      "NULL",   "INSERT", "INTO",     "VALUES", "UPDATE", "SET",   "DELETE",
      "IN",     "IS",     "DISTINCT", "HAVING", "OVER",   "TRUE",  "FALSE",
      "BETWEEN", "CREATE", "TABLE", "CASE", "WHEN", "THEN", "ELSE", "END",
  };
  return *kKeywords;
}

// Character classes of the "C" locale, spelled out: no library call per
// character.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsIdentStart(char c) { return IsAlpha(c) || c == '_'; }
bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

// Words are ASCII letters, digits and '_' (IsIdentChar), so case folds by
// arithmetic, without a locale call per character.
char AsciiUpper(char c) { return c >= 'a' && c <= 'z' ? c - ('a' - 'A') : c; }
char AsciiLower(char c) { return c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c; }

constexpr size_t kLongestKeyword = 8;  // DISTINCT, BETWEEN, LATERAL, ...

}  // namespace

Status NextToken(std::string_view input, size_t* pos, Token* token) {
  size_t i = *pos;
  const size_t n = input.size();
  // Whitespace and statement terminators separate tokens.
  while (i < n && (IsSpace(input[i]) || input[i] == ';')) {
    ++i;
  }
  token->offset = i;
  token->text.clear();
  token->int_value = 0;
  token->double_value = 0;
  if (i == n) {
    token->kind = Token::Kind::kEnd;
    *pos = i;
    return Status::OK();
  }
  const char c = input[i];
  if (IsIdentStart(c)) {
    size_t start = i;
    while (i < n && IsIdentChar(input[i])) ++i;
    token->text.assign(input.substr(start, i - start));
    for (char& ch : token->text) ch = AsciiUpper(ch);
    if (token->text.size() <= kLongestKeyword &&
        Keywords().count(token->text) > 0) {
      token->kind = Token::Kind::kKeyword;
    } else {
      token->kind = Token::Kind::kIdentifier;
      for (char& ch : token->text) ch = AsciiLower(ch);
    }
  } else if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(input[i + 1]))) {
    size_t start = i;
    bool is_double = false;
    while (i < n && IsDigit(input[i])) ++i;
    if (i < n && input[i] == '.') {
      is_double = true;
      ++i;
      while (i < n && IsDigit(input[i])) ++i;
    }
    if (i < n && (input[i] == 'e' || input[i] == 'E')) {
      is_double = true;
      ++i;
      if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
      while (i < n && IsDigit(input[i])) ++i;
    }
    token->text.assign(input.substr(start, i - start));
    if (is_double) {
      token->kind = Token::Kind::kDouble;
      token->double_value = std::strtod(token->text.c_str(), nullptr);
    } else {
      token->kind = Token::Kind::kInt;
      token->int_value = std::strtoll(token->text.c_str(), nullptr, 10);
    }
  } else if (c == '\'') {
    ++i;
    bool closed = false;
    while (i < n) {
      if (input[i] == '\'') {
        if (i + 1 < n && input[i + 1] == '\'') {
          token->text += '\'';
          i += 2;
          continue;
        }
        ++i;
        closed = true;
        break;
      }
      token->text += input[i];
      ++i;
    }
    if (!closed) {
      return Status::ParseError("unterminated string literal at offset " +
                                std::to_string(token->offset));
    }
    token->kind = Token::Kind::kString;
  } else {
    // Symbols, longest match first.
    auto two = input.substr(i, 2);
    if (two == "<>" || two == "<=" || two == ">=" || two == "!=" ||
        two == "||") {
      token->text.assign(two == "!=" ? std::string_view("<>") : two);
      i += 2;
    } else if (std::string_view("=<>+-*/(),.?").find(c) !=
               std::string_view::npos) {
      token->text.assign(1, c);
      ++i;
    } else {
      return Status::ParseError("unexpected character '" + std::string(1, c) +
                                "' at offset " + std::to_string(i));
    }
    token->kind = Token::Kind::kSymbol;
  }
  *pos = i;
  return Status::OK();
}

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  tokens.reserve(input.size() / 4 + 1);
  size_t pos = 0;
  do {
    tokens.emplace_back();
    CHRONO_RETURN_NOT_OK(NextToken(input, &pos, &tokens.back()));
  } while (tokens.back().kind != Token::Kind::kEnd);
  return tokens;
}

}  // namespace chrono::sql
