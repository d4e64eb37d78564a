#ifndef CHRONOCACHE_SQL_LEXER_H_
#define CHRONOCACHE_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace chrono::sql {

struct Token {
  enum class Kind {
    kIdentifier,  // table/column/function names (stored lower-cased)
    kKeyword,     // recognised SQL keyword (stored upper-cased)
    kInt,
    kDouble,
    kString,      // contents without quotes, '' unescaped
    kSymbol,      // operators and punctuation: = <> <= >= < > + - * / ( ) , . ?
    kEnd,
  };

  Kind kind = Kind::kEnd;
  std::string text;       // normalised text (see Kind comments)
  int64_t int_value = 0;  // kInt
  double double_value = 0;  // kDouble
  size_t offset = 0;      // byte offset in the input, for error messages

  bool IsKeyword(std::string_view kw) const {
    return kind == Kind::kKeyword && text == kw;
  }
  bool IsSymbol(std::string_view sym) const {
    return kind == Kind::kSymbol && text == sym;
  }
};

/// Tokenises a SQL string. Keywords are case-insensitive; identifiers are
/// lower-cased so that the rest of the system can compare names directly.
Result<std::vector<Token>> Tokenize(std::string_view input);

/// Scans the token at or after `*pos` into `*token` (reusing its storage)
/// and moves `*pos` past it. Whitespace and `;` terminators are skipped;
/// at the end of input the token is kEnd.
Status NextToken(std::string_view input, size_t* pos, Token* token);

}  // namespace chrono::sql

#endif  // CHRONOCACHE_SQL_LEXER_H_
