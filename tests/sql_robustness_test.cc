// Robustness: the parser must return Status (never crash or hang) on
// malformed, truncated, and randomly mutated inputs — a middleware parses
// untrusted client text.

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql_corpus.h"

namespace chrono::sql {
namespace {

TEST(ParserRobustness, MalformedInputsReturnStatus) {
  for (const std::string& input : corpus::MalformedInputs()) {
    auto result = Parse(input);
    EXPECT_FALSE(result.ok()) << "unexpectedly parsed: " << input;
  }
}

TEST(ParserRobustness, TruncationsOfValidQueryNeverCrash) {
  for (const std::string& prefix : corpus::Truncations()) {
    auto result = Parse(prefix);
    // Some prefixes are valid statements; most are errors. Either way the
    // call must return normally.
    (void)result;
  }
  SUCCEED();
}

TEST(ParserRobustness, RandomMutationsNeverCrash) {
  for (const std::string& mutated : corpus::RandomMutations(2000)) {
    auto result = Parse(mutated);
    (void)result;  // must not crash; ok or error both acceptable
  }
  SUCCEED();
}

TEST(ParserRobustness, DeeplyNestedParensBounded) {
  // Heavy nesting must parse (or fail) without stack issues at reasonable
  // depth.
  auto result = Parse(corpus::DeeplyNested(200));
  EXPECT_TRUE(result.ok());
}

TEST(ParserRobustness, LongInListHandled) {
  auto result = Parse(corpus::LongInList(5000));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->select->where->children.size(), 5001u);
}

}  // namespace
}  // namespace chrono::sql
