#include <gtest/gtest.h>

#include "core/param_mapper.h"

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace chrono::core {
namespace {

using sql::ResultSet;
using sql::Value;

ResultSet SymbolResult(std::vector<std::string> symbols) {
  ResultSet rs({"symb", "num"});
  int64_t n = 100;
  for (auto& s : symbols) {
    rs.AddRow({Value::String(std::move(s)), Value::Int(n++)});
  }
  return rs;
}

TEST(ParamMapper, DiscoversAndConfirmsMapping) {
  ParamMapper mapper(/*min_validations=*/2);
  mapper.ObserveResult(1, SymbolResult({"AAA", "BBB", "CCC"}));

  // First issue of Q2 with the row-0 symbol: candidate created (1 match).
  mapper.ObserveQuery(2, {Value::String("AAA")});
  EXPECT_TRUE(mapper.ConfirmedMappings(2).empty());

  // Second issue matches row 1: validated.
  mapper.ObserveQuery(2, {Value::String("BBB")});
  auto mappings = mapper.ConfirmedMappings(2);
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mappings[0].src, 1u);
  EXPECT_EQ(mappings[0].src_column, "symb");
  EXPECT_EQ(mappings[0].dst_param, 0);
}

TEST(ParamMapper, LoopCursorAdvancesPerIssue) {
  ParamMapper mapper(2);
  mapper.ObserveResult(1, SymbolResult({"AAA", "BBB", "CCC"}));
  mapper.ObserveQuery(2, {Value::String("AAA")});
  mapper.ObserveQuery(2, {Value::String("BBB")});
  mapper.ObserveQuery(2, {Value::String("CCC")});
  auto mappings = mapper.ConfirmedMappings(2);
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mapper.BlacklistedCount(2), 0);
}

TEST(ParamMapper, SpuriousMappingBlacklisted) {
  ParamMapper mapper(2);
  mapper.ObserveResult(1, SymbolResult({"AAA", "BBB"}));
  // Coincidental match on row 0, mismatch on row 1: blacklist forever.
  mapper.ObserveQuery(2, {Value::String("AAA")});
  mapper.ObserveQuery(2, {Value::String("ZZZ")});
  EXPECT_TRUE(mapper.ConfirmedMappings(2).empty());
  EXPECT_EQ(mapper.BlacklistedCount(2), 1);
  // Even if values match later, the blacklist is permanent (§2.1).
  mapper.ObserveResult(1, SymbolResult({"AAA", "BBB"}));
  mapper.ObserveQuery(2, {Value::String("AAA")});
  mapper.ObserveQuery(2, {Value::String("BBB")});
  EXPECT_TRUE(mapper.ConfirmedMappings(2).empty());
}

TEST(ParamMapper, FreshResultResetsCursor) {
  ParamMapper mapper(2);
  mapper.ObserveResult(1, SymbolResult({"AAA", "BBB"}));
  mapper.ObserveQuery(2, {Value::String("AAA")});
  // New invocation: fresh result, cursor restarts at row 0.
  mapper.ObserveResult(1, SymbolResult({"XXX", "YYY"}));
  mapper.ObserveQuery(2, {Value::String("XXX")});
  mapper.ObserveQuery(2, {Value::String("YYY")});
  ASSERT_EQ(mapper.ConfirmedMappings(2).size(), 1u);
}

TEST(ParamMapper, CursorPastEndIsNeutral) {
  ParamMapper mapper(2);
  mapper.ObserveResult(1, SymbolResult({"AAA"}));
  mapper.ObserveQuery(2, {Value::String("AAA")});
  // Issues beyond the result's length neither validate nor blacklist.
  mapper.ObserveQuery(2, {Value::String("QQQ")});
  mapper.ObserveQuery(2, {Value::String("RRR")});
  EXPECT_EQ(mapper.BlacklistedCount(2), 0);
}

TEST(ParamMapper, MultipleColumnsCreateMultipleCandidates) {
  ParamMapper mapper(2);
  ResultSet rs({"a", "b"});
  rs.AddRow({Value::Int(7), Value::Int(7)});  // both columns match
  rs.AddRow({Value::Int(8), Value::Int(9)});  // only column a matches
  mapper.ObserveResult(1, rs);
  mapper.ObserveQuery(2, {Value::Int(7)});
  mapper.ObserveQuery(2, {Value::Int(8)});
  auto mappings = mapper.ConfirmedMappings(2);
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mappings[0].src_column, "a");
  EXPECT_EQ(mapper.BlacklistedCount(2), 1);  // column b blacklisted
}

TEST(ParamMapper, MultiParamQueries) {
  ParamMapper mapper(2);
  ResultSet rs({"id", "latest"});
  rs.AddRow({Value::Int(10), Value::Int(501)});
  mapper.ObserveResult(1, rs);
  mapper.ObserveQuery(2, {Value::Int(10), Value::Int(501)});
  mapper.ObserveResult(1, [&] {
    ResultSet r2({"id", "latest"});
    r2.AddRow({Value::Int(11), Value::Int(502)});
    return r2;
  }());
  mapper.ObserveQuery(2, {Value::Int(11), Value::Int(502)});
  auto covered = mapper.CoveredParams(2);
  EXPECT_EQ(covered, (std::vector<int>{0, 1}));
}

TEST(ParamMapper, SeparateDestinationsHaveSeparateCursors) {
  ParamMapper mapper(2);
  mapper.ObserveResult(1, SymbolResult({"AAA", "BBB"}));
  // Q2 and Q3 each iterate the same source independently.
  mapper.ObserveQuery(2, {Value::String("AAA")});
  mapper.ObserveQuery(3, {Value::String("AAA")});
  mapper.ObserveQuery(2, {Value::String("BBB")});
  mapper.ObserveQuery(3, {Value::String("BBB")});
  EXPECT_EQ(mapper.ConfirmedMappings(2).size(), 1u);
  EXPECT_EQ(mapper.ConfirmedMappings(3).size(), 1u);
}

TEST(ParamMapper, NullParamsIgnored) {
  ParamMapper mapper(2);
  ResultSet rs({"a"});
  rs.AddRow({Value::Null()});
  mapper.ObserveResult(1, rs);
  mapper.ObserveQuery(2, {Value::Null()});
  EXPECT_TRUE(mapper.ConfirmedMappings(2).empty());
}

TEST(ParamMapper, LastResultAccessors) {
  ParamMapper mapper(2);
  EXPECT_FALSE(mapper.HasResult(1));
  EXPECT_EQ(mapper.LastResult(1), nullptr);
  mapper.ObserveResult(1, SymbolResult({"AAA"}));
  EXPECT_TRUE(mapper.HasResult(1));
  ASSERT_NE(mapper.LastResult(1), nullptr);
  EXPECT_EQ(mapper.LastResult(1)->row_count(), 1u);
}

TEST(ParamMapper, NumericCrossTypeMatch) {
  ParamMapper mapper(2);
  ResultSet rs({"v"});
  rs.AddRow({Value::Int(5)});
  mapper.ObserveResult(1, rs);
  mapper.ObserveQuery(2, {Value::Double(5.0)});
  mapper.ObserveResult(1, rs);
  mapper.ObserveQuery(2, {Value::Double(5.0)});
  EXPECT_EQ(mapper.ConfirmedMappings(2).size(), 1u);
}

// The generation moves when the confirmed set changes, and only then.
TEST(ParamMapper, GenerationTracksConfirmedMappings) {
  ParamMapper mapper(2);
  mapper.ObserveResult(1, SymbolResult({"AAA", "BBB", "CCC"}));
  const uint64_t start = mapper.generation();
  mapper.ObserveQuery(2, {Value::String("AAA")});  // candidate, unconfirmed
  EXPECT_EQ(mapper.generation(), start);
  mapper.ObserveQuery(2, {Value::String("BBB")});  // confirmed
  const uint64_t confirmed = mapper.generation();
  EXPECT_GT(confirmed, start);
  mapper.ObserveQuery(2, {Value::String("CCC")});  // validated again
  EXPECT_EQ(mapper.generation(), confirmed);
  mapper.ObserveResult(1, SymbolResult({"AAA"}));
  mapper.ObserveQuery(2, {Value::String("ZZZ")});  // blacklisted
  EXPECT_TRUE(mapper.ConfirmedMappings(2).empty());
  EXPECT_GT(mapper.generation(), confirmed);
}

// Against brute force: after every query of a random sequence, the
// generation moved exactly when some destination's confirmed mappings of
// any kind changed.
TEST(ParamMapper, GenerationMovesExactlyWhenConfirmedMappingsChange) {
  for (int min_validations : {1, 2, 3}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("min_validations " + std::to_string(min_validations) +
                   " seed " + std::to_string(seed));
      ParamMapper mapper(min_validations);
      Rng rng(seed);
      // Every confirmed set: result mappings, input sources, constants.
      auto view = [&] {
        std::vector<std::tuple<TemplateId, TemplateId, std::string, int>> out;
        for (TemplateId dst = 0; dst < 5; ++dst) {
          for (const auto& m : mapper.ConfirmedMappings(dst)) {
            out.emplace_back(dst, m.src, m.src_column, m.dst_param);
          }
          for (const auto& in : mapper.ConfirmedInputSources(dst)) {
            out.emplace_back(dst, in.src, "$" + std::to_string(in.src_param),
                             in.dst_param);
          }
          for (int p : mapper.ConfirmedConstants(dst)) {
            out.emplace_back(dst, dst, "=", p);
          }
        }
        return out;
      };
      auto last = view();
      for (int i = 0; i < 2000; ++i) {
        const TemplateId tmpl = rng.NextBounded(5);
        if (rng.NextBool(0.4)) {
          ResultSet rs({"a", "b"});
          for (int64_t r = rng.NextInt(0, 3); r > 0; --r) {
            rs.AddRow({Value::Int(rng.NextInt(1, 6)),
                       Value::Int(rng.NextInt(1, 6))});
          }
          mapper.ObserveResult(tmpl, rs);
          continue;
        }
        const uint64_t generation = mapper.generation();
        std::vector<Value> params;
        for (int64_t p = rng.NextInt(0, 2); p > 0; --p) {
          params.push_back(Value::Int(rng.NextInt(1, 6)));
        }
        mapper.ObserveQuery(tmpl, params);
        auto now = view();
        ASSERT_EQ(mapper.generation() != generation, now != last)
            << "query " << i;
        last = std::move(now);
      }
    }
  }
}

// ---- Input sources and constants ------------------------------------------

// Security-Detail: the follow-up reads take the symbol the first read was
// asked for, which its result does not return.
TEST(ParamMapper, InputSourceDiscoveredAndConfirmed) {
  ParamMapper mapper(2);
  for (const char* symb : {"AAA", "BBB", "CCC"}) {
    mapper.ObserveQuery(1, {Value::String(symb)});
    mapper.ObserveResult(1, SymbolResult({"unrelated"}));
    mapper.ObserveQuery(2, {Value::String(symb), Value::Int(0)});
  }
  auto inputs = mapper.ConfirmedInputSources(2);
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0].src, 1u);
  EXPECT_EQ(inputs[0].src_param, 0);
  EXPECT_EQ(inputs[0].dst_param, 0);
  EXPECT_TRUE(mapper.ConfirmedMappings(2).empty());
  EXPECT_TRUE(mapper.Derived(2, 0));
  EXPECT_FALSE(mapper.Derived(1, 0));
  // The second parameter never changed: a constant.
  EXPECT_EQ(mapper.ConfirmedConstants(2), (std::vector<int>{1}));
  EXPECT_FALSE(mapper.Derived(2, 1));
}

TEST(ParamMapper, InputSourceNeedsMinValidations) {
  ParamMapper mapper(3);
  mapper.ObserveQuery(1, {Value::Int(7)});
  mapper.ObserveQuery(2, {Value::Int(7)});
  mapper.ObserveQuery(1, {Value::Int(8)});
  mapper.ObserveQuery(2, {Value::Int(8)});
  EXPECT_TRUE(mapper.ConfirmedInputSources(2).empty());
  mapper.ObserveQuery(1, {Value::Int(9)});
  mapper.ObserveQuery(2, {Value::Int(9)});
  EXPECT_EQ(mapper.ConfirmedInputSources(2).size(), 1u);
}

TEST(ParamMapper, InputSourceBlacklistedPermanently) {
  ParamMapper mapper(2);
  mapper.ObserveQuery(1, {Value::Int(7)});
  mapper.ObserveQuery(2, {Value::Int(7)});
  mapper.ObserveQuery(1, {Value::Int(8)});
  mapper.ObserveQuery(2, {Value::Int(8)});
  ASSERT_EQ(mapper.ConfirmedInputSources(2).size(), 1u);
  const uint64_t confirmed = mapper.generation();
  // A coincidence after all: dst's value differs from the source's.
  mapper.ObserveQuery(1, {Value::Int(9)});
  mapper.ObserveQuery(2, {Value::Int(10)});
  EXPECT_TRUE(mapper.ConfirmedInputSources(2).empty());
  EXPECT_GT(mapper.generation(), confirmed);
  EXPECT_EQ(mapper.BlacklistedCount(2), 1);
  for (int v = 20; v < 24; ++v) {
    mapper.ObserveQuery(1, {Value::Int(v)});
    mapper.ObserveQuery(2, {Value::Int(v)});
  }
  EXPECT_TRUE(mapper.ConfirmedInputSources(2).empty());
}

TEST(ParamMapper, InputSourcesNeverFromSelf) {
  ParamMapper mapper(2);
  for (int i = 0; i < 4; ++i) mapper.ObserveQuery(1, {Value::Int(5)});
  EXPECT_TRUE(mapper.ConfirmedInputSources(1).empty());
  EXPECT_EQ(mapper.ConfirmedConstants(1), (std::vector<int>{0}));
}

// Market-Watch's dm_date holds across one transaction's loop, then moves:
// the constant is blacklisted at the first change, for good.
TEST(ParamMapper, ConstantBlacklistedAtFirstChange) {
  ParamMapper mapper(2);
  for (int i = 0; i < 11; ++i) {
    mapper.ObserveQuery(3, {Value::String("S" + std::to_string(i)),
                            Value::Int(17)});
  }
  EXPECT_EQ(mapper.ConfirmedConstants(3), (std::vector<int>{1}));
  const uint64_t confirmed = mapper.generation();
  mapper.ObserveQuery(3, {Value::String("S0"), Value::Int(4)});
  EXPECT_TRUE(mapper.ConfirmedConstants(3).empty());
  EXPECT_GT(mapper.generation(), confirmed);
  for (int i = 0; i < 11; ++i) {
    mapper.ObserveQuery(3, {Value::String("S" + std::to_string(i)),
                            Value::Int(4)});
  }
  EXPECT_TRUE(mapper.ConfirmedConstants(3).empty());
}

TEST(ParamMapper, NullNeverAConstant) {
  ParamMapper mapper(2);
  for (int i = 0; i < 4; ++i) mapper.ObserveQuery(1, {Value::Null()});
  EXPECT_TRUE(mapper.ConfirmedConstants(1).empty());
}

// A result mapping and an input source into one parameter are learned
// side by side; the extractor decides which one binds.
TEST(ParamMapper, ResultMappingAndInputSourceCoexist) {
  ParamMapper mapper(2);
  for (const char* symb : {"AAA", "BBB", "CCC"}) {
    mapper.ObserveQuery(1, {Value::String(symb)});
    mapper.ObserveResult(1, SymbolResult({symb}));
    mapper.ObserveQuery(2, {Value::String(symb)});
  }
  EXPECT_EQ(mapper.ConfirmedMappings(2).size(), 1u);
  EXPECT_EQ(mapper.ConfirmedInputSources(2).size(), 1u);
  EXPECT_TRUE(mapper.Derived(2, 0));
}

}  // namespace
}  // namespace chrono::core
