#include <gtest/gtest.h>

#include "sql/template.h"
#include "sql/writer.h"

namespace chrono::sql {
namespace {

ParsedQuery MustAnalyze(std::string_view s) {
  auto result = AnalyzeQuery(s);
  EXPECT_TRUE(result.ok()) << s << " -> " << result.status().ToString();
  return std::move(result).value();
}

TEST(Template, ConstantsBecomeParams) {
  ParsedQuery q = MustAnalyze("SELECT a FROM t WHERE b = 5 AND c = 'x'");
  EXPECT_EQ(q.tmpl->param_count, 2);
  ASSERT_EQ(q.params.size(), 2u);
  EXPECT_EQ(q.params[0], Value::Int(5));
  EXPECT_EQ(q.params[1], Value::String("x"));
  EXPECT_NE(q.tmpl->canonical_text.find('?'), std::string::npos);
}

TEST(Template, SameShapeSameTemplate) {
  ParsedQuery a = MustAnalyze("SELECT a FROM t WHERE b = 5");
  ParsedQuery b = MustAnalyze("SELECT a FROM t WHERE b = 99");
  EXPECT_EQ(a.tmpl->id, b.tmpl->id);
  EXPECT_EQ(a.tmpl->canonical_text, b.tmpl->canonical_text);
  EXPECT_NE(a.bound_text, b.bound_text);
}

TEST(Template, WhitespaceAndCaseInsensitive) {
  ParsedQuery a = MustAnalyze("SELECT a FROM t WHERE b = 5");
  ParsedQuery b = MustAnalyze("select  a\nfrom T where B = 7");
  EXPECT_EQ(a.tmpl->id, b.tmpl->id);
}

TEST(Template, DifferentShapesDiffer) {
  ParsedQuery a = MustAnalyze("SELECT a FROM t WHERE b = 5");
  ParsedQuery b = MustAnalyze("SELECT a FROM t WHERE c = 5");
  EXPECT_NE(a.tmpl->id, b.tmpl->id);
}

TEST(Template, BoundTextIsCanonical) {
  // The bound text must be identical however the client formatted the query
  // — it is the cache key (§4.1.1).
  ParsedQuery a = MustAnalyze("SELECT a FROM t WHERE b = 5");
  ParsedQuery b = MustAnalyze("SELECT  a  FROM  t  WHERE  b=5");
  EXPECT_EQ(a.bound_text, b.bound_text);
}

TEST(Template, RenderBoundTextRoundTrips) {
  ParsedQuery q = MustAnalyze("SELECT a FROM t WHERE b = 5 AND c = 'x'");
  EXPECT_EQ(RenderBoundText(*q.tmpl, q.params), q.bound_text);
}

TEST(Template, RebindsWithNewParams) {
  ParsedQuery q = MustAnalyze("SELECT a FROM t WHERE b = 5");
  std::string rebound = RenderBoundText(*q.tmpl, {Value::Int(77)});
  EXPECT_NE(rebound.find("77"), std::string::npos);
  EXPECT_EQ(rebound.find("5"), std::string::npos);
}

TEST(Template, BindParamsReplacesPlaceholders) {
  ParsedQuery q = MustAnalyze("SELECT a FROM t WHERE b = 5");
  auto bound = BindParams(*q.tmpl->ast, {Value::String("zz")});
  std::string text = WriteStatement(*bound);
  EXPECT_NE(text.find("'zz'"), std::string::npos);
  EXPECT_EQ(text.find('?'), std::string::npos);
}

TEST(Template, PartialBindLeavesPlaceholders) {
  ParsedQuery q = MustAnalyze("SELECT a FROM t WHERE b = 1 AND c = 2");
  auto bound = BindParams(*q.tmpl->ast, {Value::Int(9)});
  std::string text = WriteStatement(*bound);
  EXPECT_NE(text.find('?'), std::string::npos);
  EXPECT_NE(text.find('9'), std::string::npos);
}

TEST(Template, ReadOnlyFlag) {
  EXPECT_TRUE(MustAnalyze("SELECT a FROM t").tmpl->read_only);
  EXPECT_FALSE(MustAnalyze("UPDATE t SET a = 1").tmpl->read_only);
  EXPECT_FALSE(MustAnalyze("INSERT INTO t VALUES (1)").tmpl->read_only);
  EXPECT_FALSE(MustAnalyze("DELETE FROM t").tmpl->read_only);
}

TEST(Template, WriteTemplatesAlsoParameterised) {
  ParsedQuery q = MustAnalyze("UPDATE t SET a = 3 WHERE id = 7");
  EXPECT_EQ(q.tmpl->param_count, 2);
}

TEST(Template, StringsAndNumbersKeepType) {
  ParsedQuery q = MustAnalyze("SELECT a FROM t WHERE b = 1.5");
  EXPECT_EQ(q.params[0].type(), Value::Type::kDouble);
}

TEST(TableAccess, SelectReads) {
  ParsedQuery q = MustAnalyze("SELECT a FROM t JOIN u ON t.x = u.y");
  TableAccess access = CollectTableAccess(*q.tmpl->ast);
  EXPECT_EQ(access.reads, (std::vector<std::string>{"t", "u"}));
  EXPECT_TRUE(access.writes.empty());
}

TEST(TableAccess, CteNamesAreNotBaseTables) {
  ParsedQuery q =
      MustAnalyze("WITH q1 AS (SELECT a FROM t) SELECT * FROM q1");
  TableAccess access = CollectTableAccess(*q.tmpl->ast);
  EXPECT_EQ(access.reads, (std::vector<std::string>{"t"}));
}

TEST(TableAccess, SubqueryAndLateralReads) {
  ParsedQuery q = MustAnalyze(
      "SELECT a FROM (SELECT a FROM t) AS d, LATERAL (SELECT b FROM u WHERE "
      "u.x = d.a) AS l");
  TableAccess access = CollectTableAccess(*q.tmpl->ast);
  EXPECT_EQ(access.reads, (std::vector<std::string>{"t", "u"}));
}

TEST(TableAccess, DmlWrites) {
  EXPECT_EQ(CollectTableAccess(*MustAnalyze("UPDATE t SET a = 1").tmpl->ast)
                .writes,
            (std::vector<std::string>{"t"}));
  EXPECT_EQ(
      CollectTableAccess(*MustAnalyze("INSERT INTO t VALUES (1)").tmpl->ast)
          .writes,
      (std::vector<std::string>{"t"}));
  EXPECT_EQ(
      CollectTableAccess(*MustAnalyze("DELETE FROM t WHERE a = 1").tmpl->ast)
          .writes,
      (std::vector<std::string>{"t"}));
}

// RenderBoundText splices parameters into the canonical text; it must give
// exactly what binding the tree and writing it gives, including a partial
// bind that leaves trailing placeholders.
TEST(Template, RenderBoundTextMatchesBindAndWrite) {
  const char* kTexts[] = {
      "SELECT a FROM t WHERE b = 5 AND c = 'it''s'",
      "SELECT a FROM t WHERE b IN (1, 2, 3) ORDER BY a DESC LIMIT 5",
      "SELECT a FROM t WHERE 5 BETWEEN b AND 7.5",
      "SELECT -(a) FROM t WHERE b = -2 AND c IS NULL",
      "INSERT INTO t (a, b, c) VALUES (1, NULL, 'x'), (2, TRUE, 'y')",
      "UPDATE t SET a = a + 1 WHERE b = 'k'",
      "DELETE FROM t WHERE a = 3",
      "WITH q AS (SELECT a FROM t WHERE b = 1) SELECT q.a FROM q "
      "JOIN u ON u.x = q.a WHERE u.y = 'z'",
  };
  for (const char* text : kTexts) {
    SCOPED_TRACE(text);
    ParsedQuery q = MustAnalyze(text);
    EXPECT_EQ(q.bound_text, WriteStatement(*BindParams(*q.tmpl->ast,
                                                       q.params)));
    std::vector<Value> some(q.params.begin(),
                            q.params.begin() + q.params.size() / 2);
    EXPECT_EQ(RenderBoundText(*q.tmpl, some),
              WriteStatement(*BindParams(*q.tmpl->ast, some)));
  }
}

TEST(Template, AccessIsCollectedAtAnalysis) {
  ParsedQuery q = MustAnalyze(
      "WITH q AS (SELECT a FROM t) SELECT q.a FROM q JOIN u ON u.x = q.a");
  EXPECT_EQ(q.tmpl->access.reads, (std::vector<std::string>{"t", "u"}));
  EXPECT_EQ(MustAnalyze("UPDATE t SET a = 1").tmpl->access.writes,
            (std::vector<std::string>{"t"}));
}

// The shape abstracts exactly the literals that become parameters.
TEST(Template, ShapeKeepsGrammarLiterals) {
  auto shape = [](const char* text) { return ShapeQuery(text)->key; };
  EXPECT_EQ(shape("SELECT a FROM t WHERE b = 5"),
            shape("select a from T where b = 77"));
  EXPECT_NE(shape("SELECT a FROM t WHERE b = 5"),
            shape("SELECT a FROM t WHERE b = 5.0"));
  EXPECT_NE(shape("SELECT a FROM t WHERE b = 5"),
            shape("SELECT a FROM t WHERE b = '5'"));
  EXPECT_NE(shape("SELECT a FROM t WHERE b = 5"),
            shape("SELECT a FROM t WHERE b = -5"));
  EXPECT_NE(shape("SELECT a FROM t LIMIT 5"), shape("SELECT a FROM t LIMIT 6"));
  EXPECT_NE(shape("SELECT a FROM t WHERE b IN (1, 2)"),
            shape("SELECT a FROM t WHERE b IN (1, 2, 3)"));
  EXPECT_NE(shape("SELECT a FROM t WHERE b = NULL"),
            shape("SELECT a FROM t WHERE b = 0"));
  EXPECT_EQ(shape("SELECT a FROM t WHERE b = 'SELECT '' FROM'"),
            shape("SELECT a FROM t WHERE b = 'x'"));
}

TEST(Template, ShapeInstantiationMatchesAnalyzeQuery) {
  const char* kTexts[] = {
      "SELECT a FROM t WHERE b = -5 AND c = 'WHERE ''x'' LIMIT 3'",
      "SELECT a FROM t WHERE b = TRUE AND c IS NOT NULL LIMIT 7",
      "SELECT a FROM t WHERE 5 BETWEEN b AND 7.5",
      "INSERT INTO t (a, b, c) VALUES (1, NULL, 'x'), (2.5, FALSE, 'y')",
  };
  for (const char* text : kTexts) {
    SCOPED_TRACE(text);
    auto shape = ShapeQuery(text);
    ASSERT_TRUE(shape.ok());
    auto analyzed = AnalyzeShape(text);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    ParsedQuery want = MustAnalyze(text);
    ParsedQuery got = InstantiateShape(*analyzed, *shape);
    EXPECT_EQ(got.tmpl->id, want.tmpl->id);
    EXPECT_EQ(got.tmpl->canonical_text, want.tmpl->canonical_text);
    EXPECT_EQ(got.params, want.params);
    EXPECT_EQ(got.bound_text, want.bound_text);
  }
}

TEST(Template, ShapesTheGrammarNeedsLiteralsForAreRefused) {
  // A `?` of the text's own and a literal the grammar consumes (a column
  // length) cannot be read back from a shape.
  EXPECT_FALSE(AnalyzeShape("SELECT a FROM t WHERE b = ?").ok());
  EXPECT_FALSE(AnalyzeShape("CREATE TABLE t (a varchar(32))").ok());
}

}  // namespace
}  // namespace chrono::sql
