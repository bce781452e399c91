// Tests for the query language: lexer, parser, path-pattern matching and
// the executor (both meet aggregation and the regular-path-expression
// baseline of the paper's introduction).

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "model/shredder.h"
#include "query/executor.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/path_match.h"
#include "tests/test_util.h"

namespace meetxml {
namespace query {
namespace {

using meetxml::testing::MustShred;

// ---- Lexer --------------------------------------------------------------

TEST(Lexer, TokenizesBasicQuery) {
  auto tokens = Lex("select meet(o1, o2) from a//cdata o1");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSelect);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kMeet);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kLparen);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEof);
}

TEST(Lexer, KeywordsAreCaseInsensitive) {
  auto tokens = Lex("SELECT Select sElEcT");
  ASSERT_TRUE(tokens.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*tokens)[i].kind, TokenKind::kSelect);
  }
}

TEST(Lexer, StringsWithBothQuoteStyles) {
  auto tokens = Lex("'single' \"double\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "single");
  EXPECT_EQ((*tokens)[1].text, "double");
}

TEST(Lexer, DistinguishesSlashes) {
  auto tokens = Lex("a/b//c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kSlash);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kDoubleSlash);
}

TEST(Lexer, RejectsUnterminatedString) {
  EXPECT_FALSE(Lex("select 'oops").ok());
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_FALSE(Lex("select %").ok());
  EXPECT_FALSE(Lex("a < b").ok());  // only <= is a token
}

// ---- Parser -------------------------------------------------------------

TEST(Parser, ParsesThePaperQuery) {
  auto query = ParseQuery(
      "select meet(o1, o2) "
      "from bibliography//cdata as o1, bibliography//cdata as o2 "
      "where o1 contains 'Bit' and o2 contains '1999'");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query->projections.size(), 1u);
  EXPECT_EQ(query->projections[0].kind, Projection::Kind::kMeet);
  EXPECT_EQ(query->projections[0].vars,
            (std::vector<std::string>{"o1", "o2"}));
  ASSERT_EQ(query->bindings.size(), 2u);
  EXPECT_EQ(query->bindings[0].var, "o1");
  ASSERT_EQ(query->where.size(), 2u);
  ASSERT_EQ(query->where[0].op, BoolExpr::Op::kLeaf);
  EXPECT_EQ(query->where[0].leaf.kind, Predicate::Kind::kContains);
  EXPECT_EQ(query->where[0].leaf.literal, "Bit");
}

TEST(Parser, AsIsOptional) {
  auto query = ParseQuery("select o from a//cdata o");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->bindings[0].var, "o");
}

TEST(Parser, ParsesRestrictionClauses) {
  auto query = ParseQuery(
      "select meet(o1, o2) from dblp//cdata o1, dblp//cdata o2 "
      "where o1 contains 'ICDE' and o2 contains '1999' "
      "exclude dblp within 8 limit 100");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query->excludes.size(), 1u);
  ASSERT_TRUE(query->within.has_value());
  EXPECT_EQ(*query->within, 8);
  ASSERT_TRUE(query->limit.has_value());
  EXPECT_EQ(*query->limit, 100);
}

TEST(Parser, ParsesDistancePredicate) {
  auto query = ParseQuery(
      "select meet(a, b) from x//cdata a, x//cdata b "
      "where distance(a, b) <= 4");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query->where.size(), 1u);
  ASSERT_EQ(query->where[0].op, BoolExpr::Op::kLeaf);
  EXPECT_EQ(query->where[0].leaf.kind, Predicate::Kind::kDistanceLe);
  EXPECT_EQ(query->where[0].leaf.bound, 4);
}

TEST(Parser, ParsesBooleanPredicates) {
  auto query = ParseQuery(
      "select o from a//cdata o "
      "where (o contains 'x' or o contains 'y') and not o contains 'z'");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query->where.size(), 2u);
  EXPECT_EQ(query->where[0].op, BoolExpr::Op::kOr);
  EXPECT_EQ(query->where[1].op, BoolExpr::Op::kNot);
}

TEST(Parser, AndBindsTighterThanOr) {
  auto query = ParseQuery(
      "select o from a//cdata o "
      "where o contains 'x' or o contains 'y' and o contains 'z'");
  ASSERT_TRUE(query.ok()) << query.status();
  // x or (y and z): one top-level conjunct, an OR whose right child is
  // an AND.
  ASSERT_EQ(query->where.size(), 1u);
  ASSERT_EQ(query->where[0].op, BoolExpr::Op::kOr);
  EXPECT_EQ(query->where[0].children[1].op, BoolExpr::Op::kAnd);
}

TEST(Parser, RejectsCrossVariableBoolean) {
  auto query = ParseQuery(
      "select o from a//cdata o, a//cdata p "
      "where o contains 'x' or p contains 'y'");
  ASSERT_FALSE(query.ok());
  EXPECT_NE(query.status().message().find("one variable"),
            std::string::npos);
}

TEST(Parser, RejectsDistanceUnderNot) {
  auto query = ParseQuery(
      "select meet(o, p) from a//cdata o, a//cdata p "
      "where not distance(o, p) <= 3");
  EXPECT_FALSE(query.ok());
}

TEST(Parser, ParsesAttributeAndWildcardSteps) {
  auto pattern = ParsePathPattern("dblp/*/inproceedings/@key");
  ASSERT_TRUE(pattern.ok()) << pattern.status();
  ASSERT_EQ(pattern->steps.size(), 4u);
  EXPECT_EQ(pattern->steps[0].kind, PatternStep::Kind::kName);
  EXPECT_EQ(pattern->steps[1].kind, PatternStep::Kind::kAnyElement);
  EXPECT_EQ(pattern->steps[3].kind, PatternStep::Kind::kAttribute);
  EXPECT_EQ(pattern->steps[3].label, "key");
}

struct BadQuery {
  const char* name;
  const char* text;
};

// gtest would print the two pointers' bytes, which change from build to
// build; the case name keeps each registered test name stable.
void PrintTo(const BadQuery& query, std::ostream* os) { *os << query.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ParserErrorTest, Rejects) {
  auto query = ParseQuery(GetParam().text);
  EXPECT_FALSE(query.ok()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrorTest,
    ::testing::Values(
        BadQuery{"empty", ""},
        BadQuery{"no_from", "select o"},
        BadQuery{"undeclared_select_var", "select x from a o"},
        BadQuery{"undeclared_where_var",
                 "select o from a o where q contains 'x'"},
        BadQuery{"duplicate_var", "select o from a o, b o"},
        BadQuery{"missing_pattern", "select o from  o where"},
        BadQuery{"bad_predicate", "select o from a o where o like 'x'"},
        BadQuery{"missing_literal", "select o from a o where o contains"},
        BadQuery{"meet_no_vars", "select meet() from a o"},
        BadQuery{"distance_one_var",
                 "select meet(o) from a o where distance(o) <= 2"},
        BadQuery{"trailing_junk", "select o from a o garbage"},
        BadQuery{"attr_mid_pattern_missing_name",
                 "select o from a/@ o"}),
    [](const ::testing::TestParamInfo<BadQuery>& info) {
      return info.param.name;
    });

// ---- Path pattern matching ----------------------------------------------

class PathMatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = MustShred(data::PaperExampleXml());
  }

  std::vector<std::string> Match(const std::string& pattern_text) {
    auto pattern = ParsePathPattern(pattern_text);
    EXPECT_TRUE(pattern.ok()) << pattern.status();
    auto matched = MatchPattern(doc_.paths(), *pattern);
    EXPECT_TRUE(matched.ok()) << matched.status();
    std::vector<std::string> names;
    for (bat::PathId id : *matched) {
      names.push_back(doc_.paths().ToString(id));
    }
    return names;
  }

  model::StoredDocument doc_;
};

TEST_F(PathMatchTest, ExactPath) {
  auto names = Match("bibliography/institute/article");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "bibliography/institute/article");
}

TEST_F(PathMatchTest, DescendantCdata) {
  auto names = Match("bibliography//cdata");
  // author, firstname, lastname, title, year cdata paths = 5.
  EXPECT_EQ(names.size(), 5u);
}

TEST_F(PathMatchTest, SingleWildcard) {
  auto names = Match("bibliography/*/article");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "bibliography/institute/article");
}

TEST_F(PathMatchTest, WildcardDoesNotSkipLevels) {
  EXPECT_TRUE(Match("bibliography/*/author").empty());
}

TEST_F(PathMatchTest, AttributeStep) {
  auto names = Match("bibliography//article/@key");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "bibliography/institute/article/@key");
}

TEST_F(PathMatchTest, RootAnchored) {
  // 'institute' alone does not match: patterns anchor at the root.
  EXPECT_TRUE(Match("institute").empty());
  EXPECT_EQ(Match("bibliography/institute").size(), 1u);
}

TEST_F(PathMatchTest, DescendantMatchesZeroSteps) {
  // a//b matches a/b as well (empty gap).
  EXPECT_EQ(Match("bibliography//institute").size(), 1u);
}

TEST_F(PathMatchTest, RecursiveSchema) {
  auto doc = MustShred("<a><a><a>x</a></a></a>");
  auto pattern = ParsePathPattern("a//a");
  ASSERT_TRUE(pattern.ok());
  auto matched = MatchPattern(doc.paths(), *pattern);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->size(), 2u);  // a/a and a/a/a
}

// ---- Executor -------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = MustShred(data::PaperExampleXml());
    auto executor = Executor::Build(doc_);
    ASSERT_TRUE(executor.ok());
    executor_ = std::make_unique<Executor>(std::move(*executor));
  }

  QueryResult Run(const std::string& text) {
    auto result = executor_->ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status() << "\nquery: " << text;
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  model::StoredDocument doc_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, PaperMeetQueryReturnsExactlyTheArticle) {
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Bit' and o2 contains '1999'");
  ASSERT_EQ(result.meets.size(), 1u);
  EXPECT_EQ(doc_.tag(result.meets[0].meet), "article");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "article");
}

TEST_F(ExecutorTest, PaperBaselineQueryImpliesAncestors) {
  // The §1 regular-path-expression baseline: each (x1, x2) match pair
  // implies all of its common ancestors. Bit x its own article's 1999
  // gives {article, institute, bibliography}; Bit x the other article's
  // 1999 gives {institute, bibliography}: 5 rows, of which only
  // `article` is the answer the user wanted.
  QueryResult result = Run(
      "select ancestors(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Bit' and o2 contains '1999'");
  EXPECT_EQ(result.total_ancestor_rows, 5u);
  std::multiset<std::string> tags;
  for (const auto& row : result.rows) tags.insert(row[0]);
  EXPECT_EQ(tags.count("article"), 1u);
  EXPECT_EQ(tags.count("institute"), 2u);
  EXPECT_EQ(tags.count("bibliography"), 2u);
}

TEST_F(ExecutorTest, MeetIsSubsetOfBaseline) {
  QueryResult meet = Run(
      "select meet(o1, o2) from bibliography//cdata o1, "
      "bibliography//cdata o2 "
      "where o1 contains 'Bit' and o2 contains '1999'");
  QueryResult baseline = Run(
      "select ancestors(o1, o2) from bibliography//cdata o1, "
      "bibliography//cdata o2 "
      "where o1 contains 'Bit' and o2 contains '1999'");
  EXPECT_LT(meet.rows.size(), baseline.total_ancestor_rows);
}

TEST_F(ExecutorTest, SelectVarListsBindings) {
  QueryResult result = Run(
      "select o from bibliography//cdata o where o contains '1999'");
  EXPECT_EQ(result.rows.size(), 2u);
  for (const auto& row : result.rows) EXPECT_EQ(row[0], "cdata");
}

TEST_F(ExecutorTest, SelectCount) {
  QueryResult result =
      Run("select count(o) from bibliography//cdata o");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "7");
}

TEST_F(ExecutorTest, SelectTagOfMatchedPaths) {
  QueryResult result = Run("select tag(o) from bibliography/institute/* o");
  // institute's element children: article only.
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "article");
}

TEST_F(ExecutorTest, SelectXmlReassembles) {
  QueryResult result = Run(
      "select xml(o) from bibliography//article/year o limit 1");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "<year>1999</year>");
}

TEST_F(ExecutorTest, AttributePredicate) {
  QueryResult result = Run(
      "select o from bibliography//article/@key o where o = 'BB99'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][1], "bibliography/institute/article/@key");
}

TEST_F(ExecutorTest, WordPredicate) {
  QueryResult hack = Run(
      "select o from bibliography//cdata o where o word 'Hack'");
  EXPECT_EQ(hack.rows.size(), 1u);  // "How to Hack" only
  QueryResult icase = Run(
      "select o from bibliography//cdata o where o icontains 'hack'");
  EXPECT_EQ(icase.rows.size(), 2u);
}

TEST_F(ExecutorTest, ExcludeClauseFiltersMeets) {
  // Bit and Bob Byte meet at institute; exclude it -> empty.
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Bit' and o2 contains 'Bob' "
      "exclude bibliography/institute");
  EXPECT_TRUE(result.meets.empty());
}

TEST_F(ExecutorTest, WithinClauseFiltersMeets) {
  QueryResult wide = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Ben' and o2 contains 'Bit' within 4");
  EXPECT_EQ(wide.meets.size(), 1u);
  QueryResult tight = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Ben' and o2 contains 'Bit' within 3");
  EXPECT_TRUE(tight.meets.empty());
}

TEST_F(ExecutorTest, DistancePredicateActsAsDMeet) {
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Ben' and o2 contains 'Bit' "
      "and distance(o1, o2) <= 3");
  EXPECT_TRUE(result.meets.empty());
}

TEST_F(ExecutorTest, LimitTruncates) {
  QueryResult result =
      Run("select o from bibliography//cdata o limit 3");
  EXPECT_EQ(result.rows.size(), 3u);
  EXPECT_TRUE(result.truncated);
}

TEST_F(ExecutorTest, EmptyMatchSetIsNotAnError) {
  // One term matches nothing, the other a single node: no pair or
  // intra-set convergence exists, so the answer is empty but the query
  // succeeds.
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'nosuchstring' and o2 contains 'Ben'");
  EXPECT_TRUE(result.meets.empty());
}

TEST_F(ExecutorTest, IntraSetConvergenceIsReportedAsInThePaper) {
  // The general meet calls a node a meet when it is the LCA of at least
  // two input nodes regardless of source (§3.2): the two 1999 cdatas
  // alone converge at institute.
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'nosuchstring' and o2 contains '1999'");
  ASSERT_EQ(result.meets.size(), 1u);
  EXPECT_EQ(doc_.tag(result.meets[0].meet), "institute");
}

TEST_F(ExecutorTest, RejectsMultipleProjections) {
  auto result = executor_->ExecuteText(
      "select o, tag(o) from bibliography//cdata o");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotImplemented());
}

TEST_F(ExecutorTest, OrPredicateUnionsMatches) {
  QueryResult result = Run(
      "select o from bibliography//cdata o "
      "where o contains 'Ben' or o contains 'Bob'");
  EXPECT_EQ(result.rows.size(), 2u);  // "Ben" and "Bob Byte"
}

TEST_F(ExecutorTest, NotPredicateComplements) {
  QueryResult all = Run("select count(o) from bibliography//cdata o");
  QueryResult with = Run(
      "select count(o) from bibliography//cdata o "
      "where o icontains 'hack'");
  QueryResult without = Run(
      "select count(o) from bibliography//cdata o "
      "where not o icontains 'hack'");
  int total = std::stoi(all.rows[0][0]);
  EXPECT_EQ(std::stoi(with.rows[0][0]) + std::stoi(without.rows[0][0]),
            total);
}

TEST_F(ExecutorTest, ParenthesizedBooleanInMeetQuery) {
  // Either spelling of the author matches; combined with the year the
  // nearest concept is still the article.
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where (o1 contains 'Bit' or o1 contains 'Bitt') "
      "and o2 contains '1999'");
  ASSERT_EQ(result.meets.size(), 1u);
  EXPECT_EQ(doc_.tag(result.meets[0].meet), "article");
}

TEST_F(ExecutorTest, PhrasePredicate) {
  QueryResult hit = Run(
      "select o from bibliography//cdata o "
      "where o phrase 'how to hack'");
  EXPECT_EQ(hit.rows.size(), 1u);
  QueryResult miss = Run(
      "select o from bibliography//cdata o "
      "where o phrase 'hack to how'");
  EXPECT_TRUE(miss.rows.empty());
}

TEST_F(ExecutorTest, PhraseCombinesWithMeet) {
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 phrase 'how to hack' and o2 contains '1999'");
  ASSERT_EQ(result.meets.size(), 1u);
  EXPECT_EQ(doc_.tag(result.meets[0].meet), "article");
}

TEST_F(ExecutorTest, SynonymPredicateUsesTheThesaurus) {
  // Without a thesaurus, SYNONYM behaves like ICONTAINS of the literal.
  QueryResult bare = Run(
      "select o from bibliography//cdata o where o synonym 'exploit'");
  EXPECT_TRUE(bare.rows.empty());

  text::Thesaurus thesaurus;
  thesaurus.AddRing({"exploit", "hack"});
  executor_->SetThesaurus(std::move(thesaurus));
  QueryResult expanded = Run(
      "select o from bibliography//cdata o where o synonym 'exploit'");
  EXPECT_EQ(expanded.rows.size(), 2u);  // both titles contain "Hack"
}

TEST_F(ExecutorTest, SynonymFeedsTheMeet) {
  text::Thesaurus thesaurus;
  thesaurus.AddRing({"benjamin", "ben"});
  executor_->SetThesaurus(std::move(thesaurus));
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 synonym 'benjamin' and o2 contains 'Bit'");
  ASSERT_EQ(result.meets.size(), 1u);
  EXPECT_EQ(doc_.tag(result.meets[0].meet), "author");
}

TEST_F(ExecutorTest, ExplainShowsBindingPlan) {
  auto plan = executor_->ExplainText(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//article/@key o2 "
      "where o1 contains 'Bit' exclude bibliography within 9 limit 7");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("binding o1"), std::string::npos);
  EXPECT_NE(plan->find("bibliography//cdata"), std::string::npos);
  EXPECT_NE(plan->find("1 after predicates"), std::string::npos);
  EXPECT_NE(plan->find("within 9"), std::string::npos);
  EXPECT_NE(plan->find("limit 7"), std::string::npos);
  EXPECT_NE(plan->find("meet (nearest concepts)"), std::string::npos);
}

TEST_F(ExecutorTest, ExplainNamesIndexedFilteredAndScannedConjuncts) {
  auto mixed = executor_->ExplainText(
      "select o from bibliography//cdata o "
      "where (o contains 'Bit' or o word 'hack') and o icontains 'b'");
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_NE(mixed->find("  index: o CONTAINS 'Bit' OR o WORD 'hack'\n"),
            std::string::npos)
      << *mixed;
  EXPECT_NE(mixed->find("  filter: o ICONTAINS 'b'\n"), std::string::npos)
      << *mixed;

  auto scan = executor_->ExplainText(
      "select o from bibliography//cdata o where o icontains 'bit'");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_NE(scan->find("  scan: o ICONTAINS 'bit'\n"), std::string::npos)
      << *scan;

  // NOT and a 2-byte CONTAINS have no index path: the binding scans.
  auto unindexed = executor_->ExplainText(
      "select o from bibliography//cdata o "
      "where not (o contains 'Bit' and o = 'x') and o contains '99'");
  ASSERT_TRUE(unindexed.ok()) << unindexed.status();
  EXPECT_NE(unindexed->find("  scan: NOT (o CONTAINS 'Bit' AND o = 'x')\n"),
            std::string::npos)
      << *unindexed;

  // A tree whose index set is only a superset is also a filter.
  auto superset = executor_->ExplainText(
      "select o from bibliography//cdata o "
      "where (o contains 'Bit' and o icontains 'ben') or o word 'hack'");
  ASSERT_TRUE(superset.ok()) << superset.status();
  EXPECT_NE(superset->find("  index, then filter: (o CONTAINS 'Bit' AND "
                           "o ICONTAINS 'ben') OR o WORD 'hack'\n"),
            std::string::npos)
      << *superset;
}

TEST(Parser, RejectsEmptySearchLiterals) {
  for (const char* op : {"contains", "icontains", "word", "phrase",
                         "synonym"}) {
    std::string text = std::string("select o from a o where o ") + op + " ''";
    auto query = ParseQuery(text);
    ASSERT_FALSE(query.ok()) << text;
    EXPECT_NE(query.status().ToString().find("empty search literal"),
              std::string::npos)
        << query.status();
  }
  EXPECT_TRUE(ParseQuery("select o from a o where o = ''").ok());
}

TEST_F(ExecutorTest, EmptyLiteralFailsAloneAndUnderOr) {
  // Both forms fail the same way: at parse time, before any binding.
  auto alone = executor_->ExecuteText(
      "select o from bibliography//cdata o where o contains ''");
  auto under_or = executor_->ExecuteText(
      "select o from bibliography//cdata o "
      "where o contains '' or o contains 'zzzz'");
  ASSERT_FALSE(alone.ok());
  ASSERT_FALSE(under_or.ok());
  EXPECT_EQ(alone.status().code(), under_or.status().code());
  EXPECT_NE(under_or.status().ToString().find("empty search literal"),
            std::string::npos);
  // Equality with the empty string stays a valid (here empty) filter.
  EXPECT_TRUE(
      Run("select o from bibliography//cdata o where o = ''").rows.empty());
}

TEST_F(ExecutorTest, PhraseWithoutIndexableWordsBindsNothing) {
  QueryResult result =
      Run("select o from bibliography//cdata o where o phrase '--'");
  EXPECT_TRUE(result.rows.empty());
  EXPECT_TRUE(executor_->text_index_built());
}

TEST_F(ExecutorTest, GraphMeetProjectionOnTreeOnlyDataEqualsMeet) {
  // Without references GMEET degenerates to the tree meet.
  QueryResult graph = Run(
      "select gmeet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Ben' and o2 contains 'Bit'");
  ASSERT_EQ(graph.rows.size(), 1u);
  EXPECT_EQ(graph.rows[0][0], "author");
  EXPECT_EQ(graph.rows[0][3], "4");
}

TEST_F(ExecutorTest, GraphMeetRespectsWithin) {
  QueryResult blocked = Run(
      "select gmeet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Ben' and o2 contains 'Bit' within 3");
  EXPECT_TRUE(blocked.rows.empty());
}

TEST_F(ExecutorTest, GraphMeetFollowsReferences) {
  auto doc = meetxml::testing::MustShred(R"(
    <lib>
      <shelf><book id="b1"><t>alpha</t><see ref="b2"/></book></shelf>
      <shelf><book id="b2"><t>beta</t></book></shelf>
    </lib>)");
  auto executor = Executor::Build(doc);
  ASSERT_TRUE(executor.ok());
  auto result = executor->ExecuteText(
      "select gmeet(o1, o2) from lib//cdata o1, lib//cdata o2 "
      "where o1 contains 'alpha' and o2 contains 'beta'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->rows.empty());
  // Tree route: cdata-t-book-shelf-lib-shelf-book-t-cdata = 8 edges;
  // via the reference: cdata-t-book-see-book-t-cdata = 6.
  EXPECT_EQ(result->rows[0][3], "6");
}

TEST_F(ExecutorTest, GraphMeetRequiresTwoVars) {
  auto bad = executor_->ExecuteText(
      "select gmeet(o1) from bibliography//cdata o1");
  EXPECT_FALSE(bad.ok());
}

TEST_F(ExecutorTest, ToTextRendersTable) {
  QueryResult result = Run(
      "select meet(o1, o2) "
      "from bibliography//cdata o1, bibliography//cdata o2 "
      "where o1 contains 'Bit' and o2 contains '1999'");
  std::string text = result.ToText();
  EXPECT_NE(text.find("meet"), std::string::npos);
  EXPECT_NE(text.find("article"), std::string::npos);
}

}  // namespace
}  // namespace query
}  // namespace meetxml
