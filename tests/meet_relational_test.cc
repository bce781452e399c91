// Cross-validation of the two general-meet execution strategies: the
// dense-array roll-up (MeetGeneral) and the BAT-join relational
// execution (MeetGeneralRelational) must produce identical results on
// every input.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/meet_general.h"
#include "core/meet_general_relational.h"
#include "core/restrictions.h"
#include "data/dblp_gen.h"
#include "data/paper_example.h"
#include "data/random_tree.h"
#include "model/shredder.h"
#include "tests/test_util.h"
#include "text/search.h"
#include "util/rng.h"

namespace meetxml {
namespace core {
namespace {

using meetxml::testing::MustShred;

void ExpectIdentical(const std::vector<GeneralMeet>& a,
                     const std::vector<GeneralMeet>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].meet, b[i].meet) << "result " << i;
    EXPECT_EQ(a[i].meet_path, b[i].meet_path);
    EXPECT_EQ(a[i].witness_distance, b[i].witness_distance);
    ASSERT_EQ(a[i].witnesses.size(), b[i].witnesses.size());
    for (size_t w = 0; w < a[i].witnesses.size(); ++w) {
      EXPECT_EQ(a[i].witnesses[w].assoc, b[i].witnesses[w].assoc);
      EXPECT_EQ(a[i].witnesses[w].source, b[i].witnesses[w].source);
      EXPECT_EQ(a[i].witnesses[w].distance, b[i].witnesses[w].distance);
    }
  }
}

TEST(MeetRelational, AgreesOnPaperExample) {
  auto doc = MustShred(data::PaperExampleXml());
  auto search = text::FullTextSearch::Build(doc);
  ASSERT_TRUE(search.ok());
  for (auto terms : {std::vector<std::string>{"Bit", "1999"},
                     std::vector<std::string>{"Ben", "Bit"},
                     std::vector<std::string>{"Bob", "Byte"},
                     std::vector<std::string>{"1999"}}) {
    auto matches = search->SearchAll(terms, text::MatchMode::kContains);
    ASSERT_TRUE(matches.ok());
    auto inputs = text::FullTextSearch::ToMeetInput(*matches);
    auto array_result = MeetGeneral(doc, inputs);
    auto relational_result = MeetGeneralRelational(doc, inputs);
    ASSERT_TRUE(array_result.ok() && relational_result.ok());
    ExpectIdentical(*array_result, *relational_result);
  }
}

TEST(MeetRelational, OrdersTiesAndWitnessesLikeMeetGeneral) {
  // The two orders only a full tie exposes: the duplicate @key and the
  // duplicate article meet on one node at one distance (ranked by
  // witness list), and twenty sets matching one cdata node give one
  // meet whose witnesses are equal on (node, path) (ordered by source,
  // past the size where a sort stops being an insertion sort).
  auto doc = MustShred(data::PaperExampleXml());
  Oid article = meetxml::testing::FindElement(doc, "article");
  PathId article_path = doc.path(article);
  PathId key_path =
      doc.paths().Find(article_path, model::StepKind::kAttribute, "key");
  ASSERT_NE(key_path, bat::kInvalidPathId);
  Oid bit = meetxml::testing::FindCdataNode(doc, "Bit");
  std::vector<AssocSet> inputs = {{key_path, {article}},
                                  {article_path, {article}},
                                  {key_path, {article}},
                                  {article_path, {article}}};
  for (int i = 0; i < 20; ++i) inputs.push_back({doc.path(bit), {bit}});
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "inputs as listed" : "inputs reversed");
    auto array_result = MeetGeneral(doc, inputs);
    auto relational_result = MeetGeneralRelational(doc, inputs);
    ASSERT_TRUE(array_result.ok()) << array_result.status();
    ASSERT_TRUE(relational_result.ok()) << relational_result.status();
    ASSERT_EQ(array_result->size(), 3u);
    ExpectIdentical(*array_result, *relational_result);
    std::reverse(inputs.begin(), inputs.end());
  }
}

TEST(MeetRelational, AgreesWithOptions) {
  auto doc = MustShred(data::PaperExampleXml());
  auto search = text::FullTextSearch::Build(doc);
  ASSERT_TRUE(search.ok());
  auto matches =
      search->SearchAll({"Bit", "Bob", "1999"}, text::MatchMode::kContains);
  ASSERT_TRUE(matches.ok());
  auto inputs = text::FullTextSearch::ToMeetInput(*matches);

  MeetOptions options = ExcludeRootOptions(doc);
  options.max_distance = 6;
  auto array_result = MeetGeneral(doc, inputs, options);
  auto relational_result = MeetGeneralRelational(doc, inputs, options);
  ASSERT_TRUE(array_result.ok() && relational_result.ok());
  ExpectIdentical(*array_result, *relational_result);
}

TEST(MeetRelational, ReportsJoinStats) {
  auto doc = MustShred(data::PaperExampleXml());
  auto search = text::FullTextSearch::Build(doc);
  ASSERT_TRUE(search.ok());
  auto matches =
      search->SearchAll({"Ben", "Bit"}, text::MatchMode::kContains);
  ASSERT_TRUE(matches.ok());
  RelationalMeetStats stats;
  auto result = MeetGeneralRelational(
      doc, text::FullTextSearch::ToMeetInput(*matches), {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.joins, 0u);
  EXPECT_GT(stats.paths_touched, 0u);
}

class MeetRelationalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MeetRelationalProperty, AgreesOnRandomTreesAndSamples) {
  data::RandomTreeOptions options;
  options.seed = GetParam();
  options.target_elements = 250;
  options.tag_vocabulary = 4;
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());
  auto shredded = model::Shred(*generated);
  ASSERT_TRUE(shredded.ok());
  const model::StoredDocument& doc = *shredded;

  util::Rng rng(GetParam() * 31 + 17);
  for (int trial = 0; trial < 10; ++trial) {
    // Random sample grouped into uniformly-typed sets.
    std::map<PathId, AssocSet> grouped;
    int n = 5 + static_cast<int>(rng.NextBelow(60));
    for (int i = 0; i < n; ++i) {
      Oid node = static_cast<Oid>(rng.NextBelow(doc.node_count()));
      auto& set = grouped[doc.path(node)];
      set.path = doc.path(node);
      set.nodes.push_back(node);
    }
    std::vector<AssocSet> inputs;
    for (auto& [path, set] : grouped) inputs.push_back(std::move(set));

    auto array_result = MeetGeneral(doc, inputs);
    auto relational_result = MeetGeneralRelational(doc, inputs);
    ASSERT_TRUE(array_result.ok() && relational_result.ok());
    ExpectIdentical(*array_result, *relational_result);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeetRelationalProperty,
                         ::testing::Values(7, 77, 777, 7777));

TEST(MeetRelational, AgreesOnDblpCaseStudy) {
  data::DblpOptions options;
  options.end_year = 1990;
  options.icde_papers_per_year = 12;
  options.other_papers_per_year = 30;
  options.journal_articles_per_year = 10;
  auto generated = data::GenerateDblp(options);
  ASSERT_TRUE(generated.ok());
  auto doc = model::Shred(*generated);
  ASSERT_TRUE(doc.ok());
  auto search = text::FullTextSearch::Build(*doc);
  ASSERT_TRUE(search.ok());
  auto matches =
      search->SearchAll({"ICDE", "1989"}, text::MatchMode::kContains);
  ASSERT_TRUE(matches.ok());
  auto inputs = text::FullTextSearch::ToMeetInput(*matches);
  auto array_result =
      MeetGeneral(*doc, inputs, ExcludeRootOptions(*doc));
  auto relational_result =
      MeetGeneralRelational(*doc, inputs, ExcludeRootOptions(*doc));
  ASSERT_TRUE(array_result.ok() && relational_result.ok());
  ExpectIdentical(*array_result, *relational_result);
  EXPECT_GT(array_result->size(), 0u);
}

}  // namespace
}  // namespace core
}  // namespace meetxml
