// Tests for the join-count ranking (paper §4) and document statistics.

#include <gtest/gtest.h>

#include "core/meet_general.h"
#include "data/dblp_gen.h"
#include "data/paper_example.h"
#include "model/shredder.h"
#include "model/stats.h"
#include "tests/test_util.h"
#include "text/search.h"

namespace meetxml {
namespace core {
namespace {

using meetxml::testing::MustShred;

std::vector<GeneralMeet> MeetsFor(const model::StoredDocument& doc,
                                  const std::vector<std::string>& terms) {
  auto search = text::FullTextSearch::Build(doc);
  EXPECT_TRUE(search.ok());
  auto matches = search->SearchAll(terms, text::MatchMode::kContains);
  EXPECT_TRUE(matches.ok());
  auto meets = MeetGeneral(
      doc, text::FullTextSearch::ToMeetInput(*matches));
  EXPECT_TRUE(meets.ok());
  return std::move(*meets);
}

TEST(Ranking, TighterMeetsRankFirst) {
  // The library's ranking is the paper's §4 join count: MeetGeneral
  // orders its answer by ascending witness distance.
  auto doc = MustShred(
      "<r><deep><x>aa</x><x>bb</x></deep>"
      "<l><m>aa</m></l><n><o>bb</o></n></r>");
  auto meets = MeetsFor(doc, {"aa", "bb"});
  ASSERT_EQ(meets.size(), 2u);
  EXPECT_EQ(doc.tag(meets[0].meet), "deep");
  EXPECT_LT(meets[0].witness_distance, meets[1].witness_distance);
}

TEST(Ranking, EmptyInputYieldsEmpty) {
  auto doc = MustShred("<a/>");
  EXPECT_TRUE(MeetsFor(doc, {"aa", "bb"}).empty());
}

}  // namespace
}  // namespace core

namespace model {
namespace {

using meetxml::testing::MustShred;

TEST(Stats, PaperExampleNumbers) {
  auto doc = MustShred(data::PaperExampleXml());
  auto stats = ComputeStats(doc);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->node_count, 19u);
  EXPECT_EQ(stats->element_count, 12u);
  EXPECT_EQ(stats->cdata_count, 7u);
  EXPECT_EQ(stats->string_count, 9u);
  EXPECT_EQ(stats->path_count, 14u);
  EXPECT_EQ(stats->max_depth, 6u);  // .../author/firstname/cdata
  EXPECT_GT(stats->avg_depth, 1.0);
  EXPECT_GE(stats->max_fanout, 3u);  // article has author+title+year
}

TEST(Stats, PathEntriesCoverEveryPath) {
  auto doc = MustShred(data::PaperExampleXml());
  auto stats = ComputeStats(doc);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->paths.size(), doc.paths().size());
  size_t nodes = 0;
  size_t strings = 0;
  for (const PathStats& entry : stats->paths) {
    nodes += entry.node_count;
    strings += entry.string_count;
  }
  EXPECT_EQ(nodes, doc.node_count());
  EXPECT_EQ(strings, doc.string_count());
}

TEST(Stats, StringBytesCounted) {
  auto doc = MustShred("<a><b>hello</b><b>world!</b></a>");
  auto stats = ComputeStats(doc);
  ASSERT_TRUE(stats.ok());
  size_t bytes = 0;
  for (const PathStats& entry : stats->paths) {
    bytes += entry.total_bytes;
  }
  EXPECT_EQ(bytes, 5u + 6u);
}

TEST(Stats, RenderListsLargestRelationsFirst) {
  data::DblpOptions options;
  options.end_year = 1985;
  auto generated = data::GenerateDblp(options);
  ASSERT_TRUE(generated.ok());
  auto doc = Shred(*generated);
  ASSERT_TRUE(doc.ok());
  auto stats = ComputeStats(*doc);
  ASSERT_TRUE(stats.ok());
  std::string text = RenderStats(*stats, 5);
  EXPECT_NE(text.find("nodes="), std::string::npos);
  EXPECT_NE(text.find("more relations"), std::string::npos);
  // The first listed relation is at least as big as the last.
  std::string full = RenderStats(*stats, 0);
  EXPECT_EQ(full.find("more relations"), std::string::npos);
}

TEST(Stats, RejectsUnfinalized) {
  StoredDocument doc;
  EXPECT_FALSE(ComputeStats(doc).ok());
}

}  // namespace
}  // namespace model
}  // namespace meetxml
