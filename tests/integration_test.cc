// End-to-end integration tests: whole pipelines across modules —
// generate -> serialize -> parse -> shred -> persist -> reload ->
// index -> search -> meet -> filter -> reassemble, plus the query
// language over generated corpora.

#include <set>

#include <gtest/gtest.h>

#include "core/idref.h"
#include "core/meet_general.h"
#include "core/restrictions.h"
#include "data/dblp_gen.h"
#include "data/multimedia_gen.h"
#include "model/reassembly.h"
#include "model/shredder.h"
#include "model/stats.h"
#include "model/storage_io.h"
#include "query/executor.h"
#include "tests/test_util.h"
#include "text/search.h"
#include "text/thesaurus.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace meetxml {
namespace {

using meetxml::testing::MustShred;

class DblpPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DblpOptions options;
    options.end_year = 1992;
    options.icde_papers_per_year = 15;
    options.other_papers_per_year = 45;
    options.journal_articles_per_year = 15;
    auto generated = data::GenerateDblp(options);
    ASSERT_TRUE(generated.ok());
    // Serialize + reparse: the pipeline a real deployment runs.
    xml::SerializeOptions serialize_options;
    serialize_options.indent = 1;
    std::string xml_text = xml::Serialize(*generated, serialize_options);
    auto doc = model::ShredXmlText(xml_text);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = new model::StoredDocument(std::move(*doc));
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }

  static model::StoredDocument* doc_;
};

model::StoredDocument* DblpPipeline::doc_ = nullptr;

TEST_F(DblpPipeline, SerializeReparseShredIsStable) {
  // Shredding the reparse of the reassembled root reproduces the same
  // node/string/path counts.
  auto rebuilt = model::ReassembleToXml(*doc_, doc_->root(), 0);
  ASSERT_TRUE(rebuilt.ok());
  auto again = model::ShredXmlText(*rebuilt);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->node_count(), doc_->node_count());
  EXPECT_EQ(again->string_count(), doc_->string_count());
  EXPECT_EQ(again->paths().size(), doc_->paths().size());
}

TEST_F(DblpPipeline, PersistReloadQueryAgrees) {
  auto bytes = model::SaveToBytes(*doc_);
  ASSERT_TRUE(bytes.ok());
  auto reloaded = model::LoadFromBytes(*bytes);
  ASSERT_TRUE(reloaded.ok());

  auto run_query = [](const model::StoredDocument& doc) {
    auto executor = query::Executor::Build(doc);
    EXPECT_TRUE(executor.ok());
    auto result = executor->ExecuteText(
        "select meet(a, b) from dblp//cdata a, dblp//cdata b "
        "where a contains 'ICDE' and b contains '1990' exclude dblp");
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->meets.size() : size_t{0};
  };
  size_t original_count = run_query(*doc_);
  size_t reloaded_count = run_query(*reloaded);
  EXPECT_GT(original_count, 0u);
  EXPECT_EQ(original_count, reloaded_count);
}

TEST_F(DblpPipeline, CaseStudyResultsAreIcdePublications) {
  auto search = text::FullTextSearch::Build(*doc_);
  ASSERT_TRUE(search.ok());
  auto matches =
      search->SearchAll({"ICDE", "1991"}, text::MatchMode::kContains);
  ASSERT_TRUE(matches.ok());
  std::vector<size_t> source_terms;
  auto inputs =
      text::FullTextSearch::ToMeetInput(*matches, &source_terms);
  auto meets = core::MeetGeneral(*doc_, inputs,
                                 core::ExcludeRootOptions(*doc_));
  ASSERT_TRUE(meets.ok());
  ASSERT_GT(meets->size(), 0u);

  // Require both *terms* covered: every surviving result must be an
  // ICDE entry (inproceedings or proceedings or a cdata inside one).
  std::vector<core::GeneralMeet> covering;
  for (core::GeneralMeet& meet : *meets) {
    std::set<size_t> terms;
    for (const core::MeetWitness& witness : meet.witnesses) {
      terms.insert(source_terms[witness.source]);
    }
    if (terms.size() >= 2) covering.push_back(std::move(meet));
  }
  ASSERT_GT(covering.size(), 0u);
  size_t icde_entries = 0;
  for (const core::GeneralMeet& meet : covering) {
    bat::Oid node = meet.meet;
    // Climb to the enclosing publication element.
    while (node != doc_->root() && doc_->tag(node) != "inproceedings" &&
           doc_->tag(node) != "proceedings") {
      node = doc_->parent(node);
    }
    if (node == doc_->root()) continue;
    auto xml_text = model::ReassembleToXml(*doc_, node, 0);
    ASSERT_TRUE(xml_text.ok());
    if (xml_text->find("ICDE") != std::string::npos &&
        xml_text->find("1991") != std::string::npos) {
      ++icde_entries;
    }
  }
  // The vast majority (paper: "just two false positives").
  EXPECT_GE(icde_entries * 10, covering.size() * 9);
}

TEST_F(DblpPipeline, StatsReflectTheCorpus) {
  auto stats = model::ComputeStats(*doc_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->node_count, doc_->node_count());
  EXPECT_GT(stats->max_fanout, 100u);  // flat dblp root
  EXPECT_EQ(stats->max_depth, 4u);     // dblp/pub/field/cdata
}

TEST_F(DblpPipeline, ThesaurusBroadensVenueSearch) {
  auto search = text::FullTextSearch::Build(*doc_);
  ASSERT_TRUE(search.ok());
  text::Thesaurus thesaurus;
  thesaurus.AddRing({"datenbanktagung", "ICDE"});

  text::ExpandedSearchOptions options;
  options.mode = text::MatchMode::kContains;
  auto direct = search->Search("datenbanktagung",
                               text::MatchMode::kContains);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->total(), 0u);
  auto expanded =
      text::SearchExpanded(*search, thesaurus, "datenbanktagung", options);
  ASSERT_TRUE(expanded.ok());
  EXPECT_GT(expanded->total(), 0u);
}

// ---- Multimedia pipeline ---------------------------------------------------

TEST(MultimediaPipeline, PlantedDistancesSurviveTheFullPipeline) {
  data::MultimediaOptions options;
  options.items = 100;
  options.max_planted_distance = 12;
  auto corpus = data::GenerateMultimedia(options);
  ASSERT_TRUE(corpus.ok());

  // Serialize + reparse, then verify every planted pair's distance via
  // full-text + meet.
  xml::SerializeOptions serialize_options;
  serialize_options.indent = 1;
  std::string xml_text = xml::Serialize(corpus->doc, serialize_options);
  auto doc = model::ShredXmlText(xml_text);
  ASSERT_TRUE(doc.ok());
  auto search = text::FullTextSearch::Build(*doc);
  ASSERT_TRUE(search.ok());

  for (const data::PlantedPair& pair : corpus->pairs) {
    auto matches = search->SearchAll({pair.term_a, pair.term_b},
                                     text::MatchMode::kContains);
    ASSERT_TRUE(matches.ok());
    auto meets = core::MeetGeneral(
        *doc, text::FullTextSearch::ToMeetInput(*matches));
    ASSERT_TRUE(meets.ok());
    ASSERT_EQ(meets->size(), 1u) << "pair at distance " << pair.distance;
    EXPECT_EQ((*meets)[0].witness_distance, pair.distance);
  }
}

// ---- Citation graph over the query surface ---------------------------------

TEST(IdrefPipeline, CitationsConnectAcrossPublications) {
  // Build a mini corpus with citations and resolve a cross-publication
  // proximity meet that the tree meet would place at the root.
  std::string xml_text = R"(
    <bib>
      <section><paper id="p1"><title>meet operator</title>
        <cites ref="p2"/></paper></section>
      <section><paper id="p2"><title>path summaries</title></paper>
      </section>
      <section><paper id="p3"><title>unrelated work</title></paper>
      </section>
    </bib>)";
  auto doc = MustShred(xml_text);
  auto graph = core::IdrefGraph::Build(doc);
  ASSERT_TRUE(graph.ok());

  bat::Oid p1 = graph->Resolve("p1");
  bat::Oid p2 = graph->Resolve("p2");
  bat::Oid p3 = graph->Resolve("p3");
  ASSERT_NE(p1, bat::kInvalidOid);

  // Via the citation, p1 -> cites -> p2 is 2 edges; the tree route
  // through bib is 4. p1 .. p3 has no citation, so it stays at 4.
  auto linked = core::GraphDistance(doc, *graph, p1, p2);
  auto unlinked = core::GraphDistance(doc, *graph, p1, p3);
  ASSERT_TRUE(linked.ok() && unlinked.ok());
  EXPECT_EQ(*linked, 2);
  EXPECT_EQ(*unlinked, 4);
  auto meet = core::GraphMeet(doc, *graph, p1, p2);
  ASSERT_TRUE(meet.ok());
  EXPECT_NE(meet->meet, doc.root());
}

}  // namespace
}  // namespace meetxml
