// Tests for the parallel bulk-load pipeline and index persistence:
// sequential/parallel equivalence (byte-identical storage images),
// MXM2 store round trips, v1 backward compatibility, lazy executor
// index semantics.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dblp_gen.h"
#include "data/random_tree.h"
#include "model/bulk_load.h"
#include "model/shredder.h"
#include "model/storage_io.h"
#include "query/executor.h"
#include "text/index_io.h"
#include "text/search.h"
#include "tests/test_util.h"
#include "util/file_io.h"
#include "xml/serializer.h"

namespace meetxml {
namespace model {
namespace {

using meetxml::testing::MustImage;
using meetxml::testing::MustShred;

// Forces the pipeline on, regardless of corpus size and machine:
// many small chunks, a fixed thread count.
BulkLoadOptions Forced(unsigned threads, size_t chunk_bytes = 512) {
  BulkLoadOptions options;
  options.threads = threads;
  options.target_chunk_bytes = chunk_bytes;
  options.min_parallel_bytes = 0;
  return options;
}

// The pipeline's contract: bit-identical to the sequential shredder.
void ExpectEquivalent(std::string_view xml_text, unsigned threads,
                      size_t chunk_bytes = 512) {
  auto sequential = ShredXmlText(xml_text);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto parallel = BulkShredXmlText(xml_text, Forced(threads, chunk_bytes));
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(MustImage(*parallel), MustImage(*sequential))
      << "threads=" << threads << " chunk_bytes=" << chunk_bytes;
}

TEST(BulkLoad, MatchesSequentialOnDblp) {
  data::DblpOptions options;
  options.end_year = 1989;
  auto xml_text = data::GenerateDblpXml(options);
  ASSERT_TRUE(xml_text.ok());
  for (unsigned threads : {1, 2, 8}) {
    ExpectEquivalent(*xml_text, threads, /*chunk_bytes=*/4096);
  }
}

TEST(BulkLoad, MatchesSequentialOnRandomTrees) {
  for (uint64_t seed : {7, 21, 42}) {
    data::RandomTreeOptions options;
    options.seed = seed;
    options.target_elements = 600;
    auto generated = data::GenerateRandomTree(options);
    ASSERT_TRUE(generated.ok());
    xml::SerializeOptions serialize_options;
    serialize_options.indent = 1;
    std::string xml_text = xml::Serialize(*generated, serialize_options);
    for (unsigned threads : {1, 2, 8}) {
      ExpectEquivalent(xml_text, threads);
    }
  }
}

TEST(BulkLoad, HandlesRootAttributesAndTopLevelText) {
  // Leading text, comment-merged text runs, CDATA, trailing text and
  // root attributes all cross the splitter's edge cases.
  std::string xml_text =
      "<?xml version=\"1.0\"?><root a=\"1\" b=\"x &amp; y\">"
      "leading <x/>mid<!-- c -->merged<y k=\"v\">t</y>"
      "<![CDATA[raw <>& text]]>trailing</root>";
  for (unsigned threads : {2, 8}) {
    ExpectEquivalent(xml_text, threads, /*chunk_bytes=*/1);
  }
}

TEST(BulkLoad, HandlesDegenerateRoots) {
  ExpectEquivalent("<a/>", 4);
  ExpectEquivalent("<a>text only</a>", 4);
  ExpectEquivalent("<a><b/></a>", 4);
}

TEST(BulkLoad, RejectsMalformedInput) {
  for (std::string_view bad :
       {"<a><b></a>", "<a>", "<a></a><b/>", "plain text", ""}) {
    auto result = BulkShredXmlText(bad, Forced(4));
    EXPECT_FALSE(result.ok()) << "input: " << bad;
  }
}

TEST(BulkLoad, FilesShredLikeTheirText) {
  data::DblpOptions options;
  options.end_year = 1985;
  auto xml_text = data::GenerateDblpXml(options);
  ASSERT_TRUE(xml_text.ok());
  meetxml::testing::TempFile file("corpus.xml");
  MEETXML_CHECK_OK(util::WriteFileAtomic(file.path(), *xml_text));
  const std::string expected = MustImage(MustShred(*xml_text));

  auto sequential = ShredXmlFile(file.path());
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_EQ(MustImage(*sequential), expected);
  auto parallel = BulkShredXmlFile(file.path(), Forced(2, 4096));
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(MustImage(*parallel), expected);
}

TEST(BulkLoad, MissingOrEmptyFilesFail) {
  meetxml::testing::TempFile missing("missing.xml");
  EXPECT_TRUE(ShredXmlFile(missing.path()).status().IsNotFound());
  EXPECT_TRUE(BulkShredXmlFile(missing.path()).status().IsNotFound());

  meetxml::testing::TempFile empty("empty.xml");
  MEETXML_CHECK_OK(util::WriteFileAtomic(empty.path(), ""));
  EXPECT_TRUE(ShredXmlFile(empty.path()).status().IsInvalidArgument());
  EXPECT_TRUE(
      BulkShredXmlFile(empty.path(), Forced(2)).status().IsInvalidArgument());
}

TEST(BulkLoadSplit, FindsTopLevelUnits) {
  auto split = internal::SplitTopLevel(
      "<!-- p --><r x=\"a>b\"><one><deep/></one>mid<two/><three/></r>");
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_EQ(split->root_tag, "r");
  // Units: <one> (plus trailing "mid" text), <two>, <three>.
  EXPECT_EQ(split->unit_starts.size(), 3u);
}

TEST(BulkLoadSplit, RejectsStructuralAnomalies) {
  EXPECT_FALSE(internal::SplitTopLevel("<r><a></r>").ok());
  EXPECT_FALSE(internal::SplitTopLevel("<r></wrong>").ok());
  EXPECT_FALSE(internal::SplitTopLevel("<r/><r/>").ok());
  EXPECT_FALSE(internal::SplitTopLevel("<r><![CDATA[x</r>").ok());
}

TEST(IndexPersistence, SerializeDeserializeRoundTrip) {
  data::DblpOptions options;
  options.end_year = 1986;
  auto xml_text = data::GenerateDblpXml(options);
  ASSERT_TRUE(xml_text.ok());
  StoredDocument doc = MustShred(*xml_text);

  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  std::string bytes = text::SerializeIndex(*index);
  auto restored = text::DeserializeIndex(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->vocabulary_size(), index->vocabulary_size());
  EXPECT_EQ(restored->posting_count(), index->posting_count());
  EXPECT_EQ(restored->trigram_count(), index->trigram_count());
  EXPECT_EQ(restored->has_trigrams(), index->has_trigrams());
  // Full structural equality of both maps.
  EXPECT_TRUE(restored->words() == index->words());
  EXPECT_TRUE(restored->trigrams() == index->trigrams());
  // Deterministic bytes.
  EXPECT_EQ(text::SerializeIndex(*restored), bytes);
}

TEST(IndexPersistence, StoreRoundTripAnswersQueries) {
  data::DblpOptions options;
  options.end_year = 1986;
  auto xml_text = data::GenerateDblpXml(options);
  ASSERT_TRUE(xml_text.ok());
  StoredDocument doc = MustShred(*xml_text);
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());

  auto bytes = text::SaveStoreToBytes(doc, &*index);
  ASSERT_TRUE(bytes.ok());
  auto store = text::LoadStoreFromBytes(*bytes);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->index.has_value());

  // The persisted-index executor and a fresh one agree.
  auto from_store = query::Executor::Build(
      store->doc,
      text::FullTextSearch::WithIndex(store->doc, std::move(*store->index)));
  ASSERT_TRUE(from_store.ok());
  EXPECT_TRUE(from_store->text_index_built());
  auto fresh = query::Executor::Build(doc);
  ASSERT_TRUE(fresh.ok());

  const char* query =
      "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b "
      "WHERE a CONTAINS 'ICDE' AND b CONTAINS '1985' LIMIT 10";
  auto lhs = from_store->ExecuteText(query);
  auto rhs = fresh->ExecuteText(query);
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  EXPECT_EQ(lhs->rows, rhs->rows);

  // A plain document load of the same image ignores the TIDX section.
  auto doc_only = LoadFromBytes(*bytes);
  ASSERT_TRUE(doc_only.ok());
  EXPECT_EQ(doc_only->node_count(), doc.node_count());
}

TEST(IndexPersistence, StoreWithoutIndexLoadsEmpty) {
  StoredDocument doc = MustShred("<a><b>hello world</b></a>");
  auto bytes = text::SaveStoreToBytes(doc, nullptr);
  ASSERT_TRUE(bytes.ok());
  auto store = text::LoadStoreFromBytes(*bytes);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->index.has_value());
}

TEST(IndexPersistence, RejectsCorruptIndexPayloads) {
  StoredDocument doc = MustShred("<a><b>hello world again</b></a>");
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  std::string bytes = text::SerializeIndex(*index);
  // Truncations at every prefix must fail cleanly.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(text::DeserializeIndex(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(text::DeserializeIndex(bytes + "x").ok());
}

TEST(LazyExecutor, BuildsIndexOnlyForTextPredicates) {
  StoredDocument doc = MustShred(
      "<lib><book t=\"one\">alpha beta</book><book>gamma</book></lib>");
  auto executor = query::Executor::Build(doc);
  ASSERT_TRUE(executor.ok());
  EXPECT_FALSE(executor->text_index_built());

  // Structural query: no index.
  auto structural = executor->ExecuteText("SELECT COUNT(a) FROM lib//book a");
  ASSERT_TRUE(structural.ok()) << structural.status();
  EXPECT_FALSE(executor->text_index_built());

  // CONTAINS forces the build; results match an eager executor.
  auto text_query = executor->ExecuteText(
      "SELECT a FROM lib//cdata a WHERE a CONTAINS 'alpha'");
  ASSERT_TRUE(text_query.ok()) << text_query.status();
  EXPECT_TRUE(executor->text_index_built());
  EXPECT_EQ(text_query->rows.size(), 1u);
}

}  // namespace
}  // namespace model
}  // namespace meetxml
