// Tests for persisted text indexes and lazy executor indexes: the
// TIDX payload round trip and its corruption guards, store bundles
// with and without an index, and an executor that builds its text
// index only for the first text predicate.

#include <string>

#include <gtest/gtest.h>

#include "data/dblp_gen.h"
#include "model/storage_io.h"
#include "query/executor.h"
#include "text/index_io.h"
#include "text/search.h"
#include "tests/test_util.h"

namespace meetxml {
namespace model {
namespace {

using meetxml::testing::MustShred;

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
