// Ownership-semantics tests for the zero-copy (view-mode) load path:
// view- and copy-mode documents are indistinguishable to every reader,
// queries return byte-identical rows, and the first mutation promotes
// a borrowed structure to owned storage (copy-on-write) without
// disturbing other borrowers of the same image.

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "model/reassembly.h"
#include "model/shredder.h"
#include "model/storage_io.h"
#include "query/executor.h"
#include "store/catalog.h"
#include "text/index_io.h"
#include "tests/test_util.h"

namespace meetxml {
namespace model {
namespace {

using meetxml::testing::MustShred;
using meetxml::testing::TempFile;


// The default (DOC2) image of the paper example, long-lived so
// view-backed documents in these tests can borrow from it.
const std::string& PaperImage() {
  static const std::string* image = [] {
    auto bytes = SaveToBytes(MustShred(data::PaperExampleXml()));
    MEETXML_CHECK_OK(bytes.status());
    return new std::string(std::move(*bytes));
  }();
  return *image;
}

StoredDocument MustLoad(std::string_view bytes, LoadMode mode,
                        LoadStats* stats = nullptr) {
  LoadOptions options;
  options.mode = mode;
  options.stats = stats;
  auto loaded = LoadFromBytes(bytes, options);
  MEETXML_CHECK_OK(loaded.status());
  return std::move(*loaded);
}

TEST(ViewOwnership, ViewAndCopyModeDocumentsCompareEqual) {
  LoadStats view_stats;
  StoredDocument copied = MustLoad(PaperImage(), LoadMode::kCopy);
  StoredDocument viewed = MustLoad(PaperImage(), LoadMode::kView,
                                   &view_stats);

  EXPECT_FALSE(copied.view_backed());
  EXPECT_TRUE(viewed.view_backed());
  EXPECT_EQ(view_stats.mode_used, LoadMode::kView);
  EXPECT_EQ(view_stats.bytes_copied, 0u);

  ASSERT_EQ(viewed.node_count(), copied.node_count());
  ASSERT_EQ(viewed.string_count(), copied.string_count());
  for (Oid oid = 0; oid < copied.node_count(); ++oid) {
    EXPECT_EQ(viewed.parent(oid), copied.parent(oid));
    EXPECT_EQ(viewed.path(oid), copied.path(oid));
    EXPECT_EQ(viewed.rank(oid), copied.rank(oid));
  }
  for (PathId path : copied.string_paths()) {
    EXPECT_EQ(viewed.StringsAt(path), copied.StringsAt(path));
  }
  // Reassembly — which walks relations, attributes and the append
  // order — agrees byte for byte.
  auto copied_xml = ReassembleToXml(copied, copied.root(), 0);
  auto viewed_xml = ReassembleToXml(viewed, viewed.root(), 0);
  ASSERT_TRUE(copied_xml.ok() && viewed_xml.ok());
  EXPECT_EQ(*viewed_xml, *copied_xml);
}

TEST(ViewOwnership, QueriesReturnByteIdenticalRows) {
  StoredDocument copied = MustLoad(PaperImage(), LoadMode::kCopy);
  StoredDocument viewed = MustLoad(PaperImage(), LoadMode::kView);
  auto copied_executor = query::Executor::Build(copied);
  auto viewed_executor = query::Executor::Build(viewed);
  ASSERT_TRUE(copied_executor.ok() && viewed_executor.ok());

  const char* queries[] = {
      "SELECT MEET(a, b) FROM bibliography//cdata a, bibliography//cdata b"
      " WHERE a CONTAINS 'Bit' AND b CONTAINS '1999'",
      "SELECT XML(e) FROM bibliography/entry e",
      "SELECT PATH(x) FROM bibliography//* x LIMIT 20",
  };
  for (const char* text : queries) {
    auto from_copy = copied_executor->ExecuteText(text);
    auto from_view = viewed_executor->ExecuteText(text);
    ASSERT_TRUE(from_copy.ok()) << from_copy.status();
    ASSERT_TRUE(from_view.ok()) << from_view.status();
    EXPECT_EQ(from_view->ToText(), from_copy->ToText()) << text;
  }
}

TEST(ViewOwnership, AppendStringPromotesTheTouchedRelationOnly) {
  StoredDocument viewed = MustLoad(PaperImage(), LoadMode::kView);
  ASSERT_TRUE(viewed.view_backed());
  ASSERT_FALSE(viewed.string_paths().empty());
  PathId touched = viewed.string_paths().front();
  size_t rows_before = viewed.StringsAt(touched).size();

  viewed.AppendString(touched, viewed.root(), "added after view load");
  // Copy-on-write: the touched relation is now owned...
  EXPECT_FALSE(viewed.StringsAt(touched).is_view());
  EXPECT_EQ(viewed.StringsAt(touched).size(), rows_before + 1);
  // ...while untouched relations keep borrowing (and the document
  // overall stays pinned to its backing).
  bool any_view = false;
  for (PathId path : viewed.string_paths()) {
    if (viewed.StringsAt(path).is_view()) any_view = true;
  }
  EXPECT_TRUE(any_view);
  EXPECT_TRUE(viewed.view_backed());

  // The mutated document re-finalizes and round-trips bit-identically
  // to the same mutation applied to a copy-mode load.
  MEETXML_CHECK_OK(viewed.Finalize());
  StoredDocument copied = MustLoad(PaperImage(), LoadMode::kCopy);
  copied.AppendString(touched, copied.root(), "added after view load");
  MEETXML_CHECK_OK(copied.Finalize());
  auto viewed_bytes = SaveToBytes(viewed);
  auto copied_bytes = SaveToBytes(copied);
  ASSERT_TRUE(viewed_bytes.ok() && copied_bytes.ok());
  EXPECT_EQ(*viewed_bytes, *copied_bytes);
}

TEST(ViewOwnership, EnsureOwnedDetachesTheWholeDocument) {
  // Load from a scoped buffer, promote, destroy the buffer: the
  // document must not reference it anymore.
  auto buffer = std::make_unique<std::string>(PaperImage());
  StoredDocument viewed = MustLoad(*buffer, LoadMode::kView);
  ASSERT_TRUE(viewed.view_backed());
  viewed.EnsureOwned();
  EXPECT_FALSE(viewed.view_backed());
  EXPECT_EQ(viewed.backing(), nullptr);
  buffer.reset();

  auto reserialized = SaveToBytes(viewed);
  ASSERT_TRUE(reserialized.ok());
  EXPECT_EQ(*reserialized, PaperImage());
}

TEST(ViewOwnership, FileLoadPinsTheMappingPastTheLoaderScope) {
  TempFile file("view_pin.mxm");
  const std::string& path = file.path();
  MEETXML_CHECK_OK(SaveToFile(MustShred(data::PaperExampleXml()), path));

  LoadOptions options;
  options.mode = LoadMode::kView;
  auto loaded = LoadFromFile(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->view_backed());
  EXPECT_NE(loaded->backing(), nullptr);

  // Overwrite AND remove the file: the document still reads through
  // its pinned mapping of the old inode (saves are atomic renames).
  MEETXML_CHECK_OK(SaveToFile(MustShred("<other>doc</other>"), path));
  std::filesystem::remove(path);
  auto reserialized = SaveToBytes(*loaded);
  ASSERT_TRUE(reserialized.ok());
  EXPECT_EQ(*reserialized, PaperImage());
}

TEST(ViewOwnership, CatalogViewLoadRoundTripsAcrossSaves) {
  TempFile file("view_catalog.mxm");
  const std::string& path = file.path();
  TempFile other_file("view_catalog_copy.mxm");
  const std::string& other_path = other_file.path();
  {
    store::Catalog catalog;
    ASSERT_TRUE(
        catalog.Add("paper", MustShred(data::PaperExampleXml())).ok());
    ASSERT_TRUE(catalog.Add("tiny", MustShred("<a><b>x</b></a>")).ok());
    MEETXML_CHECK_OK(catalog.SaveToFile(path));
  }

  store::CatalogLoadStats stats;
  store::CatalogLoadOptions options;
  options.mode = LoadMode::kView;
  options.stats = &stats;
  auto catalog = store::Catalog::LoadFromFile(path, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_EQ(stats.documents.size(), 2u);
  for (const auto& doc_stats : stats.documents) {
    EXPECT_EQ(doc_stats.mode, LoadMode::kView) << doc_stats.name;
    EXPECT_EQ(doc_stats.bytes_copied, 0u) << doc_stats.name;
    EXPECT_GT(doc_stats.bytes_viewed, 0u) << doc_stats.name;
  }

  auto original_bytes = catalog->SaveToBytes();
  ASSERT_TRUE(original_bytes.ok());

  // Save to a different path, then over the original path; the
  // view-backed documents keep borrowing from the pinned mapping
  // through both, and a reload of either copy agrees byte for byte.
  MEETXML_CHECK_OK(catalog->SaveToFile(other_path));
  MEETXML_CHECK_OK(catalog->SaveToFile(path));
  auto reloaded = store::Catalog::LoadFromFile(other_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  auto reloaded_bytes = reloaded->SaveToBytes();
  ASSERT_TRUE(reloaded_bytes.ok());
  EXPECT_EQ(*reloaded_bytes, *original_bytes);

  // Mutating the catalog after the view load: adding a document and
  // re-serializing keeps every borrowed entry bit-identical.
  auto added = MustShred("<c><d>y</d></c>");
  ASSERT_TRUE(catalog->Add("third", std::move(added)).ok());
  auto grown_bytes = catalog->SaveToBytes();
  ASSERT_TRUE(grown_bytes.ok());
  auto grown = store::Catalog::LoadFromBytes(*grown_bytes);
  ASSERT_TRUE(grown.ok()) << grown.status();
  EXPECT_EQ(grown->size(), 3u);
  EXPECT_NE(grown->Find("paper"), nullptr);
}

TEST(ViewOwnership, PersistentStoreViewLoadServesTextQueries) {
  TempFile file("view_store.mxm");
  const std::string& path = file.path();
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  MEETXML_CHECK_OK(text::SaveStoreToFile(doc, &*index, path));

  LoadOptions options;
  options.mode = LoadMode::kView;
  auto store = text::LoadStoreFromFile(path, options);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(store->doc.view_backed());
  ASSERT_TRUE(store->index.has_value());

  auto executor = query::Executor::Build(
      store->doc, text::FullTextSearch::WithIndex(store->doc,
                                                  std::move(*store->index)));
  ASSERT_TRUE(executor.ok()) << executor.status();
  auto result = executor->ExecuteText(
      "SELECT MEET(a, b) FROM bibliography//cdata a, bibliography//cdata b"
      " WHERE a CONTAINS 'Bit' AND b CONTAINS '1999'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->rows.empty());
}

}  // namespace
}  // namespace model
}  // namespace meetxml
