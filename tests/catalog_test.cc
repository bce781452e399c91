// Tests for the multi-document store catalog and the cross-document
// query routing on top of it: round-trips through one image, rename /
// remove / reload, single-document images, glob scoping, and
// the pinned equivalence between MultiExecutor answers and the
// per-document single-executor answers.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "data/dblp_gen.h"
#include "data/paper_example.h"
#include "model/storage_io.h"
#include "obs/metrics.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "text/index_io.h"
#include "tests/test_util.h"
#include "util/byte_io.h"

namespace meetxml {
namespace store {
namespace {

using meetxml::testing::FindElement;
using meetxml::testing::MustShred;
using model::StoredDocument;

std::string NumberedXml(int n) {
  std::string xml = "<doc><entry><title>corpus number " +
                    std::to_string(n) + "</title><year>" +
                    std::to_string(1990 + n) + "</year></entry></doc>";
  return xml;
}

Catalog RoundTrip(const Catalog& catalog) {
  auto bytes = catalog.SaveToBytes();
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = Catalog::LoadFromBytes(*bytes);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return std::move(*loaded);
}

TEST(Catalog, AddFindRemoveRename) {
  Catalog catalog;
  auto first = catalog.Add("alpha", MustShred("<a><b>x</b></a>"));
  ASSERT_TRUE(first.ok());
  auto second = catalog.Add("beta", MustShred("<c><d>y</d></c>"));
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
  EXPECT_EQ(catalog.size(), 2u);

  EXPECT_NE(catalog.Find("alpha"), nullptr);
  EXPECT_EQ(catalog.Find("gamma"), nullptr);
  EXPECT_TRUE(catalog.Get("gamma").status().IsNotFound());

  // Duplicate and malformed names are rejected.
  EXPECT_FALSE(catalog.Add("alpha", MustShred("<x/>")).ok());
  EXPECT_FALSE(catalog.Add("", MustShred("<x/>")).ok());
  EXPECT_FALSE(catalog.Add("a*b", MustShred("<x/>")).ok());
  EXPECT_FALSE(catalog.Rename("alpha", "beta").ok());
  EXPECT_FALSE(catalog.Rename("alpha", "who?").ok());

  MEETXML_CHECK_OK(catalog.Rename("alpha", "gamma"));
  EXPECT_EQ(catalog.Find("gamma")->id, *first);
  MEETXML_CHECK_OK(catalog.Remove("beta"));
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog.Remove("beta").IsNotFound());

  // Retired ids are never reused.
  auto third = catalog.Add("delta", MustShred("<e/>"));
  ASSERT_TRUE(third.ok());
  EXPECT_GT(*third, *second);
}

class CatalogRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(CatalogRoundTrip, NamedDocumentsSurviveSaveLoad) {
  size_t count = GetParam();
  Catalog catalog;
  for (size_t i = 0; i < count; ++i) {
    std::string name = "doc_" + std::to_string(i);
    ASSERT_TRUE(
        catalog.Add(name, MustShred(NumberedXml(static_cast<int>(i)))).ok());
  }

  Catalog loaded = RoundTrip(catalog);
  ASSERT_EQ(loaded.size(), count);
  for (size_t i = 0; i < count; ++i) {
    std::string name = "doc_" + std::to_string(i);
    const NamedDocument* original = catalog.Find(name);
    const NamedDocument* restored = loaded.Find(name);
    ASSERT_NE(restored, nullptr) << name;
    EXPECT_EQ(restored->id, original->id);
    EXPECT_EQ(restored->doc.node_count(), original->doc.node_count());
    EXPECT_EQ(restored->doc.string_count(), original->doc.string_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CatalogRoundTrip,
                         ::testing::Values(0u, 1u, 8u));

TEST(Catalog, RenameRemoveThenReload) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("one", MustShred(NumberedXml(1))).ok());
  ASSERT_TRUE(catalog.Add("two", MustShred(NumberedXml(2))).ok());
  ASSERT_TRUE(catalog.Add("three", MustShred(NumberedXml(3))).ok());
  DocId two_id = catalog.Find("two")->id;

  MEETXML_CHECK_OK(catalog.Rename("two", "zwei"));
  MEETXML_CHECK_OK(catalog.Remove("one"));

  Catalog loaded = RoundTrip(catalog);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.Find("one"), nullptr);
  ASSERT_NE(loaded.Find("zwei"), nullptr);
  EXPECT_EQ(loaded.Find("zwei")->id, two_id);

  // next_doc_id survives: a post-reload Add gets a fresh id, not a
  // recycled one.
  auto added = loaded.Add("four", MustShred(NumberedXml(4)));
  ASSERT_TRUE(added.ok());
  EXPECT_GT(*added, loaded.Find("three")->id);
}

TEST(Catalog, PersistedIndexReloadsHot) {
  Catalog catalog;
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  size_t postings = index->posting_count();
  ASSERT_TRUE(
      catalog.Add("paper", std::move(doc), std::move(*index)).ok());
  ASSERT_TRUE(catalog.Add("plain", MustShred("<a><b>x</b></a>")).ok());

  Catalog loaded = RoundTrip(catalog);
  ASSERT_NE(loaded.Find("paper"), nullptr);
  ASSERT_TRUE(loaded.Find("paper")->index.has_value());
  EXPECT_EQ(loaded.Find("paper")->index->posting_count(), postings);
  EXPECT_FALSE(loaded.Find("plain")->index.has_value());
}

TEST(Catalog, LazilyBuiltExecutorIndexIsPersisted) {
  // An index the executor built on demand (first text predicate) rides
  // into the next Save without an explicit EnsureIndex.
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Add("paper", MustShred(data::PaperExampleXml())).ok());
  auto executor = catalog.ExecutorFor("paper");
  ASSERT_TRUE(executor.ok());
  auto result = (*executor)->ExecuteText(
      "SELECT a FROM bibliography//cdata a WHERE a CONTAINS 'Bit'");
  ASSERT_TRUE(result.ok()) << result.status();

  Catalog loaded = RoundTrip(catalog);
  EXPECT_TRUE(loaded.Find("paper")->index.has_value());
}

TEST(Catalog, EnsureIndexPersists) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Add("paper", MustShred(data::PaperExampleXml())).ok());
  MEETXML_CHECK_OK(catalog.EnsureIndex("paper"));
  Catalog loaded = RoundTrip(catalog);
  EXPECT_TRUE(loaded.Find("paper")->index.has_value());
}

TEST(Catalog, EnsureIndexAfterExecutorBuildsExactlyOneIndex) {
  // When the executor already exists, EnsureIndex must route the build
  // through it (not grow a sidecar copy the executor would rebuild).
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Add("paper", MustShred(data::PaperExampleXml())).ok());
  auto executor = catalog.ExecutorFor("paper");
  ASSERT_TRUE(executor.ok());
  EXPECT_EQ((*executor)->text_index(), nullptr);
  MEETXML_CHECK_OK(catalog.EnsureIndex("paper"));
  EXPECT_NE((*executor)->text_index(), nullptr);
  EXPECT_FALSE(catalog.Find("paper")->index.has_value());
  Catalog loaded = RoundTrip(catalog);
  EXPECT_TRUE(loaded.Find("paper")->index.has_value());
}

TEST(Catalog, CopyAndViewLoadsReserializeIdentically) {
  // The catalog-level byte-equality pin: a copy-mode and a view-mode
  // load of the same image restore the same catalog, shown by both
  // re-serializing to the very same bytes.
  Catalog catalog;
  StoredDocument paper = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(paper);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(
      catalog.Add("paper", std::move(paper), std::move(*index)).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        catalog.Add("doc_" + std::to_string(i), MustShred(NumberedXml(i)))
            .ok());
  }

  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*bytes)[4], 7);  // minor revision
  for (model::LoadMode mode :
       {model::LoadMode::kCopy, model::LoadMode::kView}) {
    CatalogLoadOptions options;
    options.mode = mode;
    auto loaded = Catalog::LoadFromBytes(*bytes, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto again = loaded->SaveToBytes();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *bytes);
  }
}

TEST(Catalog, EmptyCatalogIsAMinor7Image) {
  // An empty catalog is written in the one layout like any other: a
  // minor-7 image holding just its CTLG section (codec 3).
  Catalog catalog;
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*bytes)[4], 7);
  auto sections = model::LoadSectionsFromBytes(*bytes);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->sections.size(), 1u);
  EXPECT_EQ(sections->sections[0].id, model::kCatalogSectionId);
  EXPECT_EQ(sections->sections[0].bytes[0], 3);
  for (bool lazy : {false, true}) {
    CatalogLoadOptions options;
    options.lazy = lazy;
    auto loaded = Catalog::LoadFromBytes(*bytes, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(loaded->empty());
  }
}

TEST(Catalog, ParallelAndSerialDecodeAgree) {
  Catalog catalog;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        catalog.Add("doc_" + std::to_string(i), MustShred(NumberedXml(i)))
            .ok());
  }
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());

  CatalogLoadStats serial_stats;
  CatalogLoadOptions serial;
  serial.threads = 1;
  serial.stats = &serial_stats;
  auto serial_loaded = Catalog::LoadFromBytes(*bytes, serial);
  ASSERT_TRUE(serial_loaded.ok()) << serial_loaded.status();

  CatalogLoadStats parallel_stats;
  CatalogLoadOptions parallel;
  parallel.threads = 8;
  parallel.stats = &parallel_stats;
  auto parallel_loaded = Catalog::LoadFromBytes(*bytes, parallel);
  ASSERT_TRUE(parallel_loaded.ok()) << parallel_loaded.status();

  auto serial_bytes = serial_loaded->SaveToBytes();
  auto parallel_bytes = parallel_loaded->SaveToBytes();
  ASSERT_TRUE(serial_bytes.ok() && parallel_bytes.ok());
  EXPECT_EQ(*parallel_bytes, *serial_bytes);
  EXPECT_EQ(*parallel_bytes, *bytes);

  EXPECT_EQ(serial_stats.threads_used, 1u);
  EXPECT_EQ(parallel_stats.threads_used, 8u);
  ASSERT_EQ(parallel_stats.documents.size(), 8u);
  for (const auto& doc_stats : parallel_stats.documents) {
    EXPECT_EQ(doc_stats.mode, model::LoadMode::kCopy);
    EXPECT_FALSE(doc_stats.indexed);
  }
}

TEST(Catalog, ParallelDecodeReportsTheFirstBrokenEntry) {
  // Corrupt one document section (bypassing its checksum by
  // re-wrapping) and make sure the fan-out load still fails cleanly.
  Catalog catalog;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        catalog.Add("doc_" + std::to_string(i), MustShred(NumberedXml(i)))
            .ok());
  }
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  auto sections = model::LoadSectionsFromBytes(*bytes);
  ASSERT_TRUE(sections.ok());
  std::vector<model::ImageSection> tampered;
  size_t doc_sections = 0;
  for (const model::SectionView& section : sections->sections) {
    std::string payload(section.bytes);
    if (section.id == model::kDocumentSectionId && ++doc_sections == 3) {
      payload.resize(payload.size() / 2);  // truncate the third document
    }
    tampered.push_back(model::ImageSection{section.id, std::move(payload)});
  }
  auto rewritten = model::SaveSectionsToBytes(tampered);
  ASSERT_TRUE(rewritten.ok());
  for (unsigned threads : {1u, 8u}) {
    CatalogLoadOptions options;
    options.threads = threads;
    auto loaded = Catalog::LoadFromBytes(*rewritten, options);
    EXPECT_FALSE(loaded.ok()) << "threads=" << threads;
  }
}

TEST(Catalog, TidxAtDirectoryPositionZeroIsNotDropped) {
  // The writer emits CTLG first, but the format does not require it:
  // a TIDX sitting at directory position 0 must still reach its
  // document (position 0 is a valid section reference, not a "no
  // index" sentinel).
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  size_t postings = index->posting_count();
  auto doc_payload = model::SerializeDocumentSection(doc);
  ASSERT_TRUE(doc_payload.ok());

  util::ByteWriter directory;
  directory.U8(3);       // codec version
  directory.Varint(1);   // next_doc_id
  directory.Varint(1);   // one entry
  directory.Varint(0);   // id
  directory.StrVarint("paper");
  directory.Varint(2);   // doc section position
  directory.Varint(1);   // index section position + 1 -> position 0
  auto image = model::SaveSectionsToBytes(
      {model::ImageSection{model::kTextIndexSectionId,
                           text::SerializeIndex(*index)},
       model::ImageSection{model::kCatalogSectionId, directory.Take()},
       model::ImageSection{model::kDocumentSectionId,
                           std::move(*doc_payload)}});
  ASSERT_TRUE(image.ok());

  auto loaded = Catalog::LoadFromBytes(*image);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->Find("paper"), nullptr);
  ASSERT_TRUE(loaded->Find("paper")->index.has_value());
  EXPECT_EQ(loaded->Find("paper")->index->posting_count(), postings);
}

TEST(Catalog, RejectsOverflowingNextDocId) {
  // A crafted CTLG whose next_doc_id exceeds the u32 id space would
  // truncate and hand out duplicate ids on the next Add; the loader
  // must reject it up front.
  util::ByteWriter payload;
  payload.U8(3);                          // codec version
  payload.Varint(uint64_t{1} << 32);      // next_doc_id beyond u32
  payload.Varint(0);                      // no entries
  auto image = model::SaveSectionsToBytes(
      {model::ImageSection{model::kCatalogSectionId, payload.Take()}});
  ASSERT_TRUE(image.ok());
  EXPECT_FALSE(Catalog::LoadFromBytes(*image).ok());
}

TEST(Catalog, DirectoryNeedsCodec3) {
  // The CTLG codec-2 directory (which also named a DRV1 section per
  // entry) and codec 1 are retired: only codec 3 reads, eagerly or
  // lazily.
  StoredDocument doc = MustShred("<a><b>x</b></a>");
  auto doc_payload = model::SerializeDocumentSection(doc);
  ASSERT_TRUE(doc_payload.ok());
  auto image_with = [&](uint8_t codec) {
    util::ByteWriter directory;
    directory.U8(codec);
    directory.Varint(1);  // next_doc_id
    directory.Varint(1);  // one entry
    directory.Varint(0);  // id
    directory.StrVarint("a");
    directory.Varint(1);  // doc section position
    directory.Varint(0);  // no index
    auto image = model::SaveSectionsToBytes(
        {model::ImageSection{model::kCatalogSectionId, directory.Take()},
         model::ImageSection{model::kDocumentSectionId, *doc_payload}});
    EXPECT_TRUE(image.ok()) << image.status();
    return *image;
  };
  ASSERT_TRUE(Catalog::LoadFromBytes(image_with(3)).ok());
  for (bool lazy : {false, true}) {
    CatalogLoadOptions options;
    options.lazy = lazy;
    for (uint8_t retired : {1, 2}) {
      auto loaded = Catalog::LoadFromBytes(image_with(retired), options);
      ASSERT_FALSE(loaded.ok());
      EXPECT_NE(loaded.status().message().find("unsupported catalog codec"),
                std::string::npos)
          << loaded.status();
    }
  }
}

TEST(Catalog, LegacyImagesLoadAsOneEntryCatalog) {
  // Images written by the single-document API carry no CTLG section;
  // they open as a one-entry catalog, in both load modes.
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto bytes = model::SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  for (model::LoadMode mode :
       {model::LoadMode::kCopy, model::LoadMode::kView}) {
    CatalogLoadOptions options;
    options.mode = mode;
    auto catalog = Catalog::LoadFromBytes(*bytes, options);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    EXPECT_EQ(catalog->size(), 1u);
    // Named after the root tag.
    ASSERT_NE(catalog->Find("bibliography"), nullptr);
    EXPECT_EQ(catalog->Find("bibliography")->doc.node_count(),
              doc.node_count());
  }
}

TEST(Catalog, LegacyStoreBundleKeepsItsIndex) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  auto bytes = text::SaveStoreToBytes(doc, &*index);
  ASSERT_TRUE(bytes.ok());
  auto catalog = Catalog::LoadFromBytes(*bytes);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_EQ(catalog->size(), 1u);
  EXPECT_TRUE(catalog->entries().front()->index.has_value());
}

TEST(Catalog, SingleDocumentCatalogDegradesToLegacyReaders) {
  // A one-document catalog opens through the single-document loaders:
  // they skip the CTLG section as unknown and still get the document
  // (and its TIDX). A multi-document catalog is rejected by the
  // single-document API.
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Add("paper", MustShred(data::PaperExampleXml())).ok());
  MEETXML_CHECK_OK(catalog.EnsureIndex("paper"));
  auto single = catalog.SaveToBytes();
  ASSERT_TRUE(single.ok());
  auto store = text::LoadStoreFromBytes(*single);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(store->index.has_value());

  ASSERT_TRUE(catalog.Add("second", MustShred("<a><b>x</b></a>")).ok());
  auto multi = catalog.SaveToBytes();
  ASSERT_TRUE(multi.ok());
  EXPECT_FALSE(model::LoadFromBytes(*multi).ok());
  EXPECT_TRUE(Catalog::LoadFromBytes(*multi).ok());
}

TEST(Catalog, FileRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("one", MustShred(NumberedXml(1))).ok());
  ASSERT_TRUE(catalog.Add("two", MustShred(NumberedXml(2))).ok());
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_catalog_test.mxm")
          .string();
  MEETXML_CHECK_OK(catalog.SaveToFile(path));
  auto loaded = Catalog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 2u);
  std::filesystem::remove(path);
}

TEST(Catalog, DirectoryIsAnErrorNotAnAbort) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  for (bool lazy : {false, true}) {
    for (model::LoadMode mode : {model::LoadMode::kCopy,
                                 model::LoadMode::kView}) {
      CatalogLoadOptions options;
      options.mode = mode;
      options.lazy = lazy;
      auto loaded = Catalog::LoadFromFile(dir, options);
      ASSERT_FALSE(loaded.ok());
      EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
    }
  }
}

// --- Lazy opens -------------------------------------------------------

TEST(Catalog, LazyOpenDefersDecodingUntilFirstTouch) {
  Catalog catalog;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        catalog.Add("doc_" + std::to_string(i), MustShred(NumberedXml(i)))
            .ok());
  }
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());

  CatalogLoadStats stats;
  CatalogLoadOptions options;
  options.lazy = true;
  options.stats = &stats;
  auto lazy = Catalog::LoadFromBytes(*bytes, options);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  // The open verified only the CTLG section; every per-document
  // checksum and decode is still pending.
  EXPECT_EQ(stats.deferred_documents, 3u);
  EXPECT_EQ(stats.sections_verified, 1u);
  EXPECT_EQ(stats.sections_deferred, 3u);  // 3 x DOC2
  for (const NamedDocument* entry : lazy->entries()) {
    EXPECT_FALSE(entry->materialized.load(std::memory_order_acquire));
  }

  // First touch materializes exactly the touched entry.
  auto doc = lazy->Get("doc_1");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->node_count(),
            catalog.Find("doc_1")->doc.node_count());
  EXPECT_TRUE(
      lazy->Find("doc_1")->materialized.load(std::memory_order_acquire));
  EXPECT_FALSE(
      lazy->Find("doc_0")->materialized.load(std::memory_order_acquire));
  EXPECT_FALSE(
      lazy->Find("doc_2")->materialized.load(std::memory_order_acquire));

  // Warm() forces the rest eagerly.
  MEETXML_CHECK_OK(lazy->Warm());
  for (const NamedDocument* entry : lazy->entries()) {
    EXPECT_TRUE(entry->materialized.load(std::memory_order_acquire));
    EXPECT_EQ(entry->doc.node_count(),
              catalog.Find(entry->name)->doc.node_count());
  }
}

TEST(Catalog, LazyOpenAnswersQueriesLikeAnEagerOne) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .Add("lib_a", MustShred("<library><article>"
                                          "<author>Alice Cooper</author>"
                                          "<title>Shredding XML</title>"
                                          "</article></library>"))
                  .ok());
  ASSERT_TRUE(catalog
                  .Add("lib_b", MustShred("<catalog><item>"
                                          "<creator>Alice Cooper</creator>"
                                          "</item></catalog>"))
                  .ok());
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());

  auto eager = Catalog::LoadFromBytes(*bytes);
  ASSERT_TRUE(eager.ok());
  CatalogLoadOptions options;
  options.lazy = true;
  auto lazy = Catalog::LoadFromBytes(*bytes, options);
  ASSERT_TRUE(lazy.ok());

  MultiExecutor eager_exec(&*eager);
  MultiExecutor lazy_exec(&*lazy);
  const char* query =
      "SELECT a FROM *//cdata a WHERE a CONTAINS 'Alice'";
  auto want = eager_exec.ExecuteText("*", query, {});
  auto got = lazy_exec.ExecuteText("*", query, {});
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->ToText(), want->ToText());
  EXPECT_FALSE(want->rows.empty());
}

TEST(Catalog, LazyOpenIsolatesACorruptEntry) {
  Catalog catalog;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        catalog.Add("doc_" + std::to_string(i), MustShred(NumberedXml(i)))
            .ok());
  }
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  auto sections = model::LoadSectionsFromBytes(*bytes);
  ASSERT_TRUE(sections.ok());

  // Flip one payload byte in the *second* DOC2 section. An eager open
  // refuses the whole image; a lazy open succeeds and quarantines the
  // damage to that entry's first touch.
  size_t doc_sections = 0;
  size_t flip_at = 0;
  for (const model::SectionView& section : sections->sections) {
    if (section.id == model::kDocumentSectionId &&
        ++doc_sections == 2) {
      flip_at = section.offset + section.bytes.size() / 2;
    }
  }
  ASSERT_NE(flip_at, 0u);
  std::string corrupt = *bytes;
  corrupt[flip_at] = static_cast<char>(corrupt[flip_at] ^ 0x40);

  EXPECT_FALSE(Catalog::LoadFromBytes(corrupt).ok());
  CatalogLoadOptions options;
  options.lazy = true;
  auto lazy = Catalog::LoadFromBytes(corrupt, options);
  ASSERT_TRUE(lazy.ok()) << lazy.status();

  int failures = 0;
  for (const NamedDocument* entry : lazy->entries()) {
    if (!lazy->Get(entry->name).ok()) ++failures;
  }
  EXPECT_EQ(failures, 1);
  // The bad entry is sticky (the checksum is not re-verified), and the
  // healthy neighbors keep answering.
  auto second = lazy->Get("doc_1");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(lazy->Get("doc_1").status().ToString(),
            second.status().ToString());
  ASSERT_TRUE(lazy->Get("doc_0").ok());
  ASSERT_TRUE(lazy->Get("doc_2").ok());
}

TEST(Catalog, QuarantineOpenDegradesOneRottenEntryNotTheStore) {
  Catalog catalog;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        catalog.Add("doc_" + std::to_string(i), MustShred(NumberedXml(i)))
            .ok());
  }
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  auto sections = model::LoadSectionsFromBytes(*bytes);
  ASSERT_TRUE(sections.ok());
  size_t doc_sections = 0;
  size_t flip_at = 0;
  for (const model::SectionView& section : sections->sections) {
    if (section.id == model::kDocumentSectionId &&
        ++doc_sections == 2) {
      flip_at = section.offset + section.bytes.size() / 2;
    }
  }
  ASSERT_NE(flip_at, 0u);
  std::string corrupt = *bytes;
  corrupt[flip_at] = static_cast<char>(corrupt[flip_at] ^ 0x40);

  // The strict eager open refuses the image; the quarantining eager
  // open degrades: each entry's checksums are verified individually at
  // open time, failing entries park behind a sticky error (and count
  // in meetxml_catalog_quarantined), and the healthy rest fully
  // materializes — no lazy first-touch cost left behind.
  EXPECT_FALSE(Catalog::LoadFromBytes(corrupt).ok());
  uint64_t quarantined_before = obs::MetricsRegistry::Global()
                                    .counter("meetxml_catalog_quarantined")
                                    .Value();
  CatalogLoadOptions options;
  options.quarantine_corrupt = true;
  auto degraded = Catalog::LoadFromBytes(corrupt, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_EQ(degraded->size(), 3u);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                    .counter("meetxml_catalog_quarantined")
                    .Value() -
                quarantined_before,
            1u);

  auto rotten = degraded->Get("doc_1");
  ASSERT_FALSE(rotten.ok());
  EXPECT_NE(rotten.status().message().find("quarantined at open"),
            std::string::npos);
  // Sticky: the error repeats verbatim, nothing is re-verified.
  EXPECT_EQ(degraded->Get("doc_1").status().ToString(),
            rotten.status().ToString());
  ASSERT_TRUE(degraded->Get("doc_0").ok());
  ASSERT_TRUE(degraded->Get("doc_2").ok());
  EXPECT_TRUE(degraded->Find("doc_0")->materialized.load(
      std::memory_order_acquire));

  // Queries over the survivors still answer.
  MultiExecutor executor(&*degraded);
  auto result = executor.ExecuteText(
      "doc_0", "SELECT COUNT(a) FROM doc_0//cdata a", {});
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(Catalog, ConcurrentLazyFirstTouchIsRaceFree) {
  Catalog catalog;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        catalog.Add("doc_" + std::to_string(i), MustShred(NumberedXml(i)))
            .ok());
  }
  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  CatalogLoadOptions options;
  options.lazy = true;
  auto lazy = Catalog::LoadFromBytes(*bytes, options);
  ASSERT_TRUE(lazy.ok());

  // Eight threads race Get() across all four pending entries; every
  // touch must see a fully decoded, validated document.
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 4; ++i) {
        std::string name = "doc_" + std::to_string((t + i) % 4);
        auto doc = lazy->Get(name);
        if (!doc.ok() || (*doc)->node_count() == 0) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(Catalog, LazyOpenFallsBackToEagerForLegacyImages) {
  // A doc-only image has no CTLG directory to defer behind; a lazy
  // open quietly decodes it eagerly.
  StoredDocument doc = MustShred(NumberedXml(7));
  auto bytes = model::SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  CatalogLoadStats stats;
  CatalogLoadOptions options;
  options.lazy = true;
  options.stats = &stats;
  auto lazy = Catalog::LoadFromBytes(*bytes, options);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  EXPECT_EQ(stats.deferred_documents, 0u);
  ASSERT_EQ(lazy->size(), 1u);
  EXPECT_TRUE(lazy->entries()[0]->materialized.load(
      std::memory_order_acquire));
}

TEST(Catalog, MatchNamesGlob) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("dblp_1999", MustShred("<a/>")).ok());
  ASSERT_TRUE(catalog.Add("dblp_2000", MustShred("<a/>")).ok());
  ASSERT_TRUE(catalog.Add("multimedia", MustShred("<a/>")).ok());
  EXPECT_EQ(catalog.MatchNames("*").size(), 3u);
  EXPECT_EQ(catalog.MatchNames("dblp_*").size(), 2u);
  EXPECT_EQ(catalog.MatchNames("dblp_199?").size(), 1u);
  EXPECT_EQ(catalog.MatchNames("multimedia").size(), 1u);
  EXPECT_TRUE(catalog.MatchNames("nothing*").empty());
}

// --- MultiExecutor ----------------------------------------------------

// Two bibliography-shaped corpora that share an author.
constexpr char kLibraryA[] = R"(<library>
  <article><author>Alice Cooper</author><title>Shredding XML for Fun</title>
    <year>1999</year></article>
  <article><author>Bob Dylan</author><title>Trees and Tables</title>
    <year>2000</year></article>
</library>)";

constexpr char kLibraryB[] = R"(<catalog>
  <item><creator>Alice Cooper</creator>
    <name>Shredding XML for Fun</name><published>1999</published></item>
  <item><creator>Carol King</creator>
    <name>Joins Considered Useful</name><published>2001</published></item>
</catalog>)";

Catalog TwoLibraries() {
  Catalog catalog;
  EXPECT_TRUE(catalog.Add("lib_a", MustShred(kLibraryA)).ok());
  EXPECT_TRUE(catalog.Add("lib_b", MustShred(kLibraryB)).ok());
  return catalog;
}

TEST(MultiExecutor, EmptyScopeIsAnError) {
  Catalog catalog = TwoLibraries();
  MultiExecutor multi(&catalog);
  auto result = multi.ExecuteText("nope*", "SELECT COUNT(a) FROM *//cdata a");
  EXPECT_TRUE(result.status().IsNotFound());

  // Same contract for the cross-document probe; a scope matching only
  // the source is legal and yields no matches.
  bat::Oid article = FindElement(catalog.Find("lib_a")->doc, "article");
  EXPECT_TRUE(
      multi.FindEverywhere("lib_a", article, "nope*").status().IsNotFound());
  auto self_only = multi.FindEverywhere("lib_a", article, "lib_a");
  ASSERT_TRUE(self_only.ok());
  EXPECT_TRUE(self_only->empty());
}

TEST(MultiExecutor, RoutesToScope) {
  Catalog catalog = TwoLibraries();
  MultiExecutor multi(&catalog);

  auto all = multi.ExecuteText("*", "SELECT COUNT(a) FROM *//cdata a");
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->per_document.size(), 2u);
  ASSERT_EQ(all->columns.size(), 2u);
  EXPECT_EQ(all->columns[0], "doc");

  auto one = multi.ExecuteText("lib_a", "SELECT COUNT(a) FROM *//cdata a");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->rows.size(), 1u);
  EXPECT_EQ(one->rows[0][0], "lib_a");
}

TEST(MultiExecutor, MergedAnswersMatchPerDocumentExecutors) {
  // The acceptance pin: fanned-out answers are exactly the union of
  // the single-document answers, document-qualified, with MEET rows
  // re-ranked by witness distance.
  Catalog catalog = TwoLibraries();
  const std::string query =
      "SELECT MEET(a, b) FROM *//cdata a, *//cdata b "
      "WHERE a ICONTAINS 'Alice' AND b ICONTAINS '1999'";

  MultiExecutor multi(&catalog);
  auto merged = multi.ExecuteText("*", query);
  ASSERT_TRUE(merged.ok()) << merged.status();

  size_t single_total = 0;
  // Witness distance of every document-qualified single-document row.
  std::map<std::vector<std::string>, int> distances;
  for (const std::string& name : catalog.MatchNames("*")) {
    auto executor = catalog.ExecutorFor(name);
    ASSERT_TRUE(executor.ok());
    auto single = (*executor)->ExecuteText(query);
    ASSERT_TRUE(single.ok()) << single.status();
    single_total += single->rows.size();
    // Every single-document row appears in the merged result, with the
    // document name prepended.
    for (size_t r = 0; r < single->rows.size(); ++r) {
      const auto& row = single->rows[r];
      std::vector<std::string> qualified;
      qualified.push_back(name);
      qualified.insert(qualified.end(), row.begin(), row.end());
      EXPECT_NE(std::find(merged->rows.begin(), merged->rows.end(),
                          qualified),
                merged->rows.end())
          << "missing row from " << name;
      distances[qualified] = single->meets[r].witness_distance;
    }
  }
  EXPECT_EQ(merged->rows.size(), single_total);
  ASSERT_GE(merged->rows.size(), 2u);  // one concept per library

  // Rows are globally ordered by ascending witness distance.
  auto distance_of = [&](const std::vector<std::string>& row) {
    auto found = distances.find(row);
    if (found != distances.end()) return found->second;
    ADD_FAILURE() << "row not found in single-document results";
    return -1;
  };
  for (size_t r = 1; r < merged->rows.size(); ++r) {
    EXPECT_LE(distance_of(merged->rows[r - 1]),
              distance_of(merged->rows[r]));
  }

  // Both libraries surface their connecting concept.
  std::set<std::string> docs_answering;
  for (const auto& row : merged->rows) docs_answering.insert(row[0]);
  EXPECT_EQ(docs_answering.size(), 2u);
}

TEST(MultiExecutor, LimitAppliesAcrossDocuments) {
  Catalog catalog = TwoLibraries();
  MultiExecutor multi(&catalog);
  auto result = multi.ExecuteText(
      "*", "SELECT a FROM *//cdata a LIMIT 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
  // A LIMIT satisfied exactly is a complete answer, not a truncated
  // one: the user asked for one row and got one row.
  EXPECT_FALSE(result->truncated);
  EXPECT_GT(result->rows_found, 1u);
}

TEST(MultiExecutor, MaxRowsValveIsTruncationButLimitIsNot) {
  // The distinction the streaming-top-k semantics pin down: dropping
  // rows because of the max_rows safety valve leaves the answer
  // incomplete (truncated), while an explicit LIMIT that was met
  // exactly does not.
  Catalog catalog = TwoLibraries();
  MultiExecutor multi(&catalog);

  query::ExecuteOptions capped;
  capped.max_rows = 1;
  auto valve = multi.ExecuteText("*", "SELECT a FROM *//cdata a", capped);
  ASSERT_TRUE(valve.ok());
  EXPECT_EQ(valve->rows.size(), 1u);
  EXPECT_TRUE(valve->truncated);

  // A LIMIT larger than the answer is also complete.
  auto all = multi.ExecuteText(
      "*", "SELECT a FROM *//cdata a LIMIT 100000");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), all->rows_found);
  EXPECT_FALSE(all->truncated);
}

TEST(MultiExecutor, CrossDocumentMeetFindsTheSharedItem) {
  // Paper §4: find the item from one bibliography inside another whose
  // markup is unknown. The shared article's nearest concept in lib_b
  // must be the <item> that carries the same creator/name, and the
  // fan-out answer must match the direct cross_document call.
  Catalog catalog = TwoLibraries();
  MultiExecutor multi(&catalog);

  const NamedDocument* lib_a = catalog.Find("lib_a");
  bat::Oid article = FindElement(lib_a->doc, "article");

  auto matches = multi.FindEverywhere("lib_a", article);
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ(matches->front().name, "lib_b");
  const model::StoredDocument& target = catalog.Find("lib_b")->doc;
  EXPECT_EQ(target.tag((*matches)[0].meet.meet), "item");

  // Equivalence with the single-target API.
  auto executor = catalog.ExecutorFor("lib_b");
  ASSERT_TRUE(executor.ok());
  auto search = (*executor)->TextSearch();
  ASSERT_TRUE(search.ok());
  auto direct = text::FindInOtherDocument(lib_a->doc, article, target,
                                          **search);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(matches->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*matches)[i].meet.meet, (*direct)[i].meet);
    EXPECT_EQ((*matches)[i].meet.witness_distance,
              (*direct)[i].witness_distance);
  }
}

TEST(MultiExecutor, CatalogRoundTripPreservesAnswers) {
  // Save the catalog, reload it, and ask the same question: the
  // reloaded store must answer identically (ids, names, rows).
  Catalog catalog = TwoLibraries();
  const std::string query =
      "SELECT MEET(a, b) FROM *//cdata a, *//cdata b "
      "WHERE a ICONTAINS 'Alice' AND b ICONTAINS '1999'";
  MultiExecutor multi(&catalog);
  auto before = multi.ExecuteText("*", query);
  ASSERT_TRUE(before.ok());

  Catalog reloaded = RoundTrip(catalog);
  MultiExecutor multi_after(&reloaded);
  auto after = multi_after.ExecuteText("*", query);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->rows, before->rows);
  EXPECT_EQ(after->columns, before->columns);
}

}  // namespace
}  // namespace store
}  // namespace meetxml
