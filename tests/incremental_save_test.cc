// Property tests for the incremental (in-place) catalog save: any
// interleaving of Add / Remove / Rename / save must leave a file whose
// restored catalog is indistinguishable — names, per-document
// statistics, query answers — from one restored off a fresh
// full-rewrite image of the same catalog, whether the image is opened
// serially or with 8 decode workers, eagerly or lazily. Plus the
// bookkeeping contracts: what an append keeps vs. writes, and the
// dead-space threshold that forces a compacting rewrite.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/stats.h"
#include "model/storage_io.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "tests/test_util.h"
#include "util/file_io.h"

namespace meetxml {
namespace store {
namespace {

using meetxml::testing::MustShred;
using meetxml::testing::TempFile;
using model::StoredDocument;


std::string CorpusXml(int n) {
  std::string xml = "<doc><entry><title>corpus number " +
                    std::to_string(n) + "</title><year>" +
                    std::to_string(1990 + n % 30) + "</year><note>";
  for (int i = 0; i <= n % 5; ++i) {
    xml += "token" + std::to_string((n * 7 + i) % 11) + " ";
  }
  xml += "</note></entry></doc>";
  return xml;
}

// Everything observable about a catalog, as one string: entry names
// and ids in order, the full statistics table of every document, and a
// cross-document query answer.
std::string Fingerprint(const Catalog& catalog) {
  std::string out;
  for (const NamedDocument* entry : catalog.entries()) {
    out += std::to_string(entry->id) + " " + entry->name + "\n";
    auto doc = catalog.Get(entry->name);
    EXPECT_TRUE(doc.ok()) << doc.status();
    if (!doc.ok()) continue;
    auto stats = model::ComputeStats(**doc);
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (stats.ok()) out += model::RenderStats(*stats);
  }
  MultiExecutor multi(&catalog);
  auto result = multi.ExecuteText(
      "*", "SELECT a FROM *//cdata a WHERE a CONTAINS 'token' LIMIT 64",
      {});
  EXPECT_TRUE(result.ok()) << result.status();
  if (result.ok()) out += result->ToText();
  return out;
}

// The property at the heart of the suite: the incrementally-maintained
// file and a fresh full-rewrite image of the same catalog restore
// identical catalogs under every open strategy.
void ExpectMatchesFullRewrite(const Catalog& catalog,
                              const std::string& inc_path) {
  auto full = catalog.SaveToBytes();
  ASSERT_TRUE(full.ok()) << full.status();
  auto reference = Catalog::LoadFromBytes(*full);
  ASSERT_TRUE(reference.ok()) << reference.status();
  std::string want = Fingerprint(*reference);
  ASSERT_FALSE(want.empty());

  for (unsigned threads : {1u, 8u}) {
    for (bool lazy : {false, true}) {
      CatalogLoadOptions options;
      options.threads = threads;
      options.lazy = lazy;
      auto loaded = Catalog::LoadFromFile(inc_path, options);
      ASSERT_TRUE(loaded.ok())
          << loaded.status() << " (threads=" << threads
          << ", lazy=" << lazy << ")";
      EXPECT_EQ(Fingerprint(*loaded), want)
          << "threads=" << threads << ", lazy=" << lazy;
    }
  }
}

TEST(IncrementalSave, RandomOpSequencesMatchFullRewrite) {
  TempFile file("incsave_prop.mxm");
  const std::string& path = file.path();
  Catalog catalog;
  int counter = 0;
  for (; counter < 3; ++counter) {
    ASSERT_TRUE(catalog
                    .Add("doc_" + std::to_string(counter),
                         MustShred(CorpusXml(counter)))
                    .ok());
  }
  MEETXML_CHECK_OK(catalog.SaveToFile(path));

  uint64_t state = 0x2545f4914f6cdd1dULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  auto random_name = [&]() {
    std::vector<const NamedDocument*> all = catalog.entries();
    return all[next() % all.size()]->name;
  };

  size_t in_place_saves = 0;
  for (int round = 0; round < 16; ++round) {
    switch (next() % 4) {
      case 0:
        ASSERT_TRUE(catalog
                        .Add("doc_" + std::to_string(counter),
                             MustShred(CorpusXml(counter)))
                        .ok());
        ++counter;
        break;
      case 1:
        if (catalog.size() > 1) {
          MEETXML_CHECK_OK(catalog.Remove(random_name()));
        }
        break;
      case 2:
        MEETXML_CHECK_OK(catalog.Rename(
            random_name(), "renamed_" + std::to_string(counter++)));
        break;
      case 3:
        break;  // save with no mutation: the append must be a no-op-ish
    }
    CatalogSaveStats stats;
    CatalogSaveOptions save;
    save.in_place = true;
    save.stats = &stats;
    MEETXML_CHECK_OK(catalog.SaveToFile(path, save));
    if (stats.in_place) ++in_place_saves;
    ExpectMatchesFullRewrite(catalog, path);
  }
  // The sequence must have exercised the append path, not just fallen
  // back to rewrites every round.
  EXPECT_GT(in_place_saves, 8u);
}

TEST(IncrementalSave, SingleAddAppendsInsteadOfRewriting) {
  TempFile file("incsave_add.mxm");
  const std::string& path = file.path();
  Catalog catalog;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(catalog
                    .Add("doc_" + std::to_string(i),
                         MustShred(CorpusXml(i)))
                    .ok());
  }
  MEETXML_CHECK_OK(catalog.SaveToFile(path));
  auto before = util::ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(catalog.Add("late", MustShred(CorpusXml(99))).ok());
  CatalogSaveStats stats;
  CatalogSaveOptions save;
  save.in_place = true;
  save.stats = &stats;
  MEETXML_CHECK_OK(catalog.SaveToFile(path, save));

  EXPECT_TRUE(stats.in_place);
  EXPECT_FALSE(stats.compacted);
  // Kept verbatim: the DOC2 of each of the 8 existing documents.
  EXPECT_EQ(stats.sections_kept, 8u);
  // Appended: the new document's DOC2 and the fresh CTLG.
  EXPECT_EQ(stats.sections_appended, 2u);
  EXPECT_GT(stats.bytes_appended, 0u);
  auto after = util::ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(stats.file_size, after->size());
  EXPECT_EQ(after->size(), before->size() + stats.bytes_appended);
  // The old CTLG payload and directory went dead with the append.
  EXPECT_GT(stats.dead_bytes, 0u);
  EXPECT_LT(stats.dead_bytes, before->size());

  ExpectMatchesFullRewrite(catalog, path);
}

TEST(IncrementalSave, RepeatedAppendsAccumulateDeadBytesMonotonically) {
  TempFile file("incsave_dead.mxm");
  const std::string& path = file.path();
  Catalog catalog;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(catalog
                    .Add("doc_" + std::to_string(i),
                         MustShred(CorpusXml(i)))
                    .ok());
  }
  MEETXML_CHECK_OK(catalog.SaveToFile(path));
  uint64_t last_dead = 0;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(
        catalog.Add("extra_" + std::to_string(round), MustShred(CorpusXml(round + 50)))
            .ok());
    CatalogSaveStats stats;
    CatalogSaveOptions save;
    save.in_place = true;
    save.compact_threshold = 0.99;  // keep appending, never compact
    save.stats = &stats;
    MEETXML_CHECK_OK(catalog.SaveToFile(path, save));
    ASSERT_TRUE(stats.in_place);
    EXPECT_GT(stats.dead_bytes, last_dead);
    last_dead = stats.dead_bytes;
  }
  ExpectMatchesFullRewrite(catalog, path);
}

TEST(IncrementalSave, CompactionThresholdForcesRewrite) {
  TempFile file("incsave_compact.mxm");
  const std::string& path = file.path();
  Catalog catalog;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(catalog
                    .Add("doc_" + std::to_string(i),
                         MustShred(CorpusXml(i)))
                    .ok());
  }
  MEETXML_CHECK_OK(catalog.SaveToFile(path));
  auto before = util::ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  // Dropping most of the corpus turns the majority of the file dead;
  // the in-place request must bail to a compacting rewrite.
  for (int i = 0; i < 5; ++i) {
    MEETXML_CHECK_OK(catalog.Remove("doc_" + std::to_string(i)));
  }
  CatalogSaveStats stats;
  CatalogSaveOptions save;
  save.in_place = true;
  save.stats = &stats;
  MEETXML_CHECK_OK(catalog.SaveToFile(path, save));
  EXPECT_FALSE(stats.in_place);
  EXPECT_TRUE(stats.compacted);
  auto after = util::ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->size(), before->size());

  // And the rewrite re-anchors the placements: the next append works.
  ASSERT_TRUE(catalog.Add("fresh", MustShred(CorpusXml(77))).ok());
  CatalogSaveStats again;
  save.stats = &again;
  MEETXML_CHECK_OK(catalog.SaveToFile(path, save));
  EXPECT_TRUE(again.in_place);
  ExpectMatchesFullRewrite(catalog, path);
}

TEST(IncrementalSave, IndexedEntriesKeepTheirTidxAcrossAppends) {
  TempFile file("incsave_tidx.mxm");
  const std::string& path = file.path();
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("indexed", MustShred(CorpusXml(1))).ok());
  MEETXML_CHECK_OK(catalog.EnsureIndex("indexed"));
  MEETXML_CHECK_OK(catalog.SaveToFile(path));

  ASSERT_TRUE(catalog.Add("plain", MustShred(CorpusXml(2))).ok());
  CatalogSaveStats stats;
  CatalogSaveOptions save;
  save.in_place = true;
  save.stats = &stats;
  MEETXML_CHECK_OK(catalog.SaveToFile(path, save));
  ASSERT_TRUE(stats.in_place);
  EXPECT_EQ(stats.sections_kept, 2u);  // DOC2 + TIDX

  auto loaded = Catalog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->Find("indexed")->index.has_value());
  EXPECT_FALSE(loaded->Find("plain")->index.has_value());
  ExpectMatchesFullRewrite(catalog, path);
}

TEST(IncrementalSave, InPlaceIntoAForeignPathFallsBackToRewrite) {
  // No origin bookkeeping for that path — the save must quietly do the
  // full rewrite rather than fail or corrupt anything.
  TempFile file("incsave_foreign.mxm");
  const std::string& path = file.path();
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("only", MustShred(CorpusXml(3))).ok());
  CatalogSaveStats stats;
  CatalogSaveOptions save;
  save.in_place = true;
  save.stats = &stats;
  MEETXML_CHECK_OK(catalog.SaveToFile(path, save));
  EXPECT_FALSE(stats.in_place);
  ExpectMatchesFullRewrite(catalog, path);
}

}  // namespace
}  // namespace store
}  // namespace meetxml
