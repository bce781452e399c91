// Tests for binary persistence of the Monet transform: round-trips,
// decode against the shredded original, corruption and version
// rejection, file I/O, and the writer's pinned output bytes.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/meet_pair.h"
#include "data/dblp_gen.h"
#include "data/paper_example.h"
#include "data/random_tree.h"
#include "model/bulk_load.h"
#include "model/reassembly.h"
#include "model/shredder.h"
#include "model/storage_io.h"
#include "store/catalog.h"
#include "tests/test_util.h"
#include "text/index_io.h"
#include "text/inverted_index.h"
#include "util/byte_io.h"
#include "xml/serializer.h"

namespace meetxml {
namespace model {
namespace {

using meetxml::testing::FindCdataNode;
using meetxml::testing::MustShred;

StoredDocument RoundTrip(const StoredDocument& doc) {
  auto bytes = SaveToBytes(doc);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = LoadFromBytes(*bytes);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return std::move(*loaded);
}

TEST(StorageIo, RoundTripsPaperExample) {
  StoredDocument original = MustShred(data::PaperExampleXml());
  StoredDocument loaded = RoundTrip(original);

  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded.string_count(), original.string_count());
  EXPECT_EQ(loaded.paths().size(), original.paths().size());
  for (bat::Oid oid = 0; oid < original.node_count(); ++oid) {
    EXPECT_EQ(loaded.parent(oid), original.parent(oid));
    EXPECT_EQ(loaded.path(oid), original.path(oid));
    EXPECT_EQ(loaded.rank(oid), original.rank(oid));
  }
  // Reassembly of the loaded image matches the original document.
  auto original_xml = ReassembleToXml(original, original.root(), 0);
  auto loaded_xml = ReassembleToXml(loaded, loaded.root(), 0);
  ASSERT_TRUE(original_xml.ok() && loaded_xml.ok());
  EXPECT_EQ(*loaded_xml, *original_xml);
}

TEST(StorageIo, LoadedImageAnswersMeetQueries) {
  StoredDocument loaded = RoundTrip(MustShred(data::PaperExampleXml()));
  bat::Oid ben = FindCdataNode(loaded, "Ben");
  bat::Oid bit = FindCdataNode(loaded, "Bit");
  auto meet = core::MeetPair(loaded, ben, bit);
  ASSERT_TRUE(meet.ok());
  EXPECT_EQ(loaded.tag(meet->meet), "author");
}

TEST(StorageIo, RejectsUnfinalizedDocument) {
  StoredDocument doc;
  PathId p = doc.mutable_paths()->Intern(bat::kInvalidPathId,
                                         StepKind::kElement, "a");
  doc.AppendNode(p, bat::kInvalidOid, 0);
  EXPECT_FALSE(SaveToBytes(doc).ok());
}

TEST(StorageIo, RejectsGarbage) {
  EXPECT_FALSE(LoadFromBytes("").ok());
  EXPECT_FALSE(LoadFromBytes("not an image at all").ok());
  EXPECT_FALSE(LoadFromBytes("MXM1").ok());  // header truncated
}

TEST(StorageIo, RejectsTruncation) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto bytes = SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  for (size_t cut : {bytes->size() - 1, bytes->size() / 2, size_t{30}}) {
    auto loaded = LoadFromBytes(bytes->substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
}

TEST(StorageIo, RejectsBitFlips) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto bytes = SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  // Flip one byte in the payload: the checksum must catch it.
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x40;
  auto loaded = LoadFromBytes(corrupted);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum"),
            std::string::npos);
}

TEST(StorageIo, RejectsWrongVersion) {
  StoredDocument doc = MustShred("<a/>");
  auto bytes = SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  std::string wrong = *bytes;
  wrong[4] = 99;  // version field
  EXPECT_FALSE(LoadFromBytes(wrong).ok());
}

TEST(StorageIo, RejectsTrailingBytes) {
  // Trailing bytes inside a payload are corruption, even behind valid
  // checksums: the DOC2 decoder consumes its payload exactly.
  StoredDocument doc = MustShred("<a><b>x</b></a>");
  auto doc_payload = SerializeDocumentSection(doc);
  ASSERT_TRUE(doc_payload.ok());
  auto long_doc = SaveSectionsToBytes(
      {ImageSection{kDocumentSectionId, *doc_payload + "extra"}});
  ASSERT_TRUE(long_doc.ok());
  auto loaded = LoadFromBytes(*long_doc);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing bytes"),
            std::string::npos)
      << loaded.status();
}

TEST(StorageIo, TrailingDirectoryMinorToleratesTrailingBytes) {
  // The container locates everything through the directory pointer, so
  // bytes past the directory are dead space — exactly what a crashed in-place
  // append leaves behind. The image must still load.
  StoredDocument doc = MustShred("<a/>");
  auto bytes = SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  auto loaded = LoadFromBytes(*bytes + "extra");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->node_count(), doc.node_count());
}

TEST(StorageIo, FileRoundTrip) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  std::string path =
      (std::filesystem::temp_directory_path() / "meetxml_io_test.mxm")
          .string();
  MEETXML_CHECK_OK(SaveToFile(doc, path));
  auto loaded = LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->node_count(), doc.node_count());
  std::remove(path.c_str());
}

TEST(StorageIo, MissingFileIsNotFound) {
  auto loaded = LoadFromFile("/nonexistent/path/file.mxm");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

// --- The DOC2 layout ----------------------------------------------------

TEST(StorageIo, DocumentSectionAloneStampsMinor7) {
  // Nothing derivable is stored: a document image is its DOC2 section.
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto bytes = SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->substr(0, 4), "MXM2");
  EXPECT_EQ((*bytes)[4], 7);  // minor revision field
  auto sections = LoadSectionsFromBytes(*bytes);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->sections.size(), 1u);
  EXPECT_EQ(sections->sections[0].id, kDocumentSectionId);
}

TEST(StorageIo, AlignedColumnarColumnsSitOn4ByteOffsets) {
  // The property DOC2 exists for: every raw u32 column starts on a
  // 4-byte boundary of the image, so a view-mode load can hand out
  // typed spans. Proxy check: a view-mode load of the default image
  // reports zero copied bytes (it could not if any column were
  // misaligned).
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto bytes = SaveToBytes(doc);
  ASSERT_TRUE(bytes.ok());
  LoadStats stats;
  LoadOptions options;
  options.mode = LoadMode::kView;
  options.stats = &stats;
  auto loaded = LoadFromBytes(*bytes, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(stats.mode_used, LoadMode::kView);
  EXPECT_EQ(stats.bytes_copied, 0u);
  EXPECT_GT(stats.bytes_viewed, 0u);
}

template <typename Column>
auto ToVector(const Column& column) {
  using Value = std::decay_t<decltype(*column.begin())>;
  return std::vector<Value>(column.begin(), column.end());
}

// Every structure Finalize() derives, element by element: the
// children CSR, the per-path edge BATs (heads and tails) in
// first-appearance order, and the string sortedness flags.
void ExpectSameDerivedStructures(const StoredDocument& actual,
                                 const StoredDocument& expected) {
  ASSERT_TRUE(actual.finalized());
  EXPECT_EQ(ToVector(actual.child_offsets()),
            ToVector(expected.child_offsets()));
  EXPECT_EQ(ToVector(actual.child_list()), ToVector(expected.child_list()));
  ASSERT_EQ(actual.edge_paths(), expected.edge_paths());
  for (PathId path = 0; path < expected.paths().size(); ++path) {
    EXPECT_EQ(ToVector(actual.EdgesAt(path).heads()),
              ToVector(expected.EdgesAt(path).heads()))
        << "path " << path;
    EXPECT_EQ(ToVector(actual.EdgesAt(path).tails()),
              ToVector(expected.EdgesAt(path).tails()))
        << "path " << path;
    EXPECT_EQ(actual.StringRelationSorted(path),
              expected.StringRelationSorted(path))
        << "path " << path;
  }
  ASSERT_EQ(actual.string_paths(), expected.string_paths());
}

// The reference check for the one decode path: a saved image, loaded
// in copy and in view mode, eagerly and with validation deferred, and
// as a lazily decoded catalog entry, holds exactly the columns the
// shredder built — node columns, the path summary, the strings in
// append order — and exactly the structures Finalize() derived from
// them. Re-serializing any load reproduces the writer's bytes.
void ExpectDecodesToTheShreddedDocument(const StoredDocument& original) {
  auto bytes = SaveToBytes(original);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto expect_same = [&](const StoredDocument& loaded) {
    ASSERT_EQ(loaded.paths().size(), original.paths().size());
    for (PathId id = 0; id < original.paths().size(); ++id) {
      EXPECT_EQ(loaded.paths().parent(id), original.paths().parent(id));
      EXPECT_EQ(loaded.paths().kind(id), original.paths().kind(id));
      EXPECT_EQ(loaded.paths().label(id), original.paths().label(id));
    }
    EXPECT_EQ(ToVector(loaded.parent_column()),
              ToVector(original.parent_column()));
    EXPECT_EQ(ToVector(loaded.path_column()),
              ToVector(original.path_column()));
    EXPECT_EQ(ToVector(loaded.rank_column()),
              ToVector(original.rank_column()));
    EXPECT_EQ(loaded.StringsInAppendOrder(), original.StringsInAppendOrder());
    ExpectSameDerivedStructures(loaded, original);
    auto again = SaveToBytes(loaded);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(*again, *bytes);
  };

  auto copy = LoadFromBytes(*bytes);
  ASSERT_TRUE(copy.ok()) << copy.status();
  store::Catalog catalog;
  ASSERT_TRUE(catalog.Add("doc", std::move(*copy)).ok());
  auto catalog_bytes = catalog.SaveToBytes();
  ASSERT_TRUE(catalog_bytes.ok()) << catalog_bytes.status();

  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kView}) {
    for (bool defer : {false, true}) {
      SCOPED_TRACE(std::string(mode == LoadMode::kView ? "view" : "copy") +
                   (defer ? ", deferred" : ", eager"));
      LoadStats stats;
      LoadOptions options;
      options.mode = mode;
      options.defer_validation = defer;
      options.stats = &stats;
      auto loaded = LoadFromBytes(*bytes, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(stats.mode_used, mode);
      EXPECT_EQ(loaded->view_backed(), mode == LoadMode::kView);
      if (mode == LoadMode::kView) {
        EXPECT_EQ(stats.bytes_copied, 0u);
      }
      EXPECT_TRUE(loaded->EnsureValidated().ok());
      expect_same(*loaded);
    }
    SCOPED_TRACE(mode == LoadMode::kView ? "lazy catalog, view"
                                         : "lazy catalog, copy");
    store::CatalogLoadOptions lazy;
    lazy.mode = mode;
    lazy.lazy = true;
    auto opened = store::Catalog::LoadFromBytes(*catalog_bytes, lazy);
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto entry = opened->Get("doc");
    ASSERT_TRUE(entry.ok()) << entry.status();
    expect_same(**entry);
  }
}

TEST(StorageIo, PaperExampleDecodesToTheShreddedDocument) {
  ExpectDecodesToTheShreddedDocument(MustShred(data::PaperExampleXml()));
}

TEST(StorageIo, DblpDecodesToTheShreddedDocument) {
  data::DblpOptions options;
  options.end_year = 1987;
  auto xml_text = data::GenerateDblpXml(options);
  ASSERT_TRUE(xml_text.ok());
  auto doc = ShredXmlText(*xml_text);
  ASSERT_TRUE(doc.ok());
  ExpectDecodesToTheShreddedDocument(*doc);
}

TEST(StorageIo, ColumnarSurvivesExtraSections)  {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  SaveOptions options;
  options.extra_sections.push_back(
      ImageSection{MakeSectionId('X', 'T', 'R', 'A'), "opaque"});
  auto bytes = SaveToBytes(doc, options);
  ASSERT_TRUE(bytes.ok());
  auto image = LoadImageFromBytes(*bytes);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->doc.node_count(), doc.node_count());
  ASSERT_EQ(image->extra_sections.size(), 1u);
  EXPECT_EQ(image->extra_sections[0].bytes, "opaque");
}

// Every shredder hands Finalize() the same columns, so a document
// loaded from any shredder's image holds the derived structures that
// shredder built — and all shredders agree. Inputs: DBLP and seeded
// random trees with element, cdata and attribute paths; shredders:
// ShredXmlText and BulkShredXmlText at 1, 2 and 8 threads.
TEST(StorageIo, LoadedDerivedStructuresEqualShreddedOnes) {
  std::vector<std::string> inputs;
  data::DblpOptions dblp;
  dblp.end_year = 1986;
  auto dblp_xml = data::GenerateDblpXml(dblp);
  ASSERT_TRUE(dblp_xml.ok());
  inputs.push_back(*dblp_xml);
  for (uint64_t seed : {5, 23}) {
    data::RandomTreeOptions options;
    options.seed = seed;
    options.target_elements = 300;
    options.attribute_prob = 0.6;
    auto tree = data::GenerateRandomTree(options);
    ASSERT_TRUE(tree.ok());
    inputs.push_back(xml::Serialize(*tree));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    auto sequential = ShredXmlText(inputs[i]);
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    bool has_attribute = false;
    for (PathId path : sequential->string_paths()) {
      has_attribute |= sequential->paths().kind(path) == StepKind::kAttribute;
    }
    EXPECT_TRUE(has_attribute);
    ExpectDecodesToTheShreddedDocument(*sequential);
    for (unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("bulk, threads " + std::to_string(threads));
      BulkLoadOptions options;
      options.threads = threads;
      options.target_chunk_bytes = 2048;
      options.min_parallel_bytes = 0;
      auto bulk = BulkShredXmlText(inputs[i], options);
      ASSERT_TRUE(bulk.ok()) << bulk.status();
      ExpectSameDerivedStructures(*bulk, *sequential);
      ExpectDecodesToTheShreddedDocument(*bulk);
    }
  }
}

class StorageIoProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageIoProperty, RandomTreeRoundTrip) {
  data::RandomTreeOptions options;
  options.seed = GetParam();
  options.target_elements = 400;
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());
  auto shredded = Shred(*generated);
  ASSERT_TRUE(shredded.ok());

  StoredDocument loaded = RoundTrip(*shredded);
  auto original_xml = ReassembleToXml(*shredded, shredded->root(), 0);
  auto loaded_xml = ReassembleToXml(loaded, loaded.root(), 0);
  ASSERT_TRUE(original_xml.ok() && loaded_xml.ok());
  EXPECT_EQ(*loaded_xml, *original_xml);

  ExpectDecodesToTheShreddedDocument(*shredded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageIoProperty,
                         ::testing::Values(100, 200, 300, 400));

TEST(StorageIo, DblpImageIsSmallerThanXml) {
  data::DblpOptions options;
  options.end_year = 1987;
  auto xml_text = data::GenerateDblpXml(options);
  ASSERT_TRUE(xml_text.ok());
  auto doc = ShredXmlText(*xml_text);
  ASSERT_TRUE(doc.ok());
  auto bytes = SaveToBytes(*doc);
  ASSERT_TRUE(bytes.ok());
  auto sections = LoadSectionsFromBytes(*bytes);
  ASSERT_TRUE(sections.ok());
  // Sanity: the image is its DOC2 section plus framing, and stays
  // within 2x of the XML (it stores paths once, not per element, and
  // nothing derivable).
  ASSERT_EQ(sections->sections.size(), 1u);
  EXPECT_LT(bytes->size(), xml_text->size() * 2);
}

// --- Version policy ---------------------------------------------------

// Every layout but MXM2 minor 7 is refused at the version check, with
// nothing else reported: the retired MXM1 magic, and a valid minor-7
// image re-stamped to each retired minor — the front-directory minors
// 2-5 and minor 6, which stored a DRV1 section beside each DOC2. Every
// loader says the same thing, in both load modes and on a lazy open.
TEST(StorageCompat, RetiredVersionsAreRefused) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto current = SaveToBytes(doc);
  ASSERT_TRUE(current.ok());
  auto doc_payload = SerializeDocumentSection(doc);
  ASSERT_TRUE(doc_payload.ok());

  std::vector<std::string> retired;
  // An MXM1 header: magic | u32 version 1 | u64 payload size | u64
  // checksum, then the payload.
  util::ByteWriter mxm1;
  mxm1.Bytes("MXM1");
  mxm1.U32(1);
  mxm1.U64(doc_payload->size());
  mxm1.U64(0);
  mxm1.Bytes(*doc_payload);
  retired.push_back(mxm1.Take());
  for (uint32_t minor : {2u, 3u, 4u, 5u, 6u}) {
    std::string restamped = *current;
    std::memcpy(restamped.data() + 4, &minor, 4);
    retired.push_back(restamped);
  }

  auto expect_refused = [](const util::Status& status, size_t which) {
    EXPECT_EQ(status.message().rfind("unsupported storage version", 0), 0u)
        << "image " << which << ": " << status;
  };
  for (size_t i = 0; i < retired.size(); ++i) {
    for (LoadMode mode : {LoadMode::kCopy, LoadMode::kView}) {
      LoadOptions options;
      options.mode = mode;
      expect_refused(LoadFromBytes(retired[i], options).status(), i);
      expect_refused(text::LoadStoreFromBytes(retired[i], options).status(),
                     i);
      store::CatalogLoadOptions catalog_options;
      catalog_options.mode = mode;
      expect_refused(
          store::Catalog::LoadFromBytes(retired[i], catalog_options).status(),
          i);
      catalog_options.lazy = true;
      expect_refused(
          store::Catalog::LoadFromBytes(retired[i], catalog_options).status(),
          i);
    }
    expect_refused(LoadSectionsFromBytes(retired[i]).status(), i);
  }
}

// --- Format pin -------------------------------------------------------
//
// The writer's bytes for fixed inputs, pinned by size and a byte-serial
// FNV-1a hash. The image values were re-recorded when minor 7 stopped
// storing the DRV1 section. The DOC2 and TIDX section values were
// recorded with the minor-6 writer and did not change, which shows
// that dropping DRV1 left the document and index payloads as they
// were. A change here means the on-disk format drifted.

uint64_t PinHash(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The (id, size, hash) of every section of an image, in directory
// order.
std::vector<std::tuple<uint32_t, size_t, uint64_t>> SectionPins(
    std::string_view image) {
  std::vector<std::tuple<uint32_t, size_t, uint64_t>> pins;
  auto sections = LoadSectionsFromBytes(image);
  EXPECT_TRUE(sections.ok()) << sections.status();
  if (!sections.ok()) return pins;
  for (const SectionView& section : sections->sections) {
    pins.emplace_back(section.id, section.bytes.size(),
                      PinHash(section.bytes));
  }
  return pins;
}

constexpr uint64_t kPaperDoc2Hash = 0x00462e322248f80cULL;
constexpr uint64_t kPaperTidxHash = 0xc2a189bdd6986419ULL;

TEST(StorageFormatPin, SingleDocumentImages) {
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto single = SaveToBytes(doc);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->size(), 728u);
  EXPECT_EQ(PinHash(*single), 0xbaca89902bb21af7ULL);
  EXPECT_EQ(SectionPins(*single),
            (std::vector<std::tuple<uint32_t, size_t, uint64_t>>{
                {kDocumentSectionId, 672, kPaperDoc2Hash}}));

  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  auto store = text::SaveStoreToBytes(doc, &*index);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->size(), 1252u);
  EXPECT_EQ(PinHash(*store), 0x820ecdfb0238fe97ULL);
  EXPECT_EQ(SectionPins(*store),
            (std::vector<std::tuple<uint32_t, size_t, uint64_t>>{
                {kDocumentSectionId, 672, kPaperDoc2Hash},
                {kTextIndexSectionId, 495, kPaperTidxHash}}));
}

TEST(StorageFormatPin, ThreeDocumentCatalogWithOneIndex) {
  store::Catalog catalog;
  StoredDocument paper = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(paper);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(
      catalog.Add("paper", std::move(paper), std::move(*index)).ok());
  data::DblpOptions dblp_options;
  dblp_options.end_year = 1985;
  auto dblp_xml = data::GenerateDblpXml(dblp_options);
  ASSERT_TRUE(dblp_xml.ok());
  ASSERT_TRUE(catalog.Add("dblp", MustShred(*dblp_xml)).ok());
  data::RandomTreeOptions tree_options;
  tree_options.seed = 17;
  tree_options.target_elements = 120;
  auto tree = data::GenerateRandomTree(tree_options);
  ASSERT_TRUE(tree.ok());
  auto tree_doc = Shred(*tree);
  ASSERT_TRUE(tree_doc.ok());
  ASSERT_TRUE(catalog.Add("tree", std::move(*tree_doc)).ok());

  auto bytes = catalog.SaveToBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), 207020u);
  EXPECT_EQ(PinHash(*bytes), 0x91e96b1cd3111cd5ULL);
  // The CTLG payload changed with its codec (3 drops the per-entry DRV1
  // reference); the documents' DOC2 and TIDX payloads did not.
  EXPECT_EQ(SectionPins(*bytes),
            (std::vector<std::tuple<uint32_t, size_t, uint64_t>>{
                {kCatalogSectionId, 28, 0x4b3c40b1d4a7b9b5ULL},
                {kDocumentSectionId, 672, kPaperDoc2Hash},
                {kTextIndexSectionId, 495, kPaperTidxHash},
                {kDocumentSectionId, 198216, 0x40ff863ee7c09cefULL},
                {kDocumentSectionId, 7440, 0x0d70d47163ba93ceULL}}));
}

}  // namespace
}  // namespace model
}  // namespace meetxml
