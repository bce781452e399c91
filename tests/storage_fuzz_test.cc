// Fuzz-style corruption tests for the storage image loader: every
// truncation, every single-byte flip and a battery of crafted headers,
// payloads and directories must be rejected cleanly (no crash, no
// partially applied document), in copy and in zero-copy view mode —
// the teeth behind the versioning policy documented in
// model/storage_io.h.

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "model/storage_io.h"
#include "store/catalog.h"
#include "util/byte_io.h"
#include "util/file_io.h"
#include "text/index_io.h"
#include "text/inverted_index.h"
#include "tests/test_util.h"

namespace meetxml {
namespace model {
namespace {

using meetxml::testing::MustShred;
using meetxml::testing::TempFile;

// Fuzz parameter: the kViewMode bit runs the same sweep through a
// zero-copy (kView) load: a corrupt image must fail decode in view
// mode exactly as in copy mode — never yield a span past the mapping.
// The low byte only salts the mutation stream. The instance values
// and names date from minor 6 (DOC2 + DRV1) and are kept so the
// suite's test ids stay stable; the image under test is always the
// current writer's (minor 7, DOC2 behind the trailing directory).
constexpr uint32_t kViewMode = 0x100;

std::string Image() {
  auto bytes = SaveToBytes(MustShred(data::PaperExampleXml()));
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return *bytes;
}

// The container checksum (four-lane FNV-1a, model/storage_io.h),
// re-implemented so crafted images can re-stamp a directory after
// patching it — which leaves the framing checks as the only defense.
uint64_t LaneChecksum(std::string_view bytes) {
  constexpr uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t lanes[4] = {kOffset, kOffset ^ 1, kOffset ^ 2, kOffset ^ 3};
  size_t at = 0;
  for (; at + 32 <= bytes.size(); at += 32) {
    for (int lane = 0; lane < 4; ++lane) {
      uint64_t chunk;
      std::memcpy(&chunk, bytes.data() + at + lane * 8, 8);
      lanes[lane] = (lanes[lane] ^ chunk) * kPrime;
    }
  }
  uint64_t hash = kOffset;
  for (uint64_t lane : lanes) hash = (hash ^ lane) * kPrime;
  for (; at < bytes.size(); ++at) {
    hash = (hash ^ static_cast<unsigned char>(bytes[at])) * kPrime;
  }
  return hash;
}

util::Result<StoredDocument> Load(uint32_t param, std::string_view bytes) {
  LoadOptions options;
  if ((param & kViewMode) != 0) options.mode = LoadMode::kView;
  return LoadFromBytes(bytes, options);
}

class StorageFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StorageFuzz, EveryTruncationFails) {
  std::string bytes = Image();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto loaded =
        Load(GetParam(), std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut << " of " << bytes.size();
  }
}

TEST_P(StorageFuzz, EveryByteFlipFails) {
  // In a doc-only image every byte is load-bearing: magic, minor and
  // directory flips trip structural checks (only minor 7 is read),
  // payload flips trip the section checksum, and the DOC2 payload is
  // a multiple of 4 bytes, so no alignment pad sits before the
  // directory. Flip every byte through three masks.
  std::string bytes = Image();
  for (uint8_t mask : {0x01, 0x40, 0xff}) {
    for (size_t at = 0; at < bytes.size(); ++at) {
      std::string corrupt = bytes;
      corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
      EXPECT_FALSE(Load(GetParam(), corrupt).ok())
          << "flip mask " << int(mask) << " at " << at;
    }
  }
}

TEST_P(StorageFuzz, PseudoRandomMutationsNeverCrash) {
  // Deterministic LCG mutations: multi-byte scribbles anywhere in the
  // image. Anything but a clean error is a bug; loads must never
  // crash, hang or hand back a half-built document.
  std::string bytes = Image();
  uint64_t state = 0x9e3779b97f4a7c15ULL + GetParam();
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int round = 0; round < 500; ++round) {
    std::string corrupt = bytes;
    size_t edits = 1 + next() % 8;
    for (size_t e = 0; e < edits; ++e) {
      corrupt[next() % corrupt.size()] =
          static_cast<char>(next() & 0xff);
    }
    auto loaded = Load(GetParam(), corrupt);
    if (loaded.ok()) {
      // Only reachable if the scribbles reproduced the original bytes;
      // a loaded document is always fully finalized.
      EXPECT_TRUE(loaded->finalized());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, StorageFuzz, ::testing::Values(6u, kViewMode | 6u),
    [](const auto& info) -> std::string {
      return (info.param & kViewMode) != 0 ? "MXM2DRV1View" : "MXM2DRV1";
    });

// A minor-7 header whose directory (at offset 16) holds `count`
// sections and nothing else, with a valid directory checksum.
std::string CraftDirectoryOnly(uint32_t count) {
  util::ByteWriter out;
  out.Bytes("MXM2");
  out.U32(7);
  out.U64(16);  // dir_offset
  util::ByteWriter dir;
  dir.U32(count);
  std::string dir_bytes = dir.Take();
  out.Bytes(dir_bytes);
  out.U64(LaneChecksum(dir_bytes));
  return out.Take();
}

TEST(StorageFuzzCrafted, BadMagicAndHeaders) {
  EXPECT_FALSE(LoadFromBytes("").ok());
  EXPECT_FALSE(LoadFromBytes("MXM").ok());
  EXPECT_FALSE(LoadFromBytes("MXM3????????????").ok());
  EXPECT_FALSE(LoadFromBytes(std::string("MXM2") +
                             std::string(12, '\0'))
                   .ok());  // version 0
  // Zero sections, and a huge section count that must be rejected
  // before any allocation — both behind a valid directory checksum.
  auto zero = LoadFromBytes(CraftDirectoryOnly(0));
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("section count"),
            std::string::npos)
      << zero.status();
  auto huge = LoadFromBytes(CraftDirectoryOnly(0xffffffffu));
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("section count"),
            std::string::npos)
      << huge.status();
}

TEST(StorageFuzzCrafted, WriterRejectsUnloadableSectionSets) {
  // Images the loader would refuse must fail at save time, not at the
  // next restart. The document section id is off-limits as an extra.
  StoredDocument doc = MustShred("<a><b>x</b></a>");
  SaveOptions dup_doc;
  dup_doc.extra_sections.push_back(ImageSection{kDocumentSectionId, "x"});
  EXPECT_FALSE(SaveToBytes(doc, dup_doc).ok());

  SaveOptions dup_id;
  dup_id.extra_sections.push_back(ImageSection{kTextIndexSectionId, "x"});
  dup_id.extra_sections.push_back(ImageSection{kTextIndexSectionId, "y"});
  EXPECT_FALSE(SaveToBytes(doc, dup_id).ok());
}

// --- Crafted DOC2 payload corruptions --------------------------------
//
// The DOC2 codec trusts nothing: every field below is handcrafted so
// one structural invariant at a time can be broken — offsets out of
// bounds, blobs shorter than the last offset, an append-order column
// that is not a permutation — and the loader must reject each image
// cleanly, never applying it partially. Each corruption is pushed
// through both load modes (copy and zero-copy view) and both
// validation modes: a bad image must fail identically everywhere, a
// view-mode decode must never hand out a span past the mapping, and a
// deferred-validation load must fail at the latest at its
// EnsureValidated gate.

// A two-node document (<a>xyz</a>): element path 0, cdata path 1, one
// string. Every knob overrides one field of the valid encoding.
struct Doc2Knobs {
  std::vector<uint32_t> parents{0xffffffffu, 0};
  std::vector<uint32_t> node_paths{0, 1};
  std::vector<uint32_t> ranks{0, 0};
  uint32_t total_strings = 1;
  uint32_t group_count = 1;
  std::vector<uint32_t> group_paths{1};
  std::vector<std::vector<uint32_t>> owners{{1}};
  std::vector<std::vector<uint32_t>> seqs{{0}};
  std::vector<std::vector<uint32_t>> ends{{3}};
  std::vector<std::string> blobs{"xyz"};
  std::string trailing;
};

std::string CraftDoc2Image(const Doc2Knobs& knobs) {
  util::ByteWriter payload;
  // Path summary: 0 = element "a" (root), 1 = cdata below it.
  payload.U32(2);
  payload.U32(0xffffffffu);
  payload.U8(0);  // StepKind::kElement
  payload.StrU32("a");
  payload.U32(0);
  payload.U8(2);  // StepKind::kCdata
  payload.StrU32("cdata");
  payload.AlignTo4();
  // Node columns.
  payload.U32(static_cast<uint32_t>(knobs.parents.size()));
  for (uint32_t v : knobs.parents) payload.U32(v);
  for (uint32_t v : knobs.node_paths) payload.U32(v);
  for (uint32_t v : knobs.ranks) payload.U32(v);
  // String groups.
  payload.U32(knobs.total_strings);
  payload.U32(knobs.group_count);
  for (size_t g = 0; g < knobs.group_paths.size(); ++g) {
    payload.U32(knobs.group_paths[g]);
    payload.U32(static_cast<uint32_t>(knobs.owners[g].size()));
    for (uint32_t v : knobs.owners[g]) payload.U32(v);
    for (uint32_t v : knobs.seqs[g]) payload.U32(v);
    for (uint32_t v : knobs.ends[g]) payload.U32(v);
    payload.Bytes(knobs.blobs[g]);
    payload.AlignTo4();
  }
  payload.Bytes(knobs.trailing);
  auto image = SaveSectionsToBytes(
      {ImageSection{kDocumentSectionId, payload.Take()}});
  EXPECT_TRUE(image.ok()) << image.status();
  return *image;
}

// The corruption must be caught in both load modes: an eager load
// rejects the image outright; a deferred-validation load may accept
// the framing, but must then fail at the EnsureValidated gate —
// queries never run over it.
void ExpectCorruptionCaught(const std::string& image, const char* what) {
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kView}) {
    LoadOptions eager;
    eager.mode = mode;
    EXPECT_FALSE(LoadFromBytes(image, eager).ok())
        << what << " (view=" << (mode == LoadMode::kView) << ")";
    LoadOptions deferred = eager;
    deferred.defer_validation = true;
    auto loaded = LoadFromBytes(image, deferred);
    if (loaded.ok()) {
      EXPECT_FALSE(loaded->EnsureValidated().ok())
          << what << " (deferred, view=" << (mode == LoadMode::kView)
          << ")";
    }
  }
}

void ExpectCraftedRejected(const Doc2Knobs& knobs, const char* what) {
  ExpectCorruptionCaught(CraftDoc2Image(knobs), what);
}

TEST(StorageFuzzCrafted, CraftedColumnarBaselinesLoad) {
  // The untampered encoding must load — otherwise the corruption cases
  // below would pass for the wrong reason.
  std::string image = CraftDoc2Image(Doc2Knobs{});
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kView}) {
    LoadOptions options;
    options.mode = mode;
    auto loaded = LoadFromBytes(image, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->node_count(), 2u);
    EXPECT_EQ(loaded->string_count(), 1u);
    EXPECT_EQ(loaded->CdataValue(1), "xyz");
  }

  // And it is bit-identical to what the writer emits for the same
  // document, pinning the crafted encoding to the real codec.
  auto written = SaveToBytes(MustShred("<a>xyz</a>"));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(image, *written);
}

TEST(StorageFuzzCrafted, ColumnarRejectsBadNodeColumns) {
  {
    Doc2Knobs knobs;  // non-root node whose parent does not precede it
    knobs.parents = {0xffffffffu, 1};
    ExpectCraftedRejected(knobs, "parent after child");
  }
  {
    Doc2Knobs knobs;  // node 0 with a parent
    knobs.parents = {0, 0};
    ExpectCraftedRejected(knobs, "rooted root");
  }
  {
    Doc2Knobs knobs;  // node path beyond the path summary
    knobs.node_paths = {0, 9};
    ExpectCraftedRejected(knobs, "node path out of range");
  }
}

TEST(StorageFuzzCrafted, ColumnarRejectsBadStringColumns) {
  {
    Doc2Knobs knobs;  // owner beyond the node count
    knobs.owners = {{5}};
    ExpectCraftedRejected(knobs, "owner out of range");
  }
  {
    Doc2Knobs knobs;  // group path beyond the path summary
    knobs.group_paths = {7};
    ExpectCraftedRejected(knobs, "group path out of range");
  }
  {
    Doc2Knobs knobs;  // empty group
    knobs.owners = {{}};
    knobs.seqs = {{}};
    knobs.ends = {{}};
    knobs.blobs = {""};
    ExpectCraftedRejected(knobs, "empty group");
  }
  {
    Doc2Knobs knobs;  // the same path adopted by two groups
    knobs.total_strings = 2;
    knobs.group_count = 2;
    knobs.group_paths = {1, 1};
    knobs.owners = {{1}, {1}};
    knobs.seqs = {{0}, {1}};
    knobs.ends = {{3}, {3}};
    knobs.blobs = {"xyz", "xyz"};
    ExpectCraftedRejected(knobs, "path adopted twice");
  }
}

TEST(StorageFuzzCrafted, ColumnarRejectsBadOffsets) {
  {
    Doc2Knobs knobs;  // offsets run out of the payload: blob shorter
    knobs.ends = {{100}};  // than the last offset claims
    ExpectCraftedRejected(knobs, "blob shorter than last offset");
  }
  {
    Doc2Knobs knobs;  // offsets not monotonic
    knobs.total_strings = 2;
    knobs.owners = {{1, 1}};
    knobs.seqs = {{0, 1}};
    knobs.ends = {{2, 1}};
    knobs.blobs = {"x"};
    ExpectCraftedRejected(knobs, "non-monotonic offsets");
  }
}

TEST(StorageFuzzCrafted, ColumnarRejectsBrokenPermutation) {
  {
    Doc2Knobs knobs;  // seq beyond the global string count
    knobs.seqs = {{4}};
    ExpectCraftedRejected(knobs, "seq out of range");
  }
  {
    Doc2Knobs knobs;  // duplicate seq value
    knobs.total_strings = 2;
    knobs.owners = {{1, 1}};
    knobs.seqs = {{0, 0}};
    knobs.ends = {{1, 2}};
    knobs.blobs = {"ab"};
    ExpectCraftedRejected(knobs, "duplicate seq");
  }
  {
    Doc2Knobs knobs;  // declared count larger than the rows delivered
    knobs.total_strings = 2;
    ExpectCraftedRejected(knobs, "undelivered rows");
  }
}

TEST(StorageFuzzCrafted, ColumnarRejectsTrailingPayloadBytes) {
  Doc2Knobs knobs;
  knobs.trailing.push_back('x');
  ExpectCraftedRejected(knobs, "trailing payload bytes");
}

TEST(StorageFuzzCrafted, Doc2RejectsNonzeroAlignmentPadding) {
  // DOC2's padding bytes are part of the checksummed payload, so they
  // must be byte-deterministic: a nonzero pad is corruption. Craft the
  // baseline and scribble on the padding after the final blob (the
  // 3-byte "xyz" blob leaves exactly one pad byte at the end of the
  // payload).
  std::string image = CraftDoc2Image(Doc2Knobs{});
  auto sections = LoadSectionsFromBytes(image);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->sections.size(), 1u);
  std::string payload(sections->sections[0].bytes);
  ASSERT_EQ(payload.size() % 4, 0u);
  ASSERT_EQ(payload.back(), '\0');
  payload.back() = 'x';
  auto tampered =
      SaveSectionsToBytes({ImageSection{kDocumentSectionId, payload}});
  ASSERT_TRUE(tampered.ok());
  ExpectCorruptionCaught(*tampered, "nonzero alignment pad");
}

TEST(StorageFuzzCrafted, BadSectionLengths) {
  // Patch the document entry's size in the trailing directory and
  // re-stamp the directory checksum, so the size framing itself — not
  // a checksum — has to catch the lie. Directory entry 0 is the DOC2
  // section: u32 count, then u32 id | u64 offset | u64 size | u64 sum.
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  auto bytes = text::SaveStoreToBytes(doc, &*index);
  ASSERT_TRUE(bytes.ok());
  uint64_t dir_offset;
  std::memcpy(&dir_offset, bytes->data() + 8, 8);
  const size_t count_at = static_cast<size_t>(dir_offset);
  const size_t offset_at = count_at + 8;
  const size_t size_at = count_at + 16;
  const size_t sum_at = count_at + 24;
  uint32_t section_count;
  std::memcpy(&section_count, bytes->data() + count_at, 4);
  ASSERT_EQ(section_count, 2u);  // DOC2, TIDX
  const size_t dir_sum_at = count_at + 4 + 28 * section_count;
  uint64_t offset;
  uint64_t size;
  std::memcpy(&offset, bytes->data() + offset_at, 8);
  std::memcpy(&size, bytes->data() + size_at, 8);
  const uint64_t room = dir_offset - offset;  // the most that still fits

  // `new_size` overwrites the entry; `restamp_section` also recomputes
  // the entry's payload checksum over the new range, leaving only the
  // DOC2 decoder's own framing to object.
  auto patched = [&](uint64_t new_size, bool restamp_section) {
    std::string corrupt = *bytes;
    std::memcpy(corrupt.data() + size_at, &new_size, 8);
    if (restamp_section) {
      uint64_t sum = LaneChecksum(std::string_view(corrupt).substr(
          static_cast<size_t>(offset), static_cast<size_t>(new_size)));
      std::memcpy(corrupt.data() + sum_at, &sum, 8);
    }
    uint64_t dir_sum = LaneChecksum(std::string_view(corrupt).substr(
        count_at, dir_sum_at - count_at));
    std::memcpy(corrupt.data() + dir_sum_at, &dir_sum, 8);
    return corrupt;
  };
  auto expect_error = [](const std::string& corrupt, const char* needle,
                         const char* what) {
    auto loaded = LoadFromBytes(corrupt);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << what << ": " << loaded.status();
    auto store = text::LoadStoreFromBytes(corrupt);
    ASSERT_FALSE(store.ok()) << what;
    EXPECT_EQ(store.status().ToString(), loaded.status().ToString())
        << what;
  };

  // The untouched re-stamp loads: the patching itself is sound.
  ASSERT_TRUE(LoadFromBytes(patched(size, false)).ok());
  // Sizes that run past the directory trip the overrun check.
  expect_error(patched(room + 1, false), "section overruns", "room + 1");
  expect_error(patched(size + 1000000, false), "section overruns",
               "grown by 1e6");
  expect_error(patched(size - 1000000, false), "section overruns",
               "shrunk by 1e6 (wraps)");
  // Sizes that stay in bounds change the checksummed range.
  expect_error(patched(size - 1, false), "checksum mismatch", "shrunk by 1");
  expect_error(patched(size + 1, false), "checksum mismatch", "grown by 1");
  expect_error(patched(room, false), "checksum mismatch", "up to the dir");
  // With the entry checksum re-stamped too, the DOC2 decoder sees a
  // payload one byte short or one byte long.
  expect_error(patched(size - 1, true), "truncated payload",
               "shrunk by 1, re-stamped");
  expect_error(patched(size + 1, true), "trailing bytes",
               "grown by 1, re-stamped");
}

TEST(StorageFuzzCrafted, WithIndexSectionFlipsNeverCrash) {
  // With a TIDX section aboard, a flip can land in the section id and
  // legally degrade the image to doc-only (unknown sections are
  // skipped by design). So: never crash, and when the load succeeds
  // the document — and the index, if still recognized — are intact.
  StoredDocument doc = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(doc);
  ASSERT_TRUE(index.ok());
  auto bytes = text::SaveStoreToBytes(doc, &*index);
  ASSERT_TRUE(bytes.ok());

  for (size_t at = 0; at < bytes->size(); ++at) {
    std::string corrupt = *bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    auto store = text::LoadStoreFromBytes(corrupt);
    if (store.ok()) {
      EXPECT_TRUE(store->doc.finalized());
      EXPECT_EQ(store->doc.node_count(), doc.node_count());
      if (store->index.has_value()) {
        EXPECT_EQ(store->index->posting_count(), index->posting_count());
      }
    }
  }
}

// --- Catalog (CTLG) images --------------------------------------------

std::string CatalogImage() {
  store::Catalog catalog;
  StoredDocument first = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(first);
  EXPECT_TRUE(index.ok());
  EXPECT_TRUE(
      catalog.Add("paper", std::move(first), std::move(*index)).ok());
  EXPECT_TRUE(
      catalog.Add("tiny", MustShred("<a><b>x</b><b>y</b></a>")).ok());
  auto bytes = catalog.SaveToBytes();
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return *bytes;
}

TEST(CatalogFuzz, EveryTruncationFails) {
  std::string bytes = CatalogImage();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto loaded =
        store::Catalog::LoadFromBytes(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(CatalogFuzz, ByteFlipsNeverCrashAndPreserveEntries) {
  // A flip in any *covered* byte of a catalog image fails cleanly: the
  // header is fenced, the directory and every CTLG/DOC2/TIDX payload
  // are checksummed. Minor-7 images align payloads to 4 bytes,
  // so the pad bytes between sections are dead space no checksum
  // covers — a flip there must load the whole catalog intact.
  std::string bytes = CatalogImage();
  auto image = LoadSectionsFromBytes(bytes);
  ASSERT_TRUE(image.ok()) << image.status();
  ASSERT_NE(image->dir_offset, 0u);  // default save is minor 7
  std::vector<bool> covered(bytes.size(), false);
  for (size_t at = 0; at < 16; ++at) covered[at] = true;  // header fence
  for (const SectionView& section : image->sections) {
    for (uint64_t at = section.offset;
         at < section.offset + section.bytes.size(); ++at) {
      covered[at] = true;
    }
  }
  for (size_t at = image->dir_offset; at < bytes.size(); ++at) {
    covered[at] = true;
  }
  for (uint8_t mask : {0x01, 0x40, 0xff}) {
    for (size_t at = 0; at < bytes.size(); ++at) {
      std::string corrupt = bytes;
      corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
      auto loaded = store::Catalog::LoadFromBytes(corrupt);
      EXPECT_EQ(loaded.ok(), !covered[at])
          << "flip mask " << int(mask) << " at " << at;
      if (loaded.ok()) {
        ASSERT_EQ(loaded->size(), 2u);
        EXPECT_NE(loaded->Find("paper"), nullptr);
        EXPECT_NE(loaded->Find("tiny"), nullptr);
      }
    }
  }
}

TEST(CatalogFuzz, PseudoRandomMutationsNeverCrash) {
  std::string bytes = CatalogImage();
  uint64_t state = 0x243f6a8885a308d3ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int round = 0; round < 500; ++round) {
    std::string corrupt = bytes;
    size_t edits = 1 + next() % 8;
    for (size_t e = 0; e < edits; ++e) {
      corrupt[next() % corrupt.size()] = static_cast<char>(next() & 0xff);
    }
    auto loaded = store::Catalog::LoadFromBytes(corrupt);
    if (loaded.ok()) {
      for (const store::NamedDocument* entry : loaded->entries()) {
        EXPECT_TRUE(entry->doc.finalized());
      }
    }
  }
}

TEST(CatalogFuzz, DanglingSectionsAreRejected) {
  // An unreferenced DOC2 (or TIDX) alongside a CTLG directory is
  // writer corruption, not forward compatibility; the loader must say
  // so instead of silently dropping a document.
  store::Catalog catalog;
  EXPECT_TRUE(catalog.Add("only", MustShred("<a><b>x</b></a>")).ok());
  auto image = catalog.SaveToBytes();
  ASSERT_TRUE(image.ok());
  auto sections = LoadSectionsFromBytes(*image);
  ASSERT_TRUE(sections.ok());
  std::vector<ImageSection> tampered;
  for (const SectionView& section : sections->sections) {
    tampered.push_back(
        ImageSection{section.id, std::string(section.bytes)});
  }
  tampered.push_back(tampered.back());  // duplicate the DOC2 section
  auto rewritten = SaveSectionsToBytes(tampered);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_FALSE(store::Catalog::LoadFromBytes(*rewritten).ok());
}

// --- Node-column corruptions derivation depends on --------------------
//
// Finalize() derives the children CSR and the per-path edge BATs from
// the parent and path columns, so those columns are checked in every
// load mode before anything is derived. Each case keeps every checksum
// valid (the crafted DOC2 payload is framed and summed by the real
// container writer), so the node-column checks are the only defense.
// Unlike a bad string column, these must fail the decode itself —
// eagerly and with validation deferred, in copy and in view mode, and
// on a lazy catalog entry's first touch: no navigable document is ever
// handed out over them.

void ExpectRejectedAtDecode(const Doc2Knobs& knobs, const char* what) {
  std::string image = CraftDoc2Image(knobs);
  auto sections = LoadSectionsFromBytes(image);
  ASSERT_TRUE(sections.ok()) << what << ": " << sections.status();
  util::ByteWriter directory;
  directory.U8(3);  // CTLG codec version
  directory.Varint(1);
  directory.Varint(1);
  directory.Varint(0);
  directory.StrVarint("crafted");
  directory.Varint(1);  // doc section position
  directory.Varint(0);  // no index
  auto catalog_image = SaveSectionsToBytes(
      {ImageSection{kCatalogSectionId, directory.Take()},
       ImageSection{kDocumentSectionId,
                    std::string(sections->sections[0].bytes)}});
  ASSERT_TRUE(catalog_image.ok()) << catalog_image.status();
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kView}) {
    for (bool defer : {false, true}) {
      LoadOptions options;
      options.mode = mode;
      options.defer_validation = defer;
      auto loaded = LoadFromBytes(image, options);
      ASSERT_FALSE(loaded.ok())
          << what << " (view=" << (mode == LoadMode::kView)
          << ", deferred=" << defer << ")";
      EXPECT_EQ(loaded.status().message().rfind("corrupt image", 0), 0u)
          << what << ": " << loaded.status();
    }
    store::CatalogLoadOptions lazy;
    lazy.mode = mode;
    lazy.lazy = true;
    auto opened = store::Catalog::LoadFromBytes(*catalog_image, lazy);
    ASSERT_TRUE(opened.ok()) << what << ": " << opened.status();
    EXPECT_FALSE(opened->Get("crafted").ok())
        << what << " (lazy, view=" << (mode == LoadMode::kView) << ")";
  }
}

TEST(StorageFuzzCrafted, DerivationRejectsBadNodeColumnsInEveryMode) {
  // The baseline decodes on every path above, so each rejection below
  // is the corruption's doing.
  std::string baseline = CraftDoc2Image(Doc2Knobs{});
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kView}) {
    for (bool defer : {false, true}) {
      LoadOptions options;
      options.mode = mode;
      options.defer_validation = defer;
      auto loaded = LoadFromBytes(baseline, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(loaded->EdgesAt(1).size(), 1u);
    }
  }
  {
    Doc2Knobs knobs;  // a parent at its own OID
    knobs.parents = {0xffffffffu, 1};
    ExpectRejectedAtDecode(knobs, "parent at own OID");
  }
  {
    Doc2Knobs knobs;  // a parent after its own OID, within the document
    knobs.parents = {0xffffffffu, 2, 0};
    knobs.node_paths = {0, 1, 1};
    knobs.ranks = {0, 0, 1};
    ExpectRejectedAtDecode(knobs, "parent after own OID");
  }
  {
    Doc2Knobs knobs;  // a parent past the last OID
    knobs.parents = {0xffffffffu, 7};
    ExpectRejectedAtDecode(knobs, "parent past the end");
  }
  {
    Doc2Knobs knobs;  // a path id beyond the path summary
    knobs.node_paths = {0, 2};
    ExpectRejectedAtDecode(knobs, "path id out of range");
  }
  {
    Doc2Knobs knobs;  // a second parentless node
    knobs.parents = {0xffffffffu, 0xffffffffu};
    ExpectRejectedAtDecode(knobs, "second parentless node");
  }
}

// --- Appended (in-place) catalog images -------------------------------
//
// An in-place save appends the changed sections plus a fresh directory
// and then patches the 8-byte directory pointer in the header; the old
// directory and any superseded sections stay behind as dead space. The
// fuzz contract: live bytes are never rewritten, a torn append is
// recoverable by restoring the old pointer, and the dead bytes are the
// only place a flip may land silently.

struct AppendedImage {
  std::string before;  // full-rewrite image: paper + tiny
  std::string after;   // the same file after one in-place append
};

AppendedImage MakeAppendedImage() {
  // Every test gets its own file: the suites run in parallel under
  // ctest -j.
  TempFile file("fuzz_append.mxm");
  const std::string& path = file.path();
  store::Catalog catalog;
  StoredDocument paper = MustShred(data::PaperExampleXml());
  auto index = text::InvertedIndex::Build(paper);
  EXPECT_TRUE(index.ok());
  EXPECT_TRUE(
      catalog.Add("paper", std::move(paper), std::move(*index)).ok());
  EXPECT_TRUE(
      catalog.Add("tiny", MustShred("<a><b>x</b><b>y</b></a>")).ok());
  EXPECT_TRUE(catalog.SaveToFile(path).ok());
  AppendedImage out;
  auto before = util::ReadFileToString(path);
  EXPECT_TRUE(before.ok()) << before.status();
  out.before = *before;

  EXPECT_TRUE(catalog.Add("extra", MustShred("<z><w>q</w></z>")).ok());
  store::CatalogSaveStats stats;
  store::CatalogSaveOptions save;
  save.in_place = true;
  save.stats = &stats;
  EXPECT_TRUE(catalog.SaveToFile(path, save).ok());
  EXPECT_TRUE(stats.in_place);  // the scenario must actually append
  auto after = util::ReadFileToString(path);
  EXPECT_TRUE(after.ok()) << after.status();
  out.after = *after;
  return out;
}

TEST(CatalogFuzzAppended, AppendNeverRewritesLiveBytes) {
  AppendedImage image = MakeAppendedImage();
  ASSERT_GT(image.after.size(), image.before.size());
  // Only the header's directory pointer changes; everything the old
  // image owned — old directory included — survives byte-identical.
  EXPECT_EQ(image.after.substr(0, 8), image.before.substr(0, 8));
  EXPECT_EQ(image.after.substr(16, image.before.size() - 16),
            image.before.substr(16));

  auto loaded = store::Catalog::LoadFromBytes(image.after);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_NE(loaded->Find("paper"), nullptr);
  EXPECT_NE(loaded->Find("tiny"), nullptr);
  EXPECT_NE(loaded->Find("extra"), nullptr);
}

TEST(CatalogFuzzAppended, StaleDirectoryRestoresPreAppendCatalog) {
  // A crash between the appended-data fsync and the pointer patch
  // leaves the old pointer in place — exactly this image. It must load
  // the pre-append catalog intact, trailing bytes and all.
  AppendedImage image = MakeAppendedImage();
  std::string torn = image.after;
  torn.replace(8, 8, image.before, 8, 8);
  auto loaded = store::Catalog::LoadFromBytes(torn);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_NE(loaded->Find("paper"), nullptr);
  EXPECT_NE(loaded->Find("tiny"), nullptr);
  EXPECT_EQ(loaded->Find("extra"), nullptr);
}

TEST(CatalogFuzzAppended, EveryTruncationFails) {
  // The patched pointer names the appended directory, so any cut —
  // including cuts that leave the whole pre-append image — must fail:
  // the pointer now dangles past the end.
  AppendedImage image = MakeAppendedImage();
  for (size_t cut = 0; cut < image.after.size(); ++cut) {
    auto loaded = store::Catalog::LoadFromBytes(
        std::string_view(image.after).substr(0, cut));
    EXPECT_FALSE(loaded.ok())
        << "cut at " << cut << " of " << image.after.size();
  }
}

TEST(CatalogFuzzAppended, GarbageDirectoryPointerFailsCleanly) {
  AppendedImage image = MakeAppendedImage();
  for (uint64_t garbage :
       {uint64_t{0}, uint64_t{7}, uint64_t{15},
        static_cast<uint64_t>(image.after.size()),
        static_cast<uint64_t>(image.after.size()) - 1,
        ~uint64_t{0} / 2}) {
    std::string corrupt = image.after;
    for (int i = 0; i < 8; ++i) {
      corrupt[8 + i] = static_cast<char>((garbage >> (8 * i)) & 0xff);
    }
    EXPECT_FALSE(store::Catalog::LoadFromBytes(corrupt).ok())
        << "dir_offset " << garbage;
  }
}

TEST(CatalogFuzzAppended, ByteFlipsRespectChecksumCoverage) {
  // Same contract as the fresh-image sweep, on the appended layout:
  // a flip in any covered byte fails cleanly; a flip in dead space
  // (the superseded directory and CTLG payload, alignment pads) loads
  // the post-append catalog fully intact.
  AppendedImage image = MakeAppendedImage();
  const std::string& bytes = image.after;
  auto sections = LoadSectionsFromBytes(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_NE(sections->dir_offset, 0u);
  std::vector<bool> covered(bytes.size(), false);
  for (size_t at = 0; at < 16; ++at) covered[at] = true;
  for (const SectionView& section : sections->sections) {
    for (uint64_t at = section.offset;
         at < section.offset + section.bytes.size(); ++at) {
      covered[at] = true;
    }
  }
  for (size_t at = sections->dir_offset; at < bytes.size(); ++at) {
    covered[at] = true;
  }
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    auto loaded = store::Catalog::LoadFromBytes(corrupt);
    EXPECT_EQ(loaded.ok(), !covered[at]) << "flip at " << at;
    if (loaded.ok()) {
      EXPECT_EQ(loaded->size(), 3u);
      EXPECT_NE(loaded->Find("extra"), nullptr);
    }
  }
}

}  // namespace
}  // namespace model
}  // namespace meetxml
