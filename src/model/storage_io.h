// Binary persistence of a StoredDocument.
//
// The paper's case study bulk-loads DBLP once and queries it
// interactively ever after; a production deployment needs the loaded
// form to survive restarts without re-parsing hundreds of megabytes of
// XML. This module serializes the Monet transform — path summary,
// per-OID columns and per-path string relations — into a compact,
// versioned, checksummed binary image. Loading an image is a straight
// column read (no XML parsing, no re-interning) followed by
// StoredDocument::Finalize(), which derives the children CSR and the
// per-path edge BATs from the parent/path columns exactly as the
// shredder does: each relation is stored once, never twice. An image
// is a set of independently checksummed sections, so costlier
// derived structures (the full-text indexes of text/index_io.h)
// persist alongside the document and reload without a rebuild.
//
// Versioning policy
// -----------------
// There is one on-disk layout, and a reader opens nothing else:
//  * The image starts with the magic "MXM2" and the u32 minor revision
//    7. Every other magic that starts with "MXM" (the retired first
//    major) and every other MXM2 minor (the retired front-directory
//    minors 2-5, and minor 6, which also stored the derived structures
//    in a DRV1 section) fails at this check with "unsupported storage
//    version", before any payload is read. Any other magic is "not a
//    meetxml storage image".
//  * Each document is one DOC2 section (the aligned columnar payload),
//    optionally followed by a TIDX section (text/index_io.h). Catalog images
//    (store/catalog.h) add a CTLG section naming each document's
//    sections. Loaders skip section ids they do not recognize (their
//    bytes are surfaced through LoadedImage::extra_sections).
//  * Every section payload and the directory are framed by the
//    trailing directory and checked with a four-lane FNV-1a checksum;
//    loaders verify bounds and checksums before touching a payload
//    (checksum verification can be deferred, never skipped, on the
//    lazy catalog path), and semantic validation (path/OID ranges,
//    parent ordering, string offsets, the append-order permutation)
//    runs on every load, eagerly by default or behind the
//    per-document validation gate
//    (LoadOptions::defer_validation + StoredDocument::EnsureValidated)
//    when deferred. Corrupted or truncated images are rejected, never
//    partially applied (tests/storage_fuzz_test.cc pins this).
//  * The trailing directory is what makes in-place incremental
//    rewrite possible: sections need not tile the file (dead gaps and
//    trailing bytes are legal), so an updater appends replacement
//    sections and a fresh directory, then patches the one header word
//    that points at it. A crash before the patch leaves the old
//    directory authoritative and the old image intact.
//
// Layout (little-endian):
//   magic "MXM2" | u32 minor (7) | u64 dir_offset
//   section payloads, each starting on a 4-byte file offset; gaps
//   between payloads (alignment padding, superseded sections) carry no
//   meaning and no checksum
//   directory, at dir_offset (4-byte aligned): u32 section_count,
//   then per section u32 id | u64 offset | u64 size | u64 checksum,
//   then u64 checksum of the directory bytes so far (from dir_offset
//   up to, not including, this field)
//   Bytes after the directory are legal and ignored — a crashed
//   in-place rewrite leaves appended-but-unreferenced sections there.
// Checksum: FNV-1a steps over 8-byte chunks in four interleaved lanes,
// the lanes folded and the tail absorbed byte-wise — verification runs
// at memory speed, so the container scan never costs more than the
// columnar decode it protects.
// DOC2 document payload (columnar, view-decodable):
//   path summary: u32 count, then per path: u32 parent, u8 kind,
//                 label (u32 length + bytes)
//   zero padding to the next 4-byte payload offset
//   nodes: u32 count, then parent[], path[], rank[] as three raw
//          little-endian u32 arrays of `count` elements each
//   strings: u32 total_count | u32 group_count, then one group per
//            path that owns strings, in first-append order:
//     u32 path | u32 row_count (> 0)
//     owner[]: row_count raw u32 — the owning node of each row
//     seq[]:   row_count raw u32 — the row's position in the global
//              append order; across all groups the seq values form a
//              permutation of [0, total_count), which is what keeps
//              reassembly (per-element attribute order) bit-identical
//     ends[]:  row_count raw u32 — cumulative value end offsets;
//              row r's value is blob[ends[r-1], ends[r])
//     blob: ends[row_count-1] bytes, all values concatenated
//     zero padding to the next 4-byte payload offset
//   Every raw u32 column sits 4-byte aligned within the payload and,
//   because the container aligns payloads, within the file: a
//   view-mode load serves the columns as spans over the mapped image,
//   a copy-mode load memcpys them.
// Nothing derivable is stored: the children CSR, the per-path edge
// BATs (one (parent, node) relation per schema path, §2's Definition
// 4) and the per-relation string sortedness flags are rebuilt from
// these columns by StoredDocument::Finalize() on every load, in the
// order the shredder builds them, so a loaded document re-serializes
// byte-identically.
//
// Zero-copy (view-mode) lifetime contract
// ---------------------------------------
// LoadOptions::mode selects who owns the decoded columns:
//  * kCopy (default): every column is copied out of the image; the
//    image bytes may be released the moment the loader returns.
//  * kView: node columns, string columns and value blobs are borrowed
//    as spans/views over the image bytes — no per-column memcpy
//    happens (the decoder still owns the interned path labels, and
//    Finalize() builds the derived structures in owned memory). The
//    caller must guarantee the image bytes outlive every decoded
//    document. The file loaders do this
//    automatically: they open the file through
//    util::MmapFile::OpenShared and pin the mapping into each decoded
//    document (StoredDocument::PinBacking), so the mapping is
//    released exactly when the last borrowing document is destroyed
//    or promoted via EnsureOwned(). Byte-level loaders pass the
//    ownership burden to the caller unless LoadOptions::backing is
//    set. Mutating a view-backed document (AppendString, column
//    adoption) promotes the touched structures to owned storage
//    first — copy-on-write at column granularity — and never
//    invalidates other borrowers of the same image.
//  * A payload whose base address is not 4-byte aligned (an exotic
//    byte-level caller) silently falls back to copy mode;
//    LoadStats::mode_used reports what actually happened.

#ifndef MEETXML_MODEL_STORAGE_IO_H_
#define MEETXML_MODEL_STORAGE_IO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/document.h"
#include "util/result.h"

namespace meetxml {
namespace model {

/// \brief Builds a section id from its four-character tag.
constexpr uint32_t MakeSectionId(char a, char b, char c, char d) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(a)) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(b)) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(c)) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(d));
}

/// The document section: the aligned columnar DOC2 payload.
inline constexpr uint32_t kDocumentSectionId = MakeSectionId('D', 'O', 'C', '2');
/// Persisted full-text indexes (payload codec: text/index_io.h).
inline constexpr uint32_t kTextIndexSectionId = MakeSectionId('T', 'I', 'D', 'X');
/// Multi-document catalog directory (payload codec: store/catalog.h).
inline constexpr uint32_t kCatalogSectionId = MakeSectionId('C', 'T', 'L', 'G');

/// \brief One named, independently checksummed byte range of an image.
struct ImageSection {
  uint32_t id = 0;
  std::string bytes;
};

/// \brief A borrowed view of one image section (zero-copy: the view
/// aliases the image bytes handed to the loader).
struct SectionView {
  uint32_t id = 0;
  std::string_view bytes;
  /// Byte offset of the payload within its container.
  uint64_t offset = 0;
  /// The directory's checksum claim for this payload. Verified during
  /// the scan unless SectionScanOptions::verify_checksums was off; a
  /// lazy reader then gates first touch on VerifySectionChecksum.
  uint64_t checksum = 0;
};

/// \brief A raw container view: every section in directory order,
/// bounds verified (and checksums, unless deferred), payloads not yet
/// interpreted. Views borrow from the loaded bytes.
struct SectionImage {
  /// File offset of the trailing directory.
  uint64_t dir_offset = 0;
  std::vector<SectionView> sections;
};

/// \brief Where one section's payload lives in a container — the
/// bookkeeping an in-place rewrite carries between saves.
struct SectionPlacement {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// \brief Container-scan knobs (the lazy-open path).
struct SectionScanOptions {
  /// When false, per-section checksums are recorded (SectionView::
  /// checksum) but not verified — the caller promises to call
  /// VerifySectionChecksum on every section before interpreting its
  /// payload. The directory checksum is always verified: the scan
  /// itself never trusts unchecked framing.
  bool verify_checksums = true;
};

/// \brief Serialization knobs.
struct SaveOptions {
  /// Additional sections appended after the DOC2 section.
  std::vector<ImageSection> extra_sections;
};

/// \brief Who owns the decoded columns (see the lifetime contract in
/// the header comment).
enum class LoadMode : uint32_t {
  kCopy = 0,  ///< Columns are copied out of the image (self-contained).
  kView = 1,  ///< Columns borrow from the image bytes (zero-copy).
};

/// \brief Per-load observability for the zero-copy path.
struct LoadStats {
  /// Image bytes memcpy'd into owned column/blob storage. Near zero
  /// for a view-mode load (interned path labels are not image copies
  /// and are not counted).
  uint64_t bytes_copied = 0;
  /// Image bytes served as borrowed views (0 in copy mode).
  uint64_t bytes_viewed = 0;
  /// What actually happened: kView unless the payload base was not
  /// 4-byte aligned, which falls back to kCopy.
  LoadMode mode_used = LoadMode::kCopy;
};

/// \brief Deserialization knobs.
struct LoadOptions {
  LoadMode mode = LoadMode::kCopy;
  /// Optional keep-alive pinned into every view-backed document (the
  /// file loaders put the shared mapping here). Byte-level view-mode
  /// loads without a backing leave the lifetime burden on the caller.
  std::shared_ptr<const void> backing;
  /// Defer the deep O(rows) semantic scans (string owner bounds,
  /// offset monotonicity, the append-order permutation, the document
  /// invariants of model/validate.h) to the document's validation
  /// gate (StoredDocument::EnsureValidated) instead of running them
  /// at decode time. Framing, bounds and the structural node-column
  /// checks still run — a decode never hands out columns it could
  /// not address safely, and Finalize() derives only from checked
  /// node columns — but a corrupt string column may now be detected
  /// at first touch rather than at load. The lazy catalog's
  /// first-touch decode uses this.
  bool defer_validation = false;
  /// When non-null, receives copy/view byte counts for this load.
  LoadStats* stats = nullptr;
};

/// \brief A loaded image: the document plus any sections the document
/// loader itself does not interpret.
struct LoadedImage {
  StoredDocument doc;
  std::vector<ImageSection> extra_sections;
};

/// \brief Serializes a finalized document to a binary image.
util::Result<std::string> SaveToBytes(const StoredDocument& doc,
                                      const SaveOptions& options = {});

// --- Container layer (used by multi-document images) -----------------
//
// The single-document Save/Load functions above are wrappers over this
// raw section API; store/catalog.h uses it directly to write images
// carrying several DOC2/TIDX groups plus a CTLG directory.

/// \brief Writes a container around `sections`, in order. Section ids
/// may repeat — interpreting duplicates is the caller's contract (the
/// single-document writer rejects them earlier).
util::Result<std::string> SaveSectionsToBytes(
    const std::vector<ImageSection>& sections);

/// \brief Parses a container: verifies magic, version, directory
/// framing and per-section checksums, and returns the raw sections
/// without interpreting payloads.
util::Result<SectionImage> LoadSectionsFromBytes(
    std::string_view bytes, const SectionScanOptions& options = {});

/// \brief Verifies one section's payload against the checksum its
/// container directory claimed — the first-touch gate of a lazy open
/// (sections scanned with verify_checksums = false).
util::Status VerifySectionChecksum(const SectionView& section);

/// \brief Encodes one document as a DOC2 section payload (the document
/// must be finalized).
util::Result<std::string> SerializeDocumentSection(const StoredDocument& doc);

/// \brief Decodes a DOC2 section; the result is finalized (Finalize()
/// derives the children CSR, edge BATs and sortedness flags from the
/// decoded columns). Semantic validation (path/OID ranges, parent
/// ordering, string offsets, the append-order permutation) runs here,
/// or on the document's validation gate with
/// options.defer_validation. In view mode the columns borrow from the
/// payload — see the lifetime contract above.
util::Result<StoredDocument> ParseDocumentSection(
    std::string_view payload, const LoadOptions& options = {});

/// \brief Restores a document from a binary image; extra sections are
/// ignored. The result is finalized and ready for queries. Corrupted,
/// truncated or unsupported-version images are rejected (version,
/// bounds and checksums are verified).
util::Result<StoredDocument> LoadFromBytes(std::string_view bytes,
                                           const LoadOptions& options = {});

/// \brief Like LoadFromBytes, but also surfaces the sections the
/// document loader did not consume — e.g. the persisted full-text
/// indexes — for higher layers to interpret.
util::Result<LoadedImage> LoadImageFromBytes(std::string_view bytes,
                                             const LoadOptions& options = {});

/// \brief Saves to a file. The write is atomic: bytes land in a
/// temporary sibling that is renamed over `path`, so a concurrent
/// view-mode borrower of the old image keeps its (old-inode) mapping
/// and readers never observe a torn file.
util::Status SaveToFile(const StoredDocument& doc, const std::string& path,
                        const SaveOptions& options = {});

/// \brief Loads from a file. The image is memory-mapped (util/
/// mmap_file.h) and decoded straight out of the page cache; platforms
/// without mmap fall back to a buffered read. In view mode the
/// mapping is opened shared and pinned into the decoded document
/// (LoadOptions::backing is ignored; the file's own mapping wins).
util::Result<StoredDocument> LoadFromFile(const std::string& path,
                                          const LoadOptions& options = {});

/// \brief Loads from a file (memory-mapped), keeping extra sections.
util::Result<LoadedImage> LoadImageFromFile(const std::string& path,
                                            const LoadOptions& options = {});

// --- Incremental rewrite ----------------------------------------------

/// \brief One section of the next directory an in-place rewrite
/// publishes: either kept where it already lives (`keep` set, no bytes
/// written) or appended fresh from `bytes`.
struct PendingSection {
  uint32_t id = 0;
  /// Reuse this placement from the current image (id must match).
  std::optional<SectionPlacement> keep;
  /// Payload to append when `keep` is empty.
  std::string bytes;
};

/// \brief What an in-place rewrite did.
struct AppendStats {
  /// Final placement of every requested section, in request order.
  std::vector<SectionPlacement> placements;
  uint64_t file_size = 0;      ///< file size after the append
  uint64_t dir_offset = 0;     ///< offset of the newly-published directory
  uint64_t bytes_appended = 0; ///< payload + directory bytes written
};

/// \brief Incrementally rewrites a container in place: appends
/// the non-kept sections and a fresh directory naming exactly
/// `sections`, fsyncs, then patches the header's directory offset —
/// the single-word commit point. A crash anywhere before the patch
/// leaves the previous directory (and image) intact; superseded
/// payloads become dead space until a full rewrite compacts them.
/// `expected_size`/`expected_dir_offset` fence against concurrent
/// writers: the call refuses to touch a file whose size or header no
/// longer match the image the caller planned against. Readers with a
/// live mapping are unaffected — old sections are never overwritten.
util::Result<AppendStats> AppendSectionsToFile(
    const std::string& path, uint64_t expected_size,
    uint64_t expected_dir_offset,
    const std::vector<PendingSection>& sections);

}  // namespace model
}  // namespace meetxml

#endif  // MEETXML_MODEL_STORAGE_IO_H_
