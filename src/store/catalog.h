// Multi-document store catalog: many named documents, one image.
//
// The paper's DBLP case study (§5) runs nearest-concept queries over a
// *collection* of bibliographic documents, and §4 combines the meet
// with full-text search to find a concept from one bibliography inside
// another. Until now the persistence layer could hold exactly one
// StoredDocument per image, so every multi-corpus workload re-shredded
// its XML on start-up. The catalog closes that gap: it manages a set
// of named documents (add/remove/rename/get, stable document ids) and
// persists all of them — each with its optional full-text index — in a
// single image (model/storage_io.h's one layout).
//
// Image layout:
//   CTLG section: the catalog directory (codec below)
//   per document, its DOC2 section and, when an index exists, one TIDX
//   section (text/index_io.h payload); the derived structures are
//   rebuilt at decode (model/storage_io.h), never stored
//
// Zero-copy open: CatalogLoadOptions::mode == kView decodes every
// document as a view-backed document borrowing straight from the
// image bytes (model/storage_io.h's lifetime contract).
// Catalog::LoadFromFile pins the shared file mapping into each
// borrowing document, so the catalog keeps the mapping alive for
// exactly as long as any of its documents needs it — including across
// a SaveToFile to a different path, and across SaveToFile to the
// *same* path (saves are atomic temp-file + rename; the borrowers
// keep the old inode's mapping).
//
// CTLG payload (little-endian, varints are LEB128):
//   u8 codec version (3; version 2 also named a DRV1 section per entry)
//   varint next_doc_id
//   varint entry count, then per entry in ascending id order:
//     varint doc id | name (varint length + bytes)
//     varint doc section index (position in the image directory)
//     varint index section index + 1 (0 = the document has no TIDX)
// Every DOC2/TIDX section must be referenced by exactly one entry;
// dangling or doubly-referenced sections are rejected.
// Single-document images written by model/storage_io.h (no CTLG
// section) load as a one-entry catalog named after the document's
// root tag.
//
// Loading decodes the per-document sections in parallel on a thread
// pool (the checksummed sections are independent by construction), so
// a multi-document store opens in roughly the time of its largest
// document; CatalogLoadOptions::threads pins the pool size and the
// first failing entry, in directory order, wins error reporting.
//
// Lazy open (CatalogLoadOptions::lazy): the open verifies only the
// image framing and the CTLG section's checksum, then parks every
// entry as an undecoded pending record — open time is O(directory),
// independent of corpus size. An entry's sections are
// checksum-verified and decoded on first touch (Get / ExecutorFor /
// EnsureIndex / Save), under the entry's lazy mutex; deep structural
// validation is latched once per document behind
// StoredDocument::EnsureValidated, which Get and Executor::Build run
// before handing anything out. A corrupt entry therefore fails at its
// checksum gate or its first validation, never later, and never takes
// the other entries down. Warm() forces everything eagerly.
//
// Incremental save (CatalogSaveOptions::in_place): when the catalog
// still sits on the image file it was loaded from, SaveToFile
// appends only the sections that changed (plus a fresh CTLG and
// directory) and repoints the header's directory offset — a
// single-word commit, crash-safe on both sides. Superseded sections
// become dead space; once dead bytes would exceed compact_threshold
// of the projected file, the save falls back to a full atomic
// rewrite.

#ifndef MEETXML_STORE_CATALOG_H_
#define MEETXML_STORE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/document.h"
#include "model/storage_io.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "text/inverted_index.h"
#include "util/result.h"

namespace meetxml {
namespace store {

/// \brief Per-load observability: how long each document's sections
/// took to decode and what they cost in copied or viewed bytes. Filled
/// when a
/// CatalogLoadOptions::stats pointer is supplied (the query shell's
/// `\open` report).
struct CatalogLoadStats {
  struct DocumentStats {
    std::string name;
    /// Wall time decoding this document's sections (document + index),
    /// measured on the decoding worker.
    double decode_ms = 0;
    /// True when a persisted TIDX section was decoded alongside.
    bool indexed = false;
    /// What actually happened to this document's columns: kView for
    /// documents decoded under CatalogLoadOptions::mode == kView;
    /// everything else copies.
    model::LoadMode mode = model::LoadMode::kCopy;
    /// Image bytes memcpy'd into owned columns (near zero on the
    /// zero-copy path) vs. borrowed as views over the mapping.
    uint64_t bytes_copied = 0;
    uint64_t bytes_viewed = 0;
  };
  std::vector<DocumentStats> documents;
  /// End-to-end LoadFromBytes wall time.
  double total_ms = 0;
  /// Decode workers actually used (1 for single-document images and
  /// serial loads).
  unsigned threads_used = 1;
  /// Entries a lazy open left undecoded (0 for eager loads).
  size_t deferred_documents = 0;
  /// Section checksums verified during the open itself.
  size_t sections_verified = 0;
  /// Section checksums deferred to first touch.
  size_t sections_deferred = 0;
};

/// \brief Knobs for Catalog::LoadFromBytes / LoadFromFile.
struct CatalogLoadOptions {
  /// Decode workers; 0 means std::thread::hardware_concurrency(),
  /// 1 pins the serial path.
  unsigned threads = 0;
  /// When non-null, receives per-document decode timings.
  CatalogLoadStats* stats = nullptr;
  /// kView borrows the columns from the image instead of copying
  /// them (model/storage_io.h's lifetime contract). LoadFromFile pins
  /// the file mapping automatically; byte-level view loads either set
  /// `backing` or leave the caller responsible for the bytes'
  /// lifetime.
  model::LoadMode mode = model::LoadMode::kCopy;
  /// Optional keep-alive pinned into every view-backed document.
  std::shared_ptr<const void> backing;
  /// Defers per-entry checksum verification and decoding to first
  /// touch: the open validates only the image framing and the CTLG
  /// section, so it costs O(directory) regardless of corpus size.
  /// LoadFromFile keeps the file mapping pinned for the pending
  /// entries; a lazy LoadFromBytes requires `backing` (or the caller
  /// keeping `bytes` alive for the catalog's lifetime). Ignored for
  /// single-document images without a CTLG section, which decode
  /// eagerly.
  bool lazy = false;
  /// Graceful degradation for eager opens: an entry whose sections fail
  /// their checksum or decode is *quarantined* — parked behind a sticky
  /// per-entry error (every Get / ExecutorFor on it reports the same
  /// quarantine status) instead of failing the whole open, and counted
  /// in meetxml_catalog_quarantined. Image framing and the CTLG
  /// directory are still validated strictly; corruption there fails
  /// the open as before. Quarantined entries carry no placements, so
  /// saving a catalog that still holds one errors loudly rather than
  /// silently re-persisting bytes nobody could read. Lazy opens already
  /// degrade per entry and ignore this flag.
  bool quarantine_corrupt = false;
};

/// \brief Per-save observability for Catalog::SaveToFile.
struct CatalogSaveStats {
  /// True when the save appended to the existing image instead of
  /// rewriting it.
  bool in_place = false;
  /// True when an in-place save was requested but dead space tripped
  /// the compaction threshold, forcing the full rewrite.
  bool compacted = false;
  uint64_t bytes_appended = 0;
  uint64_t file_size = 0;
  /// Superseded bytes the image still carries (0 after a rewrite).
  uint64_t dead_bytes = 0;
  size_t sections_appended = 0;
  size_t sections_kept = 0;
};

/// \brief Knobs for Catalog::SaveToFile.
struct CatalogSaveOptions {
  /// Append changed sections to the existing image (loaded
  /// from or last saved to the same path) instead of rewriting it;
  /// silently falls back to the full rewrite when the image does not
  /// qualify.
  bool in_place = false;
  /// In-place saves fall back to a full rewrite once dead bytes would
  /// exceed this fraction of the projected file size.
  double compact_threshold = 0.5;
  /// When non-null, receives what the save actually did.
  CatalogSaveStats* stats = nullptr;
};

/// \brief Where an entry's sections sit in the origin image file —
/// the incremental writer's keep-list.
struct SectionPlacements {
  std::optional<model::SectionPlacement> doc;
  std::optional<model::SectionPlacement> index;
};

/// \brief Stable identifier of a catalog document. Ids are assigned
/// once at Add and survive save/load, rename and the removal of other
/// documents; they are never reused.
using DocId = uint32_t;
inline constexpr DocId kInvalidDocId = 0xffffffffu;

/// \brief One named document of the catalog.
struct NamedDocument {
  NamedDocument();
  ~NamedDocument();
  NamedDocument(const NamedDocument&) = delete;
  NamedDocument& operator=(const NamedDocument&) = delete;

  DocId id = kInvalidDocId;
  std::string name;
  /// The decoded document. Under a lazy open this is empty until the
  /// entry's first touch — go through Catalog::Get / ExecutorFor,
  /// which materialize (and validate) it, rather than reading the
  /// field of a possibly-pending entry directly. Mutable because
  /// materialization is logically const, guarded by `lazy_mu` and
  /// published through `materialized`.
  mutable model::StoredDocument doc;
  /// Full-text index handed to Add / loaded from the image; moved into
  /// the executor on first ExecutorFor (retrieve it back through
  /// Executor::text_index()). Mutable (with `executor`) because the
  /// lazy executor build is logically const: guarded by `lazy_mu`.
  mutable std::optional<text::InvertedIndex> index;
  /// Lazily built per-document executor, cached across queries.
  mutable std::unique_ptr<query::Executor> executor;
  /// Serializes the lazy build so concurrent readers (the meetxmld
  /// worker pool) race safely to one executor per document. Behind a
  /// unique_ptr to keep the entry movable.
  std::unique_ptr<std::mutex> lazy_mu = std::make_unique<std::mutex>();
  /// Undecoded lazy-open state (internals live in catalog.cc); null
  /// once the entry is materialized. Guarded by `lazy_mu`.
  struct PendingDecode;
  mutable std::unique_ptr<PendingDecode> pending;
  /// Lock-free fast-path flag for the pending check: true when `doc`
  /// is safe to read (release-published by the materializing thread).
  mutable std::atomic<bool> materialized{true};
  /// This entry's sections in the origin image; the in-place save
  /// keeps sections with a placement verbatim and appends the rest.
  mutable SectionPlacements placed;
};

/// \brief A set of named documents behind one store image.
///
/// Entries live behind stable pointers: Add/Remove/Rename of one
/// document never invalidates another entry's document or executor.
/// Not thread-safe for mutation (Add/Remove/Rename/EnsureIndex/Save
/// need external synchronization against everything else), but the
/// whole read path is: Find/Get/MatchNames/ExecutorFor and query
/// execution through the returned executors may run from any number
/// of threads at once — ExecutorFor's lazy build is per-entry
/// mutex-guarded, and query::Executor::Execute is const with its own
/// race-free lazy text index. Warm() pre-builds everything so serving
/// threads never even contend on the lazy path.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// \brief Adds a finalized document under a unique, non-empty name.
  /// Names must not contain the glob metacharacters '*' and '?', which
  /// are reserved for scope patterns (multi_executor.h).
  util::Result<DocId> Add(std::string name, model::StoredDocument doc);

  /// \brief Adds a document along with its pre-built full-text index
  /// (validated against the document).
  util::Result<DocId> Add(std::string name, model::StoredDocument doc,
                          text::InvertedIndex index);

  /// \brief Removes a document; its id is retired, never reused.
  util::Status Remove(std::string_view name);

  /// \brief Renames a document; the id is unchanged.
  util::Status Rename(std::string_view from, std::string to);

  /// \brief The entry with this name; nullptr when absent.
  const NamedDocument* Find(std::string_view name) const;
  /// \brief The entry with this id; nullptr when absent.
  const NamedDocument* FindById(DocId id) const;

  /// \brief The document behind `name`, as an error-carrying lookup.
  /// Materializes a lazily-opened entry (checksum gate + decode) and
  /// runs its once-latched deep validation, so the returned document
  /// is always safe to traverse; corrupt entries surface here.
  util::Result<const model::StoredDocument*> Get(
      std::string_view name) const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// \brief Every entry in ascending id (== insertion) order.
  std::vector<const NamedDocument*> entries() const;

  /// \brief Names matching a glob scope (util::GlobMatch), in ascending
  /// id order. "*" selects everything.
  std::vector<std::string> MatchNames(std::string_view glob) const;

  /// \brief The cached executor for one document, built on first use —
  /// around the persisted index when the entry has one, lazily
  /// index-building otherwise. Logically const and safe to call
  /// concurrently: racing callers serialize on the entry's build mutex
  /// and all observe the same executor.
  util::Result<const query::Executor*> ExecutorFor(
      std::string_view name) const;

  /// \brief ExecutorFor with per-query attribution: first-touch decode
  /// time lands on Stage::kDecode and executor/index construction on
  /// Stage::kIndexBuild, measured on the trace's injected clock. Either
  /// pointer may be null; a warm entry records nothing (no clock reads).
  util::Result<const query::Executor*> ExecutorFor(
      std::string_view name, obs::QueryTrace* trace,
      obs::DocTrace* doc_trace) const;

  /// \brief Pre-builds every document's executor — and, when
  /// `build_text_indexes`, its full-text engine — in parallel
  /// (util::ResolveThreads(threads) workers), so a serving catalog
  /// pays no lazy-build latency or lock contention on first queries.
  util::Status Warm(bool build_text_indexes = false,
                    unsigned threads = 0) const;

  /// \brief Builds (and caches) the full-text index of one document so
  /// the next Save persists it. No-op when an index already exists,
  /// either on the entry or inside its executor.
  util::Status EnsureIndex(std::string_view name);

  /// \brief Serializes the whole catalog into one image. Documents
  /// whose index exists (persisted, EnsureIndex'd, or lazily built by
  /// an executor) carry a TIDX section; the rest rebuild lazily after
  /// load. View-backed documents serialize fine (reads never promote),
  /// and pending entries are materialized first.
  util::Result<std::string> SaveToBytes() const;

  /// \brief Loads a catalog image — or a single-document image
  /// (model::SaveToBytes, text::SaveStoreToBytes), which becomes a
  /// one-entry catalog named after its root tag. Per-document sections
  /// decode in parallel (first error in directory order wins); see
  /// CatalogLoadOptions.
  static util::Result<Catalog> LoadFromBytes(
      std::string_view bytes, const CatalogLoadOptions& options = {});

  /// \brief File variants; loading decodes from a memory-mapped image
  /// (pinned into the documents in view mode), saving is atomic
  /// (temp file + rename), so saving over the image a view-backed
  /// catalog was loaded from is safe.
  util::Status SaveToFile(const std::string& path) const;
  /// \brief SaveToFile with knobs: the in-place append mode and its
  /// compaction threshold (see CatalogSaveOptions).
  util::Status SaveToFile(const std::string& path,
                          const CatalogSaveOptions& options) const;
  static util::Result<Catalog> LoadFromFile(
      const std::string& path, const CatalogLoadOptions& options = {});

 private:
  NamedDocument* FindMutable(std::string_view name);

  /// First-touch gate for a lazily-opened entry: verifies the entry's
  /// section checksums and decodes it (validation stays deferred to
  /// StoredDocument::EnsureValidated). Sticky on failure. The Locked
  /// variant assumes the entry's lazy_mu is held.
  util::Status Materialize(const NamedDocument* entry) const;
  util::Status MaterializeLocked(const NamedDocument* entry) const;

  /// Per entry, the image directory positions of its sections
  /// (index_at is SIZE_MAX when the entry has no TIDX).
  struct EntrySectionMap {
    size_t doc_at = SIZE_MAX;
    size_t index_at = SIZE_MAX;
  };
  /// The next image's section list, shared by both writers: the CTLG
  /// directory, then per entry its DOC2 and optional TIDX sections —
  /// kept at their origin-image placement when
  /// `keep_placed` and the entry has one, serialized otherwise (the
  /// entry must then be materialized). Fills `mapping` per entry.
  util::Result<std::vector<model::PendingSection>> PlanSections(
      bool keep_placed, std::vector<EntrySectionMap>* mapping) const;
  /// Shared writer for SaveToBytes and the full-rewrite save path:
  /// materializes every entry and serializes PlanSections' plan.
  util::Result<std::string> SerializeImage(
      std::vector<EntrySectionMap>* mapping) const;

  /// Attempts the in-place append; returns false when the image does
  /// not qualify (another path, a pending entry without placements) or
  /// compaction is due, in which case the caller runs the full
  /// rewrite.
  util::Result<bool> TrySaveInPlace(const std::string& path,
                                    const CatalogSaveOptions& options) const;

  /// The file image this catalog's placements refer to; reset whenever
  /// the catalog is saved elsewhere.
  struct OriginImage {
    std::string path;
    uint64_t file_size = 0;
    uint64_t dir_offset = 0;
  };
  mutable std::optional<OriginImage> origin_;

  // unique_ptr keeps entry addresses stable across vector growth, so
  // executors (which point at their documents) survive Add/Remove of
  // sibling entries.
  std::vector<std::unique_ptr<NamedDocument>> entries_;
  DocId next_id_ = 0;
};

}  // namespace store
}  // namespace meetxml

#endif  // MEETXML_STORE_CATALOG_H_
