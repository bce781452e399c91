// StoredDocument: the Monet transform of an XML document (paper
// Definition 4) — the physical data model the meet operators run on.
//
// Two complementary views of the same data are kept:
//  * Per-path BAT relations (edges and string leaves), named by their
//    schema path — the relational view the set-at-a-time algorithms join
//    over.
//  * Dense per-OID arrays (parent, path, rank) — MonetDB-style positional
//    columns; `parent()` is the paper's O(1) "hash look-up" used by the
//    pairwise meet.
//
// OIDs are assigned in depth-first document order by the shredder, so
// `a < b` implies a precedes b in document order.

#ifndef MEETXML_MODEL_DOCUMENT_H_
#define MEETXML_MODEL_DOCUMENT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bat/bat.h"
#include "bat/oid.h"
#include "model/path_summary.h"
#include "util/result.h"

namespace meetxml {
namespace model {

using bat::kInvalidOid;
using bat::Oid;
using bat::OidIntBat;
using bat::OidOidBat;
using bat::OidStrBat;

/// \brief A string-valued association: (owner node, value) at a path.
///
/// For attribute paths the owner is the element carrying the attribute;
/// for cdata paths the owner is the cdata node itself.
struct StringAssociation {
  PathId path;
  Oid owner;
  std::string value;
};

/// \brief How much validation the column-adoption calls run inline.
///
/// kFull re-checks every deep invariant at adoption time (the default,
/// and the only safe choice for untrusted bytes that will be read
/// before EnsureValidated). kFramingOnly keeps the cheap O(1) framing
/// checks — lengths, path ranges, blob-size consistency — and defers
/// the O(rows) scans (owner bounds, offset monotonicity) to the
/// document's lazy validation gate; loaders that MarkUnvalidated() the
/// document may use it to keep those scans off the decode.
enum class ColumnChecks {
  kFull,
  kFramingOnly,
};

/// \brief The Monet transform of one XML document.
class StoredDocument {
 public:
  StoredDocument() = default;

  // Not copyable (relations can be large); movable.
  StoredDocument(const StoredDocument&) = delete;
  StoredDocument& operator=(const StoredDocument&) = delete;
  StoredDocument(StoredDocument&&) = default;
  StoredDocument& operator=(StoredDocument&&) = default;

  // --- Instance (per-OID) view -------------------------------------

  /// \brief Number of nodes (elements + cdata nodes).
  size_t node_count() const { return parent_.size(); }

  /// \brief The root element's OID (always 0 after shredding).
  Oid root() const { return 0; }

  /// \brief Parent node; kInvalidOid for the root.
  Oid parent(Oid node) const { return parent_[node]; }

  /// \brief Schema path of the node.
  PathId path(Oid node) const { return path_[node]; }

  /// \brief Sibling rank (Definition 1's rank function).
  int rank(Oid node) const { return rank_[node]; }

  /// \brief Tree depth == path depth (root is 1).
  uint32_t depth(Oid node) const { return paths_.depth(path_[node]); }

  /// \brief Tag of an element node / "cdata" for cdata nodes.
  const std::string& tag(Oid node) const {
    return paths_.label(path_[node]);
  }

  /// \brief True for character-data nodes.
  bool is_cdata(Oid node) const {
    return paths_.kind(path_[node]) == StepKind::kCdata;
  }

  /// \brief Children of a node in sibling order. Available after
  /// Finalize().
  std::vector<Oid> children(Oid node) const;

  /// \brief True if `ancestor` lies on the root path of `node`
  /// (equality counts) — Definition 5's ⊑ on instances.
  bool IsAncestorOrSelf(Oid ancestor, Oid node) const;

  const PathSummary& paths() const { return paths_; }
  PathSummary* mutable_paths() { return &paths_; }

  // --- Relational (per-path BAT) view ------------------------------

  /// \brief (parent, child) edge BAT of all nodes with this path.
  /// Empty BAT for attribute paths (attributes have no own node).
  const OidOidBat& EdgesAt(PathId path) const;

  /// \brief (owner, string) BAT of a leaf path (attribute or cdata).
  const OidStrBat& StringsAt(PathId path) const;

  /// \brief All paths that own a non-empty string relation — the scan
  /// list for full-text search.
  const std::vector<PathId>& string_paths() const { return string_paths_; }

  /// \brief All paths that own a non-empty edge relation.
  const std::vector<PathId>& edge_paths() const { return edge_paths_; }

  /// \brief Total number of string associations.
  size_t string_count() const { return string_count_; }

  /// \brief Looks up the string value(s) attached to `owner` at `path`.
  std::vector<std::string_view> StringValuesAt(PathId path,
                                               Oid owner) const;

  /// \brief Attribute values of an element, in (path, insertion) order:
  /// pairs of (attribute path, value row index into StringsAt(path)).
  std::vector<StringAssociation> AttributesOf(Oid element) const;

  /// \brief Text of a cdata node; empty view if none recorded.
  std::string_view CdataValue(Oid cdata_node) const;

  /// \brief The global append sequence of every row of StringsAt(path),
  /// parallel to that relation — the permutation column the columnar
  /// image formats persist. (u32: the global string count is u32-framed
  /// on disk, so the wider in-memory type bought nothing but bytes.)
  std::span<const uint32_t> StringSeqAt(PathId path) const;

  // --- Builder interface (used by the shredder) ---------------------

  /// \brief Adds a node; OIDs must be appended densely (DFS order).
  Oid AppendNode(PathId path, Oid parent, int rank);

  /// \brief Pre-sizes the per-OID columns (bulk loaders know the node
  /// count up front).
  void ReserveNodes(size_t count);

  /// \brief Adds a string association (attribute value or cdata text);
  /// the value bytes are copied into the relation's arena.
  void AppendString(PathId path, Oid owner, std::string_view value);

  // --- Column-level bulk ingestion (used by the image loaders) ------
  //
  // The columnar load path moves whole columns in instead of replaying
  // one Append per row — by value (Adopt*, the copy-mode path) or by
  // borrowing spans straight out of a mapped image (Adopt*Views, the
  // view-mode zero-copy path). All calls validate the structural
  // invariants the append path establishes implicitly and reject bad
  // columns without mutating the document. Mixing the two interfaces
  // is allowed only in the order append-after-adopt never runs:
  // adoption requires pristine (empty) targets.
  //
  // View-mode lifetime contract: the borrowed spans must stay valid
  // for the life of the document (or until EnsureOwned promotes it).
  // Loaders pin the backing mapping into the document with PinBacking
  // so the contract holds by construction.

  /// \brief Installs the three per-OID columns at once. Requires an
  /// empty document, equal column lengths, a parentless node 0 and
  /// parents[i] < i for i > 0 (DFS order); every path id must be
  /// interned in paths(). These are exactly the preconditions
  /// Finalize() derives the children CSR and edge relations under.
  util::Status AdoptNodeColumns(std::vector<Oid> parents,
                                std::vector<PathId> paths,
                                std::vector<int> ranks);

  /// \brief View-mode AdoptNodeColumns: same validation, but the
  /// columns borrow from the caller's bytes instead of copying.
  util::Status AdoptNodeColumnViews(std::span<const Oid> parents,
                                    std::span<const PathId> paths,
                                    std::span<const int> ranks);

  /// \brief Installs one path's entire string relation: owner column,
  /// cumulative value end-offsets, the concatenated value blob, and
  /// the global append-sequence column (see StringSeqAt). Requires the
  /// nodes to be present (owners are bounds-checked), a path with no
  /// strings yet, matching column lengths, non-decreasing ends with
  /// ends.back() == blob.size(). Seq values are validated globally by
  /// the caller (they must form a permutation across all relations).
  util::Status AdoptStringRelation(PathId path, std::vector<Oid> owners,
                                   std::vector<uint32_t> ends,
                                   std::string blob,
                                   std::vector<uint32_t> seq,
                                   ColumnChecks checks = ColumnChecks::kFull);

  /// \brief View-mode AdoptStringRelation: same validation, borrowed
  /// columns.
  util::Status AdoptStringRelationViews(
      PathId path, std::span<const Oid> owners,
      std::span<const uint32_t> ends, std::string_view blob,
      std::span<const uint32_t> seq,
      ColumnChecks checks = ColumnChecks::kFull);

  /// \brief Builds every derived structure from the node columns and
  /// string relations: the children CSR, the per-path edge relations
  /// (groups in first-appearance order, rows in OID order) and the
  /// string sortedness flags. The only code that builds them — the
  /// shredders and every image loader call it once the columns are in
  /// place, so a loaded document's derived structures are those of the
  /// document it was saved from. Idempotent; must run before queries.
  util::Status Finalize();

  bool finalized() const { return finalized_; }

  // --- Derived-structure access (persistence + validation) ----------

  /// \brief Children CSR offsets (node_count + 1 entries; available
  /// after Finalize).
  std::span<const uint32_t> child_offsets() const { return child_offsets_; }
  /// \brief Children CSR payload (node_count - 1 entries, every
  /// non-root node grouped under its parent in sibling order).
  std::span<const Oid> child_list() const { return child_list_; }
  /// \brief True when StringsAt(path) has a sorted owner column (probes
  /// binary-search; otherwise they use the per-path hash index).
  bool StringRelationSorted(PathId path) const {
    return path < string_sorted_.size() && string_sorted_[path] != 0;
  }

  // --- Lazy validation gate -----------------------------------------
  //
  // Loaders that skip the deep O(rows) checks at decode time
  // (LoadOptions::defer_validation) call MarkUnvalidated(); the first
  // consumer that needs full invariants — executor construction,
  // EnsureOwned — calls EnsureValidated(), which runs the complete
  // check suite exactly once (thread-safe, once-latched) and returns
  // its sticky verdict. Documents built through the shredder or the
  // eager load path have no gate and EnsureValidated is a no-op.

  /// \brief Runs the deferred deep validation once; subsequent calls
  /// (from any thread) return the same sticky status without
  /// re-scanning.
  util::Status EnsureValidated() const;

  /// \brief True when no deferred validation is pending or it already
  /// ran (regardless of verdict).
  bool validated() const {
    return validation_gate_ == nullptr ||
           validation_gate_->done.load(std::memory_order_acquire);
  }

  /// \brief Arms the lazy validation gate (called by deferring
  /// loaders right after decode).
  void MarkUnvalidated();

  // --- Ownership (view-backed documents) ----------------------------

  /// \brief True while any column or relation still borrows from the
  /// image it was loaded from. Mutating APIs promote the structures
  /// they touch; EnsureOwned promotes everything.
  bool view_backed() const;

  /// \brief Promotes every view-backed column and relation to owned
  /// storage and releases the pinned backing. After this call the
  /// document is self-contained regardless of how it was loaded.
  void EnsureOwned();

  /// \brief Pins the object that owns this document's borrowed bytes
  /// (a shared util::MmapFile, or any image buffer). Held until
  /// destruction or EnsureOwned, so view-backed columns can never
  /// dangle.
  void PinBacking(std::shared_ptr<const void> backing) {
    backing_ = std::move(backing);
  }
  const std::shared_ptr<const void>& backing() const { return backing_; }

  // --- Raw column access (used by persistence) ----------------------

  std::span<const Oid> parent_column() const { return parent_.span(); }
  std::span<const PathId> path_column() const { return path_.span(); }
  std::span<const int> rank_column() const { return rank_.span(); }

 private:
  // Once-latch for deferred deep validation: the first EnsureValidated
  // runs the checks under `mu`, publishes the verdict in `status`, and
  // release-stores `done`; later callers acquire-load `done` and read
  // the sticky status lock-free. (std::once_flag is not movable, and
  // StoredDocument is; a heap latch keeps the document movable.)
  struct ValidationGate {
    std::mutex mu;
    std::atomic<bool> done{false};
    util::Status status = util::Status::OK();
  };

  util::Status CheckNodeColumns(std::span<const Oid> parents,
                                std::span<const PathId> paths,
                                size_t rank_count) const;
  util::Status CheckStringRelation(PathId path, std::span<const Oid> owners,
                                   std::span<const uint32_t> ends,
                                   size_t blob_size, size_t seq_count,
                                   ColumnChecks checks) const;
  void GrowStringTables(PathId path);

  PathSummary paths_;

  // Dense per-OID columns; owned after shredding, possibly borrowed
  // from a pinned image after a view-mode load.
  bat::Column<Oid> parent_;
  bat::Column<PathId> path_;
  bat::Column<int> rank_;

  // Per-path string relations, indexed by PathId (resized lazily).
  std::vector<OidStrBat> strings_;
  // Global append sequence per string-relation row, parallel to
  // strings_[p]; restores per-element attribute order on reassembly.
  std::vector<bat::Column<uint32_t>> string_seq_;
  std::vector<PathId> string_paths_;
  size_t string_count_ = 0;

  // Derived by Finalize from the node columns, always owned (whatever
  // the node columns borrow from): the per-path edge relations,
  // indexed by PathId, with their paths in first-appearance order, and
  // the children CSR.
  std::vector<OidOidBat> edges_;
  std::vector<PathId> edge_paths_;
  std::vector<uint32_t> child_offsets_;
  std::vector<Oid> child_list_;

  // Derived: owner look-up for string relations. Relations built in
  // document order have non-decreasing owner columns (the shredder
  // and the image loaders both append that way), so Finalize marks
  // them sorted and owner probes binary-search the head column
  // directly — no index to build on the cold-start path. Relations
  // appended out of order (possible through the public builder API)
  // fall back to a per-path owner -> rows hash index.
  std::vector<uint8_t> string_sorted_;
  std::vector<std::unordered_map<Oid, std::vector<uint32_t>>> string_index_;

  // Keep-alive for view-backed columns: the mapped image (or byte
  // buffer) the spans borrow from. Type-erased so documents can pin a
  // util::MmapFile, a std::string, or anything else that owns bytes.
  std::shared_ptr<const void> backing_;

  // Null unless a deferring loader armed the lazy validation gate.
  mutable std::shared_ptr<ValidationGate> validation_gate_;

  bool finalized_ = false;
};

}  // namespace model
}  // namespace meetxml

#endif  // MEETXML_MODEL_DOCUMENT_H_
