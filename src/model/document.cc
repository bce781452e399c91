#include "model/document.h"

#include <algorithm>
#include <span>

#include "model/validate.h"

namespace meetxml {
namespace model {

using util::Status;

namespace {
const OidOidBat kEmptyEdges;
const OidStrBat kEmptyStrings;
}  // namespace

std::vector<Oid> StoredDocument::children(Oid node) const {
  std::vector<Oid> out;
  if (!finalized_ || node >= parent_.size()) return out;
  uint32_t begin = child_offsets_[node];
  uint32_t end = child_offsets_[node + 1];
  out.assign(child_list_.begin() + begin, child_list_.begin() + end);
  return out;
}

util::Status StoredDocument::EnsureValidated() const {
  std::shared_ptr<ValidationGate> gate = validation_gate_;
  if (gate == nullptr) return Status::OK();
  if (gate->done.load(std::memory_order_acquire)) return gate->status;
  std::lock_guard<std::mutex> lock(gate->mu);
  if (!gate->done.load(std::memory_order_relaxed)) {
    // Order matters: the storage-column checks establish the string
    // owner bounds ValidateDocument's scans rely on, so they must pass
    // first. (The derived structures need no check of their own:
    // Finalize built them from node columns checked at adoption.)
    util::Status status = ValidateStorageColumns(*this);
    if (status.ok()) status = ValidateDocument(*this);
    gate->status = std::move(status);
    gate->done.store(true, std::memory_order_release);
  }
  return gate->status;
}

void StoredDocument::MarkUnvalidated() {
  validation_gate_ = std::make_shared<ValidationGate>();
}

bool StoredDocument::IsAncestorOrSelf(Oid ancestor, Oid node) const {
  // Steered by depth: walk `node` up exactly to ancestor's depth.
  uint32_t target = depth(ancestor);
  Oid cur = node;
  while (depth(cur) > target) cur = parent_[cur];
  return cur == ancestor;
}

const OidOidBat& StoredDocument::EdgesAt(PathId path) const {
  if (path >= edges_.size()) return kEmptyEdges;
  return edges_[path];
}

const OidStrBat& StoredDocument::StringsAt(PathId path) const {
  if (path >= strings_.size()) return kEmptyStrings;
  return strings_[path];
}

std::vector<std::string_view> StoredDocument::StringValuesAt(
    PathId path, Oid owner) const {
  std::vector<std::string_view> out;
  if (path >= string_sorted_.size()) return out;
  const OidStrBat& table = strings_[path];
  if (string_sorted_[path]) {
    std::span<const Oid> heads = table.heads();
    auto range = std::equal_range(heads.begin(), heads.end(), owner);
    for (auto it = range.first; it != range.second; ++it) {
      out.push_back(table.tail(static_cast<size_t>(it - heads.begin())));
    }
    return out;
  }
  auto it = string_index_[path].find(owner);
  if (it == string_index_[path].end()) return out;
  for (uint32_t row : it->second) out.push_back(table.tail(row));
  return out;
}

std::vector<StringAssociation> StoredDocument::AttributesOf(
    Oid element) const {
  // Collect (global append sequence, association) so that the original
  // per-element attribute order is restored even when different elements
  // of the same path interned their attribute names in different orders.
  std::vector<std::pair<uint64_t, StringAssociation>> collected;
  PathId element_path = path_[element];
  for (PathId child : paths_.children(element_path)) {
    if (paths_.kind(child) != StepKind::kAttribute) continue;
    if (child >= string_sorted_.size()) continue;
    const OidStrBat& table = strings_[child];
    auto emit = [&](uint32_t row) {
      collected.emplace_back(
          string_seq_[child][row],
          StringAssociation{child, element,
                            std::string(table.tail(row))});
    };
    if (string_sorted_[child]) {
      std::span<const Oid> heads = table.heads();
      auto range = std::equal_range(heads.begin(), heads.end(), element);
      for (auto it = range.first; it != range.second; ++it) {
        emit(static_cast<uint32_t>(it - heads.begin()));
      }
    } else {
      auto it = string_index_[child].find(element);
      if (it == string_index_[child].end()) continue;
      for (uint32_t row : it->second) emit(row);
    }
  }
  std::sort(collected.begin(), collected.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<StringAssociation> out;
  out.reserve(collected.size());
  for (auto& [seq, assoc] : collected) out.push_back(std::move(assoc));
  return out;
}

std::string_view StoredDocument::CdataValue(Oid cdata_node) const {
  auto values = StringValuesAt(path_[cdata_node], cdata_node);
  return values.empty() ? std::string_view() : values.front();
}

std::span<const uint32_t> StoredDocument::StringSeqAt(PathId path) const {
  if (path >= string_seq_.size()) return {};
  return string_seq_[path].span();
}

Oid StoredDocument::AppendNode(PathId path, Oid parent, int rank) {
  Oid oid = static_cast<Oid>(parent_.size());
  parent_.push_back(parent);
  path_.push_back(path);
  rank_.push_back(rank);
  finalized_ = false;
  return oid;
}

void StoredDocument::ReserveNodes(size_t count) {
  parent_.reserve(count);
  path_.reserve(count);
  rank_.reserve(count);
}

void StoredDocument::AppendString(PathId path, Oid owner,
                                  std::string_view value) {
  if (path >= strings_.size()) {
    strings_.resize(path + 1);
    string_seq_.resize(path + 1);
  }
  if (strings_[path].empty()) string_paths_.push_back(path);
  strings_[path].Append(owner, value);
  string_seq_[path].push_back(static_cast<uint32_t>(string_count_));
  ++string_count_;
  finalized_ = false;
}

util::Status StoredDocument::CheckNodeColumns(
    std::span<const Oid> parents, std::span<const PathId> paths,
    size_t rank_count) const {
  if (!parent_.empty()) {
    return Status::InvalidArgument(
        "node columns can only be adopted into an empty document");
  }
  if (parents.size() != paths.size() || parents.size() != rank_count) {
    return Status::InvalidArgument("node column lengths differ");
  }
  if (parents.empty()) {
    return Status::InvalidArgument("cannot adopt zero nodes");
  }
  if (parents[0] != kInvalidOid) {
    return Status::InvalidArgument("node 0 must be the parentless root");
  }
  for (size_t i = 1; i < parents.size(); ++i) {
    if (parents[i] >= i) {
      return Status::InvalidArgument(
          "parent OIDs must precede children (DFS order)");
    }
  }
  for (PathId path : paths) {
    if (path >= paths_.size()) {
      return Status::InvalidArgument("node path id out of range");
    }
  }
  return Status::OK();
}

util::Status StoredDocument::AdoptNodeColumns(std::vector<Oid> parents,
                                              std::vector<PathId> paths,
                                              std::vector<int> ranks) {
  MEETXML_RETURN_NOT_OK(CheckNodeColumns(parents, paths, ranks.size()));
  parent_.Adopt(std::move(parents));
  path_.Adopt(std::move(paths));
  rank_.Adopt(std::move(ranks));
  return Status::OK();
}

util::Status StoredDocument::AdoptNodeColumnViews(
    std::span<const Oid> parents, std::span<const PathId> paths,
    std::span<const int> ranks) {
  MEETXML_RETURN_NOT_OK(CheckNodeColumns(parents, paths, ranks.size()));
  parent_.SetView(parents);
  path_.SetView(paths);
  rank_.SetView(ranks);
  return Status::OK();
}

util::Status StoredDocument::CheckStringRelation(
    PathId path, std::span<const Oid> owners,
    std::span<const uint32_t> ends, size_t blob_size, size_t seq_count,
    ColumnChecks checks) const {
  if (path >= paths_.size()) {
    return Status::InvalidArgument("string path id out of range");
  }
  if (owners.size() != ends.size() || owners.size() != seq_count) {
    return Status::InvalidArgument("string column lengths differ");
  }
  if (owners.empty()) {
    return Status::InvalidArgument(
        "string relations are never empty; do not adopt one");
  }
  if (path < strings_.size() && !strings_[path].empty()) {
    return Status::InvalidArgument("string relation adopted twice");
  }
  if (checks == ColumnChecks::kFull) {
    // The O(rows) scans — deferrable to ValidateStorageColumns when
    // the loader arms the lazy validation gate.
    for (Oid owner : owners) {
      if (owner >= parent_.size()) {
        return Status::InvalidArgument("string owner out of range");
      }
    }
    uint32_t previous = 0;
    for (uint32_t end : ends) {
      if (end < previous) {
        return Status::InvalidArgument("string offsets not monotonic");
      }
      previous = end;
    }
  }
  if (ends.back() != blob_size) {
    return Status::InvalidArgument(
        "string blob size does not match the last offset");
  }
  return Status::OK();
}

void StoredDocument::GrowStringTables(PathId path) {
  if (path >= strings_.size()) {
    strings_.resize(path + 1);
    string_seq_.resize(path + 1);
  }
  string_paths_.push_back(path);
  finalized_ = false;
}

util::Status StoredDocument::AdoptStringRelation(
    PathId path, std::vector<Oid> owners, std::vector<uint32_t> ends,
    std::string blob, std::vector<uint32_t> seq, ColumnChecks checks) {
  MEETXML_RETURN_NOT_OK(CheckStringRelation(path, owners, ends, blob.size(),
                                            seq.size(), checks));
  GrowStringTables(path);
  string_count_ += owners.size();
  strings_[path].AdoptColumns(std::move(owners), std::move(ends),
                              std::move(blob));
  string_seq_[path].Adopt(std::move(seq));
  return Status::OK();
}

util::Status StoredDocument::AdoptStringRelationViews(
    PathId path, std::span<const Oid> owners,
    std::span<const uint32_t> ends, std::string_view blob,
    std::span<const uint32_t> seq, ColumnChecks checks) {
  MEETXML_RETURN_NOT_OK(CheckStringRelation(path, owners, ends, blob.size(),
                                            seq.size(), checks));
  GrowStringTables(path);
  string_count_ += owners.size();
  strings_[path].AdoptColumnViews(owners, ends, blob);
  string_seq_[path].SetView(seq);
  return Status::OK();
}

bool StoredDocument::view_backed() const {
  if (parent_.is_view() || path_.is_view() || rank_.is_view()) return true;
  for (const OidStrBat& table : strings_) {
    if (table.is_view()) return true;
  }
  for (const bat::Column<uint32_t>& seq : string_seq_) {
    if (seq.is_view()) return true;
  }
  return false;
}

void StoredDocument::EnsureOwned() {
  // Promotion is a first-touch event: run the deferred validation
  // before detaching from the image. The verdict stays sticky in the
  // gate for consumers that check it; promotion itself is memory-safe
  // either way (all spans were bounds-framed at decode).
  (void)EnsureValidated();
  parent_.EnsureOwned();
  path_.EnsureOwned();
  rank_.EnsureOwned();
  for (OidStrBat& table : strings_) table.EnsureOwned();
  for (bat::Column<uint32_t>& seq : string_seq_) seq.EnsureOwned();
  backing_.reset();
}

Status StoredDocument::Finalize() {
  if (parent_.empty()) {
    return Status::InvalidArgument("cannot finalize an empty document");
  }
  if (parent_[0] != kInvalidOid) {
    return Status::Internal("node 0 must be the root");
  }

  // Row count per schema path, and the paths in first-appearance
  // order — the first pass of the edge relations' counting sort, run
  // first so a bad path id fails before anything is built.
  std::span<const Oid> parents = parent_.span();
  std::span<const PathId> node_paths = path_.span();
  size_t n = parents.size();
  std::vector<uint32_t> path_rows(paths_.size(), 0);
  std::vector<PathId> edge_paths;
  for (size_t i = 0; i < n; ++i) {
    PathId path = node_paths[i];
    if (path >= path_rows.size()) {
      return Status::InvalidArgument("node ", i, " has path id ", path,
                                     " outside the path summary");
    }
    if (path_rows[path]++ == 0) edge_paths.push_back(path);
  }

  // Children CSR via counting sort on the parent column; `child_list`
  // ends up in OID (== document) order per parent, which is sibling
  // order because the shredder emits children in order.
  std::vector<uint32_t> child_offsets(n + 1, 0);
  for (size_t i = 1; i < n; ++i) {
    if (parents[i] == kInvalidOid) {
      return Status::Internal("non-root node ", i, " has no parent");
    }
    if (parents[i] >= i) {
      return Status::Internal("node ", i,
                              " has parent with a later OID; shredder must "
                              "assign DFS order");
    }
    ++child_offsets[parents[i] + 1];
  }
  for (size_t i = 1; i <= n; ++i) child_offsets[i] += child_offsets[i - 1];
  std::vector<Oid> child_list(n - 1);
  std::vector<uint32_t> cursor(child_offsets.begin(),
                               child_offsets.end() - 1);
  for (size_t i = 1; i < n; ++i) {
    child_list[cursor[parents[i]]++] = static_cast<Oid>(i);
  }
  child_offsets_ = std::move(child_offsets);
  child_list_ = std::move(child_list);

  // Per-path edge relations, the counting sort's second pass: each
  // relation's rows in OID (document) order — one (parent, node) BAT
  // per schema path, §2's Definition 4.
  std::vector<std::vector<Oid>> edge_heads(paths_.size());
  std::vector<std::vector<Oid>> edge_tails(paths_.size());
  for (PathId path : edge_paths) {
    edge_heads[path].reserve(path_rows[path]);
    edge_tails[path].reserve(path_rows[path]);
  }
  for (size_t i = 0; i < n; ++i) {
    edge_heads[node_paths[i]].push_back(parents[i]);
    edge_tails[node_paths[i]].push_back(static_cast<Oid>(i));
  }
  edges_.assign(paths_.size(), OidOidBat());
  for (PathId path : edge_paths) {
    edges_[path].AdoptColumns(std::move(edge_heads[path]),
                              std::move(edge_tails[path]));
  }
  edge_paths_ = std::move(edge_paths);

  // Owner look-ups for reassembly and value probes: document-order
  // relations have sorted owner columns and binary-search in place
  // (nothing to build — the common case and the whole cold-start
  // path); anything else gets the hash index.
  string_sorted_.assign(strings_.size(), 1);
  string_index_.assign(strings_.size(), {});
  for (PathId p = 0; p < strings_.size(); ++p) {
    const OidStrBat& table = strings_[p];
    if (table.offsets_overflowed()) {
      return Status::InvalidArgument(
          "string relation at path ", p,
          " exceeds the 4 GiB value-arena limit");
    }
    std::span<const Oid> heads = table.heads();
    bool sorted = std::is_sorted(heads.begin(), heads.end());
    if (sorted) continue;
    string_sorted_[p] = 0;
    auto& index = string_index_[p];
    index.reserve(table.size());
    for (size_t row = 0; row < table.size(); ++row) {
      index[heads[row]].push_back(static_cast<uint32_t>(row));
    }
  }

  finalized_ = true;
  return Status::OK();
}

}  // namespace model
}  // namespace meetxml
