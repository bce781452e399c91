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
    // Order matters: the storage-column and derived-structure checks
    // establish the bounds ValidateDocument's traversals (children(),
    // IsAncestorOrSelf) rely on, so they must pass first.
    util::Status status = ValidateStorageColumns(*this);
    if (status.ok()) status = ValidateDerivedStructures(*this);
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

std::vector<std::tuple<PathId, Oid, std::string_view>>
StoredDocument::StringsInAppendOrder() const {
  std::vector<std::tuple<PathId, Oid, std::string_view>> out(
      string_count_);
  for (PathId p = 0; p < strings_.size(); ++p) {
    const OidStrBat& table = strings_[p];
    for (size_t row = 0; row < table.size(); ++row) {
      out[string_seq_[p][row]] =
          std::make_tuple(p, table.head(row), table.tail(row));
    }
  }
  return out;
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
  if (path >= edges_.size()) edges_.resize(path + 1);
  if (edges_[path].empty()) edge_paths_.push_back(path);
  edges_[path].Append(parent, oid);
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

util::Status StoredDocument::AdoptDerivedColumns(
    const DerivedColumnsView& derived, bool copy) {
  size_t n = parent_.size();
  if (n == 0) {
    return Status::InvalidArgument(
        "derived columns require node columns to be adopted first");
  }
  if (finalized_) {
    return Status::InvalidArgument(
        "derived columns adopted into a finalized document");
  }
  if (!edge_paths_.empty()) {
    return Status::InvalidArgument(
        "derived columns adopted into a document that already has edge "
        "relations");
  }
  if (derived.child_offsets.size() != n + 1) {
    return Status::InvalidArgument("children CSR offset count mismatch");
  }
  if (derived.child_list.size() != n - 1) {
    return Status::InvalidArgument("children CSR list length mismatch");
  }
  if (derived.sorted.size() != string_paths_.size()) {
    return Status::InvalidArgument(
        "string sortedness flag count mismatch");
  }
  std::vector<uint8_t> group_seen(paths_.size(), 0);
  size_t total_rows = 0;
  for (const DerivedEdgeGroup& group : derived.edges) {
    if (group.path >= paths_.size()) {
      return Status::InvalidArgument("edge group path out of range");
    }
    if (group_seen[group.path]) {
      return Status::InvalidArgument("duplicate edge group path");
    }
    group_seen[group.path] = 1;
    if (group.heads.size() != group.tails.size()) {
      return Status::InvalidArgument("edge group column lengths differ");
    }
    if (group.heads.empty()) {
      return Status::InvalidArgument("empty edge group");
    }
    total_rows += group.heads.size();
  }
  if (total_rows != n) {
    return Status::InvalidArgument(
        "edge group rows do not cover every node exactly once");
  }
  for (PathId p : string_paths_) {
    if (strings_[p].offsets_overflowed()) {
      return Status::InvalidArgument(
          "string relation at path ", p,
          " exceeds the 4 GiB value-arena limit");
    }
  }

  // All framing holds — install. Deep cross-checks (CSR inversion,
  // per-row parent match, group ordering, flag correctness) are
  // ValidateDerivedStructures' job.
  PathId max_path = 0;
  for (const DerivedEdgeGroup& group : derived.edges) {
    max_path = std::max(max_path, group.path);
  }
  edges_.resize(max_path + 1);
  edge_paths_.reserve(derived.edges.size());
  for (const DerivedEdgeGroup& group : derived.edges) {
    edge_paths_.push_back(group.path);
    if (copy) {
      edges_[group.path].AdoptColumns(
          std::vector<Oid>(group.heads.begin(), group.heads.end()),
          std::vector<Oid>(group.tails.begin(), group.tails.end()));
    } else {
      edges_[group.path].AdoptColumnViews(group.heads, group.tails);
    }
  }
  if (copy) {
    child_offsets_.Adopt(std::vector<uint32_t>(
        derived.child_offsets.begin(), derived.child_offsets.end()));
    child_list_.Adopt(std::vector<Oid>(derived.child_list.begin(),
                                       derived.child_list.end()));
  } else {
    child_offsets_.SetView(derived.child_offsets);
    child_list_.SetView(derived.child_list);
  }
  string_sorted_.assign(strings_.size(), 1);
  string_index_.assign(strings_.size(), {});
  for (size_t i = 0; i < string_paths_.size(); ++i) {
    PathId p = string_paths_[i];
    string_sorted_[p] = derived.sorted[i] ? 1 : 0;
    if (derived.sorted[i]) continue;
    const OidStrBat& table = strings_[p];
    auto& index = string_index_[p];
    index.reserve(table.size());
    std::span<const Oid> heads = table.heads();
    for (size_t row = 0; row < table.size(); ++row) {
      index[heads[row]].push_back(static_cast<uint32_t>(row));
    }
  }
  finalized_ = true;
  return Status::OK();
}

bool StoredDocument::view_backed() const {
  if (parent_.is_view() || path_.is_view() || rank_.is_view()) return true;
  if (child_offsets_.is_view() || child_list_.is_view()) return true;
  for (const OidOidBat& table : edges_) {
    if (table.is_view()) return true;
  }
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
  child_offsets_.EnsureOwned();
  child_list_.EnsureOwned();
  for (OidOidBat& table : edges_) table.EnsureOwned();
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

  // Children CSR via counting sort on the parent column; `child_list`
  // ends up in OID (== document) order per parent, which is sibling
  // order because the shredder emits children in order.
  size_t n = parent_.size();
  std::vector<uint32_t> child_offsets(n + 1, 0);
  for (size_t i = 1; i < n; ++i) {
    if (parent_[i] == kInvalidOid) {
      return Status::Internal("non-root node ", i, " has no parent");
    }
    if (parent_[i] >= i) {
      return Status::Internal("node ", i,
                              " has parent with a later OID; shredder must "
                              "assign DFS order");
    }
    ++child_offsets[parent_[i] + 1];
  }
  for (size_t i = 1; i <= n; ++i) child_offsets[i] += child_offsets[i - 1];
  std::vector<Oid> child_list(n - 1);
  std::vector<uint32_t> cursor(child_offsets.begin(),
                               child_offsets.end() - 1);
  for (size_t i = 1; i < n; ++i) {
    child_list[cursor[parent_[i]]++] = static_cast<Oid>(i);
  }
  child_offsets_.Adopt(std::move(child_offsets));
  child_list_.Adopt(std::move(child_list));

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
