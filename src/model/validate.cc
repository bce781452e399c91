#include "model/validate.h"

#include <span>
#include <vector>

namespace meetxml {
namespace model {

using util::Status;

Status ValidateStorageColumns(const StoredDocument& doc) {
  size_t n = doc.node_count();
  if (n == 0) {
    return Status::InvalidArgument("document has no nodes");
  }
  // Append-sequence permutation bitmap: every string row's global
  // sequence number in [0, string_count), no duplicates.
  std::vector<bool> seq_seen(doc.string_count(), false);
  for (PathId path : doc.string_paths()) {
    const OidStrBat& table = doc.StringsAt(path);
    std::span<const Oid> owners = table.heads();
    for (Oid owner : owners) {
      if (owner >= n) {
        return Status::InvalidArgument("string relation ", path,
                                       ": owner OID out of range");
      }
    }
    std::span<const uint32_t> ends = table.tail_ends();
    uint32_t previous = 0;
    for (uint32_t end : ends) {
      if (end < previous) {
        return Status::InvalidArgument("string relation ", path,
                                       ": end offsets not monotonic");
      }
      previous = end;
    }
    if (!ends.empty() && ends.back() != table.tail_blob().size()) {
      return Status::InvalidArgument(
          "string relation ", path,
          ": blob size does not match the last offset");
    }
    for (uint32_t seq : doc.StringSeqAt(path)) {
      if (seq >= seq_seen.size()) {
        return Status::InvalidArgument("string relation ", path,
                                       ": sequence value out of range");
      }
      if (seq_seen[seq]) {
        return Status::InvalidArgument("string relation ", path,
                                       ": duplicate sequence value ", seq);
      }
      seq_seen[seq] = true;
    }
  }
  return Status::OK();
}

Status ValidateDocument(const StoredDocument& doc) {
  if (!doc.finalized()) {
    return Status::InvalidArgument("document is not finalized");
  }
  if (doc.node_count() == 0) {
    return Status::InvalidArgument("document has no nodes");
  }
  const PathSummary& paths = doc.paths();

  // --- Path summary ----------------------------------------------------
  for (PathId id = 0; id < paths.size(); ++id) {
    PathId parent = paths.parent(id);
    if (parent == bat::kInvalidPathId) {
      if (paths.depth(id) != 1) {
        return Status::Internal("path ", id, ": root path with depth ",
                                paths.depth(id));
      }
      continue;
    }
    if (parent >= id) {
      return Status::Internal("path ", id,
                              ": parent not interned before child");
    }
    if (paths.depth(id) != paths.depth(parent) + 1) {
      return Status::Internal("path ", id, ": depth mismatch");
    }
    if (paths.kind(parent) != StepKind::kElement) {
      return Status::Internal("path ", id,
                              ": parent path is not an element path");
    }
  }

  // --- Node columns ------------------------------------------------------
  if (doc.parent(doc.root()) != bat::kInvalidOid) {
    return Status::Internal("root node has a parent");
  }
  for (Oid oid = 1; oid < doc.node_count(); ++oid) {
    Oid parent = doc.parent(oid);
    if (parent == bat::kInvalidOid || parent >= oid) {
      return Status::Internal("node ", oid,
                              ": parent OID does not precede it");
    }
    if (paths.parent(doc.path(oid)) != doc.path(parent)) {
      return Status::Internal("node ", oid,
                              ": path parent does not match node parent");
    }
    if (doc.depth(oid) != doc.depth(parent) + 1) {
      return Status::Internal("node ", oid, ": depth mismatch");
    }
  }

  // --- Children CSR --------------------------------------------------------
  size_t child_total = 0;
  for (Oid oid = 0; oid < doc.node_count(); ++oid) {
    int last_rank = -1;
    for (Oid kid : doc.children(oid)) {
      if (kid >= doc.node_count() || doc.parent(kid) != oid) {
        return Status::Internal("node ", oid, ": stray child ", kid);
      }
      if (doc.rank(kid) < last_rank) {
        return Status::Internal("node ", oid,
                                ": children out of rank order");
      }
      last_rank = doc.rank(kid);
      ++child_total;
    }
  }
  if (child_total != doc.node_count() - 1) {
    return Status::Internal("children CSR covers ", child_total,
                            " nodes, expected ", doc.node_count() - 1);
  }

  // --- Edge relations --------------------------------------------------------
  std::vector<bool> seen(doc.node_count(), false);
  for (PathId path : doc.edge_paths()) {
    if (paths.kind(path) == StepKind::kAttribute) {
      return Status::Internal("attribute path ", path,
                              " owns an edge relation");
    }
    const OidOidBat& edges = doc.EdgesAt(path);
    for (size_t row = 0; row < edges.size(); ++row) {
      Oid child = edges.tail(row);
      if (child >= doc.node_count()) {
        return Status::Internal("edge relation ", path,
                                ": child OID out of range");
      }
      if (doc.path(child) != path) {
        return Status::Internal("edge relation ", path,
                                ": child has a different path");
      }
      if (edges.head(row) != doc.parent(child)) {
        return Status::Internal("edge relation ", path,
                                ": head is not the child's parent");
      }
      if (seen[child]) {
        return Status::Internal("node ", child,
                                " appears in two edge relations");
      }
      seen[child] = true;
    }
  }
  for (Oid oid = 0; oid < doc.node_count(); ++oid) {
    if (!seen[oid]) {
      return Status::Internal("node ", oid, " missing from edge relations");
    }
  }

  // --- String relations ---------------------------------------------------------
  std::vector<int> cdata_strings(doc.node_count(), 0);
  size_t string_total = 0;
  for (PathId path : doc.string_paths()) {
    StepKind kind = paths.kind(path);
    if (kind == StepKind::kElement) {
      return Status::Internal("element path ", path,
                              " owns a string relation");
    }
    const OidStrBat& table = doc.StringsAt(path);
    for (size_t row = 0; row < table.size(); ++row) {
      Oid owner = table.head(row);
      if (owner >= doc.node_count()) {
        return Status::Internal("string relation ", path,
                                ": owner OID out of range");
      }
      if (kind == StepKind::kCdata) {
        if (doc.path(owner) != path) {
          return Status::Internal("string relation ", path,
                                  ": cdata string owned by foreign node");
        }
        ++cdata_strings[owner];
      } else {  // attribute
        if (doc.path(owner) != paths.parent(path)) {
          return Status::Internal(
              "string relation ", path,
              ": attribute owned by node of a different element path");
        }
      }
      ++string_total;
    }
  }
  if (string_total != doc.string_count()) {
    return Status::Internal("string relations hold ", string_total,
                            " rows, expected ", doc.string_count());
  }
  for (Oid oid = 0; oid < doc.node_count(); ++oid) {
    if (doc.is_cdata(oid) && cdata_strings[oid] != 1) {
      return Status::Internal("cdata node ", oid, " has ",
                              cdata_strings[oid],
                              " string associations, expected 1");
    }
  }
  return Status::OK();
}

}  // namespace model
}  // namespace meetxml
