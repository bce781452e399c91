#include "core/meet_general_relational.h"

#include <algorithm>
#include <unordered_map>

#include "bat/ops.h"

namespace meetxml {
namespace core {

using bat::Bat;
using util::Result;
using util::Status;

namespace {

struct Witness {
  Assoc assoc;
  size_t source;
};

// An item relation row: (current node, item id). Items carry one or
// more witnesses (several after duplicate-association merging).
using ItemBat = Bat<Oid, uint32_t>;

Status ValidateInput(const StoredDocument& doc, const AssocSet& set,
                     size_t index) {
  if (set.path >= doc.paths().size()) {
    return Status::NotFound("meet input set ", index, ": unknown path id ",
                            set.path);
  }
  bool is_attr =
      doc.paths().kind(set.path) == model::StepKind::kAttribute;
  PathId node_path = is_attr ? doc.paths().parent(set.path) : set.path;
  for (Oid node : set.nodes) {
    if (node >= doc.node_count()) {
      return Status::NotFound("meet input set ", index,
                              ": no node with OID ", node);
    }
    if (doc.path(node) != node_path) {
      return Status::InvalidArgument(
          "meet input set ", index, ": node OID ", node,
          " does not match the set's path (sets must be uniformly typed)");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<GeneralMeet>> MeetGeneralRelational(
    const StoredDocument& doc, const std::vector<AssocSet>& inputs,
    const MeetOptions& options, RelationalMeetStats* stats) {
  if (!doc.finalized()) {
    return Status::InvalidArgument("document is not finalized");
  }
  RelationalMeetStats local_stats;
  RelationalMeetStats* st = stats != nullptr ? stats : &local_stats;
  *st = RelationalMeetStats{};

  const model::PathSummary& paths = doc.paths();

  // Seed: identical duplicate-merging to MeetGeneral's (one item per
  // distinct association; witnesses accumulate).
  std::vector<Witness> witnesses;
  std::vector<std::vector<uint32_t>> item_witnesses;  // item -> wids
  std::vector<ItemBat> buckets(paths.size());
  {
    std::unordered_map<uint64_t, uint32_t> seen;  // (path,node) -> item
    for (size_t i = 0; i < inputs.size(); ++i) {
      MEETXML_RETURN_NOT_OK(ValidateInput(doc, inputs[i], i));
      for (Oid node : inputs[i].nodes) {
        Assoc assoc{inputs[i].path, node};
        uint32_t wid = static_cast<uint32_t>(witnesses.size());
        witnesses.push_back(Witness{assoc, i});
        uint64_t key =
            (static_cast<uint64_t>(inputs[i].path) << 32) | node;
        auto it = seen.find(key);
        if (it != seen.end()) {
          item_witnesses[it->second].push_back(wid);
          continue;
        }
        uint32_t item = static_cast<uint32_t>(item_witnesses.size());
        item_witnesses.push_back({wid});
        seen.emplace(key, item);
        buckets[inputs[i].path].Append(node, item);
      }
    }
  }

  std::vector<GeneralMeet> results;

  // Roll up, children before parents (path ids are topological).
  for (size_t p = paths.size(); p-- > 0;) {
    PathId pid = static_cast<PathId>(p);
    ItemBat relation = std::move(buckets[pid]);
    if (relation.empty()) continue;
    ++st->paths_touched;

    const bool is_attr = paths.kind(pid) == model::StepKind::kAttribute;
    const uint32_t node_depth =
        is_attr ? paths.depth(pid) - 1 : paths.depth(pid);

    // Group by current node (sort — the relational grouping).
    relation.Sort();
    ItemBat survivors;
    size_t row = 0;
    while (row < relation.size()) {
      size_t end = row;
      while (end < relation.size() &&
             relation.head(end) == relation.head(row)) {
        ++end;
      }
      Oid node = relation.head(row);
      bool merged_duplicate =
          end - row == 1 &&
          item_witnesses[relation.tail(row)].size() >= 2;
      if (end - row >= 2 || merged_duplicate) {
        GeneralMeet meet;
        meet.meet = node;
        meet.meet_path = doc.path(node);
        int largest = 0;
        int second = 0;
        for (size_t r = row; r < end; ++r) {
          for (uint32_t wid : item_witnesses[relation.tail(r)]) {
            const Witness& w = witnesses[wid];
            int dist = w.assoc.path == pid
                           ? 0
                           : static_cast<int>(AssocDepth(doc, w.assoc)) -
                                 static_cast<int>(node_depth);
            meet.witnesses.push_back(MeetWitness{w.assoc, w.source, dist});
            if (dist >= largest) {
              second = largest;
              largest = dist;
            } else if (dist > second) {
              second = dist;
            }
          }
        }
        meet.witness_distance = largest + second;
        if (options.PathAllowed(meet.meet_path) &&
            meet.witness_distance <= options.max_distance) {
          std::sort(meet.witnesses.begin(), meet.witnesses.end(),
                    WitnessBefore);
          results.push_back(std::move(meet));
        }
      } else {
        survivors.Append(relation.head(row), relation.tail(row));
      }
      row = end;
    }

    // Lift survivors one level: the paper's parent() join.
    PathId parent_path = paths.parent(pid);
    if (parent_path == bat::kInvalidPathId || survivors.empty()) {
      continue;
    }
    ItemBat lifted;
    if (is_attr) {
      lifted = std::move(survivors);  // arc collapses onto the owner
    } else {
      // edges: (parent, child); survivors: (child, item) ->
      // join yields (parent, item).
      lifted = bat::Join(doc.EdgesAt(pid), survivors);
      ++st->joins;
      st->join_rows += lifted.size();
    }
    ItemBat& target = buckets[parent_path];
    for (size_t r = 0; r < lifted.size(); ++r) {
      target.Append(lifted.head(r), lifted.tail(r));
    }
  }

  // MeetGeneral's order, so the two strategies agree row for row.
  std::sort(results.begin(), results.end(), RankBefore);
  if (options.max_results > 0 && results.size() > options.max_results) {
    results.resize(options.max_results);
  }
  return results;
}

}  // namespace core
}  // namespace meetxml
