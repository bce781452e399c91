#include "core/meet_general.h"

#include <algorithm>
#include <unordered_map>

namespace meetxml {
namespace core {

using util::Result;
using util::Status;

namespace {

struct Witness {
  Assoc assoc;
  size_t source;
};

// A live input item: its current roll-up position plus the witnesses it
// carries (more than one only after duplicate-association merging).
// Witness lists are fixed at seed time — items never gain witnesses as
// they lift — so each item holds a span into one shared arena instead
// of owning a vector: items stay trivially copyable and seeding does
// no per-item allocation.
struct Item {
  Oid cur;
  uint32_t wid_begin;
  uint32_t wid_count;
};

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

Result<std::vector<GeneralMeet>> MeetGeneral(
    const StoredDocument& doc, const std::vector<AssocSet>& inputs,
    const MeetOptions& options, MeetGeneralStats* stats) {
  if (!doc.finalized()) {
    return Status::InvalidArgument("document is not finalized");
  }
  MeetGeneralStats local_stats;
  MeetGeneralStats* st = stats != nullptr ? stats : &local_stats;
  *st = MeetGeneralStats{};

  const model::PathSummary& paths = doc.paths();

  // Seed: one item per distinct association; duplicates across (or
  // within) sets merge their witnesses into one item. Sets are
  // uniformly typed, so merging is per path: concatenate every set
  // bound to the path as (node, witness) pairs, stable-sort by node,
  // and fold equal-node runs into one item — witness order within an
  // item stays input order, exactly as hash-based merging produced,
  // at a fraction of the constant factor.
  std::vector<Witness> witnesses;
  std::vector<uint32_t> wid_arena;
  std::vector<std::vector<Item>> buckets(paths.size());
  {
    std::vector<std::pair<PathId, std::vector<std::pair<Oid, uint32_t>>>>
        per_path;
    for (size_t i = 0; i < inputs.size(); ++i) {
      MEETXML_RETURN_NOT_OK(ValidateInput(doc, inputs[i], i));
      const AssocSet& set = inputs[i];
      std::vector<std::pair<Oid, uint32_t>>* pairs = nullptr;
      for (auto& entry : per_path) {
        if (entry.first == set.path) {
          pairs = &entry.second;
          break;
        }
      }
      if (pairs == nullptr) {
        per_path.emplace_back(set.path,
                              std::vector<std::pair<Oid, uint32_t>>());
        pairs = &per_path.back().second;
      }
      pairs->reserve(pairs->size() + set.nodes.size());
      for (Oid node : set.nodes) {
        uint32_t wid = static_cast<uint32_t>(witnesses.size());
        witnesses.push_back(Witness{Assoc{set.path, node}, i});
        pairs->emplace_back(node, wid);
      }
    }
    for (auto& [path, pairs] : per_path) {
      std::stable_sort(pairs.begin(), pairs.end(),
                       [](const std::pair<Oid, uint32_t>& a,
                          const std::pair<Oid, uint32_t>& b) {
                         return a.first < b.first;
                       });
      std::vector<Item>& bucket = buckets[path];
      bucket.reserve(pairs.size());
      wid_arena.reserve(wid_arena.size() + pairs.size());
      for (size_t i = 0; i < pairs.size();) {
        Item item;
        item.cur = pairs[i].first;
        item.wid_begin = static_cast<uint32_t>(wid_arena.size());
        do {
          wid_arena.push_back(pairs[i].second);
          ++i;
        } while (i < pairs.size() && pairs[i].first == item.cur);
        item.wid_count =
            static_cast<uint32_t>(wid_arena.size()) - item.wid_begin;
        bucket.push_back(item);
        ++st->items_seeded;
      }
    }
  }

  std::vector<GeneralMeet> results;

  // Bounded mode (max_results = k > 0): keep the k best candidates in
  // a max-heap ordered by the final ranking key (witness_distance, meet
  // OID). The key is a total order — meet nodes are unique within a
  // run — so heap-top-k is byte-identical to sort-then-resize, at O(k)
  // memory. max_results = 0 collects every qualifying meet.
  const bool bounded = options.max_results > 0;
  auto rank_before = [](const GeneralMeet& a, const GeneralMeet& b) {
    if (a.witness_distance != b.witness_distance) {
      return a.witness_distance < b.witness_distance;
    }
    return a.meet < b.meet;
  };

  // Roll up the schema tree children-before-parents. Path ids are
  // interned parents-first, so descending id order visits every path
  // after all of its children.
  std::vector<uint8_t> lifted_into(paths.size(), 0);
  for (size_t p = paths.size(); p-- > 0;) {
    PathId pid = static_cast<PathId>(p);
    std::vector<Item> bucket = std::move(buckets[pid]);
    if (bucket.empty()) continue;
    ++st->paths_touched;

    const bool is_attr = paths.kind(pid) == model::StepKind::kAttribute;
    const uint32_t node_depth =
        is_attr ? paths.depth(pid) - 1 : paths.depth(pid);

    auto process_group = [&](Oid node, const size_t* item_indices,
                             size_t group_size) {
      // A node is a meet when >= 2 items converge on it — or when a
      // single seeded item already carries >= 2 witnesses (the same
      // association matched several search terms, e.g. "Bob" and
      // "Byte" hitting one cdata: the meet is that node itself).
      bool merged_duplicate =
          group_size == 1 && bucket[item_indices[0]].wid_count >= 2;
      if (group_size >= 2 || merged_duplicate) {
        // `node` is the lowest common ancestor of at least two input
        // items: a minimal meet. Consume the items. The ranking key
        // needs only the two largest witness distances, so compute it
        // first and materialize the witness vector only for candidates
        // that survive the bound checks below.
        int largest = 0;
        int second = 0;
        for (size_t g = 0; g < group_size; ++g) {
          const Item& item = bucket[item_indices[g]];
          for (uint32_t o = 0; o < item.wid_count; ++o) {
            const Witness& w = witnesses[wid_arena[item.wid_begin + o]];
            // A witness seeded in this very bucket never traversed an
            // edge (distance 0); a lifted witness is as many edges away
            // as its association depth exceeds the meet node's depth.
            int dist = w.assoc.path == pid
                           ? 0
                           : static_cast<int>(AssocDepth(doc, w.assoc)) -
                                 static_cast<int>(node_depth);
            if (dist >= largest) {
              second = largest;
              largest = dist;
            } else if (dist > second) {
              second = dist;
            }
          }
        }
        int witness_distance = largest + second;
        PathId meet_path = doc.path(node);
        bool report = options.PathAllowed(meet_path) &&
                      witness_distance <= options.max_distance;
        if (report) {
          ++st->meets_found;
          bool keep = true;
          // Strictly-worse pruning only: a candidate tied with the
          // shared bound may still win its tie-break, so `>` not `>=`.
          if (options.shared_max_distance != nullptr &&
              witness_distance > options.shared_max_distance->load(
                                     std::memory_order_relaxed)) {
            keep = false;
          }
          if (keep && bounded && results.size() >= options.max_results) {
            const GeneralMeet& worst = results.front();
            if (witness_distance > worst.witness_distance ||
                (witness_distance == worst.witness_distance &&
                 node > worst.meet)) {
              keep = false;
            }
          }
          if (!keep) {
            ++st->meets_pruned;
            return;
          }
          ++st->meets_materialized;
          GeneralMeet meet;
          meet.meet = node;
          meet.meet_path = meet_path;
          meet.witness_distance = witness_distance;
          for (size_t g = 0; g < group_size; ++g) {
            const Item& item = bucket[item_indices[g]];
            for (uint32_t o = 0; o < item.wid_count; ++o) {
              const Witness& w = witnesses[wid_arena[item.wid_begin + o]];
              int dist = w.assoc.path == pid
                             ? 0
                             : static_cast<int>(AssocDepth(doc, w.assoc)) -
                                   static_cast<int>(node_depth);
              meet.witnesses.push_back(MeetWitness{w.assoc, w.source, dist});
            }
          }
          std::sort(meet.witnesses.begin(), meet.witnesses.end(),
                    [](const MeetWitness& a, const MeetWitness& b) {
                      if (a.assoc.node != b.assoc.node) {
                        return a.assoc.node < b.assoc.node;
                      }
                      return a.assoc.path < b.assoc.path;
                    });
          if (bounded) {
            if (results.size() >= options.max_results) {
              std::pop_heap(results.begin(), results.end(), rank_before);
              results.pop_back();
            }
            results.push_back(std::move(meet));
            std::push_heap(results.begin(), results.end(), rank_before);
          } else {
            results.push_back(std::move(meet));
          }
        }
        return;
      }

      // Lone item: climb one edge, unless already at a root-level
      // element path (then it produces no meet and is dropped).
      //
      // An item whose distance already exceeds max_distance must keep
      // climbing even though it can never appear in a reported meet
      // (its distance only grows, so every meet it joins fails the
      // span check above). At that unreported meet it still CONSUMES
      // its partners — the paper's minimality rule — and dropping it
      // early would let those partners climb on and form extra meets
      // higher in the tree, changing the answer of distance-bounded
      // queries. The report check filters the over-distance meet
      // itself, so no per-item flag is needed.
      size_t idx = item_indices[0];
      PathId parent_path = paths.parent(pid);
      if (parent_path == bat::kInvalidPathId) return;
      Item lifted = std::move(bucket[idx]);
      if (!is_attr) lifted.cur = doc.parent(lifted.cur);
      buckets[parent_path].push_back(std::move(lifted));
      lifted_into[parent_path] = 1;
      ++st->lifts;
    };

    if (!lifted_into[pid]) {
      // No lifts landed here, so the bucket holds only seeds — unique
      // by construction (the per-path sort-and-fold merged duplicate
      // associations into single items at seed time) — and every
      // item is its own group. Skipping the hash grouping below is a
      // large constant-factor win for leaf paths with thousands of
      // associations.
      for (size_t i = 0; i < bucket.size(); ++i) {
        process_group(bucket[i].cur, &i, 1);
      }
    } else {
      // Group items by current node.
      std::unordered_map<Oid, std::vector<size_t>> by_node;
      by_node.reserve(bucket.size());
      for (size_t i = 0; i < bucket.size(); ++i) {
        by_node[bucket[i].cur].push_back(i);
      }
      for (auto& [node, item_indices] : by_node) {
        process_group(node, item_indices.data(), item_indices.size());
      }
    }
  }

  // Rank by the paper's heuristic: fewest joins (tightest witness span)
  // first; meet OID breaks ties deterministically. A bounded run holds
  // exactly the top k in heap order and just needs the final sort.
  std::sort(results.begin(), results.end(), rank_before);
  return results;
}

Result<std::vector<GeneralMeet>> MeetGeneralNodes(
    const StoredDocument& doc, const std::vector<Oid>& nodes,
    const MeetOptions& options) {
  std::unordered_map<PathId, AssocSet> grouped;
  for (Oid node : nodes) {
    if (node >= doc.node_count()) {
      return Status::NotFound("no node with OID ", node);
    }
    PathId path = doc.path(node);
    AssocSet& set = grouped[path];
    set.path = path;
    set.nodes.push_back(node);
  }
  std::vector<AssocSet> inputs;
  inputs.reserve(grouped.size());
  for (auto& [path, set] : grouped) inputs.push_back(std::move(set));
  // Deterministic input order (the algorithm is order-invariant, but
  // keep the witness `source` indices stable).
  std::sort(inputs.begin(), inputs.end(),
            [](const AssocSet& a, const AssocSet& b) {
              return a.path < b.path;
            });
  return MeetGeneral(doc, inputs, options);
}

}  // namespace core
}  // namespace meetxml
