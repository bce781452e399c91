#include "core/meet_general.h"

#include <algorithm>
#include <tuple>

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

bool WitnessBefore(const MeetWitness& a, const MeetWitness& b) {
  return std::tie(a.assoc.node, a.assoc.path, a.source) <
         std::tie(b.assoc.node, b.assoc.path, b.source);
}

// Two meets share a node only when one of them is a duplicate match
// meeting on one of the node's attribute paths; no witness is in two
// meets, so comparing witness lists makes the order total.
bool RankBefore(const GeneralMeet& a, const GeneralMeet& b) {
  if (a.witness_distance != b.witness_distance) {
    return a.witness_distance < b.witness_distance;
  }
  if (a.meet != b.meet) return a.meet < b.meet;
  return std::lexicographical_compare(a.witnesses.begin(), a.witnesses.end(),
                                      b.witnesses.begin(), b.witnesses.end(),
                                      WitnessBefore);
}

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
  // item stays input order. A path's bucket starts as its seeds,
  // sorted by node.
  std::vector<Witness> witnesses;
  std::vector<uint32_t> wid_arena;
  std::vector<std::vector<Item>> buckets(paths.size());
  {
    using Pairs = std::vector<std::pair<Oid, uint32_t>>;
    std::vector<std::pair<PathId, Pairs>> per_path;
    for (size_t i = 0; i < inputs.size(); ++i) {
      MEETXML_RETURN_NOT_OK(ValidateInput(doc, inputs[i], i));
      const AssocSet& set = inputs[i];
      auto entry = std::find_if(
          per_path.begin(), per_path.end(),
          [&](const auto& e) { return e.first == set.path; });
      if (entry == per_path.end()) {
        entry = per_path.emplace(per_path.end(), set.path, Pairs());
      }
      Pairs& pairs = entry->second;
      pairs.reserve(pairs.size() + set.nodes.size());
      for (Oid node : set.nodes) {
        uint32_t wid = static_cast<uint32_t>(witnesses.size());
        witnesses.push_back(Witness{Assoc{set.path, node}, i});
        pairs.emplace_back(node, wid);
      }
    }
    auto by_node = [](const std::pair<Oid, uint32_t>& a,
                      const std::pair<Oid, uint32_t>& b) {
      return a.first < b.first;
    };
    for (auto& [path, pairs] : per_path) {
      // A path fed by one sorted set (the common case) is a single run
      // already; stable_sort would still copy it through a buffer.
      if (!std::is_sorted(pairs.begin(), pairs.end(), by_node)) {
        std::stable_sort(pairs.begin(), pairs.end(), by_node);
      }
      std::vector<Item>& seeds = buckets[path];
      seeds.reserve(pairs.size());
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
        seeds.push_back(item);
        ++st->items_seeded;
      }
    }
  }

  std::vector<GeneralMeet> results;

  // Bounded mode (max_results = k > 0): keep the k best candidates in
  // a max-heap ordered by the final ranking key, a total order, so
  // heap-top-k is byte-identical to sort-then-resize, at O(k) memory.
  // max_results = 0 collects every qualifying meet.
  const bool bounded = options.max_results > 0;

  // Roll up the schema tree children-before-parents. Path ids are
  // interned parents-first, so descending id order visits every path
  // after all of its children. A bucket's groups (its items on one node)
  // are visited in ascending node order. OIDs are dense in pre-order and
  // a path's nodes share one depth, so the parents of its lone items
  // come out non-decreasing: each child path lifts one sorted run into
  // its parent's bucket, which is merged in (§3.2's level-wise merge
  // join) and leaves the bucket sorted for the scan.
  std::vector<Item> scratch;
  for (size_t p = paths.size(); p-- > 0;) {
    PathId pid = static_cast<PathId>(p);
    std::vector<Item> bucket = std::move(buckets[pid]);
    if (bucket.empty()) continue;
    ++st->paths_touched;

    const bool is_attr = paths.kind(pid) == model::StepKind::kAttribute;
    const uint32_t node_depth =
        is_attr ? paths.depth(pid) - 1 : paths.depth(pid);
    const PathId parent_path = paths.parent(pid);
    std::vector<Item>* parent = parent_path == bat::kInvalidPathId
                                    ? nullptr
                                    : &buckets[parent_path];
    const size_t run_start = parent != nullptr ? parent->size() : 0;

    // A witness seeded in this very bucket never traversed an edge
    // (distance 0); a lifted witness is as many edges away as its
    // association depth exceeds the meet node's depth.
    auto distance_of = [&](const Witness& w) {
      return w.assoc.path == pid
                 ? 0
                 : static_cast<int>(AssocDepth(doc, w.assoc)) -
                       static_cast<int>(node_depth);
    };

    // One grouping path: scan the sorted bucket for runs of equal
    // nodes. A bucket that received no lifts is its seeds alone, unique
    // by construction, so every group there is a single item.
    for (size_t i = 0, j; i < bucket.size(); i = j) {
      const Oid node = bucket[i].cur;
      for (j = i + 1; j < bucket.size() && bucket[j].cur == node; ++j) {
      }
      const Item* group = &bucket[i];
      const size_t group_size = j - i;

      // A node is a meet when >= 2 items converge on it — or when a
      // single seeded item already carries >= 2 witnesses (the same
      // association matched several search terms, e.g. "Bob" and
      // "Byte" hitting one cdata: the meet is that node itself).
      // Otherwise the lone item climbs one edge, unless already at a
      // root-level element path (then it produces no meet and is
      // dropped).
      //
      // An item whose distance already exceeds max_distance must keep
      // climbing even though it can never appear in a reported meet
      // (its distance only grows, so every meet it joins fails the
      // span check below). At that unreported meet it still CONSUMES
      // its partners — the paper's minimality rule — and dropping it
      // early would let those partners climb on and form extra meets
      // higher in the tree, changing the answer of distance-bounded
      // queries. The report check filters the over-distance meet
      // itself, so no per-item flag is needed.
      if (group_size == 1 && group[0].wid_count < 2) {
        if (parent == nullptr) continue;
        Item lifted = group[0];
        if (!is_attr) lifted.cur = doc.parent(lifted.cur);
        parent->push_back(lifted);
        ++st->lifts;
        continue;
      }

      // `node` is the lowest common ancestor of at least two input
      // items: a minimal meet. Consume the items. The ranking key needs
      // only the two largest witness distances, so compute it first and
      // materialize the witness vector only for candidates that survive
      // the bound checks below.
      int largest = 0;
      int second = 0;
      size_t witness_count = 0;
      for (size_t g = 0; g < group_size; ++g) {
        const Item& item = group[g];
        witness_count += item.wid_count;
        for (uint32_t o = 0; o < item.wid_count; ++o) {
          int dist = distance_of(witnesses[wid_arena[item.wid_begin + o]]);
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
      if (!options.PathAllowed(meet_path) ||
          witness_distance > options.max_distance) {
        continue;
      }
      ++st->meets_found;
      // Strictly-worse pruning only: a candidate tied with the shared
      // bound may still win its tie-break, so `>` not `>=`.
      bool keep = options.shared_max_distance == nullptr ||
                  witness_distance <= options.shared_max_distance->load(
                                          std::memory_order_relaxed);
      if (keep && bounded && results.size() >= options.max_results) {
        // A tie on (distance, node) is settled on the witnesses below.
        const GeneralMeet& worst = results.front();
        keep = std::tie(witness_distance, node) <=
               std::tie(worst.witness_distance, worst.meet);
      }
      if (!keep) {
        ++st->meets_pruned;
        continue;
      }
      ++st->meets_materialized;
      GeneralMeet meet;
      meet.meet = node;
      meet.meet_path = meet_path;
      meet.witness_distance = witness_distance;
      meet.witnesses.reserve(witness_count);
      for (size_t g = 0; g < group_size; ++g) {
        const Item& item = group[g];
        for (uint32_t o = 0; o < item.wid_count; ++o) {
          const Witness& w = witnesses[wid_arena[item.wid_begin + o]];
          meet.witnesses.push_back(
              MeetWitness{w.assoc, w.source, distance_of(w)});
        }
      }
      std::sort(meet.witnesses.begin(), meet.witnesses.end(), WitnessBefore);
      if (bounded && results.size() >= options.max_results) {
        if (!RankBefore(meet, results.front())) continue;
        std::pop_heap(results.begin(), results.end(), RankBefore);
        results.pop_back();
      }
      results.push_back(std::move(meet));
      if (bounded) std::push_heap(results.begin(), results.end(), RankBefore);
    }
    if (run_start > 0 && run_start < parent->size()) {
      scratch.resize(parent->size());
      std::merge(parent->begin(), parent->begin() + run_start,
                 parent->begin() + run_start, parent->end(),
                 scratch.begin(), [](const Item& a, const Item& b) {
                   return a.cur < b.cur;
                 });
      parent->swap(scratch);
    }
  }

  // A bounded run holds exactly the top k in heap order and just needs
  // the final sort.
  std::sort(results.begin(), results.end(), RankBefore);
  return results;
}

Result<std::vector<GeneralMeet>> MeetGeneralNodes(
    const StoredDocument& doc, const std::vector<Oid>& nodes,
    const MeetOptions& options) {
  std::vector<std::pair<PathId, Oid>> typed;
  typed.reserve(nodes.size());
  for (Oid node : nodes) {
    if (node >= doc.node_count()) {
      return Status::NotFound("no node with OID ", node);
    }
    typed.emplace_back(doc.path(node), node);
  }
  // One set per path, in ascending path order, so the witness `source`
  // indices are deterministic (the algorithm itself is order-invariant).
  std::sort(typed.begin(), typed.end());
  std::vector<AssocSet> inputs;
  for (const auto& [path, node] : typed) {
    if (inputs.empty() || inputs.back().path != path) {
      inputs.push_back(AssocSet{path, {}});
    }
    inputs.back().nodes.push_back(node);
  }
  return MeetGeneral(doc, inputs, options);
}

}  // namespace core
}  // namespace meetxml
