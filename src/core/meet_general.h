// General meet over arbitrarily many association sets — the meet
// algorithm of paper §3.2/Figure 5, the form used on full-text search
// results.
//
// Inputs are association sets grouped by type (path). The algorithm
// rolls the tree-shaped schema up from the bottom: paths are processed
// children-before-parents; at every node where at least two input items
// converge, that node is emitted as a meet and the items are consumed
// ("all nodes that are meets of other nodes are minimal by construction;
// they are output and not considered anymore, thus avoiding a
// combinatorial explosion of the result set and dependence on the input
// order"). Lone items keep climbing; an item that reaches the root alone
// produces nothing.
//
// Execution follows §3.2's level-wise joins: each path's bucket is kept
// as a run sorted by node and scanned for groups in ascending node
// order. OIDs are dense in pre-order and one path's nodes share a depth,
// so the items a path lifts to its parent form one sorted run, which is
// merged into the parent's bucket — a merge join per level, with no
// hashing and no per-node allocation.

#ifndef MEETXML_CORE_MEET_GENERAL_H_
#define MEETXML_CORE_MEET_GENERAL_H_

#include <vector>

#include "core/input_set.h"
#include "core/restrictions.h"
#include "util/result.h"

namespace meetxml {
namespace core {

/// \brief One witness item consumed by a general meet.
struct MeetWitness {
  /// The original association.
  Assoc assoc;
  /// Index of the input set the association came from.
  size_t source;
  /// Edges between the original association and the meet node.
  int distance;
};

/// \brief One result of the general meet: a nearest-concept node plus
/// everything it covered.
struct GeneralMeet {
  Oid meet;
  PathId meet_path;
  std::vector<MeetWitness> witnesses;
  /// Edges between the two farthest witnesses (sum of the two largest
  /// witness distances) — the ranking key of paper §4.
  int witness_distance;
};

/// \brief Execution counters for benchmarks and the top-k pruning proof.
struct MeetGeneralStats {
  size_t items_seeded = 0;
  size_t lifts = 0;         // parent steps executed
  size_t paths_touched = 0; // schema paths visited by the roll-up
  /// Meets that passed the path/distance restrictions — the exact size
  /// of the unbounded answer, counted even when the bounded heap or the
  /// shared ceiling drops the candidate.
  size_t meets_found = 0;
  /// Meets whose witnesses were actually materialized (== meets_found
  /// on an unbounded run; strictly smaller when top-k pruning bites).
  size_t meets_materialized = 0;
  /// Qualifying meets rejected before witness materialization by the
  /// heap bound or the shared distance ceiling.
  size_t meets_pruned = 0;
};

/// \brief The witness order within a meet: (node, path, source).
bool WitnessBefore(const MeetWitness& a, const MeetWitness& b);

/// \brief The answer order, paper §4's ranking heuristic: fewest joins
/// (ascending witness_distance) first, then meet OID, then the witness
/// list under WitnessBefore. A total order on the meets of one call.
bool RankBefore(const GeneralMeet& a, const GeneralMeet& b);

/// \brief meet(R1, ..., Rn) over any number of association sets.
///
/// Duplicate associations (same path and node, any sources) are merged
/// into one item that remembers all sources. Results are ordered by
/// RankBefore, witnesses by WitnessBefore.
util::Result<std::vector<GeneralMeet>> MeetGeneral(
    const StoredDocument& doc, const std::vector<AssocSet>& inputs,
    const MeetOptions& options = {}, MeetGeneralStats* stats = nullptr);

/// \brief Convenience for tests: the meets of a bag of plain nodes.
util::Result<std::vector<GeneralMeet>> MeetGeneralNodes(
    const StoredDocument& doc, const std::vector<Oid>& nodes,
    const MeetOptions& options = {});

}  // namespace core
}  // namespace meetxml

#endif  // MEETXML_CORE_MEET_GENERAL_H_
