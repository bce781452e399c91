// Result restrictions for the meet operator (paper §4): type (path)
// restrictions meet_X, the distance bound of d-meet, and the top-k
// bound on the join-count ranking.

#ifndef MEETXML_CORE_RESTRICTIONS_H_
#define MEETXML_CORE_RESTRICTIONS_H_

#include <atomic>
#include <limits>
#include <unordered_set>

#include "bat/oid.h"
#include "model/document.h"

namespace meetxml {
namespace core {

/// \brief Options applied to set-at-a-time meet results.
struct MeetOptions {
  /// Paths whose nodes may not be reported as meets (the paper's set X;
  /// typically the document root, "by setting X to {bibliography} we can
  /// filter out uninteresting matches").
  std::unordered_set<bat::PathId> excluded_paths;

  /// If non-empty, only these paths may be reported as meets (the
  /// complementary whitelist form; the paper phrases meet_X as a
  /// blacklist, a whitelist implements "restricting the result types ...
  /// can be used to implement keyword search as a special case").
  std::unordered_set<bat::PathId> allowed_paths;

  /// Maximum witness span in edges: a meet is dropped when its two
  /// farthest witnesses are more than this many edges apart (d-meet).
  int max_distance = std::numeric_limits<int>::max();

  /// Stop after this many results (0 = unlimited). A bounded run keeps a
  /// size-k heap instead of the full result vector, so memory is O(k)
  /// and candidates provably outside the top k skip witness
  /// materialization entirely. The unbounded mode serves
  /// MeetGeneralNodes and cross-document lookup.
  size_t max_results = 0;

  /// Optional distance ceiling shared across a multi-document fan-out:
  /// candidates strictly farther than the loaded value are pruned
  /// before witness materialization. Relaxed loads only — the bound is
  /// a monotone hint, and a stale read merely materializes a candidate
  /// the global merge would discard anyway, so the merged answer stays
  /// exact.
  const std::atomic<int>* shared_max_distance = nullptr;

  /// \brief True if a node at `path` may be reported.
  bool PathAllowed(bat::PathId path) const {
    if (excluded_paths.count(path)) return false;
    if (!allowed_paths.empty() && !allowed_paths.count(path)) return false;
    return true;
  }
};

/// \brief Convenience: options that exclude the document root — the
/// configuration of the paper's DBLP case study (§5).
inline MeetOptions ExcludeRootOptions(const model::StoredDocument& doc) {
  MeetOptions options;
  options.excluded_paths.insert(doc.path(doc.root()));
  return options;
}

}  // namespace core
}  // namespace meetxml

#endif  // MEETXML_CORE_RESTRICTIONS_H_
