// The traced pass's view below the service. A served query is timed as
// one InProcessClient round trip; the service's own obs::QueryTrace
// (read back from its query log) splits that round trip into parse,
// route, decode, index build, per-document execute and merge. The
// benchmark then replays the work inside "execute" by calling each
// module's public functions itself — the binding evaluation
// (query::Executor on a COUNT sub-query), path matching
// (query::MatchPattern), the index probe the executor anchors on
// (text::FullTextSearch::Search) and the meet (core::MeetGeneral on the
// executor's own match sets) — plus the service's rendering and wire
// codec. Each replay is recorded as a span under the round trip. Apart
// from these, the text layer's own search of every predicate term, in
// its mode, is timed as what the text layer would take to answer the
// query; the executor calls it only for its anchor, so it is a breakdown
// and attributes no self time.

#ifndef MEETXML_BENCH_E2E_REPLAY_H_
#define MEETXML_BENCH_E2E_REPLAY_H_

#include <string>
#include <vector>

#include "core/meet_general.h"
#include "harness.h"
#include "obs/trace.h"
#include "query/ast.h"
#include "query/executor.h"
#include "server/service.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "text/search.h"

namespace e2e {

/// One predicate literal and the text-layer mode that answers it.
struct SearchTerm {
  std::string literal;
  meetxml::text::MatchMode mode;
};

struct BindingReplay {
  /// SELECT COUNT(var) over just this binding and its predicates: the
  /// executor evaluates the binding and nothing else.
  meetxml::query::Query count_query;
  /// The literal the executor probes the text index with for this
  /// binding (its first bare CONTAINS conjunct); empty when it scans.
  std::string anchor;
  /// Every predicate leaf of the binding, for the text layer's own
  /// search of each term.
  std::vector<SearchTerm> terms;
};

struct DocReplay {
  const meetxml::query::Executor* executor = nullptr;
  /// Binding and EXCLUDE patterns, as the executor matches them.
  std::vector<meetxml::query::PathPattern> patterns;
  std::vector<BindingReplay> bindings;
  /// Whether the query runs a meet on this document.
  bool meet = false;
  std::vector<meetxml::core::AssocSet> meet_inputs;
  meetxml::core::MeetOptions meet_options;
  /// meets_found of the served execution, for the consistency check.
  uint64_t served_meets_found = 0;
};

struct QueryReplay {
  std::string scope;
  std::string text;
  /// The query executed by a serial MultiExecutor with the served
  /// options: the rows the service renders, and the row counters.
  meetxml::store::MultiResult result;
  std::vector<DocReplay> docs;
};

/// Gathers everything the replays need (untimed).
Result<QueryReplay> PrepareReplay(
    const meetxml::store::Catalog& catalog, const std::string& scope,
    const std::string& text, const meetxml::query::ExecuteOptions& options);

/// What one replayed query measured, for the shape checks.
struct ReplayMeasure {
  double bind_us = 0;
  double meet_us = 0;
  uint64_t meets_found = 0;
  /// False when the round trip's stage times were missing, a replayed
  /// call failed, or a replayed meet found a different number of meets
  /// than the served execution: the replay no longer mirrors the system.
  bool consistent = true;
};

/// One QUERY round trip recorded as a "server.roundtrip" span under
/// `parent`, with the service's stage times added to the request.
/// The service must keep a query log and serve only this client.
struct TracedRoundtrip {
  meetxml::util::Result<meetxml::server::Response> response =
      Status::Internal("not run");
  uint64_t span = 0;
  /// Indexed by obs::Stage: parse, route, decode, index_build, execute,
  /// merge (µs).
  double stage_us[meetxml::obs::kStageCount] = {};
  /// False when the service logged no stage times for the round trip.
  bool staged = false;
};
TracedRoundtrip RoundtripTraced(meetxml::server::InProcessClient* client,
                                const meetxml::server::QueryService& service,
                                const std::string& scope,
                                const std::string& text, TracedRequest* request,
                                uint64_t parent);

/// Replays the layers under a traced round trip, attributes its self
/// time to server, store, query, text and core, and adds the per-layer
/// samples.
ReplayMeasure ReplayLayers(const QueryReplay& replay,
                           const TracedRoundtrip& roundtrip,
                           TracedRequest* request, LayerSamples* samples);

}  // namespace e2e

#endif  // MEETXML_BENCH_E2E_REPLAY_H_
