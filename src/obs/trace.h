// Per-query stage tracing and the ring-buffered query log.
//
// A QueryTrace rides along one query dispatch and collects where the
// time went, in the stages of the multi-document pipeline
// (store/multi_executor.h): parse -> route/scope match -> per-document
// lazy decode -> per-document executor/index build -> per-document
// execute -> global merge/re-rank. The decode and index-build stages
// surface the lazy-open debt a query pays on first touch
// (store/catalog.h's PendingDecode): after a lazy open, the first
// query against a document carries nonzero decode time and later ones
// carry none — exactly the breakdown "where did this query's 40 ms
// go?" needs.
//
// The trace carries its own microsecond clock so tests inject a fake
// and pin stage times exactly (no wall-clock sleeps). Stage
// accumulators are atomics because the per-document stages run on the
// fan-out pool; per-document slots are pre-sized before the fan-out
// and each worker writes only its own index, so the vector itself
// needs no lock: every worker's finished item is a release increment
// of ParallelFor's `done` counter, and the caller's acquire load that
// sees done == count publishes the writes before ParallelFor returns.
//
// Finished traces land in a QueryLog — a fixed-capacity ring of the
// most recent queries with a slow-query flag — which kDump renders so
// a live server's recent history is one opcode away.

#ifndef MEETXML_OBS_TRACE_H_
#define MEETXML_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace meetxml {
namespace obs {

/// \brief The stages of one multi-document query dispatch.
enum class Stage : uint8_t {
  kParse = 0,
  kRoute = 1,
  kDecode = 2,
  kIndexBuild = 3,
  kExecute = 4,
  kMerge = 5,
};
inline constexpr size_t kStageCount = 6;

/// \brief Exposition label of a stage ("parse", "route", "decode",
/// "index_build", "execute", "merge").
std::string_view StageName(Stage stage);

/// \brief One document's share of a traced query. Each fan-out worker
/// owns exactly one slot (no locking; see the class comment).
struct DocTrace {
  std::string name;
  uint64_t decode_us = 0;
  uint64_t index_build_us = 0;
  uint64_t execute_us = 0;
};

/// \brief Collects stage timings for one query dispatch.
class QueryTrace {
 public:
  /// Null clock means MonotonicMicros. Tests inject a stepping fake.
  explicit QueryTrace(std::function<uint64_t()> clock_us = {})
      : clock_us_(std::move(clock_us)) {}

  uint64_t Now() const {
    return clock_us_ ? clock_us_() : MonotonicMicros();
  }

  /// \brief Attributes `us` to a stage. Callable from fan-out workers.
  void Add(Stage stage, uint64_t us) {
    stage_us_[static_cast<size_t>(stage)].fetch_add(
        us, std::memory_order_relaxed);
  }

  uint64_t stage_us(Stage stage) const {
    return stage_us_[static_cast<size_t>(stage)].load(
        std::memory_order_relaxed);
  }

  /// \brief Sum of every stage accumulator.
  uint64_t TotalStageUs() const;

  /// \brief Pre-sizes the per-document slots (one per routed
  /// document). Call before the fan-out; workers then fill slot i for
  /// document i only.
  void SetDocs(const std::vector<std::string>& names);
  DocTrace* doc(size_t index) { return &docs_[index]; }
  const std::vector<DocTrace>& docs() const { return docs_; }

 private:
  std::function<uint64_t()> clock_us_;
  std::atomic<uint64_t> stage_us_[kStageCount] = {};
  std::vector<DocTrace> docs_;
};

/// \brief RAII span: measures from construction to Stop()/destruction
/// on the trace's clock and attributes the elapsed time to `stage` —
/// and, when `also` is given, to a per-document slot field. Null trace
/// makes the span free (no clock reads). Spans nest: a child span's
/// time is also inside its enclosing span's wall time, so sibling
/// stages decompose their parent.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, Stage stage, uint64_t* also = nullptr)
      : trace_(trace), stage_(stage), also_(also),
        start_(trace ? trace->Now() : 0) {}
  ~TraceSpan() { Stop(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// \brief Ends the span early; idempotent. Returns the elapsed
  /// microseconds (0 for a null trace).
  uint64_t Stop();

 private:
  QueryTrace* trace_;
  Stage stage_;
  uint64_t* also_;
  uint64_t start_;
  bool stopped_ = false;
  uint64_t elapsed_ = 0;
};

/// \brief One finished query in the log.
struct QueryLogEntry {
  uint64_t when_ms = 0;
  uint64_t session_id = 0;
  std::string scope;
  std::string query;  // truncated to a display budget by the pusher
  uint64_t total_us = 0;
  uint64_t stage_us[kStageCount] = {};
  uint64_t rows = 0;
  bool ok = false;
  bool slow = false;
};

/// \brief Fixed-capacity ring of the most recent queries. Push is one
/// short mutex hold per finished query (not per hot-path event);
/// Snapshot returns oldest-first.
class QueryLog {
 public:
  explicit QueryLog(size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Push(QueryLogEntry entry);
  std::vector<QueryLogEntry> Snapshot() const;
  /// \brief Total entries ever pushed (>= Snapshot().size()).
  uint64_t total_pushed() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<QueryLogEntry> entries_;
  uint64_t total_pushed_ = 0;
};

/// \brief Records a finished trace's stage breakdown into `registry`
/// as `meetxml_query_stage_us{stage="…"}` histograms (one sample per
/// non-empty stage; per-document stages one sample per document) and
/// bumps `meetxml_query_rows_total`. Shared by the service dispatch
/// and the interactive shell so both expose the same series.
void RecordStageHistograms(MetricsRegistry* registry,
                           const QueryTrace& trace, uint64_t rows);

}  // namespace obs
}  // namespace meetxml

#endif  // MEETXML_OBS_TRACE_H_
