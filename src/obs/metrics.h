// Observability primitives: a process-wide registry of named counters,
// gauges and log-bucketed latency histograms.
//
// The serving stack (server/service.h dispatch, the worker pool, the
// catalog's lazy decode path, bulk load) records into these on its hot
// paths, so the design goal is "one relaxed atomic add per event":
// counters and histograms are sharded into cache-line-sized per-thread
// cells and merged only when somebody reads them. Reads are exact with
// respect to everything that happened-before the read through external
// synchronization (a joined thread, a mutex handoff, the connection
// strand) — the same visibility contract the session table already
// gives the stats path.
//
// Nothing here reads a clock: callers record durations they measured
// themselves, which is what keeps tests deterministic — inject a fake
// clock where the duration is produced (obs/trace.h, ServiceOptions,
// WorkerPoolOptions) and the histograms pin exactly.
//
// Lookup by name takes a mutex; hot paths resolve their handles once
// (at service construction or behind a function-local static) and then
// only touch atomics. Returned references stay valid for the
// registry's lifetime.

#ifndef MEETXML_OBS_METRICS_H_
#define MEETXML_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace meetxml {
namespace obs {

/// \brief Shards per sharded metric. Threads hash onto shards, so this
/// bounds contention, not thread count; a power of two keeps the
/// modulo a mask.
inline constexpr size_t kShardCount = 8;

/// \brief The calling thread's shard, assigned round-robin on first
/// use — stable for the thread's lifetime.
size_t ThisThreadShard();

/// \brief Monotonic microseconds — the production clock behind every
/// injected-clock seam in this layer.
uint64_t MonotonicMicros();

/// \brief A sharded monotonic counter: Add is one relaxed-ordered
/// atomic add on the caller's shard; Value merges the shards.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    cells_[ThisThreadShard()].value.fetch_add(delta,
                                              std::memory_order_release);
  }

  /// \brief The merged shards, plus the bound tally if any.
  uint64_t Value() const {
    uint64_t total = tally_ != nullptr ? tally_() : 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_acquire);
    }
    return total;
  }

 private:
  friend class MetricsRegistry;

  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kShardCount];
  // A monotonic tally kept by a layer below obs (which cannot include
  // this header), read through on every Value().
  uint64_t (*tally_)() = nullptr;
};

/// \brief A point-in-time signed value (queue depth, active sessions,
/// bytes mapped). Single cell: gauges move on slow paths or by ±1.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_release); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_acq_rel);
  }
  int64_t Value() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Merged view of one histogram: totals plus quantile estimates
/// (bucket upper bounds — see Histogram::BucketUpperBound).
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
};

/// \brief A log-bucketed histogram of unsigned values (typically
/// microseconds). Bucket i holds the values with bit width i — 0 in
/// bucket 0, 1 in bucket 1, [2,3] in bucket 2, [4,7] in bucket 3 … —
/// so Record is "count leading zeros + one relaxed add" with no
/// per-value allocation, and quantiles come back as deterministic
/// bucket upper bounds (exactly reproducible in tests).
class Histogram {
 public:
  /// One bucket per possible bit width of a uint64_t.
  static constexpr size_t kBucketCount = 65;

  static size_t BucketIndex(uint64_t value);
  /// \brief The largest value bucket `index` admits (0, 1, 3, 7, …).
  static uint64_t BucketUpperBound(size_t index);

  void Record(uint64_t value) {
    Shard& shard = shards_[ThisThreadShard()];
    shard.counts[BucketIndex(value)].fetch_add(1,
                                               std::memory_order_release);
    shard.sum.fetch_add(value, std::memory_order_release);
  }

  /// \brief Merged bucket counts (kBucketCount entries).
  std::vector<uint64_t> MergedBuckets() const;

  HistogramSummary Summary() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kBucketCount] = {};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kShardCount];
};

/// \brief One named histogram's merged summary, as exported by kStats
/// v2 (server/protocol.h keeps a wire-struct mirror of this).
struct NamedSummary {
  /// Exposition-style name: `name` or `name{labels}`.
  std::string name;
  HistogramSummary summary;
};

/// \brief A registry of named metrics. `Global()` is the process-wide
/// instance everything instruments by default; tests build their own
/// for isolation. Metrics are identified by (name, labels) where
/// labels is a raw Prometheus label body like `op="query"` (may be
/// empty); the first lookup creates the metric, later lookups return
/// the same object. Thread-safe; returned references never move.
///
/// `Global()` also carries meetxml_threads_started_total, bound to
/// util::ThreadsStarted(): the helper threads util::ParallelFor's pool
/// has started. It grows while the pool does, then stays flat.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& counter(std::string_view name, std::string_view labels = "");
  Gauge& gauge(std::string_view name, std::string_view labels = "");
  Histogram& histogram(std::string_view name, std::string_view labels = "");

  /// \brief Prometheus text exposition: counters and gauges as single
  /// samples, histograms as summaries (`{quantile="…"}` samples plus
  /// `_sum` / `_count`). Deterministic order (sorted by name, then
  /// labels); empty histograms are skipped.
  std::string RenderPrometheus() const;

  /// \brief Every non-empty histogram's merged summary, sorted — the
  /// payload of a kStats v2 reply.
  std::vector<NamedSummary> HistogramSummaries() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  Entry& Lookup(std::string_view name, std::string_view labels, Kind kind);

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
};

}  // namespace obs
}  // namespace meetxml

#endif  // MEETXML_OBS_METRICS_H_
