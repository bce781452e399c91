#include "obs/metrics.h"

#include <bit>
#include <chrono>
#include <type_traits>

#include "util/threads.h"

namespace meetxml {
namespace obs {

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShardCount;
  return shard;
}

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t Histogram::BucketIndex(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value));
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index == 0) return 0;
  if (index >= 64) return ~uint64_t{0};
  return (uint64_t{1} << index) - 1;
}

std::vector<uint64_t> Histogram::MergedBuckets() const {
  std::vector<uint64_t> merged(kBucketCount, 0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kBucketCount; ++i) {
      merged[i] += shard.counts[i].load(std::memory_order_acquire);
    }
  }
  return merged;
}

HistogramSummary Histogram::Summary() const {
  std::vector<uint64_t> buckets = MergedBuckets();
  HistogramSummary out;
  for (uint64_t count : buckets) out.count += count;
  for (const Shard& shard : shards_) {
    out.sum += shard.sum.load(std::memory_order_acquire);
  }
  if (out.count == 0) return out;
  // A quantile resolves to the upper bound of the bucket holding the
  // ceil(q * count)-th smallest sample — deterministic, and exact for
  // single-valued buckets, which is what the pinned-clock tests use.
  auto quantile = [&](double q) {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(out.count));
    if (rank == 0) rank = 1;
    if (rank > out.count) rank = out.count;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen >= rank) return BucketUpperBound(i);
    }
    return BucketUpperBound(buckets.size() - 1);
  };
  out.p50 = quantile(0.50);
  out.p90 = quantile(0.90);
  out.p99 = quantile(0.99);
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* global = new MetricsRegistry();
    global->counter("meetxml_threads_started_total").tally_ =
        &util::ThreadsStarted;
    return global;
  }();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::Lookup(std::string_view name,
                                                std::string_view labels,
                                                Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[Key(std::string(name), std::string(labels))];
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      if (entry.counter == nullptr) entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      if (entry.gauge == nullptr) entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      if (entry.histogram == nullptr) {
        entry.histogram = std::make_unique<Histogram>();
      }
      break;
  }
  return entry;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view labels) {
  return *Lookup(name, labels, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              std::string_view labels) {
  return *Lookup(name, labels, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view labels) {
  return *Lookup(name, labels, Kind::kHistogram).histogram;
}

namespace {

template <typename... Args>
void Append(std::string* out, Args&&... args) {
  auto piece = [out](auto&& value) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(value)>>) {
      out->append(std::to_string(value));
    } else {
      out->append(std::string_view(value));
    }
  };
  (piece(std::forward<Args>(args)), ...);
}

std::string WithLabels(const std::string& name, const std::string& labels,
                       std::string_view extra = "") {
  std::string out = name;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string typed_name;  // last name a # TYPE line was emitted for
  for (const auto& [key, entry] : entries_) {
    const auto& [name, labels] = key;
    const char* type = entry.kind == Kind::kCounter   ? "counter"
                       : entry.kind == Kind::kGauge   ? "gauge"
                                                      : "summary";
    if (entry.kind == Kind::kHistogram) {
      HistogramSummary summary = entry.histogram->Summary();
      if (summary.count == 0) continue;
      if (name != typed_name) {
        Append(&out, "# TYPE ", name, " ", type, "\n");
        typed_name = name;
      }
      Append(&out, WithLabels(name, labels, "quantile=\"0.5\""), " ",
             summary.p50, "\n");
      Append(&out, WithLabels(name, labels, "quantile=\"0.9\""), " ",
             summary.p90, "\n");
      Append(&out, WithLabels(name, labels, "quantile=\"0.99\""), " ",
             summary.p99, "\n");
      Append(&out, WithLabels(name + "_sum", labels), " ", summary.sum,
             "\n");
      Append(&out, WithLabels(name + "_count", labels), " ", summary.count,
             "\n");
      continue;
    }
    if (name != typed_name) {
      Append(&out, "# TYPE ", name, " ", type, "\n");
      typed_name = name;
    }
    if (entry.kind == Kind::kCounter) {
      Append(&out, WithLabels(name, labels), " ", entry.counter->Value(),
             "\n");
    } else {
      Append(&out, WithLabels(name, labels), " ", entry.gauge->Value(),
             "\n");
    }
  }
  return out;
}

std::vector<NamedSummary> MetricsRegistry::HistogramSummaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NamedSummary> out;
  for (const auto& [key, entry] : entries_) {
    if (entry.histogram == nullptr) continue;
    HistogramSummary summary = entry.histogram->Summary();
    if (summary.count == 0) continue;
    out.push_back(NamedSummary{WithLabels(key.first, key.second), summary});
  }
  return out;
}

}  // namespace obs
}  // namespace meetxml
