// Shared plumbing of the meetxml_e2e workloads: the clock, order
// statistics, the closed loop, set-up of a served catalog, span
// recording for the traced pass, and the JSON the process prints.

#ifndef MEETXML_BENCH_E2E_HARNESS_H_
#define MEETXML_BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "store/catalog.h"
#include "util/result.h"

namespace e2e {

using meetxml::util::Result;
using meetxml::util::Status;

/// Microseconds on the steady clock since the first call.
double NowUs();

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// R² of the least-squares line through (x, y); 0 when x has no spread.
double LinearFitR2(const std::vector<double>& x, const std::vector<double>& y);

std::string JsonQuote(std::string_view text);
/// Shortest round-tripping decimal; non-finite values become null.
std::string JsonNumber(double value);

/// An insertion-ordered JSON object.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Bool(std::string_view key, bool value);
  JsonObject& Raw(std::string_view key, std::string json);
  std::string Build() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named metrics with units, in the order they were added.
class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit);
  /// {"name": {"value": v, "unit": u}, ...}
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// A pass/fail check the run reports; a failed one makes the run
/// incorrect.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

/// One operation of a closed loop, issued by client thread `client`.
/// Writes the time the client waited on the system for it and returns
/// whether its answer was correct. Checking the answer is the client's
/// own work and stays out of the latency.
using OpFn = std::function<bool(int client, double* latency_us)>;

struct LoopStats {
  /// Per client, the latency of each of its operations.
  std::vector<std::vector<double>> latencies_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Adds another loop's operations, client by client.
  void Append(const LoopStats& other);
  std::vector<double> Latencies() const;
  /// Each client's operations divided by the time it spent waiting on
  /// them, summed over the clients: the answer checks between operations
  /// do not count.
  double OpsPerSecond() const;
};

/// Runs `clients` threads; each issues its next operation only after the
/// previous one returned, until `seconds` have passed.
LoopStats RunClosedLoop(int clients, double seconds, const OpFn& op);

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One from-scratch set-up of a served catalog, step by step.
struct SetupSample {
  double total_s = 0;
  double shred_ms = 0;
  double add_ms = 0;
  double index_ms = 0;
  double save_ms = 0;
  double open_ms = 0;
  double warm_ms = 0;
  uint64_t xml_bytes = 0;
  uint64_t image_bytes = 0;
};

/// model::BulkShredXmlFile on every file → Catalog::Add (named after
/// the file stem) + EnsureIndex → SaveToFile(image) → lazy view-mode
/// Catalog::LoadFromFile → Warm(true). Returns the catalog that serves.
Result<meetxml::store::Catalog> SetUpCatalog(
    const std::vector<std::string>& files, const std::string& image,
    SetupSample* sample);

/// "dir/dblp_3.xml" → "dblp_3".
std::string FileStem(const std::string& path);

/// Lines of a text file, without their newlines; empty lines dropped.
Result<std::vector<std::string>> ReadLines(const std::string& path);
/// Splits an input line on tabs; it must hold exactly `fields` fields.
Result<std::vector<std::string>> SplitTabs(std::string_view line,
                                           size_t fields);

/// Execute options equal to what QueryService::HandleQuery hands
/// MultiExecutor under the default session policy: the byte cap pushed
/// down as a row hint.
meetxml::query::ExecuteOptions ServedExecuteOptions(unsigned merge_threads);

/// The rows of a rendered result table (query::RenderTable), each split
/// on runs of spaces. Meet tables have no spaces inside cells.
std::vector<std::vector<std::string>> TableRows(std::string_view table);

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

/// The layers self time is attributed to, named after src/ modules.
enum Layer { kServer, kStore, kQuery, kText, kCore, kModel, kLayerCount };
const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: the request's root
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

/// One traced operation: the spans the benchmark timed around its calls
/// into each layer, the stage times the service's own obs::QueryTrace
/// reported for the round trips, and the resulting self time per layer.
struct TracedRequest {
  uint64_t id = 0;
  std::string op;
  double op_us = 0;
  std::vector<Span> spans;
  std::map<std::string, double> stages_us;
  double self_us[kLayerCount] = {};
  /// Self times that came out negative before clamping to 0, and the
  /// time the clamping added.
  int clamped = 0;
  double clamped_us = 0;

  /// Times `fn` and records it as a span; returns the span id.
  template <typename Fn>
  uint64_t Time(uint64_t parent, std::string name, Fn&& fn) {
    double start = NowUs();
    fn();
    return Record(parent, std::move(name), start, NowUs());
  }
  uint64_t Record(uint64_t parent, std::string name, double start_us,
                  double end_us);
  double Duration(uint64_t span) const;
  /// Adds `us` to a layer's self time, clamping a negative share to 0.
  void Attribute(Layer layer, double us);
};

/// Writes the traced requests as one JSON document.
Status WriteTraceFile(const std::string& path, std::string_view workload,
                      const std::vector<TracedRequest>& requests);

/// Per-layer samples gathered over the traced pass, by metric name.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  double MeanOf(const std::string& name) const;
  double SumOf(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace e2e

#endif  // MEETXML_BENCH_E2E_HARNESS_H_
