// The four meetxml_e2e workloads and what a run of one reports.
//
//   fig7_icde    paper Fig. 7: the DBLP case study's 16 interval queries
//   fig6_scan    paper Fig. 6: planted marker pairs behind ICONTAINS scans
//   fanout_topk  8 documents, 2 clients, a seeded mix of short queries
//   store_churn  reopen, query, replace and save a 32-document image
//
// Inputs come from GenerateInputs, in a process of their own; a
// workload run reads only the files it wrote.

#ifndef MEETXML_BENCH_E2E_WORKLOADS_H_
#define MEETXML_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  /// The directory GenerateInputs wrote for this workload.
  std::string inputs;
  /// Where the run may write store images.
  std::string scratch;
  double seconds = 22;
  double warmup_seconds = 2;
  /// From-scratch set-ups. The window is cut into as many equal
  /// segments, and each set-up serves the segment after it, so the
  /// set-ups are spread over the run instead of falling together into
  /// one slow or fast stretch of the machine.
  int setups = 5;
  bool trace = false;
  std::string trace_file;
};

/// The traced pass stops after this many operations or after the
/// window's length, whichever comes first.
inline constexpr size_t kTracedOps = 2000;

struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  std::vector<Check> checks;
  JsonObject info;
};

const std::vector<std::string>& WorkloadNames();

/// Writes the seeded inputs of `workload` (XML files plus the ground
/// truth and operation streams the oracles and clients use) into `dir`.
Status GenerateInputs(const std::string& workload, uint64_t seed,
                      const std::string& dir);

Result<RunOutput> RunQueryWorkload(const RunConfig& config);
Result<RunOutput> RunChurnWorkload(const RunConfig& config);

// ---------------------------------------------------------------------------
// Reporting shared by the workloads
// ---------------------------------------------------------------------------

/// Adds the end-to-end metrics: setup_s, ops_per_s, p50_us, p99_us,
/// peak_rss_mb and image_bytes_per_xml_byte.
void AddEndToEnd(const std::vector<SetupSample>& setups,
                 const LoopStats& window, RunOutput* out);

/// Store calls a workload timed outside the query path (the churn
/// cycles' opens and saves); the set-ups' are added to them.
struct StoreCalls {
  std::vector<double> open_us;
  std::vector<double> save_us;
  std::vector<double> save_bytes;
  uint64_t in_place_saves = 0;
  uint64_t compactions = 0;
};

/// What a traced pass gathered.
struct TracedPass {
  const std::vector<SetupSample>* setups = nullptr;
  const std::vector<TracedRequest>* requests = nullptr;
  const LayerSamples* samples = nullptr;
  /// Null when the workload makes no store calls of its own.
  const StoreCalls* store = nullptr;
  /// p50 of the untraced window, for the tracing overhead.
  double untraced_p50_us = 0;
  double fig7_r2 = 0;
  /// Traced round trips whose replay did not mirror the served execution.
  uint64_t inconsistent = 0;
};

/// Adds every per-layer metric listed in BENCHMARK.json and the checks
/// that the trace accounts for the operations, and writes the trace file
/// when the run asked for one.
Status FinishTracedPass(const RunConfig& config, const TracedPass& pass,
                        RunOutput* out);

}  // namespace e2e

#endif  // MEETXML_BENCH_E2E_WORKLOADS_H_
