#include <sys/resource.h>

#include <cstdio>

#include "obs/metrics.h"
#include "workloads.h"

namespace e2e {

namespace {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename Field>
double MedianOver(const std::vector<SetupSample>& setups, Field field) {
  std::vector<double> values;
  for (const SetupSample& sample : setups) values.push_back(field(sample));
  return Median(values);
}

double MeanSelf(const std::vector<TracedRequest>& requests, Layer layer) {
  std::vector<double> values;
  for (const TracedRequest& request : requests) {
    values.push_back(request.self_us[layer]);
  }
  return Mean(values);
}

}  // namespace

void AddEndToEnd(const std::vector<SetupSample>& setups,
                 const LoopStats& window, RunOutput* out) {
  const SetupSample& serving = setups.back();
  out->end_to_end.Add(
      "setup_s", MedianOver(setups, [](const SetupSample& s) {
        return s.total_s;
      }),
      "s");
  const std::vector<double> latencies = window.Latencies();
  out->end_to_end.Add("ops_per_s", window.OpsPerSecond(), "ops/s");
  out->end_to_end.Add("p50_us", Quantile(latencies, 0.50), "us");
  out->end_to_end.Add("p99_us", Quantile(latencies, 0.99), "us");
  out->end_to_end.Add("peak_rss_mb", PeakRssMb(), "MB");
  out->end_to_end.Add("image_bytes_per_xml_byte",
                      static_cast<double>(serving.image_bytes) /
                          static_cast<double>(serving.xml_bytes),
                      "ratio");
  std::string setup_samples = "[";
  for (size_t i = 0; i < setups.size(); ++i) {
    setup_samples += (i > 0 ? ", " : "") + JsonNumber(setups[i].total_s);
  }
  setup_samples += "]";
  JsonObject steps;
  steps.Num("shred", MedianOver(setups, [](const SetupSample& s) {
         return s.shred_ms;
       }))
      .Num("add", MedianOver(setups, [](const SetupSample& s) {
         return s.add_ms;
       }))
      .Num("index", MedianOver(setups, [](const SetupSample& s) {
         return s.index_ms;
       }))
      .Num("save", MedianOver(setups, [](const SetupSample& s) {
         return s.save_ms;
       }))
      .Num("open", MedianOver(setups, [](const SetupSample& s) {
         return s.open_ms;
       }))
      .Num("warm", MedianOver(setups, [](const SetupSample& s) {
         return s.warm_ms;
       }));
  out->info.Raw("setup_s_samples", setup_samples)
      .Raw("setup_step_median_ms", steps.Build());
  out->info.Num("samples", static_cast<double>(latencies.size()))
      .Num("window_failed", static_cast<double>(window.failed))
      .Num("error_rate", window.attempted == 0
                             ? 0
                             : static_cast<double>(window.failed) /
                                   static_cast<double>(window.attempted))
      .Num("xml_bytes", static_cast<double>(serving.xml_bytes))
      .Num("image_bytes", static_cast<double>(serving.image_bytes));
}

namespace {

// Every per-layer metric listed in BENCHMARK.json.
void AddPerLayer(const TracedPass& in, RunOutput* out) {
  const LayerSamples& s = *in.samples;
  const std::vector<TracedRequest>& requests = *in.requests;
  const std::vector<SetupSample>& setups = *in.setups;
  MetricSet& m = out->per_layer;

  m.Add("server.roundtrip_us", s.MeanOf("server.roundtrip_us"), "us");
  m.Add("server.self_us", MeanSelf(requests, kServer), "us");
  m.Add("server.render_us", s.MeanOf("server.render_us"), "us");
  m.Add("server.codec_us", s.MeanOf("server.codec_us"), "us");
  m.Add("server.response_bytes", s.MeanOf("server.response_bytes"), "bytes");

  m.Add("query.parse_us", s.MeanOf("query.parse_us"), "us");
  m.Add("query.path_match_us", s.MeanOf("query.path_match_us"), "us");
  m.Add("query.bind_us", s.MeanOf("query.bind_us"), "us");
  m.Add("query.execute_us", s.MeanOf("query.execute_us"), "us");
  m.Add("query.self_us", MeanSelf(requests, kQuery), "us");

  m.Add("store.execute_us", s.MeanOf("store.execute_us"), "us");
  m.Add("store.self_us", MeanSelf(requests, kStore), "us");
  m.Add("store.route_us", s.MeanOf("store.route_us"), "us");
  m.Add("store.merge_us", s.MeanOf("store.merge_us"), "us");
  // Per-document lazy decode, from the catalog's own histogram: every
  // set-up warm-up decodes each document once, and store_churn decodes
  // on first touch after each reopen.
  meetxml::obs::HistogramSummary decode =
      meetxml::obs::MetricsRegistry::Global()
          .histogram("meetxml_catalog_decode_us")
          .Summary();
  m.Add("store.decode_us",
        decode.count > 0 ? static_cast<double>(decode.sum) /
                               static_cast<double>(decode.count)
                         : 0,
        "us");
  m.Add("store.rows_found", s.MeanOf("store.rows_found"), "count");
  m.Add("store.rows_examined", s.MeanOf("store.rows_examined"), "count");
  m.Add("store.rows_pruned", s.MeanOf("store.rows_pruned"), "count");
  double returned = s.SumOf("store.rows_returned");
  m.Add("store.examined_per_returned",
        returned > 0 ? s.SumOf("store.rows_examined") / returned : 0,
        "ratio");
  // Opens and saves of the set-ups count beside the workload's own.
  StoreCalls store = in.store != nullptr ? *in.store : StoreCalls{};
  for (const SetupSample& sample : setups) {
    store.open_us.push_back(sample.open_ms * 1e3);
    store.save_us.push_back(sample.save_ms * 1e3);
    store.save_bytes.push_back(static_cast<double>(sample.image_bytes));
  }
  m.Add("store.open_us", Median(store.open_us), "us");
  m.Add("store.save_us", Median(store.save_us), "us");
  m.Add("store.save_bytes_appended", Mean(store.save_bytes), "bytes");
  m.Add("store.compactions_per_1k_saves",
        store.in_place_saves == 0
            ? 0
            : 1000.0 * static_cast<double>(store.compactions) /
                  static_cast<double>(store.in_place_saves),
        "count");
  m.Add("store.warm_ms",
        MedianOver(setups, [](const SetupSample& x) { return x.warm_ms; }),
        "ms");

  m.Add("text.search_us", s.MeanOf("text.search_us"), "us");
  m.Add("text.postings", s.MeanOf("text.postings"), "count");
  m.Add("text.index_build_ms",
        MedianOver(setups, [](const SetupSample& x) { return x.index_ms; }),
        "ms");

  double meet = s.MeanOf("core.meet_us");
  double bind = s.MeanOf("query.bind_us");
  m.Add("core.meet_us", meet, "us");
  m.Add("core.items_seeded", s.MeanOf("core.items_seeded"), "count");
  m.Add("core.lifts", s.MeanOf("core.lifts"), "count");
  m.Add("core.paths_touched", s.MeanOf("core.paths_touched"), "count");
  m.Add("core.meets_found", s.MeanOf("core.meets_found"), "count");
  m.Add("core.meets_materialized", s.MeanOf("core.meets_materialized"),
        "count");
  m.Add("core.meets_pruned", s.MeanOf("core.meets_pruned"), "count");
  m.Add("core.meet_share", bind + meet > 0 ? meet / (bind + meet) : 0,
        "ratio");
  m.Add("core.fig7_r2", in.fig7_r2, "ratio");

  double shred_ms =
      MedianOver(setups, [](const SetupSample& x) { return x.shred_ms; });
  m.Add("model.shred_ms", shred_ms, "ms");
  m.Add("model.shred_mb_per_s",
        shred_ms > 0 ? static_cast<double>(setups.back().xml_bytes) / 1e6 /
                           (shred_ms / 1e3)
                     : 0,
        "MB/s");

  std::vector<double> op_us;
  for (const TracedRequest& request : requests) op_us.push_back(request.op_us);
  m.Add("trace.overhead_pct",
        in.untraced_p50_us > 0
            ? 100.0 * (Median(op_us) - in.untraced_p50_us) / in.untraced_p50_us
            : 0,
        "%");
  m.Add("trace.ops", static_cast<double>(requests.size()), "count");
}

// The layer self times add up to the traced op time by construction: each
// share is what is left of a stage once the replays inside it are taken
// out. Only a replay that outran its stage breaks that; its negative
// share is clamped to 0, which adds time. This bounds the added time at
// 5% of the traced op time.
Check ClampedShareCheck(const std::vector<TracedRequest>& requests) {
  double op = 0, added = 0;
  size_t clamped = 0;
  for (const TracedRequest& request : requests) {
    op += request.op_us;
    added += request.clamped_us;
    clamped += static_cast<size_t>(request.clamped);
  }
  double share = op > 0 ? added / op : 0;
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%zu negative self-time shares clamped to 0, adding %.3f%% "
                "of the traced op time",
                clamped, 100.0 * share);
  return Check{"trace.clamped_share", share <= 0.05, detail};
}

}  // namespace

Status FinishTracedPass(const RunConfig& config, const TracedPass& pass,
                        RunOutput* out) {
  AddPerLayer(pass, out);
  out->checks.push_back(ClampedShareCheck(*pass.requests));
  out->checks.push_back(Check{
      "trace.replay_consistent", pass.inconsistent == 0,
      std::to_string(pass.inconsistent) +
          " traced round trips whose replay did not mirror the served "
          "execution"});
  if (config.trace_file.empty()) return Status::OK();
  return WriteTraceFile(config.trace_file, config.workload, *pass.requests);
}

}  // namespace e2e
