// store_churn: writes beside reads on one thread. Each cycle reopens the
// image lazily, queries two documents through a fresh QueryService,
// replaces one document from a pre-generated pool and saves in place.
// The oracle: after every reopen, the document replaced last cycle must
// answer exactly as the in-memory document did before that save.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/shredder.h"
#include "replay.h"
#include "server/service.h"
#include "store/multi_executor.h"
#include "util/file_io.h"
#include "workloads.h"

namespace e2e {

namespace server = meetxml::server;
namespace store = meetxml::store;

namespace {

struct Cycle {
  size_t replace;
  size_t pool;
  size_t probe;
  std::string venue;
};

std::string VenueQuery(const std::string& venue) {
  return "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b WHERE a "
         "CONTAINS '" +
         venue + "' AND b CONTAINS '19' EXCLUDE dblp";
}

class Churn {
 public:
  Status Load(const std::string& dir) {
    MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> docs,
                             ReadLines(dir + "/docs.txt"));
    for (const std::string& file : docs) {
      files_.push_back(dir + "/" + file);
      names_.push_back(FileStem(file));
    }
    MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> pool,
                             ReadLines(dir + "/pool.txt"));
    for (const std::string& file : pool) {
      MEETXML_ASSIGN_OR_RETURN(
          std::string xml, meetxml::util::ReadFileToString(dir + "/" + file));
      pool_xml_.push_back(std::move(xml));
    }
    MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                             ReadLines(dir + "/ops.tsv"));
    for (const std::string& line : lines) {
      MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> f,
                               SplitTabs(line, 4));
      Cycle cycle{std::stoul(f[0]), std::stoul(f[1]), std::stoul(f[2]), f[3]};
      if (cycle.replace >= names_.size() || cycle.probe >= names_.size() ||
          cycle.pool >= pool_xml_.size()) {
        return Status::InvalidArgument("churn cycle out of range: ", line);
      }
      cycles_.push_back(std::move(cycle));
    }
    if (cycles_.empty()) return Status::InvalidArgument("no churn cycles");
    return Status::OK();
  }

  const std::vector<std::string>& files() const { return files_; }
  void set_image(std::string image) { image_ = std::move(image); }
  /// The image was set up afresh: no replacement is pending a read-back.
  void Restart() { pending_.reset(); }
  const StoreCalls& store_calls() const { return store_calls_; }
  /// Traced queries whose replay did not mirror the served execution.
  uint64_t inconsistent() const { return inconsistent_; }

  /// One cycle. Untraced, its latency is the wall time from the open to
  /// the end of the save. Traced (request non-null), every step is a
  /// span, the queries are decomposed by replays, and the latency is the
  /// sum of the steps, which leaves the replays out.
  Result<bool> RunCycle(TracedRequest* request, LayerSamples* samples,
                        double* latency_us) {
    const Cycle& cycle = cycles_[next_cycle_++ % cycles_.size()];
    bool ok = true;
    double cycle_start = NowUs();
    auto step = [&](const char* name, Layer layer, double start) {
      double end = NowUs();
      if (request != nullptr) {
        request->Record(0, name, start, end);
        request->Attribute(layer, end - start);
      }
      return end - start;
    };

    double start = NowUs();
    store::CatalogLoadOptions load;
    load.lazy = true;
    load.mode = meetxml::model::LoadMode::kView;
    MEETXML_ASSIGN_OR_RETURN(store::Catalog catalog,
                             store::Catalog::LoadFromFile(image_, load));
    store_calls_.open_us.push_back(step("store.open", kStore, start));

    {
      start = NowUs();
      auto service =
          std::make_unique<server::QueryService>(&catalog, ServiceOptions());
      MEETXML_ASSIGN_OR_RETURN(server::InProcessClient client,
                               server::InProcessClient::Connect(&*service));
      MEETXML_RETURN_NOT_OK(client.Hello().status());
      step("server.session", kServer, start);

      // The first query re-reads last cycle's replacement, which this
      // open decodes on first touch; the second probes a random one.
      const std::string first_name =
          pending_.has_value() ? pending_->name : names_[cycle.probe];
      const std::string first_text = pending_.has_value()
                                         ? pending_->text
                                         : VenueQuery(cycle.venue);
      auto first = Query(&client, *service, catalog, first_name, first_text,
                         request, samples);
      if (!first.ok()) return first.status();
      if (pending_.has_value()) {
        ok = ok && first->ok && first->table == pending_->table &&
             first->row_count == pending_->rows;
      } else {
        ok = ok && first->ok;
      }
      auto second = Query(&client, *service, catalog, names_[cycle.probe],
                          VenueQuery(cycle.venue), request, samples);
      if (!second.ok()) return second.status();
      ok = ok && second->ok;

      start = NowUs();
      MEETXML_RETURN_NOT_OK(client.Bye());
      service.reset();
      step("server.close", kServer, start);
    }

    const std::string& name = names_[cycle.replace];
    start = NowUs();
    MEETXML_ASSIGN_OR_RETURN(meetxml::model::StoredDocument doc,
                             meetxml::model::ShredXmlText(
                                 pool_xml_[cycle.pool]));
    step("model.shred", kModel, start);
    start = NowUs();
    MEETXML_RETURN_NOT_OK(catalog.Remove(name));
    MEETXML_RETURN_NOT_OK(catalog.Add(name, std::move(doc)).status());
    step("store.replace", kStore, start);
    start = NowUs();
    MEETXML_RETURN_NOT_OK(catalog.EnsureIndex(name));
    step("text.index_build", kText, start);
    start = NowUs();
    store::CatalogSaveStats save_stats;
    store::CatalogSaveOptions save;
    save.in_place = true;
    save.stats = &save_stats;
    MEETXML_RETURN_NOT_OK(catalog.SaveToFile(image_, save));
    store_calls_.save_us.push_back(step("store.save", kStore, start));
    store_calls_.save_bytes.push_back(static_cast<double>(
        save_stats.in_place ? save_stats.bytes_appended
                            : save_stats.file_size));
    ++store_calls_.in_place_saves;
    if (save_stats.compacted) ++store_calls_.compactions;
    *latency_us = NowUs() - cycle_start;
    if (request != nullptr) {
      request->op_us = 0;
      for (const Span& span : request->spans) {
        if (span.parent == 0) request->op_us += span.end_us - span.start_us;
      }
      *latency_us = request->op_us;
    }

    // Untimed: what the replaced document answers in memory, before any
    // reopen — the next cycle's first query must read it back.
    store::MultiExecutor in_memory(&catalog);
    MEETXML_ASSIGN_OR_RETURN(
        store::MultiResult expected,
        in_memory.ExecuteText(name, VenueQuery(cycle.venue),
                              ServedExecuteOptions(1)));
    pending_ = Pending{name, VenueQuery(cycle.venue), expected.ToText(),
                       expected.rows.size()};
    return ok;
  }

 private:
  struct Pending {
    std::string name;
    std::string text;
    std::string table;
    uint64_t rows;
  };

  static server::ServiceOptions ServiceOptions() {
    server::ServiceOptions options;
    options.execute.merge_threads = 1;
    return options;
  }

  Result<server::Response> Query(server::InProcessClient* client,
                                 const server::QueryService& service,
                                 const store::Catalog& catalog,
                                 const std::string& scope,
                                 const std::string& text,
                                 TracedRequest* request,
                                 LayerSamples* samples) {
    if (request == nullptr) return client->Query(scope, text);
    TracedRoundtrip roundtrip =
        RoundtripTraced(client, service, scope, text, request, 0);
    MEETXML_ASSIGN_OR_RETURN(
        QueryReplay replay,
        PrepareReplay(catalog, scope, text, ServedExecuteOptions(1)));
    if (!ReplayLayers(replay, roundtrip, request, samples).consistent) {
      ++inconsistent_;
    }
    return roundtrip.response;
  }

  std::vector<std::string> files_;
  std::vector<std::string> names_;
  std::vector<std::string> pool_xml_;
  std::vector<Cycle> cycles_;
  std::string image_;
  size_t next_cycle_ = 0;
  std::optional<Pending> pending_;
  StoreCalls store_calls_;
  uint64_t inconsistent_ = 0;
};

}  // namespace

Result<RunOutput> RunChurnWorkload(const RunConfig& config) {
  Churn churn;
  MEETXML_RETURN_NOT_OK(churn.Load(config.inputs));
  RunOutput out;

  const std::string image = config.scratch + "/" + config.workload + ".mxm";
  churn.set_image(image);

  // Set-up failures are fatal; a cycle that errors counts as a failed
  // operation, like a wrong answer.
  const OpFn op = [&](int /*client*/, double* latency_us) {
    Result<bool> ok = churn.RunCycle(nullptr, nullptr, latency_us);
    return ok.ok() && *ok;
  };
  std::vector<SetupSample> setups;
  LoopStats window;
  for (int i = 0; i < config.setups; ++i) {
    // Each set-up rewrites the image the next window segment churns.
    SetupSample sample;
    MEETXML_RETURN_NOT_OK(
        SetUpCatalog(churn.files(), image, &sample).status());
    setups.push_back(sample);
    churn.Restart();
    if (i == 0) {
      LoopStats warmup = RunClosedLoop(1, config.warmup_seconds, op);
      out.attempted += warmup.attempted;
      out.failed += warmup.failed;
    }
    window.Append(RunClosedLoop(1, config.seconds / config.setups, op));
  }
  out.attempted += window.attempted;
  out.failed += window.failed;
  AddEndToEnd(setups, window, &out);
  out.info.Num("clients", 1).Num("documents",
                                 static_cast<double>(churn.files().size()));
  if (!config.trace) return out;

  std::vector<TracedRequest> requests;
  LayerSamples samples;
  const double trace_deadline = NowUs() + config.seconds * 1e6;
  for (size_t i = 0; i < kTracedOps && NowUs() < trace_deadline; ++i) {
    TracedRequest request;
    request.id = i + 1;
    request.op = "cycle";
    double latency_us = 0;
    Result<bool> ok = churn.RunCycle(&request, &samples, &latency_us);
    ++out.attempted;
    if (!ok.ok() || !*ok) ++out.failed;
    requests.push_back(std::move(request));
  }

  TracedPass pass;
  pass.setups = &setups;
  pass.requests = &requests;
  pass.samples = &samples;
  pass.store = &churn.store_calls();
  pass.untraced_p50_us = Quantile(window.Latencies(), 0.50);
  pass.inconsistent = churn.inconsistent();
  MEETXML_RETURN_NOT_OK(FinishTracedPass(config, pass, &out));
  return out;
}

}  // namespace e2e
