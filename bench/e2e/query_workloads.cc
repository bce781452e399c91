// The three read-only workloads: clients send queries to one
// QueryService over a catalog set up from the generated documents, and
// every answer is checked by its workload's oracle.

#include <algorithm>
#include <charconv>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/meet_general.h"
#include "core/restrictions.h"
#include "replay.h"
#include "server/service.h"
#include "store/multi_executor.h"
#include "text/search.h"
#include "workloads.h"

namespace e2e {

namespace core = meetxml::core;
namespace server = meetxml::server;
namespace store = meetxml::store;

namespace {

struct QueryOp {
  std::string scope;
  std::string text;
};

// What the shape checks see of one traced operation.
struct TracedOp {
  size_t key = 0;
  double bind_us = 0;
  double meet_us = 0;
  uint64_t meets_found = 0;
};

// The parts of a query workload that differ between workloads.
class QuerySpec {
 public:
  virtual ~QuerySpec() = default;

  /// Reads the generated inputs: fills files, distinct and stream.
  virtual Status Load(const std::string& dir) = 0;
  /// Computes what the oracles compare against, from the served catalog.
  virtual Status PrepareOracles(const store::Catalog& catalog) = 0;
  /// Whether `response` correctly answers distinct[key].
  virtual bool Correct(size_t key, const server::Response& response) const = 0;
  /// The paper's §5 shapes, checked on the traced pass.
  virtual void ShapeChecks(const std::vector<TracedOp>& /*ops*/,
                           double /*fig7_r2*/,
                           std::vector<Check>* /*checks*/) const {}

  int clients = 1;
  unsigned merge_threads = 1;
  std::vector<std::string> files;
  std::vector<QueryOp> distinct;
  /// The operation stream, as indices into `distinct`; clients cycle it.
  std::vector<size_t> stream;

 protected:
  Status LoadDocs(const std::string& dir) {
    MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> names,
                             ReadLines(dir + "/docs.txt"));
    for (const std::string& name : names) files.push_back(dir + "/" + name);
    return Status::OK();
  }
};

// A served "o<oid>" cell; false for anything else.
bool ParseOid(const std::string& cell, uint64_t* oid) {
  if (cell.size() < 2 || cell[0] != 'o') return false;
  const char* end = cell.data() + cell.size();
  auto [ptr, ec] = std::from_chars(cell.data() + 1, end, *oid);
  return ec == std::errc() && ptr == end;
}

// Paper Fig. 7: "list all ICDE publications of the years [y, 1999]".
class Fig7Spec : public QuerySpec {
 public:
  Status Load(const std::string& dir) override {
    MEETXML_RETURN_NOT_OK(LoadDocs(dir));
    MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                             ReadLines(dir + "/truth.tsv"));
    for (const std::string& line : lines) {
      MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> f,
                               SplitTabs(line, 3));
      Interval interval{std::stoi(f[0]), std::stoi(f[1]),
                        std::stoull(f[2]), {}};
      std::string text =
          "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b WHERE a "
          "CONTAINS 'ICDE' AND (";
      for (int year = interval.start; year <= interval.end; ++year) {
        if (year > interval.start) text += " OR ";
        text += "b CONTAINS '" + std::to_string(year) + "'";
      }
      text += ") EXCLUDE dblp";
      stream.push_back(distinct.size());
      distinct.push_back(QueryOp{"dblp", text});
      intervals_.push_back(std::move(interval));
    }
    return Status::OK();
  }

  // The fig7_case_study formulation, straight on core and text: the
  // meet, root excluded, of the full-text matches of "ICDE" and of the
  // years. The query ORs the years into one binding, so a string that
  // holds two years (a page range) is one item, not two that would meet
  // each other: the year matches are unioned per path, and both sides
  // keep to character data, as the query's FROM clause does.
  Status PrepareOracles(const store::Catalog& catalog) override {
    MEETXML_ASSIGN_OR_RETURN(const meetxml::model::StoredDocument* doc,
                             catalog.Get("dblp"));
    MEETXML_ASSIGN_OR_RETURN(const meetxml::query::Executor* executor,
                             catalog.ExecutorFor("dblp"));
    MEETXML_ASSIGN_OR_RETURN(const meetxml::text::FullTextSearch* search,
                             executor->TextSearch());
    for (Interval& interval : intervals_) {
      std::vector<std::string> years;
      for (int year = interval.start; year <= interval.end; ++year) {
        years.push_back(std::to_string(year));
      }
      MEETXML_ASSIGN_OR_RETURN(
          std::vector<meetxml::text::TermMatches> matches,
          search->SearchAll(years, meetxml::text::MatchMode::kContains));
      MEETXML_ASSIGN_OR_RETURN(
          meetxml::text::TermMatches icde,
          search->Search("ICDE", meetxml::text::MatchMode::kContains));
      std::map<meetxml::bat::PathId, std::set<meetxml::bat::Oid>> year_union;
      for (const meetxml::text::TermMatches& term : matches) {
        for (const core::AssocSet& set : term.sets) {
          year_union[set.path].insert(set.nodes.begin(), set.nodes.end());
        }
      }
      auto cdata = [&](meetxml::bat::PathId path) {
        return doc->paths().kind(path) == meetxml::model::StepKind::kCdata;
      };
      std::vector<core::AssocSet> inputs;
      for (const core::AssocSet& set : icde.sets) {
        if (cdata(set.path)) inputs.push_back(set);
      }
      for (const auto& [path, nodes] : year_union) {
        if (cdata(path)) {
          inputs.push_back(core::AssocSet{
              path,
              std::vector<meetxml::bat::Oid>(nodes.begin(), nodes.end())});
        }
      }
      MEETXML_ASSIGN_OR_RETURN(
          std::vector<core::GeneralMeet> meets,
          core::MeetGeneral(*doc, inputs, core::ExcludeRootOptions(*doc)));
      for (const core::GeneralMeet& meet : meets) {
        interval.meet_oids.push_back(meet.meet);
      }
      std::sort(interval.meet_oids.begin(), interval.meet_oids.end());
    }
    return Status::OK();
  }

  bool Correct(size_t key, const server::Response& response) const override {
    const Interval& interval = intervals_[key];
    if (!response.ok || response.truncated) return false;
    std::vector<std::vector<std::string>> rows = TableRows(response.table);
    if (rows.size() != response.row_count ||
        response.row_count < interval.icde_papers) {
      return false;
    }
    std::vector<uint64_t> oids;
    for (const std::vector<std::string>& row : rows) {
      uint64_t oid = 0;
      if (row.size() < 4 || !ParseOid(row[3], &oid)) return false;
      oids.push_back(oid);
    }
    std::sort(oids.begin(), oids.end());
    return oids == interval.meet_oids;
  }

  void ShapeChecks(const std::vector<TracedOp>& /*ops*/, double fig7_r2,
                   std::vector<Check>* checks) const override {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "R^2 of median meet time against meets found over the "
                  "%zu intervals: %.4f",
                  intervals_.size(), fig7_r2);
    checks->push_back(Check{"fig7.linear_meet_time", fig7_r2 >= 0.95, detail});
  }

 private:
  struct Interval {
    int start;
    int end;
    uint64_t icde_papers;
    std::vector<uint64_t> meet_oids;
  };
  std::vector<Interval> intervals_;
};

// Paper Fig. 6: marker pairs planted at known distances, found by
// case-insensitive substring scans.
class Fig6Spec : public QuerySpec {
 public:
  Status Load(const std::string& dir) override {
    MEETXML_RETURN_NOT_OK(LoadDocs(dir));
    MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                             ReadLines(dir + "/truth.tsv"));
    for (const std::string& line : lines) {
      MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> f,
                               SplitTabs(line, 3));
      int distance = std::stoi(f[2]);
      // Distance 0 plants both markers in one probe label; otherwise the
      // second marker is a `marker` attribute down a chain of segments.
      // Either way `b` scans a handful of strings and `a` every text node,
      // so every query costs one full scan (and p99 does not fall on a
      // boundary between a one-scan and a two-scan query).
      std::string b_path = distance == 0 ? "collection//probe/label/cdata"
                                         : "collection//@marker";
      stream.push_back(distinct.size());
      distinct.push_back(QueryOp{
          "collection",
          "SELECT MEET(a, b) FROM collection//cdata a, " + b_path +
              " b WHERE a ICONTAINS '" + f[0] + "' AND b ICONTAINS '" + f[1] +
              "'"});
      distances_.push_back(distance);
    }
    return Status::OK();
  }

  Status PrepareOracles(const store::Catalog& /*catalog*/) override {
    return Status::OK();
  }

  bool Correct(size_t key, const server::Response& response) const override {
    if (!response.ok || response.row_count == 0) return false;
    std::vector<std::vector<std::string>> rows = TableRows(response.table);
    return !rows.empty() && rows[0].size() >= 5 &&
           rows[0][4] == std::to_string(distances_[key]);
  }

  void ShapeChecks(const std::vector<TracedOp>& ops, double /*fig7_r2*/,
                   std::vector<Check>* checks) const override {
    std::map<size_t, std::pair<std::vector<double>, std::vector<double>>>
        by_key;
    for (const TracedOp& op : ops) {
      by_key[op.key].first.push_back(op.bind_us);
      by_key[op.key].second.push_back(op.meet_us);
    }
    double worst = 0;
    int worst_distance = -1;
    for (const auto& [key, times] : by_key) {
      double bind = Median(times.first);
      double meet = Median(times.second);
      double share = bind + meet > 0 ? meet / (bind + meet) : 0;
      if (share >= worst) {
        worst = share;
        worst_distance = distances_[key];
      }
    }
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "largest meet share of search + meet: %.3f%% at "
                  "distance %d",
                  100.0 * worst, worst_distance);
    checks->push_back(
        Check{"fig6.meet_share", !by_key.empty() && worst <= 0.05, detail});
  }

 private:
  std::vector<int> distances_;
};

// Short queries over 8 documents from 2 clients: answers must match a
// serial one-thread MultiExecutor, and LIMIT answers must be prefixes of
// their unlimited ones.
class FanoutSpec : public QuerySpec {
 public:
  FanoutSpec() {
    clients = 2;
    merge_threads = 2;
  }

  Status Load(const std::string& dir) override {
    MEETXML_RETURN_NOT_OK(LoadDocs(dir));
    MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                             ReadLines(dir + "/ops.tsv"));
    std::map<std::string, size_t> seen;
    for (const std::string& line : lines) {
      auto [it, added] = seen.emplace(line, distinct.size());
      if (added) {
        MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> f,
                                 SplitTabs(line, 2));
        distinct.push_back(QueryOp{f[0], f[1]});
      }
      stream.push_back(it->second);
    }
    return Status::OK();
  }

  Status PrepareOracles(const store::Catalog& catalog) override {
    store::MultiExecutor serial(&catalog);
    const meetxml::query::ExecuteOptions options = ServedExecuteOptions(1);
    for (const QueryOp& op : distinct) {
      MEETXML_ASSIGN_OR_RETURN(store::MultiResult result,
                               serial.ExecuteText(op.scope, op.text, options));
      Reference reference{result.ToText(), result.rows.size(),
                          result.truncated, true};
      size_t limit = op.text.find(" LIMIT ");
      if (limit != std::string::npos) {
        MEETXML_ASSIGN_OR_RETURN(
            store::MultiResult unlimited,
            serial.ExecuteText(op.scope, op.text.substr(0, limit), options));
        reference.valid =
            result.rows.size() <= unlimited.rows.size() &&
            std::equal(result.rows.begin(), result.rows.end(),
                       unlimited.rows.begin());
      }
      references_.push_back(std::move(reference));
    }
    return Status::OK();
  }

  bool Correct(size_t key, const server::Response& response) const override {
    const Reference& reference = references_[key];
    return reference.valid && response.ok &&
           response.row_count == reference.rows &&
           response.truncated == reference.truncated &&
           response.table == reference.table;
  }

 private:
  struct Reference {
    std::string table;
    uint64_t rows;
    bool truncated;
    /// False when the LIMIT answer is not a prefix of the unlimited one.
    bool valid;
  };
  std::vector<Reference> references_;
};

std::unique_ptr<QuerySpec> MakeSpec(const std::string& workload) {
  if (workload == "fig7_icde") return std::make_unique<Fig7Spec>();
  if (workload == "fig6_scan") return std::make_unique<Fig6Spec>();
  if (workload == "fanout_topk") return std::make_unique<FanoutSpec>();
  return nullptr;
}

// R² of the median meet time per distinct query against its meet count;
// 0 when fewer than three queries differ in meet count.
double MeetTimeFitR2(const std::vector<TracedOp>& ops) {
  std::map<size_t, std::vector<double>> times;
  std::map<size_t, double> found;
  for (const TracedOp& op : ops) {
    times[op.key].push_back(op.meet_us);
    found[op.key] = static_cast<double>(op.meets_found);
  }
  std::vector<double> x, y;
  std::set<double> distinct_x;
  for (const auto& [key, values] : times) {
    x.push_back(found[key]);
    y.push_back(Median(values));
    distinct_x.insert(found[key]);
  }
  return distinct_x.size() >= 3 ? LinearFitR2(x, y) : 0;
}

}  // namespace

Result<RunOutput> RunQueryWorkload(const RunConfig& config) {
  std::unique_ptr<QuerySpec> spec = MakeSpec(config.workload);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload '", config.workload,
                                   "'");
  }
  MEETXML_RETURN_NOT_OK(spec->Load(config.inputs));
  if (spec->files.empty() || spec->stream.empty()) {
    return Status::InvalidArgument("no documents or queries in ",
                                   config.inputs);
  }
  RunOutput out;
  server::ServiceOptions options;
  options.execute.merge_threads = spec->merge_threads;
  const std::string image = config.scratch + "/" + config.workload + ".mxm";

  // What one set-up serves with: its catalog, a service over it and one
  // session per client.
  std::optional<store::Catalog> catalog;
  std::unique_ptr<server::QueryService> service;
  std::vector<server::InProcessClient> clients;
  // Clients start spread over the stream so they rarely send the same
  // query at the same time.
  std::vector<size_t> next_op;
  for (int c = 0; c < spec->clients; ++c) {
    next_op.push_back(c * spec->stream.size() / spec->clients);
  }
  const OpFn op = [&](int c, double* latency_us) {
    size_t key = spec->stream[next_op[c]++ % spec->stream.size()];
    const QueryOp& query = spec->distinct[key];
    double start = NowUs();
    auto response = clients[c].Query(query.scope, query.text);
    *latency_us = NowUs() - start;
    return response.ok() && spec->Correct(key, *response);
  };

  std::vector<SetupSample> setups;
  LoopStats window;
  for (int i = 0; i < config.setups; ++i) {
    clients.clear();
    service.reset();
    catalog.reset();
    SetupSample sample;
    MEETXML_ASSIGN_OR_RETURN(catalog,
                             SetUpCatalog(spec->files, image, &sample));
    setups.push_back(sample);
    service = std::make_unique<server::QueryService>(&*catalog, options);
    for (int c = 0; c < spec->clients; ++c) {
      MEETXML_ASSIGN_OR_RETURN(server::InProcessClient client,
                               server::InProcessClient::Connect(&*service));
      MEETXML_RETURN_NOT_OK(client.Hello().status());
      clients.push_back(std::move(client));
    }
    if (i == 0) {
      // Every set-up builds the same catalog from the same files, so
      // oracles computed on the first hold for all of them.
      MEETXML_RETURN_NOT_OK(spec->PrepareOracles(*catalog));
      LoopStats warmup =
          RunClosedLoop(spec->clients, config.warmup_seconds, op);
      out.attempted += warmup.attempted;
      out.failed += warmup.failed;
    }
    window.Append(
        RunClosedLoop(spec->clients, config.seconds / config.setups, op));
  }
  out.attempted += window.attempted;
  out.failed += window.failed;
  AddEndToEnd(setups, window, &out);
  out.info.Num("clients", spec->clients)
      .Num("merge_threads", spec->merge_threads)
      .Num("distinct_queries", static_cast<double>(spec->distinct.size()));
  if (!config.trace) return out;

  // Traced pass: one client and a serial fan-out, so every replay nests
  // in the wall time of the round trip it decomposes.
  server::ServiceOptions traced_options = options;
  traced_options.execute.merge_threads = 1;
  traced_options.query_log_capacity = 1;
  server::QueryService traced_service(&*catalog, traced_options);
  MEETXML_ASSIGN_OR_RETURN(server::InProcessClient client,
                           server::InProcessClient::Connect(&traced_service));
  MEETXML_RETURN_NOT_OK(client.Hello().status());
  std::vector<std::optional<QueryReplay>> replays(spec->distinct.size());
  std::vector<TracedRequest> requests;
  std::vector<TracedOp> traced_ops;
  LayerSamples samples;
  uint64_t inconsistent = 0;
  const double trace_deadline = NowUs() + config.seconds * 1e6;
  for (size_t i = 0; i < kTracedOps && NowUs() < trace_deadline; ++i) {
    size_t key = spec->stream[i % spec->stream.size()];
    const QueryOp& query = spec->distinct[key];
    if (!replays[key].has_value()) {
      MEETXML_ASSIGN_OR_RETURN(
          replays[key], PrepareReplay(*catalog, query.scope, query.text,
                                      ServedExecuteOptions(1)));
    }
    TracedRequest request;
    request.id = i + 1;
    request.op = query.scope + ": " + query.text;
    TracedRoundtrip roundtrip = RoundtripTraced(
        &client, traced_service, query.scope, query.text, &request, 0);
    ++out.attempted;
    if (!roundtrip.response.ok() || !spec->Correct(key, *roundtrip.response)) {
      ++out.failed;
    }
    ReplayMeasure measure =
        ReplayLayers(*replays[key], roundtrip, &request, &samples);
    if (!measure.consistent) ++inconsistent;
    request.op_us = request.Duration(roundtrip.span);
    traced_ops.push_back(
        TracedOp{key, measure.bind_us, measure.meet_us, measure.meets_found});
    requests.push_back(std::move(request));
  }

  TracedPass pass;
  pass.setups = &setups;
  pass.requests = &requests;
  pass.samples = &samples;
  pass.untraced_p50_us = Quantile(window.Latencies(), 0.50);
  pass.fig7_r2 = MeetTimeFitR2(traced_ops);
  pass.inconsistent = inconsistent;
  MEETXML_RETURN_NOT_OK(FinishTracedPass(config, pass, &out));
  spec->ShapeChecks(traced_ops, pass.fig7_r2, &out.checks);
  return out;
}

}  // namespace e2e
