#include "server/service.h"

#include <utility>

#include "util/failpoint.h"
#include "util/net.h"

namespace meetxml {
namespace server {

using util::Result;
using util::Status;

namespace {

// Scoped in-flight accounting: Shutdown() waits for the count to hit
// zero, so every dispatch must decrement on every path out.
class InFlight {
 public:
  InFlight(std::atomic<uint64_t>* count, std::mutex* mu,
           std::condition_variable* cv)
      : count_(count), mu_(mu), cv_(cv) {
    count_->fetch_add(1, std::memory_order_acq_rel);
  }
  ~InFlight() {
    if (count_->fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Pairs with the predicate re-check in Shutdown(); the lock
      // makes the decrement-then-notify atomic against its wait.
      std::lock_guard<std::mutex> lock(*mu_);
      cv_->notify_all();
    }
  }

 private:
  std::atomic<uint64_t>* count_;
  std::mutex* mu_;
  std::condition_variable* cv_;
};

// Scoped admission-slot ownership: once a query holds a slot (whether
// the front-end pre-admitted it or dispatch acquired one), every path
// out of HandlePayload must give it back — including decode failures
// that never reach HandleQuery.
class QuerySlot {
 public:
  QuerySlot(QueryService* service, bool held)
      : service_(service), held_(held) {}
  ~QuerySlot() {
    if (held_) service_->ReleaseQuerySlot();
  }
  QuerySlot(const QuerySlot&) = delete;
  QuerySlot& operator=(const QuerySlot&) = delete;

  bool held() const { return held_; }
  bool TryAcquire() {
    held_ = service_->TryAcquireQuerySlot();
    return held_;
  }

 private:
  QueryService* service_;
  bool held_;
};

// The opcode echoed on errors for requests too mangled to decode.
constexpr Opcode kFallbackOpcode = Opcode::kPing;

Opcode EchoOpcode(std::string_view payload) {
  if (!payload.empty()) {
    uint8_t raw = static_cast<uint8_t>(payload.front());
    if (raw >= static_cast<uint8_t>(Opcode::kHello) &&
        raw <= static_cast<uint8_t>(Opcode::kDump)) {
      return static_cast<Opcode>(raw);
    }
  }
  return kFallbackOpcode;
}

// Exposition labels of the per-opcode request histograms, indexed by
// opcode - 1 (matching QueryService::request_us_).
constexpr std::string_view kOpcodeLabels[] = {"hello", "query", "ping",
                                              "stats", "bye",   "dump"};

// Query text in the kDump query-log tail, quoted: escape the quote and
// backslash, flatten control bytes so one entry stays one line.
void AppendQuoted(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

QueryService::QueryService(const store::Catalog* catalog,
                           ServiceOptions options)
    : catalog_(catalog),
      executor_(catalog),
      options_(std::move(options)),
      sessions_(options_.session),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::Global()),
      query_log_(options_.query_log_capacity) {
  queries_counter_ = &metrics_->counter("meetxml_server_queries_total");
  errors_counter_ =
      &metrics_->counter("meetxml_server_request_errors_total");
  slow_counter_ = &metrics_->counter("meetxml_server_slow_queries_total");
  shed_counter_ = &metrics_->counter("meetxml_server_shed_total");
  deadline_counter_ =
      &metrics_->counter("meetxml_server_deadline_exceeded_total");
  sessions_opened_counter_ =
      &metrics_->counter("meetxml_server_sessions_opened_total");
  sessions_evicted_counter_ =
      &metrics_->counter("meetxml_server_sessions_evicted_total");
  sessions_gauge_ = &metrics_->gauge("meetxml_server_sessions_active");
  for (size_t i = 0; i < 6; ++i) {
    std::string labels = "op=\"";
    labels += kOpcodeLabels[i];
    labels += '"';
    request_us_[i] =
        &metrics_->histogram("meetxml_server_request_us", labels);
  }
  queries_baseline_ = queries_counter_->Value();
  errors_baseline_ = errors_counter_->Value();
  shed_baseline_ = shed_counter_->Value();
}

bool QueryService::TryAcquireQuerySlot() {
  // Injected admission failure: behaves exactly like a full queue, so
  // tests can force the shed path without saturating anything.
  if (MEETXML_FAILPOINT_TRIGGERED("server.admit")) return false;
  uint64_t cap = options_.queue_cap;
  uint64_t current = admitted_.load(std::memory_order_relaxed);
  for (;;) {
    if (cap != 0 && current >= cap) return false;
    if (admitted_.compare_exchange_weak(current, current + 1,
                                        std::memory_order_acq_rel)) {
      return true;
    }
  }
}

void QueryService::ReleaseQuerySlot() {
  admitted_.fetch_sub(1, std::memory_order_acq_rel);
}

std::string QueryService::MakeBusyResponse(bool deadline_exceeded) {
  shed_counter_->Add(1);
  if (deadline_exceeded) deadline_counter_->Add(1);
  return EncodeBusyResponse(
      Opcode::kQuery, options_.busy_retry_after_ms,
      deadline_exceeded ? "query waited past the queue deadline"
                        : "server overloaded: admission queue is full");
}

uint64_t QueryService::NowMs() const {
  return options_.clock ? options_.clock() : util::MonotonicMillis();
}

uint64_t QueryService::NowUs() const {
  if (options_.clock_us) return options_.clock_us();
  if (options_.clock) return options_.clock() * 1000;
  return obs::MonotonicMicros();
}

Result<std::unique_ptr<QueryService::Connection>> QueryService::Connect() {
  if (draining()) {
    return Status::Unavailable("server is shutting down");
  }
  return std::unique_ptr<Connection>(new Connection(this));
}

QueryService::Connection::~Connection() {
  if (session_id_ != 0) {
    // Ignore NotFound: eviction may have beaten the disconnect.
    service_->sessions_.Close(session_id_).ok();
  }
}

std::string QueryService::Connection::HandlePayload(
    std::string_view payload) {
  return HandlePayload(payload, RequestContext{});
}

std::string QueryService::Connection::HandlePayload(
    std::string_view payload, const RequestContext& ctx) {
  InFlight guard(&service_->in_flight_, &service_->drain_mu_,
                 &service_->drain_cv_);
  // Slot ownership spans the whole dispatch (released on every path
  // out), so the admission cap bounds queued + executing queries.
  QuerySlot slot(service_, ctx.pre_admitted);
  const bool observe = service_->options_.observe;
  const uint64_t start_us = observe ? service_->NowUs() : 0;
  // Undecodable requests are attributed to whatever opcode byte they
  // led with (the same one the error response echoes).
  Opcode opcode = EchoOpcode(payload);
  const uint64_t deadline_ms = service_->options_.queue_deadline_ms;
  std::string response;
  if (service_->draining()) {
    service_->errors_counter_->Add(1);
    response = EncodeErrorResponse(
        opcode, Status::Unavailable("server is shutting down"));
  } else if (opcode == Opcode::kQuery && !slot.held() &&
             !slot.TryAcquire()) {
    // The (cap+1)-th concurrent query: shed instead of queueing.
    response = service_->MakeBusyResponse(false);
  } else if (opcode == Opcode::kQuery && deadline_ms > 0 &&
             ctx.admitted_ms > 0 &&
             service_->NowMs() >= ctx.admitted_ms &&
             service_->NowMs() - ctx.admitted_ms >= deadline_ms) {
    // Sat in the front-end queue past the deadline: the client gave up
    // (or will); executing now only wastes a worker.
    response = service_->MakeBusyResponse(true);
  } else {
    Result<Request> request = DecodeRequest(payload);
    if (!request.ok()) {
      service_->errors_counter_->Add(1);
      response = EncodeErrorResponse(opcode, request.status());
    } else {
      opcode = request->opcode;
      response = service_->Dispatch(this, *request);
    }
  }
  if (observe) {
    uint64_t end_us = service_->NowUs();
    service_->request_us_[static_cast<size_t>(opcode) - 1]->Record(
        end_us >= start_us ? end_us - start_us : 0);
  }
  return response;
}

std::string QueryService::Dispatch(Connection* connection,
                                   const Request& request) {
  uint64_t now = NowMs();
  Response response;
  response.ok = true;
  response.opcode = request.opcode;
  auto error = [&](const Status& status) {
    errors_counter_->Add(1);
    return EncodeErrorResponse(request.opcode, status);
  };

  switch (request.opcode) {
    case Opcode::kHello: {
      if (request.protocol_version < kMinProtocolVersion ||
          request.protocol_version > kProtocolVersion) {
        return error(Status::InvalidArgument(
            "unsupported protocol version ", request.protocol_version,
            " (this server speaks ", kMinProtocolVersion, "..",
            kProtocolVersion, ")"));
      }
      uint64_t existing = connection->session_id_.load();
      if (existing != 0 && sessions_.Contains(existing)) {
        return error(Status::InvalidArgument(
            "connection already carries session ", existing));
      }
      Result<uint64_t> id = sessions_.Open(now);
      if (!id.ok()) return error(id.status());
      connection->session_id_ = *id;
      sessions_opened_counter_->Add(1);
      response.session_id = *id;
      response.banner = kServerBanner;
      return EncodeResponse(response);
    }
    case Opcode::kQuery:
      return HandleQuery(connection, request);
    case Opcode::kPing:
      // Sessionless pings are a health check; with a session they
      // double as keep-alive.
      if (connection->session_id_ != 0) {
        sessions_.Touch(connection->session_id_, now).ok();
      }
      return EncodeResponse(response);
    case Opcode::kStats: {
      ServiceStats stats = this->stats();
      response.stats.sessions_active = stats.sessions_active;
      response.stats.queries_served = stats.queries_served;
      response.stats.request_errors = stats.request_errors;
      response.stats.sessions_evicted = stats.sessions_evicted;
      for (const obs::NamedSummary& named : metrics_->HistogramSummaries()) {
        StatsHistogramEntry entry;
        entry.name = named.name;
        entry.count = named.summary.count;
        entry.sum = named.summary.sum;
        entry.p50 = named.summary.p50;
        entry.p90 = named.summary.p90;
        entry.p99 = named.summary.p99;
        response.stats.histograms.push_back(std::move(entry));
      }
      return EncodeResponse(response);
    }
    case Opcode::kDump:
      // Sessionless, like kStats: scrape targets don't HELLO.
      response.dump = HandleDump();
      return EncodeResponse(response);
    case Opcode::kBye:
      if (connection->session_id_ != 0) {
        sessions_.Close(connection->session_id_).ok();
        connection->session_id_ = 0;
      }
      return EncodeResponse(response);
  }
  return error(Status::Internal("unhandled opcode"));
}

std::string QueryService::HandleDump() {
  RefreshGauges();
  std::string out = metrics_->RenderPrometheus();
  std::vector<obs::QueryLogEntry> entries = query_log_.Snapshot();
  if (!entries.empty()) {
    out += "# querylog capacity=";
    out += std::to_string(query_log_.capacity());
    out += " total=";
    out += std::to_string(query_log_.total_pushed());
    out += " (oldest first)\n";
  }
  for (const obs::QueryLogEntry& entry : entries) {
    out += "# querylog when_ms=";
    out += std::to_string(entry.when_ms);
    out += " session=";
    out += std::to_string(entry.session_id);
    out += entry.ok ? " ok=1" : " ok=0";
    out += entry.slow ? " slow=1" : " slow=0";
    out += " total_us=";
    out += std::to_string(entry.total_us);
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      out += ' ';
      out += obs::StageName(static_cast<obs::Stage>(i));
      out += "_us=";
      out += std::to_string(entry.stage_us[i]);
    }
    out += " rows=";
    out += std::to_string(entry.rows);
    out += " scope=";
    AppendQuoted(&out, entry.scope);
    out += " query=";
    AppendQuoted(&out, entry.query);
    out += '\n';
  }
  return out;
}

void QueryService::RefreshGauges() const {
  sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
}

std::string QueryService::HandleQuery(Connection* connection,
                                      const Request& request) {
  auto error = [&](const Status& status) {
    errors_counter_->Add(1);
    return EncodeErrorResponse(Opcode::kQuery, status);
  };
  if (connection->session_id_ == 0) {
    return error(
        Status::InvalidArgument("no session — send HELLO first"));
  }
  Status touched = sessions_.Touch(connection->session_id_, NowMs());
  if (!touched.ok()) {
    // Evicted under us: the session is gone for good; the client must
    // HELLO again.
    uint64_t expired = connection->session_id_;
    connection->session_id_ = 0;
    return error(Status::NotFound("session ", expired,
                                  " expired (idle timeout)"));
  }
  const bool observe = options_.observe;
  obs::QueryTrace trace([this] { return NowUs(); });
  // Finishes the trace on both the error and the success path: stage
  // histograms, the slow-query flag, and the query-log entry.
  auto finish = [&](bool ok, uint64_t rows) {
    if (!observe) return;
    uint64_t total_us = trace.TotalStageUs();
    bool slow = options_.slow_query_ms > 0 &&
                total_us >= options_.slow_query_ms * 1000;
    if (slow) slow_counter_->Add(1);
    obs::RecordStageHistograms(metrics_, trace, rows);
    obs::QueryLogEntry entry;
    entry.when_ms = NowMs();
    entry.session_id = connection->session_id();
    entry.scope = request.scope;
    // Display budget: the log is a ring of recent queries, not an
    // archive; a megabyte query must not pin a megabyte of ring.
    entry.query = request.query.substr(0, 256);
    entry.total_us = total_us;
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      entry.stage_us[i] = trace.stage_us(static_cast<obs::Stage>(i));
    }
    entry.rows = rows;
    entry.ok = ok;
    entry.slow = slow;
    query_log_.Push(std::move(entry));
  };
  uint64_t cap = sessions_.options().max_result_bytes;
  // Clamp to the frame budget: whatever the session policy says, an
  // answer this path approves must encode into one response frame, or
  // the TCP front-end would bounce what the in-process transport
  // delivered.
  if (cap == 0 || cap > kMaxQueryTableBytes) cap = kMaxQueryTableBytes;
  query::ExecuteOptions exec = options_.execute;
  // Push the byte cap down as a row-count hint: a rendered row costs
  // at least two bytes (one cell plus the newline), so more than cap/2
  // rows can never fit — stop producing them inside the executors and
  // cap the merge heap there. Any answer the hint truncates still
  // overruns the byte cap below, so the error contract is unchanged;
  // complete answers are byte-identical.
  uint64_t row_hint = cap / 2;
  if (row_hint > 0 &&
      (exec.limit_hint == 0 || exec.limit_hint > row_hint)) {
    exec.limit_hint = static_cast<size_t>(row_hint);
  }
  Result<store::MultiResult> result =
      executor_.ExecuteText(request.scope, request.query, exec,
                            observe ? &trace : nullptr);
  if (!result.ok()) {
    finish(false, 0);
    return error(result.status());
  }

  Response response;
  response.ok = true;
  response.opcode = Opcode::kQuery;
  response.row_count = result->rows.size();
  response.truncated = result->truncated;
  response.table = result->ToText();
  if (response.table.size() > cap) {
    finish(false, 0);
    // The per-session result-memory bound: the rendered answer is
    // dropped here, an error goes back, the session lives on.
    return error(Status::ResourceExhausted(
        "result of ", response.table.size(),
        " bytes exceeds the per-session cap of ", cap,
        " bytes; narrow the query or add LIMIT"));
  }
  queries_counter_->Add(1);
  finish(true, response.row_count);
  return EncodeResponse(response);
}

std::vector<uint64_t> QueryService::EvictIdle() {
  std::vector<uint64_t> evicted = sessions_.EvictIdle(NowMs());
  if (!evicted.empty()) sessions_evicted_counter_->Add(evicted.size());
  return evicted;
}

void QueryService::BeginShutdown() {
  draining_.store(true, std::memory_order_release);
}

void QueryService::Shutdown() {
  BeginShutdown();
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

ServiceStats QueryService::stats() const {
  ServiceStats stats;
  stats.sessions_active = sessions_.size();
  // Registry counters are process-wide; the construction-time baseline
  // keeps ServiceStats per-service (exact — the sharded counters lose
  // no increments under concurrent dispatch).
  stats.queries_served = queries_counter_->Value() - queries_baseline_;
  stats.request_errors = errors_counter_->Value() - errors_baseline_;
  stats.sessions_evicted = sessions_.total_evicted();
  stats.queries_shed = shed_counter_->Value() - shed_baseline_;
  return stats;
}

Result<InProcessClient> InProcessClient::Connect(QueryService* service) {
  MEETXML_ASSIGN_OR_RETURN(
      std::unique_ptr<QueryService::Connection> connection,
      service->Connect());
  return InProcessClient(std::move(connection));
}

Result<Response> InProcessClient::Roundtrip(const Request& request) {
  // The full wire path minus the wire: encode, frame, unframe, decode
  // on both sides, so the in-process transport exercises exactly the
  // bytes TCP clients send.
  FrameBuffer frames;
  frames.Append(EncodeFrame(EncodeRequest(request)));
  MEETXML_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                           frames.Next());
  if (!payload.has_value()) {
    return Status::Internal("encoder produced a partial frame");
  }
  std::string response_payload = connection_->HandlePayload(*payload);
  return DecodeResponse(response_payload);
}

Result<uint64_t> InProcessClient::Hello() {
  Request request;
  request.opcode = Opcode::kHello;
  request.protocol_version = kProtocolVersion;
  MEETXML_ASSIGN_OR_RETURN(Response response, Roundtrip(request));
  if (!response.ok) {
    return Status(response.code, response.message);
  }
  return response.session_id;
}

Result<StatsBody> InProcessClient::Stats() {
  Request request;
  request.opcode = Opcode::kStats;
  MEETXML_ASSIGN_OR_RETURN(Response response, Roundtrip(request));
  if (!response.ok) {
    return Status(response.code, response.message);
  }
  return std::move(response.stats);
}

Result<std::string> InProcessClient::Dump() {
  Request request;
  request.opcode = Opcode::kDump;
  MEETXML_ASSIGN_OR_RETURN(Response response, Roundtrip(request));
  if (!response.ok) {
    return Status(response.code, response.message);
  }
  return std::move(response.dump);
}

Result<Response> InProcessClient::Query(std::string_view scope,
                                        std::string_view query_text) {
  Request request;
  request.opcode = Opcode::kQuery;
  request.scope = std::string(scope);
  request.query = std::string(query_text);
  return Roundtrip(request);
}

Status InProcessClient::Bye() {
  Request request;
  request.opcode = Opcode::kBye;
  MEETXML_ASSIGN_OR_RETURN(Response response, Roundtrip(request));
  if (!response.ok) {
    return Status(response.code, response.message);
  }
  return Status::OK();
}

}  // namespace server
}  // namespace meetxml
