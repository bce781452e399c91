// QueryService: the meetxmld dispatch core — sessions, limits, and
// query execution against one shared view-backed store::Catalog.
//
// Every transport funnels into the same path: a connection feeds one
// decoded frame payload to Connection::HandlePayload and gets the
// response payload back. The TCP front-end (server/tcp_server.h) calls
// it from its worker pool; the in-process transport below calls it
// straight from test threads — same protocol bytes, same sessions,
// same limits, no sockets — which is what lets the concurrency suite
// pin server answers byte-identical to a serial MultiExecutor run.
//
// Concurrency contract: the catalog is read-only while a service
// exists (store/catalog.h's concurrent read path); any number of
// connections may dispatch simultaneously. Results are deterministic,
// so concurrent responses are byte-identical to serial ones.

#ifndef MEETXML_SERVER_SERVICE_H_
#define MEETXML_SERVER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "server/protocol.h"
#include "server/session.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "util/result.h"

namespace meetxml {
namespace server {

/// \brief Service policy knobs.
struct ServiceOptions {
  SessionOptions session;
  /// Per-query execution limits (max_rows is the row-count safety
  /// valve; the byte-level bound is session.max_result_bytes).
  query::ExecuteOptions execute;
  /// Monotonic clock, milliseconds. Tests inject a fake; production
  /// leaves it null for util::MonotonicMillis.
  std::function<uint64_t()> clock;
  /// Monotonic clock, microseconds, driving stage traces and request
  /// latency histograms. Null falls back to `clock` (scaled by 1000)
  /// when that is set, else obs::MonotonicMicros — so a test that
  /// injects either clock gets deterministic latencies.
  std::function<uint64_t()> clock_us;
  /// Metrics sink; null means obs::MetricsRegistry::Global(). Service
  /// counters are registry counters (kDump shows process-wide totals);
  /// stats() reports them relative to this service's construction, so
  /// ServiceStats keeps per-service semantics either way.
  obs::MetricsRegistry* metrics = nullptr;
  /// Queries whose total stage time reaches this many milliseconds are
  /// flagged slow: counted in meetxml_server_slow_queries_total and
  /// marked in the query log. 0 flags nothing.
  uint64_t slow_query_ms = 0;
  /// Ring capacity of the recent-query log kDump renders.
  size_t query_log_capacity = 256;
  /// Master switch for per-query tracing, stage histograms and the
  /// query log. Off, dispatch reads no clocks beyond the session
  /// timestamps (the ab14 overhead bench's baseline); kStats and
  /// kDump still answer from whatever was recorded.
  bool observe = true;
  /// Admission cap: queries admitted (queued or dispatching) at once,
  /// across every transport. The query that would exceed it is shed
  /// with a busy reply instead of queueing unboundedly. 0 = unbounded.
  uint64_t queue_cap = 0;
  /// Per-request queue deadline on the service clock: a query that
  /// waited longer than this between front-end admission
  /// (RequestContext::admitted_ms) and dispatch is shed busy without
  /// executing — its answer would arrive too late to matter. 0 = off.
  uint64_t queue_deadline_ms = 0;
  /// Retry-after hint carried by busy replies.
  uint64_t busy_retry_after_ms = 100;
};

/// \brief Service counters (monotonic except sessions_active).
struct ServiceStats {
  uint64_t sessions_active = 0;
  uint64_t queries_served = 0;
  uint64_t request_errors = 0;
  uint64_t sessions_evicted = 0;
  /// Queries refused with a busy reply (admission cap or deadline).
  uint64_t queries_shed = 0;
};

/// \brief Per-request transport context handed to HandlePayload: when
/// and whether the front-end already admitted the request. The
/// default-constructed context means "admit here, no queueing history"
/// — the in-process transport's shape.
struct RequestContext {
  /// Service-clock time the front-end queued the request; 0 = unknown
  /// (the queue-deadline check only runs when it is set).
  uint64_t admitted_ms = 0;
  /// True when the front-end already holds an admission slot for this
  /// request (TryAcquireQuerySlot at enqueue, the TCP path). Dispatch
  /// then releases that slot when the request finishes, on every path.
  bool pre_admitted = false;
};

/// \brief The dispatch core shared by every transport.
class QueryService {
 public:
  /// The catalog must outlive the service and stay unmutated while it
  /// serves (concurrent reads are fine — see store/catalog.h).
  explicit QueryService(const store::Catalog* catalog,
                        ServiceOptions options = {});

  /// \brief One client connection: owns at most one session (opened by
  /// HELLO, closed by BYE, eviction or destruction). Each connection
  /// belongs to one client thread at a time; distinct connections may
  /// dispatch concurrently.
  class Connection {
   public:
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// \brief The real dispatch path: one decoded request-frame
    /// payload in, one response payload out. Never fails — protocol
    /// and execution errors come back as error responses, overload as
    /// busy replies.
    std::string HandlePayload(std::string_view payload);

    /// \brief HandlePayload with transport context: front-ends that
    /// queue requests pass when they admitted them (queue-deadline
    /// enforcement) and whether they already hold the admission slot.
    std::string HandlePayload(std::string_view payload,
                              const RequestContext& ctx);

    /// \brief The connection's live session id; 0 when none. Readable
    /// from any thread (the TCP maintenance loop matches evicted
    /// sessions to connections while workers dispatch).
    uint64_t session_id() const {
      return session_id_.load(std::memory_order_acquire);
    }

   private:
    friend class QueryService;
    explicit Connection(QueryService* service) : service_(service) {}

    QueryService* service_;
    std::atomic<uint64_t> session_id_{0};
  };

  /// \brief Opens a transport connection (no session yet — that is
  /// HELLO's job). Refused while shutting down.
  util::Result<std::unique_ptr<Connection>> Connect();

  /// \brief Evicts idle sessions; returns their ids so the front-end
  /// can close the matching connections.
  std::vector<uint64_t> EvictIdle();

  /// \brief Takes one admission slot for a query, against
  /// ServiceOptions::queue_cap. False means the backlog is full and the
  /// caller must shed the request (MakeBusyResponse); true obliges the
  /// caller to route the request into dispatch with
  /// RequestContext::pre_admitted (which releases the slot) or call
  /// ReleaseQuerySlot itself. Front-ends call this at enqueue so the
  /// cap covers queued work, not just executing work.
  bool TryAcquireQuerySlot();
  /// \brief Returns a slot TryAcquireQuerySlot granted (only for
  /// requests that never reached dispatch).
  void ReleaseQuerySlot();
  /// \brief Admission slots currently held (queued + dispatching).
  uint64_t admitted_queries() const {
    return admitted_.load(std::memory_order_acquire);
  }

  /// \brief The busy reply for one refused query; counts it in
  /// meetxml_server_shed_total (and the deadline counter when
  /// `deadline_exceeded`).
  std::string MakeBusyResponse(bool deadline_exceeded);

  /// \brief Stops taking new requests; in-flight dispatches finish and
  /// deliver their responses, later ones earn Unavailable errors.
  void BeginShutdown();
  /// \brief BeginShutdown, then blocks until every in-flight dispatch
  /// drained — the graceful half of process exit.
  void Shutdown();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServiceStats stats() const;
  uint64_t NowMs() const;
  /// \brief The microsecond clock dispatch measures with (see
  /// ServiceOptions::clock_us for the fallback chain).
  uint64_t NowUs() const;
  const store::Catalog& catalog() const { return *catalog_; }
  const ServiceOptions& options() const { return options_; }
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  const obs::QueryLog& query_log() const { return query_log_; }

 private:
  std::string Dispatch(Connection* connection, const Request& request);
  std::string HandleQuery(Connection* connection, const Request& request);
  std::string HandleDump();
  /// Point-in-time gauges refreshed before every exposition render.
  void RefreshGauges() const;

  const store::Catalog* catalog_;
  store::MultiExecutor executor_;
  ServiceOptions options_;
  SessionTable sessions_;

  obs::MetricsRegistry* metrics_;
  mutable obs::QueryLog query_log_;
  // Hot-path metric handles, resolved once — the registry lookup takes
  // a mutex that dispatch must never contend on.
  obs::Counter* queries_counter_;
  obs::Counter* errors_counter_;
  obs::Counter* slow_counter_;
  obs::Counter* shed_counter_;
  obs::Counter* deadline_counter_;
  obs::Counter* sessions_opened_counter_;
  obs::Counter* sessions_evicted_counter_;
  obs::Gauge* sessions_gauge_;
  obs::Histogram* request_us_[6];  // indexed by opcode - 1
  // stats() reports counters relative to this service's construction,
  // so a shared (Global) registry still yields per-service numbers.
  uint64_t queries_baseline_ = 0;
  uint64_t errors_baseline_ = 0;
  uint64_t shed_baseline_ = 0;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> in_flight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

/// \brief In-process client: drives a QueryService through the full
/// protocol codec (encode request → frame → unframe → dispatch →
/// decode response) with no sockets in between. The transport of the
/// deterministic concurrency tests and the ab12 closed-loop bench.
class InProcessClient {
 public:
  /// Fails (like a refused TCP connect) once the service is draining.
  static util::Result<InProcessClient> Connect(QueryService* service);

  /// \brief Full round trip for an arbitrary request.
  util::Result<Response> Roundtrip(const Request& request);

  /// \brief HELLO at kProtocolVersion; returns the session id.
  util::Result<uint64_t> Hello();
  /// \brief QUERY; returns the decoded response (ok or error).
  util::Result<Response> Query(std::string_view scope,
                               std::string_view query_text);
  /// \brief STATS; counters plus histogram summaries.
  util::Result<StatsBody> Stats();
  /// \brief DUMP; the Prometheus-style exposition text.
  util::Result<std::string> Dump();
  /// \brief BYE; closes the session.
  util::Status Bye();

  uint64_t session_id() const { return connection_->session_id(); }
  QueryService::Connection* connection() { return connection_.get(); }

 private:
  explicit InProcessClient(
      std::unique_ptr<QueryService::Connection> connection)
      : connection_(std::move(connection)) {}

  std::unique_ptr<QueryService::Connection> connection_;
};

}  // namespace server
}  // namespace meetxml

#endif  // MEETXML_SERVER_SERVICE_H_
