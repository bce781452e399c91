// The meetxmld service, proven correct under threads.
//
// Everything here drives the REAL dispatch path — protocol bytes
// through QueryService::Connection::HandlePayload — via the in-process
// transport (no sockets, no sleeps), so the concurrency suite is
// deterministic: N client threads of mixed structural/text/meet/
// cross-scope queries must produce answers byte-identical to a
// single-threaded MultiExecutor run over an identical catalog. The
// session-lifecycle tests use an injected clock, so idle eviction is
// exact, not timing-dependent. A final set of smoke tests covers the
// TCP front-end: framing, pipelining, graceful stop.

#include "server/service.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/tcp_server.h"
#include "server/worker_pool.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "tests/test_util.h"
#include "util/net.h"

namespace meetxml {
namespace server {
namespace {

using meetxml::testing::MustShred;
using util::Result;
using util::Status;
using util::StatusCode;

// ---- corpus -------------------------------------------------------------

// One small bibliography-shaped document per "library": shared
// vocabulary (corpus/survey/Author) so cross-scope queries hit every
// document, a per-document token so answers differ per document.
std::string LibraryXml(int n) {
  std::string tag = "lib" + std::to_string(n);
  std::string xml = "<doc>";
  for (int entry = 0; entry < 4; ++entry) {
    int year = 1990 + (n + entry) % 8;
    xml += "<entry><title>corpus number " + std::to_string(n) + " " +
           tag + " entry " + std::to_string(entry) +
           "</title><year>" + std::to_string(year) +
           "</year><author>Author " + std::to_string((n + entry) % 5) +
           "</author></entry>";
  }
  xml += "<entry><title>survey of meet operators</title>"
         "<year>1995</year><author>Author 9</author></entry></doc>";
  return xml;
}

constexpr int kLibraries = 8;

// Save an 8-document catalog to a file and reopen it view-backed —
// the serving configuration (one pinned image, borrowed columns).
std::string CatalogImagePath() {
  static std::string* path = [] {
    store::Catalog catalog;
    for (int i = 0; i < kLibraries; ++i) {
      auto added = catalog.Add("lib_" + std::to_string(i),
                               MustShred(LibraryXml(i)));
      EXPECT_TRUE(added.ok()) << added.status();
    }
    auto* out = new std::string(::testing::TempDir() +
                                "/server_test_catalog.mxm");
    EXPECT_TRUE(catalog.SaveToFile(*out).ok());
    return out;
  }();
  return *path;
}

store::Catalog OpenViewCatalog() {
  store::CatalogLoadOptions options;
  options.mode = model::LoadMode::kView;
  auto catalog = store::Catalog::LoadFromFile(CatalogImagePath(), options);
  EXPECT_TRUE(catalog.ok()) << catalog.status();
  return std::move(*catalog);
}

// The mixed workload: structural counts, full-text meets, scoped and
// fan-out queries, plus one deliberate error per kind (bad scope, bad
// syntax) — errors must also be deterministic and byte-identical.
struct QueryCase {
  std::string scope;
  std::string query;
};

const std::vector<QueryCase>& MixedQueries() {
  static const std::vector<QueryCase>* cases = new std::vector<QueryCase>{
      {"*", "SELECT COUNT(a) FROM *//cdata a"},
      {"*",
       "SELECT MEET(a, b) FROM *//cdata a, *//cdata b "
       "WHERE a CONTAINS 'corpus' AND b CONTAINS '1995'"},
      {"lib_3",
       "SELECT MEET(a, b) FROM *//cdata a, *//cdata b "
       "WHERE a CONTAINS 'Author' AND b CONTAINS 'survey' LIMIT 3"},
      {"lib_*",
       "SELECT MEET(a, b) FROM *//title/cdata a, *//year/cdata b "
       "WHERE a CONTAINS 'entry' AND b CONTAINS '1993' LIMIT 10"},
      {"lib_5", "SELECT COUNT(a) FROM *//author/cdata a"},
      {"nope*", "SELECT COUNT(a) FROM *//cdata a"},
      {"*", "SELECT MEET(a FROM nonsense"},
  };
  return *cases;
}

// What one request must answer, computed by a serial MultiExecutor.
struct Expected {
  bool ok = false;
  std::string table;       // ok: rendered answer
  uint64_t row_count = 0;  // ok: rows
  bool truncated = false;  // ok: LIMIT hit
  StatusCode code = StatusCode::kOk;  // error: code
  std::string message;                // error: text
};

std::vector<Expected> SerialExpectations(const store::Catalog& catalog) {
  store::MultiExecutor executor(&catalog);
  std::vector<Expected> expected;
  for (const QueryCase& query_case : MixedQueries()) {
    Expected e;
    auto result = executor.ExecuteText(query_case.scope, query_case.query);
    e.ok = result.ok();
    if (result.ok()) {
      e.table = result->ToText();
      e.row_count = result->rows.size();
      e.truncated = result->truncated;
    } else {
      e.code = result.status().code();
      e.message = std::string(result.status().message());
    }
    expected.push_back(std::move(e));
  }
  return expected;
}

void ExpectMatches(const Response& response, const Expected& expected) {
  ASSERT_EQ(response.ok, expected.ok) << response.message;
  if (expected.ok) {
    EXPECT_EQ(response.table, expected.table);
    EXPECT_EQ(response.row_count, expected.row_count);
    EXPECT_EQ(response.truncated, expected.truncated);
  } else {
    EXPECT_EQ(response.code, expected.code);
    EXPECT_EQ(response.message, expected.message);
  }
}

// ---- the concurrency pin ------------------------------------------------

TEST(ServerConcurrency, EightThreadsMatchSerialByteForByte) {
  // Expectations come from a separate catalog instance over the same
  // image, so the serving catalog's executors and text indexes are
  // built lazily UNDER the contending threads — the hardest path.
  store::Catalog reference = OpenViewCatalog();
  std::vector<Expected> expected = SerialExpectations(reference);

  store::Catalog catalog = OpenViewCatalog();
  QueryService service(&catalog);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = InProcessClient::Connect(&service);
      ASSERT_TRUE(client.ok()) << client.status();
      ASSERT_TRUE(client->Hello().ok());
      for (int i = 0; i < kQueriesPerThread; ++i) {
        size_t at = static_cast<size_t>(t * 7 + i) % MixedQueries().size();
        const QueryCase& query_case = MixedQueries()[at];
        auto response = client->Query(query_case.scope, query_case.query);
        ASSERT_TRUE(response.ok()) << response.status();
        const Expected& e = expected[at];
        if (response->ok != e.ok || response->table != e.table ||
            response->row_count != e.row_count ||
            response->truncated != e.truncated ||
            response->message != e.message) {
          mismatches.fetch_add(1);
        }
      }
      ASSERT_TRUE(client->Bye().ok());
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent responses diverged from the serial run";

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_active, 0u);
  // 5 of the 7 mixed queries succeed; each thread's share served.
  EXPECT_GT(stats.queries_served, 0u);
  EXPECT_GT(stats.request_errors, 0u);
}

// ---- service behavior (deterministic, injected clock) -------------------

class ServerServiceTest : public ::testing::Test {
 protected:
  ServerServiceTest() : catalog_(OpenViewCatalog()) {}

  QueryService MakeService(ServiceOptions options = {}) {
    options.clock = [this] { return now_ms_.load(); };
    return QueryService(&catalog_, std::move(options));
  }

  store::Catalog catalog_;
  std::atomic<uint64_t> now_ms_{1000};
};

TEST_F(ServerServiceTest, HelloQueryByeHappyPath) {
  QueryService service = MakeService();
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());

  auto session = client->Hello();
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_GT(*session, 0u);
  EXPECT_EQ(client->session_id(), *session);

  store::MultiExecutor serial(&catalog_);
  auto direct = serial.ExecuteText("*", MixedQueries()[1].query);
  ASSERT_TRUE(direct.ok());

  auto response = client->Query("*", MixedQueries()[1].query);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok) << response->message;
  EXPECT_EQ(response->table, direct->ToText());
  EXPECT_EQ(response->row_count, direct->rows.size());

  EXPECT_TRUE(client->Bye().ok());
  EXPECT_EQ(service.stats().sessions_active, 0u);
  EXPECT_EQ(service.stats().queries_served, 1u);
}

TEST_F(ServerServiceTest, QueryWithoutHelloIsRejected) {
  QueryService service = MakeService();
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  auto response = client->Query("*", MixedQueries()[0].query);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  EXPECT_NE(response->message.find("HELLO"), std::string::npos);
}

TEST_F(ServerServiceTest, WrongProtocolVersionIsRefused) {
  QueryService service = MakeService();
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion + 1;
  auto response = client->Roundtrip(hello);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
}

TEST_F(ServerServiceTest, SecondHelloOnALiveSessionIsRejected) {
  QueryService service = MakeService();
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  EXPECT_TRUE(client->Hello().status().IsInvalidArgument());
  // After BYE the connection may HELLO again, with a fresh id.
  ASSERT_TRUE(client->Bye().ok());
  auto again = client->Hello();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.stats().sessions_active, 1u);
}

TEST_F(ServerServiceTest, IdleSessionsAreEvictedAndCanRejoin) {
  ServiceOptions options;
  options.session.idle_timeout_ms = 5000;
  QueryService service = MakeService(options);
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  auto first = client->Hello();
  ASSERT_TRUE(first.ok());

  // Activity within the window keeps the session alive (PING is
  // keep-alive), even across several eviction sweeps.
  for (int i = 0; i < 3; ++i) {
    now_ms_ += 4000;
    EXPECT_TRUE(service.EvictIdle().empty());
    Request ping;
    ping.opcode = Opcode::kPing;
    ASSERT_TRUE(client->Roundtrip(ping).ok());
  }
  EXPECT_EQ(service.stats().sessions_active, 1u);

  // Then it goes idle past the timeout: evicted exactly once.
  now_ms_ += 5001;
  std::vector<uint64_t> evicted = service.EvictIdle();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], *first);
  EXPECT_EQ(service.stats().sessions_evicted, 1u);

  // The next query reports the expiry (NotFound names the session)...
  auto stale = client->Query("*", MixedQueries()[0].query);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->ok);
  EXPECT_EQ(stale->code, StatusCode::kNotFound);
  EXPECT_NE(stale->message.find("expired"), std::string::npos);

  // ...and a fresh HELLO rejoins with a new, never-reused id.
  auto second = client->Hello();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(*second, *first);
  auto retry = client->Query("*", MixedQueries()[0].query);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->ok);
}

TEST_F(ServerServiceTest, ResultCapIsAnErrorNotAnOom) {
  ServiceOptions options;
  options.session.max_result_bytes = 64;  // far below any meet table
  QueryService service = MakeService(options);
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  auto big = client->Query("*", MixedQueries()[1].query);
  ASSERT_TRUE(big.ok());
  EXPECT_FALSE(big->ok);
  EXPECT_EQ(big->code, StatusCode::kResourceExhausted);
  EXPECT_NE(big->message.find("LIMIT"), std::string::npos);

  // The session survives the refusal: a small answer still works.
  auto small = client->Query("lib_0", "SELECT COUNT(a) FROM *//cdata a");
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->ok) << small->message;
  EXPECT_EQ(service.stats().sessions_active, 1u);
}

TEST_F(ServerServiceTest, SessionCapRefusesTheOverflowClient) {
  ServiceOptions options;
  options.session.max_sessions = 2;
  QueryService service = MakeService(options);
  auto a = InProcessClient::Connect(&service);
  auto b = InProcessClient::Connect(&service);
  auto c = InProcessClient::Connect(&service);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(a->Hello().ok());
  ASSERT_TRUE(b->Hello().ok());
  EXPECT_TRUE(c->Hello().status().IsUnavailable());
  ASSERT_TRUE(a->Bye().ok());
  EXPECT_TRUE(c->Hello().ok());
}

TEST_F(ServerServiceTest, StatsRoundTripOverTheProtocol) {
  QueryService service = MakeService();
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  ASSERT_TRUE(client->Query("*", MixedQueries()[0].query).ok());

  Request stats_request;
  stats_request.opcode = Opcode::kStats;
  auto response = client->Roundtrip(stats_request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok);
  EXPECT_EQ(response->stats.sessions_active, 1u);
  EXPECT_EQ(response->stats.queries_served, 1u);
  EXPECT_EQ(response->stats.request_errors, 0u);
  EXPECT_EQ(response->stats.sessions_evicted, 0u);
}

TEST_F(ServerServiceTest, GracefulShutdownDrainsInFlightQueries) {
  QueryService service = MakeService();
  constexpr int kThreads = 4;
  std::atomic<bool> started{false};
  std::atomic<int> hard_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto client = InProcessClient::Connect(&service);
      if (!client.ok()) return;  // raced past BeginShutdown: fine
      if (!client->Hello().ok()) return;
      started.store(true);
      for (int i = 0; i < 50; ++i) {
        auto response = client->Query("*", MixedQueries()[1].query);
        if (!response.ok()) {
          hard_failures.fetch_add(1);
          return;
        }
        // Each answer is either the real result or a clean
        // "shutting down" refusal — never garbage, never a crash.
        if (!response->ok &&
            response->code != StatusCode::kUnavailable) {
          hard_failures.fetch_add(1);
        }
      }
    });
  }
  while (!started.load()) std::this_thread::yield();
  service.Shutdown();  // returns only once in-flight dispatches drained

  // After Shutdown no dispatch is running; new connects are refused.
  EXPECT_TRUE(InProcessClient::Connect(&service).status().IsUnavailable());
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hard_failures.load(), 0);
}

// ---- observability -------------------------------------------------------

// The introspection surface end to end: a LAZILY opened catalog, a
// private registry, and a stepping microsecond clock — so the first
// query against a document demonstrably pays the deferred decode and
// the executor/text-index build, the second demonstrably pays neither,
// and kDump/kStats v2 expose the decomposition. No sleeps anywhere.
class ServerObservabilityTest : public ::testing::Test {
 protected:
  ServerObservabilityTest() {
    store::CatalogLoadOptions options;
    options.mode = model::LoadMode::kView;
    options.lazy = true;
    auto catalog =
        store::Catalog::LoadFromFile(CatalogImagePath(), options);
    EXPECT_TRUE(catalog.ok()) << catalog.status();
    catalog_ = std::move(*catalog);
  }

  QueryService MakeService(ServiceOptions options = {}) {
    options.clock = [this] { return now_ms_.load(); };
    // Every clock read advances time, so every span is nonzero and
    // deterministic in shape (gated spans stay exactly zero).
    options.clock_us = [this] { return now_us_.fetch_add(step_us_); };
    options.metrics = &registry_;
    return QueryService(&catalog_, std::move(options));
  }

  static constexpr const char* kTextQuery =
      "SELECT MEET(a, b) FROM *//cdata a, *//cdata b "
      "WHERE a CONTAINS 'corpus' AND b CONTAINS '1995'";

  store::Catalog catalog_;
  obs::MetricsRegistry registry_;
  std::atomic<uint64_t> now_ms_{1000};
  std::atomic<uint64_t> now_us_{0};
  uint64_t step_us_ = 5;
};

TEST_F(ServerObservabilityTest, DumpDecomposesLazyFirstTouchCosts) {
  QueryService service = MakeService();
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  auto first = client->Query("lib_2", kTextQuery);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->ok) << first->message;

  // First touch: the query itself paid the deferred decode and the
  // executor/text-index build, and its trace says so.
  std::vector<obs::QueryLogEntry> log = service.query_log().Snapshot();
  ASSERT_EQ(log.size(), 1u);
  const obs::QueryLogEntry& cold = log[0];
  EXPECT_TRUE(cold.ok);
  EXPECT_EQ(cold.scope, "lib_2");
  EXPECT_EQ(cold.query, kTextQuery);
  EXPECT_GT(cold.stage_us[size_t(obs::Stage::kParse)], 0u);
  EXPECT_GT(cold.stage_us[size_t(obs::Stage::kRoute)], 0u);
  EXPECT_GT(cold.stage_us[size_t(obs::Stage::kDecode)], 0u);
  EXPECT_GT(cold.stage_us[size_t(obs::Stage::kIndexBuild)], 0u);
  EXPECT_GT(cold.stage_us[size_t(obs::Stage::kExecute)], 0u);
  EXPECT_GT(cold.stage_us[size_t(obs::Stage::kMerge)], 0u);

  // Same query again: the document is warm, so decode and index build
  // are exactly zero — the spans are gated off, not merely fast (every
  // clock read in this fixture advances time).
  auto second = client->Query("lib_2", kTextQuery);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->ok);
  log = service.query_log().Snapshot();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].stage_us[size_t(obs::Stage::kDecode)], 0u);
  EXPECT_EQ(log[1].stage_us[size_t(obs::Stage::kIndexBuild)], 0u);
  EXPECT_GT(log[1].stage_us[size_t(obs::Stage::kExecute)], 0u);

  // kStats carries the histogram summaries: two request samples on
  // the query opcode, exactly one first-touch decode sample.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->queries_served, 2u);
  bool saw_query_op = false;
  bool saw_decode = false;
  for (const StatsHistogramEntry& entry : stats->histograms) {
    if (entry.name == "meetxml_server_request_us{op=\"query\"}") {
      saw_query_op = true;
      EXPECT_EQ(entry.count, 2u);
      EXPECT_GT(entry.sum, 0u);
    }
    if (entry.name == "meetxml_query_stage_us{stage=\"decode\"}") {
      saw_decode = true;
      EXPECT_EQ(entry.count, 1u);
    }
  }
  EXPECT_TRUE(saw_query_op);
  EXPECT_TRUE(saw_decode);

  // And the dump renders the whole story in one scrape: the series and
  // both query-log lines (a warm line shows decode_us=0 explicitly).
  auto dump = client->Dump();
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_NE(dump->find("meetxml_server_queries_total 2"),
            std::string::npos);
  EXPECT_NE(dump->find(
                "meetxml_query_stage_us{stage=\"decode\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(dump->find("# querylog capacity=256 total=2 (oldest first)"),
            std::string::npos);
  EXPECT_NE(dump->find(" decode_us=0 "), std::string::npos);
  EXPECT_NE(dump->find("scope=\"lib_2\""), std::string::npos);
}

TEST_F(ServerObservabilityTest, SlowQueriesAreCountedAndFlagged) {
  step_us_ = 300;  // every span costs >= 300 us on this clock
  ServiceOptions options;
  options.slow_query_ms = 1;
  QueryService service = MakeService(std::move(options));
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  auto response = client->Query("lib_0", kTextQuery);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok);
  EXPECT_EQ(
      registry_.counter("meetxml_server_slow_queries_total").Value(), 1u);
  std::vector<obs::QueryLogEntry> log = service.query_log().Snapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].slow);
  EXPECT_GE(log[0].total_us, 1000u);
  auto dump = client->Dump();
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find(" slow=1 "), std::string::npos);
}

TEST_F(ServerObservabilityTest, ObserveOffKeepsCountsButRecordsNoTimings) {
  ServiceOptions options;
  options.observe = false;
  QueryService service = MakeService(std::move(options));
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  auto response = client->Query("lib_0", kTextQuery);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok);
  // Exact counting survives; the timing surfaces stay empty (no clock
  // reads, no trace, no log entry) — the overhead bench's baseline.
  EXPECT_EQ(service.stats().queries_served, 1u);
  EXPECT_EQ(service.query_log().total_pushed(), 0u);
  EXPECT_EQ(registry_
                .histogram("meetxml_server_request_us", "op=\"query\"")
                .Summary()
                .count,
            0u);
  auto dump = client->Dump();
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find("meetxml_server_queries_total 1"),
            std::string::npos);
}

// ---- session table ------------------------------------------------------

TEST(ServerSessionTable, OpenTouchCloseLifecycle) {
  SessionTable table(SessionOptions{});
  auto id = table.Open(100);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
  EXPECT_TRUE(table.Contains(*id));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Touch(*id, 200).ok());
  EXPECT_TRUE(table.Close(*id).ok());
  EXPECT_TRUE(table.Close(*id).IsNotFound());
  EXPECT_TRUE(table.Touch(*id, 300).IsNotFound());
  EXPECT_EQ(table.size(), 0u);
}

TEST(ServerSessionTable, IdsAreNeverReused) {
  SessionTable table(SessionOptions{});
  auto first = table.Open(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(table.Close(*first).ok());
  auto second = table.Open(0);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(*second, *first);
}

TEST(ServerSessionTable, EvictsExactlyTheIdleSessions) {
  SessionOptions options;
  options.idle_timeout_ms = 1000;
  SessionTable table(options);
  auto stale = table.Open(0);
  auto fresh = table.Open(0);
  ASSERT_TRUE(stale.ok() && fresh.ok());
  ASSERT_TRUE(table.Touch(*fresh, 800).ok());

  std::vector<uint64_t> evicted = table.EvictIdle(1500);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], *stale);
  EXPECT_FALSE(table.Contains(*stale));
  EXPECT_TRUE(table.Contains(*fresh));
  EXPECT_EQ(table.total_evicted(), 1u);

  // Timeout 0 disables eviction entirely.
  SessionTable forever(SessionOptions{.idle_timeout_ms = 0});
  ASSERT_TRUE(forever.Open(0).ok());
  EXPECT_TRUE(forever.EvictIdle(1u << 30).empty());
}

TEST(ServerSessionTable, FullTableRefusesWithUnavailable) {
  SessionOptions options;
  options.max_sessions = 1;
  SessionTable table(options);
  ASSERT_TRUE(table.Open(0).ok());
  EXPECT_TRUE(table.Open(0).status().IsUnavailable());
}

// ---- worker pool --------------------------------------------------------

TEST(ServerWorkerPool, RunsEveryJobAcrossWorkers) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ServerWorkerPool, ShutdownDrainsThenDropsLateJobs) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 50);  // everything queued before Shutdown ran
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 50);  // the late job was dropped, not lost-run
}

// ---- TCP front-end ------------------------------------------------------

Result<Response> ReadResponse(int fd) {
  char prefix[4];
  MEETXML_RETURN_NOT_OK(util::ReadFull(fd, prefix, sizeof(prefix)));
  uint32_t length = DecodeFrameLength(prefix);
  std::string payload(length, '\0');
  MEETXML_RETURN_NOT_OK(util::ReadFull(fd, payload.data(), length));
  return DecodeResponse(payload);
}

Result<Response> TcpRoundtrip(int fd, const Request& request) {
  MEETXML_RETURN_NOT_OK(
      util::WriteFull(fd, EncodeFrame(EncodeRequest(request))));
  return ReadResponse(fd);
}

TEST(ServerTcp, ServesTheSameBytesAsTheInProcessPath) {
  store::Catalog catalog = OpenViewCatalog();
  std::vector<Expected> expected = SerialExpectations(catalog);
  QueryService service(&catalog);
  auto server = TcpServer::Start(&service);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_GT((*server)->port(), 0);

  auto fd = util::ConnectTcp("localhost", (*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion;
  auto greeted = TcpRoundtrip(*fd, hello);
  ASSERT_TRUE(greeted.ok()) << greeted.status();
  ASSERT_TRUE(greeted->ok);
  EXPECT_GT(greeted->session_id, 0u);
  EXPECT_EQ(greeted->banner, "meetxmld/1");

  for (size_t i = 0; i < MixedQueries().size(); ++i) {
    Request request;
    request.opcode = Opcode::kQuery;
    request.scope = MixedQueries()[i].scope;
    request.query = MixedQueries()[i].query;
    auto response = TcpRoundtrip(*fd, request);
    ASSERT_TRUE(response.ok()) << response.status();
    ExpectMatches(*response, expected[i]);
  }

  Request bye;
  bye.opcode = Opcode::kBye;
  ASSERT_TRUE(TcpRoundtrip(*fd, bye).ok());
  util::CloseSocket(*fd);
  (*server)->Stop();
  EXPECT_EQ(service.stats().sessions_active, 0u);
}

TEST(ServerTcp, PipelinedRequestsAnswerInOrder) {
  store::Catalog catalog = OpenViewCatalog();
  std::vector<Expected> expected = SerialExpectations(catalog);
  QueryService service(&catalog);
  auto server = TcpServer::Start(&service);
  ASSERT_TRUE(server.ok());

  auto fd = util::ConnectTcp("localhost", (*server)->port());
  ASSERT_TRUE(fd.ok());

  // One write: HELLO plus every mixed query back to back. The strand
  // must answer them strictly in submission order.
  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion;
  std::string burst = EncodeFrame(EncodeRequest(hello));
  for (const QueryCase& query_case : MixedQueries()) {
    Request request;
    request.opcode = Opcode::kQuery;
    request.scope = query_case.scope;
    request.query = query_case.query;
    burst += EncodeFrame(EncodeRequest(request));
  }
  ASSERT_TRUE(util::WriteFull(*fd, burst).ok());

  auto greeted = ReadResponse(*fd);
  ASSERT_TRUE(greeted.ok()) << greeted.status();
  ASSERT_TRUE(greeted->ok);
  for (size_t i = 0; i < MixedQueries().size(); ++i) {
    auto response = ReadResponse(*fd);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->opcode, Opcode::kQuery);
    ExpectMatches(*response, expected[i]);
  }
  util::CloseSocket(*fd);
  (*server)->Stop();
}

TEST(ServerTcp, BoundedInboxBackpressuresPipelinedBursts) {
  store::Catalog catalog = OpenViewCatalog();
  QueryService service(&catalog);
  TcpServerOptions options;
  options.max_inbox_frames = 2;  // far below the burst
  options.max_inbox_bytes = 256;
  auto server = TcpServer::Start(&service, options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto fd = util::ConnectTcp("localhost", (*server)->port());
  ASSERT_TRUE(fd.ok());

  // HELLO plus 64 pipelined pings in one write: the reader must park
  // on the 2-frame inbox (TCP backpressure) rather than queue them
  // all, and every frame still answers in order.
  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion;
  std::string burst = EncodeFrame(EncodeRequest(hello));
  Request ping;
  ping.opcode = Opcode::kPing;
  constexpr int kPings = 64;
  for (int i = 0; i < kPings; ++i) {
    burst += EncodeFrame(EncodeRequest(ping));
  }
  ASSERT_TRUE(util::WriteFull(*fd, burst).ok());

  auto greeted = ReadResponse(*fd);
  ASSERT_TRUE(greeted.ok()) << greeted.status();
  EXPECT_TRUE(greeted->ok);
  for (int i = 0; i < kPings; ++i) {
    auto response = ReadResponse(*fd);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->ok);
    EXPECT_EQ(response->opcode, Opcode::kPing);
  }
  util::CloseSocket(*fd);
  (*server)->Stop();
}

TEST(ServerProtocol, MaxQueryTableAlwaysFitsOneFrame) {
  // The session default must sit at or under the frame budget, and a
  // worst-case QUERY response at that budget must still encode into
  // one legal frame — the invariant that keeps TCP and in-process
  // transports byte-identical.
  EXPECT_LE(SessionOptions{}.max_result_bytes, kMaxQueryTableBytes);
  Response response;
  response.ok = true;
  response.opcode = Opcode::kQuery;
  response.row_count = ~0ull;
  response.truncated = true;
  response.table.assign(kMaxQueryTableBytes, 'x');
  EXPECT_LE(EncodeResponse(response).size(), kMaxFrameBytes);
}

TEST(ServerTcp, StopRefusesNewConnectionsAndReleasesSessions) {
  store::Catalog catalog = OpenViewCatalog();
  QueryService service(&catalog);
  auto server = TcpServer::Start(&service);
  ASSERT_TRUE(server.ok());
  uint16_t port = (*server)->port();

  auto fd = util::ConnectTcp("localhost", port);
  ASSERT_TRUE(fd.ok());
  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion;
  ASSERT_TRUE(TcpRoundtrip(*fd, hello).ok());
  ASSERT_EQ(service.stats().sessions_active, 1u);

  (*server)->Stop();  // idempotent; drains and releases the session
  (*server)->Stop();
  EXPECT_EQ(service.stats().sessions_active, 0u);
  EXPECT_EQ((*server)->connection_count(), 0u);
  util::CloseSocket(*fd);

  // The listener is gone: a fresh connect must fail.
  EXPECT_FALSE(util::ConnectTcp("localhost", port).ok());
}

}  // namespace
}  // namespace server
}  // namespace meetxml
