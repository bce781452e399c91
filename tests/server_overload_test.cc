// Graceful degradation under overload, proven sleep-free.
//
// The admission cap (ServiceOptions::queue_cap), queue deadline and
// busy replies are pinned on injected clocks and promise latches — no
// wall-clock sleeps, no timing assumptions. The central scenario: a
// 1-slot service with one query held in flight (latched inside its
// dispatch on the injected microsecond clock) must shed the next query
// with a busy reply carrying the configured retry-after hint, while
// the in-flight query still answers byte-correctly once released and
// a retry after release succeeds. The suite also covers the queue
// deadline, v1-shaped shedding, the WorkerPool's TrySubmit bound, the
// TCP front-end's enqueue-time shedding (in strict response order),
// and the server.admit failpoint.

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "server/worker_pool.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "tests/test_util.h"
#include "util/failpoint.h"
#include "util/net.h"

namespace meetxml {
namespace server {
namespace {

using meetxml::testing::MustShred;
using util::FailPoints;
using util::FailPointSpec;
using util::Result;
using util::Status;
using util::StatusCode;

std::string LibraryXml(int n) {
  std::string xml = "<doc>";
  for (int entry = 0; entry < 3; ++entry) {
    xml += "<entry><title>corpus " + std::to_string(n) + " entry " +
           std::to_string(entry) + "</title><year>" +
           std::to_string(1990 + (n + entry) % 8) + "</year></entry>";
  }
  xml += "</doc>";
  return xml;
}

constexpr char kScope[] = "*";
constexpr char kQueryText[] = "SELECT COUNT(a) FROM *//cdata a";

class ServerOverloadTest : public ::testing::Test {
 protected:
  ServerOverloadTest() {
    for (int i = 0; i < 3; ++i) {
      auto added = catalog_.Add("lib_" + std::to_string(i),
                                MustShred(LibraryXml(i)));
      EXPECT_TRUE(added.ok()) << added.status();
    }
  }

  void TearDown() override { FailPoints::Reset(); }

  ServiceOptions BaseOptions() {
    ServiceOptions options;
    options.clock = [this] { return now_ms_.load(); };
    options.clock_us = [this] { return now_ms_.load() * 1000; };
    return options;
  }

  std::string SerialAnswer() {
    store::MultiExecutor executor(&catalog_);
    auto result = executor.ExecuteText(kScope, kQueryText);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->ToText() : std::string();
  }

  static std::string QueryPayload() {
    Request request;
    request.opcode = Opcode::kQuery;
    request.scope = kScope;
    request.query = kQueryText;
    return EncodeRequest(request);
  }

  store::Catalog catalog_;
  std::atomic<uint64_t> now_ms_{1000};
};

// The tentpole scenario: cap 1, one query latched mid-dispatch, the
// next one shed with the hint — and both eventually answer right.
TEST_F(ServerOverloadTest, SaturatedServiceShedsWithRetryHint) {
  const std::string expected_table = SerialAnswer();

  // Latch machinery: the in-flight query blocks on its 2nd injected
  // clock_us read. The 1st read is HandlePayload's start timestamp
  // (before admission); every later one happens inside the dispatch,
  // with the admission slot held — exactly the window the cap must
  // protect. countdown==0 therefore means "the query is latched inside
  // its slot", which the main thread spins on (no sleeps).
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> latch_countdown{0};

  ServiceOptions options = BaseOptions();
  options.queue_cap = 1;
  options.busy_retry_after_ms = 250;
  options.clock_us = [this, &latch_countdown, released] {
    if (latch_countdown.load(std::memory_order_acquire) > 0 &&
        latch_countdown.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      released.wait();
    }
    return now_ms_.load() * 1000;
  };
  QueryService service(&catalog_, options);

  auto in_flight = InProcessClient::Connect(&service);
  ASSERT_TRUE(in_flight.ok());
  ASSERT_TRUE(in_flight->Hello().ok());
  auto shed = InProcessClient::Connect(&service);
  ASSERT_TRUE(shed.ok());
  ASSERT_TRUE(shed->Hello().ok());

  latch_countdown.store(2, std::memory_order_release);
  Result<Response> in_flight_response = Status::Internal("not yet run");
  std::thread query_thread([&] {
    in_flight_response = in_flight->Query(kScope, kQueryText);
  });
  while (latch_countdown.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(service.admitted_queries(), 1u);

  // The (cap+1)-th query: shed busy, with the configured hint, while
  // the first still executes.
  auto busy = shed->Query(kScope, kQueryText);
  ASSERT_TRUE(busy.ok()) << busy.status();
  EXPECT_FALSE(busy->ok);
  EXPECT_TRUE(busy->busy);
  EXPECT_EQ(busy->retry_after_ms, 250u);
  EXPECT_EQ(busy->code, StatusCode::kUnavailable);
  EXPECT_NE(busy->message.find("overloaded"), std::string::npos);

  // Release the latch: the in-flight query answers byte-correctly —
  // shedding its sibling never corrupted it.
  release.set_value();
  query_thread.join();
  ASSERT_TRUE(in_flight_response.ok()) << in_flight_response.status();
  ASSERT_TRUE(in_flight_response->ok) << in_flight_response->message;
  EXPECT_EQ(in_flight_response->table, expected_table);

  // The slot is back: the retry the hint asked for now succeeds.
  EXPECT_EQ(service.admitted_queries(), 0u);
  auto retry = shed->Query(kScope, kQueryText);
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE(retry->ok) << retry->message;
  EXPECT_EQ(retry->table, expected_table);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_shed, 1u);
  EXPECT_EQ(stats.queries_served, 2u);
}

TEST_F(ServerOverloadTest, QueueDeadlineShedsStaleQueries) {
  ServiceOptions options = BaseOptions();
  options.queue_deadline_ms = 50;
  QueryService service(&catalog_, options);
  uint64_t deadline_before =
      service.metrics()
          .counter("meetxml_server_deadline_exceeded_total")
          .Value();

  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  // A fresh pre-admitted request (front-end shape) dispatches fine.
  ASSERT_TRUE(service.TryAcquireQuerySlot());
  RequestContext fresh;
  fresh.admitted_ms = now_ms_.load();
  fresh.pre_admitted = true;
  auto fresh_response = DecodeResponse(
      client->connection()->HandlePayload(QueryPayload(), fresh));
  ASSERT_TRUE(fresh_response.ok());
  EXPECT_TRUE(fresh_response->ok) << fresh_response->message;

  // The same request after 100 injected ms in the queue: shed, with
  // the deadline counter (not just the shed counter) bumped.
  ASSERT_TRUE(service.TryAcquireQuerySlot());
  RequestContext stale;
  stale.admitted_ms = now_ms_.load();
  stale.pre_admitted = true;
  now_ms_.fetch_add(100);
  auto stale_response = DecodeResponse(
      client->connection()->HandlePayload(QueryPayload(), stale));
  ASSERT_TRUE(stale_response.ok());
  EXPECT_FALSE(stale_response->ok);
  EXPECT_TRUE(stale_response->busy);
  EXPECT_NE(stale_response->message.find("deadline"), std::string::npos);
  EXPECT_EQ(service.metrics()
                    .counter("meetxml_server_deadline_exceeded_total")
                    .Value() -
                deadline_before,
            1u);
  EXPECT_EQ(service.stats().queries_shed, 1u);

  // Slots were released on both paths (RAII, not the happy path only).
  EXPECT_EQ(service.admitted_queries(), 0u);

  // The in-process transport (no queue, admitted_ms == 0) is never
  // deadline-shed, however far the clock advanced.
  now_ms_.fetch_add(1000);
  auto direct = client->Query(kScope, kQueryText);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->ok) << direct->message;
}

TEST_F(ServerOverloadTest, WorkerPoolTrySubmitBoundsTheQueue) {
  WorkerPoolOptions options;
  options.threads = 1;
  options.max_queue = 1;
  WorkerPool pool(options);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  pool.Submit([&] {
    started.store(true, std::memory_order_release);
    released.wait();
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // The lone worker is latched, the queue is empty: one bounded submit
  // fits, the next is refused.
  EXPECT_TRUE(pool.TrySubmit([&] { ran.fetch_add(1); }));
  EXPECT_FALSE(pool.TrySubmit([&] { ran.fetch_add(1); }));
  EXPECT_EQ(pool.queue_depth(), 1u);

  // Plain Submit ignores the bound: strand wakeups must never drop,
  // or a connection's inbox would strand forever.
  pool.Submit([&] { ran.fetch_add(1); });
  EXPECT_EQ(pool.queue_depth(), 2u);

  release.set_value();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 2);
}

TEST_F(ServerOverloadTest, TcpFrontEndShedsAtEnqueueInResponseOrder) {
  ServiceOptions options = BaseOptions();
  options.queue_cap = 1;
  options.busy_retry_after_ms = 75;
  QueryService service(&catalog_, options);
  const std::string expected_table = SerialAnswer();
  auto server = TcpServer::Start(&service);
  ASSERT_TRUE(server.ok()) << server.status();

  auto fd = util::ConnectTcp("localhost", (*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  Request hello;
  hello.opcode = Opcode::kHello;
  hello.protocol_version = kProtocolVersion;
  ASSERT_TRUE(util::WriteFull(
                  *fd, EncodeFrame(EncodeRequest(hello)))
                  .ok());
  auto read_response = [&]() -> Result<Response> {
    char prefix[4];
    MEETXML_RETURN_NOT_OK(util::ReadFull(*fd, prefix, sizeof(prefix)));
    uint32_t length = DecodeFrameLength(prefix);
    std::string payload(length, '\0');
    MEETXML_RETURN_NOT_OK(util::ReadFull(*fd, payload.data(), length));
    return DecodeResponse(payload);
  };
  auto greeted = read_response();
  ASSERT_TRUE(greeted.ok()) << greeted.status();
  ASSERT_TRUE(greeted->ok);

  // Saturate the cap from outside, then pipeline PING | QUERY | PING
  // in one write. The query is shed at enqueue, but its busy reply
  // must ride the strand like any frame: responses arrive strictly as
  // ping, busy, ping.
  ASSERT_TRUE(service.TryAcquireQuerySlot());
  Request ping;
  ping.opcode = Opcode::kPing;
  Request query;
  query.opcode = Opcode::kQuery;
  query.scope = kScope;
  query.query = kQueryText;
  std::string burst = EncodeFrame(EncodeRequest(ping)) +
                      EncodeFrame(EncodeRequest(query)) +
                      EncodeFrame(EncodeRequest(ping));
  ASSERT_TRUE(util::WriteFull(*fd, burst).ok());

  auto first = read_response();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->ok);
  EXPECT_EQ(first->opcode, Opcode::kPing);

  auto second = read_response();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->ok);
  EXPECT_TRUE(second->busy);
  EXPECT_EQ(second->opcode, Opcode::kQuery);
  EXPECT_EQ(second->retry_after_ms, 75u);

  auto third = read_response();
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE(third->ok);
  EXPECT_EQ(third->opcode, Opcode::kPing);

  // Release the external hold: the retry goes through and answers
  // exactly what a serial run answers.
  service.ReleaseQuerySlot();
  ASSERT_TRUE(util::WriteFull(
                  *fd, EncodeFrame(EncodeRequest(query)))
                  .ok());
  auto retry = read_response();
  ASSERT_TRUE(retry.ok()) << retry.status();
  ASSERT_TRUE(retry->ok) << retry->message;
  EXPECT_EQ(retry->table, expected_table);

  EXPECT_GE(service.stats().queries_shed, 1u);
  util::CloseSocket(*fd);
  (*server)->Stop();
  EXPECT_EQ(service.admitted_queries(), 0u);
}

TEST_F(ServerOverloadTest, AdmitFailpointForcesTheShedPath) {
  if (!FailPoints::enabled()) {
    GTEST_SKIP() << "failpoint sites are compiled out in this build";
  }
  QueryService service(&catalog_, BaseOptions());  // cap 0 = unbounded
  auto client = InProcessClient::Connect(&service);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  ASSERT_TRUE(FailPoints::ArmFromSpec("server.admit=error").ok());
  auto shed = client->Query(kScope, kQueryText);
  FailPoints::Reset();
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_FALSE(shed->ok);
  EXPECT_TRUE(shed->busy);

  auto after = client->Query(kScope, kQueryText);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->ok) << after->message;
}

}  // namespace
}  // namespace server
}  // namespace meetxml
