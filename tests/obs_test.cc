// Tests for the observability layer (src/obs): histogram bucketing,
// sharded-counter merging under threads, trace spans on an injected
// clock, the query-log ring, the Prometheus exposition, the worker
// pool's queue-wait accounting, and the helper pool's thread count.
// Everything timing-shaped runs on a hand-stepped fake clock — no
// sleeps, so the pinned values are exact and the suite is
// sanitizer-friendly.

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/dblp_gen.h"
#include "gtest/gtest.h"
#include "model/shredder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/path_match.h"
#include "server/worker_pool.h"
#include "store/catalog.h"
#include "store/multi_executor.h"

namespace meetxml {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucketing.

TEST(ObsHistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 64u);
}

TEST(ObsHistogramTest, BucketUpperBoundsInvertTheIndex) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~uint64_t{0});
  // Every value lands in the bucket whose upper bound admits it.
  for (uint64_t value : {0ull, 1ull, 5ull, 100ull, 65535ull, 1ull << 40}) {
    size_t bucket = Histogram::BucketIndex(value);
    EXPECT_LE(value, Histogram::BucketUpperBound(bucket)) << value;
    if (bucket > 0) {
      EXPECT_GT(value, Histogram::BucketUpperBound(bucket - 1)) << value;
    }
  }
}

TEST(ObsHistogramTest, SummaryQuantilesAreBucketUpperBounds) {
  Histogram histogram;
  // 90 fast samples at 5 us (bucket 3, upper bound 7) and 10 slow ones
  // at 1000 us (bucket 10, upper bound 1023): the p50/p90 resolve to
  // the fast bucket, the p99 to the slow one.
  for (int i = 0; i < 90; ++i) histogram.Record(5);
  for (int i = 0; i < 10; ++i) histogram.Record(1000);
  HistogramSummary summary = histogram.Summary();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_EQ(summary.sum, 90u * 5 + 10u * 1000);
  EXPECT_EQ(summary.p50, 7u);
  EXPECT_EQ(summary.p90, 7u);
  EXPECT_EQ(summary.p99, 1023u);
}

TEST(ObsHistogramTest, EmptySummaryIsAllZero) {
  Histogram histogram;
  HistogramSummary summary = histogram.Summary();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.sum, 0u);
  EXPECT_EQ(summary.p50, 0u);
}

// ---------------------------------------------------------------------------
// Sharded merge correctness under concurrency (meaningful under TSan:
// 8 writers race onto the shard cells while a reader merges).

TEST(ObsShardingTest, CounterLosesNoIncrementsAcrossThreads) {
  Counter counter;
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        histogram.Record(static_cast<uint64_t>(t));
        if (i % 4096 == 0) {
          counter.Value();  // concurrent reads must also be clean
          histogram.Summary();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
  HistogramSummary summary = histogram.Summary();
  EXPECT_EQ(summary.count, uint64_t{kThreads} * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += uint64_t{kPerThread} * static_cast<uint64_t>(t);
  }
  EXPECT_EQ(summary.sum, expected_sum);
}

TEST(ObsShardingTest, GaugeTracksAddAndSet) {
  Gauge gauge;
  gauge.Add(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Set(-7);
  EXPECT_EQ(gauge.Value(), -7);
}

// ---------------------------------------------------------------------------
// Trace spans on a hand-stepped clock.

TEST(ObsTraceTest, SpansAttributeElapsedTimeToStages) {
  uint64_t now = 0;
  QueryTrace trace([&now] { return now; });
  {
    TraceSpan parse(&trace, Stage::kParse);
    now += 3;
  }
  EXPECT_EQ(trace.stage_us(Stage::kParse), 3u);
  {
    TraceSpan route(&trace, Stage::kRoute);
    now += 10;
    EXPECT_EQ(route.Stop(), 10u);
    now += 100;               // after Stop: not attributed
    EXPECT_EQ(route.Stop(), 10u);  // idempotent
  }
  EXPECT_EQ(trace.stage_us(Stage::kRoute), 10u);
  EXPECT_EQ(trace.TotalStageUs(), 13u);
}

TEST(ObsTraceTest, NestedSpansDecomposeTheirParent) {
  uint64_t now = 0;
  QueryTrace trace([&now] { return now; });
  {
    TraceSpan execute(&trace, Stage::kExecute);
    now += 4;
    {
      TraceSpan merge(&trace, Stage::kMerge);
      now += 15;
    }
    now += 1;
  }
  // The child's 15 us are inside the parent's 20 us wall time — the
  // sibling stages decompose it, they do not subtract from it.
  EXPECT_EQ(trace.stage_us(Stage::kMerge), 15u);
  EXPECT_EQ(trace.stage_us(Stage::kExecute), 20u);
}

TEST(ObsTraceTest, NullTraceSpansAreFree) {
  int clock_reads = 0;
  QueryTrace trace([&clock_reads] {
    ++clock_reads;
    return uint64_t{0};
  });
  {
    TraceSpan span(nullptr, Stage::kDecode);
    EXPECT_EQ(span.Stop(), 0u);
  }
  EXPECT_EQ(clock_reads, 0);
}

TEST(ObsTraceTest, DocSlotsCollectPerDocumentFields) {
  uint64_t now = 0;
  QueryTrace trace([&now] { return now; });
  trace.SetDocs({"alpha", "beta"});
  {
    TraceSpan decode(&trace, Stage::kDecode, &trace.doc(0)->decode_us);
    now += 40;
  }
  {
    TraceSpan execute(&trace, Stage::kExecute, &trace.doc(1)->execute_us);
    now += 6;
  }
  EXPECT_EQ(trace.docs()[0].name, "alpha");
  EXPECT_EQ(trace.docs()[0].decode_us, 40u);
  EXPECT_EQ(trace.docs()[1].execute_us, 6u);
  EXPECT_EQ(trace.stage_us(Stage::kDecode), 40u);
  EXPECT_EQ(trace.stage_us(Stage::kExecute), 6u);
}

TEST(ObsTraceTest, RecordStageHistogramsSkipsFirstTouchZeroes) {
  MetricsRegistry registry;
  uint64_t now = 0;
  QueryTrace trace([&now] { return now; });
  trace.SetDocs({"alpha", "beta"});
  trace.doc(0)->decode_us = 30;
  trace.doc(0)->execute_us = 5;
  trace.doc(1)->execute_us = 2;  // beta was warm: no decode, no build
  RecordStageHistograms(&registry, trace, /*rows=*/12);
  EXPECT_EQ(registry.histogram("meetxml_query_stage_us", "stage=\"decode\"")
                .Summary()
                .count,
            1u);
  EXPECT_EQ(
      registry.histogram("meetxml_query_stage_us", "stage=\"index_build\"")
          .Summary()
          .count,
      0u);
  EXPECT_EQ(registry.histogram("meetxml_query_stage_us", "stage=\"execute\"")
                .Summary()
                .count,
            2u);
  EXPECT_EQ(registry.histogram("meetxml_query_stage_us", "stage=\"parse\"")
                .Summary()
                .count,
            1u);
  EXPECT_EQ(registry.counter("meetxml_query_rows_total").Value(), 12u);
}

// ---------------------------------------------------------------------------
// Query-log ring.

TEST(ObsQueryLogTest, RingKeepsTheMostRecentEntriesOldestFirst) {
  QueryLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (uint64_t i = 0; i < 10; ++i) {
    QueryLogEntry entry;
    entry.when_ms = i;
    entry.query = std::to_string(i);
    log.Push(std::move(entry));
  }
  EXPECT_EQ(log.total_pushed(), 10u);
  std::vector<QueryLogEntry> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].when_ms, 6 + i);
    EXPECT_EQ(snapshot[i].query, std::to_string(6 + i));
  }
}

TEST(ObsQueryLogTest, ZeroCapacityClampsToOne) {
  QueryLog log(0);
  EXPECT_EQ(log.capacity(), 1u);
  QueryLogEntry entry;
  entry.when_ms = 1;
  log.Push(entry);
  entry.when_ms = 2;
  log.Push(entry);
  std::vector<QueryLogEntry> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].when_ms, 2u);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(ObsRegistryTest, RenderPrometheusGolden) {
  MetricsRegistry registry;
  registry.counter("meetxml_test_total").Add(3);
  registry.gauge("meetxml_test_depth").Set(-2);
  Histogram& histogram = registry.histogram("meetxml_test_us", "op=\"q\"");
  histogram.Record(5);   // bucket 3, upper bound 7
  histogram.Record(9);   // bucket 4, upper bound 15
  registry.histogram("meetxml_test_empty_us");  // empty: skipped
  EXPECT_EQ(registry.RenderPrometheus(),
            "# TYPE meetxml_test_depth gauge\n"
            "meetxml_test_depth -2\n"
            "# TYPE meetxml_test_total counter\n"
            "meetxml_test_total 3\n"
            "# TYPE meetxml_test_us summary\n"
            "meetxml_test_us{op=\"q\",quantile=\"0.5\"} 7\n"
            "meetxml_test_us{op=\"q\",quantile=\"0.9\"} 7\n"
            "meetxml_test_us{op=\"q\",quantile=\"0.99\"} 7\n"
            "meetxml_test_us_sum{op=\"q\"} 14\n"
            "meetxml_test_us_count{op=\"q\"} 2\n");
}

TEST(ObsRegistryTest, LookupReturnsTheSameMetricAndSummariesSkipEmpty) {
  MetricsRegistry registry;
  Counter& a = registry.counter("meetxml_repeat_total");
  Counter& b = registry.counter("meetxml_repeat_total");
  EXPECT_EQ(&a, &b);
  // Same name, different labels: distinct series.
  Histogram& q = registry.histogram("meetxml_req_us", "op=\"query\"");
  Histogram& p = registry.histogram("meetxml_req_us", "op=\"ping\"");
  EXPECT_NE(&q, &p);
  q.Record(100);
  std::vector<NamedSummary> summaries = registry.HistogramSummaries();
  ASSERT_EQ(summaries.size(), 1u);  // the empty ping series is skipped
  EXPECT_EQ(summaries[0].name, "meetxml_req_us{op=\"query\"}");
  EXPECT_EQ(summaries[0].summary.count, 1u);
}

// ---------------------------------------------------------------------------
// Binding work counters: string values tested by a filter or scan, and
// postings read from the index — deterministic, so they pin exactly.

class ObsBindCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::DblpOptions options;
    options.end_year = 1987;
    options.icde_papers_per_year = 10;
    options.other_papers_per_year = 20;
    options.journal_articles_per_year = 10;
    auto xml = data::GenerateDblpXml(options);
    ASSERT_TRUE(xml.ok()) << xml.status();
    auto doc = model::ShredXmlText(*xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::move(*doc);
  }

  struct Delta {
    uint64_t scanned;
    uint64_t postings;
  };

  // Runs `text` on `executor` and returns the counters' movement.
  static Delta Run(const query::Executor& executor, const std::string& text) {
    Counter& scanned = MetricsRegistry::Global().counter(
        "meetxml_query_bind_values_scanned_total");
    Counter& postings = MetricsRegistry::Global().counter(
        "meetxml_query_bind_postings_total");
    uint64_t scanned_before = scanned.Value();
    uint64_t postings_before = postings.Value();
    auto result = executor.ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status();
    return Delta{scanned.Value() - scanned_before,
                 postings.Value() - postings_before};
  }

  model::StoredDocument doc_;
};

TEST_F(ObsBindCountersTest, Fig7ShapedQueryScansNoValues) {
  auto executor = query::Executor::Build(doc_);
  ASSERT_TRUE(executor.ok()) << executor.status();
  Delta delta = Run(*executor,
                    "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b "
                    "WHERE a CONTAINS 'ICDE' AND (b CONTAINS '1984' OR "
                    "b CONTAINS '1986' OR b CONTAINS '1987') EXCLUDE dblp");
  EXPECT_EQ(delta.scanned, 0u);
  EXPECT_GT(delta.postings, 0u);
}

TEST_F(ObsBindCountersTest, IcontainsScansEveryBoundStringOnce) {
  auto executor = query::Executor::Build(doc_);
  ASSERT_TRUE(executor.ok()) << executor.status();
  const std::string text =
      "SELECT COUNT(a) FROM dblp//title/cdata a WHERE a ICONTAINS 'data' "
      "AND a ICONTAINS 'base'";
  auto query = query::ParseQuery(text);
  ASSERT_TRUE(query.ok()) << query.status();
  auto paths = query::MatchPattern(doc_.paths(), query->bindings[0].pattern);
  ASSERT_TRUE(paths.ok()) << paths.status();
  uint64_t strings = 0;
  for (bat::PathId path : *paths) strings += doc_.StringsAt(path).size();
  ASSERT_GT(strings, 0u);

  Delta delta = Run(*executor, text);
  EXPECT_EQ(delta.scanned, strings);
  EXPECT_EQ(delta.postings, 0u);
  // No conjunct could use the index, so none was built for it.
  EXPECT_FALSE(executor->text_index_built());
}

// ---------------------------------------------------------------------------
// Threads: util::ParallelFor's helper pool starts its threads once, so
// a served fan-out after warm-up starts none.

TEST(ObsThreadsTest, FanOutsAfterWarmUpStartNoThreads) {
  store::Catalog catalog;
  for (int i = 0; i < 8; ++i) {
    data::DblpOptions options;
    options.seed = 42 + static_cast<uint64_t>(i);
    options.start_year = 1980 + i;
    options.end_year = options.start_year + 1;
    options.icde_papers_per_year = 4;
    options.other_papers_per_year = 6;
    options.journal_articles_per_year = 3;
    auto xml = data::GenerateDblpXml(options);
    ASSERT_TRUE(xml.ok()) << xml.status();
    auto doc = model::ShredXmlText(*xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    ASSERT_TRUE(catalog.Add("dblp_" + std::to_string(i), std::move(*doc))
                    .ok());
  }
  store::MultiExecutor multi(&catalog);
  auto query = query::ParseQuery(
      "SELECT MEET(a, b) FROM dblp//cdata a, dblp//cdata b "
      "WHERE a CONTAINS 'ICDE' AND b CONTAINS '198' EXCLUDE dblp LIMIT 10");
  ASSERT_TRUE(query.ok()) << query.status();
  query::ExecuteOptions options;
  options.merge_threads = 2;

  Counter& started =
      MetricsRegistry::Global().counter("meetxml_threads_started_total");
  ASSERT_TRUE(multi.Execute("*", *query, options).ok());  // warm-up
  const uint64_t after_warm_up = started.Value();
  EXPECT_GE(after_warm_up, 1u);
  for (int i = 0; i < 100; ++i) {
    auto result = multi.Execute("*", *query, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->rows.size(), 10u);
  }
  EXPECT_EQ(started.Value(), after_warm_up);
  EXPECT_NE(MetricsRegistry::Global().RenderPrometheus().find(
                "meetxml_threads_started_total " +
                std::to_string(after_warm_up) + "\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Worker-pool queue accounting on an injected clock (no sleeps: the
// saturated case parks the only worker on a future the test releases).

TEST(ObsWorkerPoolTest, IdlePoolShowsZeroQueueWait) {
  MetricsRegistry registry;
  std::atomic<uint64_t> now{0};
  server::WorkerPoolOptions options;
  options.threads = 1;
  options.metrics = &registry;
  options.clock_us = [&now] { return now.load(); };
  {
    server::WorkerPool pool(std::move(options));
    pool.Submit([] {});
    pool.Shutdown();
  }
  HistogramSummary wait =
      registry.histogram("meetxml_worker_queue_wait_us").Summary();
  EXPECT_EQ(wait.count, 1u);
  EXPECT_EQ(wait.sum, 0u);  // clock never moved: dequeue == enqueue
  EXPECT_EQ(registry.gauge("meetxml_worker_queue_depth").Value(), 0);
}

TEST(ObsWorkerPoolTest, SaturatedPoolAccountsQueueWaitExactly) {
  MetricsRegistry registry;
  std::atomic<uint64_t> now{0};
  server::WorkerPoolOptions options;
  options.threads = 1;
  options.metrics = &registry;
  options.clock_us = [&now] { return now.load(); };
  server::WorkerPool pool(std::move(options));
  ASSERT_EQ(pool.worker_count(), 1u);

  std::promise<void> blocker_started;
  std::promise<void> release_blocker;
  std::future<void> release = release_blocker.get_future();
  // Job A occupies the only worker. Its start stamp is read before the
  // body runs, while the clock is still 0.
  pool.Submit([&] {
    blocker_started.set_value();
    release.wait();
  });
  blocker_started.get_future().wait();

  // With the worker busy, enqueue job B at t=100; it cannot start
  // until A finishes. Depth gauge counts it while it queues.
  now.store(100);
  pool.Submit([&now] { now.store(400); });
  EXPECT_EQ(registry.gauge("meetxml_worker_queue_depth").Value(), 1);

  // Release A at t=350: B's queue wait is exactly 350 - 100 = 250 us.
  now.store(350);
  release_blocker.set_value();
  pool.Shutdown();

  HistogramSummary wait =
      registry.histogram("meetxml_worker_queue_wait_us").Summary();
  EXPECT_EQ(wait.count, 2u);
  EXPECT_EQ(wait.sum, 250u);  // A waited 0, B waited 250
  HistogramSummary execute =
      registry.histogram("meetxml_worker_execute_us").Summary();
  EXPECT_EQ(execute.count, 2u);
  EXPECT_EQ(execute.sum, 350u + 50u);  // A: 0->350, B: 350->400
  EXPECT_EQ(registry.gauge("meetxml_worker_queue_depth").Value(), 0);
}

TEST(ObsWorkerPoolTest, UntimedPoolNeverReadsItsClock) {
  std::atomic<int> clock_reads{0};
  server::WorkerPoolOptions options;
  options.threads = 2;
  options.metrics = nullptr;  // timing disabled
  options.clock_us = [&clock_reads] {
    clock_reads.fetch_add(1);
    return uint64_t{0};
  };
  {
    server::WorkerPool pool(std::move(options));
    for (int i = 0; i < 16; ++i) pool.Submit([] {});
  }
  EXPECT_EQ(clock_reads.load(), 0);
}

}  // namespace
}  // namespace obs
}  // namespace meetxml
