// Fixed worker pool executing queued jobs — the execution engine
// behind the meetxmld TCP front-end (pazpar2 hands socket events to a
// select-thread the same way: the event loop never blocks on work).
//
// Connections are scheduled as strands (tcp_server.cc): a connection
// re-submits itself while it has pending frames, so jobs from one
// connection never run concurrently while different connections spread
// across the pool.
//
// This pool stays apart from util::ParallelFor's helper pool on
// purpose. A dispatch job must queue when every worker is busy (a
// strand wakeup is never dropped), while a fan-out item must never
// wait behind one: its caller runs whatever no idle helper took. A
// prototype that ran the fan-out helpers off a shared FIFO queue like
// this one lowered fanout_topk's p50 by 12-19%, but on a 4-vCPU VM the
// p99 of its 8-document ranked queries went from 476 us to 925-1,187
// us, and the workload's p99 rose 13-30%: items queued behind other
// queries' items. The LIFO helper pool cut p99 instead (util/threads.h).
//
// Instrumentation (WorkerPoolOptions::metrics): a queue-depth gauge
// plus queue-wait and execute histograms, stamped on the pool's
// injected clock — a saturated pool shows nonzero queue wait, an idle
// one zero, and tests pin both without sleeping (tests/obs_test.cc).

#ifndef MEETXML_SERVER_WORKER_POOL_H_
#define MEETXML_SERVER_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace meetxml {
namespace server {

/// \brief Worker pool knobs.
struct WorkerPoolOptions {
  /// Worker threads; util::ResolveThreads semantics (0 = hardware).
  unsigned threads = 0;
  /// Microsecond clock for queue-wait / execute timing. Null means
  /// obs::MonotonicMicros. Only read when `metrics` is set.
  std::function<uint64_t()> clock_us;
  /// Metrics sink; null disables all timing (no clock reads — the
  /// uninstrumented pool behaves exactly like before).
  obs::MetricsRegistry* metrics = nullptr;
  /// Queue cap honored by TrySubmit (0 = unbounded). Plain Submit
  /// ignores it: strand wakeups must never be dropped, so only callers
  /// that can shed (and tell the peer to retry) use the bounded path.
  size_t max_queue = 0;
};

/// \brief A fixed pool of worker threads draining a FIFO job queue.
class WorkerPool {
 public:
  /// \brief Spawns util::ResolveThreads(threads) workers, untimed.
  explicit WorkerPool(unsigned threads)
      : WorkerPool(WorkerPoolOptions{threads, {}, nullptr}) {}
  /// \brief Spawns workers; with options.metrics set, exports
  /// meetxml_worker_queue_depth, meetxml_worker_queue_wait_us and
  /// meetxml_worker_execute_us.
  explicit WorkerPool(WorkerPoolOptions options);
  /// \brief Drains the queue, then joins (Shutdown implied).
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// \brief Enqueues a job. Jobs submitted after Shutdown are dropped.
  void Submit(std::function<void()> job);

  /// \brief Bounded enqueue: refuses (returns false, job not queued)
  /// when the queue already holds options.max_queue jobs or the pool is
  /// shutting down — the overload-shedding intake. With max_queue == 0
  /// it only refuses after Shutdown.
  bool TrySubmit(std::function<void()> job);

  /// \brief Jobs currently queued (not the ones executing).
  size_t queue_depth() const;

  /// \brief Stops intake, runs every queued job to completion, joins
  /// the workers. Idempotent.
  void Shutdown();

  size_t worker_count() const { return workers_.size(); }

 private:
  struct Job {
    std::function<void()> fn;
    uint64_t enqueued_us = 0;
  };

  void WorkerLoop();
  uint64_t NowUs() const {
    return options_.clock_us ? options_.clock_us()
                             : obs::MonotonicMicros();
  }

  WorkerPoolOptions options_;
  // Resolved once at construction; null when metrics are off.
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  obs::Histogram* execute_us_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace meetxml

#endif  // MEETXML_SERVER_WORKER_POOL_H_
