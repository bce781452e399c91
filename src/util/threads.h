// Thread plumbing shared by every parallel loop in the tree.
//
// Bulk load, the parallel catalog decode, Catalog::Warm, the
// multi-document query fan-out and the cross-document lookup all take
// a "0 means pick for me" thread knob and run the same
// pick-next-atomically worker loop through ParallelFor; resolving the
// knob and running the loop in one place keeps the contract (and the
// hardware_concurrency()-can-return-0 workaround) from drifting per
// call site.
//
// ParallelFor spawns no thread per call. Its helpers come from one
// process-wide pool that is started lazily on the first parallel call
// and never shrinks. Idle helpers wait on a LIFO stack, each on its
// own wake slot, so the most recently idle (cache-warm, soonest
// runnable) helper takes the next job. Submission never queues: a
// call takes whatever helpers are idle, and the calling thread claims
// items from the same counter, so every index a helper did not claim
// runs on the caller. A ParallelFor started from inside a body (even
// on a helper) therefore always makes progress and cannot deadlock on
// a saturated pool.
//
// The pool holds ResolveThreads(0) - 1 helpers (the caller is the last
// worker), grown to width - 1 the first time an explicit wider width
// is requested, so an explicit width still gets that many workers.
// server::WorkerPool is a separate FIFO pool (see its header for why).

#ifndef MEETXML_UTIL_THREADS_H_
#define MEETXML_UTIL_THREADS_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>

namespace meetxml {
namespace util {

/// \brief Resolves a user-facing thread-count knob: 0 means "use the
/// hardware parallelism" (never less than 1 — hardware_concurrency()
/// may legitimately return 0), any other value is taken verbatim.
unsigned ResolveThreads(unsigned requested);

/// \brief Helper threads the ParallelFor pool has started since the
/// process began (exported as meetxml_threads_started_total). It moves
/// only while the pool grows, never per call.
uint64_t ThreadsStarted();

namespace internal {

/// \brief One ParallelFor call's shared state. It lives on the heap,
/// co-owned by the caller and every helper handed it, so a helper that
/// wakes after the call returned touches only memory it still owns:
/// it claims an index at or past `count` and goes back to sleep.
class ForTask {
 public:
  ForTask(size_t count, void (*run)(void*, size_t), void* body)
      : count_(count), run_(run), body_(body) {}

  /// \brief Claims and runs indices until none are left. `body` is
  /// only reached for claimed indices below count, and every one of
  /// those finishes before the caller returns, so the caller's stack
  /// frame (where `body` lives) outlives every use of it. An exception
  /// escaping `body` terminates the process: unwinding the caller
  /// while helpers still run would free that frame under them.
  void Work() noexcept {
    for (size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < count_; i = next_.fetch_add(1, std::memory_order_relaxed)) {
      run_(body_, i);
      // The release half of the call's happens-before edge: the
      // caller's acquire of done == count sees every write body made.
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
        std::lock_guard<std::mutex> lock(mu_);
        all_done_.notify_one();
      }
    }
  }

  /// \brief Blocks until every index finished (acquire on done).
  void WaitDone() {
    if (done_.load(std::memory_order_acquire) == count_) return;
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] {
      return done_.load(std::memory_order_acquire) == count_;
    });
  }

 private:
  const size_t count_;
  void (*const run_)(void*, size_t);
  void* const body_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> done_{0};
  std::mutex mu_;
  std::condition_variable all_done_;
};

/// \brief Hands `task` to up to `helpers` idle pool helpers, first
/// growing the pool to at least `helpers` threads. Never blocks on a
/// busy helper: the items nobody takes are left to the caller.
void OfferToHelpers(const std::shared_ptr<ForTask>& task, unsigned helpers);

}  // namespace internal

/// \brief Runs `body(i)` for every i in [0, count) on up to
/// `ResolveThreads(threads)` workers (never more workers than items):
/// the calling thread plus idle helpers from the process-wide pool.
/// Returns the width the range was split across. The pool holds at
/// least width - 1 helpers, so with no other parallel call in flight
/// every one of them is offered a share; a helper still busy elsewhere
/// leaves its share to the caller. Iterations are claimed with an
/// atomic counter, so `body` must be safe to call concurrently for
/// distinct indices; the call returns only after every iteration
/// finished, and everything `body` wrote happens-before the return.
template <typename Body>
unsigned ParallelFor(size_t count, unsigned threads, Body&& body) {
  unsigned workers = static_cast<unsigned>(
      std::min<size_t>(ResolveThreads(threads), count));
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) body(i);
    return count == 0 ? 0u : 1u;
  }
  using BodyType = std::remove_reference_t<Body>;
  auto task = std::make_shared<internal::ForTask>(
      count,
      [](void* fn, size_t i) { (*static_cast<BodyType*>(fn))(i); },
      const_cast<void*>(static_cast<const void*>(&body)));
  internal::OfferToHelpers(task, workers - 1);
  task->Work();
  task->WaitDone();
  return workers;
}

}  // namespace util
}  // namespace meetxml

#endif  // MEETXML_UTIL_THREADS_H_
