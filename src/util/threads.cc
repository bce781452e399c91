#include "util/threads.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace meetxml {
namespace util {

unsigned ResolveThreads(unsigned requested) {
  if (requested != 0) return requested;
  // hardware_concurrency() is a syscall in glibc; served fan-outs at
  // width 0 resolve it per query, so read it once.
  static const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  return hardware;
}

namespace internal {
namespace {

std::atomic<uint64_t> threads_started{0};

// The process-wide helper pool behind ParallelFor (see threads.h).
// It is leaked on purpose, with every helper's std::thread inside it:
// helpers sleep in their wake slot for the life of the process, so
// nothing they use is ever destroyed, and no exit path has to join
// them (a forked child, as in the crash matrix, has none to join).
class HelperPool {
 public:
  static HelperPool& Global() {
    static HelperPool* pool = new HelperPool();
    return *pool;
  }

  void Offer(const std::shared_ptr<ForTask>& task, unsigned helpers) {
    for (unsigned taken = 0; taken < helpers; ++taken) {
      Helper* helper = PopIdle(helpers);
      if (helper == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(helper->mu);
        helper->task = task;
      }
      helper->wake.notify_one();
    }
  }

 private:
  // A helper's wake slot: it sleeps until `task` is set.
  struct Helper {
    std::mutex mu;
    std::condition_variable wake;
    std::shared_ptr<ForTask> task;
    std::thread thread;  // runs Loop(this); never joined
  };

  // Pops the most recently idle helper, first growing the pool to
  // max(hardware - 1, min_size) helpers. Null when none is idle.
  Helper* PopIdle(unsigned min_size) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t target = std::max<size_t>(ResolveThreads(0) - 1, min_size);
    while (helpers_.size() < target) {
      helpers_.push_back(std::make_unique<Helper>());
      Helper* helper = helpers_.back().get();
      idle_.push_back(helper);
      helper->thread = std::thread([this, helper] { Loop(helper); });
      threads_started.fetch_add(1, std::memory_order_relaxed);
    }
    if (idle_.empty()) return nullptr;
    Helper* helper = idle_.back();
    idle_.pop_back();
    return helper;
  }

  void Loop(Helper* self) {
    for (;;) {
      std::shared_ptr<ForTask> task;
      {
        std::unique_lock<std::mutex> lock(self->mu);
        self->wake.wait(lock, [self] { return self->task != nullptr; });
        task = std::move(self->task);
      }
      task->Work();
      task.reset();
      std::lock_guard<std::mutex> lock(mu_);
      idle_.push_back(self);
    }
  }

  std::mutex mu_;  // guards helpers_ and idle_
  std::vector<std::unique_ptr<Helper>> helpers_;
  std::vector<Helper*> idle_;  // LIFO: back() idled last
};

}  // namespace

void OfferToHelpers(const std::shared_ptr<ForTask>& task, unsigned helpers) {
  HelperPool::Global().Offer(task, helpers);
}

}  // namespace internal

uint64_t ThreadsStarted() {
  return internal::threads_started.load(std::memory_order_relaxed);
}

}  // namespace util
}  // namespace meetxml
