#include "src/base/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "src/base/check.h"
#include "src/base/parse.h"
#include "src/obs/metrics.h"

namespace siloz {

uint32_t ResolveThreads(uint32_t requested) {
  SILOZ_CHECK_LE(requested, kMaxThreads) << "thread count " << requested << " out of range";
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("SILOZ_THREADS"); env != nullptr && env[0] != '\0') {
    const std::optional<uint64_t> value = ParseUint(env, 10, kMaxThreads);
    SILOZ_CHECK(value.has_value())
        << "SILOZ_THREADS='" << env << "' is not a thread count in [0, " << kMaxThreads << "]";
    if (*value > 0) {
      return static_cast<uint32_t>(*value);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(uint32_t threads) : worker_count_(ResolveThreads(threads)) {
  if (worker_count_ == 1) {
    return;  // serial pool: tasks run inline, no queues or threads
  }
  queues_.reserve(worker_count_);
  for (uint32_t i = 0; i < worker_count_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(worker_count_);
  for (uint32_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (!workers_.empty()) {
    Wait();
    {
      MutexLock lock(sync_mutex_);
      stop_ = true;
    }
    work_cv_.NotifyAll();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
  // Flush lifetime totals into the global registry now that the pool is
  // quiescent. All three counters describe how the host scheduled the run,
  // not what the simulated machine did: callers pick their work
  // decomposition based on the thread budget (the sharded engine serves
  // fused with no pool at all when threads <= 1), so even the task count is
  // scheduler telemetry and stays out of the model-domain census that the
  // §8 determinism contract holds thread-count-invariant.
  const PoolMetrics totals = metrics();
  if (totals.tasks > 0) {
    obs::Registry::Global().GetCounter("pool.tasks", obs::Domain::kSched).Add(totals.tasks);
  }
  if (totals.steals > 0) {
    obs::Registry::Global().GetCounter("pool.steals", obs::Domain::kSched).Add(totals.steals);
  }
  if (totals.sleeps > 0) {
    obs::Registry::Global().GetCounter("pool.sleeps", obs::Domain::kSched).Add(totals.sleeps);
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  SILOZ_CHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % static_cast<uint32_t>(queues_.size());
  pending_.fetch_add(1, std::memory_order_release);
  {
    MutexLock lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    MutexLock lock(sync_mutex_);
    ++work_epoch_;
  }
  work_cv_.NotifyOne();
}

std::function<void()> ThreadPool::NextTask(uint32_t self, bool& stolen) {
  stolen = false;
  {
    WorkerQueue& own = *queues_[self];
    MutexLock lock(own.mutex);
    if (!own.tasks.empty()) {
      std::function<void()> task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return task;
    }
  }
  const uint32_t n = static_cast<uint32_t>(queues_.size());
  for (uint32_t offset = 1; offset < n; ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % n];
    MutexLock lock(victim.mutex);
    if (!victim.tasks.empty()) {
      std::function<void()> task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      stolen = true;
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::FinishTask(bool stolen) {
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(sync_mutex_);
    done_cv_.NotifyAll();
  }
}

void ThreadPool::WorkerLoop(uint32_t self) {
  for (;;) {
    // Snapshot the epoch BEFORE scanning the deques: any submission that
    // the scan misses bumps the epoch past the snapshot, so the wait below
    // returns immediately instead of sleeping through the notification.
    uint64_t epoch = 0;
    {
      MutexLock lock(sync_mutex_);
      if (stop_) {
        return;
      }
      epoch = work_epoch_;
    }
    bool stolen = false;
    if (std::function<void()> task = NextTask(self, stolen); task != nullptr) {
      task();
      FinishTask(stolen);
      continue;
    }
    MutexLock lock(sync_mutex_);
    if (!stop_ && work_epoch_ == epoch) {
      sleeps_.fetch_add(1, std::memory_order_relaxed);  // about to actually block
    }
    work_cv_.Wait(sync_mutex_, [&] {
      sync_mutex_.AssertHeld();  // predicate runs with the wait mutex held
      return stop_ || work_epoch_ != epoch;
    });
    if (stop_) {
      return;
    }
  }
}

void ThreadPool::Wait() {
  if (workers_.empty()) {
    return;
  }
  MutexLock lock(sync_mutex_);
  done_cv_.Wait(sync_mutex_, [&] { return pending_.load(std::memory_order_acquire) == 0; });
}

void ThreadPool::ParallelFor(uint64_t begin, uint64_t end,
                             const std::function<void(uint64_t)>& fn) {
  if (end <= begin) {
    return;
  }
  if (workers_.empty()) {
    for (uint64_t i = begin; i < end; ++i) {
      fn(i);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  // One task per iteration: round-robin submission spreads the range over
  // the deques and idle workers steal the imbalance, so uneven iteration
  // costs self-balance and the `tasks` metric counts iterations on both
  // the serial and the parallel path.
  for (uint64_t i = begin; i < end; ++i) {
    Submit([&fn, i] { fn(i); });
  }
  Wait();
}

PoolMetrics ThreadPool::metrics() const {
  PoolMetrics metrics;
  metrics.workers = worker_count_;
  metrics.tasks = tasks_run_.load(std::memory_order_relaxed);
  metrics.steals = steals_.load(std::memory_order_relaxed);
  metrics.sleeps = sleeps_.load(std::memory_order_relaxed);
  return metrics;
}

}  // namespace siloz
