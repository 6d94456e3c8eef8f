#include "engine/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace sva {

std::size_t ThreadPool::default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  queues_.resize(std::max<std::size_t>(threads, 1));
  for (auto& q : queues_) q = std::make_unique<WorkerQueue>();
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t qi =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[qi]->mu);
    queues_[qi]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // Pairing with the predicate check under sleep_mu_ closes the
    // missed-wakeup race between the count increment and the notify.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& task) {
  WorkerQueue& own = *queues_[self];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (std::size_t off = 1; off < queues_.size(); ++off) {
    WorkerQueue& victim = *queues_[(self + off) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) continue;
    task = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("engine.steals").add();
    return true;
  }
  return false;
}

void ThreadPool::execute(std::function<void()>& task) {
  task();
  executed_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::global().counter("engine.tasks").add();
}

void ThreadPool::worker_main(std::size_t id) {
  std::function<void()> task;
  for (;;) {
    if (try_pop(id, task)) {
      execute(task);
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0)
      return;
  }
}

bool ThreadPool::try_run_one() {
  if (queued_.load(std::memory_order_acquire) == 0) return false;
  std::function<void()> task;
  // External helpers scan from queue 0; their takes are not steals.
  for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
    WorkerQueue& q = *queues_[qi];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) continue;
    task = std::move(q.tasks.front());
    q.tasks.pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    break;
  }
  if (!task) return false;
  execute(task);
  return true;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain,
                              const CancelToken* cancel) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (grain == 0) {
    // ~4 chunks per execution lane keeps the steal market liquid without
    // drowning small levels in task overhead.
    const std::size_t lanes = thread_count() + 1;
    grain = std::max<std::size_t>(1, n / (4 * lanes));
  }
  if (threads_.empty() || n <= grain) {
    for (std::size_t lo = begin; lo < end; lo += grain) {
      if (cancel) cancel->check();  // chunk-granularity, like the pool path
      const std::size_t hi = std::min(end, lo + grain);
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }
    return;
  }
  TaskGroup group(*this, cancel);
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    group.run([&fn, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  group.wait();
}

ThreadPool::Stats ThreadPool::stats() const {
  return {executed_.load(std::memory_order_relaxed),
          steals_.load(std::memory_order_relaxed)};
}

TaskGroup::~TaskGroup() {
  // A group abandoned with work in flight must still join it; swallow the
  // rethrow here (wait() is where callers observe failures).
  try {
    wait();
  } catch (...) {
  }
}

void TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->submit([this, fn = std::move(fn)] {
    std::exception_ptr error;
    try {
      // Inside the capture, so an injected task fault surfaces exactly
      // like a real one: rethrown at the group's wait(), where the owning
      // job's isolation boundary classifies it.
      SVA_FAILPOINT("engine.task");
      // Cancellation check rides the same capture: a tripped token skips
      // the body and surfaces CancelledError at wait().
      if (cancel_) cancel_->check();
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !error_) error_ = error;
    finish_one();
  });
}

void TaskGroup::finish_one() {
  // Caller holds mu_.
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_ == 0) break;
    }
    if (pool_->try_run_one()) continue;
    // Nothing to help with: the remaining tasks are running on workers.
    // Short timed waits sidestep lost-wakeup subtleties at negligible cost.
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::milliseconds(1),
                     [this] { return pending_ == 0; }))
      break;
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sva
