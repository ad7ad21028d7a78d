#include "runner/thread_pool.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace perigee::runner {

unsigned resolve_jobs(int requested) {
  if (requested > 0) return static_cast<unsigned>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned workers) {
  PERIGEE_ASSERT(workers >= 1);
  queues_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, i](std::stop_token stop) { worker_loop(stop, i); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) w.request_stop();
  work_cv_.notify_all();
  // jthread joins on destruction.
}

void ThreadPool::submit(std::function<void()> job) {
  const std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->jobs.push_back(std::move(job));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Fence against a worker that just saw an empty queue and is about to
  // block: once we hold sleep_mutex_ it is either fully asleep (the notify
  // wakes it) or re-checking the predicate (it sees queued_ > 0).
  { std::lock_guard lock(sleep_mutex_); }
  work_cv_.notify_one();
}

bool ThreadPool::try_acquire(unsigned self, std::function<void()>& out) {
  const std::size_t k = queues_.size();
  // Own deque first, newest job (LIFO: warm caches for fan-out helpers) ...
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard lock(own.mutex);
    if (!own.jobs.empty()) {
      out = std::move(own.jobs.back());
      own.jobs.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      PERIGEE_COUNTER_ADD("pool.self_pops", 1);
      return true;
    }
  }
  // ... then steal the oldest job from a sibling (FIFO: take the chunk its
  // owner would touch last).
  for (std::size_t d = 1; d < k; ++d) {
    WorkerQueue& victim = *queues_[(self + d) % k];
    std::lock_guard lock(victim.mutex);
    if (!victim.jobs.empty()) {
      out = std::move(victim.jobs.front());
      victim.jobs.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      PERIGEE_COUNTER_ADD("pool.steals", 1);
      return true;
    }
  }
  return false;
}

void ThreadPool::run_job(std::function<void()>& job) {
  try {
    job();
  } catch (...) {
    std::lock_guard lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  job = nullptr;  // release captures before signalling completion
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(std::stop_token stop, unsigned self) {
  std::function<void()> job;
  while (!stop.stop_requested()) {
    if (try_acquire(self, job)) {
      run_job(job);
      continue;
    }
    // Idle transition: the worker found every deque empty and blocks until
    // the next submit. High counts with low steals mean submission is too
    // bursty for the worker count.
    PERIGEE_COUNTER_ADD("pool.sleeps", 1);
    std::unique_lock lock(sleep_mutex_);
    work_cv_.wait(lock, stop, [this] {
      return queued_.load(std::memory_order_acquire) > 0;
    });
  }
}

void ThreadPool::wait() {
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard lock(error_mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait();
}

}  // namespace perigee::runner
