// Work-stealing thread pool for embarrassingly-parallel experiment grids.
//
// Fixed worker count (std::jthread). Each worker owns a deque: it pops its
// own work LIFO (cache-warm) and steals FIFO from its siblings when idle, so
// a burst of unevenly-sized experiment jobs keeps every core busy without a
// single contended queue. Determinism is the caller's job — jobs must write
// results into pre-assigned slots; the pool guarantees only completion.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perigee::runner {

// Maps a user-facing --jobs value to a worker count: values > 0 pass
// through; 0 (and negatives) mean "all hardware threads", never less than 1.
unsigned resolve_jobs(int requested);

class ThreadPool {
 public:
  // workers must be >= 1 (use resolve_jobs to map a --jobs flag).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Enqueues a job. Round-robins across worker deques so independent
  // submissions spread out even before stealing kicks in.
  void submit(std::function<void()> job);

  // Blocks until every submitted job has finished, then rethrows the first
  // exception any job raised (if any). Call from the owning thread, not from
  // inside a job. The pool is reusable after wait() returns or throws.
  void wait();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> jobs;
  };

  bool try_acquire(unsigned self, std::function<void()>& out);
  void worker_loop(std::stop_token stop, unsigned self);
  void run_job(std::function<void()>& job);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> queued_{0};   // jobs sitting in deques
  std::atomic<std::size_t> pending_{0};  // queued + currently running

  std::mutex sleep_mutex_;
  std::condition_variable_any work_cv_;

  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  // Last member: workers start after every queue exists and must be gone
  // before the queues are destroyed.
  std::vector<std::jthread> workers_;
};

// Runs fn(0), ..., fn(n-1) across the pool and blocks until all complete.
// Rethrows the first exception. Iteration-to-thread assignment is arbitrary;
// determinism comes from fn writing to its own index.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace perigee::runner
