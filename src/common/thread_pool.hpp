// A fixed-size worker pool used as the execution engine behind each
// simulated GPU device (gpusim) and the parallel CPU reference (mp).
//
// Two entry points:
//   * submit()       — enqueue an arbitrary task, get a std::future.
//   * parallel_for() — split [0, n) into contiguous chunks, run the body on
//                      all workers, and block until every chunk finished.
//                      This mirrors how a grid-stride kernel covers an index
//                      space with a bounded number of hardware threads.
//
// parallel_for is the hot dispatch path (the cooperative row path runs it
// three times per tile row), so it is allocation-free: the job descriptor
// lives on the caller's stack, is linked into an intrusive list under the
// pool mutex, and workers claim over-decomposed chunks from it with a
// single atomic fetch_add each.  The
// caller participates in chunk execution (so a busy pool can never deadlock
// a waiting caller) and blocks on the job's own latch-style completion
// condition variable.  Chunks are over-decomposed ~4x beyond the worker
// count so one expensive chunk (cost-skewed sort groups) cannot idle every
// other worker for the tail of the launch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mpsim {

class ThreadPool {
 public:
  /// Creates `workers` threads; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Chunks per worker a parallel_for over-decomposes into, so claiming
  /// rebalances around cost-skewed chunks instead of pinning one oversized
  /// chunk per worker.
  static constexpr std::size_t kOverDecompose = 4;

  /// Index spaces up to this size run inline in the caller: the work is too
  /// small to amortise waking a worker.
  static constexpr std::size_t kInlineMax = 4;

  /// Enqueue a task for asynchronous execution.
  std::future<void> submit(std::function<void()> task);

  /// Run body(begin, end) over contiguous chunks covering [0, n); blocks
  /// until all chunks complete. `body` must be safe to call concurrently.
  /// Exceptions thrown by the body are rethrown (first one wins); the
  /// remaining chunks still run.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// parallel_for with a minimum chunk granularity: every chunk spans at
  /// least `min_grain` consecutive indices (the last one may be shorter).
  /// Used by callers whose items carry per-chunk setup cost (a
  /// temporal-blocked row chunk recomputes its QT halo), and to keep an
  /// index space from being split finer than a correctness-relevant
  /// unit.  min_grain == 1 is exactly parallel_for.
  void parallel_for_grained(
      std::size_t n, std::size_t min_grain,
      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  /// Stack-allocated parallel_for job: an atomic cursor hands out chunk
  /// indices, a countdown of unfinished chunks gates completion.
  struct ParallelJob {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t n = 0;
    std::size_t chunk_size = 0;
    std::size_t chunk_count = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> unfinished{0};

    // Completion latch; also guards `error` (first one wins).
    std::mutex done_mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::exception_ptr error;

    ParallelJob* next = nullptr;  ///< intrusive list link, guarded by pool
    bool linked = false;          ///< still reachable from the pool list
  };

  void worker_loop();

  /// Claims the next chunk of the head job (or of `own` when given).
  /// Returns false when no chunk is available.  Caller holds the lock;
  /// jobs whose chunks are all claimed are unlinked here, so a job pointer
  /// obtained under the lock while linked is always alive.
  bool claim_chunk_locked(ParallelJob* own, ParallelJob*& job,
                          std::size_t& chunk);

  void unlink_job_locked(ParallelJob* job);

  /// Runs one claimed chunk and performs completion accounting.  After the
  /// countdown hits zero the job may be destroyed by its owner; the job is
  /// not touched past that point.
  static void run_chunk(ParallelJob* job, std::size_t chunk);

  std::vector<std::thread> threads_;
  std::deque<std::packaged_task<void()>> queue_;
  ParallelJob* job_head_ = nullptr;
  ParallelJob* job_tail_ = nullptr;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace mpsim
