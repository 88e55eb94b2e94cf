#pragma once
// Work-stealing thread pool for independent simulation trials.
//
// A TrialPool owns `jobs` worker threads for its whole lifetime. Each run()
// distributes trial indices round-robin across per-worker deques; a worker
// drains its own queue from the front and, once empty, steals from its
// siblings' backs, so a slow (or still-sleeping) worker never strands work.
// Results keyed by trial index are inherently in submission order, which is
// what makes seed-ordered — and therefore bitwise-deterministic —
// aggregation possible regardless of thread count.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bicord::runner {

/// Worker-count resolution shared by every parallel entry point:
/// `requested` if >= 1, else the BICORD_JOBS environment variable if it
/// parses as a positive integer, else std::thread::hardware_concurrency()
/// (minimum 1).
[[nodiscard]] int resolve_jobs(int requested = 0);

class TrialPool {
 public:
  /// `jobs <= 0` resolves via resolve_jobs(). With jobs == 1 the pool runs
  /// trials inline on the caller's thread (no workers are spawned).
  explicit TrialPool(int jobs = 0);
  ~TrialPool();

  TrialPool(const TrialPool&) = delete;
  TrialPool& operator=(const TrialPool&) = delete;

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Executes fn(0) .. fn(n-1), each exactly once, and blocks until every
  /// trial has finished. If trials throw, every remaining trial still runs;
  /// afterwards the exception of the LOWEST-indexed failing trial is
  /// rethrown (deterministic regardless of scheduling). n == 0 returns
  /// immediately; n < jobs leaves the surplus workers idle.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// run() collecting one result per trial, in submission (index) order.
  template <typename R>
  [[nodiscard]] std::vector<R> map(std::size_t n,
                                   const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(n);
    run(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::size_t> queue;
  };

  void worker_loop(std::size_t self);
  bool take_index(std::size_t self, std::size_t& index);
  void execute(std::size_t index);
  void run_inline(std::size_t n);
  void rethrow_first_error();

  int jobs_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex run_mutex_;  ///< serializes concurrent run() callers

  // Batch state, guarded by batch_mutex_ (remaining_ also read lock-free).
  std::mutex batch_mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t remaining_ = 0;
  std::uint64_t batch_id_ = 0;
  bool shutdown_ = false;
  std::vector<std::exception_ptr> errors_;  ///< slot i written only by trial i
};

/// One-shot convenience: map fn over [0, n) with a transient pool.
template <typename R>
[[nodiscard]] std::vector<R> parallel_map(std::size_t n, int jobs,
                                          const std::function<R(std::size_t)>& fn) {
  TrialPool pool(jobs);
  return pool.map<R>(n, fn);
}

}  // namespace bicord::runner
