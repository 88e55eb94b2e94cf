#include "runner/trial_pool.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/flags.hpp"

namespace bicord::runner {

int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at pool construction, before workers exist.
  if (const char* env = std::getenv("BICORD_JOBS")) {
    if (const auto v = parse_positive_int(env)) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

TrialPool::TrialPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  if (jobs_ == 1) return;  // inline mode: no workers
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

TrialPool::~TrialPool() {
  if (threads_.empty()) return;
  {
    const std::lock_guard lock(batch_mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool TrialPool::take_index(std::size_t self, std::size_t& index) {
  // Own queue first (front), then steal from the siblings' backs.
  {
    Worker& own = *workers_[self];
    const std::lock_guard lock(own.mutex);
    if (!own.queue.empty()) {
      index = own.queue.front();
      own.queue.pop_front();
      return true;
    }
  }
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(self + k) % workers_.size()];
    const std::lock_guard lock(victim.mutex);
    if (!victim.queue.empty()) {
      index = victim.queue.back();
      victim.queue.pop_back();
      return true;
    }
  }
  return false;
}

void TrialPool::execute(std::size_t index) {
  const std::function<void(std::size_t)>* fn = nullptr;
  {
    const std::lock_guard lock(batch_mutex_);
    fn = fn_;
  }
  try {
    (*fn)(index);
  } catch (...) {
    errors_[index] = std::current_exception();
  }
  {
    const std::lock_guard lock(batch_mutex_);
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void TrialPool::worker_loop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(batch_mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || batch_id_ != seen; });
      if (shutdown_) return;
      seen = batch_id_;
    }
    std::size_t index = 0;
    while (take_index(self, index)) execute(index);
  }
}

void TrialPool::rethrow_first_error() {
  for (auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void TrialPool::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (!fn) throw std::invalid_argument("TrialPool::run: null trial function");
  if (n == 0) return;
  const std::lock_guard run_lock(run_mutex_);

  if (threads_.empty()) {  // jobs == 1: inline, same exactly-once semantics
    errors_.assign(n, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
    }
    rethrow_first_error();
    return;
  }

  {
    const std::lock_guard lock(batch_mutex_);
    fn_ = &fn;
    errors_.assign(n, nullptr);
    remaining_ = n;
    ++batch_id_;
  }
  // Round-robin pre-distribution; idle workers re-balance by stealing.
  for (std::size_t i = 0; i < n; ++i) {
    Worker& w = *workers_[i % workers_.size()];
    const std::lock_guard lock(w.mutex);
    w.queue.push_back(i);
  }
  work_cv_.notify_all();
  {
    std::unique_lock lock(batch_mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    fn_ = nullptr;
  }
  rethrow_first_error();
}

}  // namespace bicord::runner
