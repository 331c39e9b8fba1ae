#include "parallel/thread_pool.h"

#include <stdexcept>
#include <utility>

namespace mlperf::parallel {

namespace {

thread_local bool t_on_worker = false;
thread_local bool t_in_job = false;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Busy-wait for a condition another thread is about to make true (a part in
/// progress finishing, a late joiner leaving). Yields once the wait gets long,
/// so a descheduled worker can get the core back.
template <typename Pred>
void spin_until(const Pred& done) {
  for (int i = 0; !done(); ++i) {
    if (i < 4096)
      cpu_relax();
    else
      std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::int64_t num_workers) {
  if (num_workers < 0) throw std::invalid_argument("ThreadPool: num_workers must be >= 0");
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (std::int64_t i = 0; i < num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(std::int64_t parts, PartFn body, const void* ctx) {
  std::unique_lock<std::mutex> job;
  if (!workers_.empty() && !on_worker_thread())
    job = std::unique_lock<std::mutex>(job_mu_, std::try_to_lock);
  if (!job.owns_lock()) {
    for (std::int64_t p = 0; p < parts; ++p) body(ctx, p);
    return;
  }

  // Close the slot (odd epoch turns late joiners of the previous job away),
  // wait out any still registered with it, fill it, and publish it with the
  // next even epoch. The seq_cst store of epoch_ and load of users_ here pair
  // with the seq_cst increment of users_ and load of epoch_ in join_job:
  // either the joiner sees the odd epoch and leaves, or this thread sees it
  // registered and waits, so the slot is never written while read.
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
  epoch_.store(e + 1);
  spin_until([this] { return users_.load() == 0; });
  parts_ = parts;
  body_ = body;
  ctx_ = ctx;
  next_part_.store(0, std::memory_order_relaxed);
  epoch_.store(e + 2);
  // The same pairing with parking in worker_loop: a worker about to sleep
  // either sees the new epoch in its wait predicate or is counted in parked_
  // and gets notified.
  if (parked_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  t_in_job = true;
  run_parts();
  t_in_job = false;
  // Every part was claimed by this thread or by a registered worker, and
  // workers leave only after finishing their parts: users_ == 0 is the join.
  spin_until([this] { return users_.load() == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

bool ThreadPool::on_worker_thread() { return t_on_worker || t_in_job; }

bool ThreadPool::has_new_job(std::uint64_t seen) const {
  const std::uint64_t e = epoch_.load();
  return (e & 1) == 0 && e != seen;
}

void ThreadPool::join_job(std::uint64_t& seen) {
  users_.fetch_add(1);
  const std::uint64_t e = epoch_.load();
  if ((e & 1) == 0 && e != seen) {
    seen = e;
    run_parts();
  }
  users_.fetch_sub(1);  // releases this worker's writes to the joining caller
}

void ThreadPool::run_parts() {
  for (std::int64_t p = next_part_.fetch_add(1); p < parts_; p = next_part_.fetch_add(1)) {
    try {
      body_(ctx_, p);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_ || p < error_part_) {
        error_ = std::current_exception();
        error_part_ = p;
      }
    }
  }
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  std::uint64_t seen = 0;  // epoch of the last job this worker joined
  auto has_work = [&] { return has_new_job(seen) || stop_; };
  for (;;) {
    if (has_new_job(seen)) {
      join_job(seen);
      continue;
    }
    if (stop_) return;

    // Spin for the budget, reading the clock only every 64 polls.
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    bool woke = false;
    for (int i = 1; !(woke = has_work()); ++i) {
      cpu_relax();
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
    }
    if (woke) continue;

    std::unique_lock<std::mutex> lock(mu_);
    parked_.fetch_add(1);
    cv_.wait(lock, has_work);
    parked_.fetch_sub(1);
  }
}

}  // namespace mlperf::parallel
