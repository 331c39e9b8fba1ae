#include "parallel/parallel_for.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "parallel/thread_pool.h"

namespace mlperf::parallel {

namespace {

// The pool is only replaced by set_num_threads, under g_config_mu; readers on
// the parallel_for hot path take the atomic snapshot instead of the lock.
std::mutex g_config_mu;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<ThreadPool*> g_pool_ptr{nullptr};
std::atomic<std::int64_t> g_num_threads{1};

/// One parallel_for call's static partition: part p owns chunks
/// [p*q + min(p,r), ...), i.e. the same grain-aligned interval every run.
struct Partition {
  detail::RangeFn body;
  const void* fn;
  std::int64_t grain, range, q, r;

  static void run_part(const void* ctx, std::int64_t p) {
    const auto& s = *static_cast<const Partition*>(ctx);
    const std::int64_t c_begin = p * s.q + std::min(p, s.r);
    const std::int64_t c_end = c_begin + s.q + (p < s.r ? 1 : 0);
    s.body(s.fn, c_begin * s.grain, std::min(c_end * s.grain, s.range));
  }
};

}  // namespace

void set_num_threads(std::int64_t n) {
  if (n < 1) throw std::invalid_argument("set_num_threads: n must be >= 1");
  std::lock_guard<std::mutex> lock(g_config_mu);
  if (n == g_num_threads.load()) return;
  g_pool_ptr.store(nullptr);
  g_pool.reset();  // joins the old workers
  g_num_threads.store(n);
  // The caller runs parts too, so n threads need n - 1 workers.
  if (n > 1) g_pool = std::make_unique<ThreadPool>(n - 1);
  g_pool_ptr.store(g_pool.get());
}

std::int64_t num_threads() { return g_num_threads.load(std::memory_order_relaxed); }

ThreadPool* global_pool() { return g_pool_ptr.load(std::memory_order_acquire); }

void detail::parallel_for(std::int64_t grain, std::int64_t range, RangeFn body,
                          const void* fn) {
  const std::int64_t g = grain < 1 ? 1 : grain;
  const std::int64_t n_chunks = (range + g - 1) / g;
  ThreadPool* pool = global_pool();
  const std::int64_t parts =
      pool ? std::min<std::int64_t>(n_chunks, pool->num_workers() + 1) : 1;
  if (parts <= 1 || ThreadPool::on_worker_thread()) {
    body(fn, 0, range);
    return;
  }
  const Partition partition{body, fn, g, range, n_chunks / parts, n_chunks % parts};
  pool->run(parts, &Partition::run_part, &partition);
}

std::int64_t grain_for(std::int64_t work_per_item) {
  constexpr std::int64_t kTargetOpsPerChunk = std::int64_t{1} << 15;
  if (work_per_item < 1) work_per_item = 1;
  const std::int64_t grain = kTargetOpsPerChunk / work_per_item;
  return grain < 1 ? 1 : grain;
}

}  // namespace mlperf::parallel
