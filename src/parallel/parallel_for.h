#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mlperf::parallel {

class ThreadPool;

/// Intra-op parallelism knob. `n` counts the threads doing tensor work, the
/// calling thread included: the global pool then holds n - 1 workers. 1 (the
/// default) means everything runs inline on the calling thread, exactly as
/// the pre-parallelism code did. Call from the main thread while no parallel
/// work is in flight (e.g. before harness::run_to_target) — the global pool
/// is torn down and rebuilt here, which is not safe mid-op.
void set_num_threads(std::int64_t n);
std::int64_t num_threads();

/// The process-wide pool backing parallel_for. nullptr while
/// num_threads() <= 1.
ThreadPool* global_pool();

namespace detail {

using RangeFn = void (*)(const void* fn, std::int64_t begin, std::int64_t end);

/// parallel_for with the callable erased to (body, fn): partitions the range
/// and runs body(fn, begin, end) on the parts through the global pool.
void parallel_for(std::int64_t grain, std::int64_t range, RangeFn body, const void* fn);

}  // namespace detail

/// Invoke fn(begin, end) on disjoint contiguous subranges covering
/// [0, range), in parallel on the global pool.
///
/// The range is cut into parts = min(ceil(range/grain), num_threads())
/// subranges whose boundaries always fall on multiples of `grain`; this
/// static contiguous partition is fixed before any part runs and there is no
/// dynamic re-splitting. Ops whose elements are computed independently
/// (disjoint writes, per-element accumulation order unchanged) are therefore
/// bitwise identical at any thread count, including the inline
/// single-threaded path. The parts run as one ThreadPool::run fork-join job:
/// the calling thread runs parts itself alongside the pool's workers, which
/// spin briefly between jobs (ThreadPool::kSpinBudget) before parking, so a
/// dispatch costs a couple of microseconds rather than a queue round-trip.
/// Every part runs; the exception of the first failing subrange is then
/// rethrown on the calling thread. Runs inline when the pool is absent, when
/// only one subrange exists, or when already inside a parallel_for part or
/// on a pool worker (nested parallelism).
template <typename Fn>
void parallel_for(std::int64_t grain, std::int64_t range, const Fn& fn) {
  if (range <= 0) return;
  detail::parallel_for(
      grain, range,
      [](const void* f, std::int64_t begin, std::int64_t end) {
        (*static_cast<const Fn*>(f))(begin, end);
      },
      &fn);
}

/// Deterministic ordered reduction over [0, range).
///
/// The range is cut into ceil(range/grain) chunks whose boundaries depend
/// only on (grain, range) — never on the thread count — and the per-chunk
/// results are combined in ascending chunk order on the calling thread. A
/// non-associative combine (float/double accumulation) therefore yields the
/// same bits at every thread count; it differs from an unchunked sequential
/// fold only when range > grain, so pick `grain` at least as large as the
/// sizes that must match a legacy sequential path exactly.
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::int64_t grain, std::int64_t range, T identity, const ChunkFn& chunk,
                  const CombineFn& combine) {
  if (range <= 0) return identity;
  const std::int64_t g = grain < 1 ? 1 : grain;
  if (range <= g) return combine(identity, chunk(std::int64_t{0}, range));
  const std::int64_t n_chunks = (range + g - 1) / g;
  std::vector<T> partials(static_cast<std::size_t>(n_chunks), identity);
  parallel_for(1, n_chunks, [&](std::int64_t c_begin, std::int64_t c_end) {
    for (std::int64_t c = c_begin; c < c_end; ++c) {
      const std::int64_t lo = c * g;
      const std::int64_t hi = std::min(lo + g, range);
      partials[static_cast<std::size_t>(c)] = chunk(lo, hi);
    }
  });
  T acc = identity;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

/// Grain size targeting ~32k scalar ops per subrange, given the work one
/// item costs. Keeps tiny tensors on the inline path (zero dispatch
/// overhead) while splitting big ones finely enough to load every worker.
std::int64_t grain_for(std::int64_t work_per_item);

}  // namespace mlperf::parallel
