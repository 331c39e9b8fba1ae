#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mlperf::parallel {

/// Fixed-size pool of worker threads serving one kind of work: fork-join
/// jobs (`run`, behind parallel_for).
///
/// A job is `parts` calls body(ctx, p). The caller publishes the job with one
/// atomic epoch bump, then it and every idle worker claim part indices from
/// one atomic counter until none are left, so the caller always does work
/// itself and a worker that wakes late never stalls a job: its share is simply
/// claimed by someone else. Which thread runs which part is therefore
/// scheduling-dependent, and all determinism guarantees in this module come
/// from *what* each part computes (static chunking, ordered combines), never
/// from scheduling.
///
/// Idle workers spin for kSpinBudget before parking on a condition variable.
/// The budget covers the serial gap between two consecutive parallel ops of a
/// train step, so back-to-back jobs find the workers awake instead of paying
/// a futex wake-up each: on the ResNet step at 4 threads ~85 % of those gaps
/// are under 100 µs, and TTT stopped improving beyond that budget (0 / 20 /
/// 50 / 100 / 200 / 1000 µs measured). Once the caller goes serial for longer
/// (eval, a loader wait) the workers stop burning CPU within the budget. The
/// spin is CPU time, so it counts toward measured CPU-per-wall utilization.
class ThreadPool {
 public:
  using PartFn = void (*)(const void* ctx, std::int64_t part);

  /// Spawns `num_workers` threads (0 is allowed: run then executes inline on
  /// the caller).
  explicit ThreadPool(std::int64_t num_workers);

  /// Joins all workers. No job may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::int64_t num_workers() const { return static_cast<std::int64_t>(workers_.size()); }

  /// Fork-join: call body(ctx, p) exactly once for every p in [0, parts), the
  /// caller participating, and return once all calls have finished. Every
  /// part runs even if another throws; the exception of the lowest-numbered
  /// failing part is then rethrown here. Runs the parts inline, in ascending
  /// order and stopping at the first throw, when the pool has no workers,
  /// when called from inside a job or a worker (nested parallelism), or while
  /// another thread's job holds the pool.
  void run(std::int64_t parts, PartFn body, const void* ctx);

  /// True on one of this module's pool worker threads, and on a caller while
  /// it runs its share of a fork-join job. parallel_for uses it to run nested
  /// parallelism inline instead of waiting on its own pool.
  static bool on_worker_thread();

  /// How long an idle worker keeps polling for a job before it parks.
  static constexpr std::chrono::microseconds kSpinBudget{100};

 private:
  void worker_loop();
  bool has_new_job(std::uint64_t seen) const;
  /// Registers with the published job if it is newer than `seen`, runs parts
  /// until none are left, and records its epoch in `seen`.
  void join_job(std::uint64_t& seen);
  /// Claims and runs parts of the current job until the counter runs out.
  void run_parts();

  // The job slot. Only the holder of job_mu_ writes parts_/body_/ctx_, and
  // only while epoch_ is odd and no worker is registered in users_.
  std::mutex job_mu_;
  std::atomic<std::uint64_t> epoch_{0};  // even: job published; odd: slot being written
  std::atomic<std::int64_t> users_{0};   // workers registered with the current job
  std::atomic<std::int64_t> next_part_{0};
  std::int64_t parts_ = 0;
  PartFn body_ = nullptr;
  const void* ctx_ = nullptr;
  std::mutex error_mu_;  // guards the two fields below
  std::exception_ptr error_;
  std::int64_t error_part_ = 0;

  // Parking for idle workers.
  std::mutex mu_;  // guards the parking condition
  std::condition_variable cv_;
  std::atomic<std::int64_t> parked_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace mlperf::parallel
