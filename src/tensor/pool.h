#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace mlperf::tensor {

/// Process-wide caching allocator for Tensor data buffers.
///
/// Steady-state training allocates and frees the same buffer sizes every
/// step (forward values, gradients, elementwise temporaries). The pool keeps
/// released `std::vector<float>` storage on size-bucketed free lists so the
/// next step's `Tensor(Shape)` reuses it instead of round-tripping through
/// the heap. Buckets are powers of two starting at kMinBucketFloats; a
/// request is served by the smallest bucket that fits it, so a recycled
/// buffer's capacity always covers the request and filling it never
/// reallocates.
///
/// Two-level structure:
///   - buckets below kSharedBucketFloats use per-thread free lists (no
///     locking on the hot path; overflow past kTlsMaxPerBucket spills to the
///     shared list, and a dying thread's cache is spilled too, so the
///     prefetching loader's one-batch std::async threads hand their
///     augmentation temporaries on to the next batch's thread);
///   - larger buckets go straight to a mutex-guarded shared list, so buffers
///     produced on one thread and freed on another (the prefetching loader's
///     batch images, assembled on a producer thread and freed by the
///     consumer) still recycle instead of missing every time.
///
/// The pool only changes where storage comes from, never what is in it:
/// Tensor's fill semantics are applied after acquisition, so numerics are
/// bitwise unaffected at any thread count. Counters (hits / misses /
/// bytes outstanding / bytes cached) feed the zero-allocation pin tests,
/// `autograd::GraphEpoch`, and the harness's pool-stats run event.
class TensorPool {
 public:
  struct Stats {
    std::int64_t hits = 0;      ///< acquires served from a free list
    std::int64_t misses = 0;    ///< acquires that fell through to the heap
    std::int64_t releases = 0;  ///< buffers parked on a free list
    std::int64_t bytes_outstanding = 0;  ///< acquired minus released bytes
    std::int64_t bytes_cached = 0;       ///< bytes parked on free lists
  };

  /// The singleton. Deliberately leaked: Tensors with static storage
  /// duration release their buffers during process teardown, after which a
  /// destroyed pool (or a destroyed thread cache) must still be safe to
  /// call into.
  static TensorPool& instance();

  /// Capacity bucket (in floats) serving a request of n floats: the
  /// smallest power of two >= max(n, kMinBucketFloats). Returns 0 for n <= 0
  /// (such requests bypass the pool).
  static std::int64_t bucket_for(std::int64_t n);

  /// Fetch storage with capacity() >= bucket_for(n). The contents and size()
  /// are unspecified (recycled buffers keep their old size); the caller
  /// assigns or resizes before use. Returns an empty, capacity-0 vector when
  /// the request is unpoolable — the caller's assign/resize then allocates
  /// from the heap as before.
  std::vector<float> acquire(std::int64_t n);

  /// Park a buffer on the free list for its capacity's bucket. Buffers with
  /// capacity below kMinBucketFloats are simply freed.
  void release(std::vector<float>&& buf) noexcept;

  Stats stats() const;

  /// Drop cached buffers: the shared lists and the calling thread's lists
  /// immediately, other threads' lists lazily on their next pool touch.
  void trim();

  static constexpr std::int64_t kMinBucketFloats = 64;
  /// Buckets >= this many floats (64 KiB) skip the thread-local tier.
  static constexpr std::int64_t kSharedBucketFloats = std::int64_t{1} << 14;
  static constexpr std::size_t kTlsMaxPerBucket = 8;
  static constexpr int kNumBuckets = 34;

  TensorPool(const TensorPool&) = delete;
  TensorPool& operator=(const TensorPool&) = delete;

 private:
  struct ThreadCache;

  TensorPool();
  ~TensorPool() = delete;  // leaked on purpose, see instance()

  ThreadCache* thread_cache();
  /// Clear a thread cache that predates the last trim().
  void refresh(ThreadCache& tc);
  void spill(ThreadCache& tc) noexcept;

  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> releases_{0};
  std::atomic<std::int64_t> bytes_acquired_{0};
  std::atomic<std::int64_t> bytes_released_{0};
  std::atomic<std::int64_t> bytes_cached_{0};
  std::atomic<std::uint64_t> generation_{0};

  struct SharedLists;
  SharedLists* shared_;  // owned, never freed (teardown safety)
};

}  // namespace mlperf::tensor
