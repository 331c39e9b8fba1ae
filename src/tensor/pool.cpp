#include "tensor/pool.h"

#include <array>
#include <mutex>
#include <utility>

namespace mlperf::tensor {

namespace {

/// Trivially-destructible tombstone for the per-thread cache. Thread-local
/// destruction order is unspecified relative to other thread-locals and
/// statics, so Tensors destroyed late in thread teardown may call into the
/// pool after the cache is gone; a plain bool stays readable forever, and
/// thread_cache() returns nullptr once it is set (those releases take the
/// shared-list path instead).
thread_local bool g_tls_dead = false;

constexpr std::int64_t kBytesPerFloat =
    static_cast<std::int64_t>(sizeof(float));

/// Bucket index for a capacity of exactly `bucket` floats (a power of two
/// >= kMinBucketFloats).
int index_of_bucket(std::int64_t bucket) {
  int idx = 0;
  while ((TensorPool::kMinBucketFloats << idx) < bucket) ++idx;
  return idx;
}

}  // namespace

struct TensorPool::SharedLists {
  std::mutex mu;
  std::array<std::vector<std::vector<float>>, TensorPool::kNumBuckets> lists;
};

struct TensorPool::ThreadCache {
  explicit ThreadCache(TensorPool& owner) : pool(&owner) {}
  ~ThreadCache() {
    g_tls_dead = true;
    pool->spill(*this);
  }
  TensorPool* pool;
  std::uint64_t generation = 0;
  std::array<std::vector<std::vector<float>>, TensorPool::kNumBuckets> lists;
};

TensorPool::TensorPool() : shared_(new SharedLists) {}

TensorPool& TensorPool::instance() {
  static TensorPool* pool = new TensorPool();  // leaked, see header
  return *pool;
}

std::int64_t TensorPool::bucket_for(std::int64_t n) {
  if (n <= 0) return 0;
  std::int64_t b = kMinBucketFloats;
  while (b < n) b <<= 1;
  return b;
}

TensorPool::ThreadCache* TensorPool::thread_cache() {
  if (g_tls_dead) return nullptr;
  thread_local ThreadCache cache(instance());
  return &cache;
}

void TensorPool::refresh(ThreadCache& tc) {
  const std::uint64_t g = generation_.load(std::memory_order_relaxed);
  if (tc.generation == g) return;
  std::int64_t dropped = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    dropped += static_cast<std::int64_t>(tc.lists[i].size()) *
               (kMinBucketFloats << i) * kBytesPerFloat;
    tc.lists[i].clear();
  }
  bytes_cached_.fetch_sub(dropped, std::memory_order_relaxed);
  tc.generation = g;
}

void TensorPool::spill(ThreadCache& tc) noexcept {
  std::lock_guard<std::mutex> lock(shared_->mu);
  for (int i = 0; i < kNumBuckets; ++i) {
    for (auto& buf : tc.lists[i]) shared_->lists[i].push_back(std::move(buf));
    tc.lists[i].clear();
  }
}

std::vector<float> TensorPool::acquire(std::int64_t n) {
  if (n <= 0) return {};
  const std::int64_t bucket = bucket_for(n);
  const int idx = index_of_bucket(bucket);
  if (idx >= kNumBuckets) return {};
  std::vector<float> buf;
  bool hit = false;
  if (bucket < kSharedBucketFloats) {
    if (ThreadCache* tc = thread_cache()) {
      refresh(*tc);
      if (!tc->lists[idx].empty()) {
        buf = std::move(tc->lists[idx].back());
        tc->lists[idx].pop_back();
        hit = true;
      }
    }
  }
  if (!hit) {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (!shared_->lists[idx].empty()) {
      buf = std::move(shared_->lists[idx].back());
      shared_->lists[idx].pop_back();
      hit = true;
    }
  }
  const std::int64_t bytes = bucket * kBytesPerFloat;
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_cached_.fetch_sub(bytes, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    buf.reserve(static_cast<std::size_t>(bucket));
  }
  bytes_acquired_.fetch_add(bytes, std::memory_order_relaxed);
  return buf;
}

void TensorPool::release(std::vector<float>&& buf) noexcept {
  const std::int64_t cap = static_cast<std::int64_t>(buf.capacity());
  if (cap < kMinBucketFloats) return;  // freed by the caller's vector destructor
  // Park under the largest bucket the capacity covers, so every buffer in
  // bucket i has capacity >= kMinBucketFloats << i. Donated buffers (adopted
  // vectors that never came from acquire) round down and recycle too.
  int idx = 0;
  while (idx + 1 < kNumBuckets && (kMinBucketFloats << (idx + 1)) <= cap) ++idx;
  const std::int64_t bucket = kMinBucketFloats << idx;
  const std::int64_t bytes = bucket * kBytesPerFloat;
  releases_.fetch_add(1, std::memory_order_relaxed);
  bytes_released_.fetch_add(bytes, std::memory_order_relaxed);
  bytes_cached_.fetch_add(bytes, std::memory_order_relaxed);
  if (bucket < kSharedBucketFloats) {
    if (ThreadCache* tc = thread_cache()) {
      refresh(*tc);
      if (tc->lists[idx].size() < kTlsMaxPerBucket) {
        tc->lists[idx].push_back(std::move(buf));
        return;
      }
    }
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->lists[idx].push_back(std::move(buf));
}

TensorPool::Stats TensorPool::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.releases = releases_.load(std::memory_order_relaxed);
  const std::int64_t acquired = bytes_acquired_.load(std::memory_order_relaxed);
  const std::int64_t released = bytes_released_.load(std::memory_order_relaxed);
  s.bytes_outstanding = acquired > released ? acquired - released : 0;
  s.bytes_cached = bytes_cached_.load(std::memory_order_relaxed);
  return s;
}

void TensorPool::trim() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    std::int64_t dropped = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      dropped += static_cast<std::int64_t>(shared_->lists[i].size()) *
                 (kMinBucketFloats << i) * kBytesPerFloat;
      shared_->lists[i].clear();
    }
    bytes_cached_.fetch_sub(dropped, std::memory_order_relaxed);
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
  if (ThreadCache* tc = thread_cache()) refresh(*tc);  // this thread: eager
}

}  // namespace mlperf::tensor
