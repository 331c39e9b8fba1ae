#include "tensor/pool.h"

#include <gtest/gtest.h>

#include <future>
#include <set>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "nn/layers.h"
#include "optim/optimizer.h"
#include "tensor/tensor.h"

namespace mlperf::tensor {
namespace {

using autograd::GraphEpoch;
using autograd::Variable;

TEST(TensorPoolBuckets, RoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(TensorPool::bucket_for(1), TensorPool::kMinBucketFloats);
  EXPECT_EQ(TensorPool::bucket_for(TensorPool::kMinBucketFloats),
            TensorPool::kMinBucketFloats);
  EXPECT_EQ(TensorPool::bucket_for(TensorPool::kMinBucketFloats + 1),
            2 * TensorPool::kMinBucketFloats);
  EXPECT_EQ(TensorPool::bucket_for(std::int64_t{1} << 20), std::int64_t{1} << 20);
  EXPECT_EQ(TensorPool::bucket_for((std::int64_t{1} << 20) + 1), std::int64_t{1} << 21);
  EXPECT_EQ(TensorPool::bucket_for(0), 0);
  EXPECT_EQ(TensorPool::bucket_for(-5), 0);
}

TEST(TensorPoolCounters, AcquireReleaseDeltasAreExact) {
  TensorPool& pool = TensorPool::instance();
  pool.trim();
  const TensorPool::Stats s0 = pool.stats();

  // Cold acquire: one miss, bucket-sized bytes outstanding.
  std::vector<float> buf = pool.acquire(100);  // bucket 128 -> 512 bytes
  const TensorPool::Stats s1 = pool.stats();
  EXPECT_EQ(s1.misses - s0.misses, 1);
  EXPECT_EQ(s1.hits - s0.hits, 0);
  EXPECT_EQ(s1.bytes_outstanding - s0.bytes_outstanding, 512);
  EXPECT_GE(buf.capacity(), 128u);

  // Release parks it: one release, bytes move from outstanding to cached.
  pool.release(std::move(buf));
  const TensorPool::Stats s2 = pool.stats();
  EXPECT_EQ(s2.releases - s0.releases, 1);
  EXPECT_EQ(s2.bytes_outstanding, s0.bytes_outstanding);
  EXPECT_EQ(s2.bytes_cached - s0.bytes_cached, 512);

  // Warm acquire: one hit, no new miss, cache drained.
  std::vector<float> again = pool.acquire(128);
  const TensorPool::Stats s3 = pool.stats();
  EXPECT_EQ(s3.hits - s0.hits, 1);
  EXPECT_EQ(s3.misses - s0.misses, 1);
  EXPECT_EQ(s3.bytes_cached, s0.bytes_cached);
  pool.release(std::move(again));
}

TEST(TensorPoolCounters, TinyAndDisabledRequestsBypassThePool) {
  TensorPool& pool = TensorPool::instance();
  pool.trim();
  const TensorPool::Stats s0 = pool.stats();
  // Sub-minimum capacities are simply freed, never parked.
  std::vector<float> tiny(8);
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.stats().bytes_cached, s0.bytes_cached);
}

TEST(TensorPoolThreading, SmallBucketsAreThreadLocalWhileOwnerLives) {
  TensorPool& pool = TensorPool::instance();
  pool.trim();
  std::promise<void> parked;
  std::promise<void> done;
  std::thread owner([&] {
    std::vector<float> buf = pool.acquire(256);
    pool.release(std::move(buf));  // lands in THIS thread's cache
    parked.set_value();
    done.get_future().wait();  // keep the thread (and its cache) alive
  });
  parked.get_future().wait();

  const TensorPool::Stats s0 = pool.stats();
  std::vector<float> mine = pool.acquire(256);
  const TensorPool::Stats s1 = pool.stats();
  // The other thread's cached buffer is invisible here: small buckets do not
  // cross live threads.
  EXPECT_EQ(s1.misses - s0.misses, 1);
  pool.release(std::move(mine));
  done.set_value();
  owner.join();
}

TEST(TensorPoolThreading, LargeBucketsRecycleAcrossThreads) {
  TensorPool& pool = TensorPool::instance();
  pool.trim();
  const std::int64_t big = TensorPool::kSharedBucketFloats;  // shared tier
  std::thread producer([&] {
    std::vector<float> buf = pool.acquire(big);
    pool.release(std::move(buf));
  });
  producer.join();

  const TensorPool::Stats s0 = pool.stats();
  std::vector<float> mine = pool.acquire(big);
  const TensorPool::Stats s1 = pool.stats();
  // Loader pattern: produced on a worker, freed/reused on the consumer — the
  // shared tier makes it a hit, not a once-per-batch miss.
  EXPECT_EQ(s1.hits - s0.hits, 1);
  EXPECT_EQ(s1.misses - s0.misses, 0);
  pool.release(std::move(mine));
}

TEST(TensorPoolRecycling, LiveTensorsNeverAlias) {
  TensorPool::instance().trim();
  const float* recycled = nullptr;
  {
    Tensor dead({64}, 1.0f);
    recycled = dead.data();
  }
  // The dead tensor's buffer comes back for the same bucket...
  Tensor a({64}, 2.0f);
  EXPECT_EQ(a.data(), recycled);
  // ...but two live tensors can never share storage, and recycled buffers
  // carry no stale contents past the fill.
  std::vector<Tensor> live;
  for (int i = 0; i < 8; ++i) live.emplace_back(Shape{64}, static_cast<float>(i));
  std::set<const float*> addrs;
  addrs.insert(a.data());
  for (const Tensor& t : live) addrs.insert(t.data());
  EXPECT_EQ(addrs.size(), live.size() + 1);
  for (int i = 0; i < 8; ++i)
    for (std::int64_t j = 0; j < 64; ++j)
      ASSERT_EQ(live[static_cast<std::size_t>(i)][j], static_cast<float>(i));
  for (std::int64_t j = 0; j < 64; ++j) ASSERT_EQ(a[j], 2.0f);
}

TEST(TensorPoolRecycling, TrimDropsCachedBytes) {
  TensorPool& pool = TensorPool::instance();
  pool.release(pool.acquire(1024));
  EXPECT_GT(pool.stats().bytes_cached, 0);
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_cached, 0);
}

// ---- steady-state zero-allocation pins -------------------------------------
//
// "Zero allocation" here means zero TensorPool misses: every float buffer the
// step creates is served from the pool once shapes have been seen. (Shape
// vectors, nodes, and closures still use the heap — they are not what the
// pool exists to eliminate.)

TEST(TensorPoolSteadyState, ConvTrainStepHasZeroPoolMisses) {
  TensorPool::instance().trim();
  tensor::Rng rng(7);
  nn::Conv2d conv(3, 4, 3, 1, 1, rng);
  optim::SgdMomentum opt(conv.parameters(), 0.9f, 1e-4f);
  const Tensor images = Tensor::randn({2, 3, 8, 8}, rng);

  auto step = [&] {
    GraphEpoch scope;
    Variable out = conv.forward(Variable(images));
    Variable loss = autograd::sum_all(out);
    opt.zero_grad();
    loss.backward();
    opt.step(0.05f);
  };
  for (int i = 0; i < 3; ++i) step();  // warm-up: populate the pool
  for (int i = 0; i < 5; ++i) {
    step();
    EXPECT_EQ(GraphEpoch::last_pool_misses(), 0) << "steady-state step " << i;
    EXPECT_GT(GraphEpoch::last_pool_hits(), 0);
  }
}

TEST(TensorPoolSteadyState, AttentionTrainStepHasZeroPoolMisses) {
  TensorPool::instance().trim();
  tensor::Rng rng(11);
  nn::MultiHeadAttention attn(16, 4, rng);
  optim::Adam opt(attn.parameters());
  const Tensor x = Tensor::randn({2, 5, 16}, rng);

  auto step = [&] {
    GraphEpoch scope;
    Variable q(x);
    Variable out = attn.forward(q, q, q, /*causal=*/true);
    Variable loss = autograd::sum_all(out);
    opt.zero_grad();
    loss.backward();
    opt.step(1e-3f);
  };
  for (int i = 0; i < 3; ++i) step();
  for (int i = 0; i < 5; ++i) {
    step();
    EXPECT_EQ(GraphEpoch::last_pool_misses(), 0) << "steady-state step " << i;
    EXPECT_GT(GraphEpoch::last_pool_hits(), 0);
  }
}

}  // namespace
}  // namespace mlperf::tensor
