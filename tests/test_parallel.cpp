// Tests for the parallel execution layer (src/parallel): pool lifecycle,
// the deterministic parallel_for/parallel_reduce contracts, and — the hard
// requirement — bitwise-identical kernel outputs at any thread count.
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "nn/functional.h"
#include "nn/layers.h"
#include "tensor/tensor.h"

namespace mlperf::parallel {
namespace {

using tensor::Rng;
using tensor::Tensor;

/// Every test leaves the process back in single-threaded mode so the rest of
/// the suite (and test-order shuffling) sees the default configuration.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(1); }
};

/// Context of a ThreadPool::run job that records, per part, the thread that
/// ran it and whether ThreadPool::on_worker_thread() held there. Every part
/// first waits until `barrier` parts have started, so with barrier == parts
/// each of the job's threads runs exactly one part.
struct PartLog {
  std::int64_t barrier = 0;
  std::atomic<std::int64_t> started{0};
  std::mutex mu;  // guards the vectors below
  std::vector<std::int64_t> parts;
  std::vector<std::thread::id> threads;
  std::vector<bool> on_worker;

  static void record(const void* ctx, std::int64_t p) {
    auto& log = *static_cast<PartLog*>(const_cast<void*>(ctx));
    log.started.fetch_add(1);
    while (log.started.load() < log.barrier) std::this_thread::yield();
    std::lock_guard<std::mutex> lock(log.mu);
    log.parts.push_back(p);
    log.threads.push_back(std::this_thread::get_id());
    log.on_worker.push_back(ThreadPool::on_worker_thread());
  }
};

TEST_F(ParallelTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  PartLog log;
  pool.run(3, &PartLog::record, &log);
  // No workers -> every part runs on the caller, in ascending order.
  EXPECT_EQ(log.parts, (std::vector<std::int64_t>{0, 1, 2}));
  for (const std::thread::id& t : log.threads) EXPECT_EQ(t, std::this_thread::get_id());
}

TEST_F(ParallelTest, OnWorkerThreadFlag) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(1);
  PartLog log;
  log.barrier = 2;
  pool.run(2, &PartLog::record, &log);
  // One part ran on the worker and one on the caller; both threads count as
  // pool threads while they run a part, so nested parallel_for runs inline.
  ASSERT_EQ(log.threads.size(), 2u);
  EXPECT_NE(log.threads[0], log.threads[1]);
  EXPECT_EQ(log.on_worker, (std::vector<bool>{true, true}));
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST_F(ParallelTest, SetNumThreadsControlsGlobalPool) {
  EXPECT_EQ(num_threads(), 1);
  EXPECT_EQ(global_pool(), nullptr);
  set_num_threads(4);
  EXPECT_EQ(num_threads(), 4);
  ASSERT_NE(global_pool(), nullptr);
  // The caller runs parts of every parallel_for itself, so n threads are the
  // caller plus n - 1 pool workers.
  EXPECT_EQ(global_pool()->num_workers(), 3);
  set_num_threads(1);
  EXPECT_EQ(global_pool(), nullptr);
  EXPECT_THROW(set_num_threads(0), std::invalid_argument);
}

TEST_F(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  for (std::int64_t threads : {1, 2, 4}) {
    set_num_threads(threads);
    for (std::int64_t range : {std::int64_t{1}, std::int64_t{7}, std::int64_t{1000}}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(range));
      for (auto& h : hits) h.store(0);
      parallel_for(3, range, [&](std::int64_t begin, std::int64_t end) {
        ASSERT_LE(std::int64_t{0}, begin);
        ASSERT_LE(begin, end);
        ASSERT_LE(end, range);
        for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST_F(ParallelTest, EmptyAndNegativeRangesAreNoOps) {
  set_num_threads(4);
  bool called = false;
  parallel_for(1, 0, [&](std::int64_t, std::int64_t) { called = true; });
  parallel_for(1, -5, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, SingleElementRange) {
  set_num_threads(4);
  int calls = 0;
  parallel_for(8, 1, [&](std::int64_t begin, std::int64_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 1);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, ExceptionPropagatesAndPoolStaysUsable) {
  set_num_threads(4);
  EXPECT_THROW(
      parallel_for(1, 100,
                   [](std::int64_t begin, std::int64_t) {
                     if (begin >= 50) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must survive a throwing body and keep serving work.
  std::atomic<std::int64_t> total{0};
  parallel_for(1, 100, [&](std::int64_t begin, std::int64_t end) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100);
}

/// Every part of a parallel_for over `parts` chunks of one item waits until
/// all parts have started, so each of the `parts` threads (the caller and its
/// num_threads() - 1 workers) runs exactly one, and `throws(on_caller)` picks
/// which of them throw. Stores the begin index of the caller's part in
/// `caller_part`.
void run_one_part_per_thread(std::int64_t parts, bool (*throws)(bool on_caller),
                             std::atomic<std::int64_t>& caller_part) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::int64_t> started{0};
  parallel_for(1, parts, [&](std::int64_t begin, std::int64_t) {
    started.fetch_add(1);
    while (started.load() < parts) std::this_thread::yield();
    const bool on_caller = std::this_thread::get_id() == caller;
    if (on_caller) caller_part.store(begin);
    if (throws(on_caller)) throw std::runtime_error(std::to_string(begin));
  });
}

/// The part index carried by the exception run_one_part_per_thread threw, or
/// -1 when nothing was thrown.
std::int64_t thrown_part(bool (*throws)(bool on_caller), std::atomic<std::int64_t>& caller_part) {
  try {
    run_one_part_per_thread(4, throws, caller_part);
  } catch (const std::runtime_error& e) {
    return std::stoll(e.what());
  }
  return -1;
}

void expect_pool_usable() {
  std::atomic<std::int64_t> total{0};
  parallel_for(1, 100, [&](std::int64_t begin, std::int64_t end) { total += end - begin; });
  EXPECT_EQ(total.load(), 100);
}

TEST_F(ParallelTest, CallerRunsAPartOfEveryJob) {
  set_num_threads(4);
  std::atomic<std::int64_t> caller_part{-1};
  run_one_part_per_thread(4, [](bool) { return false; }, caller_part);
  EXPECT_GE(caller_part.load(), 0);
  EXPECT_LT(caller_part.load(), 4);
}

TEST_F(ParallelTest, ExceptionInCallersOwnPartPropagates) {
  set_num_threads(4);
  std::atomic<std::int64_t> caller_part{-1};
  const std::int64_t thrown = thrown_part([](bool on_caller) { return on_caller; }, caller_part);
  EXPECT_EQ(thrown, caller_part.load());  // the only failing part
  expect_pool_usable();
}

TEST_F(ParallelTest, ExceptionInWorkersPartPropagatesLowestFirst) {
  set_num_threads(4);
  std::atomic<std::int64_t> caller_part{-1};
  const std::int64_t thrown = thrown_part([](bool on_caller) { return !on_caller; }, caller_part);
  // Three workers threw; the lowest-numbered failing part wins.
  EXPECT_EQ(thrown, caller_part.load() == 0 ? 1 : 0);
  expect_pool_usable();
}

TEST_F(ParallelTest, ConcurrentCallersEachCoverTheirRangeOnce) {
  set_num_threads(4);
  constexpr std::int64_t kRange = 997;
  auto hammer = [](std::vector<std::atomic<int>>& hits) {
    for (int rep = 0; rep < 200; ++rep)
      parallel_for(7, kRange, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
      });
  };
  std::vector<std::atomic<int>> hits_a(kRange), hits_b(kRange);
  for (auto& h : hits_a) h.store(0);
  for (auto& h : hits_b) h.store(0);
  std::thread a([&] { hammer(hits_a); });
  std::thread b([&] { hammer(hits_b); });
  a.join();
  b.join();
  for (const auto& h : hits_a) EXPECT_EQ(h.load(), 200);
  for (const auto& h : hits_b) EXPECT_EQ(h.load(), 200);
}

TEST_F(ParallelTest, SetNumThreadsCyclesWithParkedWorkers) {
  for (std::int64_t threads : {1, 4, 2, 4, 1, 4}) {
    set_num_threads(threads);
    // Outlast the spin budget so the workers park before the next job and
    // before the pool is torn down.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<std::int64_t> total{0};
    parallel_for(1, 64, [&](std::int64_t begin, std::int64_t end) { total += end - begin; });
    EXPECT_EQ(total.load(), 64);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  parallel_for(1, 8, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o)
      parallel_for(1, 8, [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i) hits[static_cast<std::size_t>(o * 8 + i)]++;
      });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, GrainForTargetsFixedWork) {
  EXPECT_GE(grain_for(1), 1);
  EXPECT_EQ(grain_for(1 << 20), 1);  // huge per-item work -> chunk of one
  EXPECT_GT(grain_for(1), grain_for(64));
}

TEST_F(ParallelTest, ParallelReduceIsThreadCountInvariant) {
  // Float summation is non-associative, so invariance here exercises the
  // fixed-chunk + ordered-combine contract, not luck.
  Rng rng(99);
  Tensor big = Tensor::randn({1 << 18}, rng);
  set_num_threads(1);
  const double sum1 = big.sum();
  const float l21 = big.l2_norm_sq();
  const float max1 = big.max();
  for (std::int64_t threads : {2, 4, 8}) {
    set_num_threads(threads);
    EXPECT_EQ(big.sum(), sum1);
    EXPECT_EQ(big.l2_norm_sq(), l21);
    EXPECT_EQ(big.max(), max1);
  }
}

/// Bytewise equality — EXPECT_EQ on floats would also pass for -0.0 vs 0.0
/// and miss NaN payloads; the determinism contract is *bitwise*.
void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)));
}

TEST_F(ParallelTest, MatmulBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(7);
  Tensor a = Tensor::randn({67, 45}, rng);
  Tensor b = Tensor::randn({45, 81}, rng);
  set_num_threads(1);
  const Tensor ref = a.matmul(b);
  for (std::int64_t threads : {2, 3, 4, 8}) {
    set_num_threads(threads);
    expect_bitwise_equal(a.matmul(b), ref);
  }
}

TEST_F(ParallelTest, Conv2dForwardAndBackwardBitwiseIdentical) {
  Rng rng(8);
  Tensor x = Tensor::randn({5, 4, 13, 11}, rng);
  Tensor w = Tensor::randn({6, 4, 3, 3}, rng);
  Tensor b = Tensor::randn({6}, rng);

  auto run = [&] {
    autograd::Variable vx(x, true), vw(w, true), vb(b, true);
    autograd::Variable y = nn::conv2d(vx, vw, vb, 2, 1);
    autograd::sum_all(y).backward();
    return std::tuple<Tensor, Tensor, Tensor, Tensor>{y.value(), vw.grad(), vx.grad(),
                                                      vb.grad()};
  };

  set_num_threads(1);
  const auto [y1, dw1, dx1, db1] = run();
  for (std::int64_t threads : {2, 4, 8}) {
    set_num_threads(threads);
    const auto [yn, dwn, dxn, dbn] = run();
    expect_bitwise_equal(yn, y1);
    expect_bitwise_equal(dwn, dw1);
    expect_bitwise_equal(dxn, dx1);
    expect_bitwise_equal(dbn, db1);
  }
}

TEST_F(ParallelTest, PoolingBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(9);
  Tensor x = Tensor::randn({4, 6, 12, 12}, rng);
  auto run = [&] {
    autograd::Variable vx(x, true);
    autograd::Variable y = nn::max_pool2d(vx, 2, 2);
    autograd::sum_all(y).backward();
    return std::pair<Tensor, Tensor>{y.value(), vx.grad()};
  };
  set_num_threads(1);
  const auto [y1, dx1] = run();
  set_num_threads(4);
  const auto [y4, dx4] = run();
  expect_bitwise_equal(y4, y1);
  expect_bitwise_equal(dx4, dx1);
}

TEST_F(ParallelTest, BatchNormBitwiseIdenticalAcrossThreadCounts) {
  // n*h*w = 4608 samples per channel: large enough that every channel is
  // its own chunk, so 12 channels spread over all the threads.
  Rng rng(10);
  const Tensor x = Tensor::randn({8, 12, 24, 24}, rng);
  const Tensor upstream = Tensor::randn({8, 12, 24, 24}, rng);
  const Tensor gamma = Tensor::randn({12}, rng);
  const Tensor beta = Tensor::randn({12}, rng);
  const Tensor running_var = Tensor::rand({12}, rng, 0.5f, 2.0f);

  for (const bool train : {true, false}) {
    auto run = [&] {
      nn::BatchNorm2d bn(12);
      bn.gamma.mutable_value() = gamma;
      bn.beta.mutable_value() = beta;
      bn.running_var = running_var;
      bn.set_training(train);
      autograd::Variable vx(x, true);
      autograd::Variable y = bn.forward(vx);
      autograd::sum_all(autograd::mul(y, autograd::Variable(upstream))).backward();
      return std::vector<Tensor>{y.value(),         vx.grad(),      bn.gamma.grad(),
                                 bn.beta.grad(),    bn.running_mean, bn.running_var};
    };
    set_num_threads(1);
    const std::vector<Tensor> ref = run();
    for (std::int64_t threads : {2, 4, 8}) {
      set_num_threads(threads);
      const std::vector<Tensor> got = run();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "train " << train << " threads " << threads
                                          << " output " << i);
        expect_bitwise_equal(got[i], ref[i]);
      }
    }
  }
}

TEST_F(ParallelTest, AccumulateGradBitwiseIdenticalAcrossThreadCounts) {
  // Both shapes exceed one chunk of grain_for(1) elements, so the adds split.
  Rng rng(11);
  const Tensor same_a = Tensor::randn({3, 50000}, rng);
  const Tensor same_b = Tensor::randn({3, 50000}, rng);
  const Tensor wide_a = Tensor::randn({3, 40000}, rng);
  const Tensor wide_b = Tensor::randn({3, 40000}, rng);

  auto run = [&] {
    // Same shape: first touch, then an in-place add.
    autograd::Variable same(Tensor({3, 50000}), true);
    same.node()->accumulate_grad(same_a);
    same.node()->accumulate_grad(same_b);
    // Broadcast: [3, 40000] gradients reduced into a [1, 40000] leaf.
    autograd::Variable wide(Tensor({1, 40000}), true);
    wide.node()->accumulate_grad(wide_a);
    wide.node()->accumulate_grad(wide_b);
    return std::pair<Tensor, Tensor>{same.grad(), wide.grad()};
  };
  set_num_threads(1);
  const auto [same1, wide1] = run();
  for (std::int64_t threads : {2, 4, 8}) {
    set_num_threads(threads);
    const auto [same_n, wide_n] = run();
    expect_bitwise_equal(same_n, same1);
    expect_bitwise_equal(wide_n, wide1);
  }
}

TEST_F(ParallelTest, PrefetchLoaderDeterministicAcrossThreadCounts) {
  data::SyntheticImageDataset::Config cfg;
  cfg.train_size = 23;
  data::SyntheticImageDataset ds(cfg);
  data::ReformattedSplits splits = data::reformat(ds);
  data::AugmentationPipeline aug = data::AugmentationPipeline::reference_image_pipeline();

  auto collect = [&](std::int64_t threads) {
    set_num_threads(threads);
    Rng rng(321);
    data::ImageLoader loader(splits.train, 5, &aug, rng, /*drop_last=*/false,
                             /*prefetch=*/true);
    std::vector<data::ImageBatch> batches;
    while (loader.has_next()) batches.push_back(loader.next());
    return batches;
  };

  const auto ref = collect(1);
  EXPECT_EQ(ref.size(), 5u);  // 23 = 5*4 + 3
  for (std::int64_t threads : {2, 4}) {
    const auto got = collect(threads);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].labels, ref[i].labels);
      expect_bitwise_equal(got[i].images, ref[i].images);
    }
  }
}

}  // namespace
}  // namespace mlperf::parallel
