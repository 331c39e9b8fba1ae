#include "sysim/data_parallel.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/functional.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::sysim {
namespace {

using autograd::Variable;
using tensor::Rng;
using tensor::Tensor;

TEST(GradientAllReduce, AveragesAcrossWorkers) {
  Rng rng(1);
  Tensor a({4}, {1, 2, 3, 4});
  Tensor b({4}, {3, 2, 1, 0});
  GradientAllReduce reducer(ReductionOrder::kFixed, rng);
  Tensor out = reducer.reduce({&a, &b});
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 2.0f);
}

TEST(GradientAllReduce, ShapeMismatchThrows) {
  Rng rng(2);
  Tensor a({4});
  Tensor b({3});
  GradientAllReduce reducer(ReductionOrder::kFixed, rng);
  EXPECT_THROW(reducer.reduce({&a, &b}), std::invalid_argument);
  EXPECT_THROW(reducer.reduce({}), std::invalid_argument);
}

TEST(GradientAllReduce, FixedOrderIsDeterministic) {
  Rng rng(3);
  Rng data_rng(4);
  Tensor a = Tensor::randn({64}, data_rng, 0.0f, 1e4f);
  Tensor b = Tensor::randn({64}, data_rng, 0.0f, 1e-4f);
  Tensor c = Tensor::randn({64}, data_rng);
  GradientAllReduce reducer(ReductionOrder::kFixed, rng);
  Tensor r1 = reducer.reduce({&a, &b, &c});
  Tensor r2 = reducer.reduce({&a, &b, &c});
  for (std::int64_t i = 0; i < 64; ++i) EXPECT_EQ(r1[i], r2[i]);
}

TEST(GradientAllReduce, PermutedOrderLeavesFloatFingerprint) {
  // §2.2.3: floating-point addition is non-associative, so different
  // accumulation orders give (slightly) different sums. Use values of wildly
  // different magnitude to make the effect visible deterministically.
  Rng rng(5);
  Rng data_rng(6);
  Tensor a = Tensor::randn({256}, data_rng, 0.0f, 1e6f);
  Tensor b = Tensor::randn({256}, data_rng, 0.0f, 1e-6f);
  Tensor c = Tensor::randn({256}, data_rng, 0.0f, 1.0f);
  Tensor d = Tensor::randn({256}, data_rng, 0.0f, 1e3f);
  GradientAllReduce reducer(ReductionOrder::kPermuted, rng);
  bool any_difference = false;
  Tensor first = reducer.reduce({&a, &b, &c, &d});
  for (int trial = 0; trial < 16 && !any_difference; ++trial) {
    Tensor again = reducer.reduce({&a, &b, &c, &d});
    for (std::int64_t i = 0; i < first.numel(); ++i)
      if (again[i] != first[i]) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

/// Shared fixture: a tiny linear-softmax classifier with a fixed batch, so
/// data-parallel and single-worker gradients can be compared exactly.
struct ToyProblem {
  Rng rng{7};
  nn::Linear layer{6, 3, rng};
  Tensor inputs = Tensor::randn({12, 6}, rng);
  std::vector<std::int64_t> labels = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};

  /// Sum-of-losses gradient over batch rows [begin, end).
  std::vector<Tensor> shard_grads(std::int64_t begin, std::int64_t end) {
    layer.zero_grad();
    Tensor shard_in = inputs.slice(0, begin, end);
    std::vector<std::int64_t> shard_labels(labels.begin() + begin, labels.begin() + end);
    Variable loss = nn::cross_entropy(layer.forward(Variable(shard_in)), shard_labels);
    // cross_entropy returns the shard MEAN; scale to a per-shard SUM.
    autograd::mul_scalar(loss, static_cast<float>(end - begin)).backward();
    return {layer.weight.grad(), layer.bias.grad()};
  }
};

TEST(DataParallelStep, MatchesSingleWorkerGradients) {
  ToyProblem problem;
  // Reference: single-worker mean gradient over the full batch.
  problem.layer.zero_grad();
  Variable ref_loss =
      nn::cross_entropy(problem.layer.forward(Variable(problem.inputs)), problem.labels);
  ref_loss.backward();
  Tensor ref_w = problem.layer.weight.grad();
  Tensor ref_b = problem.layer.bias.grad();

  for (std::int64_t workers : {1, 2, 3, 4}) {
    Rng rng(8);
    DataParallelStep::Config cfg;
    cfg.num_workers = workers;
    DataParallelStep dp(cfg, rng);
    std::vector<Variable> params = {problem.layer.weight, problem.layer.bias};
    dp.step(12, [&](std::int64_t b, std::int64_t e) { return problem.shard_grads(b, e); },
            params);
    for (std::int64_t i = 0; i < ref_w.numel(); ++i)
      EXPECT_NEAR(problem.layer.weight.grad()[i], ref_w[i], 1e-5f)
          << "workers=" << workers << " i=" << i;
    for (std::int64_t i = 0; i < ref_b.numel(); ++i)
      EXPECT_NEAR(problem.layer.bias.grad()[i], ref_b[i], 1e-5f);
  }
}

TEST(DataParallelStep, UnevenShardsStillAverageCorrectly) {
  ToyProblem problem;
  problem.layer.zero_grad();
  Variable ref_loss =
      nn::cross_entropy(problem.layer.forward(Variable(problem.inputs)), problem.labels);
  ref_loss.backward();
  Tensor ref_w = problem.layer.weight.grad();

  Rng rng(9);
  DataParallelStep::Config cfg;
  cfg.num_workers = 5;  // 12 examples over 5 workers: shards of 2-3
  DataParallelStep dp(cfg, rng);
  std::vector<Variable> params = {problem.layer.weight, problem.layer.bias};
  dp.step(12, [&](std::int64_t b, std::int64_t e) { return problem.shard_grads(b, e); },
          params);
  for (std::int64_t i = 0; i < ref_w.numel(); ++i)
    EXPECT_NEAR(problem.layer.weight.grad()[i], ref_w[i], 1e-5f);
}

TEST(DataParallelStep, RejectsBadConfigs) {
  ToyProblem problem;
  Rng rng(10);
  DataParallelStep::Config cfg;
  cfg.num_workers = 16;
  DataParallelStep dp(cfg, rng);
  std::vector<Variable> params = {problem.layer.weight};
  EXPECT_THROW(
      dp.step(4, [&](std::int64_t, std::int64_t) { return std::vector<Tensor>{}; }, params),
      std::invalid_argument);
}

TEST(DataParallelStep, VirtualClockAdvancesBySyncStepTime) {
  ToyProblem problem;
  Rng rng(11);
  const ChipProfile chip = accelerator_2019();
  const Interconnect net = cluster_interconnect();
  const SoftwareStack stack = stack_v05();
  DataParallelStep::Config cfg;
  cfg.num_workers = 4;
  cfg.chip = &chip;
  cfg.interconnect = &net;
  cfg.stack = &stack;
  cfg.flops_per_sample = 1e9;
  DataParallelStep dp(cfg, rng);
  std::vector<Variable> params = {problem.layer.weight, problem.layer.bias};
  core::ManualClock clock;
  const double step_s =
      dp.step(12, [&](std::int64_t b, std::int64_t e) { return problem.shard_grads(b, e); },
              params, &clock);
  EXPECT_GT(step_s, 0.0);
  EXPECT_NEAR(clock.now_ms(), step_s * 1e3, 1e-9);
  // Straggler rule: the largest shard (3 of 12) gates compute, and the chip
  // step floor applies.
  const double compute = std::max(1e9 * 3 / (chip.tflops * 1e12 * stack.compute_efficiency),
                                  chip.step_floor_s);
  EXPECT_GE(step_s, compute);
}

TEST(DataParallelStep, TrainsToSameQualityAsSerial) {
  // End-to-end: optimizing with data-parallel gradient steps converges to
  // the same loss as the serial run (same seeds, fixed reduction order).
  auto train = [](std::int64_t workers) {
    Rng init_rng(12);
    nn::Linear layer(4, 2, init_rng);
    Rng data_rng(13);
    Tensor inputs = Tensor::randn({16, 4}, data_rng);
    std::vector<std::int64_t> labels;
    for (std::int64_t i = 0; i < 16; ++i)
      labels.push_back(inputs[i * 4] > 0.0f ? 1 : 0);  // linearly separable
    std::vector<Variable> params = layer.parameters();
    optim::SgdMomentum opt(params, 0.9f);
    Rng step_rng(14);
    DataParallelStep::Config cfg;
    cfg.num_workers = workers;
    DataParallelStep dp(cfg, step_rng);
    for (int it = 0; it < 60; ++it) {
      dp.step(16,
              [&](std::int64_t b, std::int64_t e) {
                layer.zero_grad();
                std::vector<std::int64_t> shard_labels(labels.begin() + b, labels.begin() + e);
                Variable loss = nn::cross_entropy(
                    layer.forward(Variable(inputs.slice(0, b, e))), shard_labels);
                autograd::mul_scalar(loss, static_cast<float>(e - b)).backward();
                return std::vector<Tensor>{layer.weight.grad(), layer.bias.grad()};
              },
              params);
      opt.step(0.2f);
    }
    Variable logits = layer.forward(Variable(inputs));
    const auto preds = logits.value().argmax_last();
    std::size_t hits = 0;
    for (std::size_t i = 0; i < preds.size(); ++i)
      if (preds[i] == labels[i]) ++hits;
    return static_cast<double>(hits) / 16.0;
  };
  const double serial = train(1);
  const double parallel = train(4);
  EXPECT_GT(serial, 0.9);
  EXPECT_NEAR(parallel, serial, 0.15);
}

TEST(DataParallelStep, GradientBytesCountsAllParams) {
  Rng rng(15);
  nn::Linear layer(10, 5, rng);
  EXPECT_DOUBLE_EQ(DataParallelStep::gradient_bytes(layer.parameters()),
                   (10 * 5 + 5) * sizeof(float));
}

// Scaling property: modeled synchronous step time is monotone in worker
// count for fixed per-worker shard (communication only grows).
class StepTimeScaling : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(StepTimeScaling, CommunicationGrowsWithWorkers) {
  const std::int64_t workers = GetParam();
  ToyProblem problem;
  Rng rng(16);
  const ChipProfile chip = accelerator_2019();
  const Interconnect net = cluster_interconnect();
  const SoftwareStack stack = stack_v05();
  auto step_time = [&](std::int64_t w) {
    DataParallelStep::Config cfg;
    cfg.num_workers = w;
    cfg.chip = &chip;
    cfg.interconnect = &net;
    cfg.stack = &stack;
    cfg.flops_per_sample = 1e6;  // negligible compute: isolate communication
    DataParallelStep dp(cfg, rng);
    std::vector<Variable> params = {problem.layer.weight, problem.layer.bias};
    return dp.step(12, [&](std::int64_t b, std::int64_t e) { return problem.shard_grads(b, e); },
                   params);
  };
  if (workers > 1) {
    EXPECT_GT(step_time(workers), step_time(workers / 2));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, StepTimeScaling, ::testing::Values(2, 4));

}  // namespace
}  // namespace mlperf::sysim
