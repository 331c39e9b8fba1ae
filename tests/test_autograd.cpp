#include "autograd/variable.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include "checkpoint/state.h"
#include "nn/functional.h"
#include "parallel/parallel_for.h"

namespace mlperf::autograd {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Central-difference gradient check: builds a scalar loss L(x) = sum(f(x) *
/// fixed random weights) and compares autograd's dL/dx to finite differences.
void gradcheck(const std::function<Variable(const Variable&)>& f, Tensor x0,
               double tol = 2e-2, float eps = 1e-3f) {
  Variable x(x0, /*requires_grad=*/true);
  Variable y = f(x);
  Rng wrng(99);
  Tensor w = Tensor::rand(y.value().shape(), wrng, 0.5f, 1.5f);
  Variable loss = sum_all(mul(y, Variable(w)));
  loss.backward();
  const Tensor& analytic = x.grad();

  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    Tensor xp = x0, xm = x0;
    xp[i] += eps;
    xm[i] -= eps;
    const float lp = mul(f(Variable(xp)), Variable(w)).value().sum();
    const float lm = mul(f(Variable(xm)), Variable(w)).value().sum();
    const double numeric = (static_cast<double>(lp) - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "component " << i;
  }
}

TEST(AutogradCore, LeafHasNoBackwardAndZeroGrad) {
  Variable v(Tensor({2, 2}, 1.0f), true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.grad().sum(), 0.0f);
}

TEST(AutogradCore, BackwardRequiresScalarOrSeed) {
  Variable v(Tensor({2, 2}, 1.0f), true);
  Variable y = mul_scalar(v, 2.0f);
  EXPECT_THROW(y.backward(), std::invalid_argument);
  y.backward(Tensor({2, 2}, 1.0f));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(v.grad()[i], 2.0f);
}

TEST(AutogradCore, GradAccumulatesAcrossBackwardCalls) {
  Variable v(Tensor({1}, 3.0f), true);
  Variable y1 = mul_scalar(v, 2.0f);
  y1.backward();
  Variable y2 = mul_scalar(v, 5.0f);
  y2.backward();
  EXPECT_FLOAT_EQ(v.grad()[0], 7.0f);
  v.zero_grad();
  EXPECT_FLOAT_EQ(v.grad()[0], 0.0f);
}

TEST(AutogradCore, DiamondGraphGradientIsCorrect) {
  // y = x*x + x*x (two paths through the same node).
  Variable x(Tensor({1}, 3.0f), true);
  Variable sq = mul(x, x);
  Variable y = add(sq, sq);
  y.backward(Tensor({1}, 1.0f));
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);  // d(2x^2)/dx = 4x
}

TEST(AutogradCore, DetachBlocksGradient) {
  Variable x(Tensor({1}, 2.0f), true);
  Variable y = mul(detach(x), x);  // d/dx = detach(x) only
  y.backward(Tensor({1}, 1.0f));
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(AutogradCore, NoGradThroughNonRequiringLeaf) {
  Variable a(Tensor({2}, 1.0f), true);
  Variable b(Tensor({2}, 5.0f), false);
  Variable y = sum_all(mul(a, b));
  y.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 5.0f);
  EXPECT_FLOAT_EQ(b.grad().sum(), 0.0f);
}

TEST(AutogradGradcheck, Add) {
  Rng rng(1);
  Tensor b = Tensor::randn({3, 4}, rng);
  gradcheck([&](const Variable& x) { return add(x, Variable(b)); },
            Tensor::randn({3, 4}, rng));
}

TEST(AutogradGradcheck, BroadcastAddReducesGrad) {
  Rng rng(2);
  Tensor big = Tensor::randn({4, 3}, rng);
  gradcheck([&](const Variable& x) { return add(Variable(big), x); }, Tensor::randn({3}, rng));
}

TEST(AutogradGradcheck, MulAndDiv) {
  Rng rng(3);
  Tensor b = Tensor::rand({2, 5}, rng, 0.5f, 2.0f);
  gradcheck([&](const Variable& x) { return mul(x, Variable(b)); }, Tensor::randn({2, 5}, rng));
  gradcheck([&](const Variable& x) { return div(x, Variable(b)); }, Tensor::randn({2, 5}, rng));
  Tensor num = Tensor::rand({2, 5}, rng, 0.5f, 2.0f);
  gradcheck([&](const Variable& x) { return div(Variable(num), x); },
            Tensor::rand({2, 5}, rng, 0.5f, 2.0f));
}

TEST(AutogradGradcheck, MatmulBothSides) {
  Rng rng(4);
  Tensor b = Tensor::randn({4, 3}, rng);
  gradcheck([&](const Variable& x) { return matmul(x, Variable(b)); },
            Tensor::randn({2, 4}, rng));
  Tensor a = Tensor::randn({2, 4}, rng);
  gradcheck([&](const Variable& x) { return matmul(Variable(a), x); },
            Tensor::randn({4, 3}, rng));
}

TEST(AutogradGradcheck, Bmm) {
  Rng rng(5);
  Tensor b = Tensor::randn({2, 3, 2}, rng);
  gradcheck([&](const Variable& x) { return bmm(x, Variable(b)); },
            Tensor::randn({2, 2, 3}, rng));
}

TEST(AutogradGradcheck, UnaryOps) {
  Rng rng(6);
  gradcheck([](const Variable& x) { return tanh_op(x); }, Tensor::randn({8}, rng));
  gradcheck([](const Variable& x) { return sigmoid(x); }, Tensor::randn({8}, rng));
  gradcheck([](const Variable& x) { return exp_op(x); }, Tensor::randn({8}, rng, 0.0f, 0.5f));
  gradcheck([](const Variable& x) { return log_op(x); }, Tensor::rand({8}, rng, 0.5f, 2.0f));
  gradcheck([](const Variable& x) { return sqrt_op(x); }, Tensor::rand({8}, rng, 0.5f, 2.0f));
  gradcheck([](const Variable& x) { return neg(x); }, Tensor::randn({8}, rng));
}

TEST(AutogradGradcheck, ReluAwayFromKink) {
  Rng rng(7);
  Tensor x = Tensor::randn({16}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.2f;  // keep FD away from the kink
  gradcheck([](const Variable& v) { return relu(v); }, x);
}

TEST(AutogradGradcheck, ReshapePermute) {
  Rng rng(8);
  gradcheck([](const Variable& x) { return reshape(x, {6, 2}); }, Tensor::randn({3, 4}, rng));
  gradcheck([](const Variable& x) { return permute(x, {1, 0}); }, Tensor::randn({3, 4}, rng));
  gradcheck([](const Variable& x) { return permute(x, {2, 0, 1}); },
            Tensor::randn({2, 3, 4}, rng));
}

TEST(AutogradGradcheck, SliceAndCat) {
  Rng rng(9);
  gradcheck([](const Variable& x) { return slice0(x, 1, 3); }, Tensor::randn({4, 2}, rng));
  gradcheck([](const Variable& x) { return cat0({slice0(x, 2, 4), slice0(x, 0, 2)}); },
            Tensor::randn({4, 2}, rng));
}

TEST(AutogradGradcheck, Reductions) {
  Rng rng(10);
  gradcheck([](const Variable& x) { return sum_all(x); }, Tensor::randn({3, 3}, rng));
  gradcheck([](const Variable& x) { return mean_all(x); }, Tensor::randn({3, 3}, rng));
  gradcheck([](const Variable& x) { return sum_axis(x, 0); }, Tensor::randn({3, 4}, rng));
  gradcheck([](const Variable& x) { return sum_axis(x, 1, true); }, Tensor::randn({3, 4}, rng));
  gradcheck([](const Variable& x) { return mean_axis(x, -1); }, Tensor::randn({3, 4}, rng));
}

TEST(AutogradGradcheck, SoftmaxFamilies) {
  Rng rng(11);
  gradcheck([](const Variable& x) { return softmax_last(x); }, Tensor::randn({3, 5}, rng),
            /*tol=*/3e-2);
  gradcheck([](const Variable& x) { return log_softmax_last(x); }, Tensor::randn({3, 5}, rng),
            /*tol=*/3e-2);
}

TEST(AutogradGradcheck, Embedding) {
  Rng rng(12);
  const std::vector<std::int64_t> idx = {0, 2, 2, 1};
  gradcheck([&](const Variable& t) { return embedding(t, idx); }, Tensor::randn({3, 4}, rng));
}

TEST(AutogradEmbedding, RepeatedIndicesAccumulate) {
  Variable table(Tensor({2, 2}, {1, 2, 3, 4}), true);
  Variable out = embedding(table, {1, 1, 1});
  sum_all(out).backward();
  EXPECT_FLOAT_EQ(table.grad().at({1, 0}), 3.0f);
  EXPECT_FLOAT_EQ(table.grad().at({0, 0}), 0.0f);
}

TEST(AutogradEmbedding, OutOfRangeThrows) {
  Variable table(Tensor({2, 2}), true);
  EXPECT_THROW(embedding(table, {2}), std::out_of_range);
}

TEST(AutogradChain, TwoLayerMlpGradcheck) {
  Rng rng(13);
  Tensor w1 = Tensor::randn({4, 5}, rng, 0.0f, 0.5f);
  Tensor w2 = Tensor::randn({5, 2}, rng, 0.0f, 0.5f);
  gradcheck(
      [&](const Variable& x) {
        Variable h = tanh_op(matmul(x, Variable(w1)));
        return matmul(h, Variable(w2));
      },
      Tensor::randn({3, 4}, rng));
}

TEST(AutogradChain, WeightGradientThroughDeepChain) {
  Rng rng(14);
  Tensor x = Tensor::randn({3, 4}, rng);
  gradcheck(
      [&](const Variable& w) {
        Variable h = sigmoid(matmul(Variable(x), w));
        Variable h2 = mul(h, h);
        return sum_axis(h2, 0);
      },
      Tensor::randn({4, 3}, rng, 0.0f, 0.5f));
}

// ---- fused add_relu --------------------------------------------------------

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST(AddRelu, BitwiseIdenticalToUnfusedChain) {
  Rng rng(31);
  const Tensor xa = Tensor::randn({6, 9}, rng);
  const Tensor xb = Tensor::randn({6, 9}, rng);

  Variable a1(xa, true), b1(xb, true);
  Variable fused = add_relu(a1, b1);
  Variable loss1 = sum_all(mul(fused, fused));
  loss1.backward();

  Variable a2(xa, true), b2(xb, true);
  Variable unfused = relu(add(a2, b2));
  Variable loss2 = sum_all(mul(unfused, unfused));
  loss2.backward();

  expect_same_bits(fused.value(), unfused.value());
  expect_same_bits(a1.grad(), a2.grad());
  expect_same_bits(b1.grad(), b2.grad());
}

TEST(AddRelu, BroadcastBiasMatchesUnfusedBitwise) {
  // The Linear::forward_relu shape: [N, F] activations + [F] bias. The fused
  // backward hands ONE masked tensor to both parents; reduce_to inside
  // accumulate_grad must shrink it to the bias exactly as the unfused chain.
  Rng rng(37);
  const Tensor xa = Tensor::randn({5, 4}, rng);
  const Tensor xb = Tensor::randn({4}, rng);

  Variable a1(xa, true), b1(xb, true);
  Variable fused = add_relu(a1, b1);
  fused.backward(Tensor(fused.shape(), 1.0f));

  Variable a2(xa, true), b2(xb, true);
  Variable unfused = relu(add(a2, b2));
  unfused.backward(Tensor(unfused.shape(), 1.0f));

  expect_same_bits(fused.value(), unfused.value());
  expect_same_bits(a1.grad(), a2.grad());
  expect_same_bits(b1.grad(), b2.grad());
}

TEST(AddRelu, GradcheckAwayFromKink) {
  Rng rng(41);
  const Tensor other = Tensor::randn({3, 5}, rng, 2.0f, 0.25f);  // keep s > 0
  gradcheck([&](const Variable& v) { return add_relu(v, Variable(other)); },
            Tensor::rand({3, 5}, rng, 0.5f, 1.5f));
}


// ---- step-scoped im2col pack cache -----------------------------------------

std::uint64_t fnv_tensor(const Tensor& t, std::uint64_t h) {
  return checkpoint::fnv1a(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float), h);
}

// Three conv train steps with a manual SGD update; fingerprints every weight
// and gradient after each step so a single bit of divergence anywhere in the
// trajectory changes the hash.
std::uint64_t conv_train_fingerprint(bool cache_on, int threads) {
  nn::set_conv_pack_cache(cache_on);
  parallel::set_num_threads(threads);
  Rng rng(77);
  Tensor w1t = Tensor::randn({4, 3, 3, 3}, rng);
  Tensor w2t = Tensor::randn({5, 4, 3, 3}, rng);
  Tensor b2t = Tensor::randn({5}, rng);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  std::uint64_t h = checkpoint::kFnvOffset;
  for (int step = 0; step < 3; ++step) {
    Variable w1(w1t, true), w2(w2t, true), b2(b2t, true);
    Variable y = nn::conv2d(Variable(x), w1, Variable(), 1, 1);
    y = nn::conv2d(relu(y), w2, b2, 1, 1);
    sum_all(mul(y, y)).backward();
    auto sgd = [](Tensor& wt, const Tensor& gt) {
      for (std::int64_t i = 0; i < wt.numel(); ++i) wt[i] -= 1e-4f * gt[i];
    };
    sgd(w1t, w1.grad());
    sgd(w2t, w2.grad());
    sgd(b2t, b2.grad());
    const Tensor* parts[] = {&w1.grad(), &w2.grad(), &b2.grad(), &w1t, &w2t, &b2t};
    for (const Tensor* t : parts) h = fnv_tensor(*t, h);
  }
  parallel::set_num_threads(1);
  nn::set_conv_pack_cache(true);
  return h;
}

TEST(ConvPackCache, OneIm2colSweepPerConvLayerPerStep) {
  Rng rng(55);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor w1t = Tensor::randn({4, 3, 3, 3}, rng);
  const Tensor w2t = Tensor::randn({5, 4, 3, 3}, rng);
  auto step = [&] {
    Variable w1(w1t, true), w2(w2t, true);
    Variable y = nn::conv2d(Variable(x), w1, Variable(), 1, 1);
    y = nn::conv2d(y, w2, Variable(), 1, 1);
    sum_all(mul(y, y)).backward();
    // backward()'s graph teardown destroyed the closures and with them the
    // cached slabs: nothing outlives the step.
    EXPECT_EQ(0, nn::conv_pack_cache_live_bytes());
  };
  nn::set_conv_pack_cache(true);
  std::int64_t before = nn::im2col_calls();
  step();
  EXPECT_EQ(2, nn::im2col_calls() - before) << "cached: one sweep per conv layer";

  nn::set_conv_pack_cache(false);
  before = nn::im2col_calls();
  step();
  EXPECT_EQ(4, nn::im2col_calls() - before) << "uncached: forward + dW re-pack per layer";

  // A cap too small for any slab degrades to the re-pack path, not an error.
  nn::set_conv_pack_cache(true, /*cap_bytes=*/16);
  before = nn::im2col_calls();
  step();
  EXPECT_EQ(4, nn::im2col_calls() - before) << "over-cap: behaves as uncached";

  nn::set_conv_pack_cache(true);
}

TEST(ConvPackCache, CachedAndUncachedTrainingBitwiseIdentical) {
  const std::uint64_t want = conv_train_fingerprint(/*cache_on=*/false, /*threads=*/1);
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(want, conv_train_fingerprint(false, threads)) << "uncached, t=" << threads;
    EXPECT_EQ(want, conv_train_fingerprint(true, threads)) << "cached, t=" << threads;
  }
}

// ---- NoGradGuard ---------------------------------------------------------------

TEST(NoGrad, OpsUnderGuardRecordNoTape) {
  Rng rng(91);
  Variable a(Tensor::randn({3, 4}, rng), true);
  Variable b(Tensor::randn({4}, rng), true);
  const Variable taped = relu(mul(add(a, b), a));
  ASSERT_TRUE(taped.requires_grad());
  ASSERT_FALSE(taped.node()->parents.empty());
  {
    NoGradGuard no_grad;
    EXPECT_FALSE(grad_enabled());
    const Variable y = relu(mul(add(a, b), a));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(y.node()->backward_fn));
    // Same kernels either way: the value is bitwise the taped one.
    EXPECT_EQ(0, std::memcmp(y.value().data(), taped.value().data(),
                             static_cast<std::size_t>(y.numel()) * sizeof(float)));
  }
  EXPECT_TRUE(grad_enabled());
  const Variable after = add(a, b);
  EXPECT_TRUE(after.requires_grad());
  EXPECT_EQ(2u, after.node()->parents.size());
}

TEST(NoGrad, GuardsNestAndRestore) {
  EXPECT_TRUE(grad_enabled());
  {
    NoGradGuard outer;
    EXPECT_FALSE(grad_enabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled()) << "inner guard must restore the outer's mode";
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(NoGrad, ModeIsPerThread) {
  NoGradGuard no_grad;
  bool other_enabled = false, other_taped = false;
  std::thread t([&] {
    other_enabled = grad_enabled();
    Variable a(Tensor({2}, 1.0f), true);
    other_taped = mul_scalar(a, 2.0f).requires_grad();
  });
  t.join();
  EXPECT_TRUE(other_enabled);
  EXPECT_TRUE(other_taped);
  EXPECT_FALSE(grad_enabled());
}

TEST(NoGrad, ConvForwardKeepsNoPackCache) {
  Rng rng(92);
  const Variable x(Tensor::randn({2, 3, 8, 8}, rng));
  const Variable w(Tensor::randn({4, 3, 3, 3}, rng), true);
  nn::set_conv_pack_cache(true);
  {
    const Variable taped = nn::conv2d(x, w, Variable(), 1, 1);
    EXPECT_GT(nn::conv_pack_cache_live_bytes(), 0) << "taped forward caches its slabs";
  }
  EXPECT_EQ(0, nn::conv_pack_cache_live_bytes());
  NoGradGuard no_grad;
  const Variable y = nn::conv2d(x, w, Variable(), 1, 1);
  EXPECT_EQ(0, nn::conv_pack_cache_live_bytes());
  EXPECT_FALSE(y.requires_grad());
}

}  // namespace
}  // namespace mlperf::autograd
