#include "autograd/variable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <thread>
#include <typeinfo>
#include <utility>

#include "checkpoint/state.h"
#include "nn/functional.h"
#include "parallel/parallel_for.h"
#include "tensor/pool.h"

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

TEST(AutogradCore, NoGradThroughNonRequiringLeaf) {
  Variable a(Tensor({2}, 1.0f), true);
  Variable b(Tensor({2}, 5.0f), false);
  Variable y = sum_all(mul(a, b));
  y.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 5.0f);
  EXPECT_FLOAT_EQ(b.grad().sum(), 0.0f);
}

// A gradient the caller hands over on first touch is adopted, not copied,
// but still gets the `0.0f + g` of the copying path: -0.0 lands as +0.0.
TEST(GradHandOff, FirstTouchRvalueNormalizesNegativeZero) {
  const Tensor plus_zero({4});
  Variable x(Tensor({4}, 1.0f), true);
  x.node()->accumulate_grad(Tensor({4}, -0.0f));
  EXPECT_EQ(0, std::memcmp(x.grad().data(), plus_zero.data(), 4 * sizeof(float)));
  // The same through an op: mul_scalar's backward builds g * -1 = -0.0.
  Variable y(Tensor({4}, 1.0f), true);
  mul_scalar(y, -1.0f).backward(Tensor({4}));
  EXPECT_EQ(0, std::memcmp(y.grad().data(), plus_zero.data(), 4 * sizeof(float)));
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

TEST(AutogradGradcheck, Mul) {
  Rng rng(3);
  Tensor b = Tensor::rand({2, 5}, rng, 0.5f, 2.0f);
  gradcheck([&](const Variable& x) { return mul(x, Variable(b)); }, Tensor::randn({2, 5}, rng));
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
  gradcheck([](const Variable& x) { return slice(x, 0, 1, 3); }, Tensor::randn({4, 2}, rng));
  gradcheck([](const Variable& x) { return cat({slice(x, 0, 2, 4), slice(x, 0, 0, 2)}, 0); },
            Tensor::randn({4, 2}, rng));
}

// Dims 0, 1 and last of a rank-3 input; the cat reuses x, so its gradient
// sums a pass-through part and two slices.
TEST(AutogradGradcheck, SliceAndCatAlongEachAxis) {
  Rng rng(19);
  for (std::int64_t dim : {0, 1, 2}) {
    gradcheck([dim](const Variable& x) { return slice(x, dim, 1, 3); },
              Tensor::randn({3, 4, 5}, rng));
    gradcheck(
        [dim](const Variable& x) {
          return cat({slice(x, dim, 2, 3), x, slice(x, dim, 0, 2)}, dim);
        },
        Tensor::randn({3, 4, 5}, rng));
  }
}

TEST(AutogradGradcheck, Reductions) {
  Rng rng(10);
  gradcheck([](const Variable& x) { return sum_all(x); }, Tensor::randn({3, 3}, rng));
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
  gradcheck([&](const Variable& t) { return gather_rows(t, idx); }, Tensor::randn({3, 4}, rng));
}

TEST(AutogradEmbedding, RepeatedIndicesAccumulate) {
  Variable table(Tensor({2, 2}, {1, 2, 3, 4}), true);
  Variable out = gather_rows(table, {1, 1, 1});
  sum_all(out).backward();
  EXPECT_FLOAT_EQ(table.grad().at({1, 0}), 3.0f);
  EXPECT_FLOAT_EQ(table.grad().at({0, 0}), 0.0f);
}

TEST(AutogradEmbedding, OutOfRangeThrows) {
  Variable table(Tensor({2, 2}), true);
  EXPECT_THROW(gather_rows(table, {2}), std::out_of_range);
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
        return sum_all(h2);
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

// The relu masks are selects, not arithmetic: x > 0 ? x : +0.0. Vectorized,
// they become a compare and an and-mask, which must keep exactly the scalar
// select's bits on the values where the two could part ways: NaN of either
// sign, signed zeros, infinities and denormals. Each row is an input pair a,
// b with the literal bits of relu(a) and of add_relu(a, b) = relu(a + b), and
// whether each backward passes the incoming gradient or writes +0.0.
struct SelectCase {
  std::uint32_t a, b, relu, add_relu;
  bool relu_passes, add_relu_passes;
};
constexpr SelectCase kSelectCases[] = {
    {0x7fc00000, 0x00000000, 0x00000000, 0x00000000, false, false},  // NaN + 0
    {0x80000000, 0x80000000, 0x00000000, 0x00000000, false, false},  // -0 + -0
    {0x00000000, 0x00000000, 0x00000000, 0x00000000, false, false},  // +0 + +0
    {0x7f800000, 0x3f800000, 0x7f800000, 0x7f800000, true, true},    // +inf + 1
    {0xff800000, 0x3f800000, 0x00000000, 0x00000000, false, false},  // -inf + 1
    {0x00000001, 0x00000000, 0x00000001, 0x00000001, true, true},    // denormal + 0
    {0x80000001, 0x00000000, 0x00000000, 0x00000000, false, false},  // -denormal + 0
    {0x3fc00000, 0x3e800000, 0x3fc00000, 0x3fe00000, true, true},    // 1.5 + 0.25
    {0xc0000000, 0x3f000000, 0x00000000, 0x00000000, false, false},  // -2 + 0.5
    {0x7f800000, 0xff800000, 0x7f800000, 0x00000000, true, false},   // +inf + -inf = NaN
    {0x40400000, 0xc0400000, 0x40400000, 0x00000000, true, false},   // 3 + -3 = +0
    {0xffc00000, 0x3f800000, 0x00000000, 0x00000000, false, false},  // -NaN + 1
};
constexpr std::int64_t kNumSelectCases = std::size(kSelectCases);

std::uint32_t bits_at(const Tensor& t, std::int64_t i) {
  std::uint32_t u;
  std::memcpy(&u, t.data() + i, sizeof(u));
  return u;
}

TEST(ReluSelect, SpecialValuesKeepScalarSelectBits) {
  // Lengths cover the vector body alone, the remainder loop alone, both, and
  // a pool split at kElemGrain that leaves a short tail on the last part.
  const std::int64_t lengths[] = {1, 3, 4, 5, 17, Tensor::kElemGrain + 3};
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (const std::int64_t n : lengths) {
      Tensor a({n}), b({n}), g({n});
      for (std::int64_t i = 0; i < n; ++i) {
        const SelectCase& c = kSelectCases[i % kNumSelectCases];
        a[i] = std::bit_cast<float>(c.a);
        b[i] = std::bit_cast<float>(c.b);
        g[i] = (i % 2 ? -0.5f : 0.5f) - static_cast<float>(i % 13);  // ordinary, nonzero
      }
      Variable x(a, true);
      Variable y = relu(x);
      y.backward(g);
      Variable xa(a, true), xb(b, true);
      Variable z = add_relu(xa, xb);
      z.backward(g);
      for (std::int64_t i = 0; i < n; ++i) {
        const SelectCase& c = kSelectCases[i % kNumSelectCases];
        const std::uint32_t gi = bits_at(g, i);
        SCOPED_TRACE(::testing::Message() << "threads " << threads << " n " << n << " i " << i);
        ASSERT_EQ(c.relu, bits_at(y.value(), i));
        ASSERT_EQ(c.relu_passes ? gi : 0u, bits_at(x.grad(), i));
        ASSERT_EQ(c.add_relu, bits_at(z.value(), i));
        ASSERT_EQ(c.add_relu_passes ? gi : 0u, bits_at(xa.grad(), i));
        ASSERT_EQ(c.add_relu_passes ? gi : 0u, bits_at(xb.grad(), i));
      }
    }
  }
  parallel::set_num_threads(1);
}


// ---- step-scoped im2col pack cache -----------------------------------------

std::uint64_t fnv_tensor(const Tensor& t, std::uint64_t h) {
  return checkpoint::fnv1a(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float), h);
}

// Three conv train steps with a manual SGD update; fingerprints every weight
// and gradient after each step so a single bit of divergence anywhere in the
// trajectory changes the hash.
std::uint64_t conv_train_fingerprint(int threads) {
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
  const std::int64_t before = nn::im2col_calls();
  step();
  EXPECT_EQ(2, nn::im2col_calls() - before) << "one sweep per conv layer";
}

TEST(ConvPackCache, TrainingTrajectoryBitwiseIdenticalAcrossThreadCounts) {
  const std::uint64_t want = conv_train_fingerprint(/*threads=*/1);
  for (int threads : {2, 4, 8}) EXPECT_EQ(want, conv_train_fingerprint(threads)) << "t=" << threads;
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
    const Node& yn = *y.node();
    EXPECT_EQ(typeid(Node), typeid(yn)) << "a plain leaf: no backward closure";
    // Same kernels either way: the value is bitwise the taped one.
    EXPECT_EQ(0, std::memcmp(y.value().data(), taped.value().data(),
                             static_cast<std::size_t>(y.numel()) * sizeof(float)));
  }
  EXPECT_TRUE(grad_enabled());
  const Variable after = add(a, b);
  EXPECT_TRUE(after.requires_grad());
  EXPECT_EQ(2u, after.node()->parents.size());
}

// Grad enabled, but no input requires grad: the op records no tape either.
TEST(NoGrad, OpsOnInputsNeedingNoGradRecordNoParents) {
  ASSERT_TRUE(grad_enabled());
  Rng rng(93);
  const Variable a(Tensor::randn({3, 4}, rng));
  const Variable b(Tensor::randn({4}, rng));
  for (const Variable& y : {add(a, b), relu(mul(a, a)), cat({a, a}, 0),
                            nn::fused_scaled_softmax(a, 0.5f, Tensor())}) {
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    const Node& yn = *y.node();
    EXPECT_EQ(typeid(Node), typeid(yn));
  }
}

// A taped op keeps one copy of its output: the node's value, which its
// backward reads. So the forward draws exactly one buffer from the pool.
TEST(Tape, OpsReadingTheirOutputDrawOneBuffer) {
  ASSERT_TRUE(grad_enabled());
  Rng rng(94);
  const Variable a(Tensor::randn({6, 5}, rng), true);
  const Variable b(Tensor::randn({5}, rng), true);
  const std::vector<std::pair<const char*, std::function<Variable()>>> ops = {
      {"tanh_op", [&] { return tanh_op(a); }},
      {"sigmoid", [&] { return sigmoid(a); }},
      {"softmax_last", [&] { return softmax_last(a); }},
      {"log_softmax_last", [&] { return log_softmax_last(a); }},
      {"add_relu", [&] { return add_relu(a, b); }},
      {"fused_scaled_softmax", [&] { return nn::fused_scaled_softmax(a, 0.5f, Tensor()); }},
  };
  auto draws = [] {
    const tensor::TensorPool::Stats s = tensor::TensorPool::instance().stats();
    return s.hits + s.misses;
  };
  for (const auto& [name, op] : ops) {
    const std::int64_t before = draws();
    const Variable y = op();
    EXPECT_EQ(1, draws() - before) << name;
    EXPECT_TRUE(y.requires_grad()) << name;
  }
}

// A forward cat reads its parts in place: the output is its one pool draw.
TEST(Tape, CatDrawsOneBuffer) {
  ASSERT_TRUE(grad_enabled());
  Rng rng(95);
  std::vector<Variable> parts;
  for (int i = 0; i < 8; ++i) parts.emplace_back(Tensor::randn({3, 2}, rng), true);
  const tensor::TensorPool::Stats before = tensor::TensorPool::instance().stats();
  const Variable y = cat(parts, 1);
  const tensor::TensorPool::Stats after = tensor::TensorPool::instance().stats();
  EXPECT_EQ(1, (after.hits + after.misses) - (before.hits + before.misses));
  EXPECT_EQ(y.shape(), (Shape{3, 16}));
}

TEST(DataMovement, CatAndSliceRejectMalformedInput) {
  const Tensor a({2, 3}), b({2, 4}), c({2, 3, 1});
  EXPECT_THROW(Tensor::cat({}, 0), std::invalid_argument);
  EXPECT_THROW(Tensor::cat({&a, &c}, 0), std::invalid_argument);  // rank
  EXPECT_THROW(Tensor::cat({&a, &b}, 0), std::invalid_argument);  // extent off the axis
  EXPECT_EQ(Tensor::cat({&a, &b}, 1).shape(), (Shape{2, 7}));
  EXPECT_THROW(Tensor::cat({&a, &a}, 2), std::invalid_argument);
  EXPECT_THROW(Tensor::cat({&a, &a}, -1), std::invalid_argument);
  EXPECT_THROW(a.slice(2, 0, 1), std::invalid_argument);
  EXPECT_THROW(a.slice(-1, 0, 1), std::invalid_argument);
  EXPECT_THROW(a.slice(1, 0, 4), std::invalid_argument);
  EXPECT_THROW(a.slice(1, 2, 1), std::invalid_argument);
  EXPECT_THROW(a.slice(0, -1, 1), std::invalid_argument);
  EXPECT_EQ(a.slice(1, 2, 2).shape(), (Shape{2, 0}));

  const Variable va(a, true), vb(b, true), vc(c, true);
  EXPECT_THROW(cat({}, 0), std::invalid_argument);
  EXPECT_THROW(cat({va, vc}, 0), std::invalid_argument);
  EXPECT_THROW(cat({va, vb}, 0), std::invalid_argument);
  EXPECT_THROW(cat({va, vb}, 2), std::invalid_argument);
  EXPECT_THROW(slice(va, 2, 0, 1), std::invalid_argument);
  EXPECT_THROW(slice(va, 1, 1, 4), std::invalid_argument);
}

// ---- DataMovementOracle ------------------------------------------------------
// The single cat / slice / gather_rows nodes against the chains they replaced
// in GNMT, SSD and Mask R-CNN, 0 ULP: forward output and every parent's
// gradient, at 1 and 4 threads, on values and seeds holding ±0.0, NaN and
// denormals. Most shapes exceed the elementwise grain (32768), so the 4-thread
// run splits the gradient accumulates across the pool.
namespace data_movement_oracle {

// The dim-0 nodes the axis-general ops replaced, as they were.
Variable slice0(const Variable& a, std::int64_t begin, std::int64_t end) {
  const Tensor& v = a.value();
  const std::int64_t row = v.numel() / std::max<std::int64_t>(v.shape()[0], 1);
  Shape shape = v.shape();
  shape[0] = end - begin;
  Tensor out = Tensor::uninitialized(shape);
  std::copy(v.data() + begin * row, v.data() + end * row, out.data());
  return Variable::from_op(std::move(out), {a}, [begin](const Node& n, const Tensor& g) {
    Tensor full(n.parents[0]->value.shape());
    const std::int64_t row = full.numel() / std::max<std::int64_t>(full.shape()[0], 1);
    std::copy(g.vec().begin(), g.vec().end(), full.vec().begin() + begin * row);
    n.parents[0]->accumulate_grad(std::move(full));
  });
}

Variable cat0(const std::vector<Variable>& parts) {
  std::vector<Tensor> vals;
  for (const auto& p : parts) vals.push_back(p.value());
  Shape shape = vals[0].shape();
  shape[0] = 0;
  for (const auto& v : vals) shape[0] += v.shape()[0];
  Tensor out = Tensor::uninitialized(shape);
  float* dst = out.data();
  for (const auto& v : vals) dst = std::copy(v.data(), v.data() + v.numel(), dst);
  return Variable::from_op(std::move(out), parts, [](const Node& n, const Tensor& g) {
    const float* src = g.data();
    for (const auto& p : n.parents) {
      Tensor part = Tensor::uninitialized(p->value.shape());
      std::copy(src, src + part.numel(), part.data());
      src += part.numel();
      if (p->requires_grad) p->accumulate_grad(std::move(part));
    }
  });
}

// GNMT's decoder-input concat of [B, E] and [B, H].
Variable concat_features(const Variable& a, const Variable& b) {
  const std::int64_t n = a.shape()[0], da = a.shape()[1], db = b.shape()[1];
  Tensor out({n, da + db});
  for (std::int64_t r = 0; r < n; ++r) {
    std::copy(a.value().data() + r * da, a.value().data() + (r + 1) * da,
              out.data() + r * (da + db));
    std::copy(b.value().data() + r * db, b.value().data() + (r + 1) * db,
              out.data() + r * (da + db) + da);
  }
  return Variable::from_op(std::move(out), {a, b}, [n, da, db](const Node& node, const Tensor& g) {
    Node &an = *node.parents[0], &bn = *node.parents[1];
    if (an.requires_grad) {
      Tensor ga({n, da});
      for (std::int64_t r = 0; r < n; ++r)
        std::copy(g.data() + r * (da + db), g.data() + r * (da + db) + da, ga.data() + r * da);
      an.accumulate_grad(std::move(ga));
    }
    if (bn.requires_grad) {
      Tensor gb({n, db});
      for (std::int64_t r = 0; r < n; ++r)
        std::copy(g.data() + r * (da + db) + da, g.data() + (r + 1) * (da + db),
                  gb.data() + r * db);
      bn.accumulate_grad(std::move(gb));
    }
  });
}

/// Random values with ±0.0, NaN and denormals planted at the front.
Tensor special(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  const float planted[] = {0.0f, -0.0f, std::nanf(""), 1e-40f, -3e-39f,
                           std::numeric_limits<float>::denorm_min()};
  for (std::int64_t i = 0; i < std::min<std::int64_t>(t.numel(), std::size(planted)); ++i)
    t[i] = planted[i];
  return t;
}

using Chain = std::function<Variable(const std::vector<Variable>&)>;

struct Result {
  Tensor out;
  std::vector<Tensor> grads;
};

/// Fresh leaves over `inputs`, the chain's forward, and backward of `seed`.
Result run(const Chain& chain, const std::vector<Tensor>& inputs, const Tensor& seed) {
  std::vector<Variable> leaves;
  for (const Tensor& x : inputs) leaves.emplace_back(x, true);
  const Variable y = chain(leaves);
  Result r{y.value(), {}};
  y.backward(seed);
  for (const Variable& leaf : leaves) r.grads.push_back(leaf.grad());
  return r;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void expect_same(const Chain& single, const Chain& old, const std::vector<Shape>& shapes,
                 std::uint64_t seed) {
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    Rng rng(seed);
    std::vector<Tensor> inputs;
    for (const Shape& s : shapes) inputs.push_back(special(s, rng));
    const Shape out_shape = single(std::vector<Variable>(inputs.begin(), inputs.end())).shape();
    const Tensor g = special(out_shape, rng);
    const Result a = run(single, inputs, g), b = run(old, inputs, g);
    EXPECT_TRUE(same_bits(a.out, b.out)) << "forward, t=" << threads;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      EXPECT_TRUE(same_bits(a.grads[i], b.grads[i])) << "gradient " << i << ", t=" << threads;
  }
  parallel::set_num_threads(1);
}

}  // namespace data_movement_oracle

TEST(DataMovementOracle, GnmtDecoderInputConcat) {
  data_movement_oracle::expect_same(
      [](const std::vector<Variable>& x) { return cat({x[0], x[1]}, 1); },
      [](const std::vector<Variable>& x) {
        return data_movement_oracle::concat_features(x[0], x[1]);
      },
      {{64, 600}, {64, 400}}, 101);
}

// Scores arrive as T [B, 1] columns; attend softmaxes them over t and weighs
// each encoder state [B, H] by its alpha column.
TEST(DataMovementOracle, GnmtAttentionSplit) {
  using data_movement_oracle::cat0;
  using data_movement_oracle::slice0;
  const std::int64_t b = 3, t_len = 4, h = 5;
  auto context = [t_len](const std::vector<Variable>& x, auto alpha_of) {
    Variable ctx;
    for (std::int64_t t = 0; t < t_len; ++t) {
      Variable term = mul(alpha_of(t), x[static_cast<std::size_t>(t_len + t)]);
      ctx = t == 0 ? term : add(ctx, term);
    }
    return ctx;
  };
  std::vector<Shape> shapes(static_cast<std::size_t>(t_len), Shape{b, 1});
  shapes.insert(shapes.end(), static_cast<std::size_t>(t_len), Shape{b, h});
  data_movement_oracle::expect_same(
      [&](const std::vector<Variable>& x) {
        const Variable alphas =
            softmax_last(cat(std::vector<Variable>(x.begin(), x.begin() + t_len), 1));
        return context(x, [&](std::int64_t t) { return slice(alphas, 1, t, t + 1); });
      },
      [&](const std::vector<Variable>& x) {
        std::vector<Variable> rows;
        for (std::int64_t t = 0; t < t_len; ++t)
          rows.push_back(reshape(x[static_cast<std::size_t>(t)], {1, b}));
        const Variable alphas = softmax_last(permute(cat0(rows), {1, 0}));
        const Variable alphas_tb = permute(alphas, {1, 0});
        return context(x, [&](std::int64_t t) {
          return reshape(slice0(alphas_tb, t, t + 1), {b, 1});
        });
      },
      shapes, 102);
}

TEST(DataMovementOracle, GnmtLogitsAssembly) {
  const std::int64_t b = 4, t_len = 5, v = 2000;
  data_movement_oracle::expect_same(
      [&](const std::vector<Variable>& x) { return reshape(cat(x, 1), {b * t_len, v}); },
      [&](const std::vector<Variable>& x) {
        std::vector<Variable> rows;
        for (const Variable& l : x) rows.push_back(reshape(l, {1, b, v}));
        return reshape(permute(data_movement_oracle::cat0(rows), {1, 0, 2}), {b * t_len, v});
      },
      std::vector<Shape>(static_cast<std::size_t>(t_len), Shape{b, v}), 103);
}

TEST(DataMovementOracle, SsdAnchorConcat) {
  data_movement_oracle::expect_same(
      [](const std::vector<Variable>& x) { return cat({x[0], x[1]}, 1); },
      [](const std::vector<Variable>& x) {
        return permute(data_movement_oracle::cat0({permute(x[0], {1, 0, 2}),
                                                   permute(x[1], {1, 0, 2})}),
                       {1, 0, 2});
      },
      {{4, 3000, 3}, {4, 2000, 3}}, 104);
}

// Objectness/RPN-delta rows by anchor, then one class's mask row per ROI.
TEST(DataMovementOracle, MaskRcnnRowGather) {
  using data_movement_oracle::cat0;
  using data_movement_oracle::slice0;
  const std::vector<std::int64_t> anchors = {5, 0, 7, 2, 11999, 6000};
  data_movement_oracle::expect_same(
      [&](const std::vector<Variable>& x) { return gather_rows(x[0], anchors); },
      [&](const std::vector<Variable>& x) {
        std::vector<Variable> rows;
        for (std::int64_t a : anchors) rows.push_back(slice0(x[0], a, a + 1));
        return cat0(rows);
      },
      {{12000, 4}}, 105);
  const std::int64_t c = 3, m = 2;
  const std::vector<std::pair<std::int64_t, std::int64_t>> roi_cls = {{3, 1}, {0, 2}, {1, 1}};
  data_movement_oracle::expect_same(
      [&](const std::vector<Variable>& x) {
        std::vector<std::int64_t> rows;
        for (const auto& [r, cls] : roi_cls) rows.push_back(r * c + cls);
        return gather_rows(reshape(x[0], {x[0].shape()[0] * c, m * m}), rows);
      },
      [&](const std::vector<Variable>& x) {
        std::vector<Variable> rows;
        for (const auto& [r, cls] : roi_cls)
          rows.push_back(slice0(reshape(slice0(x[0], r, r + 1), {c, m * m}), cls, cls + 1));
        return cat0(rows);
      },
      {{4, c, m, m}}, 106);
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
