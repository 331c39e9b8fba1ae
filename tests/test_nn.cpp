#include "nn/layers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/functional.h"
#include "nn/serialize.h"
#include "parallel/parallel_for.h"

namespace mlperf::nn {
namespace {

using autograd::Variable;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Naive direct convolution for cross-checking the im2col path.
Tensor conv2d_naive(const Tensor& x, const Tensor& w, std::int64_t stride, std::int64_t pad) {
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], ww = x.shape()[3];
  const std::int64_t o = w.shape()[0], kh = w.shape()[2], kw = w.shape()[3];
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (ww + 2 * pad - kw) / stride + 1;
  Tensor out({n, o, oh, ow});
  for (std::int64_t s = 0; s < n; ++s)
    for (std::int64_t oc = 0; oc < o; ++oc)
      for (std::int64_t i = 0; i < oh; ++i)
        for (std::int64_t j = 0; j < ow; ++j) {
          double acc = 0.0;
          for (std::int64_t ic = 0; ic < c; ++ic)
            for (std::int64_t ki = 0; ki < kh; ++ki)
              for (std::int64_t kj = 0; kj < kw; ++kj) {
                const std::int64_t ii = i * stride - pad + ki;
                const std::int64_t jj = j * stride - pad + kj;
                if (ii < 0 || ii >= h || jj < 0 || jj >= ww) continue;
                acc += x.at({s, ic, ii, jj}) * w.at({oc, ic, ki, kj});
              }
          out.at({s, oc, i, j}) = static_cast<float>(acc);
        }
  return out;
}

TEST(Conv2d, MatchesNaiveReference) {
  Rng rng(1);
  Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  Tensor w = Tensor::randn({4, 3, 3, 3}, rng);
  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t pad : {0, 1}) {
      Variable out = conv2d(Variable(x), Variable(w), Variable(), stride, pad);
      Tensor ref = conv2d_naive(x, w, stride, pad);
      ASSERT_EQ(out.value().shape(), ref.shape()) << stride << " " << pad;
      for (std::int64_t i = 0; i < ref.numel(); ++i)
        EXPECT_NEAR(out.value()[i], ref[i], 1e-4);
    }
  }
}

TEST(Conv2d, BiasIsAddedPerChannel) {
  Tensor x({1, 1, 2, 2}, 0.0f);
  Tensor w({2, 1, 1, 1}, 0.0f);
  Tensor b({2}, {1.5f, -2.0f});
  Variable out = conv2d(Variable(x), Variable(w), Variable(b), 1, 0);
  EXPECT_FLOAT_EQ(out.value().at({0, 0, 1, 1}), 1.5f);
  EXPECT_FLOAT_EQ(out.value().at({0, 1, 0, 0}), -2.0f);
}

TEST(Conv2d, GradcheckInputWeightBias) {
  Rng rng(2);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::randn({2}, rng);
  const float eps = 1e-2f;

  Variable vx(x, true), vw(w, true), vb(b, true);
  Variable loss = autograd::sum_all(conv2d(vx, vw, vb, 1, 1));
  loss.backward();

  auto numeric = [&](Tensor& target, std::int64_t i) {
    target[i] += eps;
    const float lp = conv2d(Variable(x), Variable(w), Variable(b), 1, 1).value().sum();
    target[i] -= 2 * eps;
    const float lm = conv2d(Variable(x), Variable(w), Variable(b), 1, 1).value().sum();
    target[i] += eps;
    return (static_cast<double>(lp) - lm) / (2.0 * eps);
  };
  for (std::int64_t i = 0; i < x.numel(); i += 7)
    EXPECT_NEAR(vx.grad()[i], numeric(x, i), 5e-2) << "x" << i;
  for (std::int64_t i = 0; i < w.numel(); i += 5)
    EXPECT_NEAR(vw.grad()[i], numeric(w, i), 5e-2) << "w" << i;
  for (std::int64_t i = 0; i < b.numel(); ++i)
    EXPECT_NEAR(vb.grad()[i], numeric(b, i), 5e-2) << "b" << i;
}

// Property sweep: im2col conv matches the naive direct convolution across a
// grid of kernel/stride/padding/channel configurations.
struct ConvCase {
  std::int64_t in_ch, out_ch, kernel, stride, pad, hw;
};

class ConvParamSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamSweep, MatchesNaive) {
  const ConvCase& cc = GetParam();
  Rng rng(100);
  Tensor x = Tensor::randn({2, cc.in_ch, cc.hw, cc.hw}, rng);
  Tensor w = Tensor::randn({cc.out_ch, cc.in_ch, cc.kernel, cc.kernel}, rng);
  Variable out = conv2d(Variable(x), Variable(w), Variable(), cc.stride, cc.pad);
  Tensor ref = conv2d_naive(x, w, cc.stride, cc.pad);
  ASSERT_EQ(out.value().shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(out.value()[i], ref[i], 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Configs, ConvParamSweep,
                         ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5},   // pointwise
                                           ConvCase{2, 4, 3, 1, 1, 6},   // same-pad 3x3
                                           ConvCase{3, 2, 3, 2, 1, 8},   // strided
                                           ConvCase{2, 2, 5, 1, 2, 9},   // 5x5
                                           ConvCase{4, 1, 3, 3, 0, 9},   // stride 3
                                           ConvCase{1, 3, 2, 2, 0, 8})); // even kernel

TEST(Conv2d, ShapeErrorsThrow) {
  Rng rng(101);
  Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  Tensor w_badch = Tensor::randn({2, 4, 3, 3}, rng);
  EXPECT_THROW(conv2d(Variable(x), Variable(w_badch), Variable(), 1, 1),
               std::invalid_argument);
  Tensor w_toolarge = Tensor::randn({2, 3, 7, 7}, rng);
  EXPECT_THROW(conv2d(Variable(x), Variable(w_toolarge), Variable(), 1, 0),
               std::invalid_argument);
}

TEST(Pooling, MaxPoolForward) {
  Tensor x({1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Variable out = max_pool2d(Variable(x), 2, 2);
  ASSERT_EQ(out.value().shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.value()[0], 5.0f);
  EXPECT_FLOAT_EQ(out.value()[3], 15.0f);
}

TEST(Pooling, MaxPoolGradientGoesToArgmax) {
  Tensor x({1, 1, 2, 2}, {1.0f, 9.0f, 3.0f, 4.0f});
  Variable vx(x, true);
  autograd::sum_all(max_pool2d(vx, 2, 2)).backward();
  EXPECT_FLOAT_EQ(vx.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(vx.grad()[1], 1.0f);
}

TEST(Pooling, AvgPoolForwardAndBackward) {
  Tensor x({1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
  Variable vx(x, true);
  Variable out = avg_pool2d(vx, 2, 2);
  EXPECT_FLOAT_EQ(out.value()[0], 3.0f);
  autograd::sum_all(out).backward();
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(vx.grad()[i], 0.25f);
}

TEST(Pooling, GlobalAvgPool) {
  Tensor x({2, 3, 2, 2}, 2.0f);
  Variable out = global_avg_pool(Variable(x));
  ASSERT_EQ(out.value().shape(), (Shape{2, 3}));
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(out.value()[i], 2.0f);
}

TEST(Upsample, NearestDoubles) {
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Variable out = upsample2x(Variable(x));
  ASSERT_EQ(out.value().shape(), (Shape{1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(out.value().at({0, 0, 0, 1}), 1.0f);
  EXPECT_FLOAT_EQ(out.value().at({0, 0, 3, 3}), 4.0f);
}

TEST(Upsample, BackwardSumsQuads) {
  Tensor x({1, 1, 1, 1}, 5.0f);
  Variable vx(x, true);
  autograd::sum_all(upsample2x(vx)).backward();
  EXPECT_FLOAT_EQ(vx.grad()[0], 4.0f);
}

TEST(Dropout, EvalModeIsIdentity) {
  Rng rng(3);
  Tensor x = Tensor::randn({10}, rng);
  Variable out = dropout(Variable(x), 0.5f, /*training=*/false, rng);
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_EQ(out.value()[i], x[i]);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  Rng rng(4);
  Tensor x({1000}, 1.0f);
  Variable out = dropout(Variable(x), 0.25f, true, rng);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    if (out.value()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(out.value()[i], 1.0f / 0.75f, 1e-5);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.25, 0.06);
}

TEST(Linear, ShapesAndBias) {
  Rng rng(5);
  Linear layer(4, 3, rng);
  Variable out = layer.forward(Variable(Tensor({2, 4}, 1.0f)));
  EXPECT_EQ(out.value().shape(), (Shape{2, 3}));
  EXPECT_EQ(layer.parameters().size(), 2u);
  Linear no_bias(4, 3, rng, false);
  EXPECT_EQ(no_bias.parameters().size(), 1u);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  Rng rng(6);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({4, 3, 5, 5}, rng, 2.0f, 3.0f);
  Variable out = bn.forward(Variable(x, true));
  // Per channel: mean ~0, var ~1.
  const std::int64_t hw = 25;
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sumsq = 0.0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t i = 0; i < hw; ++i) {
        const float v = out.value()[(n * 3 + c) * hw + i];
        sum += v;
        sumsq += static_cast<double>(v) * v;
      }
    const double mean = sum / (4 * hw);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sumsq / (4 * hw) - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeAndDriveEval) {
  Rng rng(7);
  BatchNorm2d bn(1, 1e-5f, 0.5f);
  for (int it = 0; it < 30; ++it) {
    Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 10.0f, 2.0f);
    bn.forward(Variable(x));
  }
  EXPECT_NEAR(bn.running_mean[0], 10.0f, 0.5f);
  EXPECT_NEAR(bn.running_var[0], 4.0f, 1.0f);
  bn.set_training(false);
  Tensor probe({1, 1, 1, 1}, 10.0f);
  Variable out = bn.forward(Variable(probe));
  EXPECT_NEAR(out.value()[0], 0.0f, 0.3f);
}

TEST(BatchNorm, GradcheckAllInputs) {
  Rng rng(8);
  Tensor x = Tensor::randn({3, 2, 2, 2}, rng);
  const float eps = 1e-2f;
  BatchNorm2d bn(2);
  // Make gamma/beta non-trivial.
  bn.gamma.mutable_value() = Tensor({2}, {1.3f, 0.7f});
  bn.beta.mutable_value() = Tensor({2}, {0.2f, -0.1f});
  Variable vx(x, true);
  autograd::sum_all(autograd::mul(bn.forward(vx), bn.forward(vx))).backward();
  // Numeric check on a few input components (loss = sum(bn(x)^2)).
  auto loss_at = [&](const Tensor& xt) {
    BatchNorm2d bn2(2);
    bn2.gamma.mutable_value() = Tensor({2}, {1.3f, 0.7f});
    bn2.beta.mutable_value() = Tensor({2}, {0.2f, -0.1f});
    Variable o = bn2.forward(Variable(xt));
    return o.value().mul(o.value()).sum();
  };
  for (std::int64_t i = 0; i < x.numel(); i += 5) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (static_cast<double>(loss_at(xp)) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(vx.grad()[i], numeric, 5e-2) << i;
  }
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(9);
  LayerNorm ln(6);
  Tensor x = Tensor::randn({4, 6}, rng, 3.0f, 2.0f);
  Variable out = ln.forward(Variable(x));
  for (std::int64_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 6; ++j) sum += out.value()[r * 6 + j];
    EXPECT_NEAR(sum / 6.0, 0.0, 1e-4);
  }
}

TEST(LayerNorm, GradcheckInput) {
  Rng rng(10);
  Tensor x = Tensor::randn({2, 4}, rng);
  const float eps = 1e-2f;
  LayerNorm ln(4);
  Variable vx(x, true);
  Variable out = ln.forward(vx);
  autograd::sum_all(autograd::mul(out, out)).backward();
  auto loss_at = [&](const Tensor& xt) {
    LayerNorm ln2(4);
    Variable o = ln2.forward(Variable(xt));
    return o.value().mul(o.value()).sum();
  };
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (static_cast<double>(loss_at(xp)) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(vx.grad()[i], numeric, 5e-2) << i;
  }
}

TEST(Losses, CrossEntropyMatchesManual) {
  Tensor logits({2, 3}, {1.0f, 2.0f, 0.5f, 0.0f, 0.0f, 0.0f});
  Variable v(logits, true);
  Variable loss = cross_entropy(v, {1, 2});
  // Manual: -log softmax values.
  const Tensor logp = logits.log_softmax_last();
  const float expected = -(logp[1] + logp[5]) / 2.0f;
  EXPECT_NEAR(loss.value()[0], expected, 1e-5);
  loss.backward();
  // Gradient rows sum to zero (softmax - onehot scaled).
  EXPECT_NEAR(v.grad()[0] + v.grad()[1] + v.grad()[2], 0.0f, 1e-5);
}

TEST(Losses, WeightedCrossEntropyIgnoresZeroWeight) {
  Tensor logits({2, 2}, {5.0f, 0.0f, 0.0f, 5.0f});
  Variable v(logits, true);
  Variable loss = weighted_cross_entropy(v, {1, 0}, {1.0f, 0.0f});
  loss.backward();
  EXPECT_EQ(v.grad()[2], 0.0f);
  EXPECT_EQ(v.grad()[3], 0.0f);
  EXPECT_NE(v.grad()[0], 0.0f);
}

TEST(Losses, CrossEntropyTargetOutOfRangeThrows) {
  Variable v(Tensor({1, 2}), true);
  EXPECT_THROW(cross_entropy(v, {2}), std::out_of_range);
}

TEST(Losses, SmoothedCrossEntropyReducesToPlainAtZero) {
  Rng rng(20);
  Tensor logits = Tensor::randn({3, 4}, rng);
  Variable a(logits, true), b(logits, true);
  Variable plain = cross_entropy(a, {1, 0, 3});
  Variable smoothed = smoothed_cross_entropy(b, {1, 0, 3}, 0.0f);
  EXPECT_NEAR(plain.value()[0], smoothed.value()[0], 1e-6);
  plain.backward();
  smoothed.backward();
  for (std::int64_t i = 0; i < logits.numel(); ++i)
    EXPECT_NEAR(a.grad()[i], b.grad()[i], 1e-6) << i;
}

TEST(Losses, SmoothedCrossEntropyPenalizesOverconfidence) {
  // With smoothing, an extremely confident correct prediction still has loss
  // above the entropy floor, and its gradient pushes mass to other classes.
  Tensor confident({1, 3}, {50.0f, 0.0f, 0.0f});
  Variable v(confident, true);
  Variable loss = smoothed_cross_entropy(v, {0}, 0.2f);
  EXPECT_GT(loss.value()[0], 1.0f);  // ~ eps * 50-ish logit gap
  loss.backward();
  EXPECT_GT(v.grad()[0], 0.0f);   // pull the winning logit DOWN
  EXPECT_LT(v.grad()[1], 0.0f);   // push others up
}

TEST(Losses, SmoothedCrossEntropyGradcheck) {
  Rng rng(21);
  Tensor logits = Tensor::randn({2, 3}, rng);
  const float eps = 1e-2f;
  Variable v(logits, true);
  smoothed_cross_entropy(v, {2, 1}, 0.1f).backward();
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float up = smoothed_cross_entropy(Variable(lp), {2, 1}, 0.1f).value()[0];
    const float dn = smoothed_cross_entropy(Variable(lm), {2, 1}, 0.1f).value()[0];
    EXPECT_NEAR(v.grad()[i], (up - dn) / (2 * eps), 2e-3) << i;
  }
}

TEST(Losses, SmoothedCrossEntropyBadArgsThrow) {
  Variable v(Tensor({1, 2}), true);
  EXPECT_THROW(smoothed_cross_entropy(v, {0}, 1.0f), std::invalid_argument);
  EXPECT_THROW(smoothed_cross_entropy(v, {0}, -0.1f), std::invalid_argument);
  EXPECT_THROW(smoothed_cross_entropy(v, {5}, 0.1f), std::out_of_range);
}

TEST(Losses, BceWithLogitsMatchesManualAndIsStable) {
  Tensor logits({3}, {0.0f, 100.0f, -100.0f});
  Variable v(logits, true);
  Variable loss = bce_with_logits(v, {1.0f, 1.0f, 0.0f});
  // -log(0.5)/3 + ~0 + ~0
  EXPECT_NEAR(loss.value()[0], std::log(2.0f) / 3.0f, 1e-4);
  EXPECT_TRUE(loss.value().all_finite());
  loss.backward();
  EXPECT_TRUE(v.grad().all_finite());
  EXPECT_LT(v.grad()[0], 0.0f);  // push logit up toward target 1
}

TEST(Losses, SmoothL1QuadraticAndLinearRegimes) {
  Tensor pred({2, 1}, {0.5f, 3.0f});
  Tensor target({2, 1}, {0.0f, 0.0f});
  Variable v(pred, true);
  Variable loss = smooth_l1(v, target, {1.0f, 1.0f});
  // (0.5*0.25 + (3 - 0.5)) / 2
  EXPECT_NEAR(loss.value()[0], (0.125f + 2.5f) / 2.0f, 1e-5);
  loss.backward();
  EXPECT_NEAR(v.grad()[0], 0.5f / 2.0f, 1e-5);  // quadratic: d = 0.5
  EXPECT_NEAR(v.grad()[1], 1.0f / 2.0f, 1e-5);  // linear: sign = +1
}

TEST(Losses, MseValueAndGrad) {
  Tensor pred({2}, {1.0f, 3.0f});
  Tensor target({2}, {0.0f, 0.0f});
  Variable v(pred, true);
  Variable loss = mse(v, target);
  EXPECT_NEAR(loss.value()[0], (1.0f + 9.0f) / 2.0f, 1e-5);
  loss.backward();
  EXPECT_NEAR(v.grad()[0], 1.0f, 1e-5);
  EXPECT_NEAR(v.grad()[1], 3.0f, 1e-5);
}

TEST(Attention, OutputShapeAndGradFlow) {
  Rng rng(11);
  MultiHeadAttention mha(8, 2, rng);
  Variable x(Tensor::randn({2, 3, 8}, rng), true);
  Variable out = mha.forward(x, x, x);
  EXPECT_EQ(out.value().shape(), (Shape{2, 3, 8}));
  autograd::sum_all(out).backward();
  EXPECT_GT(x.grad().l2_norm_sq(), 0.0f);
  for (const auto& p : mha.parameters()) EXPECT_GT(p.grad().l2_norm_sq(), 0.0f);
}

TEST(Attention, CausalMaskBlocksFuture) {
  Rng rng(12);
  MultiHeadAttention mha(4, 1, rng);
  // Two inputs identical in the first position, different later: causal
  // attention output at position 0 must be identical.
  Tensor a = Tensor::randn({1, 3, 4}, rng);
  Tensor b = a;
  for (std::int64_t i = 4; i < 12; ++i) b[i] += 1.0f;  // change positions 1..2
  Variable oa = mha.forward(Variable(a), Variable(a), Variable(a), /*causal=*/true);
  Variable ob = mha.forward(Variable(b), Variable(b), Variable(b), /*causal=*/true);
  for (std::int64_t j = 0; j < 4; ++j)
    EXPECT_NEAR(oa.value()[j], ob.value()[j], 1e-5) << j;
}

TEST(Attention, NonCausalSeesEverything) {
  Rng rng(13);
  MultiHeadAttention mha(4, 1, rng);
  Tensor a = Tensor::randn({1, 3, 4}, rng);
  Tensor b = a;
  for (std::int64_t i = 4; i < 12; ++i) b[i] += 1.0f;
  Variable oa = mha.forward(Variable(a), Variable(a), Variable(a), false);
  Variable ob = mha.forward(Variable(b), Variable(b), Variable(b), false);
  float diff = 0.0f;
  for (std::int64_t j = 0; j < 4; ++j) diff += std::fabs(oa.value()[j] - ob.value()[j]);
  EXPECT_GT(diff, 1e-4f);
}

namespace attention_step_detail {

// Positions [begin, end) of x [B, T, D] as a [B, end - begin, D] tensor.
Tensor positions(const Tensor& x, std::int64_t begin, std::int64_t end) {
  const std::int64_t b = x.shape()[0], t = x.shape()[1], d = x.shape()[2];
  Tensor out({b, end - begin, d});
  for (std::int64_t i = 0; i < b; ++i)
    std::copy(x.data() + (i * t + begin) * d, x.data() + (i * t + end) * d,
              out.data() + i * (end - begin) * d);
  return out;
}

// Row `row` of every sequence in a [B, T, D] result equals `step` [B, 1, D].
void expect_rows_same_bits(const Tensor& step, const Tensor& full, std::int64_t row) {
  const std::int64_t b = full.shape()[0], t = full.shape()[1], d = full.shape()[2];
  ASSERT_EQ(step.shape(), (Shape{b, 1, d}));
  for (std::int64_t i = 0; i < b; ++i)
    EXPECT_EQ(0, std::memcmp(step.data() + i * d, full.data() + (i * t + row) * d,
                             static_cast<std::size_t>(d) * sizeof(float)))
        << "sequence " << i << " row " << row;
}

}  // namespace attention_step_detail

// The KV-cached step is the incremental-decode primitive: appending position
// p and attending over the cache must reproduce, bit for bit, the last row
// of a causal forward over the prefix [0, p].
TEST(Attention, CachedStepMatchesLastRowOfCausalForwardBitwise) {
  using namespace attention_step_detail;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    Rng rng(21);
    const std::int64_t b = 3, t = 9, d = 16;
    MultiHeadAttention mha(d, 4, rng);
    const Tensor x = Tensor::randn({b, t, d}, rng, 0.0f, 2.0f);
    MultiHeadAttention::KvCache cache = mha.empty_cache(b, t);
    for (std::int64_t p = 0; p < t; ++p) {
      const Variable prefix(positions(x, 0, p + 1));
      const Tensor full = mha.forward(prefix, prefix, prefix, /*causal=*/true).value();
      const Tensor step =
          mha.forward_step(Variable(positions(x, p, p + 1)), cache, /*append=*/true).value();
      EXPECT_EQ(cache.length, p + 1);
      expect_rows_same_bits(step, full, p);
    }
    EXPECT_THROW(mha.forward_step(Variable(positions(x, 0, 1)), cache, true),
                 std::invalid_argument);  // cache full
  }
  parallel::set_num_threads(1);
}

TEST(Attention, CachedCrossStepMatchesForwardBitwise) {
  using namespace attention_step_detail;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    Rng rng(22);
    const std::int64_t b = 2, t = 5, s = 6, d = 8;
    MultiHeadAttention mha(d, 2, rng);
    const Tensor x = Tensor::randn({b, t, d}, rng);
    const Variable memory(Tensor::randn({b, s, d}, rng));
    const Tensor full = mha.forward(Variable(x), memory, memory, false).value();
    MultiHeadAttention::KvCache cache = mha.project_memory(memory);
    EXPECT_EQ(cache.length, s);
    for (std::int64_t p = 0; p < t; ++p) {
      const Tensor step =
          mha.forward_step(Variable(positions(x, p, p + 1)), cache, /*append=*/false).value();
      EXPECT_EQ(cache.length, s);
      expect_rows_same_bits(step, full, p);
    }
  }
  parallel::set_num_threads(1);
}

TEST(Lstm, CellShapesAndStateEvolution) {
  Rng rng(14);
  LSTMCell cell(3, 5, rng);
  auto state = cell.zero_state(2);
  Variable x(Tensor::randn({2, 3}, rng));
  auto next = cell.forward(x, state);
  EXPECT_EQ(next.h.value().shape(), (Shape{2, 5}));
  EXPECT_EQ(next.c.value().shape(), (Shape{2, 5}));
  EXPECT_GT(next.h.value().l2_norm_sq(), 0.0f);
}

TEST(Lstm, MultiLayerSequenceAndGradFlow) {
  Rng rng(15);
  LSTM lstm(3, 4, 2, rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 4; ++t) xs.emplace_back(Tensor::randn({2, 3}, rng), true);
  auto out = lstm.forward(xs);
  EXPECT_EQ(out.hiddens.size(), 4u);
  EXPECT_EQ(out.final_states.size(), 2u);
  autograd::sum_all(out.hiddens.back()).backward();
  EXPECT_GT(xs[0].grad().l2_norm_sq(), 0.0f);  // BPTT reaches the first step
}

TEST(Serialize, SaveLoadRoundTripsWeights) {
  Rng rng(30);
  MultiHeadAttention a(8, 2, rng);
  MultiHeadAttention b(8, 2, rng);  // different init
  const std::string path = ::testing::TempDir() + "weights_roundtrip.bin";
  save_weights(a, path);
  load_weights(b, path);
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i].second.numel(); ++j)
      EXPECT_EQ(pa[i].second.value()[j], pb[i].second.value()[j]) << pa[i].first;
}

TEST(Serialize, LoadedModelProducesIdenticalOutputs) {
  Rng rng(31);
  Linear a(5, 3, rng);
  Linear b(5, 3, rng);
  const std::string path = ::testing::TempDir() + "weights_linear.bin";
  save_weights(a, path);
  load_weights(b, path);
  Tensor x = Tensor::randn({2, 5}, rng);
  Variable ya = a.forward(Variable(x));
  Variable yb = b.forward(Variable(x));
  for (std::int64_t i = 0; i < ya.value().numel(); ++i)
    EXPECT_EQ(ya.value()[i], yb.value()[i]);
}

TEST(Serialize, ArchitectureMismatchThrows) {
  Rng rng(32);
  Linear a(5, 3, rng);
  const std::string path = ::testing::TempDir() + "weights_mismatch.bin";
  save_weights(a, path);
  Linear wrong_shape(5, 4, rng);
  EXPECT_THROW(load_weights(wrong_shape, path), std::runtime_error);
  MultiHeadAttention wrong_arch(8, 2, rng);
  EXPECT_THROW(load_weights(wrong_arch, path), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  Rng rng(33);
  Linear a(2, 2, rng);
  EXPECT_THROW(load_weights(a, "/nonexistent/weights.bin"), std::runtime_error);
}

TEST(Module, ParameterRegistryAndNames) {
  Rng rng(16);
  MultiHeadAttention mha(8, 2, rng);
  const auto named = mha.named_parameters();
  EXPECT_EQ(named.size(), 8u);  // 4 linears x (weight, bias)
  bool found = false;
  for (const auto& [name, v] : named)
    if (name == "wq.weight") found = true;
  EXPECT_TRUE(found);
  EXPECT_GT(mha.num_parameters(), 0);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(17);
  Linear l(3, 3, rng);
  Variable out = autograd::sum_all(l.forward(Variable(Tensor({1, 3}, 1.0f))));
  out.backward();
  EXPECT_GT(l.weight.grad().l2_norm_sq(), 0.0f);
  l.zero_grad();
  EXPECT_EQ(l.weight.grad().l2_norm_sq(), 0.0f);
}


// ---- fused_scaled_softmax ---------------------------------------------------

namespace fused_softmax_detail {

void expect_same_bits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what;
}

}  // namespace fused_softmax_detail

// The fused op's contract is 0 ULP against the chain it replaced in
// attention: mul_scalar -> add(mask) -> softmax_last, forward AND backward,
// at any thread count.
TEST(FusedScaledSoftmax, BitwiseIdenticalToUnfusedChain) {
  using fused_softmax_detail::expect_same_bits;
  Rng rng(61);
  const std::int64_t b = 3, t = 7;
  const Tensor scores = Tensor::randn({b, t, t}, rng);
  const float scale = 1.0f / std::sqrt(5.0f);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  const Tensor seed = Tensor::randn({b, t, t}, rng);

  for (int threads : {1, 2, 4, 8}) {
    parallel::set_num_threads(threads);
    for (bool masked : {false, true}) {
      Variable s1(scores, true);
      Variable fused =
          fused_scaled_softmax(s1, scale, masked ? mask : Tensor());
      fused.backward(seed);

      Variable s2(scores, true);
      Variable chain = autograd::mul_scalar(s2, scale);
      if (masked) chain = autograd::add(chain, Variable(mask));
      chain = autograd::softmax_last(chain);
      chain.backward(seed);

      expect_same_bits(fused.value(), chain.value(), masked ? "fwd masked" : "fwd");
      expect_same_bits(s1.grad(), s2.grad(), masked ? "bwd masked" : "bwd");
    }
  }
  parallel::set_num_threads(1);
}

TEST(FusedScaledSoftmax, RowsSumToOneAndMaskZeroes) {
  Rng rng(62);
  const std::int64_t t = 6;
  const Tensor scores = Tensor::randn({2, t, t}, rng);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  Variable y = fused_scaled_softmax(Variable(scores), 0.5f, mask);
  for (std::int64_t r = 0; r < 2 * t; ++r) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < t; ++j) sum += y.value()[r * t + j];
    EXPECT_NEAR(1.0, sum, 1e-5) << "row " << r;
    const std::int64_t i = r % t;
    for (std::int64_t j = i + 1; j < t; ++j)
      EXPECT_NEAR(0.0f, y.value()[r * t + j], 1e-12f) << "masked entry leaked";
  }
}

TEST(FusedScaledSoftmax, BadMaskShapeThrows) {
  Rng rng(63);
  const Tensor scores = Tensor::randn({2, 4, 4}, rng);
  EXPECT_THROW(fused_scaled_softmax(Variable(scores), 1.0f, Tensor({4, 5})),
               std::invalid_argument);
  EXPECT_THROW(fused_scaled_softmax(Variable(scores), 1.0f, Tensor({3, 4})),
               std::invalid_argument);
}

// The conv bias gradient is now a channel-parallel reduction; pin that the
// result is bitwise the sequential sample-outer loop at any thread count.
TEST(Conv2d, BiasGradBitwiseAcrossThreadCounts) {
  Rng rng(64);
  const Tensor x = Tensor::randn({3, 2, 9, 9}, rng);
  const Tensor wt = Tensor::randn({5, 2, 3, 3}, rng);
  const Tensor bt = Tensor::randn({5}, rng);
  auto bias_grad = [&](int threads) {
    parallel::set_num_threads(threads);
    Variable w(wt, true), bias(bt, true);
    Variable y = conv2d(Variable(x), w, bias, 1, 1);
    autograd::sum_all(autograd::mul(y, y)).backward();
    Tensor g = bias.grad();
    parallel::set_num_threads(1);
    return g;
  };
  const Tensor want = bias_grad(1);
  // The pre-PR5 sequential loop, s-outer / o-inner, for reference.
  Variable w(wt, true), bias(bt, true);
  Variable y = conv2d(Variable(x), w, bias, 1, 1);
  const Tensor g_out = [&] {
    Variable loss = autograd::sum_all(autograd::mul(y, y));
    loss.backward();
    return bias.grad();
  }();
  fused_softmax_detail::expect_same_bits(want, g_out, "bias grad self-check");
  for (int threads : {2, 4, 8})
    fused_softmax_detail::expect_same_bits(want, bias_grad(threads), "bias grad threaded");
}

}  // namespace
}  // namespace mlperf::nn
