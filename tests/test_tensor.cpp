#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "parallel/parallel_for.h"

namespace mlperf::tensor {
namespace {

TEST(TensorBasics, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 0);
}

TEST(TensorBasics, ZeroFilledConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorBasics, FillConstruction) {
  Tensor t({2, 2}, 3.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 3.5f);
}

TEST(TensorBasics, DataConstructionSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1.0f}), std::invalid_argument);
}

TEST(TensorBasics, NegativeExtentThrows) {
  EXPECT_THROW(Tensor({-1, 2}), std::invalid_argument);
}

TEST(TensorBasics, AtIndexing) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 2}), 5.0f);

  // Ranks 1-4 against the row-major formula: element i holds the value i.
  auto iota = [](const Shape& shape) {
    Tensor r(shape);
    for (std::int64_t i = 0; i < r.numel(); ++i) r.data()[i] = static_cast<float>(i);
    return r;
  };
  const Tensor r1 = iota({5});
  for (std::int64_t a = 0; a < 5; ++a) EXPECT_EQ(r1.at({a}), static_cast<float>(a));
  const Tensor r3 = iota({2, 3, 4});
  for (std::int64_t a = 0; a < 2; ++a)
    for (std::int64_t b = 0; b < 3; ++b)
      for (std::int64_t c = 0; c < 4; ++c)
        EXPECT_EQ(r3.at({a, b, c}), static_cast<float>((a * 3 + b) * 4 + c));
  Tensor r4 = iota({2, 3, 4, 5});
  for (std::int64_t a = 0; a < 2; ++a)
    for (std::int64_t b = 0; b < 3; ++b)
      for (std::int64_t c = 0; c < 4; ++c)
        for (std::int64_t e = 0; e < 5; ++e) {
          const std::int64_t flat = ((a * 3 + b) * 4 + c) * 5 + e;
          EXPECT_EQ(r4.offset({a, b, c, e}), flat);
          EXPECT_EQ(r4.at({a, b, c, e}), static_cast<float>(flat));
        }
}

TEST(TensorBasics, AtOutOfRangeThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW(t.at({0, 3}), std::invalid_argument);
  EXPECT_THROW(t.at({0}), std::invalid_argument);  // rank mismatch
}

TEST(TensorBasics, SizeNegativeDimWraps) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
  EXPECT_THROW(t.size(3), std::invalid_argument);
}

TEST(TensorBasics, Arange) {
  Tensor t = Tensor::arange(5);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(t[i], static_cast<float>(i));
}

TEST(TensorReshape, InferredExtent) {
  Tensor t = Tensor::arange(12);
  Tensor r = t.reshape({3, -1});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_EQ(r.at({2, 3}), 11.0f);
}

TEST(TensorReshape, NumelMismatchThrows) {
  EXPECT_THROW(Tensor::arange(12).reshape({5, 2}), std::invalid_argument);
}

TEST(TensorReshape, DoubleInferThrows) {
  EXPECT_THROW(Tensor::arange(12).reshape({-1, -1}), std::invalid_argument);
}

TEST(TensorPermute, Transpose2d) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor tt = t.permute({1, 0});
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_EQ(tt.at({0, 1}), 3.0f);
  EXPECT_EQ(tt.at({2, 0}), 2.0f);
}

TEST(TensorPermute, Rank3Permutation) {
  Tensor t({2, 3, 4});
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  Tensor p = t.permute({2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  // p[k, i, j] == t[i, j, k]
  for (std::int64_t i = 0; i < 2; ++i)
    for (std::int64_t j = 0; j < 3; ++j)
      for (std::int64_t k = 0; k < 4; ++k) EXPECT_EQ(p.at({k, i, j}), t.at({i, j, k}));
}

TEST(TensorPermute, RoundTripIsIdentity) {
  Rng rng(1);
  Tensor t = Tensor::randn({3, 4, 5}, rng);
  Tensor back = t.permute({1, 2, 0}).permute({2, 0, 1});
  ASSERT_TRUE(back.same_shape(t));
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(TensorPermute, BadDimsThrow) {
  Tensor t({2, 3});
  EXPECT_THROW(t.permute({0, 0}), std::invalid_argument);
  EXPECT_THROW(t.permute({0}), std::invalid_argument);
}

TEST(TensorSliceCat, Slice0Basic) {
  Tensor t = Tensor::arange(12).reshape({4, 3});
  Tensor s = t.slice(0, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 3}));
  EXPECT_EQ(s.at({0, 0}), 3.0f);
  EXPECT_EQ(s.at({1, 2}), 8.0f);
}

TEST(TensorSliceCat, Cat0ConcatenatesAndRoundTrips) {
  Tensor t = Tensor::arange(12).reshape({4, 3});
  const Tensor top = t.slice(0, 0, 2), bottom = t.slice(0, 2, 4);
  Tensor joined = Tensor::cat({&top, &bottom}, 0);
  ASSERT_TRUE(joined.same_shape(t));
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(joined[i], t[i]);
}

TEST(TensorSliceCat, Cat0MismatchThrows) {
  const Tensor a({2, 3}), b({2, 4});
  EXPECT_THROW(Tensor::cat({&a, &b}, 0), std::invalid_argument);
}

// Along an inner axis a slice or cat moves one block per outer index.
TEST(TensorSliceCat, InnerAxesMoveBlocksPerOuterIndex) {
  const Tensor t = Tensor::arange(24).reshape({2, 3, 4});
  const Tensor mid = t.slice(1, 1, 3);  // [2, 2, 4]
  ASSERT_EQ(mid.shape(), (Shape{2, 2, 4}));
  EXPECT_EQ(mid.at({0, 0, 0}), 4.0f);
  EXPECT_EQ(mid.at({1, 1, 3}), 23.0f);
  const Tensor last = t.slice(2, 3, 4);  // [2, 3, 1]
  EXPECT_EQ(last.at({1, 2, 0}), 23.0f);
  const Tensor head = t.slice(1, 0, 1), tail = t.slice(1, 1, 3);
  const Tensor joined = Tensor::cat({&head, &tail}, 1);
  ASSERT_TRUE(joined.same_shape(t));
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(joined[i], t[i]);
  const Tensor lo = t.slice(2, 0, 1), hi = t.slice(2, 1, 4);
  const Tensor rejoined = Tensor::cat({&hi, &lo}, 2);  // columns rotated left by one
  EXPECT_EQ(rejoined.at({1, 2, 0}), 21.0f);
  EXPECT_EQ(rejoined.at({1, 2, 3}), 20.0f);
}

TEST(TensorBroadcast, SameShapeFastPath) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = a.add(b);
  EXPECT_EQ(c.at({1, 1}), 44.0f);
}

TEST(TensorBroadcast, RowVectorBroadcast) {
  Tensor a({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor b({3}, {10, 20, 30});
  Tensor c = a.add(b);
  EXPECT_EQ(c.at({0, 0}), 10.0f);
  EXPECT_EQ(c.at({1, 2}), 35.0f);
}

TEST(TensorBroadcast, ColumnBroadcast) {
  Tensor a({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor b({2, 1}, {100, 200});
  Tensor c = a.add(b);
  EXPECT_EQ(c.at({0, 2}), 102.0f);
  EXPECT_EQ(c.at({1, 0}), 203.0f);
}

TEST(TensorBroadcast, IncompatibleThrows) {
  EXPECT_THROW(Tensor({2, 3}).add(Tensor({2, 2})), std::invalid_argument);
}

TEST(TensorBroadcast, BroadcastShapeComputation) {
  EXPECT_EQ(Tensor::broadcast_shape({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
  EXPECT_EQ(Tensor::broadcast_shape({5}, {3, 1}), (Shape{3, 5}));
}

TEST(TensorBroadcast, ReduceToInvertsBroadcast) {
  Tensor a({2, 3}, 1.0f);
  Tensor reduced = a.reduce_to({3});
  EXPECT_EQ(reduced.shape(), (Shape{3}));
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(reduced[i], 2.0f);  // summed over rows
  Tensor col = a.reduce_to({2, 1});
  EXPECT_EQ(col.at({0, 0}), 3.0f);
}

// The per-element odometer binary() ran before its row loop: decompose
// every output index with div/mod and apply f once.
template <typename F>
Tensor broadcast_oracle(const Tensor& a, const Tensor& b, F f) {
  const Shape shape = Tensor::broadcast_shape(a.shape(), b.shape());
  const std::size_t rank = shape.size();
  Tensor out(shape);
  auto index = [&](const Tensor& t, std::int64_t flat) {
    std::int64_t idx = 0, stride = 1, rem = flat;
    for (std::size_t i = 0; i < rank; ++i) {
      const std::size_t d = rank - 1 - i;
      const std::int64_t c = rem % shape[d];
      rem /= shape[d];
      if (i < t.shape().size()) {
        const std::int64_t extent = t.shape()[t.shape().size() - 1 - i];
        if (extent != 1) idx += c * stride;
        stride *= extent;
      }
    }
    return idx;
  };
  for (std::int64_t flat = 0; flat < out.numel(); ++flat)
    out[flat] = f(a[index(a, flat)], b[index(b, flat)]);
  return out;
}

// binary()'s broadcast path walks the output by innermost rows; pin it to
// the per-element oracle with non-commutative functors, both operand orders,
// at 1 and 4 threads. The shapes exceed Tensor::kElemGrain, so the 4-thread
// parts start mid-row.
TEST(BroadcastRows, MatchPerElementOracleBitwise) {
  Rng rng(5);
  const std::vector<std::pair<Shape, Shape>> shapes = {
      {{300, 157}, {157}},          {{7, 33, 151}, {33, 151}}, {{300, 1}, {300, 157}},
      {{157}, {300, 157}},          {{1}, {300, 157}}};
  const auto minus = [](float x, float y) { return x - y; };
  const auto divide = [](float x, float y) { return x / y; };
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (const auto& [sa, sb] : shapes) {
      const Tensor a = Tensor::randn(sa, rng), b = Tensor::randn(sb, rng);
      for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
        for (int op = 0; op < 2; ++op) {
          const Tensor got = op == 0 ? x->binary(*y, minus) : x->binary(*y, divide);
          const Tensor want =
              op == 0 ? broadcast_oracle(*x, *y, minus) : broadcast_oracle(*x, *y, divide);
          ASSERT_EQ(got.shape(), want.shape());
          EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                   static_cast<std::size_t>(got.numel()) * sizeof(float)))
              << (op == 0 ? "a - b " : "a / b ") << x->to_string(0) << " with "
              << y->to_string(0) << ", t=" << threads;
        }
      }
    }
  }
  parallel::set_num_threads(1);
}

TEST(TensorReductions, SumMeanMaxMin) {
  Tensor t({4}, {1, -2, 3, 0});
  EXPECT_FLOAT_EQ(t.sum(), 2.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.5f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_FLOAT_EQ(t.min(), -2.0f);
  EXPECT_EQ(t.argmax(), 2);
}

TEST(TensorReductions, ArgmaxLast) {
  Tensor t({2, 3}, {0, 5, 1, 9, 2, 3});
  const auto am = t.argmax_last();
  ASSERT_EQ(am.size(), 2u);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 0);
}

TEST(TensorMatmul, AgainstNaive) {
  Rng rng(7);
  Tensor a = Tensor::randn({5, 4}, rng);
  Tensor b = Tensor::randn({4, 6}, rng);
  Tensor c = a.matmul(b);
  ASSERT_EQ(c.shape(), (Shape{5, 6}));
  for (std::int64_t i = 0; i < 5; ++i)
    for (std::int64_t j = 0; j < 6; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < 4; ++k) acc += a.at({i, k}) * b.at({k, j});
      EXPECT_NEAR(c.at({i, j}), acc, 1e-4);
    }
}

TEST(TensorMatmul, InnerDimMismatchThrows) {
  EXPECT_THROW(Tensor({2, 3}).matmul(Tensor({2, 3})), std::invalid_argument);
}

TEST(TensorMatmul, BatchedAgainstLoop) {
  Rng rng(8);
  Tensor a = Tensor::randn({3, 2, 4}, rng);
  Tensor b = Tensor::randn({3, 4, 5}, rng);
  Tensor c = a.bmm(b);
  ASSERT_EQ(c.shape(), (Shape{3, 2, 5}));
  for (std::int64_t s = 0; s < 3; ++s) {
    Tensor as = a.slice(0, s, s + 1).reshape({2, 4});
    Tensor bs = b.slice(0, s, s + 1).reshape({4, 5});
    Tensor cs = as.matmul(bs);
    for (std::int64_t i = 0; i < 10; ++i)
      EXPECT_NEAR(c[s * 10 + i], cs[i], 1e-4);
  }
}

TEST(TensorSoftmax, RowsSumToOne) {
  Rng rng(9);
  Tensor t = Tensor::randn({4, 7}, rng, 0.0f, 5.0f);
  Tensor s = t.softmax_last();
  for (std::int64_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.at({r, j}), 0.0f);
      sum += s.at({r, j});
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(TensorSoftmax, StableUnderLargeLogits) {
  Tensor t({1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor s = t.softmax_last();
  EXPECT_TRUE(s.all_finite());
  EXPECT_GT(s[1], s[0]);
}

TEST(TensorSoftmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(10);
  Tensor t = Tensor::randn({3, 5}, rng);
  Tensor a = t.log_softmax_last();
  Tensor b = t.softmax_last().log();
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_NEAR(a[i], b[i], 1e-5);
}

TEST(TensorUnary, MapAndChains) {
  Tensor t({3}, {-1.0f, 0.0f, 2.0f});
  Tensor r = t.relu();
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[2], 2.0f);
  Tensor sig = Tensor({1}, {0.0f}).sigmoid();
  EXPECT_FLOAT_EQ(sig[0], 0.5f);
}

TEST(TensorMisc, L2NormAndFinite) {
  Tensor t({2}, {3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.l2_norm_sq(), 25.0f);
  EXPECT_TRUE(t.all_finite());
  Tensor bad({1}, {std::nanf("")});
  EXPECT_FALSE(bad.all_finite());
}

TEST(TensorMisc, ToStringTruncates) {
  Tensor t = Tensor::arange(100);
  const std::string s = t.to_string(4);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// Property sweep: broadcast binary add agrees with manual loop for a family
// of right-aligned shapes.
class BroadcastProperty : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(BroadcastProperty, AddMatchesManualExpansion) {
  const auto& [sa, sb] = GetParam();
  Rng rng(11);
  Tensor a = Tensor::randn(sa, rng);
  Tensor b = Tensor::randn(sb, rng);
  Tensor c = a.add(b);
  const Shape out = Tensor::broadcast_shape(sa, sb);
  ASSERT_EQ(c.shape(), out);
  // Verify on a handful of sample positions via modular index math.
  auto fetch = [](const Tensor& t, const Shape& out_shape, std::int64_t flat) {
    const auto& ts = t.shape();
    std::int64_t idx = 0, stride = 1;
    // build index in t by right-aligned coordinates
    std::vector<std::int64_t> coords(out_shape.size());
    for (std::size_t d = out_shape.size(); d-- > 0;) {
      coords[d] = flat % out_shape[d];
      flat /= out_shape[d];
    }
    for (std::size_t i = ts.size(); i-- > 0;) {
      const std::size_t od = out_shape.size() - (ts.size() - i);
      const std::int64_t coord = ts[i] == 1 ? 0 : coords[od];
      idx += coord * stride;
      stride *= ts[i];
    }
    return t[idx];
  };
  for (std::int64_t flat = 0; flat < c.numel(); ++flat)
    EXPECT_NEAR(c[flat], fetch(a, c.shape(), flat) + fetch(b, c.shape(), flat), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(std::pair<Shape, Shape>{{2, 3}, {3}},
                      std::pair<Shape, Shape>{{2, 3}, {2, 1}},
                      std::pair<Shape, Shape>{{4, 1, 3}, {2, 3}},
                      std::pair<Shape, Shape>{{1}, {2, 2}},
                      std::pair<Shape, Shape>{{3, 1, 2, 1}, {1, 4, 1, 5}}));

// GEMM property: identity, associativity with scalar.
TEST(GemmProperty, IdentityMatrix) {
  Rng rng(12);
  Tensor a = Tensor::randn({6, 6}, rng);
  Tensor eye({6, 6});
  for (std::int64_t i = 0; i < 6; ++i) eye.at({i, i}) = 1.0f;
  Tensor c = a.matmul(eye);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(c[i], a[i], 1e-5);
}

TEST(GemmProperty, TransposeIdentity) {
  // (A B)^T == B^T A^T
  Rng rng(13);
  Tensor a = Tensor::randn({3, 5}, rng);
  Tensor b = Tensor::randn({5, 2}, rng);
  Tensor lhs = a.matmul(b).permute({1, 0});
  Tensor rhs = b.permute({1, 0}).matmul(a.permute({1, 0}));
  for (std::int64_t i = 0; i < lhs.numel(); ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-4);
}

}  // namespace
}  // namespace mlperf::tensor
