// Contract tests for the packed GEMM kernel (src/tensor/gemm.cpp) and the
// per-thread scratch arena it allocates from.
//
// The load-bearing contract: the packed kernel is BITWISE identical to the
// retained scalar reference kernel (gemm_accumulate_ref). Both fold each C
// element's k-products in ascending k order with a single float accumulator,
// so tiling, packing, vectorization and row-partitioned threading change
// nothing about the rounding. The refcheck below therefore runs at a
// tolerance of 0 ULP; the ULP machinery exists so that a future kernel that
// reorders summation can widen the tolerance explicitly (and must update
// EXPERIMENTS.md in the same change) instead of silently switching the test
// to an epsilon compare.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "autograd/variable.h"
#include "nn/functional.h"
#include "nn/layers.h"
#include "parallel/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

using namespace mlperf;
using tensor::Rng;
using tensor::Tensor;
using tensor::Trans;

namespace {

// Distance in representable floats between two values (0 == bitwise equal,
// after mapping the sign-magnitude bit patterns onto a monotone integer
// line). NaNs compare as far apart.
std::int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = std::numeric_limits<std::int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int32_t>::min() - ib;
  return std::abs(static_cast<std::int64_t>(ia) - static_cast<std::int64_t>(ib));
}

std::int64_t max_ulp_distance(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    worst = std::max(worst, ulp_distance(a[i], b[i]));
  return worst;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << ": max ULP distance " << max_ulp_distance(a.vec(), b.vec());
}

class GemmTest : public ::testing::Test {
 protected:
  void TearDown() override { parallel::set_num_threads(1); }
};

// Edge and non-tile-multiple shapes exercised throughout: degenerate rows
// and columns, empty inner dimension, and dims straddling the MR=4 / NR=8 /
// MC=64 blocking boundaries. The float kernel runs 4-row tiles on the
// portable instantiation and 8-row tiles (pairs of packed strips) on the
// AVX2 one, so the list reaches every path of both: full 8-row pairs, a lone
// 4-row strip padded to a pair (m = 4, 12, 68), ragged rows (m mod 4 != 0),
// ragged columns (n mod 8 != 0), MC blocks of 64 / 65 / 128 / 129 rows,
// k = 1 and k >= 288, and the GEMMs the workloads run: the Transformer's
// projections over 160 tokens and its per-head attention bmm (T = 10, head
// dim 16), MiniGo's batch-1 conv forward [16x144]x[144x81] and its dW.
struct Mkn {
  std::int64_t m, k, n;
};
const Mkn kShapes[] = {
    {1, 1, 1},     {1, 7, 13},    {5, 9, 1},     {1, 0, 6},    {3, 0, 3},      {4, 8, 8},
    {17, 5, 23},   {33, 17, 9},   {65, 31, 40},  {64, 64, 8},  {66, 3, 17},    {128, 2, 5},
    {8, 16, 8},    {16, 1, 16},   {12, 6, 16},   {7, 11, 8},   {13, 5, 24},    {68, 9, 16},
    {129, 3, 9},   {24, 288, 8},  {9, 300, 13},  {160, 32, 64}, {160, 32, 32}, {10, 16, 10},
    {10, 10, 16},  {16, 144, 81}, {16, 81, 144},
};

}  // namespace

TEST_F(GemmTest, PackedMatchesRefBitwise) {
  Rng rng(101);
  for (const auto& s : kShapes) {
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor want({s.m, s.n});
    Tensor got({s.m, s.n});
    // Nonzero initial C: the kernel contract is accumulation, not overwrite.
    for (std::int64_t i = 0; i < want.numel(); ++i) want[i] = got[i] = 0.25f * float(i % 7) - 0.5f;
    tensor::gemm_accumulate_ref(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    tensor::gemm_accumulate(Trans::N, Trans::N, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                            got.data(), s.n);
    EXPECT_EQ(0, max_ulp_distance(want.vec(), got.vec()))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
    expect_bitwise_equal(want, got, "packed vs ref");
  }
}

TEST_F(GemmTest, TransposedVariantsMatchExplicitTranspose) {
  Rng rng(102);
  for (const auto& s : kShapes) {
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor at = a.permute({1, 0});  // stored [k, m], consumed as A via Trans::T
    Tensor bt = b.permute({1, 0});  // stored [n, k], consumed as B via Trans::T
    Tensor want = a.matmul(b);
    expect_bitwise_equal(want, a.matmul(b, Trans::N, Trans::N), "NN");
    expect_bitwise_equal(want, at.matmul(b, Trans::T, Trans::N), "TN");
    expect_bitwise_equal(want, a.matmul(bt, Trans::N, Trans::T), "NT");
    expect_bitwise_equal(want, at.matmul(bt, Trans::T, Trans::T), "TT");
  }
}

TEST_F(GemmTest, MatmulBitwiseIdenticalAcrossThreadCounts) {
  for (const auto& s : kShapes) {
    Rng rng(103);
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor bt = b.permute({1, 0});
    parallel::set_num_threads(1);
    Tensor base = a.matmul(b);
    Tensor base_nt = a.matmul(bt, Trans::N, Trans::T);
    for (int threads : {2, 4, 8}) {
      parallel::set_num_threads(threads);
      expect_bitwise_equal(base, a.matmul(b), "threaded NN");
      expect_bitwise_equal(base_nt, a.matmul(bt, Trans::N, Trans::T), "threaded NT");
    }
  }
}

// Every Trans variant against the scalar reference at 1/2/4/8 threads:
// Tensor::matmul partitions rows across the pool, and gemm_accumulate runs
// on a nonzero C, so tiles start from existing values.
TEST_F(GemmTest, AllTransVariantsMatchRefAcrossThreads) {
  for (const auto& s : kShapes) {
    Rng rng(113);
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor at = a.permute({1, 0});
    Tensor bt = b.permute({1, 0});
    Tensor want({s.m, s.n});
    tensor::gemm_accumulate_ref(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    Tensor want_acc({s.m, s.n});
    for (std::int64_t i = 0; i < want_acc.numel(); ++i)
      want_acc[i] = 0.125f * float(i % 5) - 0.25f;
    Tensor init = want_acc;
    tensor::gemm_accumulate_ref(a.data(), b.data(), want_acc.data(), s.m, s.k, s.n);
    const std::int64_t lda = s.k, ldat = std::max<std::int64_t>(s.m, 1);
    const std::int64_t ldb = s.n, ldbt = std::max<std::int64_t>(s.k, 1);
    struct Case {
      Trans ta, tb;
      const Tensor *pa, *pb;
      std::int64_t lda, ldb;
      const char* name;
    } cases[] = {
        {Trans::N, Trans::N, &a, &b, lda, ldb, "NN"},
        {Trans::T, Trans::N, &at, &b, ldat, ldb, "TN"},
        {Trans::N, Trans::T, &a, &bt, lda, ldbt, "NT"},
        {Trans::T, Trans::T, &at, &bt, ldat, ldbt, "TT"},
    };
    for (const Case& c : cases) {
      Tensor got = init;
      tensor::gemm_accumulate(c.ta, c.tb, s.m, s.n, s.k, c.pa->data(), c.lda, c.pb->data(),
                              c.ldb, got.data(), s.n);
      expect_bitwise_equal(want_acc, got, c.name);
    }
    for (int threads : {1, 2, 4, 8}) {
      parallel::set_num_threads(threads);
      for (const Case& c : cases)
        expect_bitwise_equal(want, c.pa->matmul(*c.pb, c.ta, c.tb), c.name);
    }
  }
}

TEST_F(GemmTest, BmmTransVariantsAcrossThreadCounts) {
  Rng rng(104);
  Tensor a = Tensor::randn({6, 9, 5}, rng);
  Tensor b = Tensor::randn({6, 5, 11}, rng);
  // Explicitly permuted copies consumed through the transposed variants.
  Tensor at = a.permute({0, 2, 1});
  Tensor bt = b.permute({0, 2, 1});
  parallel::set_num_threads(1);
  Tensor base = a.bmm(b);
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    expect_bitwise_equal(base, a.bmm(b), "bmm NN");
    expect_bitwise_equal(base, at.bmm(b, Trans::T, Trans::N), "bmm TN");
    expect_bitwise_equal(base, a.bmm(bt, Trans::N, Trans::T), "bmm NT");
    expect_bitwise_equal(base, at.bmm(bt, Trans::T, Trans::T), "bmm TT");
  }
}

TEST_F(GemmTest, KZeroLeavesCUntouched) {
  Tensor a({3, 0});
  Tensor b({0, 4});
  Tensor c = a.matmul(b);
  ASSERT_EQ(c.shape(), (tensor::Shape{3, 4}));
  for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(0.0f, c[i]);
  // Accumulate form: k == 0 must be a no-op on existing C contents.
  Tensor acc({3, 4}, 2.5f);
  tensor::gemm_accumulate(Trans::N, Trans::N, 3, 4, 0, a.data(), 0, b.data(), 4, acc.data(), 4);
  for (std::int64_t i = 0; i < acc.numel(); ++i) EXPECT_EQ(2.5f, acc[i]);
}

TEST_F(GemmTest, MatmulShapeValidation) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
  EXPECT_THROW(a.matmul(b, Trans::N, Trans::T), std::invalid_argument);  // 3 vs 5
  EXPECT_NO_THROW(a.matmul(Tensor({5, 3}), Trans::N, Trans::T));  // op(B) = [3, 5]
}

// ---- autograd: transpose-free forward/backward ----------------------------
// matmul, conv2d and Linear read transposed operands in place through the
// GEMM's Trans flags; these drive those paths forward and backward.

TEST_F(GemmTest, MatmulBackwardUsesNoTransposeCopies) {
  Rng rng(105);
  autograd::Variable a(Tensor::randn({7, 5}, rng), true);
  autograd::Variable b(Tensor::randn({5, 9}, rng), true);
  auto y = autograd::matmul(a, b);
  autograd::sum_all(y).backward();
  auto yt = autograd::matmul(a, autograd::Variable(Tensor::randn({9, 5}, rng), true), Trans::N,
                             Trans::T);
  autograd::sum_all(yt).backward();
  EXPECT_GT(a.grad().l2_norm_sq(), 0.0f);
  EXPECT_GT(b.grad().l2_norm_sq(), 0.0f);
}

TEST_F(GemmTest, TransposedMatmulGradsMatchExplicitComposition) {
  Rng rng(106);
  Tensor wa = Tensor::randn({7, 5}, rng);
  Tensor wb = Tensor::randn({9, 5}, rng);  // consumed as B^T: [5, 9]
  // Reference: explicit transpose through autograd::permute.
  autograd::Variable a1(wa, true), b1(wb, true);
  auto y1 = autograd::matmul(a1, autograd::permute(b1, {1, 0}));
  autograd::sum_all(y1).backward();
  // Under test: the in-place transposed variant.
  autograd::Variable a2(wa, true), b2(wb, true);
  auto y2 = autograd::matmul(a2, b2, Trans::N, Trans::T);
  autograd::sum_all(y2).backward();
  expect_bitwise_equal(y1.value(), y2.value(), "NT forward");
  expect_bitwise_equal(a1.grad(), a2.grad(), "dA");
  // dB via the permute path is transpose-of-a-GEMM; the direct path computes
  // the same sums in the same per-element order, so still bitwise.
  expect_bitwise_equal(b1.grad(), b2.grad(), "dB");

  // And the TA case.
  Tensor wat = wa.permute({1, 0});  // [5, 7]
  autograd::Variable a3(wat, true), b3(wb, true);
  auto y3 = autograd::matmul(a3, b3, Trans::T, Trans::T);
  autograd::sum_all(y3).backward();
  expect_bitwise_equal(y1.value(), y3.value(), "TT forward");
  expect_bitwise_equal(b1.grad(), b3.grad(), "TT dB");
}

TEST_F(GemmTest, Conv2dBackwardUsesNoTransposeCopies) {
  Rng rng(107);
  autograd::Variable x(Tensor::randn({2, 3, 6, 6}, rng), true);
  autograd::Variable w(Tensor::randn({4, 3, 3, 3}, rng), true);
  auto y = nn::conv2d(x, w, autograd::Variable(), 1, 1);
  autograd::sum_all(y).backward();
  EXPECT_GT(x.grad().l2_norm_sq(), 0.0f);
  EXPECT_GT(w.grad().l2_norm_sq(), 0.0f);
}

TEST_F(GemmTest, LinearForwardUsesNoTransposeCopies) {
  Rng rng(108);
  nn::Linear fc(12, 8, rng);
  autograd::Variable x(Tensor::randn({5, 12}, rng), true);
  auto y = fc.forward(x);
  autograd::sum_all(y).backward();
  EXPECT_GT(x.grad().l2_norm_sq(), 0.0f);
}

// ---- scratch arena --------------------------------------------------------

TEST(ScratchArenaTest, FrameRestoresWatermarkAndReusesMemory) {
  tensor::ScratchArena arena;
  float* first = nullptr;
  {
    tensor::ScratchArena::Frame f(arena);
    first = f.alloc(1000);
    ASSERT_NE(nullptr, first);
    first[0] = 1.0f;
    first[999] = 2.0f;
  }
  const std::int64_t allocs = arena.chunk_allocations();
  {
    tensor::ScratchArena::Frame f(arena);
    float* again = f.alloc(1000);
    EXPECT_EQ(first, again) << "frame pop must rewind the bump pointer";
  }
  EXPECT_EQ(allocs, arena.chunk_allocations()) << "reuse must not allocate";
}

TEST(ScratchArenaTest, AllocationsAreAligned) {
  tensor::ScratchArena arena;
  tensor::ScratchArena::Frame f(arena);
  for (std::int64_t n : {1, 3, 16, 17, 100}) {
    float* p = f.alloc(n);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(p) % 64)
        << "n=" << n << " not 64-byte aligned";
    p[0] = 0.0f;
    p[n - 1] = 0.0f;
  }
}

TEST(ScratchArenaTest, NestedFramesAndGrowthKeepPointersValid) {
  tensor::ScratchArena arena;
  tensor::ScratchArena::Frame outer(arena);
  float* a = outer.alloc(100);
  a[0] = 42.0f;
  {
    tensor::ScratchArena::Frame inner(arena);
    // Force growth past the first chunk: outer pointer must stay valid.
    float* big = inner.alloc(1 << 20);
    big[0] = 1.0f;
    big[(1 << 20) - 1] = 2.0f;
    EXPECT_EQ(42.0f, a[0]);
  }
  float* b = outer.alloc(10);
  EXPECT_EQ(42.0f, a[0]);
  EXPECT_NE(a, b);
}

TEST(ScratchArenaTest, ZeroSizedAllocIsSafe) {
  tensor::ScratchArena arena;
  tensor::ScratchArena::Frame f(arena);
  EXPECT_NO_THROW(f.alloc(0));
}

// Steady state: after one warmup step, further training steps perform zero
// scratch chunk allocations — the arena has seen its peak working set.
TEST_F(GemmTest, SteadyStateTrainingStepAllocatesNoScratch) {
  Rng rng(109);
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng);
  Tensor w = Tensor::randn({4, 4, 3, 3}, rng);
  auto step = [&] {
    autograd::Variable vw(w, true);
    auto y = nn::conv2d(autograd::Variable(x), vw, autograd::Variable(), 1, 1);
    auto z = autograd::matmul(autograd::reshape(y, {2, -1}),
                              autograd::Variable(Tensor::randn({4 * 8 * 8, 3}, rng), true));
    autograd::sum_all(z).backward();
  };
  step();  // warmup grows the arena to the peak working set
  const std::int64_t warm = tensor::ScratchArena::tls().chunk_allocations();
  for (int i = 0; i < 3; ++i) step();
  EXPECT_EQ(warm, tensor::ScratchArena::tls().chunk_allocations())
      << "steady-state step allocated scratch chunks";
}

// ---- gemm_f64acc: the conv dW kernel ---------------------------------------
//
// Same 0-ULP discipline as the float kernel, with a different numerics
// contract: OVERWRITE semantics, float products folded into one DOUBLE
// accumulator per element in ascending k — exactly the naive dot-product loop
// conv2d's weight gradient used before the packed kernel (retained verbatim
// as gemm_f64acc_ref).

TEST_F(GemmTest, F64AccMatchesNaiveDoubleLoopBitwise) {
  Rng rng(110);
  for (const auto& s : kShapes) {
    Tensor a = Tensor::randn({std::max<std::int64_t>(s.m, 1), std::max<std::int64_t>(s.k, 1)},
                             rng);
    Tensor b = Tensor::randn({std::max<std::int64_t>(s.k, 1), std::max<std::int64_t>(s.n, 1)},
                             rng);
    // The literal naive loop (independent of gemm_f64acc_ref): float product,
    // double ascending-k fold, float store.
    Tensor want = Tensor::uninitialized({s.m, s.n});
    for (std::int64_t i = 0; i < s.m; ++i)
      for (std::int64_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (std::int64_t p = 0; p < s.k; ++p) acc += a[i * s.k + p] * b[p * s.n + j];
        want[i * s.n + j] = static_cast<float>(acc);
      }
    // Stale garbage in C pins the overwrite contract.
    Tensor got({s.m, s.n}, -7.75f);
    tensor::gemm_f64acc(Trans::N, Trans::N, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                        got.data(), s.n);
    expect_bitwise_equal(want, got, "f64acc vs naive double loop");
    Tensor ref({s.m, s.n}, 3.5f);
    tensor::gemm_f64acc_ref(Trans::N, Trans::N, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                            ref.data(), s.n);
    expect_bitwise_equal(want, ref, "f64acc_ref vs naive double loop");
  }
}

TEST_F(GemmTest, F64AccTransVariantsMatchRefAcrossThreads) {
  for (const auto& s : kShapes) {
    Rng rng(111);
    Tensor a = Tensor::randn({std::max<std::int64_t>(s.m, 1), std::max<std::int64_t>(s.k, 1)},
                             rng);
    Tensor b = Tensor::randn({std::max<std::int64_t>(s.k, 1), std::max<std::int64_t>(s.n, 1)},
                             rng);
    Tensor at = a.permute({1, 0});
    Tensor bt = b.permute({1, 0});
    Tensor want({s.m, s.n}, 9.0f);
    tensor::gemm_f64acc_ref(Trans::N, Trans::N, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                            want.data(), s.n);
    for (int threads : {1, 2, 4, 8}) {
      parallel::set_num_threads(threads);
      struct Case {
        Trans ta, tb;
        const Tensor *pa, *pb;
        std::int64_t lda, ldb;
        const char* name;
      } cases[] = {
          {Trans::N, Trans::N, &a, &b, s.k, s.n, "f64acc NN"},
          {Trans::T, Trans::N, &at, &b, std::max<std::int64_t>(s.m, 1), s.n, "f64acc TN"},
          {Trans::N, Trans::T, &a, &bt, s.k, std::max<std::int64_t>(s.k, 1), "f64acc NT"},
          {Trans::T, Trans::T, &at, &bt, std::max<std::int64_t>(s.m, 1),
           std::max<std::int64_t>(s.k, 1), "f64acc TT"},
      };
      for (const Case& c : cases) {
        Tensor got({s.m, s.n}, -1.25f);
        tensor::gemm_f64acc(c.ta, c.tb, s.m, s.n, s.k, c.pa->data(), c.lda, c.pb->data(),
                            c.ldb, got.data(), s.n);
        expect_bitwise_equal(want, got, c.name);
      }
    }
  }
}

TEST_F(GemmTest, F64AccKZeroZeroesC) {
  // The naive loop's empty fold writes float(0.0) to every element; both the
  // packed kernel and the reference must do the same, not no-op like the
  // accumulate kernel.
  Tensor a({3, 1});
  Tensor b({1, 4});
  Tensor got({3, 4}, 2.5f);
  tensor::gemm_f64acc(Trans::N, Trans::N, 3, 4, 0, a.data(), 1, b.data(), 4, got.data(), 4);
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_EQ(0.0f, got[i]);
  Tensor ref({3, 4}, -2.5f);
  tensor::gemm_f64acc_ref(Trans::N, Trans::N, 3, 4, 0, a.data(), 1, b.data(), 4, ref.data(), 4);
  for (std::int64_t i = 0; i < ref.numel(); ++i) EXPECT_EQ(0.0f, ref[i]);
}

TEST_F(GemmTest, ConvDwOrientationMatchesOldInlineLoop) {
  // The exact call conv2d's backward makes: dW_s = g_s [O, Q] x cols^T [Q, R]
  // via (Trans::N, Trans::T), refchecked against the pre-PR5 inline loop.
  Rng rng(112);
  const std::int64_t O = 5, R = 27, Q = 33;  // deliberately off every tile size
  Tensor g = Tensor::randn({O, Q}, rng);
  Tensor cols = Tensor::randn({R, Q}, rng);
  Tensor want = Tensor::uninitialized({O, R});
  for (std::int64_t o = 0; o < O; ++o)
    for (std::int64_t r = 0; r < R; ++r) {
      const float* grow = g.data() + o * Q;
      const float* crow = cols.data() + r * Q;
      double acc = 0.0;
      for (std::int64_t q = 0; q < Q; ++q) acc += grow[q] * crow[q];
      want[o * R + r] = static_cast<float>(acc);
    }
  for (int threads : {1, 2, 4, 8}) {
    parallel::set_num_threads(threads);
    Tensor got({O, R}, 4.0f);
    tensor::gemm_f64acc(Trans::N, Trans::T, O, R, Q, g.data(), Q, cols.data(), Q, got.data(),
                        R);
    expect_bitwise_equal(want, got, "conv dW orientation");
  }
}
