#include "tensor/gemm.h"

#include <algorithm>

#include "tensor/scratch.h"

namespace mlperf::tensor {

namespace {

constexpr std::int64_t MR = kGemmMR;
constexpr std::int64_t NR = kGemmNR;
constexpr std::int64_t MC = kGemmMC;

// Pack one MR-row strip of op(A) k-major: ap[p*MR + r] = opA[i0+r][p].
// rs/cs are the row/column strides of op(A) over the stored matrix, so the
// same routine serves both orientations. Rows past `mr` are zero-padded;
// their accumulator lanes are computed but never stored.
void pack_a_strip(const float* a, std::int64_t rs, std::int64_t cs, std::int64_t i0,
                  std::int64_t mr, std::int64_t k, float* ap) {
  for (std::int64_t p = 0; p < k; ++p) {
    float* dst = ap + p * MR;
    const float* src = a + i0 * rs + p * cs;
    std::int64_t r = 0;
    for (; r < mr; ++r) dst[r] = src[r * rs];
    for (; r < MR; ++r) dst[r] = 0.0f;
  }
}

// MR x NR register tile: acc starts from the existing C values and folds the
// packed panels' k-products in ascending k, one float accumulator per
// element — the exact accumulation order of gemm_accumulate_ref, which is
// what keeps the packed kernel bitwise equal to it. The fixed-extent inner
// loops auto-vectorize; edge tiles only bound the C loads/stores.
void micro_kernel(std::int64_t k, const float* ap, const float* bp, float* c, std::int64_t ldc,
                  std::int64_t mr, std::int64_t nr) {
  float acc[MR][NR];
  for (std::int64_t r = 0; r < MR; ++r)
    for (std::int64_t j = 0; j < NR; ++j) acc[r][j] = 0.0f;
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
  for (std::int64_t p = 0; p < k; ++p) {
    const float* av = ap + p * MR;
    const float* bv = bp + p * NR;
    for (std::int64_t r = 0; r < MR; ++r) {
      const float arp = av[r];
      for (std::int64_t j = 0; j < NR; ++j) acc[r][j] += arp * bv[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
}

// Double-accumulator twin of micro_kernel for the dW numerics contract: the
// product stays float (rounding exactly where the naive `acc += g*c` loop
// rounds), the fold is double, one accumulator per element, ascending k.
// Overwrite semantics — acc starts at zero and C is stored, not added to.
// NR double lanes still auto-vectorize (two AVX double vectors per row).
void micro_kernel_f64(std::int64_t k, const float* ap, const float* bp, float* c,
                      std::int64_t ldc, std::int64_t mr, std::int64_t nr) {
  double acc[MR][NR];
  for (std::int64_t r = 0; r < MR; ++r)
    for (std::int64_t j = 0; j < NR; ++j) acc[r][j] = 0.0;
  for (std::int64_t p = 0; p < k; ++p) {
    const float* av = ap + p * MR;
    const float* bv = bp + p * NR;
    for (std::int64_t r = 0; r < MR; ++r) {
      const float arp = av[r];
      for (std::int64_t j = 0; j < NR; ++j)
        acc[r][j] += static_cast<double>(arp * bv[j]);
    }
  }
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = static_cast<float>(acc[r][j]);
}

}  // namespace

std::int64_t gemm_packed_b_size(std::int64_t k, std::int64_t n) {
  if (k <= 0 || n <= 0) return 0;
  return (n + NR - 1) / NR * NR * k;
}

void gemm_pack_b(Trans tb, const float* b, std::int64_t ldb, std::int64_t k, std::int64_t n,
                 float* bp) {
  const std::int64_t rs = tb == Trans::N ? ldb : 1;
  const std::int64_t cs = tb == Trans::N ? 1 : ldb;
  for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
    const std::int64_t nr = std::min(NR, n - j0);
    float* panel = bp + j0 * k;  // panels are k*NR floats each
    for (std::int64_t p = 0; p < k; ++p) {
      float* dst = panel + p * NR;
      const float* src = b + p * rs + j0 * cs;
      std::int64_t j = 0;
      for (; j < nr; ++j) dst[j] = src[j * cs];
      for (; j < NR; ++j) dst[j] = 0.0f;
    }
  }
}

void gemm_packed(Trans ta, const float* a, std::int64_t lda, const float* bp, std::int64_t m,
                 std::int64_t n, std::int64_t k, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // k == 0: C += 0, nothing to do
  const std::int64_t rs = ta == Trans::N ? lda : 1;
  const std::int64_t cs = ta == Trans::N ? 1 : lda;
  ScratchArena::Frame frame(ScratchArena::tls());
  const std::int64_t mc_cap = std::min(MC, (m + MR - 1) / MR * MR);
  float* ap = frame.alloc(mc_cap * k);
  for (std::int64_t ic = 0; ic < m; ic += MC) {
    const std::int64_t mc = std::min(MC, m - ic);
    const std::int64_t strips = (mc + MR - 1) / MR;
    for (std::int64_t s = 0; s < strips; ++s) {
      const std::int64_t i0 = ic + s * MR;
      pack_a_strip(a, rs, cs, i0, std::min(MR, m - i0), k, ap + s * MR * k);
    }
    // B panel innermost-reused: one [k][NR] panel stays L1-hot while the
    // packed A strips of this row block stream past it.
    for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
      const std::int64_t nr = std::min(NR, n - j0);
      const float* bpanel = bp + j0 * k;
      for (std::int64_t s = 0; s < strips; ++s) {
        const std::int64_t i0 = ic + s * MR;
        micro_kernel(k, ap + s * MR * k, bpanel, c + i0 * ldc + j0, ldc, std::min(MR, m - i0),
                     nr);
      }
    }
  }
}

void gemm_accumulate(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  ScratchArena::Frame frame(ScratchArena::tls());
  float* bp = frame.alloc(gemm_packed_b_size(k, n));
  gemm_pack_b(tb, b, ldb, k, n, bp);
  gemm_packed(ta, a, lda, bp, m, n, k, c, ldc);
}

void gemm_accumulate_ref(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                         std::int64_t n) {
  // i-k-j loop order: unit-stride inner loop over both B and C rows. One
  // accumulator per C element, k folded in ascending order — the numerics
  // contract the packed kernel reproduces bit-for-bit.
  constexpr std::int64_t kBlock = 64;
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::int64_t i1 = std::min(i0 + kBlock, m);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const std::int64_t k1 = std::min(k0 + kBlock, k);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = c + i * n;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float av = a[i * k + kk];
          const float* brow = b + kk * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void gemm_f64acc(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                 std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Overwrite contract: an empty fold stores float(0.0) everywhere, just
    // as the naive loop's untouched `double acc = 0.0` would.
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) c[i * ldc + j] = 0.0f;
    return;
  }
  const std::int64_t rs = ta == Trans::N ? lda : 1;
  const std::int64_t cs = ta == Trans::N ? 1 : lda;
  ScratchArena::Frame frame(ScratchArena::tls());
  float* bp = frame.alloc(gemm_packed_b_size(k, n));
  gemm_pack_b(tb, b, ldb, k, n, bp);
  const std::int64_t mc_cap = std::min(MC, (m + MR - 1) / MR * MR);
  float* ap = frame.alloc(mc_cap * k);
  for (std::int64_t ic = 0; ic < m; ic += MC) {
    const std::int64_t mc = std::min(MC, m - ic);
    const std::int64_t strips = (mc + MR - 1) / MR;
    for (std::int64_t s = 0; s < strips; ++s) {
      const std::int64_t i0 = ic + s * MR;
      pack_a_strip(a, rs, cs, i0, std::min(MR, m - i0), k, ap + s * MR * k);
    }
    for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
      const std::int64_t nr = std::min(NR, n - j0);
      const float* bpanel = bp + j0 * k;
      for (std::int64_t s = 0; s < strips; ++s) {
        const std::int64_t i0 = ic + s * MR;
        micro_kernel_f64(k, ap + s * MR * k, bpanel, c + i0 * ldc + j0, ldc,
                         std::min(MR, m - i0), nr);
      }
    }
  }
}

void gemm_f64acc_ref(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc) {
  const std::int64_t ars = ta == Trans::N ? lda : 1;
  const std::int64_t acs = ta == Trans::N ? 1 : lda;
  const std::int64_t brs = tb == Trans::N ? ldb : 1;
  const std::int64_t bcs = tb == Trans::N ? 1 : ldb;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += a[i * ars + p * acs] * b[p * brs + j * bcs];  // float product, double fold
      c[i * ldc + j] = static_cast<float>(acc);
    }
  }
}

}  // namespace mlperf::tensor
