#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

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

// Accumulator vectors of the float tile: GCC/Clang vector extensions, not
// intrinsics, so one kernel source serves every ISA. F4 is the baseline
// width (one xmm on x86-64, one NEON register elsewhere); F8 is one ymm and
// only appears inside the AVX2 instantiation.
using F4 = float __attribute__((vector_size(4 * sizeof(float))));
using F8 = float __attribute__((vector_size(8 * sizeof(float))));

// Row r of a tile reads packed A from strip r / MR (strips are k*MR floats
// each and adjacent), lane r % MR: a tile taller than MR spans strips.
[[gnu::always_inline]] inline float a_at(const float* ap, std::int64_t k, std::int64_t p,
                                         std::int64_t r) {
  return ap[(r / MR) * MR * k + p * MR + r % MR];
}

// kRows x NR float register tile over a full C tile, each row held as
// NR / lanes vectors of type V. acc starts from the existing C values and
// folds the packed panels' k-products in ascending k, one float accumulator
// per element: acc = acc + float(a*b), multiply and add as two separately
// rounded operations. That is the exact accumulation order of
// gemm_accumulate_ref, so every instantiation is bitwise equal to it; the
// tile height and vector width only set how many independent add chains
// run at once.
template <std::int64_t kTileRows, class V>
struct TileF32 {
  static constexpr std::int64_t kRows = kTileRows;
  static constexpr bool kAccumulate = true;
  [[gnu::always_inline]] static void run(std::int64_t k, const float* ap, const float* bp,
                                         float* c, std::int64_t ldc) {
    constexpr std::int64_t kLanes = sizeof(V) / sizeof(float);
    constexpr std::int64_t kVecs = NR / kLanes;
    V acc[kRows][kVecs];
    for (std::int64_t r = 0; r < kRows; ++r)
      for (std::int64_t v = 0; v < kVecs; ++v)
        std::memcpy(&acc[r][v], c + r * ldc + v * kLanes, sizeof(V));
    for (std::int64_t p = 0; p < k; ++p) {
      V b[kVecs];
      for (std::int64_t v = 0; v < kVecs; ++v)
        std::memcpy(&b[v], bp + p * NR + v * kLanes, sizeof(V));
      for (std::int64_t r = 0; r < kRows; ++r) {
        const float arp = a_at(ap, k, p, r);
        for (std::int64_t v = 0; v < kVecs; ++v) acc[r][v] += arp * b[v];
      }
    }
    for (std::int64_t r = 0; r < kRows; ++r)
      for (std::int64_t v = 0; v < kVecs; ++v)
        std::memcpy(c + r * ldc + v * kLanes, &acc[r][v], sizeof(V));
  }
};

// MR x NR double-accumulator tile for the dW numerics contract: the product
// stays float (rounding exactly where the naive `acc += g*c` loop rounds),
// the fold is double, one accumulator per element, ascending k. Overwrite
// semantics: acc starts at zero and C is stored, not added to. Plain
// fixed-extent loops, which the compilers vectorize at the instantiation's
// width: 4 rows x 8 double lanes is sixteen xmm or eight ymm accumulators.
struct TileF64 {
  static constexpr std::int64_t kRows = MR;
  static constexpr bool kAccumulate = false;
  [[gnu::always_inline]] static void run(std::int64_t k, const float* ap, const float* bp,
                                         float* c, std::int64_t ldc) {
    double acc[MR][NR];
    for (std::int64_t r = 0; r < MR; ++r)
      for (std::int64_t j = 0; j < NR; ++j) acc[r][j] = 0.0;
    for (std::int64_t p = 0; p < k; ++p) {
      const float* av = ap + p * MR;
      const float* bv = bp + p * NR;
      for (std::int64_t r = 0; r < MR; ++r) {
        const float arp = av[r];
        for (std::int64_t j = 0; j < NR; ++j) acc[r][j] += static_cast<double>(arp * bv[j]);
      }
    }
    for (std::int64_t r = 0; r < MR; ++r)
      for (std::int64_t j = 0; j < NR; ++j) c[r * ldc + j] = static_cast<float>(acc[r][j]);
  }
};

// Runs one tile at C rows [0, mr) x columns [0, nr). A ragged tile (mr or
// nr short of the full tile) computes into a zero-padded local C tile and
// copies back only the valid elements, so the register tile itself never
// has a bounded load or store.
template <class Tile>
[[gnu::always_inline]] inline void run_tile(std::int64_t k, const float* ap, const float* bp,
                                            float* c, std::int64_t ldc, std::int64_t mr,
                                            std::int64_t nr) {
  if (mr == Tile::kRows && nr == NR) {
    Tile::run(k, ap, bp, c, ldc);
    return;
  }
  float t[Tile::kRows * NR] = {};
  if (Tile::kAccumulate)
    for (std::int64_t r = 0; r < mr; ++r)
      for (std::int64_t j = 0; j < nr; ++j) t[r * NR + j] = c[r * ldc + j];
  Tile::run(k, ap, bp, t, NR);
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = t[r * NR + j];
}

// The macro-kernel over one packed A block of `mc` rows, zero-padded to
// whole tiles: B panel innermost-reused, so one [k][NR] panel stays L1-hot
// while the packed A tiles of this row block stream past it.
template <class Tile>
[[gnu::always_inline]] inline void block(std::int64_t mc, std::int64_t n, std::int64_t k,
                                         const float* ap, const float* bp, float* c,
                                         std::int64_t ldc) {
  for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
    const std::int64_t nr = std::min(NR, n - j0);
    for (std::int64_t i0 = 0; i0 < mc; i0 += Tile::kRows)
      run_tile<Tile>(k, ap + i0 * k, bp + j0 * k, c + i0 * ldc + j0, ldc,
                     std::min(Tile::kRows, mc - i0), nr);
  }
}

using BlockFn = void (*)(std::int64_t mc, std::int64_t n, std::int64_t k, const float* ap,
                         const float* bp, float* c, std::int64_t ldc);

// One instantiation of the kernels: the float tile's height (packed A is
// padded to it) and the two macro-kernels.
struct Kernels {
  std::int64_t f32_rows;
  BlockFn f32;
  BlockFn f64;
};

// Portable: baseline ISA, an MR x NR float tile of eight xmm accumulators.
using PortableF32 = TileF32<MR, F4>;
void block_f32_portable(std::int64_t mc, std::int64_t n, std::int64_t k, const float* ap,
                        const float* bp, float* c, std::int64_t ldc) {
  block<PortableF32>(mc, n, k, ap, bp, c, ldc);
}
void block_f64_portable(std::int64_t mc, std::int64_t n, std::int64_t k, const float* ap,
                        const float* bp, float* c, std::int64_t ldc) {
  block<TileF64>(mc, n, k, ap, bp, c, ldc);
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2: the same source compiled for AVX2, not FMA, so multiply and add
// stay separate instructions. The float tile is two strips tall, eight ymm
// accumulators: enough independent add chains to cover the add latency that
// a four-chain tile waits on.
using Avx2F32 = TileF32<2 * MR, F8>;
[[gnu::target("avx2")]] void block_f32_avx2(std::int64_t mc, std::int64_t n, std::int64_t k,
                                            const float* ap, const float* bp, float* c,
                                            std::int64_t ldc) {
  block<Avx2F32>(mc, n, k, ap, bp, c, ldc);
}
[[gnu::target("avx2")]] void block_f64_avx2(std::int64_t mc, std::int64_t n, std::int64_t k,
                                            const float* ap, const float* bp, float* c,
                                            std::int64_t ldc) {
  block<TileF64>(mc, n, k, ap, bp, c, ldc);
}
#endif

// Chosen once per process from CPUID (which also checks that the OS saves
// the ymm state), so every GEMM of a process runs the same instantiation.
const Kernels& kernels() {
  static const Kernels chosen = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
      return Kernels{Avx2F32::kRows, block_f32_avx2, block_f64_avx2};
#endif
    return Kernels{PortableF32::kRows, block_f32_portable, block_f64_portable};
  }();
  return chosen;
}

// The shared driver of gemm_packed and gemm_f64acc: packs op(A) one MC-row
// block at a time into MR-row strips, zero-padded to a whole number of
// `rows`-tall tiles, and hands each block to the macro-kernel `fn`.
void for_each_a_block(Trans ta, const float* a, std::int64_t lda, std::int64_t m, std::int64_t n,
                      std::int64_t k, std::int64_t rows, BlockFn fn, const float* bp, float* c,
                      std::int64_t ldc) {
  const std::int64_t rs = ta == Trans::N ? lda : 1;
  const std::int64_t cs = ta == Trans::N ? 1 : lda;
  ScratchArena::Frame frame(ScratchArena::tls());
  float* ap = frame.alloc(std::min(MC, (m + rows - 1) / rows * rows) * k);
  for (std::int64_t ic = 0; ic < m; ic += MC) {
    const std::int64_t mc = std::min(MC, m - ic);
    const std::int64_t padded = (mc + rows - 1) / rows * rows;
    for (std::int64_t r = 0; r < mc; r += MR)
      pack_a_strip(a, rs, cs, ic + r, std::min(MR, mc - r), k, ap + r * k);
    std::fill(ap + (mc + MR - 1) / MR * MR * k, ap + padded * k, 0.0f);
    fn(mc, n, k, ap, bp, c + ic * ldc, ldc);
  }
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
  const Kernels& kern = kernels();
  for_each_a_block(ta, a, lda, m, n, k, kern.f32_rows, kern.f32, bp, c, ldc);
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
  ScratchArena::Frame frame(ScratchArena::tls());
  float* bp = frame.alloc(gemm_packed_b_size(k, n));
  gemm_pack_b(tb, b, ldb, k, n, bp);
  for_each_a_block(ta, a, lda, m, n, k, MR, kernels().f64, bp, c, ldc);
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
