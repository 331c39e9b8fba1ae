#pragma once

#include <cstdint>

namespace mlperf::tensor {

/// Operand orientation for the GEMM entry points. `T` means the stored
/// matrix is consumed transposed; the pack routines absorb the transpose
/// while copying panels, so no materialized transpose is ever needed.
enum class Trans : std::uint8_t { N, T };

// Blocking parameters of the packed kernel (see EXPERIMENTS.md, "GEMM
// micro-kernel"). Packed A strips are MR rows and packed B panels NR
// columns. The float register tile is MR x NR on baseline ISAs and two
// strips tall (2*MR x NR) on AVX2 hosts, chosen once per process from CPUID;
// the layouts are the same either way. MC bounds the packed A panel so it
// stays cache-resident while a B panel streams past it. K is not blocked:
// each C element folds its k-products in one ascending pass, which is what
// makes the kernel bitwise reproducible (see gemm_accumulate_ref).
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 8;
inline constexpr std::int64_t kGemmMC = 64;

/// Floats needed for a packed B panel of op(B) with k rows and n columns
/// (n rounded up to a multiple of kGemmNR, zero-padded).
std::int64_t gemm_packed_b_size(std::int64_t k, std::int64_t n);

/// Pack op(B) (k x n after the optional transpose) into `bp`, laid out as
/// ceil(n/NR) panels of [k][NR]. `ldb` is the leading dimension of the
/// STORED matrix: op(B)[p][j] = b[p*ldb + j] when N, b[j*ldb + p] when T.
/// A packed panel is read-only afterwards and may be shared across the
/// row-partitions of a threaded GEMM.
void gemm_pack_b(Trans tb, const float* b, std::int64_t ldb, std::int64_t k, std::int64_t n,
                 float* bp);

/// C[m,n] (row-major, leading dimension ldc) += op(A) * Bp, where Bp was
/// filled by gemm_pack_b. op(A)[i][p] = a[i*lda + p] when N, a[p*lda + i]
/// when T. A panels are packed into the calling thread's ScratchArena.
/// Deterministic: every C element accumulates C_initial + sum of its
/// k-products in ascending k order with a single float accumulator, so the
/// result is independent of tiling, threading and call-site partitioning.
void gemm_packed(Trans ta, const float* a, std::int64_t lda, const float* bp, std::int64_t m,
                 std::int64_t n, std::int64_t k, float* c, std::int64_t ldc);

/// One-call form: packs op(B) into the calling thread's scratch arena, then
/// runs gemm_packed. C[m,n] += op(A)[m,k] * op(B)[k,n].
void gemm_accumulate(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc);

/// The pre-PR2 scalar kernel, retained as the numerics reference: blocked
/// i-k-j loops, one accumulator per C element, ascending k. The packed
/// kernel keeps exactly this per-element accumulation order, so the
/// refcheck contract (tests/test_gemm.cpp) is EXACT BITWISE EQUALITY —
/// a 0-ULP tolerance. Any future kernel that reorders the summation
/// (k-splitting, multiple accumulators, FMA-only paths) must widen the
/// documented tolerance in EXPERIMENTS.md and relax the test in the same
/// change.
void gemm_accumulate_ref(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                         std::int64_t n);

/// Packed, cache-blocked GEMM with DOUBLE accumulators — the conv2d weight
/// gradient kernel. OVERWRITE semantics:
///
///   C[i][j] = float( sum over p ascending of double( op(A)[i][p] * op(B)[p][j] ) )
///
/// Each product is computed in float (exactly as the naive dW dot-product
/// loop does: float*float rounds before widening) and folded into ONE double
/// accumulator per C element in ascending k order. MR x NR register tiling
/// with double accumulator lanes, MC blocking on the packed A panel, K
/// un-blocked — so the result is bitwise identical to gemm_f64acc_ref at any
/// tiling, threading or call-site partitioning (a 0-ULP contract, pinned in
/// tests/test_gemm.cpp). k <= 0 zeroes C (the naive loop writes float(0.0)).
/// Existing C contents are ignored — this is NOT an accumulate kernel.
void gemm_f64acc(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                 std::int64_t ldc);

/// The naive reference for gemm_f64acc: the exact double-accumulator
/// dot-product loop conv2d's dW used before the packed kernel, generalized to
/// the four Trans orientations. Retained forever as the 0-ULP refcheck
/// target; any future kernel that widens the product to double or splits the
/// k-fold must update EXPERIMENTS.md and the test tolerance in one change.
void gemm_f64acc_ref(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc);

}  // namespace mlperf::tensor
