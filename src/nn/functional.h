#pragma once

#include "autograd/variable.h"

namespace mlperf::nn {

/// Differentiable NCHW 2-D convolution via im2col + GEMM.
/// input: [N, C, H, W]; weight: [O, C, KH, KW]; bias: [O] (may be empty
/// Variable with numel 0 to skip). Output: [N, O, OH, OW].
autograd::Variable conv2d(const autograd::Variable& input, const autograd::Variable& weight,
                          const autograd::Variable& bias, std::int64_t stride,
                          std::int64_t padding);

/// Global average pool: [N, C, H, W] -> [N, C].
autograd::Variable global_avg_pool(const autograd::Variable& input);

/// Nearest-neighbour 2x upsample, NCHW (used by detection FPN-style heads).
autograd::Variable upsample2x(const autograd::Variable& input);

/// Fused scale -> additive-mask -> softmax over the last dim: one graph node
/// replacing the mul_scalar / add(mask) / softmax_last chain in attention.
/// `mask` broadcasts over leading dims (its rows tile the score rows, NumPy
/// right-aligned); pass an empty Tensor for no mask. Forward is two data
/// passes plus the normalize sweep (scale+mask folded into the max scan, exp
/// fused with the double-precision denominator); backward fuses the softmax
/// Jacobian product with the scale factor. Both are refchecked BITWISE (0 ULP)
/// against the unfused chain at 1/2/4/8 threads in tests/test_nn.cpp.
autograd::Variable fused_scaled_softmax(const autograd::Variable& scores, float scale,
                                        const tensor::Tensor& mask);

// ---- conv pack cache & diagnostics -----------------------------------------

// Step-scoped im2col pack cache. A taped conv2d forward whose weight
// requires grad keeps its per-sample im2col patch slabs alive in a pooled
// Tensor owned by the backward closure, and the dW pass reads them from
// there; Variable::backward()'s graph teardown (or graph destruction)
// releases them at the end of the step. A forward under a NoGradGuard, or
// whose weight needs no gradient, keeps no slabs.

/// Bytes of cached patch slabs currently live (forwards whose backward has not
/// yet run/torn down). Returns to 0 once all conv graphs of a step are freed.
std::int64_t conv_pack_cache_live_bytes();
/// Diagnostic counter: cumulative batched im2col sweeps, one per conv2d
/// forward, so a train step costs exactly one sweep per conv layer. Pinned
/// in tests/test_autograd.cpp.
std::int64_t im2col_calls();

// ---- losses ----------------------------------------------------------------

/// Softmax cross-entropy from logits [N, C] and integer targets (size N).
/// Returns mean loss (scalar Variable).
autograd::Variable cross_entropy(const autograd::Variable& logits,
                                 const std::vector<std::int64_t>& targets);

/// As above with per-example weights (used by detection hard-negative mining;
/// weight 0 removes an example from the loss). Mean over sum of weights.
autograd::Variable weighted_cross_entropy(const autograd::Variable& logits,
                                          const std::vector<std::int64_t>& targets,
                                          const std::vector<float>& weights);

/// Label-smoothed cross-entropy (Transformer reference training): the target
/// distribution is (1 - eps) on the true class plus eps/C uniform mass.
/// smoothing = 0 reduces exactly to cross_entropy.
autograd::Variable smoothed_cross_entropy(const autograd::Variable& logits,
                                          const std::vector<std::int64_t>& targets,
                                          float smoothing);

/// Binary cross-entropy from logits [N] (or [N,1]) and float targets in {0,1}.
autograd::Variable bce_with_logits(const autograd::Variable& logits,
                                   const std::vector<float>& targets);

/// Smooth-L1 (Huber, beta=1) between pred and target (same shape), mean over
/// elements with nonzero weight rows; weights has one entry per row of pred.
autograd::Variable smooth_l1(const autograd::Variable& pred, const tensor::Tensor& target,
                             const std::vector<float>& row_weights);

/// Mean squared error against a constant target of the same shape.
autograd::Variable mse(const autograd::Variable& pred, const tensor::Tensor& target);

}  // namespace mlperf::nn
