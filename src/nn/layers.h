#pragma once

#include <optional>

#include "nn/functional.h"
#include "nn/module.h"

namespace mlperf::nn {

/// Fully-connected layer: y = x W^T + b, x is [N, in], W is [out, in].
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, tensor::Rng& rng,
         bool bias = true);

  autograd::Variable forward(const autograd::Variable& x) const;
  /// relu(forward(x)) with the bias-add and the clamp fused into one pass
  /// (autograd::add_relu) — bitwise identical to the unfused chain.
  autograd::Variable forward_relu(const autograd::Variable& x) const;

  autograd::Variable weight;  ///< [out, in]
  autograd::Variable bias;    ///< [out] or empty
};

/// NCHW 2-D convolution layer (bias optional; ResNet uses bias-free convs
/// followed by BatchNorm, per the reference definition).
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel, std::int64_t stride,
         std::int64_t padding, tensor::Rng& rng, bool bias = false);

  autograd::Variable forward(const autograd::Variable& x) const;

  autograd::Variable weight;  ///< [out, in, k, k]
  autograd::Variable bias;    ///< [out] or empty
  std::int64_t stride;
  std::int64_t padding;
};

/// Batch normalization over NCHW (statistics over N, H, W per channel).
/// Training mode uses batch statistics and updates running estimates with the
/// given momentum (the "moving average decay" hyperparameter the paper calls
/// out in §2.1); eval mode uses the running estimates.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f, float momentum = 0.9f);

  autograd::Variable forward(const autograd::Variable& x);

  autograd::Variable gamma;  ///< [C]
  autograd::Variable beta;   ///< [C]
  tensor::Tensor running_mean;  ///< [C]
  tensor::Tensor running_var;   ///< [C]
  float eps;
  float momentum;
};

/// Layer normalization over the last dimension.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t dim, float eps = 1e-5f);

  autograd::Variable forward(const autograd::Variable& x) const;

  autograd::Variable gamma;  ///< [dim]
  autograd::Variable beta;   ///< [dim]
  float eps;
};

/// Token embedding table.
class Embedding : public Module {
 public:
  Embedding(std::int64_t vocab, std::int64_t dim, tensor::Rng& rng);

  /// indices (any length n) -> [n, dim].
  autograd::Variable forward(const std::vector<std::int64_t>& indices) const;

  autograd::Variable table;  ///< [vocab, dim]
};

/// Single LSTM cell; gates use separate per-gate weights for clarity.
class LSTMCell : public Module {
 public:
  LSTMCell(std::int64_t input_dim, std::int64_t hidden_dim, tensor::Rng& rng);

  struct State {
    autograd::Variable h;  ///< [N, H]
    autograd::Variable c;  ///< [N, H]
  };

  /// x: [N, input_dim]; returns next state.
  State forward(const autograd::Variable& x, const State& prev) const;

  State zero_state(std::int64_t batch) const;

  std::int64_t hidden_dim;
  // Gate weights: i (input), f (forget), g (candidate), o (output).
  autograd::Variable wxi, whi, bi;
  autograd::Variable wxf, whf, bf;
  autograd::Variable wxg, whg, bg;
  autograd::Variable wxo, who, bo;
};

/// Multi-layer unidirectional LSTM over a sequence.
class LSTM : public Module {
 public:
  LSTM(std::int64_t input_dim, std::int64_t hidden_dim, std::int64_t layers, tensor::Rng& rng);

  /// xs: per-timestep inputs [N, input_dim]. Returns per-timestep top-layer
  /// hidden states and the final states of every layer.
  struct Output {
    std::vector<autograd::Variable> hiddens;          // T x [N, H]
    std::vector<LSTMCell::State> final_states;        // per layer
  };
  Output forward(const std::vector<autograd::Variable>& xs) const;
  Output forward(const std::vector<autograd::Variable>& xs,
                 const std::vector<LSTMCell::State>& initial) const;

  std::vector<LSTMCell::State> zero_states(std::int64_t batch) const;

  std::vector<std::unique_ptr<LSTMCell>> cells;
};

/// Multi-head scaled-dot-product attention (the Transformer primitive).
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(std::int64_t model_dim, std::int64_t heads, tensor::Rng& rng);

  /// q/k/v: [B, Tq, D], [B, Tk, D], [B, Tk, D]. If `causal`, position i may
  /// only attend to keys <= i (requires Tq == Tk).
  autograd::Variable forward(const autograd::Variable& q, const autograd::Variable& k,
                             const autograd::Variable& v, bool causal = false) const;

  /// Projected keys/values for incremental (one query position at a time)
  /// inference. Rows [0, length) of each [max_len, Dh] head slab are filled.
  struct KvCache {
    tensor::Tensor k;  ///< [B*H, max_len, Dh]
    tensor::Tensor v;  ///< [B*H, max_len, Dh]
    std::int64_t length = 0;
  };
  /// An empty cache with room for `max_len` self-attention positions.
  KvCache empty_cache(std::int64_t batch, std::int64_t max_len) const;
  /// A full cache of `memory` [B, S, D] projected through wk/wv — the
  /// cross-attention keys/values, computed once for a whole decode.
  KvCache project_memory(const autograd::Variable& memory) const;
  /// Cached single-position step, inference only (the attention core records
  /// no tape). x: [B, 1, D]. If `append`, x's own key and value are projected
  /// and appended to `cache` first (self-attention). The query then attends
  /// over every cached position. Bitwise equal to row `cache.length - 1` of
  /// causal forward(xs, xs, xs) over the whole prefix when appending, and to
  /// forward(x, memory, memory) over a project_memory cache otherwise.
  autograd::Variable forward_step(const autograd::Variable& x, KvCache& cache,
                                  bool append) const;

  std::int64_t model_dim;
  std::int64_t heads;
  Linear wq, wk, wv, wo;

 private:
  /// x [B, T, D] through `w`, split into heads: [B*H, T, Dh]. One node.
  autograd::Variable project_heads(const Linear& w, const autograd::Variable& x) const;
  /// ctx [B*H, T, Dh] merged back to [B, T, D] rows through wo. One node.
  autograd::Variable merge_heads(const autograd::Variable& ctx) const;
};

}  // namespace mlperf::nn
