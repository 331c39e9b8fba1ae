#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.h"
#include "tensor/gemm.h"

namespace mlperf::nn {

using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

// ---- Linear -----------------------------------------------------------------

Linear::Linear(std::int64_t in_features, std::int64_t out_features, tensor::Rng& rng,
               bool with_bias) {
  weight = register_parameter(
      "weight", init::kaiming_normal({out_features, in_features}, in_features, rng));
  if (with_bias) bias = register_parameter("bias", Tensor({out_features}));
}

Variable Linear::forward(const Variable& x) const {
  // y = x W^T, with W kept [out, in]: the transposed-B GEMM variant absorbs
  // the transpose in its pack step instead of materializing W^T per step.
  Variable y = autograd::matmul(x, weight, tensor::Trans::N, tensor::Trans::T);
  if (bias.numel() > 0) y = autograd::add(y, bias);
  return y;
}

Variable Linear::forward_relu(const Variable& x) const {
  Variable y = autograd::matmul(x, weight, tensor::Trans::N, tensor::Trans::T);
  return bias.numel() > 0 ? autograd::add_relu(y, bias) : autograd::relu(y);
}

// ---- Conv2d -----------------------------------------------------------------

Conv2d::Conv2d(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
               std::int64_t stride_, std::int64_t padding_, tensor::Rng& rng, bool with_bias)
    : stride(stride_), padding(padding_) {
  const std::int64_t fan_in = in_ch * kernel * kernel;
  weight = register_parameter("weight",
                              init::kaiming_normal({out_ch, in_ch, kernel, kernel}, fan_in, rng));
  if (with_bias) bias = register_parameter("bias", Tensor({out_ch}));
}

Variable Conv2d::forward(const Variable& x) const { return conv2d(x, weight, bias, stride, padding); }

// ---- BatchNorm2d ------------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps_, float momentum_)
    : running_mean({channels}), running_var(Shape{channels}, 1.0f), eps(eps_),
      momentum(momentum_) {
  gamma = register_parameter("gamma", Tensor({channels}, 1.0f));
  beta = register_parameter("beta", Tensor({channels}));
  register_buffer("running_mean", running_mean);
  register_buffer("running_var", running_var);
}

Variable BatchNorm2d::forward(const Variable& x) {
  const Tensor& xv = x.value();
  if (xv.ndim() != 4) throw std::invalid_argument("BatchNorm2d: input must be NCHW");
  const std::int64_t n = xv.shape()[0], c = xv.shape()[1], hw = xv.shape()[2] * xv.shape()[3];
  const std::int64_t m = n * hw;  // samples per channel

  Tensor mean({c}), var({c});
  if (training()) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = xv.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) s += p[i];
      }
      mean[ch] = static_cast<float>(s / static_cast<double>(m));
      double v = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = xv.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const double d = p[i] - mean[ch];
          v += d * d;
        }
      }
      var[ch] = static_cast<float>(v / static_cast<double>(m));
    }
    for (std::int64_t ch = 0; ch < c; ++ch) {
      running_mean[ch] = momentum * running_mean[ch] + (1.0f - momentum) * mean[ch];
      running_var[ch] = momentum * running_var[ch] + (1.0f - momentum) * var[ch];
    }
  } else {
    mean = running_mean;
    var = running_var;
  }

  Tensor inv_std({c});
  for (std::int64_t ch = 0; ch < c; ++ch)
    inv_std[ch] = 1.0f / std::sqrt(var[ch] + eps);

  // xhat cached for backward.
  auto xhat = std::make_shared<Tensor>(xv.shape());
  Tensor out(xv.shape());
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float mu = mean[ch], is = inv_std[ch];
      const float ga = gamma.value()[ch], be = beta.value()[ch];
      const float* src = xv.data() + (b * c + ch) * hw;
      float* xh = xhat->data() + (b * c + ch) * hw;
      float* dst = out.data() + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        xh[i] = (src[i] - mu) * is;
        dst[i] = ga * xh[i] + be;
      }
    }

  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  const bool train_mode = training();
  return Variable::from_op(
      std::move(out), {x, gamma, beta},
      [xn, gn, bn, xhat, inv_std, n, c, hw, m, train_mode](const Tensor& g) {
        Tensor dgamma({c}), dbeta({c});
        for (std::int64_t b = 0; b < n; ++b)
          for (std::int64_t ch = 0; ch < c; ++ch) {
            const float* gp = g.data() + (b * c + ch) * hw;
            const float* xh = xhat->data() + (b * c + ch) * hw;
            double dg = 0.0, db = 0.0;
            for (std::int64_t i = 0; i < hw; ++i) {
              dg += static_cast<double>(gp[i]) * xh[i];
              db += gp[i];
            }
            dgamma[ch] += static_cast<float>(dg);
            dbeta[ch] += static_cast<float>(db);
          }
        if (gn->requires_grad) gn->accumulate_grad(dgamma);
        if (bn->requires_grad) bn->accumulate_grad(dbeta);
        if (!xn->requires_grad) return;
        Tensor dx(xn->value.shape());
        const float inv_m = 1.0f / static_cast<float>(m);
        for (std::int64_t ch = 0; ch < c; ++ch) {
          const float ga = gn->value[ch], is = inv_std[ch];
          const float sum_dxhat = dbeta[ch] * ga;           // sum of g*gamma
          const float sum_dxhat_xhat = dgamma[ch] * ga;     // sum of g*gamma*xhat
          for (std::int64_t b = 0; b < n; ++b) {
            const float* gp = g.data() + (b * c + ch) * hw;
            const float* xh = xhat->data() + (b * c + ch) * hw;
            float* dp = dx.data() + (b * c + ch) * hw;
            for (std::int64_t i = 0; i < hw; ++i) {
              const float dxhat = gp[i] * ga;
              if (train_mode) {
                dp[i] = is * (dxhat - inv_m * sum_dxhat - xh[i] * inv_m * sum_dxhat_xhat);
              } else {
                dp[i] = is * dxhat;  // running stats are constants in eval mode
              }
            }
          }
        }
        xn->accumulate_grad(dx);
      });
}

// ---- LayerNorm ----------------------------------------------------------------

LayerNorm::LayerNorm(std::int64_t dim, float eps_) : eps(eps_) {
  gamma = register_parameter("gamma", Tensor({dim}, 1.0f));
  beta = register_parameter("beta", Tensor({dim}));
}

Variable LayerNorm::forward(const Variable& x) const {
  const Tensor& xv = x.value();
  const std::int64_t d = xv.shape().back();
  if (gamma.numel() != d) throw std::invalid_argument("LayerNorm: dim mismatch");
  const std::int64_t rows = xv.numel() / d;

  auto xhat = std::make_shared<Tensor>(xv.shape());
  auto inv_std = std::make_shared<std::vector<float>>(static_cast<std::size_t>(rows));
  Tensor out(xv.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = xv.data() + r * d;
    double s = 0.0;
    for (std::int64_t i = 0; i < d; ++i) s += src[i];
    const float mu = static_cast<float>(s / static_cast<double>(d));
    double v = 0.0;
    for (std::int64_t i = 0; i < d; ++i) {
      const double diff = src[i] - mu;
      v += diff * diff;
    }
    const float is = 1.0f / std::sqrt(static_cast<float>(v / static_cast<double>(d)) + eps);
    (*inv_std)[static_cast<std::size_t>(r)] = is;
    float* xh = xhat->data() + r * d;
    float* dst = out.data() + r * d;
    for (std::int64_t i = 0; i < d; ++i) {
      xh[i] = (src[i] - mu) * is;
      dst[i] = gamma.value()[i] * xh[i] + beta.value()[i];
    }
  }

  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return Variable::from_op(
      std::move(out), {x, gamma, beta}, [xn, gn, bn, xhat, inv_std, rows, d](const Tensor& g) {
        Tensor dgamma({d}), dbeta({d});
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* gp = g.data() + r * d;
          const float* xh = xhat->data() + r * d;
          for (std::int64_t i = 0; i < d; ++i) {
            dgamma[i] += gp[i] * xh[i];
            dbeta[i] += gp[i];
          }
        }
        if (gn->requires_grad) gn->accumulate_grad(dgamma);
        if (bn->requires_grad) bn->accumulate_grad(dbeta);
        if (!xn->requires_grad) return;
        Tensor dx(xn->value.shape());
        const float inv_d = 1.0f / static_cast<float>(d);
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* gp = g.data() + r * d;
          const float* xh = xhat->data() + r * d;
          float* dp = dx.data() + r * d;
          const float is = (*inv_std)[static_cast<std::size_t>(r)];
          double s1 = 0.0, s2 = 0.0;
          for (std::int64_t i = 0; i < d; ++i) {
            const float dxhat = gp[i] * gn->value[i];
            s1 += dxhat;
            s2 += static_cast<double>(dxhat) * xh[i];
          }
          for (std::int64_t i = 0; i < d; ++i) {
            const float dxhat = gp[i] * gn->value[i];
            dp[i] = is * (dxhat - inv_d * static_cast<float>(s1) -
                          xh[i] * inv_d * static_cast<float>(s2));
          }
        }
        xn->accumulate_grad(dx);
      });
}

// ---- Embedding ----------------------------------------------------------------

Embedding::Embedding(std::int64_t vocab, std::int64_t dim, tensor::Rng& rng) {
  table = register_parameter("table",
                             Tensor::randn({vocab, dim}, rng, 0.0f,
                                           1.0f / std::sqrt(static_cast<float>(dim))));
}

Variable Embedding::forward(const std::vector<std::int64_t>& indices) const {
  return autograd::embedding(table, indices);
}

// ---- LSTMCell -------------------------------------------------------------------

namespace {
Tensor lstm_weight(std::int64_t rows, std::int64_t cols, tensor::Rng& rng) {
  return init::xavier_uniform({rows, cols}, rows, cols, rng);
}
}  // namespace

LSTMCell::LSTMCell(std::int64_t input_dim, std::int64_t hidden_dim_, tensor::Rng& rng)
    : hidden_dim(hidden_dim_) {
  wxi = register_parameter("wxi", lstm_weight(input_dim, hidden_dim, rng));
  whi = register_parameter("whi", lstm_weight(hidden_dim, hidden_dim, rng));
  bi = register_parameter("bi", Tensor({hidden_dim}));
  wxf = register_parameter("wxf", lstm_weight(input_dim, hidden_dim, rng));
  whf = register_parameter("whf", lstm_weight(hidden_dim, hidden_dim, rng));
  bf = register_parameter("bf", Tensor({hidden_dim}, 1.0f));  // forget-gate bias 1
  wxg = register_parameter("wxg", lstm_weight(input_dim, hidden_dim, rng));
  whg = register_parameter("whg", lstm_weight(hidden_dim, hidden_dim, rng));
  bg = register_parameter("bg", Tensor({hidden_dim}));
  wxo = register_parameter("wxo", lstm_weight(input_dim, hidden_dim, rng));
  who = register_parameter("who", lstm_weight(hidden_dim, hidden_dim, rng));
  bo = register_parameter("bo", Tensor({hidden_dim}));
}

LSTMCell::State LSTMCell::forward(const Variable& x, const State& prev) const {
  using namespace autograd;
  auto gate = [&](const Variable& wx, const Variable& wh, const Variable& b) {
    return add(add(matmul(x, wx), matmul(prev.h, wh)), b);
  };
  Variable i = sigmoid(gate(wxi, whi, bi));
  Variable f = sigmoid(gate(wxf, whf, bf));
  Variable g = tanh_op(gate(wxg, whg, bg));
  Variable o = sigmoid(gate(wxo, who, bo));
  Variable c_next = add(mul(f, prev.c), mul(i, g));
  Variable h_next = mul(o, tanh_op(c_next));
  return {h_next, c_next};
}

LSTMCell::State LSTMCell::zero_state(std::int64_t batch) const {
  return {Variable(Tensor({batch, hidden_dim})), Variable(Tensor({batch, hidden_dim}))};
}

// ---- LSTM -----------------------------------------------------------------------

LSTM::LSTM(std::int64_t input_dim, std::int64_t hidden_dim, std::int64_t layers,
           tensor::Rng& rng) {
  for (std::int64_t l = 0; l < layers; ++l) {
    cells.push_back(std::make_unique<LSTMCell>(l == 0 ? input_dim : hidden_dim, hidden_dim, rng));
    register_module("layer" + std::to_string(l), *cells.back());
  }
}

std::vector<LSTMCell::State> LSTM::zero_states(std::int64_t batch) const {
  std::vector<LSTMCell::State> s;
  s.reserve(cells.size());
  for (const auto& c : cells) s.push_back(c->zero_state(batch));
  return s;
}

LSTM::Output LSTM::forward(const std::vector<Variable>& xs) const {
  if (xs.empty()) throw std::invalid_argument("LSTM: empty sequence");
  return forward(xs, zero_states(xs[0].shape()[0]));
}

LSTM::Output LSTM::forward(const std::vector<Variable>& xs,
                           const std::vector<LSTMCell::State>& initial) const {
  if (initial.size() != cells.size()) throw std::invalid_argument("LSTM: state count mismatch");
  Output out;
  std::vector<LSTMCell::State> states = initial;
  out.hiddens.reserve(xs.size());
  for (const auto& x : xs) {
    Variable inp = x;
    for (std::size_t l = 0; l < cells.size(); ++l) {
      states[l] = cells[l]->forward(inp, states[l]);
      inp = states[l].h;
    }
    out.hiddens.push_back(inp);
  }
  out.final_states = std::move(states);
  return out;
}

// ---- MultiHeadAttention ------------------------------------------------------------

MultiHeadAttention::MultiHeadAttention(std::int64_t model_dim_, std::int64_t heads_,
                                       tensor::Rng& rng)
    : model_dim(model_dim_), heads(heads_), wq(model_dim_, model_dim_, rng),
      wk(model_dim_, model_dim_, rng), wv(model_dim_, model_dim_, rng),
      wo(model_dim_, model_dim_, rng) {
  if (model_dim % heads != 0)
    throw std::invalid_argument("MultiHeadAttention: model_dim must divide by heads");
  register_module("wq", wq);
  register_module("wk", wk);
  register_module("wv", wv);
  register_module("wo", wo);
}

Variable MultiHeadAttention::project_heads(const Linear& w, const Variable& x) const {
  using namespace autograd;
  const std::int64_t b = x.shape()[0], t = x.shape()[1], dh = model_dim / heads;
  Variable proj = w.forward(reshape(x, {b * t, model_dim}));
  // [B, T, H, Dh] -> [B, H, T, Dh] -> [B*H, T, Dh]
  Variable shaped = reshape(proj, {b, t, heads, dh});
  return reshape(permute(shaped, {0, 2, 1, 3}), {b * heads, t, dh});
}

Variable MultiHeadAttention::forward(const Variable& q_in, const Variable& k_in,
                                     const Variable& v_in, bool causal) const {
  using namespace autograd;
  const std::int64_t b = q_in.shape()[0];
  const std::int64_t tq = q_in.shape()[1];
  const std::int64_t tk = k_in.shape()[1];
  const std::int64_t dh = model_dim / heads;

  Variable q = project_heads(wq, q_in);
  Variable k = project_heads(wk, k_in);
  Variable v = project_heads(wv, v_in);

  Variable scores = bmm(q, k, tensor::Trans::N, tensor::Trans::T);
  // One fused node for scale -> causal mask -> softmax (bitwise the old
  // mul_scalar/add/softmax_last chain — see fused_scaled_softmax).
  Tensor mask;
  if (causal) {
    if (tq != tk) throw std::invalid_argument("causal attention requires Tq == Tk");
    mask = Tensor::uninitialized({tq, tk});
    for (std::int64_t i = 0; i < tq; ++i)
      for (std::int64_t j = 0; j < tk; ++j)
        mask[i * tk + j] = j > i ? -1e9f : 0.0f;
  }
  Variable attn = fused_scaled_softmax(scores, 1.0f / std::sqrt(static_cast<float>(dh)), mask);
  Variable ctx = bmm(attn, v);  // [B*H, Tq, Dh]
  // back to [B, Tq, D]
  Variable merged = reshape(permute(reshape(ctx, {b, heads, tq, dh}), {0, 2, 1, 3}),
                            {b * tq, model_dim});
  return reshape(wo.forward(merged), {b, tq, model_dim});
}

MultiHeadAttention::KvCache MultiHeadAttention::empty_cache(std::int64_t batch,
                                                            std::int64_t max_len) const {
  const std::int64_t dh = model_dim / heads;
  // Rows are written by forward_step's appends before anything reads them.
  return {Tensor::uninitialized({batch * heads, max_len, dh}),
          Tensor::uninitialized({batch * heads, max_len, dh}), 0};
}

MultiHeadAttention::KvCache MultiHeadAttention::project_memory(const Variable& memory) const {
  const std::int64_t s = memory.shape()[1];
  return {std::move(project_heads(wk, memory).mutable_value()),
          std::move(project_heads(wv, memory).mutable_value()), s};
}

// Why the step is bitwise the full-prefix row: every GEMM below (and in the
// projections) folds each output element over k in ascending order with one
// accumulator whatever M is, so a 1-row product equals the matching row of
// the [T]-row product. A causal full forward's row i sees keys j > i only
// through mask -1e9, whose exp underflows to exactly 0 — the softmax
// denominator and the attn·V fold only gain +0 terms. (Dropping the zero
// mask entries only flips the sign of zero scores, which exp() ignores.)
Variable MultiHeadAttention::forward_step(const Variable& x, KvCache& cache, bool append) const {
  const std::int64_t b = x.shape()[0];
  if (x.value().ndim() != 3 || x.shape()[1] != 1 || x.shape()[2] != model_dim)
    throw std::invalid_argument("MultiHeadAttention::forward_step: x must be [B, 1, D]");
  const std::int64_t dh = model_dim / heads;
  const std::int64_t bh = b * heads;
  const std::int64_t max_len = cache.k.shape()[1];
  if (cache.k.shape()[0] != bh)
    throw std::invalid_argument("MultiHeadAttention::forward_step: cache batch mismatch");
  // With one position per sequence the [B, 1, H, Dh] -> [B*H, 1, Dh] head
  // split is a pure reshape: head i's row starts at i*Dh of the [B, D] GEMM.
  const Variable flat = autograd::reshape(x, {b, model_dim});
  const Variable qv = wq.forward(flat);
  const float* q = qv.value().data();
  if (append) {
    if (cache.length >= max_len)
      throw std::invalid_argument("MultiHeadAttention::forward_step: cache full");
    const Variable kv = wk.forward(flat);
    const Variable vv = wv.forward(flat);
    for (std::int64_t i = 0; i < bh; ++i) {
      const std::int64_t dst = (i * max_len + cache.length) * dh;
      std::copy_n(kv.value().data() + i * dh, dh, cache.k.data() + dst);
      std::copy_n(vv.value().data() + i * dh, dh, cache.v.data() + dst);
    }
    ++cache.length;
  }
  const std::int64_t len = cache.length;
  Tensor scores({bh, 1, len});
  const std::int64_t grain = parallel::grain_for(len * dh);
  parallel::parallel_for(grain, bh, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, 1, len, dh, q + i * dh, dh,
                              cache.k.data() + i * max_len * dh, dh, scores.data() + i * len,
                              len);
  });
  const Variable attn = fused_scaled_softmax(
      Variable(std::move(scores)), 1.0f / std::sqrt(static_cast<float>(dh)), Tensor());
  Tensor ctx({b, model_dim});  // [B*H, 1, Dh] merged back to [B, D] is a reshape too
  parallel::parallel_for(grain, bh, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::N, 1, dh, len,
                              attn.value().data() + i * len, len,
                              cache.v.data() + i * max_len * dh, dh, ctx.data() + i * dh, dh);
  });
  return autograd::reshape(wo.forward(Variable(std::move(ctx))), {b, 1, model_dim});
}

}  // namespace mlperf::nn
