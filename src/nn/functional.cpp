#include "nn/functional.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/op_profile.h"
#include "nn/module.h"
#include "parallel/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/scratch.h"

namespace mlperf::nn {

using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

namespace init {

Tensor kaiming_normal(Shape shape, std::int64_t fan_in, tensor::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::randn(std::move(shape), rng, 0.0f, stddev);
}

Tensor xavier_uniform(Shape shape, std::int64_t fan_in, std::int64_t fan_out, tensor::Rng& rng) {
  const float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::rand(std::move(shape), rng, -a, a);
}

}  // namespace init

namespace {

struct ConvDims {
  std::int64_t n, c, h, w, o, kh, kw, oh, ow;
};

ConvDims conv_dims(const Tensor& input, const Tensor& weight, std::int64_t stride,
                   std::int64_t padding) {
  if (input.ndim() != 4 || weight.ndim() != 4)
    throw std::invalid_argument("conv2d: input and weight must be rank 4");
  ConvDims d{};
  d.n = input.shape()[0];
  d.c = input.shape()[1];
  d.h = input.shape()[2];
  d.w = input.shape()[3];
  d.o = weight.shape()[0];
  d.kh = weight.shape()[2];
  d.kw = weight.shape()[3];
  if (weight.shape()[1] != d.c) throw std::invalid_argument("conv2d: channel mismatch");
  d.oh = (d.h + 2 * padding - d.kh) / stride + 1;
  d.ow = (d.w + 2 * padding - d.kw) / stride + 1;
  if (d.oh <= 0 || d.ow <= 0) throw std::invalid_argument("conv2d: output would be empty");
  return d;
}

// cols: [C*KH*KW, OH*OW] for one sample.
void im2col(const float* src, const ConvDims& d, std::int64_t stride, std::int64_t padding,
            float* cols) {
  const std::int64_t patch = d.kh * d.kw;
  for (std::int64_t c = 0; c < d.c; ++c) {
    for (std::int64_t p = 0; p < patch; ++p) {
      const std::int64_t ki = p / d.kw, kj = p % d.kw;
      float* row = cols + (c * patch + p) * (d.oh * d.ow);
      for (std::int64_t oi = 0; oi < d.oh; ++oi) {
        const std::int64_t ii = oi * stride - padding + ki;
        for (std::int64_t oj = 0; oj < d.ow; ++oj) {
          const std::int64_t jj = oj * stride - padding + kj;
          row[oi * d.ow + oj] = (ii >= 0 && ii < d.h && jj >= 0 && jj < d.w)
                                    ? src[(c * d.h + ii) * d.w + jj]
                                    : 0.0f;
        }
      }
    }
  }
}

void col2im_accumulate(const float* cols, const ConvDims& d, std::int64_t stride,
                       std::int64_t padding, float* dst) {
  const std::int64_t patch = d.kh * d.kw;
  for (std::int64_t c = 0; c < d.c; ++c) {
    for (std::int64_t p = 0; p < patch; ++p) {
      const std::int64_t ki = p / d.kw, kj = p % d.kw;
      const float* row = cols + (c * patch + p) * (d.oh * d.ow);
      for (std::int64_t oi = 0; oi < d.oh; ++oi) {
        const std::int64_t ii = oi * stride - padding + ki;
        if (ii < 0 || ii >= d.h) continue;
        for (std::int64_t oj = 0; oj < d.ow; ++oj) {
          const std::int64_t jj = oj * stride - padding + kj;
          if (jj < 0 || jj >= d.w) continue;
          dst[(c * d.h + ii) * d.w + jj] += row[oi * d.ow + oj];
        }
      }
    }
  }
}

// ---- step-scoped im2col pack cache -----------------------------------------

std::atomic<std::int64_t> g_im2col_calls{0};
std::atomic<bool> g_pack_cache_enabled{true};
std::atomic<std::int64_t> g_pack_cache_cap{std::int64_t{256} << 20};
std::atomic<std::int64_t> g_pack_cache_live{0};

// One forward's im2col patch slabs, [N, col_rows*col_cols]. The backward
// closure holds the only owning reference, so Variable::backward()'s graph
// teardown (or plain graph destruction) is what releases the buffer back to
// the TensorPool — the cache is scoped to the step by construction, no
// explicit invalidation step exists or is needed.
struct PackCache {
  tensor::Tensor cols;
  std::int64_t bytes = 0;
  ~PackCache() { g_pack_cache_live.fetch_sub(bytes, std::memory_order_relaxed); }
};

}  // namespace

void set_conv_pack_cache(bool enabled, std::int64_t cap_bytes) {
  g_pack_cache_enabled.store(enabled, std::memory_order_relaxed);
  g_pack_cache_cap.store(cap_bytes, std::memory_order_relaxed);
}

bool conv_pack_cache_enabled() { return g_pack_cache_enabled.load(std::memory_order_relaxed); }

std::int64_t conv_pack_cache_cap_bytes() {
  return g_pack_cache_cap.load(std::memory_order_relaxed);
}

std::int64_t conv_pack_cache_live_bytes() {
  return g_pack_cache_live.load(std::memory_order_relaxed);
}

std::int64_t im2col_calls() { return g_im2col_calls.load(std::memory_order_relaxed); }

Variable conv2d(const Variable& input, const Variable& weight, const Variable& bias,
                std::int64_t stride, std::int64_t padding) {
  const ConvDims d = conv_dims(input.value(), weight.value(), stride, padding);
  const bool has_bias = bias.numel() > 0;
  if (has_bias && bias.numel() != d.o) throw std::invalid_argument("conv2d: bias size mismatch");

  const std::int64_t col_rows = d.c * d.kh * d.kw;
  const std::int64_t col_cols = d.oh * d.ow;
  Tensor out({d.n, d.o, d.oh, d.ow});

  // When backward will need dW, keep this forward's patch slabs alive so the
  // dW pass reads them instead of re-running im2col per sample. An op whose
  // slab would push the global live total past the cap just runs uncached,
  // and so does every op under a NoGradGuard: no backward will run.
  std::shared_ptr<PackCache> cache;
  if (weight.requires_grad() && autograd::grad_enabled() &&
      g_pack_cache_enabled.load(std::memory_order_relaxed)) {
    const std::int64_t bytes =
        d.n * col_rows * col_cols * static_cast<std::int64_t>(sizeof(float));
    if (g_pack_cache_live.load(std::memory_order_relaxed) + bytes <=
        g_pack_cache_cap.load(std::memory_order_relaxed)) {
      cache = std::make_shared<PackCache>();
      // Every slab is fully written by im2col below before the op returns.
      cache->cols = Tensor::uninitialized({d.n, col_rows * col_cols});
      cache->bytes = bytes;
      g_pack_cache_live.fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  // Split over samples: each sample's output slab is written by exactly one
  // task with a kernel whose per-element accumulation order is fixed, so
  // results are bitwise identical at any thread count. The GEMM pack panels
  // (and, uncached, the im2col column buffer) live in the task's scratch
  // arena and are reused across samples and steps.
  g_im2col_calls.fetch_add(1, std::memory_order_relaxed);
  {
    core::OpTimer op_timer(core::ProfiledOp::kConvForward);
    parallel::parallel_for(
        parallel::grain_for(d.o * col_rows * col_cols), d.n,
        [&](std::int64_t s_begin, std::int64_t s_end) {
          tensor::ScratchArena::Frame frame(tensor::ScratchArena::tls());
          float* scratch_cols = cache ? nullptr : frame.alloc(col_rows * col_cols);
          float* bp = frame.alloc(tensor::gemm_packed_b_size(col_rows, col_cols));
          for (std::int64_t s = s_begin; s < s_end; ++s) {
            float* cols =
                cache ? cache->cols.data() + s * col_rows * col_cols : scratch_cols;
            {
              core::OpTimer t(core::ProfiledOp::kIm2col);
              im2col(input.value().data() + s * d.c * d.h * d.w, d, stride, padding, cols);
            }
            tensor::gemm_pack_b(tensor::Trans::N, cols, col_cols, col_rows, col_cols, bp);
            tensor::gemm_packed(tensor::Trans::N, weight.value().data(), col_rows, bp, d.o,
                                col_cols, col_rows, out.data() + s * d.o * col_cols, col_cols);
            if (has_bias) {
              for (std::int64_t o = 0; o < d.o; ++o) {
                const float b = bias.value()[o];
                float* dst = out.data() + (s * d.o + o) * col_cols;
                for (std::int64_t i = 0; i < col_cols; ++i) dst[i] += b;
              }
            }
          }
        });
  }

  auto in_node = input.node();
  auto w_node = weight.node();
  auto b_node = bias.node();
  std::vector<Variable> parents = {input, weight};
  if (has_bias) parents.push_back(bias);
  return Variable::from_op(
      std::move(out), std::move(parents),
      [in_node, w_node, b_node, d, stride, padding, has_bias, cache](const Tensor& g) {
        const std::int64_t col_rows = d.c * d.kh * d.kw;
        const std::int64_t col_cols = d.oh * d.ow;
        const bool need_w = w_node->requires_grad;
        const bool need_x = in_node->requires_grad;
        Tensor dW({d.o, d.c, d.kh, d.kw});
        Tensor dX(in_node->value.shape());
        const std::int64_t wnumel = dW.numel();
        // dW accumulates across samples, so each sample gets a private
        // partial (computed identically at any thread count) and the
        // partials are summed in ascending sample order below — the exact
        // float-add sequence of the old sequential loop. The partials block
        // lives in the calling thread's arena: fully overwritten per sample,
        // read only after the parallel_for joins.
        tensor::ScratchArena::Frame caller_frame(tensor::ScratchArena::tls());
        float* dw_partials = need_w ? caller_frame.alloc(d.n * wnumel) : nullptr;
        const bool repack = need_w && !cache;
        if (repack) g_im2col_calls.fetch_add(1, std::memory_order_relaxed);
        parallel::parallel_for(
            parallel::grain_for(d.o * col_rows * col_cols), d.n,
            [&](std::int64_t s_begin, std::int64_t s_end) {
              tensor::ScratchArena::Frame frame(tensor::ScratchArena::tls());
              float* scratch_cols = repack ? frame.alloc(col_rows * col_cols) : nullptr;
              float* dcols = need_x ? frame.alloc(col_rows * col_cols) : nullptr;
              for (std::int64_t s = s_begin; s < s_end; ++s) {
                const float* gs = g.data() + s * d.o * col_cols;
                if (need_w) {
                  const float* cols;
                  if (cache) {
                    cols = cache->cols.data() + s * col_rows * col_cols;
                  } else {
                    core::OpTimer t(core::ProfiledOp::kIm2col);
                    im2col(in_node->value.data() + s * d.c * d.h * d.w, d, stride, padding,
                           scratch_cols);
                    cols = scratch_cols;
                  }
                  // dW_s[o, col_rows] = g_s[o, col_cols] * cols^T[col_cols, col_rows]
                  // through the packed double-accumulator kernel. gemm_f64acc
                  // keeps the float product / double ascending-k fold of the
                  // naive dot-product loop this replaces, so the weight
                  // gradient is bitwise unchanged (tests/test_gemm.cpp pins
                  // the kernel, tests/test_parallel.cpp the conv trajectory).
                  core::OpTimer t(core::ProfiledOp::kConvDw);
                  tensor::gemm_f64acc(tensor::Trans::N, tensor::Trans::T, d.o, col_rows,
                                      col_cols, gs, col_cols, cols, col_cols,
                                      dw_partials + s * wnumel, col_rows);
                }
                if (need_x) {
                  // dcols = W^T g_s via the transposed-A GEMM variant: the pack
                  // step reads W [O, col_rows] column-wise, so no transposed
                  // copy of the weights is materialized.
                  std::fill(dcols, dcols + col_rows * col_cols, 0.0f);
                  {
                    core::OpTimer t(core::ProfiledOp::kConvDx);
                    tensor::gemm_accumulate(tensor::Trans::T, tensor::Trans::N, col_rows,
                                            col_cols, d.o, w_node->value.data(), col_rows, gs,
                                            col_cols, dcols, col_cols);
                  }
                  core::OpTimer t(core::ProfiledOp::kCol2im);
                  col2im_accumulate(dcols, d, stride, padding,
                                    dX.data() + s * d.c * d.h * d.w);
                }
              }
            });
        if (need_w) {
          for (std::int64_t s = 0; s < d.n; ++s) {
            const float* dws = dw_partials + s * wnumel;
            float* dst = dW.data();
            for (std::int64_t i = 0; i < wnumel; ++i) dst[i] += dws[i];
          }
          w_node->accumulate_grad(dW);
        }
        if (need_x) in_node->accumulate_grad(dX);
        if (has_bias && b_node->requires_grad) {
          Tensor db({d.o});
          core::OpTimer op_timer(core::ProfiledOp::kConvDb);
          // Channel-parallel: each task owns a disjoint range of db entries.
          // Per channel the per-sample double sums fold in ascending s then
          // ascending q — the per-element float-add sequence of the old
          // sequential s-outer loop, so the bias gradient is bitwise
          // unchanged at any thread count.
          float* dbp = db.data();
          parallel::parallel_for(
              parallel::grain_for(d.n * col_cols), d.o,
              [&](std::int64_t o_begin, std::int64_t o_end) {
                for (std::int64_t o = o_begin; o < o_end; ++o)
                  for (std::int64_t s = 0; s < d.n; ++s) {
                    const float* grow = g.data() + (s * d.o + o) * col_cols;
                    double acc = 0.0;
                    for (std::int64_t q = 0; q < col_cols; ++q) acc += grow[q];
                    dbp[o] += static_cast<float>(acc);
                  }
              });
          b_node->accumulate_grad(db);
        }
      });
}

Variable max_pool2d(const Variable& input, std::int64_t kernel, std::int64_t stride) {
  const Tensor& x = input.value();
  if (x.ndim() != 4) throw std::invalid_argument("max_pool2d: input must be rank 4");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("max_pool2d: output would be empty");
  Tensor out({n, c, oh, ow});
  auto argmax = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(n * c * oh * ow));
  // Split over (sample, channel) planes: writes to out/argmax are disjoint.
  parallel::parallel_for(
      parallel::grain_for(oh * ow * kernel * kernel), n * c,
      [&](std::int64_t s_begin, std::int64_t s_end) {
        for (std::int64_t s = s_begin; s < s_end; ++s) {
          const float* plane = x.data() + s * h * w;
          for (std::int64_t oi = 0; oi < oh; ++oi)
            for (std::int64_t oj = 0; oj < ow; ++oj) {
              float best = -std::numeric_limits<float>::infinity();
              std::int64_t best_idx = 0;
              for (std::int64_t ki = 0; ki < kernel; ++ki)
                for (std::int64_t kj = 0; kj < kernel; ++kj) {
                  const std::int64_t ii = oi * stride + ki, jj = oj * stride + kj;
                  const float v = plane[ii * w + jj];
                  if (v > best) {
                    best = v;
                    best_idx = ii * w + jj;
                  }
                }
              const std::int64_t oidx = (s * oh + oi) * ow + oj;
              out[oidx] = best;
              (*argmax)[static_cast<std::size_t>(oidx)] = s * h * w + best_idx;
            }
        }
      });
  auto in_node = input.node();
  const std::int64_t planes = n * c, plane_out = oh * ow;
  return Variable::from_op(
      std::move(out), {input}, [in_node, argmax, planes, plane_out](const Tensor& g) {
        Tensor dx(in_node->value.shape());
        // A plane's argmax indices all land in that plane of dx, so the
        // scatter-add is race-free when split over planes.
        parallel::parallel_for(
            parallel::grain_for(plane_out), planes, [&](std::int64_t s_begin, std::int64_t s_end) {
              for (std::int64_t i = s_begin * plane_out; i < s_end * plane_out; ++i)
                dx[(*argmax)[static_cast<std::size_t>(i)]] += g[i];
            });
        in_node->accumulate_grad(dx);
      });
}

Variable avg_pool2d(const Variable& input, std::int64_t kernel, std::int64_t stride) {
  const Tensor& x = input.value();
  if (x.ndim() != 4) throw std::invalid_argument("avg_pool2d: input must be rank 4");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("avg_pool2d: output would be empty");
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  Tensor out({n, c, oh, ow});
  parallel::parallel_for(
      parallel::grain_for(oh * ow * kernel * kernel), n * c,
      [&](std::int64_t s_begin, std::int64_t s_end) {
        for (std::int64_t s = s_begin; s < s_end; ++s) {
          const float* plane = x.data() + s * h * w;
          for (std::int64_t oi = 0; oi < oh; ++oi)
            for (std::int64_t oj = 0; oj < ow; ++oj) {
              double acc = 0.0;
              for (std::int64_t ki = 0; ki < kernel; ++ki)
                for (std::int64_t kj = 0; kj < kernel; ++kj)
                  acc += plane[(oi * stride + ki) * w + (oj * stride + kj)];
              out[(s * oh + oi) * ow + oj] = static_cast<float>(acc) * inv;
            }
        }
      });
  auto in_node = input.node();
  return Variable::from_op(
      std::move(out), {input}, [in_node, kernel, stride, inv, h, w, oh, ow](const Tensor& g) {
        Tensor dx(in_node->value.shape());
        const std::int64_t planes = dx.numel() / (h * w);
        parallel::parallel_for(
            parallel::grain_for(oh * ow * kernel * kernel), planes,
            [&](std::int64_t s_begin, std::int64_t s_end) {
              for (std::int64_t s = s_begin; s < s_end; ++s) {
                float* dplane = dx.data() + s * h * w;
                for (std::int64_t oi = 0; oi < oh; ++oi)
                  for (std::int64_t oj = 0; oj < ow; ++oj) {
                    const float gv = g[(s * oh + oi) * ow + oj] * inv;
                    for (std::int64_t ki = 0; ki < kernel; ++ki)
                      for (std::int64_t kj = 0; kj < kernel; ++kj)
                        dplane[(oi * stride + ki) * w + (oj * stride + kj)] += gv;
                  }
              }
            });
        in_node->accumulate_grad(dx);
      });
}

Variable global_avg_pool(const Variable& input) {
  const Tensor& x = input.value();
  if (x.ndim() != 4) throw std::invalid_argument("global_avg_pool: input must be rank 4");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], hw = x.shape()[2] * x.shape()[3];
  const float inv = 1.0f / static_cast<float>(hw);
  Tensor out({n, c});
  parallel::parallel_for(
      parallel::grain_for(hw), n * c, [&](std::int64_t s_begin, std::int64_t s_end) {
        for (std::int64_t s = s_begin; s < s_end; ++s) {
          const float* plane = x.data() + s * hw;
          double acc = 0.0;
          for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
          out[s] = static_cast<float>(acc) * inv;
        }
      });
  auto in_node = input.node();
  return Variable::from_op(std::move(out), {input}, [in_node, hw, inv](const Tensor& g) {
    Tensor dx(in_node->value.shape());
    parallel::parallel_for(
        parallel::grain_for(hw), g.numel(), [&](std::int64_t s_begin, std::int64_t s_end) {
          for (std::int64_t s = s_begin; s < s_end; ++s) {
            const float gv = g[s] * inv;
            float* plane = dx.data() + s * hw;
            for (std::int64_t i = 0; i < hw; ++i) plane[i] += gv;
          }
        });
    in_node->accumulate_grad(dx);
  });
}

Variable dropout(const Variable& input, float p, bool training, tensor::Rng& rng) {
  if (!training || p <= 0.0f) return input;
  if (p >= 1.0f) throw std::invalid_argument("dropout: p must be < 1");
  const float scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<Tensor>(input.shape());
  for (std::int64_t i = 0; i < mask->numel(); ++i)
    (*mask)[i] = rng.uniform() < p ? 0.0f : scale;
  Tensor out = input.value().mul(*mask);
  auto in_node = input.node();
  return Variable::from_op(std::move(out), {input}, [in_node, mask](const Tensor& g) {
    in_node->accumulate_grad(g.mul(*mask));
  });
}

Variable upsample2x(const Variable& input) {
  const Tensor& x = input.value();
  if (x.ndim() != 4) throw std::invalid_argument("upsample2x: input must be rank 4");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  Tensor out({n, c, h * 2, w * 2});
  for (std::int64_t s = 0; s < n * c; ++s) {
    const float* src = x.data() + s * h * w;
    float* dst = out.data() + s * 4 * h * w;
    for (std::int64_t i = 0; i < h; ++i)
      for (std::int64_t j = 0; j < w; ++j) {
        const float v = src[i * w + j];
        dst[(2 * i) * 2 * w + 2 * j] = v;
        dst[(2 * i) * 2 * w + 2 * j + 1] = v;
        dst[(2 * i + 1) * 2 * w + 2 * j] = v;
        dst[(2 * i + 1) * 2 * w + 2 * j + 1] = v;
      }
  }
  auto in_node = input.node();
  return Variable::from_op(std::move(out), {input}, [in_node, h, w](const Tensor& g) {
    Tensor dx(in_node->value.shape());
    const std::int64_t planes = dx.numel() / (h * w);
    for (std::int64_t s = 0; s < planes; ++s) {
      const float* gs = g.data() + s * 4 * h * w;
      float* ds = dx.data() + s * h * w;
      for (std::int64_t i = 0; i < h; ++i)
        for (std::int64_t j = 0; j < w; ++j)
          ds[i * w + j] = gs[(2 * i) * 2 * w + 2 * j] + gs[(2 * i) * 2 * w + 2 * j + 1] +
                          gs[(2 * i + 1) * 2 * w + 2 * j] + gs[(2 * i + 1) * 2 * w + 2 * j + 1];
    }
    in_node->accumulate_grad(dx);
  });
}

Variable fused_scaled_softmax(const Variable& scores, float scale, const Tensor& mask) {
  const Tensor& z = scores.value();
  if (z.ndim() < 1) throw std::invalid_argument("fused_scaled_softmax: rank 0");
  const std::int64_t last = z.shape().back();
  const std::int64_t rows = z.numel() / std::max<std::int64_t>(last, 1);
  const bool has_mask = mask.numel() > 0;
  std::int64_t mask_rows = 0;
  if (has_mask) {
    if (mask.ndim() < 1 || mask.shape().back() != last || rows % (mask.numel() / last) != 0)
      throw std::invalid_argument("fused_scaled_softmax: mask rows must tile score rows");
    mask_rows = mask.numel() / last;
  }
  Tensor y = Tensor::uninitialized(z.shape());  // every row fully written below
  {
    core::OpTimer op_timer(core::ProfiledOp::kSoftmaxFused);
    const float* src = z.data();
    const float* mp = has_mask ? mask.data() : nullptr;
    float* dst = y.data();
    parallel::parallel_for(
        parallel::grain_for(4 * last), rows, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t r = begin; r < end; ++r) {
            const float* zr = src + r * last;
            const float* mr = mp ? mp + (r % mask_rows) * last : nullptr;
            float* dr = dst + r * last;
            // Pass 1: scale+mask folded into the max scan; the shifted row is
            // staged in dr so pass 2 reads floats identical to the unfused
            // mul_scalar -> add(mask) -> softmax_last chain.
            float mx = -std::numeric_limits<float>::infinity();
            for (std::int64_t j = 0; j < last; ++j) {
              float v = zr[j] * scale;
              if (mr) v += mr[j];
              dr[j] = v;
              if (v > mx) mx = v;
            }
            // Pass 2: exp fused with the double-precision denominator.
            double denom = 0.0;
            for (std::int64_t j = 0; j < last; ++j) {
              const float e = std::exp(dr[j] - mx);
              dr[j] = e;
              denom += e;
            }
            const float inv = static_cast<float>(1.0 / denom);
            for (std::int64_t j = 0; j < last; ++j) dr[j] *= inv;
          }
        });
  }
  auto zn = scores.node();
  return Variable::from_op(y, {scores}, [zn, y, scale](const Tensor& g) {
    const std::int64_t last = y.shape().back();
    const std::int64_t rows = y.numel() / std::max<std::int64_t>(last, 1);
    Tensor dx = Tensor::uninitialized(y.shape());  // every row written below
    core::OpTimer op_timer(core::ProfiledOp::kSoftmaxFusedBwd);
    parallel::parallel_for(
        parallel::grain_for(4 * last), rows, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t r = begin; r < end; ++r) {
            const float* yr = y.data() + r * last;
            const float* gr = g.data() + r * last;
            float* dr = dx.data() + r * last;
            double dot = 0.0;
            for (std::int64_t j = 0; j < last; ++j) dot += static_cast<double>(yr[j]) * gr[j];
            const float dotf = static_cast<float>(dot);
            // Softmax Jacobian product, then the mul_scalar backward's scale
            // factor — the same two float roundings the unfused chain makes.
            for (std::int64_t j = 0; j < last; ++j) dr[j] = yr[j] * (gr[j] - dotf) * scale;
          }
        });
    zn->accumulate_grad(dx);
  });
}

Variable cross_entropy(const Variable& logits, const std::vector<std::int64_t>& targets) {
  std::vector<float> weights(targets.size(), 1.0f);
  return weighted_cross_entropy(logits, targets, weights);
}

Variable weighted_cross_entropy(const Variable& logits, const std::vector<std::int64_t>& targets,
                                const std::vector<float>& weights) {
  const Tensor& z = logits.value();
  if (z.ndim() != 2) throw std::invalid_argument("cross_entropy: logits must be [N, C]");
  const std::int64_t n = z.shape()[0], c = z.shape()[1];
  if (static_cast<std::int64_t>(targets.size()) != n ||
      static_cast<std::int64_t>(weights.size()) != n)
    throw std::invalid_argument("cross_entropy: targets/weights size mismatch");
  Tensor logp = z.log_softmax_last();
  double wsum = 0.0;
  for (float w : weights) wsum += w;
  if (wsum <= 0.0) wsum = 1.0;
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = targets[i];
    if (t < 0 || t >= c) throw std::out_of_range("cross_entropy: target out of range");
    loss -= static_cast<double>(weights[static_cast<std::size_t>(i)]) * logp[i * c + t];
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / wsum));
  auto zn = logits.node();
  const float inv_wsum = static_cast<float>(1.0 / wsum);
  return Variable::from_op(std::move(out), {logits},
                           [zn, targets, weights, logp, n, c, inv_wsum](const Tensor& g) {
                             // d/dz = w/wsum * (softmax(z) - onehot(t)) * g.
                             // Row-parallel with disjoint writes; zero-weight
                             // rows keep dz's zero fill, so the split does not
                             // change a single bit.
                             Tensor dz({n, c});
                             const float gv = g[0];
                             parallel::parallel_for(
                                 parallel::grain_for(2 * c), n,
                                 [&](std::int64_t begin, std::int64_t end) {
                                   for (std::int64_t i = begin; i < end; ++i) {
                                     const float wi = weights[static_cast<std::size_t>(i)];
                                     if (wi == 0.0f) continue;
                                     const float f = gv * wi * inv_wsum;
                                     const float* lr = logp.data() + i * c;
                                     float* dr = dz.data() + i * c;
                                     for (std::int64_t j = 0; j < c; ++j)
                                       dr[j] = f * std::exp(lr[j]);
                                     dr[targets[static_cast<std::size_t>(i)]] -= f;
                                   }
                                 });
                             zn->accumulate_grad(dz);
                           });
}

Variable smoothed_cross_entropy(const Variable& logits,
                                const std::vector<std::int64_t>& targets, float smoothing) {
  if (smoothing < 0.0f || smoothing >= 1.0f)
    throw std::invalid_argument("smoothed_cross_entropy: smoothing must be in [0, 1)");
  const Tensor& z = logits.value();
  if (z.ndim() != 2) throw std::invalid_argument("smoothed_cross_entropy: logits must be [N, C]");
  const std::int64_t n = z.shape()[0], c = z.shape()[1];
  if (static_cast<std::int64_t>(targets.size()) != n)
    throw std::invalid_argument("smoothed_cross_entropy: targets size mismatch");
  Tensor logp = z.log_softmax_last();
  const float on_target = 1.0f - smoothing;
  const float uniform = smoothing / static_cast<float>(c);
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = targets[static_cast<std::size_t>(i)];
    if (t < 0 || t >= c) throw std::out_of_range("smoothed_cross_entropy: target out of range");
    loss -= static_cast<double>(on_target) * logp[i * c + t];
    for (std::int64_t j = 0; j < c; ++j)
      loss -= static_cast<double>(uniform) * logp[i * c + j];
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / static_cast<double>(n)));
  auto zn = logits.node();
  return Variable::from_op(
      std::move(out), {logits}, [zn, targets, logp, n, c, on_target, uniform](const Tensor& g) {
        // d/dz = (softmax(z) - q) / n, with q the smoothed target distribution.
        // Row-parallel, disjoint writes, every element written: bitwise the
        // old sequential loop at any thread count.
        Tensor dz = Tensor::uninitialized({n, c});
        const float f = g[0] / static_cast<float>(n);
        parallel::parallel_for(
            parallel::grain_for(2 * c), n, [&](std::int64_t begin, std::int64_t end) {
              for (std::int64_t i = begin; i < end; ++i) {
                const float* lr = logp.data() + i * c;
                float* dr = dz.data() + i * c;
                for (std::int64_t j = 0; j < c; ++j) dr[j] = f * (std::exp(lr[j]) - uniform);
                dr[targets[static_cast<std::size_t>(i)]] -= f * on_target;
              }
            });
        zn->accumulate_grad(dz);
      });
}

Variable bce_with_logits(const Variable& logits, const std::vector<float>& targets) {
  const Tensor& z = logits.value();
  const std::int64_t n = z.numel();
  if (static_cast<std::int64_t>(targets.size()) != n)
    throw std::invalid_argument("bce_with_logits: size mismatch");
  // loss_i = max(z,0) - z*t + log(1 + exp(-|z|))  (numerically stable)
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float zi = z[i], ti = targets[static_cast<std::size_t>(i)];
    loss += std::max(zi, 0.0f) - zi * ti + std::log1p(std::exp(-std::fabs(zi)));
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / static_cast<double>(n)));
  auto zn = logits.node();
  return Variable::from_op(std::move(out), {logits}, [zn, targets, n](const Tensor& g) {
    Tensor dz(zn->value.shape());
    const float f = g[0] / static_cast<float>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      const float s = 1.0f / (1.0f + std::exp(-zn->value[i]));
      dz[i] = f * (s - targets[static_cast<std::size_t>(i)]);
    }
    zn->accumulate_grad(dz);
  });
}

Variable smooth_l1(const Variable& pred, const Tensor& target,
                   const std::vector<float>& row_weights) {
  const Tensor& p = pred.value();
  if (!p.same_shape(target)) throw std::invalid_argument("smooth_l1: shape mismatch");
  if (p.ndim() < 1 || static_cast<std::int64_t>(row_weights.size()) != p.shape()[0])
    throw std::invalid_argument("smooth_l1: row_weights size mismatch");
  const std::int64_t rows = p.shape()[0];
  const std::int64_t cols = p.numel() / std::max<std::int64_t>(rows, 1);
  double wsum = 0.0;
  for (float w : row_weights) wsum += w;
  if (wsum <= 0.0) wsum = 1.0;
  double loss = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float w = row_weights[static_cast<std::size_t>(r)];
    if (w == 0.0f) continue;
    for (std::int64_t q = 0; q < cols; ++q) {
      const float d = p[r * cols + q] - target[r * cols + q];
      const float a = std::fabs(d);
      loss += static_cast<double>(w) * (a < 1.0f ? 0.5f * d * d : a - 0.5f);
    }
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / wsum));
  auto pn = pred.node();
  const float inv_wsum = static_cast<float>(1.0 / wsum);
  return Variable::from_op(
      std::move(out), {pred}, [pn, target, row_weights, rows, cols, inv_wsum](const Tensor& g) {
        Tensor dp(pn->value.shape());
        const float gv = g[0];
        for (std::int64_t r = 0; r < rows; ++r) {
          const float w = row_weights[static_cast<std::size_t>(r)];
          if (w == 0.0f) continue;
          for (std::int64_t q = 0; q < cols; ++q) {
            const float d = pn->value[r * cols + q] - target[r * cols + q];
            const float grad = std::fabs(d) < 1.0f ? d : (d > 0.0f ? 1.0f : -1.0f);
            dp[r * cols + q] = gv * w * inv_wsum * grad;
          }
        }
        pn->accumulate_grad(dp);
      });
}

Variable mse(const Variable& pred, const Tensor& target) {
  const Tensor& p = pred.value();
  if (!p.same_shape(target)) throw std::invalid_argument("mse: shape mismatch");
  const std::int64_t n = p.numel();
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[i]) - target[i];
    loss += d * d;
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / static_cast<double>(n)));
  auto pn = pred.node();
  return Variable::from_op(std::move(out), {pred}, [pn, target, n](const Tensor& g) {
    Tensor dp(pn->value.shape());
    const float f = 2.0f * g[0] / static_cast<float>(n);
    for (std::int64_t i = 0; i < n; ++i) dp[i] = f * (pn->value[i] - target[i]);
    pn->accumulate_grad(dp);
  });
}

}  // namespace mlperf::nn
