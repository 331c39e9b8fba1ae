#include "optim/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace mlperf::optim {

using autograd::Variable;
using tensor::Tensor;

StepDecayLr::StepDecayLr(float base, float gamma, std::int64_t step_size)
    : base_(base), gamma_(gamma), step_size_(step_size) {
  if (step_size <= 0) throw std::invalid_argument("StepDecayLr: step_size must be > 0");
}

float StepDecayLr::lr(std::int64_t step) const {
  return base_ * std::pow(gamma_, static_cast<float>(step / step_size_));
}

LinearScalingWarmupLr::LinearScalingWarmupLr(float base_lr, std::int64_t batch,
                                             std::int64_t base_batch, std::int64_t warmup_steps,
                                             float gamma, std::int64_t decay_step_size)
    : peak_(base_lr * static_cast<float>(batch) / static_cast<float>(base_batch)),
      warmup_steps_(warmup_steps), gamma_(gamma), decay_step_size_(decay_step_size) {
  if (base_batch <= 0 || decay_step_size <= 0)
    throw std::invalid_argument("LinearScalingWarmupLr: bad arguments");
}

float LinearScalingWarmupLr::lr(std::int64_t step) const {
  if (step < warmup_steps_)
    return peak_ * static_cast<float>(step + 1) / static_cast<float>(warmup_steps_);
  const std::int64_t after = step - warmup_steps_;
  return peak_ * std::pow(gamma_, static_cast<float>(after / decay_step_size_));
}

SgdMomentum::SgdMomentum(std::vector<Variable> params, float momentum, float weight_decay,
                         MomentumSemantics semantics)
    : Optimizer(std::move(params)), momentum_(momentum), weight_decay_(weight_decay),
      semantics_(semantics) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_) velocity_.emplace_back(p.shape());
}

void SgdMomentum::step(float lr) {
  // Fused single-sweep update: the semantics branch is hoisted out of the
  // element loop and the buffers are walked through raw pointers. Per-element
  // arithmetic is expression-for-expression identical to step_unfused(), so
  // the resulting bits are the same (no FMA contraction at the default build
  // flags; refcheck tests pin the equivalence).
  const float mu = momentum_;
  const float wd = weight_decay_;
  const bool lr_inside = semantics_ == MomentumSemantics::kLrInsideMomentum;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* v = velocity_[i].data();
    const std::int64_t n = velocity_[i].numel();
    if (lr_inside) {
      for (std::int64_t j = 0; j < n; ++j) {
        const float grad = g[j] + wd * w[j];
        const float vj = mu * v[j] + lr * grad;  // Eq. 1
        v[j] = vj;
        w[j] -= vj;
      }
    } else {
      for (std::int64_t j = 0; j < n; ++j) {
        const float grad = g[j] + wd * w[j];
        const float vj = mu * v[j] + grad;       // Eq. 2
        v[j] = vj;
        w[j] -= lr * vj;
      }
    }
  }
}

void SgdMomentum::step_unfused(float lr) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    Tensor& w = p.mutable_value();
    const Tensor& g = p.grad();
    Tensor& v = velocity_[i];
    const std::int64_t n = w.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + weight_decay_ * w[j];
      if (semantics_ == MomentumSemantics::kLrInsideMomentum) {
        v[j] = momentum_ * v[j] + lr * grad;  // Eq. 1
        w[j] -= v[j];
      } else {
        v[j] = momentum_ * v[j] + grad;       // Eq. 2
        w[j] -= lr * v[j];
      }
    }
  }
}

OptimizerStateDict SgdMomentum::state_dict() {
  OptimizerStateDict d;
  d.kind = "sgd_momentum";
  for (std::size_t i = 0; i < velocity_.size(); ++i)
    d.tensors.emplace_back("velocity." + std::to_string(i), &velocity_[i]);
  return d;
}

Adam::Adam(std::vector<Variable> params, float beta1, float beta2, float eps, float weight_decay)
    : Optimizer(std::move(params)), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.shape());
    v_.emplace_back(p.shape());
  }
}

void Adam::step(float lr) {
  // Fused single-sweep update over raw pointers; moment reads/writes go
  // through locals so each slot is loaded and stored once per element. The
  // per-element expressions (including the explicit /bc1 and /bc2 divisions —
  // no reciprocal-multiply) match step_unfused() exactly, so the bits do too.
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float b1 = beta1_;
  const float b2 = beta2_;
  const float one_minus_b1 = 1.0f - beta1_;
  const float one_minus_b2 = 1.0f - beta2_;
  const float wd = weight_decay_;
  const float eps = eps_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::int64_t n = m_[i].numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + wd * w[j];
      const float mj = b1 * m[j] + one_minus_b1 * grad;
      const float vj = b2 * v[j] + one_minus_b2 * grad * grad;
      m[j] = mj;
      v[j] = vj;
      const float mhat = mj / bc1;
      const float vhat = vj / bc2;
      w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

void Adam::step_unfused(float lr) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    Tensor& w = p.mutable_value();
    const Tensor& g = p.grad();
    const std::int64_t n = w.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + weight_decay_ * w[j];
      m_[i][j] = beta1_ * m_[i][j] + (1.0f - beta1_) * grad;
      v_[i][j] = beta2_ * v_[i][j] + (1.0f - beta2_) * grad * grad;
      const float mhat = m_[i][j] / bc1;
      const float vhat = v_[i][j] / bc2;
      w[j] -= lr * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

OptimizerStateDict Adam::state_dict() {
  OptimizerStateDict d;
  d.kind = "adam";
  for (std::size_t i = 0; i < m_.size(); ++i)
    d.tensors.emplace_back("m." + std::to_string(i), &m_[i]);
  for (std::size_t i = 0; i < v_.size(); ++i)
    d.tensors.emplace_back("v." + std::to_string(i), &v_[i]);
  d.scalars.emplace_back("step", &t_);
  return d;
}

float clip_grad_norm(const std::vector<Variable>& params, float max_norm) {
  double total = 0.0;
  for (const auto& p : params) total += p.grad().l2_norm_sq();
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const auto& p : params) {
      // Grad tensors are mutated in place through the node.
      Tensor& g = p.node()->grad;
      for (std::int64_t j = 0; j < g.numel(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace mlperf::optim
