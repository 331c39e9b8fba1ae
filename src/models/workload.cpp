#include "models/workload.h"

namespace mlperf::models::detail {

std::vector<tensor::Tensor> quantize_masters(const optim::Optimizer& optimizer,
                                             numerics::Format weights) {
  std::vector<tensor::Tensor> masters;
  if (weights == numerics::Format::kFP32) return masters;
  masters.reserve(optimizer.params().size());
  for (autograd::Variable p : optimizer.params()) {
    masters.push_back(p.value());
    p.mutable_value() = numerics::quantize_tensor(p.value(), weights);
  }
  return masters;
}

void update(optim::Optimizer& optimizer, const StepRule& rule, const autograd::Variable& loss,
            std::vector<tensor::Tensor>& masters) {
  optimizer.zero_grad();
  loss.backward();
  std::vector<autograd::Variable> params = optimizer.params();
  for (std::size_t i = 0; i < masters.size(); ++i) params[i].mutable_value() = std::move(masters[i]);
  if (rule.clip_norm > 0.0f) optim::clip_grad_norm(params, rule.clip_norm);
  optimizer.step(rule.lr);
  if (!masters.empty())
    for (auto& p : params) p.mutable_value() = numerics::quantize_tensor(p.value(), rule.weights);
}

}  // namespace mlperf::models::detail
