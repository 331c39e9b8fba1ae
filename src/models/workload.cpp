#include "models/workload.h"

#include <stdexcept>

#include "checkpoint/state.h"

namespace mlperf::models {

void Workload::save_state(checkpoint::CheckpointWriter& out) const {
  nn::Module* const module = model();
  if (!module || !optimizer_)
    throw std::logic_error(name() + ": cannot checkpoint before build_model");
  checkpoint::write_module(out.section("model"), *module);
  checkpoint::write_optimizer(out.section("optimizer"), *optimizer_);
  checkpoint::write_rng(out.section("rng"), rng_);
  save_sections(out);
}

void Workload::restore_state(const checkpoint::CheckpointReader& in) {
  nn::Module* const module = model();
  if (!module || !optimizer_)
    throw std::logic_error(name() + ": cannot restore before build_model");
  checkpoint::ByteReader model_in = in.section("model");
  checkpoint::read_module(model_in, *module);
  model_in.expect_done();
  checkpoint::ByteReader opt_in = in.section("optimizer");
  checkpoint::read_optimizer(opt_in, *optimizer_);
  opt_in.expect_done();
  checkpoint::ByteReader rng_in = in.section("rng");
  checkpoint::read_rng(rng_in, rng_);
  rng_in.expect_done();
  restore_sections(in);
}

}  // namespace mlperf::models

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
