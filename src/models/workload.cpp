#include "models/workload.h"

#include <algorithm>
#include <stdexcept>

#include "checkpoint/state.h"
#include "metrics/metrics.h"

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

void TranslationWorkload::prepare_data() {
  dataset_ = std::make_unique<data::SyntheticTranslationDataset>(dataset_config_);
  length_buckets_ = data::length_buckets(*dataset_, data::Split::kTrain);
}

void TranslationWorkload::train_epoch() {
  if (!dataset_ || !model()) throw std::logic_error(name() + ": not prepared");
  for (const data::TranslationBatch& batch :
       data::shuffled_bucket_batches(*dataset_, length_buckets_, batch_size_, rng_))
    train_step(*optimizer_, step_rule(), [&] { return batch_loss(batch); });
}

double TranslationWorkload::evaluate() {
  if (!dataset_ || !model()) throw std::logic_error(name() + ": not prepared");
  const std::int64_t max_len = dataset_config_.max_len + 2;  // BOS/EOS headroom
  const auto batch = static_cast<std::size_t>(batch_size_);
  std::vector<data::TokenSeq> hyps, refs;
  for (const auto& bucket : data::length_buckets(*dataset_, data::Split::kVal)) {
    for (std::size_t off = 0; off < bucket.size(); off += batch) {
      const std::size_t end = std::min(off + batch, bucket.size());
      std::vector<data::TokenSeq> src;
      for (std::size_t k = off; k < end; ++k) src.push_back(dataset_->val(bucket[k]).source);
      std::vector<data::TokenSeq> out = greedy_translate(src, max_len);
      for (std::size_t k = off; k < end; ++k) {
        refs.push_back(dataset_->val(bucket[k]).target);
        hyps.push_back(std::move(out[k - off]));
      }
    }
  }
  return metrics::bleu(hyps, refs);
}

void TranslationWorkload::save_sections(checkpoint::CheckpointWriter& out) const {
  data::write_length_buckets(out.section("buckets"), length_buckets_);
}

void TranslationWorkload::restore_sections(const checkpoint::CheckpointReader& in) {
  checkpoint::ByteReader buckets = in.section("buckets");
  data::read_length_buckets(buckets, length_buckets_);
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
