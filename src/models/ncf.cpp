#include "models/ncf.h"

#include <stdexcept>

#include "checkpoint/state.h"
#include "metrics/metrics.h"
#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;

NeuMf::NeuMf(const Config& config, tensor::Rng& rng)
    : config_(config),
      user_gmf_(config.num_users, config.gmf_dim, rng),
      item_gmf_(config.num_items, config.gmf_dim, rng),
      user_mlp_(config.num_users, config.mlp_dim, rng),
      item_mlp_(config.num_items, config.mlp_dim, rng),
      mlp_u1_(config.mlp_dim, config.mlp_hidden, rng),
      mlp_i1_(config.mlp_dim, config.mlp_hidden, rng, /*bias=*/false),
      mlp2_(config.mlp_hidden, config.mlp_hidden / 2, rng),
      out_gmf_(config.gmf_dim, 1, rng),
      out_mlp_(config.mlp_hidden / 2, 1, rng, /*bias=*/false) {
  register_module("user_gmf", user_gmf_);
  register_module("item_gmf", item_gmf_);
  register_module("user_mlp", user_mlp_);
  register_module("item_mlp", item_mlp_);
  register_module("mlp_u1", mlp_u1_);
  register_module("mlp_i1", mlp_i1_);
  register_module("mlp2", mlp2_);
  register_module("out_gmf", out_gmf_);
  register_module("out_mlp", out_mlp_);
}

Variable NeuMf::forward(const std::vector<std::int64_t>& users,
                        const std::vector<std::int64_t>& items) {
  if (users.size() != items.size()) throw std::invalid_argument("NeuMf: size mismatch");
  Variable gmf = autograd::mul(user_gmf_.forward(users), item_gmf_.forward(items));
  // MLP tower: first layer over concat(u, i) == W_u u + W_i i + b.
  // Both ReLUs use the fused add_relu path (bitwise identical, one pass).
  Variable h = autograd::add_relu(mlp_u1_.forward(user_mlp_.forward(users)),
                                  mlp_i1_.forward(item_mlp_.forward(items)));
  h = mlp2_.forward_relu(h);
  // Output over concat(gmf, mlp) == out_gmf(gmf) + out_mlp(mlp).
  return autograd::add(out_gmf_.forward(gmf), out_mlp_.forward(h));
}

NcfWorkload::NcfWorkload(Config config) : config_(std::move(config)), rng_(1) {
  config_.model.num_users = config_.dataset.num_users;
  config_.model.num_items = config_.dataset.num_items;
}

void NcfWorkload::prepare_data() {
  dataset_ = std::make_unique<data::ImplicitCfDataset>(config_.dataset);
}

void NcfWorkload::build_model(std::uint64_t seed) {
  rng_ = tensor::Rng(seed);
  tensor::Rng init_rng = rng_.split();
  model_ = std::make_unique<NeuMf>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::Adam>(model_->parameters());
}

void NcfWorkload::train_epoch() {
  if (!dataset_ || !model_) throw std::logic_error("NcfWorkload: not prepared");
  const auto& interactions = dataset_->train_interactions();
  std::vector<std::size_t> order = rng_.permutation(interactions.size());
  std::vector<std::int64_t> users, items;
  std::vector<float> labels;
  auto flush = [&] {
    if (users.empty()) return;
    train_step(*optimizer_, {.lr = config_.lr},
               [&] { return nn::bce_with_logits(model_->forward(users, items), labels); });
    users.clear();
    items.clear();
    labels.clear();
  };
  for (std::size_t idx : order) {
    const auto& inter = interactions[idx];
    users.push_back(inter.user);
    items.push_back(inter.item);
    labels.push_back(1.0f);
    for (std::int64_t k = 0; k < config_.negatives_per_positive; ++k) {
      users.push_back(inter.user);
      items.push_back(dataset_->sample_negative(inter.user, rng_));
      labels.push_back(0.0f);
    }
    if (static_cast<std::int64_t>(users.size()) >= config_.batch_size) flush();
  }
  flush();
}

double NcfWorkload::evaluate() {
  if (!dataset_ || !model_) throw std::logic_error("NcfWorkload: not prepared");
  std::vector<std::vector<float>> scores;
  scores.reserve(static_cast<std::size_t>(dataset_->num_users()));
  for (std::int64_t u = 0; u < dataset_->num_users(); ++u) {
    const auto& cand = dataset_->eval_candidates()[static_cast<std::size_t>(u)];
    std::vector<std::int64_t> users(cand.size(), u);
    Variable logits = model_->forward(users, cand);
    std::vector<float> s(cand.size());
    for (std::size_t i = 0; i < cand.size(); ++i)
      s[i] = logits.value()[static_cast<std::int64_t>(i)];
    scores.push_back(std::move(s));
  }
  return metrics::hit_rate_at_k(scores, 10);
}

void NcfWorkload::save_state(checkpoint::CheckpointWriter& out) const {
  if (!model_ || !optimizer_)
    throw std::logic_error("NcfWorkload: cannot checkpoint before build_model");
  checkpoint::write_module(out.section("model"), *model_);
  checkpoint::write_optimizer(out.section("optimizer"), *optimizer_);
  checkpoint::write_rng(out.section("rng"), rng_);
}

void NcfWorkload::restore_state(const checkpoint::CheckpointReader& in) {
  if (!model_ || !optimizer_)
    throw std::logic_error("NcfWorkload: cannot restore before build_model");
  checkpoint::ByteReader model_in = in.section("model");
  checkpoint::read_module(model_in, *model_);
  checkpoint::ByteReader opt_in = in.section("optimizer");
  checkpoint::read_optimizer(opt_in, *optimizer_);
  checkpoint::ByteReader rng_in = in.section("rng");
  checkpoint::read_rng(rng_in, rng_);
}

std::map<std::string, double> NcfWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"negatives_per_positive", static_cast<double>(config_.negatives_per_positive)}};
}

}  // namespace mlperf::models
