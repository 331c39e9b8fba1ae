#pragma once

#include <memory>

#include "data/recsys.h"
#include "models/workload.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::models {

/// NeuMF (He et al. 2017): a GMF branch (elementwise product of user/item
/// embeddings) fused with an MLP branch over concatenated embeddings. The
/// concatenations are expressed as sums of parallel linear maps (algebraically
/// identical to a linear layer over the concatenated vector).
class NeuMf : public nn::Module {
 public:
  struct Config {
    std::int64_t num_users = 64;
    std::int64_t num_items = 128;
    std::int64_t gmf_dim = 8;
    std::int64_t mlp_dim = 8;
    std::int64_t mlp_hidden = 16;
  };

  NeuMf(const Config& config, tensor::Rng& rng);

  /// Scores (logits) for user/item id pairs; returns [n, 1].
  autograd::Variable forward(const std::vector<std::int64_t>& users,
                             const std::vector<std::int64_t>& items);

 private:
  Config config_;
  nn::Embedding user_gmf_, item_gmf_, user_mlp_, item_mlp_;
  nn::Linear mlp_u1_, mlp_i1_;  // first MLP layer split over the concat halves
  nn::Linear mlp2_;
  nn::Linear out_gmf_, out_mlp_;  // final layer split over the concat halves
};

/// The recommendation reference workload (Table 1 row 6).
class NcfWorkload : public Workload {
 public:
  struct Config {
    data::ImplicitCfDataset::Config dataset;
    NeuMf::Config model;
    std::int64_t batch_size = 64;
    std::int64_t negatives_per_positive = 4;
    float lr = 0.02f;
  };

  explicit NcfWorkload(Config config);

  std::string name() const override { return "recommendation"; }
  void prepare_data() override;
  void build_model(std::uint64_t seed) override;
  void train_epoch() override;
  double evaluate() override;
  std::map<std::string, double> hyperparameters() const override;
  std::int64_t global_batch_size() const override { return config_.batch_size; }
  std::string model_signature() const override { return "NCF"; }
  std::string optimizer_name() const override { return "adam"; }

  /// The NCF traversal (shuffle + negative sampling) is a pure function of
  /// the run rng, so model, optimizer and rng are its whole training state.
  NeuMf* model() const override { return model_.get(); }

 private:
  Config config_;
  std::unique_ptr<data::ImplicitCfDataset> dataset_;
  std::unique_ptr<NeuMf> model_;
};

}  // namespace mlperf::models
