#pragma once

#include <memory>

#include "data/translation.h"
#include "models/workload.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::models {

/// Mini GNMT (Wu et al. 2016): multi-layer LSTM encoder, multi-layer LSTM
/// decoder with additive (Bahdanau) attention over encoder hidden states, and
/// residual-style input feeding of the attention context into the output
/// projection. The only RNN in the suite (Table 1 row 4).
class GnmtModel : public nn::Module {
 public:
  struct Config {
    std::int64_t vocab = 35;
    std::int64_t embed_dim = 24;
    std::int64_t hidden_dim = 32;
    std::int64_t encoder_layers = 2;
    std::int64_t decoder_layers = 2;
    std::int64_t attn_dim = 24;
  };

  GnmtModel(const Config& config, tensor::Rng& rng);

  /// Teacher-forced forward: returns logits [B*T_tgt, vocab].
  autograd::Variable forward_teacher(const std::vector<data::TokenSeq>& src,
                                     const std::vector<data::TokenSeq>& tgt_in);

  /// Greedy decode (batch of equal-length sources).
  std::vector<data::TokenSeq> greedy_translate(const std::vector<data::TokenSeq>& src,
                                               std::int64_t max_len);

 private:
  /// Encode source; returns per-timestep top-layer hiddens.
  std::vector<autograd::Variable> encode(const std::vector<data::TokenSeq>& src);
  /// Additive attention: context [B, H] over encoder hiddens given query.
  autograd::Variable attend(const autograd::Variable& query,
                            const std::vector<autograd::Variable>& enc_hiddens);

  Config config_;
  nn::Embedding embedding_;
  nn::LSTM encoder_;
  nn::LSTM decoder_;
  nn::Linear attn_query_, attn_key_, attn_v_;
  nn::Linear out_hidden_, out_context_;  // concat(h, ctx) -> vocab, split
};

/// The recurrent translation reference workload (Table 1 row 4).
class GnmtWorkload : public Workload {
 public:
  struct Config {
    data::SyntheticTranslationDataset::Config dataset;
    GnmtModel::Config model;
    std::int64_t batch_size = 16;
    float lr = 2e-3f;
    float grad_clip_norm = 5.0f;
  };

  explicit GnmtWorkload(Config config);

  std::string name() const override { return "translation_recurrent"; }
  void prepare_data() override;
  void build_model(std::uint64_t seed) override;
  void train_epoch() override;
  double evaluate() override;
  std::map<std::string, double> hyperparameters() const override;
  std::int64_t global_batch_size() const override { return config_.batch_size; }
  std::string model_signature() const override { return "GNMT"; }
  std::string optimizer_name() const override { return "adam"; }
  GnmtModel* model() const override { return model_.get(); }

 private:
  Config config_;
  std::unique_ptr<data::SyntheticTranslationDataset> dataset_;
  std::unique_ptr<GnmtModel> model_;
  data::LengthBuckets length_buckets_;  ///< training split, by source length

  /// Section "buckets": the training buckets' shuffled order.
  void save_sections(checkpoint::CheckpointWriter& out) const override;
  void restore_sections(const checkpoint::CheckpointReader& in) override;
};

}  // namespace mlperf::models
