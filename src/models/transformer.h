#pragma once

#include <memory>

#include "data/translation.h"
#include "models/workload.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::models {

/// One Transformer block: (optionally causal) self-attention, optional
/// cross-attention, and a position-wise feed-forward net, each wrapped in a
/// post-LN residual (Vaswani et al. 2017).
class TransformerBlock : public nn::Module {
 public:
  TransformerBlock(std::int64_t model_dim, std::int64_t heads, std::int64_t ff_dim,
                   bool causal, bool cross_attention, tensor::Rng& rng);

  /// x: [B, T, D]; memory: encoder output [B, S, D] (required iff cross).
  autograd::Variable forward(const autograd::Variable& x, const autograd::Variable* memory);

  /// Incremental-decode state of one causal block: its self-attention
  /// keys/values so far and the cross-attention keys/values of the memory.
  struct DecodeCache {
    nn::MultiHeadAttention::KvCache self;
    nn::MultiHeadAttention::KvCache cross;
  };
  /// Fresh state for up to `max_len` positions over encoder output `memory`
  /// [B, S, D]; the cross-attention keys/values are projected here, once.
  DecodeCache start_decode(const autograd::Variable& memory, std::int64_t max_len) const;
  /// One position, inference only: x [B, 1, D] -> [B, 1, D], bitwise the
  /// last row of forward() over the whole prefix fed so far.
  autograd::Variable decode_step(const autograd::Variable& x, DecodeCache& cache) const;

 private:
  /// Post-attention half shared by forward and decode_step: the position-wise
  /// FFN inside the ln3 residual. y: [B, T, D].
  autograd::Variable feed_forward(const autograd::Variable& y) const;

  bool causal_;
  bool cross_;
  nn::MultiHeadAttention self_attn_;
  std::unique_ptr<nn::MultiHeadAttention> cross_attn_;
  nn::LayerNorm ln1_, ln2_, ln3_;
  nn::Linear ff1_, ff2_;
};

/// Mini encoder-decoder Transformer for the synthetic translation task.
class TransformerModel : public nn::Module {
 public:
  struct Config {
    std::int64_t vocab = 35;
    std::int64_t model_dim = 32;
    std::int64_t heads = 2;
    std::int64_t ff_dim = 64;
    std::int64_t encoder_blocks = 2;
    std::int64_t decoder_blocks = 2;
    std::int64_t max_len = 16;
  };

  TransformerModel(const Config& config, tensor::Rng& rng);

  /// src: [B][S] token ids (same length per batch). Returns encoder memory.
  autograd::Variable encode(const std::vector<data::TokenSeq>& src);
  /// Decoder with teacher forcing: tgt_in [B][T] -> logits [B*T, vocab].
  autograd::Variable decode(const std::vector<data::TokenSeq>& tgt_in,
                            const autograd::Variable& memory);
  /// KV-cached incremental decode over one encoded batch (see decode_step).
  struct DecodeState {
    std::vector<TransformerBlock::DecodeCache> blocks;  ///< one per decoder block
    std::int64_t position = 0;                          ///< next position to feed
  };
  /// Begins a decode of up to `max_len` positions over encoder output
  /// `memory`; each block's cross-attention keys/values are projected once.
  DecodeState start_decode(const autograd::Variable& memory, std::int64_t max_len) const;
  /// Feeds one token per sequence at the next position and returns that
  /// position's logits [B, vocab] — bitwise the last-position rows of
  /// decode() over the whole prefix fed so far. Inference only.
  autograd::Variable decode_step(const std::vector<std::int64_t>& tokens, DecodeState& state);
  /// Greedy decode of up to `max_len` tokens, one decode_step per position
  /// under a NoGradGuard. Rows that emitted EOS are fed PAD until every row
  /// is done. Returns output tokens (trimmed at the first EOS/PAD) per
  /// sequence.
  std::vector<data::TokenSeq> greedy_translate(const std::vector<data::TokenSeq>& src,
                                               std::int64_t max_len);

  const Config& config() const { return config_; }

 private:
  autograd::Variable embed(const std::vector<data::TokenSeq>& batch);
  /// `flat` holds b rows of t tokens at positions [pos0, pos0 + t) -> [b, t, D].
  autograd::Variable embed(const std::vector<std::int64_t>& flat, std::int64_t b,
                           std::int64_t t, std::int64_t pos0);

  Config config_;
  nn::Embedding embedding_;
  tensor::Tensor positional_;  // [max_len, D]
  std::vector<std::unique_ptr<TransformerBlock>> encoder_;
  std::vector<std::unique_ptr<TransformerBlock>> decoder_;
  nn::Linear out_;
};

/// The non-recurrent translation reference workload (Table 1 row 5).
class TransformerWorkload : public Workload {
 public:
  struct Config {
    data::SyntheticTranslationDataset::Config dataset;
    TransformerModel::Config model;
    std::int64_t batch_size = 16;
    float lr = 3e-3f;
    float label_smoothing = 0.0f;
  };

  explicit TransformerWorkload(Config config);

  std::string name() const override { return "translation_nonrecurrent"; }
  void prepare_data() override;
  void build_model(std::uint64_t seed) override;
  void train_epoch() override;
  double evaluate() override;
  std::map<std::string, double> hyperparameters() const override;
  std::int64_t global_batch_size() const override { return config_.batch_size; }
  std::string model_signature() const override { return "Transformer"; }
  std::string optimizer_name() const override { return "adam"; }
  TransformerModel* model() const override { return model_.get(); }

 private:
  Config config_;
  std::unique_ptr<data::SyntheticTranslationDataset> dataset_;
  std::unique_ptr<TransformerModel> model_;
  data::LengthBuckets length_buckets_;  ///< training split, by source length

  /// Section "buckets": the training buckets' shuffled order.
  void save_sections(checkpoint::CheckpointWriter& out) const override;
  void restore_sections(const checkpoint::CheckpointReader& in) override;
};

}  // namespace mlperf::models
