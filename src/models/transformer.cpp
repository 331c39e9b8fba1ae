#include "models/transformer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "checkpoint/format.h"
#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;
using data::TokenSeq;
using tensor::Tensor;

TransformerBlock::TransformerBlock(std::int64_t model_dim, std::int64_t heads,
                                   std::int64_t ff_dim, bool causal, bool cross_attention,
                                   tensor::Rng& rng)
    : causal_(causal), cross_(cross_attention), self_attn_(model_dim, heads, rng),
      ln1_(model_dim), ln2_(model_dim), ln3_(model_dim),
      ff1_(model_dim, ff_dim, rng), ff2_(ff_dim, model_dim, rng) {
  register_module("self_attn", self_attn_);
  register_module("ln1", ln1_);
  register_module("ln2", ln2_);
  register_module("ln3", ln3_);
  register_module("ff1", ff1_);
  register_module("ff2", ff2_);
  if (cross_) {
    cross_attn_ = std::make_unique<nn::MultiHeadAttention>(model_dim, heads, rng);
    register_module("cross_attn", *cross_attn_);
  }
}

Variable TransformerBlock::forward(const Variable& x, const Variable* memory) {
  Variable y = ln1_.forward(autograd::add(x, self_attn_.forward(x, x, x, causal_)));
  if (cross_) {
    if (!memory) throw std::invalid_argument("TransformerBlock: cross block needs memory");
    y = ln2_.forward(autograd::add(y, cross_attn_->forward(y, *memory, *memory, false)));
  }
  return feed_forward(y);
}

Variable TransformerBlock::feed_forward(const Variable& y) const {
  const std::int64_t b = y.shape()[0], t = y.shape()[1], d = y.shape()[2];
  Variable flat = autograd::reshape(y, {b * t, d});
  Variable ff = ff2_.forward(ff1_.forward_relu(flat));  // fused bias+ReLU
  return ln3_.forward(autograd::add(y, autograd::reshape(ff, {b, t, d})));
}

TransformerBlock::DecodeCache TransformerBlock::start_decode(const Variable& memory,
                                                             std::int64_t max_len) const {
  if (!causal_) throw std::logic_error("TransformerBlock: only causal blocks decode stepwise");
  DecodeCache cache{self_attn_.empty_cache(memory.shape()[0], max_len), {}};
  if (cross_) cache.cross = cross_attn_->project_memory(memory);
  return cache;
}

Variable TransformerBlock::decode_step(const Variable& x, DecodeCache& cache) const {
  Variable y = ln1_.forward(autograd::add(x, self_attn_.forward_step(x, cache.self, true)));
  if (cross_)
    y = ln2_.forward(autograd::add(y, cross_attn_->forward_step(y, cache.cross, false)));
  return feed_forward(y);
}

TransformerModel::TransformerModel(const Config& config, tensor::Rng& rng)
    : config_(config), embedding_(config.vocab, config.model_dim, rng),
      positional_({config.max_len, config.model_dim}),
      out_(config.model_dim, config.vocab, rng) {
  register_module("embedding", embedding_);
  register_module("out", out_);
  for (std::int64_t i = 0; i < config.encoder_blocks; ++i) {
    encoder_.push_back(std::make_unique<TransformerBlock>(config.model_dim, config.heads,
                                                          config.ff_dim, false, false, rng));
    register_module("enc" + std::to_string(i), *encoder_.back());
  }
  for (std::int64_t i = 0; i < config.decoder_blocks; ++i) {
    decoder_.push_back(std::make_unique<TransformerBlock>(config.model_dim, config.heads,
                                                          config.ff_dim, true, true, rng));
    register_module("dec" + std::to_string(i), *decoder_.back());
  }
  // Sinusoidal positional encodings (Vaswani et al. §3.5).
  for (std::int64_t pos = 0; pos < config.max_len; ++pos)
    for (std::int64_t i = 0; i < config.model_dim; ++i) {
      const double rate =
          static_cast<double>(pos) /
          std::pow(10000.0, 2.0 * static_cast<double>(i / 2) / static_cast<double>(config.model_dim));
      positional_.at({pos, i}) =
          static_cast<float>(i % 2 == 0 ? std::sin(rate) : std::cos(rate));
    }
}

Variable TransformerModel::embed(const std::vector<TokenSeq>& batch) {
  if (batch.empty()) throw std::invalid_argument("TransformerModel: empty batch");
  const std::int64_t b = static_cast<std::int64_t>(batch.size());
  const std::int64_t t = static_cast<std::int64_t>(batch[0].size());
  std::vector<std::int64_t> flat;
  flat.reserve(static_cast<std::size_t>(b * t));
  for (const auto& seq : batch) {
    if (static_cast<std::int64_t>(seq.size()) != t)
      throw std::invalid_argument("TransformerModel: ragged batch (bucket by length)");
    flat.insert(flat.end(), seq.begin(), seq.end());
  }
  return embed(flat, b, t, 0);
}

Variable TransformerModel::embed(const std::vector<std::int64_t>& flat, std::int64_t b,
                                 std::int64_t t, std::int64_t pos0) {
  if (b == 0) throw std::invalid_argument("TransformerModel: empty batch");
  if (pos0 + t > config_.max_len)
    throw std::invalid_argument("TransformerModel: sequence too long");
  Variable emb = embedding_.forward(flat);  // [b*t, D]
  emb = autograd::mul_scalar(emb, std::sqrt(static_cast<float>(config_.model_dim)));
  // Add positional encodings: build [b*t, D] constant.
  Tensor pos({b * t, config_.model_dim});
  for (std::int64_t r = 0; r < b * t; ++r) {
    const std::int64_t p = pos0 + r % t;
    std::copy(positional_.data() + p * config_.model_dim,
              positional_.data() + (p + 1) * config_.model_dim,
              pos.data() + r * config_.model_dim);
  }
  return autograd::reshape(autograd::add(emb, Variable(pos)), {b, t, config_.model_dim});
}

Variable TransformerModel::encode(const std::vector<TokenSeq>& src) {
  Variable x = embed(src);
  for (auto& block : encoder_) x = block->forward(x, nullptr);
  return x;
}

Variable TransformerModel::decode(const std::vector<TokenSeq>& tgt_in, const Variable& memory) {
  Variable x = embed(tgt_in);
  for (auto& block : decoder_) x = block->forward(x, &memory);
  const std::int64_t b = x.shape()[0], t = x.shape()[1];
  return out_.forward(autograd::reshape(x, {b * t, config_.model_dim}));
}

TransformerModel::DecodeState TransformerModel::start_decode(const Variable& memory,
                                                             std::int64_t max_len) const {
  DecodeState state;
  for (const auto& block : decoder_) state.blocks.push_back(block->start_decode(memory, max_len));
  return state;
}

Variable TransformerModel::decode_step(const std::vector<std::int64_t>& tokens,
                                       DecodeState& state) {
  const std::int64_t b = static_cast<std::int64_t>(tokens.size());
  Variable x = embed(tokens, b, 1, state.position);
  for (std::size_t i = 0; i < decoder_.size(); ++i)
    x = decoder_[i]->decode_step(x, state.blocks[i]);
  ++state.position;
  return out_.forward(autograd::reshape(x, {b, config_.model_dim}));
}

std::vector<TokenSeq> TransformerModel::greedy_translate(const std::vector<TokenSeq>& src,
                                                         std::int64_t max_len) {
  autograd::NoGradGuard no_grad;
  Variable memory = encode(src);
  const std::size_t b = src.size();
  // Positions past config_.max_len throw in embed(), at the step that needs them.
  DecodeState state =
      start_decode(memory, std::max<std::int64_t>(0, std::min(max_len, config_.max_len)));
  std::vector<TokenSeq> generated(b);
  std::vector<std::int64_t> fed(b, data::kBos);
  std::vector<bool> done(b, false);
  for (std::int64_t step = 0; step < max_len; ++step) {
    const std::vector<std::int64_t> best = decode_step(fed, state).value().argmax_last();
    bool all_done = true;
    for (std::size_t i = 0; i < b; ++i) {
      if (done[i]) {
        fed[i] = data::kPad;
        continue;
      }
      generated[i].push_back(best[i]);
      fed[i] = best[i];
      if (best[i] == data::kEos) {
        done[i] = true;
      } else {
        all_done = false;
      }
    }
    if (all_done) break;
  }
  // Trim at the first EOS / PAD.
  for (auto& g : generated) {
    const auto end = std::find_if(g.begin(), g.end(), [](std::int64_t tok) {
      return tok == data::kEos || tok == data::kPad;
    });
    g.erase(end, g.end());
  }
  return generated;
}

TransformerWorkload::TransformerWorkload(Config config) : config_(std::move(config)) {
  config_.model.vocab = config_.dataset.vocab + data::kFirstWord;
  config_.model.max_len = config_.dataset.max_len + 2;  // BOS/EOS headroom
}

void TransformerWorkload::prepare_data() {
  dataset_ = std::make_unique<data::SyntheticTranslationDataset>(config_.dataset);
  length_buckets_ = data::length_buckets(*dataset_, data::Split::kTrain);
}

void TransformerWorkload::build_model(std::uint64_t seed) {
  tensor::Rng init_rng = reseed(seed);
  model_ = std::make_unique<TransformerModel>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::Adam>(model_->parameters());
}

void TransformerWorkload::train_epoch() {
  if (!dataset_ || !model_) throw std::logic_error("TransformerWorkload: not prepared");
  for (const data::TranslationBatch& batch :
       data::shuffled_bucket_batches(*dataset_, length_buckets_, config_.batch_size, rng_)) {
    train_step(*optimizer_, {.lr = config_.lr}, [&] {
      Variable memory = model_->encode(batch.src);
      Variable logits = model_->decode(batch.tgt_in, memory);
      return config_.label_smoothing > 0.0f
                 ? nn::smoothed_cross_entropy(logits, batch.targets, config_.label_smoothing)
                 : nn::cross_entropy(logits, batch.targets);
    });
  }
}

double TransformerWorkload::evaluate() {
  if (!dataset_ || !model_) throw std::logic_error("TransformerWorkload: not prepared");
  return bleu_by_length(*dataset_, config_.batch_size, config_.dataset.max_len + 2,
                        [&](const std::vector<TokenSeq>& src, std::int64_t max_len) {
                          return model_->greedy_translate(src, max_len);
                        });
}

void TransformerWorkload::save_sections(checkpoint::CheckpointWriter& out) const {
  data::write_length_buckets(out.section("buckets"), length_buckets_);
}

void TransformerWorkload::restore_sections(const checkpoint::CheckpointReader& in) {
  checkpoint::ByteReader buckets = in.section("buckets");
  data::read_length_buckets(buckets, length_buckets_);
}

std::map<std::string, double> TransformerWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"label_smoothing", config_.label_smoothing}};
}

}  // namespace mlperf::models
