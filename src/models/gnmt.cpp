#include "models/gnmt.h"

#include <stdexcept>

#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;
using data::TokenSeq;
using tensor::Tensor;

GnmtModel::GnmtModel(const Config& config, tensor::Rng& rng)
    : config_(config), embedding_(config.vocab, config.embed_dim, rng),
      encoder_(config.embed_dim, config.hidden_dim, config.encoder_layers, rng),
      decoder_(config.embed_dim + config.hidden_dim, config.hidden_dim,
               config.decoder_layers, rng),
      attn_query_(config.hidden_dim, config.attn_dim, rng),
      attn_key_(config.hidden_dim, config.attn_dim, rng, /*bias=*/false),
      attn_v_(config.attn_dim, 1, rng, /*bias=*/false),
      out_hidden_(config.hidden_dim, config.vocab, rng),
      out_context_(config.hidden_dim, config.vocab, rng, /*bias=*/false) {
  register_module("embedding", embedding_);
  register_module("encoder", encoder_);
  register_module("decoder", decoder_);
  register_module("attn_query", attn_query_);
  register_module("attn_key", attn_key_);
  register_module("attn_v", attn_v_);
  register_module("out_hidden", out_hidden_);
  register_module("out_context", out_context_);
}

std::vector<Variable> GnmtModel::encode(const std::vector<TokenSeq>& src) {
  if (src.empty()) throw std::invalid_argument("GnmtModel: empty batch");
  const std::size_t t_len = src[0].size();
  std::vector<Variable> xs;
  xs.reserve(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    std::vector<std::int64_t> toks;
    toks.reserve(src.size());
    for (const auto& s : src) {
      if (s.size() != t_len)
        throw std::invalid_argument("GnmtModel: ragged batch (bucket by length)");
      toks.push_back(s[t]);
    }
    xs.push_back(embedding_.forward(toks));
  }
  return encoder_.forward(xs).hiddens;
}

Variable GnmtModel::attend(const Variable& query, const std::vector<Variable>& enc_hiddens) {
  // scores[:, t] = v^T tanh(Wq q + Wk h_t), one [B, 1] column per t, softmaxed over t.
  Variable q_proj = attn_query_.forward(query);  // [B, A]
  std::vector<Variable> score_cols;
  score_cols.reserve(enc_hiddens.size());
  for (const auto& h : enc_hiddens)
    score_cols.push_back(attn_v_.forward(
        autograd::tanh_op(autograd::add(q_proj, attn_key_.forward(h)))));  // [B, 1]
  Variable alphas = autograd::softmax_last(autograd::cat(score_cols, 1));  // [B, T]
  Variable context;  // accumulate sum_t alpha_t * h_t
  for (std::size_t t = 0; t < enc_hiddens.size(); ++t) {
    const auto ti = static_cast<std::int64_t>(t);
    Variable term = autograd::mul(autograd::slice(alphas, 1, ti, ti + 1), enc_hiddens[t]);
    context = (t == 0) ? term : autograd::add(context, term);  // [B, H]
  }
  return context;
}

Variable GnmtModel::forward_teacher(const std::vector<TokenSeq>& src,
                                    const std::vector<TokenSeq>& tgt_in) {
  std::vector<Variable> enc = encode(src);
  const std::int64_t b = static_cast<std::int64_t>(src.size());
  auto states = decoder_.zero_states(b);
  Variable context(Tensor({b, config_.hidden_dim}));
  std::vector<Variable> step_logits;
  const std::size_t t_len = tgt_in[0].size();
  for (std::size_t t = 0; t < t_len; ++t) {
    std::vector<std::int64_t> toks;
    toks.reserve(tgt_in.size());
    for (const auto& s : tgt_in) toks.push_back(s[t]);
    Variable inp = autograd::cat({embedding_.forward(toks), context}, 1);
    auto out = decoder_.forward({inp}, states);
    states = out.final_states;
    Variable h = out.hiddens[0];
    context = attend(h, enc);
    step_logits.push_back(
        autograd::add(out_hidden_.forward(h), out_context_.forward(context)));  // [B, V]
  }
  // [B, T*V] read as [B*T, V] is batch-major: row i*T + t is step t's row i.
  return autograd::reshape(autograd::cat(step_logits, 1),
                           {b * static_cast<std::int64_t>(t_len), config_.vocab});
}

std::vector<TokenSeq> GnmtModel::greedy_translate(const std::vector<TokenSeq>& src,
                                                  std::int64_t max_len) {
  std::vector<Variable> enc = encode(src);
  const std::int64_t b = static_cast<std::int64_t>(src.size());
  auto states = decoder_.zero_states(b);
  Variable context(Tensor({b, config_.hidden_dim}));
  std::vector<std::int64_t> current(static_cast<std::size_t>(b), data::kBos);
  std::vector<TokenSeq> out(static_cast<std::size_t>(b));
  std::vector<bool> done(static_cast<std::size_t>(b), false);
  for (std::int64_t step = 0; step < max_len; ++step) {
    Variable inp = autograd::cat({embedding_.forward(current), context}, 1);
    auto dec = decoder_.forward({inp}, states);
    states = dec.final_states;
    Variable h = dec.hiddens[0];
    context = attend(h, enc);
    const std::vector<std::int64_t> best =
        autograd::add(out_hidden_.forward(h), out_context_.forward(context)).value().argmax_last();
    bool all_done = true;
    for (std::size_t i = 0; i < best.size(); ++i) {
      if (done[i]) continue;
      current[i] = best[i];
      if (best[i] == data::kEos) {
        done[i] = true;
      } else {
        out[i].push_back(best[i]);
        all_done = false;
      }
    }
    if (all_done) break;
  }
  return out;
}

GnmtWorkload::GnmtWorkload(Config config)
    : TranslationWorkload(config.dataset, config.batch_size), config_(std::move(config)) {
  config_.model.vocab = config_.dataset.vocab + data::kFirstWord;
}

void GnmtWorkload::build_model(std::uint64_t seed) {
  tensor::Rng init_rng = reseed(seed);
  model_ = std::make_unique<GnmtModel>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::Adam>(model_->parameters());
}

Variable GnmtWorkload::batch_loss(const data::TranslationBatch& batch) {
  return nn::cross_entropy(model_->forward_teacher(batch.src, batch.tgt_in), batch.targets);
}

std::map<std::string, double> GnmtWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"grad_clip_norm", config_.grad_clip_norm}};
}

}  // namespace mlperf::models
