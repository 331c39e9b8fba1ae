#include "models/gnmt.h"

#include <stdexcept>

#include "checkpoint/format.h"
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
  const std::int64_t b = query.shape()[0];
  const std::int64_t t_len = static_cast<std::int64_t>(enc_hiddens.size());
  // scores[t] = v^T tanh(Wq q + Wk h_t), assembled as [T, B] then softmaxed.
  Variable q_proj = attn_query_.forward(query);  // [B, A]
  std::vector<Variable> score_rows;
  score_rows.reserve(static_cast<std::size_t>(t_len));
  for (const auto& h : enc_hiddens) {
    Variable s = attn_v_.forward(
        autograd::tanh_op(autograd::add(q_proj, attn_key_.forward(h))));  // [B, 1]
    score_rows.push_back(autograd::reshape(s, {1, b}));
  }
  Variable scores_tb = autograd::cat0(score_rows);                   // [T, B]
  Variable alphas = autograd::softmax_last(autograd::permute(scores_tb, {1, 0}));  // [B, T]
  Variable alphas_tb = autograd::permute(alphas, {1, 0});            // [T, B]
  Variable context;  // accumulate sum_t alpha_t * h_t
  for (std::int64_t t = 0; t < t_len; ++t) {
    Variable a_t = autograd::reshape(autograd::slice0(alphas_tb, t, t + 1), {b, 1});
    Variable term = autograd::mul(a_t, enc_hiddens[static_cast<std::size_t>(t)]);  // [B, H]
    context = (t == 0) ? term : autograd::add(context, term);
  }
  return context;
}

namespace {
/// Concatenate [B, E] and [B, H] along the feature axis via per-row copy
/// (decoder input feeding needs a real concat, not the split-linear trick,
/// because the LSTM consumes it as one input).
Variable concat_features(const Variable& a, const Variable& b) {
  const std::int64_t n = a.shape()[0], da = a.shape()[1], db = b.shape()[1];
  if (b.shape()[0] != n) throw std::invalid_argument("concat_features: batch mismatch");
  Tensor out({n, da + db});
  for (std::int64_t r = 0; r < n; ++r) {
    std::copy(a.value().data() + r * da, a.value().data() + (r + 1) * da,
              out.data() + r * (da + db));
    std::copy(b.value().data() + r * db, b.value().data() + (r + 1) * db,
              out.data() + r * (da + db) + da);
  }
  auto an = a.node();
  auto bn = b.node();
  return Variable::from_op(std::move(out), {a, b}, [an, bn, n, da, db](const Tensor& g) {
    if (an->requires_grad) {
      Tensor ga({n, da});
      for (std::int64_t r = 0; r < n; ++r)
        std::copy(g.data() + r * (da + db), g.data() + r * (da + db) + da, ga.data() + r * da);
      an->accumulate_grad(ga);
    }
    if (bn->requires_grad) {
      Tensor gb({n, db});
      for (std::int64_t r = 0; r < n; ++r)
        std::copy(g.data() + r * (da + db) + da, g.data() + (r + 1) * (da + db),
                  gb.data() + r * db);
      bn->accumulate_grad(gb);
    }
  });
}
}  // namespace

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
    Variable inp = concat_features(embedding_.forward(toks), context);
    auto out = decoder_.forward({inp}, states);
    states = out.final_states;
    Variable h = out.hiddens[0];
    context = attend(h, enc);
    step_logits.push_back(
        autograd::add(out_hidden_.forward(h), out_context_.forward(context)));  // [B, V]
  }
  // Assemble [B*T, V] in batch-major order: row (i*T + t).
  std::vector<Variable> rows;
  rows.reserve(step_logits.size());
  for (auto& l : step_logits) rows.push_back(autograd::reshape(l, {1, b, config_.vocab}));
  Variable tbv = autograd::cat0(rows);                       // [T, B, V]
  Variable btv = autograd::permute(tbv, {1, 0, 2});          // [B, T, V]
  return autograd::reshape(btv, {b * static_cast<std::int64_t>(t_len), config_.vocab});
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
    Variable inp = concat_features(embedding_.forward(current), context);
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

GnmtWorkload::GnmtWorkload(Config config) : config_(std::move(config)) {
  config_.model.vocab = config_.dataset.vocab + data::kFirstWord;
}

void GnmtWorkload::prepare_data() {
  dataset_ = std::make_unique<data::SyntheticTranslationDataset>(config_.dataset);
  length_buckets_ = data::length_buckets(*dataset_, data::Split::kTrain);
}

void GnmtWorkload::build_model(std::uint64_t seed) {
  tensor::Rng init_rng = reseed(seed);
  model_ = std::make_unique<GnmtModel>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::Adam>(model_->parameters());
}

void GnmtWorkload::train_epoch() {
  if (!dataset_ || !model_) throw std::logic_error("GnmtWorkload: not prepared");
  for (const data::TranslationBatch& batch :
       data::shuffled_bucket_batches(*dataset_, length_buckets_, config_.batch_size, rng_)) {
    train_step(*optimizer_, {.lr = config_.lr, .clip_norm = config_.grad_clip_norm}, [&] {
      return nn::cross_entropy(model_->forward_teacher(batch.src, batch.tgt_in), batch.targets);
    });
  }
}

double GnmtWorkload::evaluate() {
  if (!dataset_ || !model_) throw std::logic_error("GnmtWorkload: not prepared");
  return bleu_by_length(*dataset_, config_.batch_size, config_.dataset.max_len + 2,
                        [&](const std::vector<TokenSeq>& src, std::int64_t max_len) {
                          return model_->greedy_translate(src, max_len);
                        });
}

void GnmtWorkload::save_sections(checkpoint::CheckpointWriter& out) const {
  data::write_length_buckets(out.section("buckets"), length_buckets_);
}

void GnmtWorkload::restore_sections(const checkpoint::CheckpointReader& in) {
  checkpoint::ByteReader buckets = in.section("buckets");
  data::read_length_buckets(buckets, length_buckets_);
}

std::map<std::string, double> GnmtWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"grad_clip_norm", config_.grad_clip_norm}};
}

}  // namespace mlperf::models
