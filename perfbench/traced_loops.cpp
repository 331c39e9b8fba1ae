#include "traced_loops.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <utility>

#include "checkpoint/format.h"
#include "checkpoint/state.h"
#include "data/loader.h"
#include "models/minigo.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/functional.h"

using namespace mlperf;

namespace perfbench {

using autograd::Variable;
using Span = Tracer::Span;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Counts the im2col sweeps of one train step into the run's total.
class StepSweeps {
 public:
  explicit StepSweeps(TracedRun& run) : run_(run), before_(nn::im2col_calls()) {}
  ~StepSweeps() { run_.im2col_sweeps += nn::im2col_calls() - before_; }
  StepSweeps(const StepSweeps&) = delete;
  StepSweeps& operator=(const StepSweeps&) = delete;

 private:
  TracedRun& run_;
  std::int64_t before_;
};

}  // namespace

// Mirrors models::ResNetWorkload::{prepare_data, build_model, train_epoch}.
void trace_resnet(std::uint64_t seed, std::int64_t epochs, TracedRun& run) {
  const models::ResNetWorkload::Config cfg{};
  StepLayers& L = run.layers;
  data::SyntheticImageDataset dataset(cfg.dataset);
  const data::ReformattedSplits splits = data::reformat(dataset);
  const data::AugmentationPipeline augment = data::AugmentationPipeline::reference_image_pipeline();

  tensor::Rng rng(seed);
  tensor::Rng init_rng = rng.split();
  models::ResNetMini model(cfg.model, init_rng);
  optim::SgdMomentum optimizer(model.parameters(), cfg.momentum, cfg.weight_decay,
                               cfg.momentum_semantics);
  const std::int64_t steps_per_epoch =
      (dataset.train_size() + cfg.batch_size - 1) / cfg.batch_size;
  const optim::LinearScalingWarmupLr schedule(cfg.base_lr, cfg.batch_size, cfg.base_batch,
                                              cfg.warmup_steps, cfg.lr_decay_gamma,
                                              cfg.lr_decay_epochs * steps_per_epoch);
  std::unique_ptr<data::ImageLoader> loader;
  std::vector<std::uint8_t> epoch1_bytes;
  std::int64_t step = 0;
  for (std::int64_t e = 0; e < epochs; ++e) {
    const auto t0 = std::chrono::steady_clock::now();
    model.set_training(true);
    if (!loader) {
      loader = std::make_unique<data::ImageLoader>(splits.train, cfg.batch_size, &augment, rng,
                                                   /*drop_last=*/false, cfg.prefetch_loader);
    } else {
      loader->start_epoch();
    }
    while (loader->has_next()) {
      Span step_span(run.tracer, L.step);
      StepSweeps sweeps(run);
      autograd::GraphEpoch graph_epoch;
      data::ImageBatch batch;
      {
        Span s(run.tracer, L.data);
        batch = loader->next();
      }
      Variable logits;
      {
        Span s(run.tracer, L.forward);
        logits = model.forward(Variable(batch.images));
      }
      Variable loss;
      {
        Span s(run.tracer, L.loss);
        loss = nn::cross_entropy(logits, batch.labels);
      }
      {
        Span s(run.tracer, L.optim);
        optimizer.zero_grad();
      }
      {
        Span s(run.tracer, L.backward);
        loss.backward();
      }
      {
        Span s(run.tracer, L.optim);
        optimizer.step(schedule.lr(step));
      }
      ++step;
      run.samples += static_cast<std::int64_t>(batch.labels.size());
    }
    run.epoch_s.push_back(seconds_since(t0));
    if (e == 0) {
      checkpoint::ByteWriter w;
      checkpoint::write_module(w, model);
      epoch1_bytes = w.bytes();
    }
  }
  run.steps = step;

  // Fidelity: the workload's own first epoch must produce the same weights.
  models::ResNetWorkload reference(cfg);
  reference.prepare_data();
  reference.build_model(seed);
  reference.train_epoch();
  checkpoint::CheckpointWriter state;
  reference.save_state(state);
  const std::vector<std::uint8_t>& want = state.section("model").bytes();
  run.fidelity_checked = true;
  if (want != epoch1_bytes)
    run.fidelity_error = "resnet model bytes after epoch 1 differ (" +
                         std::to_string(epoch1_bytes.size()) + " vs " +
                         std::to_string(want.size()) + " bytes)";
}

// Mirrors models::TransformerWorkload::{prepare_data, build_model, train_epoch}.
void trace_transformer(std::uint64_t seed, std::int64_t epochs, TracedRun& run) {
  models::TransformerWorkload::Config cfg;
  cfg.model.vocab = cfg.dataset.vocab + data::kFirstWord;
  cfg.model.max_len = cfg.dataset.max_len + 2;
  StepLayers& L = run.layers;
  const data::SyntheticTranslationDataset dataset(cfg.dataset);
  std::vector<std::vector<std::int64_t>> buckets(static_cast<std::size_t>(cfg.dataset.max_len + 1));
  for (std::int64_t i = 0; i < dataset.train_size(); ++i)
    buckets[dataset.train(i).source.size()].push_back(i);

  tensor::Rng rng(seed);
  tensor::Rng init_rng = rng.split();
  models::TransformerModel model(cfg.model, init_rng);
  optim::Adam optimizer(model.parameters());
  const auto batch = static_cast<std::size_t>(cfg.batch_size);
  for (std::int64_t e = 0; e < epochs; ++e) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::pair<std::size_t, std::size_t>> batches;  // (bucket, offset)
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      rng.shuffle(buckets[b]);
      for (std::size_t off = 0; off < buckets[b].size(); off += batch) batches.emplace_back(b, off);
    }
    rng.shuffle(batches);
    for (const auto& [b, off] : batches) {
      Span step_span(run.tracer, L.step);
      autograd::GraphEpoch graph_epoch;
      std::vector<data::TokenSeq> src, tgt_in;
      std::vector<std::int64_t> targets;
      {
        Span s(run.tracer, L.data);
        const auto& bucket = buckets[b];
        for (std::size_t k = off; k < std::min(off + batch, bucket.size()); ++k) {
          const auto& pair = dataset.train(bucket[k]);
          src.push_back(pair.source);
          data::TokenSeq in{data::kBos};
          in.insert(in.end(), pair.target.begin(), pair.target.end());
          tgt_in.push_back(std::move(in));
          targets.insert(targets.end(), pair.target.begin(), pair.target.end());
          targets.push_back(data::kEos);
        }
      }
      Variable logits;
      {
        Span s(run.tracer, L.forward);
        Variable memory = model.encode(src);
        logits = model.decode(tgt_in, memory);
      }
      Variable loss;
      {
        Span s(run.tracer, L.loss);
        loss = cfg.label_smoothing > 0.0f
                   ? nn::smoothed_cross_entropy(logits, targets, cfg.label_smoothing)
                   : nn::cross_entropy(logits, targets);
      }
      {
        Span s(run.tracer, L.optim);
        optimizer.zero_grad();
      }
      {
        Span s(run.tracer, L.backward);
        loss.backward();
      }
      {
        Span s(run.tracer, L.optim);
        optimizer.step(cfg.lr);
      }
      ++run.steps;
      run.samples += static_cast<std::int64_t>(src.size());
    }
    run.epoch_s.push_back(seconds_since(t0));
  }
}

namespace {

/// models::self_play_game with spans around Mcts::search; `evaluator`
/// carries the PolicyValueNet::infer spans.
std::vector<models::SelfPlayExample> traced_self_play(const models::MiniGoWorkload::Config& cfg,
                                                      const models::Mcts::Evaluator& evaluator,
                                                      tensor::Rng& rng, TracedRun& run) {
  StepLayers& L = run.layers;
  Span game_span(run.tracer, L.selfplay);
  std::vector<models::SelfPlayExample> examples;
  std::vector<go::Stone> to_play;
  go::Board board(cfg.board_size, cfg.komi);
  models::Mcts mcts(cfg.mcts, evaluator);
  while (!board.game_over() && board.move_count() < cfg.max_game_moves) {
    std::vector<float> pi;
    {
      Span s(run.tracer, L.mcts_search);
      pi = mcts.search(board, rng);
    }
    models::SelfPlayExample ex;
    ex.planes = models::board_planes(board);
    ex.pi = pi;
    examples.push_back(std::move(ex));
    to_play.push_back(board.to_play());
    const float temp = board.move_count() < cfg.temperature_moves ? 1.0f : 0.0f;
    go::Move m = models::Mcts::select_move(pi, board, temp, rng);
    if (!board.is_legal(m)) m = go::Move::pass();
    board.play(m);
  }
  const go::Stone winner = board.winner();
  for (std::size_t i = 0; i < examples.size(); ++i)
    examples[i].z = winner == go::Stone::kEmpty ? 0.0f : (winner == to_play[i] ? 1.0f : -1.0f);
  run.positions += static_cast<std::int64_t>(examples.size());
  return examples;
}

}  // namespace

// Mirrors models::MiniGoWorkload::{prepare_data, build_model, train_epoch,
// train_batch}.
void trace_minigo(std::uint64_t seed, std::int64_t epochs, TracedRun& run) {
  models::MiniGoWorkload::Config cfg;
  cfg.model.board_size = cfg.board_size;
  StepLayers& L = run.layers;

  std::vector<models::SelfPlayExample> references;
  {
    tensor::Rng ref_rng(0xD0D0CAFEULL);
    models::Mcts::Config teacher = cfg.mcts;
    teacher.simulations = cfg.reference_teacher_sims;
    teacher.dirichlet_weight = 0.1f;
    for (std::int64_t g = 0; g < cfg.reference_games; ++g) {
      models::SelfPlayResult game =
          models::self_play_game(teacher, models::heuristic_evaluator(), cfg.board_size, cfg.komi,
                                 cfg.max_game_moves, /*temperature_moves=*/4, ref_rng);
      for (auto& ex : game.examples) references.push_back(std::move(ex));
    }
  }

  tensor::Rng rng(seed);
  tensor::Rng init_rng = rng.split();
  models::PolicyValueNet net(cfg.model, init_rng);
  optim::SgdMomentum optimizer(net.parameters(), cfg.momentum);
  std::deque<models::SelfPlayExample> replay;
  const models::Mcts::Evaluator evaluator = [&](const go::Board& b) {
    Span s(run.tracer, L.infer);
    return net.infer(b);
  };
  const std::int64_t bs = cfg.board_size, num_moves = bs * bs + 1;
  std::uint64_t epoch1_hash = 0;
  for (std::int64_t e = 0; e < epochs; ++e) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t g = 0; g < cfg.selfplay_games_per_epoch; ++g) {
      for (auto& ex : traced_self_play(cfg, evaluator, rng, run)) {
        replay.push_back(std::move(ex));
        if (static_cast<std::int64_t>(replay.size()) > cfg.replay_capacity) replay.pop_front();
      }
    }
    for (std::int64_t b = 0; b < cfg.train_batches_per_epoch; ++b) {
      Span step_span(run.tracer, L.step);
      StepSweeps sweeps(run);
      autograd::GraphEpoch graph_epoch;
      const std::int64_t n = cfg.batch_size;
      tensor::Tensor planes, pi, z;
      {
        Span s(run.tracer, L.data);
        planes = tensor::Tensor({n, 3, bs, bs});
        pi = tensor::Tensor({n, num_moves});
        z = tensor::Tensor({n, 1});
        for (std::int64_t i = 0; i < n; ++i) {
          const bool from_ref =
              !references.empty() && (replay.empty() || rng.uniform() < cfg.reference_mix);
          const models::SelfPlayExample& ex =
              from_ref ? references[static_cast<std::size_t>(rng.randint(references.size()))]
                       : replay[static_cast<std::size_t>(rng.randint(replay.size()))];
          std::copy(ex.planes.vec().begin(), ex.planes.vec().end(),
                    planes.vec().begin() + i * 3 * bs * bs);
          for (std::int64_t m = 0; m < num_moves; ++m)
            pi[i * num_moves + m] = ex.pi[static_cast<std::size_t>(m)];
          z[i] = ex.z;
        }
      }
      models::PolicyValueNet::Output out;
      {
        Span s(run.tracer, L.forward);
        net.set_training(true);
        out = net.forward(Variable(planes));
      }
      Variable loss;
      {
        Span s(run.tracer, L.loss);
        Variable logp = autograd::log_softmax_last(out.policy_logits);
        Variable policy_loss =
            autograd::mul_scalar(autograd::sum_all(autograd::mul(Variable(pi), logp)),
                                 -1.0f / static_cast<float>(n));
        loss = autograd::add(policy_loss, nn::mse(out.value, z));
      }
      {
        Span s(run.tracer, L.optim);
        optimizer.zero_grad();
      }
      {
        Span s(run.tracer, L.backward);
        loss.backward();
      }
      {
        Span s(run.tracer, L.optim);
        optimizer.step(cfg.lr);
      }
      ++run.steps;
      run.samples += n;
    }
    run.epoch_s.push_back(seconds_since(t0));
    if (e == 0) epoch1_hash = checkpoint::hash_module(net);
  }

  models::MiniGoWorkload reference(cfg);
  reference.prepare_data();
  reference.build_model(seed);
  reference.train_epoch();
  run.fidelity_checked = true;
  if (checkpoint::hash_module(*reference.net()) != epoch1_hash)
    run.fidelity_error = "minigo weights after epoch 1 differ";
}

}  // namespace perfbench
