#include "models/minigo.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "checkpoint/format.h"
#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;
using go::Board;
using go::Move;
using go::Stone;
using tensor::Tensor;

Tensor board_planes(const Board& board) {
  const std::int64_t n = board.size();
  Tensor planes({3, n, n});
  const Stone me = board.to_play();
  const Stone opp = go::opponent(me);
  for (std::int64_t p = 0; p < n * n; ++p) {
    const Stone s = board.at(p);
    if (s == me) planes[p] = 1.0f;
    else if (s == opp) planes[n * n + p] = 1.0f;
    planes[2 * n * n + p] = me == Stone::kBlack ? 1.0f : 0.0f;
  }
  return planes;
}

PolicyValueNet::PolicyValueNet(const Config& config, tensor::Rng& rng)
    : config_(config),
      stem_(3, config.channels, 3, 1, 1, rng),
      stem_bn_(config.channels),
      policy_conv_(config.channels, 2, 1, 1, 0, rng),
      policy_bn_(2),
      policy_fc_(2 * config.board_size * config.board_size,
                 config.board_size * config.board_size + 1, rng),
      value_conv_(config.channels, 1, 1, 1, 0, rng),
      value_bn_(1),
      value_fc1_(config.board_size * config.board_size, 16, rng),
      value_fc2_(16, 1, rng) {
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);
  for (std::int64_t b = 0; b < config.blocks; ++b) {
    Block blk;
    blk.c1 = std::make_unique<nn::Conv2d>(config.channels, config.channels, 3, 1, 1, rng);
    blk.b1 = std::make_unique<nn::BatchNorm2d>(config.channels);
    blk.c2 = std::make_unique<nn::Conv2d>(config.channels, config.channels, 3, 1, 1, rng);
    blk.b2 = std::make_unique<nn::BatchNorm2d>(config.channels);
    register_module("block" + std::to_string(b) + "_c1", *blk.c1);
    register_module("block" + std::to_string(b) + "_b1", *blk.b1);
    register_module("block" + std::to_string(b) + "_c2", *blk.c2);
    register_module("block" + std::to_string(b) + "_b2", *blk.b2);
    blocks_.push_back(std::move(blk));
  }
  register_module("policy_conv", policy_conv_);
  register_module("policy_bn", policy_bn_);
  register_module("policy_fc", policy_fc_);
  register_module("value_conv", value_conv_);
  register_module("value_bn", value_bn_);
  register_module("value_fc1", value_fc1_);
  register_module("value_fc2", value_fc2_);
}

PolicyValueNet::Output PolicyValueNet::forward(const Variable& planes) {
  const std::int64_t n = planes.shape()[0];
  const std::int64_t bs = config_.board_size;
  Variable x = autograd::relu(stem_bn_.forward(stem_.forward(planes)));
  for (auto& blk : blocks_) {
    Variable y = autograd::relu(blk.b1->forward(blk.c1->forward(x)));
    y = blk.b2->forward(blk.c2->forward(y));
    x = autograd::add_relu(x, y);  // fused residual-add+ReLU
  }
  Variable p = autograd::relu(policy_bn_.forward(policy_conv_.forward(x)));
  Variable policy = policy_fc_.forward(autograd::reshape(p, {n, 2 * bs * bs}));
  Variable v = autograd::relu(value_bn_.forward(value_conv_.forward(x)));
  Variable value = autograd::tanh_op(
      value_fc2_.forward(value_fc1_.forward_relu(autograd::reshape(v, {n, bs * bs}))));
  return {policy, value};
}

std::pair<std::vector<float>, float> PolicyValueNet::infer(const Board& board) {
  autograd::NoGradGuard no_grad;  // MCTS leaf evaluation never backpropagates
  const bool was_training = training();
  set_training(false);
  Tensor planes = board_planes(board);
  Tensor batch({1, 3, board.size(), board.size()});
  std::copy(planes.vec().begin(), planes.vec().end(), batch.vec().begin());
  Output out = forward(Variable(batch));
  set_training(was_training);
  Tensor probs = out.policy_logits.value().softmax_last();
  std::vector<float> prior(static_cast<std::size_t>(probs.numel()));
  for (std::int64_t i = 0; i < probs.numel(); ++i) prior[static_cast<std::size_t>(i)] = probs[i];
  return {std::move(prior), out.value.value()[0]};
}

// ---- MCTS -------------------------------------------------------------------

struct Mcts::Node {
  bool expanded = false;
  float value = 0.0f;
  std::vector<Move> moves;
  std::vector<float> priors;
  std::vector<std::int64_t> visits;
  std::vector<float> value_sum;
  std::vector<std::unique_ptr<Node>> children;
};

float Mcts::simulate(Node& node, const Board& board, tensor::Rng& rng) {
  if (board.game_over()) {
    // Terminal: Tromp-Taylor result from the *current* player's view.
    const float score = board.tromp_taylor_score();
    const float black_result = score > 0 ? 1.0f : (score < 0 ? -1.0f : 0.0f);
    return board.to_play() == Stone::kBlack ? black_result : -black_result;
  }
  if (!node.expanded) {
    auto [prior, value] = evaluator_(board);
    node.moves = board.legal_moves();
    node.priors.resize(node.moves.size());
    const std::int64_t pass_idx = board.num_points();
    float total = 0.0f;
    for (std::size_t i = 0; i < node.moves.size(); ++i) {
      const std::int64_t idx = node.moves[i].is_pass() ? pass_idx : node.moves[i].point;
      node.priors[i] = std::max(prior[static_cast<std::size_t>(idx)], 1e-6f);
      total += node.priors[i];
    }
    for (auto& p : node.priors) p /= total;
    node.visits.assign(node.moves.size(), 0);
    node.value_sum.assign(node.moves.size(), 0.0f);
    node.children.resize(node.moves.size());
    node.expanded = true;
    return value;
  }
  // PUCT selection.
  std::int64_t total_visits = 0;
  for (std::int64_t v : node.visits) total_visits += v;
  const float sqrt_total = std::sqrt(static_cast<float>(total_visits) + 1.0f);
  std::size_t best = 0;
  float best_score = -1e30f;
  for (std::size_t i = 0; i < node.moves.size(); ++i) {
    const float q = node.visits[i] > 0
                        ? node.value_sum[i] / static_cast<float>(node.visits[i])
                        : 0.0f;
    const float u = config_.c_puct * node.priors[i] * sqrt_total /
                    (1.0f + static_cast<float>(node.visits[i]));
    const float s = q + u;
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  Board next = board;
  next.play(node.moves[best]);
  if (!node.children[best]) node.children[best] = std::make_unique<Node>();
  const float child_value = simulate(*node.children[best], next, rng);
  const float v = -child_value;  // value flips with the player to move
  node.visits[best] += 1;
  node.value_sum[best] += v;
  return v;
}

std::vector<float> Mcts::search(const Board& root, tensor::Rng& rng) {
  Node node;
  // Expand the root once, then optionally mix Dirichlet noise into priors.
  simulate(node, root, rng);
  if (config_.dirichlet_weight > 0.0f && node.moves.size() > 1) {
    // Root noise: normalized draws of u^(1/alpha), u ~ U(0,1). That is only
    // the alpha < 1 boost factor of a Gamma(alpha) sampler, without the
    // Gamma(alpha + 1) draw it multiplies, so the noise is NOT Dirichlet(alpha).
    // Left as is because a fix moves every MiniGo fingerprint (ROADMAP,
    // game-parallel self-play).
    std::vector<float> noise(node.priors.size());
    float total = 0.0f;
    for (auto& x : noise) {
      const float u = static_cast<float>(rng.uniform()) + 1e-9f;
      const float g = static_cast<float>(std::pow(u, 1.0 / config_.dirichlet_alpha));
      x = g;
      total += g;
    }
    if (total > 0.0f)
      for (std::size_t i = 0; i < node.priors.size(); ++i)
        node.priors[i] = (1.0f - config_.dirichlet_weight) * node.priors[i] +
                         config_.dirichlet_weight * noise[i] / total;
  }
  for (std::int64_t s = 1; s < config_.simulations; ++s) simulate(node, root, rng);

  std::vector<float> pi(static_cast<std::size_t>(root.num_points() + 1), 0.0f);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < node.moves.size(); ++i) total += node.visits[i];
  if (total == 0) total = 1;
  for (std::size_t i = 0; i < node.moves.size(); ++i) {
    const std::int64_t idx =
        node.moves[i].is_pass() ? root.num_points() : node.moves[i].point;
    pi[static_cast<std::size_t>(idx)] =
        static_cast<float>(node.visits[i]) / static_cast<float>(total);
  }
  return pi;
}

Move Mcts::select_move(const std::vector<float>& visits, const Board& board, float temperature,
                       tensor::Rng& rng) {
  const std::int64_t pass_idx = board.num_points();
  if (temperature <= 0.0f) {
    std::int64_t best = 0;
    for (std::int64_t i = 1; i <= pass_idx; ++i)
      if (visits[static_cast<std::size_t>(i)] > visits[static_cast<std::size_t>(best)]) best = i;
    return best == pass_idx ? Move::pass() : Move::at(best);
  }
  const double r = rng.uniform();
  double cum = 0.0;
  for (std::int64_t i = 0; i <= pass_idx; ++i) {
    cum += visits[static_cast<std::size_t>(i)];
    if (r <= cum) return i == pass_idx ? Move::pass() : Move::at(i);
  }
  return Move::pass();
}

SelfPlayResult self_play_game(const Mcts::Config& mcts_config, const Mcts::Evaluator& evaluator,
                              std::int64_t board_size, float komi, std::int64_t max_moves,
                              std::int64_t temperature_moves, tensor::Rng& rng) {
  SelfPlayResult result;
  result.record.board_size = board_size;
  result.record.komi = komi;
  Board board(board_size, komi);
  Mcts mcts(mcts_config, evaluator);
  std::vector<Stone> to_play_history;
  while (!board.game_over() && board.move_count() < max_moves) {
    const std::vector<float> pi = mcts.search(board, rng);
    SelfPlayExample ex;
    ex.planes = board_planes(board);
    ex.pi = pi;
    result.examples.push_back(std::move(ex));
    to_play_history.push_back(board.to_play());
    const float temp = board.move_count() < temperature_moves ? 1.0f : 0.0f;
    Move m = Mcts::select_move(pi, board, temp, rng);
    if (!board.is_legal(m)) m = Move::pass();  // visits can point at stale moves
    board.play(m);
    result.record.moves.push_back(m);
  }
  const Stone winner = board.winner();
  result.record.winner = winner;
  for (std::size_t i = 0; i < result.examples.size(); ++i) {
    const Stone player = to_play_history[i];
    result.examples[i].z =
        winner == Stone::kEmpty ? 0.0f : (winner == player ? 1.0f : -1.0f);
  }
  return result;
}

Mcts::Evaluator heuristic_evaluator() {
  return [](const Board& board) {
    const std::int64_t n = board.num_points();
    std::vector<float> prior(static_cast<std::size_t>(n + 1),
                             1.0f / static_cast<float>(n + 1));
    // Value: squashed Tromp-Taylor score from the side to play.
    float score = board.tromp_taylor_score();  // black perspective
    if (board.to_play() == Stone::kWhite) score = -score;
    return std::make_pair(prior, std::tanh(score / 10.0f));
  };
}

// ---- workload ----------------------------------------------------------------

MiniGoWorkload::MiniGoWorkload(Config config) : config_(std::move(config)) {
  config_.model.board_size = config_.board_size;
}

void MiniGoWorkload::prepare_data() {
  // Reference games: the teacher's MCTS is independent of the run seed, so
  // every run predicts against the same "pro games" (as with real data).
  references_.clear();
  reference_examples_.clear();
  tensor::Rng ref_rng(0xD0D0CAFEULL);
  Mcts::Config teacher = config_.mcts;
  teacher.simulations = config_.reference_teacher_sims;
  teacher.dirichlet_weight = 0.1f;  // mild diversity between reference games
  for (std::int64_t g = 0; g < config_.reference_games; ++g) {
    SelfPlayResult game =
        self_play_game(teacher, heuristic_evaluator(), config_.board_size, config_.komi,
                       config_.max_game_moves, /*temperature_moves=*/4, ref_rng);
    references_.push_back(std::move(game.record));
    for (auto& ex : game.examples) reference_examples_.push_back(std::move(ex));
  }
}

void MiniGoWorkload::build_model(std::uint64_t seed) {
  if (config_.nondeterministic_scheduling) {
    // Fig. 2's fixed-seed variability: mix in a wall-clock-derived value, the
    // analogue of thread-scheduling nondeterminism in the real pipeline.
    const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
    seed ^= static_cast<std::uint64_t>(now);
  }
  tensor::Rng init_rng = reseed(seed);
  net_ = std::make_unique<PolicyValueNet>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::SgdMomentum>(net_->parameters(), config_.momentum);
  replay_.clear();
}

void MiniGoWorkload::train_epoch() {
  if (!net_) throw std::logic_error("MiniGoWorkload: not prepared");
  // 1) Self-play data generation with the current net.
  Mcts::Evaluator eval = [this](const Board& b) { return net_->infer(b); };
  for (std::int64_t g = 0; g < config_.selfplay_games_per_epoch; ++g) {
    SelfPlayResult game =
        self_play_game(config_.mcts, eval, config_.board_size, config_.komi,
                       config_.max_game_moves, config_.temperature_moves, rng_);
    for (auto& ex : game.examples) {
      replay_.push_back(std::move(ex));
      if (static_cast<std::int64_t>(replay_.size()) > config_.replay_capacity)
        replay_.pop_front();
    }
  }
  // 2) Gradient steps: batches mix self-play replay with reference-game
  //    positions per config_.reference_mix (see header).
  if (replay_.empty() && reference_examples_.empty()) return;
  const std::int64_t n = config_.batch_size, bs = config_.board_size, num_moves = bs * bs + 1;
  net_->set_training(true);
  for (std::int64_t b = 0; b < config_.train_batches_per_epoch; ++b) {
    Tensor planes({n, 3, bs, bs});
    Tensor pi({n, num_moves});
    Tensor z({n, 1});
    for (std::int64_t i = 0; i < n; ++i) {
      const bool from_ref =
          !reference_examples_.empty() &&
          (replay_.empty() || rng_.uniform() < config_.reference_mix);
      const SelfPlayExample& ex =
          from_ref ? reference_examples_[static_cast<std::size_t>(
                         rng_.randint(reference_examples_.size()))]
                   : replay_[static_cast<std::size_t>(rng_.randint(replay_.size()))];
      std::copy(ex.planes.vec().begin(), ex.planes.vec().end(),
                planes.vec().begin() + i * 3 * bs * bs);
      std::copy_n(ex.pi.begin(), num_moves, pi.data() + i * num_moves);
      z[i] = ex.z;
    }
    train_step(*optimizer_, {.lr = config_.lr}, [&] {
      PolicyValueNet::Output out = net_->forward(Variable(planes));
      // Policy loss: cross-entropy against the full MCTS distribution:
      // -sum pi * log_softmax(logits), averaged over the batch.
      Variable logp = autograd::log_softmax_last(out.policy_logits);
      Variable policy_loss =
          autograd::mul_scalar(autograd::sum_all(autograd::mul(Variable(pi), logp)),
                               -1.0f / static_cast<float>(n));
      return autograd::add(policy_loss, nn::mse(out.value, z));
    });
  }
}

double MiniGoWorkload::evaluate() {
  if (!net_) throw std::logic_error("MiniGoWorkload: not prepared");
  std::vector<std::int64_t> predicted, reference;
  for (const auto& game : references_) {
    Board board(game.board_size, game.komi);
    const std::int64_t limit =
        std::min<std::int64_t>(static_cast<std::int64_t>(game.moves.size()),
                               config_.reference_moves_per_game);
    for (std::int64_t m = 0; m < limit; ++m) {
      auto [prior, value] = net_->infer(board);
      (void)value;
      // Predicted move: highest-probability *legal* move.
      std::int64_t best = -1;
      float best_p = -1.0f;
      for (const Move& mv : board.legal_moves()) {
        const std::int64_t idx = mv.is_pass() ? board.num_points() : mv.point;
        if (prior[static_cast<std::size_t>(idx)] > best_p) {
          best_p = prior[static_cast<std::size_t>(idx)];
          best = idx;
        }
      }
      predicted.push_back(best);
      const Move& ref = game.moves[static_cast<std::size_t>(m)];
      reference.push_back(ref.is_pass() ? board.num_points() : ref.point);
      board.play(ref);
    }
  }
  if (predicted.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i)
    if (predicted[i] == reference[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(predicted.size());
}

void MiniGoWorkload::save_sections(checkpoint::CheckpointWriter& out) const {
  checkpoint::ByteWriter& replay = out.section("replay");
  replay.put_u64(replay_.size());
  for (const SelfPlayExample& ex : replay_) {
    replay.put_tensor(ex.planes);
    replay.put_u64(ex.pi.size());
    replay.put_raw(ex.pi.data(), ex.pi.size() * sizeof(float));
    replay.put_f64(ex.z);
  }
}

void MiniGoWorkload::restore_sections(const checkpoint::CheckpointReader& in) {
  using checkpoint::CheckpointError;
  checkpoint::ByteReader replay = in.section("replay");
  const std::uint64_t count = replay.get_u64();
  if (count > static_cast<std::uint64_t>(config_.replay_capacity))
    throw CheckpointError("replay: " + std::to_string(count) + " examples exceed capacity " +
                          std::to_string(config_.replay_capacity));
  const std::int64_t bs = config_.board_size;
  // Each record is read, and its bytes checked, before the next is allocated.
  std::deque<SelfPlayExample> restored;
  for (std::uint64_t i = 0; i < count; ++i) {
    SelfPlayExample& ex = restored.emplace_back();
    ex.planes = replay.get_tensor();
    if (ex.planes.shape() != tensor::Shape{3, bs, bs} ||
        replay.get_u64() != static_cast<std::uint64_t>(bs * bs + 1))
      throw CheckpointError("replay: example shape does not match the board size");
    ex.pi.resize(static_cast<std::size_t>(bs * bs + 1));
    replay.get_raw(ex.pi.data(), ex.pi.size() * sizeof(float));
    ex.z = static_cast<float>(replay.get_f64());
  }
  replay.expect_done();
  replay_ = std::move(restored);
}

std::map<std::string, double> MiniGoWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"selfplay_games_per_epoch", static_cast<double>(config_.selfplay_games_per_epoch)},
          {"mcts_simulations", static_cast<double>(config_.mcts.simulations)}};
}

}  // namespace mlperf::models
