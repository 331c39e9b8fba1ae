#pragma once

#include <deque>
#include <memory>

#include "go/board.h"
#include "models/workload.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::models {

/// Board -> input planes for the network: [3, N, N] (own stones, opponent
/// stones, all-ones color plane), from the side-to-play's perspective.
tensor::Tensor board_planes(const go::Board& board);

/// Combined policy + value network over a small conv trunk (the MiniGo /
/// AlphaZero architecture at mini scale).
class PolicyValueNet : public nn::Module {
 public:
  struct Config {
    std::int64_t board_size = 9;
    std::int64_t channels = 16;
    std::int64_t blocks = 2;
  };

  PolicyValueNet(const Config& config, tensor::Rng& rng);

  struct Output {
    autograd::Variable policy_logits;  ///< [N, P+1] (points + pass)
    autograd::Variable value;          ///< [N, 1] in (-1, 1)
  };
  Output forward(const autograd::Variable& planes);

  /// Single-position convenience: softmax policy + scalar value.
  std::pair<std::vector<float>, float> infer(const go::Board& board);

  std::int64_t num_moves() const { return config_.board_size * config_.board_size + 1; }

 private:
  struct Block {
    std::unique_ptr<nn::Conv2d> c1, c2;
    std::unique_ptr<nn::BatchNorm2d> b1, b2;
  };
  Config config_;
  nn::Conv2d stem_;
  nn::BatchNorm2d stem_bn_;
  std::vector<Block> blocks_;
  nn::Conv2d policy_conv_;
  nn::BatchNorm2d policy_bn_;
  nn::Linear policy_fc_;
  nn::Conv2d value_conv_;
  nn::BatchNorm2d value_bn_;
  nn::Linear value_fc1_, value_fc2_;
};

/// PUCT Monte-Carlo tree search over Go positions.
///
/// The evaluator supplies (prior distribution over moves, value in [-1, 1]
/// from the side-to-play's perspective). MiniGo uses the PolicyValueNet; the
/// reference-game "teacher" uses a uniform prior with a Tromp-Taylor-score
/// heuristic value, making reference games independent of any trained net.
class Mcts {
 public:
  struct Config {
    std::int64_t simulations = 24;
    float c_puct = 1.5f;
    float dirichlet_alpha = 0.3f;   ///< root exploration noise
    float dirichlet_weight = 0.25f; ///< 0 disables noise
  };

  using Evaluator = std::function<std::pair<std::vector<float>, float>(const go::Board&)>;

  Mcts(Config config, Evaluator evaluator) : config_(config), evaluator_(std::move(evaluator)) {}

  /// Visit-count distribution over moves (index board points, last = pass).
  std::vector<float> search(const go::Board& root, tensor::Rng& rng);

  /// Pick a move: temperature 1 (sample by visits) or 0 (argmax).
  static go::Move select_move(const std::vector<float>& visits, const go::Board& board,
                              float temperature, tensor::Rng& rng);

 private:
  struct Node;
  float simulate(Node& node, const go::Board& board, tensor::Rng& rng);

  Config config_;
  Evaluator evaluator_;
};

/// A (position, search distribution, outcome) training example.
struct SelfPlayExample {
  tensor::Tensor planes;       ///< [3, N, N]
  std::vector<float> pi;       ///< MCTS visit distribution over moves
  float z = 0.0f;              ///< game outcome from this position's player
};

/// Play one self-play game; returns examples and the finished record.
struct SelfPlayResult {
  std::vector<SelfPlayExample> examples;
  go::GameRecord record;
};
SelfPlayResult self_play_game(const Mcts::Config& mcts_config,
                              const Mcts::Evaluator& evaluator, std::int64_t board_size,
                              float komi, std::int64_t max_moves, std::int64_t temperature_moves,
                              tensor::Rng& rng);

/// The reinforcement-learning reference workload (Table 1 row 7). Training
/// data comes from self-play (no fixed dataset — the RL compute profile the
/// paper calls out); quality is move-prediction accuracy against reference
/// games generated by a fixed heuristic-MCTS teacher (the stand-in for human
/// pro games, see DESIGN.md).
class MiniGoWorkload : public Workload {
 public:
  struct Config {
    PolicyValueNet::Config model;
    Mcts::Config mcts{.simulations = 16};  ///< self-play search config
    std::int64_t board_size = 9;
    float komi = 5.5f;
    std::int64_t selfplay_games_per_epoch = 2;
    std::int64_t max_game_moves = 36;
    std::int64_t temperature_moves = 8;
    std::int64_t replay_capacity = 1024;
    std::int64_t train_batches_per_epoch = 16;
    std::int64_t batch_size = 16;
    float lr = 0.03f;
    float momentum = 0.9f;
    // Reference ("pro") games generated by the heuristic teacher.
    std::int64_t reference_games = 6;
    std::int64_t reference_teacher_sims = 32;
    std::int64_t reference_moves_per_game = 16;  ///< opening moves evaluated
    /// Fraction of each training batch drawn from reference-game positions
    /// (AlphaGo-style supervised bootstrap). Pure self-play (0.0) cannot
    /// approach the synthetic teacher's moves at mini scale — the documented
    /// deviation from MiniGo's pure-RL reference; see DESIGN.md. The self-
    /// play pipeline still generates the remaining fraction.
    float reference_mix = 0.5f;
    /// Models the fixed-seed nondeterminism the paper observed for MiniGo
    /// (Fig. 2: "significant variability across runs even when fixing the
    /// random seed"): when true, self-play game interleaving is perturbed by
    /// a wall-clock-derived source, like thread scheduling on a real system.
    bool nondeterministic_scheduling = false;
  };

  explicit MiniGoWorkload(Config config);

  std::string name() const override { return "reinforcement_learning"; }
  void prepare_data() override;  ///< generates reference games (untimed)
  void build_model(std::uint64_t seed) override;
  void train_epoch() override;   ///< self-play + gradient steps
  double evaluate() override;    ///< move-prediction accuracy vs references
  std::map<std::string, double> hyperparameters() const override;
  std::int64_t global_batch_size() const override { return config_.batch_size; }
  std::string model_signature() const override { return "MiniGo"; }
  std::string optimizer_name() const override { return "sgd_momentum"; }

  PolicyValueNet* model() const override { return net_.get(); }

  const std::vector<go::GameRecord>& reference_games() const { return references_; }
  PolicyValueNet* net() { return net_.get(); }

 private:
  Config config_;
  std::vector<go::GameRecord> references_;
  std::vector<SelfPlayExample> reference_examples_;
  std::unique_ptr<PolicyValueNet> net_;
  std::deque<SelfPlayExample> replay_;

  /// Section "replay": the self-play replay buffer. The reference examples
  /// are rebuilt by prepare_data and are not saved.
  void save_sections(checkpoint::CheckpointWriter& out) const override;
  void restore_sections(const checkpoint::CheckpointReader& in) override;
};

/// The teacher evaluator: uniform priors + Tromp-Taylor heuristic value.
Mcts::Evaluator heuristic_evaluator();

}  // namespace mlperf::models
