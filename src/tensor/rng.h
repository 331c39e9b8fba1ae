#pragma once

#include <cstdint>
#include <vector>

namespace mlperf::tensor {

/// Deterministic, seedable pseudo-random generator (SplitMix64 core).
///
/// Every stochastic component in the stack (weight init, shuffling,
/// augmentation, negative sampling, MCTS) draws from an explicit
/// `Rng`, so run-to-run variance studies (paper Fig. 2/3) are reproducible:
/// the same seed always yields the same training trajectory.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t randint(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(randint(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-worker determinism).
  Rng split();

  /// Complete generator state, for checkpointing. Restoring a saved state
  /// resumes the draw sequence exactly where it left off, including the
  /// Box-Muller cached second normal — bitwise-identical continuation is the
  /// contract the checkpoint subsystem's resume tests pin down.
  struct State {
    std::uint64_t state = 0;
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State save_state() const { return {state_, has_cached_normal_, cached_normal_}; }
  void restore_state(const State& s) {
    state_ = s.state;
    has_cached_normal_ = s.has_cached_normal;
    cached_normal_ = s.cached_normal;
  }

 private:
  std::uint64_t state_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mlperf::tensor
