#pragma once
// The traced copies of three workloads' step loops. Each copy is built only
// from public calls and replays its workload's rng draws exactly, so at one
// seed it trains the same model as the workload's own train_epoch; a span
// wraps every call into a layer. The copies retire once the harness owns the
// step loop and traces it itself.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct TracedRun {
  Tracer tracer;
  StepLayers layers{tracer};
  std::vector<double> epoch_s;      ///< wall seconds of each traced train epoch
  std::int64_t steps = 0;           ///< gradient steps
  std::int64_t samples = 0;         ///< examples consumed by gradient steps
  std::int64_t positions = 0;       ///< self-play positions generated
  std::int64_t im2col_sweeps = 0;   ///< nn::im2col_calls() inside train steps
  /// Whether the copy's weights after epoch 1 were compared with the
  /// workload's own (only where the workload exposes its model), and what
  /// differed if they were not equal.
  bool fidelity_checked = false;
  std::string fidelity_error;
};

/// Train `epochs` epochs of each copy at `seed`. Thread count is whatever
/// parallel::set_num_threads last selected.
void trace_resnet(std::uint64_t seed, std::int64_t epochs, TracedRun& run);
void trace_transformer(std::uint64_t seed, std::int64_t epochs, TracedRun& run);
void trace_minigo(std::uint64_t seed, std::int64_t epochs, TracedRun& run);

}  // namespace perfbench
