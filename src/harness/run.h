#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/quality.h"
#include "core/submission.h"
#include "core/timer.h"
#include "models/workload.h"

namespace mlperf::harness {

/// One (epoch, quality, elapsed-time) sample from a training session; the
/// series regenerates Figure 3's accuracy-vs-epoch curves.
struct EpochPoint {
  std::int64_t epoch = 0;
  double quality = 0.0;
  double elapsed_ms = 0.0;  ///< timed milliseconds since run_start
};

/// Fault-injection plan for the preemption/restart studies: either a
/// deterministic one-shot kill after a given completed-epoch count, or an
/// iid per-epoch failure with its own seeded rng stream (so fault timing is
/// reproducible but independent of the training rng). Faults fire AFTER the
/// epoch's checkpoint (if any) is written — modeling a node lost between
/// useful work, the common preemption case.
struct FaultPlan {
  enum class Action {
    kThrow,    ///< throw Preempted (in-process tests; run_with_restarts catches it)
    kSigkill,  ///< raise(SIGKILL) — the CI crash-resume leg's real process death
  };
  /// Fire once when this many epochs have completed (1-based); -1 = never.
  std::int64_t kill_after_epoch = -1;
  /// Independent chance of failure after each epoch; 0 = never.
  double per_epoch_fail_prob = 0.0;
  std::uint64_t seed = 0;  ///< seeds the probabilistic-fault rng stream
  Action action = Action::kThrow;
  bool enabled() const { return kill_after_epoch >= 0 || per_epoch_fail_prob > 0.0; }
};

/// Thrown by run_to_target when a FaultPlan preempts the session.
/// `checkpoint_path` is the most recent checkpoint available to resume from
/// (empty if none was ever written — restart cold in that case).
class Preempted : public std::runtime_error {
 public:
  Preempted(std::int64_t epochs, std::string ckpt)
      : std::runtime_error("run preempted after epoch " + std::to_string(epochs)),
        epochs_completed(epochs),
        checkpoint_path(std::move(ckpt)) {}

  std::int64_t epochs_completed;
  std::string checkpoint_path;
};

/// Options controlling one timed training session.
struct RunOptions {
  std::uint64_t seed = 1;
  std::int64_t max_epochs = 64;          ///< safety bound; quality should hit first
  double model_creation_cap_ms = 20.0 * 60.0 * 1000.0;  ///< paper: 20 min
  /// Evaluate every N epochs (quality is "evaluated at prescribed
  /// intervals", §4.1). 1 = every epoch; below 1 is rejected.
  std::int64_t eval_interval = 1;
  /// Intra-op threads for the tensor kernels (parallel::set_num_threads);
  /// above 1 the prefetching loader also assembles batches on a thread of
  /// its own. 1 = the exact single-threaded
  /// pre-parallelism execution. A system knob, not a hyperparameter: the
  /// kernels partition work so the trained model is bitwise independent of
  /// this value (paper §2.2.3 treats nondeterminism as a variance source).
  std::int64_t num_threads = 1;
  /// Write a full-state checkpoint to `checkpoint_path` after every N
  /// completed epochs (0 = never). Checkpoint writes happen inside the timed
  /// run window, so per §3.2.1 their cost is charged to the result (logged
  /// as `checkpoint_saved` events for auditability).
  std::int64_t checkpoint_every_n_epochs = 0;
  std::string checkpoint_path;
  /// Resume a preempted session from this checkpoint file. The restore cost
  /// also lands inside the timed window (`checkpoint_restored` event), and
  /// the prior sessions' timed milliseconds are carried forward, so the
  /// reported time-to-train spans the whole preempt/restart history.
  std::string resume_from;
  FaultPlan fault;
  /// Reset and enable the per-op time profile (core::OpProfile) for this run
  /// and emit one `op_profile` mlog event per instrumented op at run_stop.
  bool op_profile = false;
};

/// The outcome of one training session.
struct RunOutcome {
  bool quality_reached = false;
  double final_quality = 0.0;
  std::int64_t epochs = 0;
  double time_to_train_ms = 0.0;    ///< per the timing rules
  double unexcluded_time_ms = 0.0;  ///< without the §3.2.1 exclusions
  std::vector<EpochPoint> curve;
  /// Log of the FINAL session only. Prior preempted sessions' logs are
  /// preserved verbatim inside the checkpoint's "log" section (a restarted
  /// submission ships one log artifact per session).
  core::MlLog log;
  std::int64_t restarts = 0;             ///< filled by run_with_restarts
  std::int64_t resumed_from_epoch = -1;  ///< -1 when not resumed
  std::int64_t checkpoints_written = 0;
  /// Tensor-pool misses AFTER the first full train+eval iteration (the
  /// warm-up that populates the pool with every recurring buffer shape).
  /// Zero in steady state; 0 as well when the run lasted a single epoch
  /// (nothing past warm-up to measure).
  std::int64_t pool_steady_misses = 0;
};

/// Run one workload to the quality target under the paper's timing rules:
/// reformat (untimed) -> model creation (untimed, capped) -> run_start ->
/// [restore?] -> [train_epoch, evaluate, checkpoint?, fault?]* -> run_stop on
/// quality. Everything is logged. Throws checkpoint::CheckpointError if
/// `resume_from` names a corrupt, version-mismatched, or wrong-run checkpoint
/// (never silently ignores it), and Preempted when the FaultPlan fires.
RunOutcome run_to_target(models::Workload& workload, const core::QualityMetric& target,
                         const RunOptions& options, const core::Clock& clock);

/// Convenience: wall-clock run.
RunOutcome run_to_target(models::Workload& workload, const core::QualityMetric& target,
                         const RunOptions& options);

/// Convert a RunOutcome to the submission artifact.
core::RunResult to_run_result(const RunOutcome& outcome);

/// Trajectory fingerprint for the resume-identity tests: FNV-1a over epoch
/// count, quality-reached, and the curve's (epoch, quality-bit-pattern)
/// sequence. Deliberately EXCLUDES the elapsed-ms fields — wall time is
/// accounted (carried across restarts), not replayed, so it is the one part
/// of an outcome a bitwise-identical resume legitimately changes.
std::uint64_t outcome_fingerprint(const RunOutcome& outcome);

/// Run the full §3.2.2 protocol for a workload factory: `n_runs` sessions
/// differing only by seed; returns per-run outcomes (aggregate with
/// core::aggregate_runs).
template <typename MakeWorkload>
std::vector<RunOutcome> run_protocol(MakeWorkload&& make_workload,
                                     const core::QualityMetric& target,
                                     const RunOptions& base_options, std::int64_t n_runs) {
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(n_runs));
  for (std::int64_t r = 0; r < n_runs; ++r) {
    auto workload = make_workload();
    RunOptions opts = base_options;
    opts.seed = base_options.seed + static_cast<std::uint64_t>(r) * 7919;
    outcomes.push_back(run_to_target(*workload, target, opts));
  }
  return outcomes;
}

/// Preempt/restart driver: run to target, and on each Preempted fault build a
/// fresh workload and resume from the checkpoint the fault left behind (cold
/// restart if none exists yet). A one-shot kill_after_epoch is disarmed once
/// it has fired so the resumed session does not re-trip it. The factory must
/// return something dereferenceable to a models::Workload (unique_ptr or raw
/// pointer — the latter lets callers keep the final session's workload alive
/// for weight fingerprinting).
template <typename MakeWorkload>
RunOutcome run_with_restarts(MakeWorkload&& make_workload, const core::QualityMetric& target,
                             RunOptions options, const core::Clock& clock,
                             std::int64_t max_restarts = 16) {
  std::int64_t restarts = 0;
  for (;;) {
    auto workload = make_workload();
    try {
      RunOutcome outcome = run_to_target(*workload, target, options, clock);
      outcome.restarts = restarts;
      return outcome;
    } catch (const Preempted& p) {
      if (++restarts > max_restarts)
        throw std::runtime_error("run_with_restarts: exceeded max_restarts (" +
                                 std::to_string(max_restarts) + ")");
      options.resume_from = p.checkpoint_path;  // empty -> cold restart
      if (options.fault.kill_after_epoch >= 0 &&
          p.epochs_completed >= options.fault.kill_after_epoch)
        options.fault.kill_after_epoch = -1;  // the one-shot kill has fired
    }
  }
}

}  // namespace mlperf::harness
