#include "harness/run.h"

#include <csignal>

#include "autograd/variable.h"
#include "checkpoint/format.h"
#include "checkpoint/state.h"
#include "core/op_profile.h"
#include "parallel/parallel_for.h"
#include "tensor/pool.h"
#include "tensor/rng.h"

namespace mlperf::harness {

RunOutcome run_to_target(models::Workload& workload, const core::QualityMetric& target,
                         const RunOptions& options, const core::Clock& clock) {
  if (options.eval_interval < 1)
    throw std::invalid_argument("run_to_target: eval_interval must be >= 1, got " +
                                std::to_string(options.eval_interval));
  const bool checkpointing = options.checkpoint_every_n_epochs > 0;
  if (checkpointing && options.checkpoint_path.empty())
    throw std::invalid_argument(
        "run_to_target: checkpoint_every_n_epochs set but checkpoint_path is empty");
  if ((checkpointing || !options.resume_from.empty()) && !workload.supports_checkpoint())
    throw std::logic_error("run_to_target: workload '" + workload.name() +
                           "' does not support checkpointing");

  parallel::set_num_threads(options.num_threads);
  if (options.op_profile) core::OpProfile::reset();
  core::OpProfile::set_enabled(options.op_profile);
  RunOutcome outcome;
  core::TrainingTimer timer(clock, outcome.log, options.model_creation_cap_ms);
  core::MlLog& log = outcome.log;

  log.log(clock.now_ms(), core::keys::kSubmissionBenchmark, workload.name());
  log.log(clock.now_ms(), core::keys::kSeed, static_cast<double>(options.seed));
  log.log(clock.now_ms(), core::keys::kQualityTarget, target.target,
          {{"metric", target.name}});
  log.log(clock.now_ms(), core::keys::kModelSignature, workload.model_signature());
  log.log(clock.now_ms(), core::keys::kOptimizerName, workload.optimizer_name());
  log.log(clock.now_ms(), core::keys::kAugmentationSignature,
          workload.augmentation_signature());
  for (const auto& [name, value] : workload.hyperparameters())
    log.log(clock.now_ms(), core::keys::kHyperparameter, value, {{"name", name}});
  log.log(clock.now_ms(), core::keys::kGlobalBatchSize,
          static_cast<double>(workload.global_batch_size()));

  // Untimed one-time data reformatting (§3.2.1). The reformat region is the
  // only place data may be touched before run_start.
  {
    auto region = timer.reformat_region();
    log.log(clock.now_ms(), core::keys::kDataTouch, std::string("reformat"),
            {{"split", "train+val"}});
    workload.prepare_data();
  }
  // Untimed (capped) model creation / compilation.
  {
    auto region = timer.model_creation_region();
    workload.build_model(options.seed);
  }

  timer.start_run();

  // Restore INSIDE the timed window: §3.2.1 charges the restart cost to the
  // result, same as the checkpoint writes that made it possible.
  std::int64_t first_epoch = 0;
  std::string last_checkpoint = options.resume_from;
  if (!options.resume_from.empty()) {
    const double restore_t0 = clock.now_ms();
    checkpoint::CheckpointReader ckpt =
        checkpoint::CheckpointReader::read_file(options.resume_from);
    checkpoint::ByteReader meta = ckpt.section("meta");
    const std::string benchmark = meta.get_string();
    if (benchmark != workload.name())
      throw checkpoint::CheckpointError("resume: checkpoint is for benchmark '" + benchmark +
                                        "', not '" + workload.name() + "'");
    const std::string signature = meta.get_string();
    if (signature != workload.model_signature())
      throw checkpoint::CheckpointError("resume: checkpoint model signature '" + signature +
                                        "' does not match '" + workload.model_signature() +
                                        "'");
    const std::uint64_t ckpt_seed = meta.get_u64();
    if (ckpt_seed != options.seed)
      throw checkpoint::CheckpointError(
          "resume: checkpoint seed " + std::to_string(ckpt_seed) +
          " does not match requested seed " + std::to_string(options.seed));
    first_epoch = meta.get_i64();
    outcome.final_quality = meta.get_f64();
    checkpoint::ByteReader curve = ckpt.section("curve");
    const std::uint64_t n_points = curve.get_u64();
    // Each point is i64 + f64 + f64 = 24 bytes; a corrupt count must fail as
    // a clean CheckpointError, not a length_error/bad_alloc from reserve.
    if (n_points > curve.remaining() / 24)
      throw checkpoint::CheckpointError(
          "resume: curve section claims " + std::to_string(n_points) + " points but only " +
          std::to_string(curve.remaining()) + " payload bytes remain");
    outcome.curve.reserve(static_cast<std::size_t>(n_points));
    for (std::uint64_t i = 0; i < n_points; ++i) {
      EpochPoint p;
      p.epoch = curve.get_i64();
      p.quality = curve.get_f64();
      p.elapsed_ms = curve.get_f64();
      outcome.curve.push_back(p);
    }
    checkpoint::ByteReader tsec = ckpt.section("timer");
    const double prior_timed = tsec.get_f64();
    const double prior_unexcluded = tsec.get_f64();
    timer.carry_prior(prior_timed, prior_unexcluded);
    workload.restore_state(ckpt);
    outcome.epochs = first_epoch;
    outcome.resumed_from_epoch = first_epoch;
    log.log(clock.now_ms(), core::keys::kCheckpointRestored,
            static_cast<double>(first_epoch),
            {{"path", options.resume_from},
             {"restore_ms", std::to_string(clock.now_ms() - restore_t0)},
             {"prior_timed_ms", std::to_string(prior_timed)}});
  }

  // Snapshot the complete training state: the harness-owned sections (run
  // identity, curve, timer accounting, this session's log so far) plus the
  // workload-owned ones (model/optimizer/rng/...). Epoch-boundary only.
  auto save_checkpoint = [&](std::int64_t epochs_done) {
    const double save_t0 = clock.now_ms();
    checkpoint::CheckpointWriter w;
    checkpoint::ByteWriter& meta = w.section("meta");
    meta.put_string(workload.name());
    meta.put_string(workload.model_signature());
    meta.put_u64(options.seed);
    meta.put_i64(epochs_done);
    meta.put_f64(outcome.final_quality);
    checkpoint::ByteWriter& curve = w.section("curve");
    curve.put_u64(outcome.curve.size());
    for (const EpochPoint& p : outcome.curve) {
      curve.put_i64(p.epoch);
      curve.put_f64(p.quality);
      curve.put_f64(p.elapsed_ms);
    }
    checkpoint::ByteWriter& tsec = w.section("timer");
    tsec.put_f64(timer.timed_so_far_ms());
    tsec.put_f64(timer.unexcluded_so_far_ms());
    w.section("log").put_string(log.serialize());
    workload.save_state(w);
    w.write_file(options.checkpoint_path);
    ++outcome.checkpoints_written;
    log.log(clock.now_ms(), core::keys::kCheckpointSaved, static_cast<double>(epochs_done),
            {{"path", options.checkpoint_path},
             {"bytes", std::to_string(w.byte_size())},
             {"write_ms", std::to_string(clock.now_ms() - save_t0)}});
    last_checkpoint = options.checkpoint_path;
  };

  // Probabilistic faults draw from their own stream, mixed with the resume
  // point so each restarted session rolls fresh (rather than replaying the
  // exact failure schedule that just killed it).
  tensor::Rng fault_rng(options.fault.seed ^
                        (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(first_epoch + 1)));

  const double run_start_ms = log.find(core::keys::kRunStart)->time_ms;
  // Tensor-pool warm-up boundary: the first full iteration (train + eval +
  // possible checkpoint) touches every recurring buffer shape, so its misses
  // are expected. A miss AFTER this snapshot means a fresh allocation crept
  // into the steady-state loop; -1 until the first iteration completes.
  std::int64_t pool_warm_misses = -1;
  for (std::int64_t epoch = first_epoch; epoch < options.max_epochs; ++epoch) {
    log.log(clock.now_ms(), core::keys::kEpochStart, static_cast<double>(epoch));
    log.log(clock.now_ms(), core::keys::kDataTouch, std::string("train"),
            {{"split", "train"}});
    workload.train_epoch();
    log.log(clock.now_ms(), core::keys::kEpochStop, static_cast<double>(epoch));
    outcome.epochs = epoch + 1;

    const bool do_eval =
        (epoch + 1) % options.eval_interval == 0 || epoch + 1 == options.max_epochs;
    if (do_eval) {
      log.log(clock.now_ms(), core::keys::kEvalStart, static_cast<double>(epoch));
      log.log(clock.now_ms(), core::keys::kDataTouch, std::string("eval"),
              {{"split", "val"}});
      // Quality evaluation is inference: no op records a tape (bitwise the
      // same quality, minus the graph bookkeeping — see NoGradGuard).
      double quality;
      {
        autograd::NoGradGuard no_grad;
        quality = workload.evaluate();
      }
      log.log(clock.now_ms(), core::keys::kEvalAccuracy, quality,
              {{"epoch", std::to_string(epoch)}});
      outcome.final_quality = quality;
      // Elapsed timed ms so far (run still open): carried prior + now - run_start.
      const double elapsed = timer.prior_timed_ms() + clock.now_ms() - run_start_ms;
      outcome.curve.push_back({epoch + 1, quality, elapsed});
      if (target.reached(quality)) {
        outcome.quality_reached = true;
        break;
      }
    }

    if (checkpointing && (epoch + 1) % options.checkpoint_every_n_epochs == 0)
      save_checkpoint(epoch + 1);

    if (pool_warm_misses < 0)
      pool_warm_misses = tensor::TensorPool::instance().stats().misses;

    if (options.fault.enabled()) {
      bool fire = options.fault.kill_after_epoch >= 0 &&
                  epoch + 1 == options.fault.kill_after_epoch;
      if (!fire && options.fault.per_epoch_fail_prob > 0.0)
        fire = fault_rng.uniform() < options.fault.per_epoch_fail_prob;
      if (fire) {
        if (options.fault.action == FaultPlan::Action::kSigkill) {
          std::raise(SIGKILL);  // real process death for the CI crash-resume leg
        }
        throw Preempted(epoch + 1, last_checkpoint);
      }
    }
  }
  timer.stop_run();
  const tensor::TensorPool::Stats pool_stats = tensor::TensorPool::instance().stats();
  if (pool_warm_misses >= 0)
    outcome.pool_steady_misses = pool_stats.misses - pool_warm_misses;
  log.log(clock.now_ms(), core::keys::kTensorPoolStats,
          static_cast<double>(outcome.pool_steady_misses),
          {{"hits", std::to_string(pool_stats.hits)},
           {"misses", std::to_string(pool_stats.misses)},
           {"bytes_cached", std::to_string(pool_stats.bytes_cached)}});
  if (options.op_profile) {
    for (const core::OpProfile::Entry& e : core::OpProfile::snapshot())
      log.log(clock.now_ms(), core::keys::kOpProfile, static_cast<double>(e.total_ns),
              {{"op", e.name}, {"calls", std::to_string(e.calls)}});
    core::OpProfile::set_enabled(false);
  }
  log.log(clock.now_ms(), core::keys::kQualityReached, outcome.quality_reached);
  outcome.time_to_train_ms = timer.time_to_train_ms();
  outcome.unexcluded_time_ms = timer.unexcluded_time_ms();
  return outcome;
}

RunOutcome run_to_target(models::Workload& workload, const core::QualityMetric& target,
                         const RunOptions& options) {
  core::SteadyClock clock;
  return run_to_target(workload, target, options, clock);
}

core::RunResult to_run_result(const RunOutcome& outcome) {
  core::RunResult r;
  r.log = outcome.log;
  r.time_to_train_ms = outcome.time_to_train_ms;
  r.final_quality = outcome.final_quality;
  r.quality_reached = outcome.quality_reached;
  return r;
}

std::uint64_t outcome_fingerprint(const RunOutcome& outcome) {
  std::uint64_t h = checkpoint::kFnvOffset;
  h = checkpoint::fnv1a(&outcome.epochs, sizeof outcome.epochs, h);
  const std::uint8_t reached = outcome.quality_reached ? 1 : 0;
  h = checkpoint::fnv1a(&reached, sizeof reached, h);
  const std::uint64_t n = outcome.curve.size();
  h = checkpoint::fnv1a(&n, sizeof n, h);
  for (const EpochPoint& p : outcome.curve) {
    h = checkpoint::fnv1a(&p.epoch, sizeof p.epoch, h);
    h = checkpoint::fnv1a(&p.quality, sizeof p.quality, h);  // exact bit pattern
    // elapsed_ms deliberately excluded: wall time is carried, not replayed.
  }
  return h;
}

}  // namespace mlperf::harness
