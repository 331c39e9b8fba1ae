#pragma once

#include <chrono>
#include <memory>
#include <stdexcept>

#include "core/mlog.h"

namespace mlperf::core {

/// Time source abstraction so the timing rules are unit-testable (ManualClock)
/// and the cluster simulator can drive virtual time (sysim).
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic milliseconds since an arbitrary epoch.
  virtual double now_ms() const = 0;
};

class SteadyClock final : public Clock {
 public:
  double now_ms() const override {
    const auto d = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double, std::milli>(d).count();
  }
};

class ManualClock final : public Clock {
 public:
  double now_ms() const override { return t_; }
  void advance_ms(double dt) { t_ += dt; }

 private:
  double t_ = 0.0;
};

/// Implements the paper's timing rules (§3.2.1):
///
///  * Timing begins when training/validation data is first touched
///    (`start_run`) and stops when the quality target is reached (`stop_run`).
///  * System initialization is excluded: an `init` region may only occur
///    before `start_run`.
///  * Model creation/compilation is excluded up to a cap (the paper's 20
///    minutes, configurable here since our workloads are scaled); any excess
///    beyond the cap is charged to the timed result.
///  * Data reformatting is excluded but must be one-time and pre-run: a
///    `reformat` region may only occur before `start_run`. (The rule that
///    training-time augmentation must NOT be moved into reformat is enforced
///    structurally by data::ReformattedImageSet and checked by core/review.)
///
/// All region transitions are logged to the MlLog so the compliance checker
/// can re-derive and audit them from the serialized log alone.
class TrainingTimer {
 public:
  /// `model_creation_cap_ms`: analogue of the 20-minute exclusion cap.
  TrainingTimer(const Clock& clock, MlLog& log, double model_creation_cap_ms);

  /// RAII region guard.
  class Region {
   public:
    Region(TrainingTimer& t, const char* start_key, const char* stop_key);
    ~Region();
    Region(const Region&) = delete;
    Region& operator=(const Region&) = delete;

   private:
    TrainingTimer& timer_;
    const char* stop_key_;
  };

  Region untimed_init_region() { return Region(*this, keys::kInitStart, keys::kInitStop); }
  Region reformat_region() { return Region(*this, keys::kReformatStart, keys::kReformatStop); }
  Region model_creation_region() {
    return Region(*this, keys::kModelCreationStart, keys::kModelCreationStop);
  }

  /// Begin the timed run. Must be called exactly once, after any untimed
  /// regions have closed.
  void start_run();

  /// End the timed run (quality reached — caller logs the final accuracy).
  void stop_run();

  bool run_started() const { return run_start_ms_ >= 0.0; }
  bool run_stopped() const { return run_stop_ms_ >= 0.0; }

  /// Official result: run_stop - run_start + max(0, model_creation - cap),
  /// plus any prior timed milliseconds carried from a checkpointed session.
  double time_to_train_ms() const;

  /// What the result would be WITHOUT the exclusions (for the timing-rules
  /// ablation): total wall time from the first region/open to run_stop, plus
  /// any carried prior unexcluded time.
  double unexcluded_time_ms() const;

  /// Resume accounting (checkpoint/restore, §3.2.1 applied across restarts):
  /// a restored session carries the timed and unexcluded milliseconds the
  /// preempted session(s) had accumulated when the checkpoint was written.
  /// Must be called before stop_run (the harness calls it right after
  /// start_run, so the restore cost itself lands inside the timed window).
  void carry_prior(double prior_timed_ms, double prior_unexcluded_ms);
  double prior_timed_ms() const { return prior_timed_ms_; }

  /// Timed milliseconds accumulated so far in an OPEN run (now - run_start,
  /// plus carried prior time and any model-creation excess beyond the cap).
  /// This is what a checkpoint records so a restored session can continue the
  /// time-to-train accounting.
  double timed_so_far_ms() const;
  /// Same, without the exclusions (now - first event + carried prior).
  double unexcluded_so_far_ms() const;

  double now_ms() const { return clock_->now_ms(); }
  MlLog& log() { return *log_; }

 private:
  void region_start(const char* key);
  void region_stop(const char* key);

  const Clock* clock_;
  MlLog* log_;
  double model_creation_cap_ms_;
  double first_event_ms_ = -1.0;
  double run_start_ms_ = -1.0;
  double run_stop_ms_ = -1.0;
  double model_creation_total_ms_ = 0.0;
  double prior_timed_ms_ = 0.0;
  double prior_unexcluded_ms_ = 0.0;
  double region_open_ms_ = -1.0;
  const char* open_key_ = nullptr;
};

}  // namespace mlperf::core
