#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace mlperf::core {

/// Value carried by a log event.
using LogValue = std::variant<double, std::string, bool>;

/// One structured log event (a JSON line in the serialized form). Mirrors the
/// real mlperf_log: a timestamp, a key, a value, and string metadata.
struct LogEvent {
  double time_ms = 0.0;  ///< run-relative milliseconds (from the run's Clock)
  std::string key;
  LogValue value;
  std::map<std::string, std::string> meta;

  double as_number() const;
  const std::string& as_string() const;
  bool as_bool() const;
};

/// Canonical event keys (subset of the real mlperf_log key space, §4.1: logs
/// carry timestamps for workload stages, periodic quality, and HP choices).
namespace keys {
inline constexpr const char* kSubmissionBenchmark = "submission_benchmark";
inline constexpr const char* kSubmissionOrg = "submission_org";
inline constexpr const char* kSubmissionDivision = "submission_division";
inline constexpr const char* kSubmissionCategory = "submission_status";
inline constexpr const char* kReformatStart = "data_reformat_start";
inline constexpr const char* kReformatStop = "data_reformat_stop";
inline constexpr const char* kInitStart = "init_start";
inline constexpr const char* kInitStop = "init_stop";
inline constexpr const char* kModelCreationStart = "model_creation_start";
inline constexpr const char* kModelCreationStop = "model_creation_stop";
inline constexpr const char* kRunStart = "run_start";
inline constexpr const char* kRunStop = "run_stop";
inline constexpr const char* kEpochStart = "epoch_start";
inline constexpr const char* kEpochStop = "epoch_stop";
inline constexpr const char* kEvalStart = "eval_start";
inline constexpr const char* kEvalAccuracy = "eval_accuracy";
inline constexpr const char* kQualityTarget = "quality_target";
inline constexpr const char* kQualityReached = "quality_reached";
inline constexpr const char* kGlobalBatchSize = "global_batch_size";
inline constexpr const char* kHyperparameter = "hyperparameter";
inline constexpr const char* kDataTouch = "data_touch";
inline constexpr const char* kSeed = "seed";
inline constexpr const char* kAugmentationSignature = "augmentation_signature";
inline constexpr const char* kModelSignature = "model_signature";
inline constexpr const char* kOptimizerName = "optimizer_name";
// Checkpoint/restore (both fall inside the timed run window, so under the
// §3.2.1 rules the write and restore costs are charged to the result; the
// events make the charge auditable from the log alone).
inline constexpr const char* kCheckpointSaved = "checkpoint_saved";
inline constexpr const char* kCheckpointRestored = "checkpoint_restored";
// Tensor-pool health at run_stop: value is the steady-state miss count (pool
// misses after the first full epoch+eval iteration, which warms every
// recurring buffer shape); meta carries cumulative hits/misses/bytes. Zero
// steady-state misses is the "no allocations in the hot loop" invariant the
// CI smoke leg enforces.
inline constexpr const char* kTensorPoolStats = "tensor_pool_stats";
// Per-op cumulative time profile at run_stop (RunOptions::op_profile): one
// event per instrumented op, value = total nanoseconds summed across worker
// threads (CPU-time-style attribution), meta carries the op name and call
// count. Makes hot-path claims (e.g. "the ResNet step is dW-bounded") in
// EXPERIMENTS.md reproducible from a run log.
inline constexpr const char* kOpProfile = "op_profile";
}  // namespace keys

/// Append-only structured log for one training session. Serializes to JSON
/// lines and parses its own output (the compliance checker in core/review
/// consumes parsed logs, exactly as the real results process consumes
/// submitted log files).
class MlLog {
 public:
  void log(double time_ms, std::string key, LogValue value,
           std::map<std::string, std::string> meta = {});

  const std::vector<LogEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// First event with the key, if any.
  const LogEvent* find(const std::string& key) const;
  /// All events with the key, in order.
  std::vector<const LogEvent*> find_all(const std::string& key) const;
  /// Last event with the key, if any.
  const LogEvent* find_last(const std::string& key) const;

  /// One JSON line per event. Every double prints with enough digits to
  /// parse back to the same bits; non-finite values print as nan / inf /
  /// -inf, which parse() accepts. parse() throws std::invalid_argument on a
  /// malformed line.
  std::string serialize() const;
  static MlLog parse(const std::string& json_lines);

  /// Write/read the serialized log as a file — submissions ship their
  /// training-session logs as artifacts (§4.1). Throws on I/O failure.
  void write_file(const std::string& path) const;
  static MlLog read_file(const std::string& path);

 private:
  std::vector<LogEvent> events_;
};

/// Escape a string for inclusion in a JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace mlperf::core
