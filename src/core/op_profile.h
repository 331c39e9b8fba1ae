#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace mlperf::core {

/// The instrumented hot-path operations. Fixed slots (not a string map) so a
/// profiled region costs two atomic adds and two clock reads — cheap enough
/// to leave compiled into the per-sample conv loops and enable per run.
enum class ProfiledOp : int {
  kIm2col = 0,      ///< patch gather in the conv forward
  kCol2im,          ///< dX scatter-accumulate back to image layout
  kConvForward,     ///< whole conv2d forward op (pack + GEMM + bias)
  kConvDw,          ///< weight-gradient f64acc GEMM (pack + micro-kernel)
  kConvDx,          ///< input-gradient GEMM
  kConvDb,          ///< bias-gradient channel reduction
  kSoftmaxFused,    ///< fused scale+mask+softmax forward
  kSoftmaxFusedBwd, ///< fused softmax backward
  kCount,
};

/// Process-wide cumulative per-op time profile, the observability half of the
/// conv dW work: `RunOptions::op_profile` resets and enables it for a run and
/// the harness emits one `op_profile` mlog event per op at run end, so the
/// "train step is dW-bounded" attribution in EXPERIMENTS.md is reproducible
/// from any run log. Counters are atomics because profiled regions execute
/// inside parallel_for workers (per-sample im2col/dW); totals are therefore
/// cumulative across threads — CPU-time-style attribution, not wall time.
/// Disabled (the default) the timer guard reads one relaxed atomic and skips
/// the clock entirely.
class OpProfile {
 public:
  struct Entry {
    const char* name;
    std::int64_t calls;
    std::int64_t total_ns;
  };

  static void set_enabled(bool on);
  static bool enabled();
  /// Zero every slot (call while no profiled op is in flight).
  static void reset();
  static void add(ProfiledOp op, std::int64_t ns);
  /// All slots with at least one call, in enum order.
  static std::vector<Entry> snapshot();
};

/// RAII region timer: charges the enclosed scope to one ProfiledOp slot.
/// No-op (no clock read) while profiling is disabled.
class OpTimer {
 public:
  explicit OpTimer(ProfiledOp op) : op_(op), armed_(OpProfile::enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~OpTimer() {
    if (armed_)
      OpProfile::add(op_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start_)
                              .count());
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  ProfiledOp op_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mlperf::core
