// Quickstart: train one MLPerf reference workload to its quality target under
// the paper's timing rules, and print the structured training log.
//
//   $ ./quickstart [benchmark] [num_threads] [flags]
//
// where benchmark is one of: image_classification, object_detection_light,
// object_detection_heavy, translation_recurrent, translation_nonrecurrent,
// recommendation, reinforcement_learning (default: recommendation — the
// fastest one), and num_threads sizes the intra-op worker pool (1 to 256,
// default 1; the result is bitwise identical at any value). Flags:
//
//   --checkpoint_every_n_epochs=N  write a full-state checkpoint every N epochs
//                                  (1 to 120)
//   --checkpoint_path=FILE         where to write it (default quickstart.ckpt;
//                                  only with --checkpoint_every_n_epochs)
//   --resume_from=FILE             resume a preempted run from this checkpoint
//   --kill_after_epoch=K           fault injection: SIGKILL after epoch K
//                                  (1 to 120; for crash-resume testing;
//                                  exits 137)
//   --pool_stats                   print tensor-pool counters and im2col
//                                  sweeps after the run; CI greps the
//                                  steady-state miss and pack-cache lines
//   --op_profile                   per-op cumulative time profile: prints one
//                                  line per instrumented op after the run
//                                  (also emitted as op_profile log events)
//
// Exits 0 when the run reaches its target, 1 when it misses or on a usage
// error (an unknown flag or benchmark, an integer that is not whole or out of
// range, --checkpoint_path without --checkpoint_every_n_epochs), and 2 with
// "error: <what>" when the run throws (for example on a corrupt --resume_from
// checkpoint).
#include <charconv>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/op_profile.h"
#include "harness/reference.h"
#include "harness/run.h"
#include "nn/functional.h"
#include "tensor/pool.h"

using namespace mlperf;

namespace {

constexpr long kMaxEpochs = 120;
constexpr long kMaxThreads = 256;

/// The whole of `text` as a base-10 integer in [lo, hi]; prints a usage
/// error naming `what` and returns nullopt otherwise.
std::optional<long> parse_int(const std::string& text, const char* what, long lo, long hi) {
  long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && value >= lo && value <= hi) return value;
  std::fprintf(stderr, "%s must be an integer in [%ld, %ld], got '%s'\n", what, lo, hi,
               text.c_str());
  return std::nullopt;
}

int run_quickstart(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string checkpoint_path = "quickstart.ckpt";
  bool checkpoint_path_set = false;
  std::string resume_from;
  long checkpoint_every = 0;
  long kill_after_epoch = -1;
  bool pool_stats = false;
  bool op_profile = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = flag_value("checkpoint_every_n_epochs")) {
      const auto n = parse_int(*v, "--checkpoint_every_n_epochs", 1, kMaxEpochs);
      if (!n) return 1;
      checkpoint_every = *n;
    } else if (auto v = flag_value("checkpoint_path")) {
      checkpoint_path = *v;
      checkpoint_path_set = true;
    } else if (auto v = flag_value("resume_from")) {
      resume_from = *v;
    } else if (auto v = flag_value("kill_after_epoch")) {
      const auto k = parse_int(*v, "--kill_after_epoch", 1, kMaxEpochs);
      if (!k) return 1;
      kill_after_epoch = *k;
    } else if (arg == "--pool_stats") {
      pool_stats = true;
    } else if (arg == "--op_profile") {
      op_profile = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 1;
    } else {
      positional.push_back(arg);
    }
  }

  // A path with nothing to write there would train, exit 0 and leave no file.
  if (checkpoint_path_set && checkpoint_every == 0) {
    std::fprintf(stderr, "--checkpoint_path needs --checkpoint_every_n_epochs\n");
    return 1;
  }

  const core::SuiteVersion suite = core::suite_v05();
  core::BenchmarkId id = core::BenchmarkId::kRecommendation;
  if (!positional.empty()) {
    std::optional<core::BenchmarkId> found;
    for (const auto& spec : suite.benchmarks)
      if (spec.name == positional[0]) found = spec.id;
    if (!found) {
      std::fprintf(stderr, "unknown benchmark '%s'; options are:\n", positional[0].c_str());
      for (const auto& spec : suite.benchmarks)
        std::fprintf(stderr, "  %s\n", spec.name.c_str());
      return 1;
    }
    id = *found;
  }

  const core::BenchmarkSpec& spec = core::find_spec(suite, id);
  std::printf("== MLPerf mini reference: %s ==\n", spec.name.c_str());
  std::printf("paper workload: %s on %s, threshold %.3g %s\n", spec.model.c_str(),
              spec.dataset.c_str(), spec.paper_quality.target,
              spec.paper_quality.name.c_str());
  std::printf("mini target:    %.3g %s\n\n", spec.mini_quality.target,
              spec.mini_quality.name.c_str());

  auto workload = harness::make_reference_workload(id, harness::WorkloadScale::kReference);
  harness::RunOptions opts;
  opts.seed = 42;
  opts.max_epochs = kMaxEpochs;
  if (positional.size() > 1) {
    const auto threads = parse_int(positional[1], "num_threads", 1, kMaxThreads);
    if (!threads) return 1;
    opts.num_threads = *threads;
  }
  if (checkpoint_every > 0) {
    opts.checkpoint_every_n_epochs = checkpoint_every;
    opts.checkpoint_path = checkpoint_path;
    std::printf("checkpointing every %ld epoch(s) to %s\n", checkpoint_every,
                checkpoint_path.c_str());
  }
  if (!resume_from.empty()) {
    opts.resume_from = resume_from;
    std::printf("resuming from %s\n", resume_from.c_str());
  }
  if (kill_after_epoch >= 0) {
    opts.fault.kill_after_epoch = kill_after_epoch;
    opts.fault.action = harness::FaultPlan::Action::kSigkill;
    std::printf("fault injection armed: SIGKILL after epoch %ld\n", kill_after_epoch);
  }
  opts.op_profile = op_profile;
  std::printf("intra-op threads: %lld\n\n", static_cast<long long>(opts.num_threads));
  const harness::RunOutcome out =
      harness::run_to_target(*workload, spec.mini_quality, opts);
  if (out.resumed_from_epoch >= 0)
    std::printf("resumed at epoch %lld; prior timed ms carried into the result\n",
                static_cast<long long>(out.resumed_from_epoch));

  std::printf("quality curve:\n");
  for (const auto& p : out.curve)
    std::printf("  epoch %3lld  %s = %.4f  (%.0f ms elapsed)\n",
                static_cast<long long>(p.epoch), spec.mini_quality.name.c_str(), p.quality,
                p.elapsed_ms);
  std::printf("\n%s in %lld epochs; official time-to-train %.0f ms "
              "(unexcluded wall %.0f ms)\n\n",
              out.quality_reached ? "TARGET REACHED" : "target missed",
              static_cast<long long>(out.epochs), out.time_to_train_ms,
              out.unexcluded_time_ms);

  std::printf("structured mlperf log (first 12 events):\n");
  int n = 0;
  for (const auto& e : out.log.events()) {
    if (++n > 12) break;
    std::printf("  %s", e.key.c_str());
    // Hyperparameter events carry the hyperparameter's name in their meta.
    if (const auto name = e.meta.find("name"); name != e.meta.end())
      std::printf(" %s", name->second.c_str());
    if (const double* d = std::get_if<double>(&e.value)) std::printf(" = %g", *d);
    if (const std::string* s = std::get_if<std::string>(&e.value))
      std::printf(" = %s", s->c_str());
    std::printf("\n");
  }
  std::printf("  ... (%zu events total; serialize with MlLog::serialize())\n",
              out.log.events().size());

  if (pool_stats) {
    const tensor::TensorPool::Stats ps = tensor::TensorPool::instance().stats();
    std::printf("\ntensor pool: %lld hits, %lld misses, %lld bytes cached, "
                "%lld bytes outstanding\n",
                static_cast<long long>(ps.hits), static_cast<long long>(ps.misses),
                static_cast<long long>(ps.bytes_cached),
                static_cast<long long>(ps.bytes_outstanding));
    // The line the CI smoke leg greps: misses past the first full epoch+eval
    // iteration mean an allocation crept back into the steady-state loop.
    std::printf("steady-state pool misses after warm-up: %lld\n",
                static_cast<long long>(out.pool_steady_misses));
    // The pack-cache line CI greps: the cached slabs are released with
    // each step's graph, so none may be live once the run is over.
    std::printf("im2col sweeps: %lld (pack cache: %lld bytes live)\n",
                static_cast<long long>(nn::im2col_calls()),
                static_cast<long long>(nn::conv_pack_cache_live_bytes()));
  }
  if (op_profile) {
    std::printf("\nper-op cumulative time (summed across worker threads):\n");
    for (const auto& e : core::OpProfile::snapshot())
      std::printf("  %-18s %10lld calls  %12.3f ms\n", e.name,
                  static_cast<long long>(e.calls), static_cast<double>(e.total_ns) * 1e-6);
  }
  return out.quality_reached ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_quickstart(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
