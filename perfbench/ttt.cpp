// Time-to-train benchmark driver.
//
//   perfbench_ttt --workload resnet-t4|transformer-t1|minigo-t4
//                 [--seed N] [--seconds S] [--trace 0|1] [--workload-seed W]
//
// --trace 0 (untraced): trains the workload to its mini quality target through
// harness::run_to_target again and again, one session at a time, for about S
// seconds (at least three sessions), and reports the end-to-end metrics as
// medians over the sessions (setup_s over at least nine setups). Every session trains at the workload seed W
// (default 42, as quickstart), so each one does the same work and must print
// the same outcome fingerprint.
//
// --trace 1 (traced): one untraced session for the log- and counter-derived
// layer metrics, then the benchmark's own copy of the workload's step loop,
// with a span around every call into a layer, for as many epochs as the
// session needed, then a second untraced session for the tracing overhead.
// Reports the per-layer metrics.
//
// Prints every metric as "name = value unit" and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 0 whenever it
// printed that object, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmark_spec.h"
#include "harness/reference.h"
#include "harness/run.h"
#include "metrics.h"
#include "models/minigo.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "tensor/pool.h"
#include "traced_loops.h"

using namespace mlperf;
using perfbench::Metric;

namespace {

struct WorkloadDef {
  const char* name;
  core::BenchmarkId id;
  std::int64_t threads;
  std::int64_t samples_per_epoch;  ///< examples consumed by one epoch's gradient steps
  void (*trace)(std::uint64_t, std::int64_t, perfbench::TracedRun&);
};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = [] {
    const models::MiniGoWorkload::Config go{};
    return std::vector<WorkloadDef>{
        {"resnet-t4", core::BenchmarkId::kImageClassification, 4,
         models::ResNetWorkload::Config{}.dataset.train_size, perfbench::trace_resnet},
        {"transformer-t1", core::BenchmarkId::kTranslationNonRecurrent, 1,
         models::TransformerWorkload::Config{}.dataset.train_size, perfbench::trace_transformer},
        {"minigo-t4", core::BenchmarkId::kReinforcementLearning, 4,
         go.train_batches_per_epoch * go.batch_size, perfbench::trace_minigo},
    };
  }();
  return defs;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// Steady wall clock that also samples process CPU time at every reading, so
/// the CPU spent between two logged events can be read back afterwards.
class SamplingClock final : public core::Clock {
 public:
  double now_ms() const override {
    const double wall = wall_.now_ms();
    cpu_at_[wall] = process_cpu_ms();
    return wall;
  }
  /// CPU milliseconds sampled at a reading that returned `wall_ms`.
  double cpu_at(double wall_ms) const {
    const auto it = cpu_at_.find(wall_ms);
    if (it == cpu_at_.end()) throw std::runtime_error("SamplingClock: no sample at that time");
    return it->second;
  }

 private:
  core::SteadyClock wall_;
  mutable std::map<double, double> cpu_at_;
};

struct Session {
  harness::RunOutcome out;
  perfbench::LogTimes times;
  double wall_s = 0.0;          ///< whole run_to_target call
  double cpu_per_wall = 0.0;    ///< over run_start -> run_stop
  tensor::TensorPool::Stats pool_before, pool_after;
};

Session run_session(const WorkloadDef& def, std::uint64_t seed, std::int64_t max_epochs = 120) {
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec = core::find_spec(suite, def.id);
  auto workload = harness::make_reference_workload(def.id, harness::WorkloadScale::kReference);
  harness::RunOptions opts;
  opts.seed = seed;
  opts.max_epochs = max_epochs;
  opts.num_threads = def.threads;
  Session s;
  SamplingClock clock;
  s.pool_before = tensor::TensorPool::instance().stats();
  const auto t0 = std::chrono::steady_clock::now();
  s.out = harness::run_to_target(*workload, spec.mini_quality, opts, clock);
  s.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  s.pool_after = tensor::TensorPool::instance().stats();
  s.times = perfbench::log_times(s.out.log);
  const double start = s.out.log.find(core::keys::kRunStart)->time_ms;
  const double stop = s.out.log.find(core::keys::kRunStop)->time_ms;
  s.cpu_per_wall = (clock.cpu_at(stop) - clock.cpu_at(start)) / (stop - start);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) std::printf("%s\n", perfbench::metric_line(m).c_str());
  std::printf("%s\n", perfbench::result_json(correct, attempted, failed, metrics).c_str());
}

int run_untraced(const WorkloadDef& def, std::uint64_t seed, double seconds) {
  constexpr std::int64_t kMinSessions = 3, kSetupSamples = 9;
  std::vector<double> ttt, samples_per_s, setup;
  std::int64_t attempted = 0, failed = 0, epochs = -1;
  std::optional<std::uint64_t> fingerprint;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0, last_wall = 0.0;
  while (attempted < kMinSessions || elapsed + last_wall <= seconds) {
    ++attempted;
    try {
      const Session s = run_session(def, seed);
      const std::uint64_t fp = harness::outcome_fingerprint(s.out);
      if (!fingerprint) fingerprint = fp;
      if (epochs < 0) epochs = s.out.epochs;
      const bool ok = s.out.quality_reached && fp == *fingerprint;
      std::printf("session %" PRId64 ": seed %" PRIu64 " threads %" PRId64 " epochs %" PRId64
                  " %s ttt %.3f s fingerprint %016" PRIx64 "%s\n",
                  attempted, seed, def.threads, s.out.epochs,
                  s.out.quality_reached ? "reached" : "MISSED", s.out.time_to_train_ms / 1000.0, fp,
                  fp == *fingerprint ? "" : " MISMATCH");
      if (!ok) ++failed;
      ttt.push_back(s.out.time_to_train_ms / 1000.0);
      samples_per_s.push_back(static_cast<double>(s.out.epochs * def.samples_per_epoch) /
                              s.times.train_s);
      setup.push_back(s.times.setup_s());
      last_wall = s.wall_s;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "session %" PRId64 " failed: %s\n", attempted, e.what());
      ++failed;
    }
    std::fflush(stdout);
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (attempted >= 64) break;
  }
  if (ttt.empty()) {
    std::fprintf(stderr, "no session completed\n");
    return 1;
  }
  // Setup takes milliseconds on two of the workloads, so its median needs
  // more samples than there are sessions: set up again without training.
  while (static_cast<std::int64_t>(setup.size()) < kSetupSamples)
    setup.push_back(run_session(def, seed, /*max_epochs=*/0).times.setup_s());
  print_result(failed == 0, attempted, failed,
               {{"ttt_s", perfbench::median(ttt), "s"},
                {"train_samples_per_s", perfbench::median(samples_per_s), "1/s"},
                {"setup_s", perfbench::median(setup), "s"},
                {"epochs_to_target", static_cast<double>(epochs), "epochs"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int run_traced(const WorkloadDef& def, std::uint64_t seed) {
  std::int64_t failed = 0;
  const Session s = run_session(def, seed);
  if (!s.out.quality_reached) {
    std::printf("untraced session MISSED the target\n");
    ++failed;
  }
  perfbench::TracedRun run;
  def.trace(seed, s.out.epochs, run);
  const perfbench::StepLayers& L = run.layers;
  if (!run.fidelity_error.empty()) {
    std::printf("fidelity FAILED: %s\n", run.fidelity_error.c_str());
    ++failed;
  } else {
    std::printf("fidelity: %s\n", run.fidelity_checked
                                       ? "weights after epoch 1 equal the workload's own"
                                       : "not checked (the workload does not expose its model)");
  }

  const auto& steps_ms = L.step.step_ms;
  const std::int64_t beyond_p95 =
      perfbench::samples_beyond(static_cast<std::int64_t>(steps_ms.size()), 95.0);
  if (beyond_p95 < 10) {
    std::printf("only %" PRId64 " steps beyond p95 (need 10)\n", beyond_p95);
    ++failed;
  }
  const double coverage = 100.0 * (1.0 - L.step.self_s / L.step.total_s);
  if (coverage < 95.0) {
    std::printf("trace coverage %.2f %% is below 95 %%\n", coverage);
    ++failed;
  }
  // The untraced epoch time brackets the traced copy: epochs of the first
  // session and of a second one run after the copy, so that a slow spell of
  // the machine during one of the three does not decide the overhead alone.
  std::vector<double> untraced_epoch_s =
      perfbench::durations_s(s.out.log, core::keys::kEpochStart, core::keys::kEpochStop);
  const Session after = run_session(def, seed);
  if (!after.out.quality_reached ||
      harness::outcome_fingerprint(after.out) != harness::outcome_fingerprint(s.out)) {
    std::printf("second untraced session missed the target or changed its fingerprint\n");
    ++failed;
  }
  for (double e : perfbench::durations_s(after.out.log, core::keys::kEpochStart,
                                         core::keys::kEpochStop))
    untraced_epoch_s.push_back(e);

  auto p50_step = [](const perfbench::Tracer::Layer& l) {
    return l.step_ms.empty() ? 0.0 : perfbench::median(l.step_ms);
  };
  auto p50_call = [](const perfbench::Tracer::Layer& l) {
    return l.call_ms.empty() ? 0.0 : perfbench::median(l.call_ms);
  };
  const auto pool_hits = s.pool_after.hits - s.pool_before.hits;
  const auto pool_misses = s.pool_after.misses - s.pool_before.misses;
  const std::vector<Metric> metrics = {
      {"step.p50_ms", perfbench::median(steps_ms), "ms"},
      {"step.p95_ms", perfbench::percentile(steps_ms, 95.0), "ms"},
      {"data.next.p50_ms", p50_step(L.data), "ms"},
      {"data.next.self_s", L.data.self_s, "s"},
      {"models.forward.p50_ms", p50_step(L.forward), "ms"},
      {"models.forward.self_s", L.forward.self_s, "s"},
      {"nn.loss.self_s", L.loss.self_s, "s"},
      {"autograd.backward.p50_ms", p50_step(L.backward), "ms"},
      {"autograd.backward.self_s", L.backward.self_s, "s"},
      {"optim.step.p50_ms", p50_step(L.optim), "ms"},
      {"optim.step.self_s", L.optim.self_s, "s"},
      {"go.selfplay.self_s", L.selfplay.self_s, "s"},
      {"go.positions_per_s",
       L.selfplay.total_s > 0.0 ? static_cast<double>(run.positions) / L.selfplay.total_s : 0.0,
       "1/s"},
      {"models.mcts_search.p50_ms", p50_call(L.mcts_search), "ms"},
      {"models.infer.p50_ms", p50_call(L.infer), "ms"},
      {"models.infer.calls", static_cast<double>(L.infer.call_ms.size()), "count"},
      {"harness.train_epoch_s", s.times.train_s / static_cast<double>(s.times.epochs), "s"},
      {"harness.eval_s", s.times.eval_s / static_cast<double>(s.times.evals), "s"},
      {"harness.reformat_s", s.times.reformat_s, "s"},
      {"harness.model_creation_s", s.times.model_creation_s, "s"},
      {"tensor.pool_hit_ratio",
       static_cast<double>(pool_hits) / static_cast<double>(std::max<std::int64_t>(1, pool_hits + pool_misses)),
       "ratio"},
      {"tensor.pool_steady_misses", static_cast<double>(s.out.pool_steady_misses), "count"},
      {"tensor.pool_cached_mb", static_cast<double>(s.pool_after.bytes_cached) / (1 << 20), "MB"},
      {"nn.im2col_sweeps_per_step",
       static_cast<double>(run.im2col_sweeps) / static_cast<double>(std::max<std::int64_t>(1, run.steps)),
       "count"},
      {"parallel.cpu_per_wall", s.cpu_per_wall, "ratio"},
      {"trace.overhead_pct",
       100.0 * (perfbench::median(run.epoch_s) / perfbench::median(untraced_epoch_s) - 1.0), "%"},
      {"trace.coverage_pct", coverage, "%"},
  };
  std::printf("traced: %" PRId64 " epochs, %" PRId64 " steps, %" PRId64 " samples, %zu steps "
              "timed (%" PRId64 " beyond p95)\n",
              static_cast<std::int64_t>(run.epoch_s.size()), run.steps, run.samples,
              steps_ms.size(), beyond_p95);
  print_result(failed == 0, /*attempted=*/3, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0, workload_seed = 42;
  double seconds = 40.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") name = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--workload-seed") workload_seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "every flag takes a value\n");
    return 2;
  }
  const auto& defs = workloads();
  const auto def = std::find_if(defs.begin(), defs.end(),
                                [&](const WorkloadDef& d) { return name == d.name; });
  if (def == defs.end()) {
    std::fprintf(stderr, "unknown workload '%s'; options: resnet-t4 transformer-t1 minigo-t4\n",
                 name.c_str());
    return 2;
  }
  WorkloadDef w = *def;
  const auto cores = static_cast<std::int64_t>(std::max(1u, std::thread::hardware_concurrency()));
  w.threads = std::min(w.threads, cores);
  std::printf("workload %s: seed %" PRIu64 ", workload seed %" PRIu64 ", %" PRId64
              " threads, %s\n",
              w.name, seed, workload_seed, w.threads, trace ? "traced" : "untraced");
  try {
    return trace ? run_traced(w, workload_seed) : run_untraced(w, workload_seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
