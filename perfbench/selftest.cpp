// Self-test of the benchmark's own helpers: the percentile rule, the time
// extraction from mlog events, the named-metric output, and the tracer's
// self-time and per-step accounting. Exits 0 when every check passes.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "metrics.h"
#include "trace.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentile() {
  using perfbench::percentile;
  check(near(percentile({3.0, 1.0, 2.0}, 50.0), 2.0), "median of three");
  check(near(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5), "median of four interpolates");
  check(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0), "p100 is the maximum");
  check(near(percentile({0.0, 10.0}, 95.0), 9.5), "p95 interpolates");
  check(near(percentile({7.0}, 95.0), 7.0), "one sample");
  check(throws([] { perfbench::percentile({}, 50.0); }), "empty sample throws");
  // The tail rule: p95 needs ten samples ranked beyond it (182 or more).
  check(perfbench::samples_beyond(200, 95.0) == 10, "200 samples leave 10 beyond p95");
  check(perfbench::samples_beyond(208, 95.0) == 11, "208 samples leave 11 beyond p95");
  check(perfbench::samples_beyond(182, 95.0) == 10, "182 samples leave 10 beyond p95");
  check(perfbench::samples_beyond(181, 95.0) == 9, "181 samples leave 9 beyond p95");
  check(perfbench::samples_beyond(0, 95.0) == 0, "no samples");
}

void test_log_times() {
  namespace k = mlperf::core::keys;
  mlperf::core::MlLog log;
  log.log(0.0, k::kReformatStart, true);
  log.log(250.0, k::kReformatStop, true);
  log.log(250.0, k::kModelCreationStart, true);
  log.log(300.0, k::kModelCreationStop, true);
  log.log(300.0, k::kRunStart, true);
  for (int e = 0; e < 3; ++e) {
    const double t0 = 300.0 + 1000.0 * e;
    log.log(t0, k::kEpochStart, static_cast<double>(e));
    log.log(t0 + 600.0 + 100.0 * e, k::kEpochStop, static_cast<double>(e));
    log.log(t0 + 800.0, k::kEvalStart, static_cast<double>(e));
    log.log(t0 + 900.0, k::kEvalAccuracy, 0.5);
  }
  const perfbench::LogTimes t = perfbench::log_times(log);
  check(near(t.reformat_s, 0.25), "reformat seconds");
  check(near(t.model_creation_s, 0.05), "model creation seconds");
  check(near(t.setup_s(), 0.30), "setup = reformat + model creation");
  check(near(t.train_s, 0.6 + 0.7 + 0.8), "summed epoch seconds");
  check(t.epochs == 3 && t.evals == 3, "epoch and eval counts");
  check(near(t.eval_s, 0.3), "summed eval seconds");
  const auto epochs = perfbench::durations_s(log, k::kEpochStart, k::kEpochStop);
  check(epochs.size() == 3 && near(epochs[2], 0.8), "per-epoch seconds");

  mlperf::core::MlLog unpaired;
  unpaired.log(0.0, k::kEpochStart, 0.0);
  check(throws([&] { (void)perfbench::log_times(unpaired); }), "unpaired epoch events throw");
  mlperf::core::MlLog reversed;
  reversed.log(5.0, k::kEpochStart, 0.0);
  reversed.log(1.0, k::kEpochStop, 0.0);
  check(throws([&] { (void)perfbench::log_times(reversed); }), "stop before start throws");
}

void test_output() {
  check(perfbench::metric_line({"ttt_s", 5.5, "s"}) == "ttt_s = 5.5 s", "metric line");
  const std::string json =
      perfbench::result_json(true, 3, 0, {{"ttt_s", 0.1, "s"}, {"peak_rss_mb", 64.0, "MB"}});
  check(json ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"ttt_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}, "
            "\"peak_rss_mb\": {\"value\": 64, \"unit\": \"MB\"}}}",
        "result json keeps every digit: " + json);
  check(perfbench::result_json(false, 2, 1, {}).rfind("{\"correct\": false", 0) == 0,
        "failed result");
  check(throws([] { perfbench::result_json(true, 1, 0, {{"x", std::nan(""), "s"}}); }),
        "non-finite value throws");
}

void test_tracer() {
  perfbench::Tracer tracer;
  perfbench::StepLayers L(tracer);
  for (int step = 0; step < 2; ++step) {
    perfbench::Tracer::Span s(tracer, L.step);
    for (int part = 0; part < 2; ++part) {
      perfbench::Tracer::Span o(tracer, L.optim);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  check(L.step.call_ms.size() == 2 && L.step.step_ms.size() == 2, "two steps recorded");
  check(L.optim.call_ms.size() == 4 && L.optim.step_ms.size() == 2,
        "optimizer: four calls summed into two steps");
  check(L.optim.step_ms[0] >= 4.0 && near(L.optim.step_ms[0] + L.optim.step_ms[1],
                                          1000.0 * L.optim.total_s),
        "per-step sums add up to the total");
  check(near(L.step.self_s, L.step.total_s - L.optim.total_s), "self = total - children");
  check(near(L.optim.self_s, L.optim.total_s), "leaf self time is its total");
  check(L.infer.call_ms.empty() && L.infer.step_ms.empty(), "untouched layer stays empty");
}

}  // namespace

int main() {
  test_percentile();
  test_log_times();
  test_output();
  test_tracer();
  std::printf("%s (%d failures)\n", failures ? "selftest FAILED" : "selftest passed", failures);
  return failures ? 1 : 0;
}
