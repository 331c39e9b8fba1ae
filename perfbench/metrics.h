#pragma once
// Helpers of the time-to-train benchmark that its self-test checks on their
// own: the percentile rule, the time extraction from a run's mlog, and the
// named-metric output.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mlog.h"

namespace perfbench {

namespace core = mlperf::core;

/// Linearly interpolated percentile (p in [0, 100]) at position (n-1)*p/100
/// of the sorted sample. Throws on an empty sample.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(xs.begin(), xs.end());
  const double pos = static_cast<double>(xs.size() - 1) * p / 100.0;
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

/// Samples ranked strictly above percentile p in a sample of n. A tail
/// percentile is reported only when at least ten samples lie beyond it.
inline std::int64_t samples_beyond(std::int64_t n, double p) {
  if (n <= 0) return 0;
  const auto rank = static_cast<std::int64_t>(std::floor(static_cast<double>(n - 1) * p / 100.0));
  return n - 1 - rank;
}

/// Seconds a session spent in each phase, read back from its mlog events.
struct LogTimes {
  double reformat_s = 0.0;        ///< data_reformat_start -> data_reformat_stop
  double model_creation_s = 0.0;  ///< model_creation_start -> model_creation_stop
  double train_s = 0.0;           ///< summed epoch_start -> epoch_stop
  double eval_s = 0.0;            ///< summed eval_start -> eval_accuracy
  std::int64_t epochs = 0;
  std::int64_t evals = 0;

  double setup_s() const { return reformat_s + model_creation_s; }
};

/// Seconds between each start event and its stop event, paired in log order.
/// Throws when the counts differ or a stop precedes its start.
inline std::vector<double> durations_s(const core::MlLog& log, const char* start,
                                       const char* stop) {
  const auto starts = log.find_all(start);
  const auto stops = log.find_all(stop);
  if (starts.size() != stops.size())
    throw std::runtime_error(std::string("mlog: ") + std::to_string(starts.size()) + " '" +
                             start + "' events but " + std::to_string(stops.size()) + " '" +
                             stop + "'");
  std::vector<double> out;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const double ms = stops[i]->time_ms - starts[i]->time_ms;
    if (ms < 0.0) throw std::runtime_error(std::string("mlog: '") + stop + "' before '" + start + "'");
    out.push_back(ms / 1000.0);
  }
  return out;
}

inline LogTimes log_times(const core::MlLog& log) {
  namespace k = core::keys;
  auto sum = [](const std::vector<double>& xs) {
    double t = 0.0;
    for (double x : xs) t += x;
    return t;
  };
  const std::vector<double> epochs = durations_s(log, k::kEpochStart, k::kEpochStop);
  const std::vector<double> evals = durations_s(log, k::kEvalStart, k::kEvalAccuracy);
  LogTimes t;
  t.reformat_s = sum(durations_s(log, k::kReformatStart, k::kReformatStop));
  t.model_creation_s = sum(durations_s(log, k::kModelCreationStart, k::kModelCreationStop));
  t.train_s = sum(epochs);
  t.eval_s = sum(evals);
  t.epochs = static_cast<std::int64_t>(epochs.size());
  t.evals = static_cast<std::int64_t>(evals.size());
  return t;
}

/// One reported number with its name and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// "name = value unit", the human-readable line printed for every metric.
inline std::string metric_line(const Metric& m) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", m.value);
  return m.name + " = " + buf + " " + m.unit;
}

/// The benchmark's result object: one JSON line with every digit of every
/// value. Non-finite values have no JSON form and are refused.
inline std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric '" + m.name + "' is not finite");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i) out += ", ";
    out += "\"" + core::json_escape(m.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
           core::json_escape(m.unit) + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
