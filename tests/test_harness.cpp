#include "harness/run.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "autograd/variable.h"
#include "core/review.h"
#include "harness/reference.h"

namespace mlperf::harness {
namespace {

using core::BenchmarkId;

/// A deterministic toy workload whose quality is a pure function of the epoch
/// count — lets us test the harness plumbing without real training.
class ScriptedWorkload : public models::Workload {
 public:
  explicit ScriptedWorkload(std::vector<double> quality_per_epoch)
      : qualities_(std::move(quality_per_epoch)) {}

  std::string name() const override { return "scripted"; }
  void prepare_data() override { prepared_ = true; }
  void build_model(std::uint64_t seed) override { seed_ = seed; }
  void train_epoch() override {
    if (!prepared_) throw std::logic_error("data not prepared");
    ++epoch_;
  }
  double evaluate() override {
    const std::size_t idx = std::min(static_cast<std::size_t>(epoch_) - 1, qualities_.size() - 1);
    return qualities_[idx];
  }
  std::map<std::string, double> hyperparameters() const override {
    return {{"learning_rate", 0.1}};
  }
  std::int64_t global_batch_size() const override { return 8; }
  std::string model_signature() const override { return "scripted-model"; }
  std::string optimizer_name() const override { return "sgd_momentum"; }

  std::uint64_t seed_ = 0;

 private:
  std::vector<double> qualities_;
  bool prepared_ = false;
  std::int64_t epoch_ = 0;
};

TEST(Harness, StopsAtQualityTarget) {
  ScriptedWorkload w({0.1, 0.3, 0.6, 0.9});
  core::QualityMetric target{"q", 0.5, true};
  RunOptions opts;
  opts.max_epochs = 10;
  core::ManualClock clock;
  const RunOutcome out = run_to_target(w, target, opts, clock);
  EXPECT_TRUE(out.quality_reached);
  EXPECT_EQ(out.epochs, 3);
  EXPECT_DOUBLE_EQ(out.final_quality, 0.6);
}

TEST(Harness, MaxEpochsBoundsRun) {
  ScriptedWorkload w({0.1, 0.2});
  core::QualityMetric target{"q", 0.99, true};
  RunOptions opts;
  opts.max_epochs = 4;
  core::ManualClock clock;
  const RunOutcome out = run_to_target(w, target, opts, clock);
  EXPECT_FALSE(out.quality_reached);
  EXPECT_EQ(out.epochs, 4);
}

TEST(Harness, CurveRecordsEveryEvaluation) {
  ScriptedWorkload w({0.1, 0.2, 0.3, 0.9});
  core::QualityMetric target{"q", 0.9, true};
  RunOptions opts;
  opts.max_epochs = 10;
  core::ManualClock clock;
  const RunOutcome out = run_to_target(w, target, opts, clock);
  ASSERT_EQ(out.curve.size(), 4u);
  EXPECT_EQ(out.curve[0].epoch, 1);
  EXPECT_DOUBLE_EQ(out.curve[3].quality, 0.9);
}

TEST(Harness, EvalIntervalSkipsEvaluations) {
  ScriptedWorkload w({0.1, 0.2, 0.3, 0.4, 0.95, 0.95});
  core::QualityMetric target{"q", 0.9, true};
  RunOptions opts;
  opts.max_epochs = 10;
  opts.eval_interval = 2;
  core::ManualClock clock;
  const RunOutcome out = run_to_target(w, target, opts, clock);
  EXPECT_TRUE(out.quality_reached);
  EXPECT_EQ(out.epochs, 6);         // evals at 2, 4, 6
  EXPECT_EQ(out.curve.size(), 3u);
}

TEST(Harness, SeedIsPassedToWorkloadAndLogged) {
  ScriptedWorkload w({1.0});
  core::QualityMetric target{"q", 0.5, true};
  RunOptions opts;
  opts.seed = 777;
  core::ManualClock clock;
  const RunOutcome out = run_to_target(w, target, opts, clock);
  EXPECT_EQ(w.seed_, 777u);
  EXPECT_DOUBLE_EQ(out.log.find(core::keys::kSeed)->as_number(), 777.0);
}

TEST(Harness, LogPassesComplianceReview) {
  // The harness's own logs must satisfy the paper's rules end-to-end.
  auto make_run = [&](std::uint64_t seed) {
    ScriptedWorkload w({0.2, 0.95});
    core::QualityMetric target{"q", 0.9, true};
    RunOptions opts;
    opts.seed = seed;
    core::ManualClock clock;
    return run_to_target(w, target, opts, clock);
  };
  core::BenchmarkEntry entry;
  entry.benchmark = BenchmarkId::kImageClassification;
  entry.optimizer_name = "sgd_momentum";
  entry.model_signature = "ResNet-50 v1.5";
  entry.augmentation_signature = "random_crop|horizontal_flip|color_jitter";
  entry.hyperparameters["learning_rate"] = 0.1;
  for (std::uint64_t s = 1; s <= 5; ++s) entry.runs.push_back(to_run_result(make_run(s)));
  const auto report =
      review_entry(entry, core::suite_v05(), core::Division::kClosed, 1e9);
  EXPECT_TRUE(report.compliant()) << report.to_string();
}

TEST(Harness, ReviewWorksFromSerializedArtifactsAlone) {
  // The real review process consumes submitted FILES; round-trip every log
  // through serialize/parse and verify the verdict is unchanged.
  auto make_run = [&](std::uint64_t seed) {
    ScriptedWorkload w({0.2, 0.95});
    core::QualityMetric target{"q", 0.9, true};
    RunOptions opts;
    opts.seed = seed;
    core::ManualClock clock;
    return run_to_target(w, target, opts, clock);
  };
  core::BenchmarkEntry entry;
  entry.benchmark = BenchmarkId::kImageClassification;
  entry.optimizer_name = "sgd_momentum";
  entry.model_signature = "ResNet-50 v1.5";
  entry.augmentation_signature = "random_crop|horizontal_flip|color_jitter";
  for (std::uint64_t s = 1; s <= 5; ++s) {
    core::RunResult r = to_run_result(make_run(s));
    r.log = core::MlLog::parse(r.log.serialize());  // file round-trip
    entry.runs.push_back(std::move(r));
  }
  EXPECT_TRUE(
      review_entry(entry, core::suite_v05(), core::Division::kClosed, 1e9).compliant());
  // Tamper with one artifact: the checker must notice from the file alone.
  std::string text = entry.runs[2].log.serialize();
  const auto pos = text.find("\"key\": \"run_stop\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 17, "\"key\": \"run_stopX\"");
  entry.runs[2].log = core::MlLog::parse(text);
  EXPECT_FALSE(
      review_entry(entry, core::suite_v05(), core::Division::kClosed, 1e9).compliant());
}

TEST(Harness, RunProtocolVariesSeeds) {
  core::QualityMetric target{"q", 0.5, true};
  RunOptions opts;
  opts.seed = 100;
  std::vector<std::uint64_t> seeds;
  auto outcomes = run_protocol(
      [&] {
        auto w = std::make_unique<ScriptedWorkload>(std::vector<double>{0.9});
        return w;
      },
      target, opts, 5);
  EXPECT_EQ(outcomes.size(), 5u);
  std::set<double> seed_values;
  for (const auto& o : outcomes)
    seed_values.insert(o.log.find(core::keys::kSeed)->as_number());
  EXPECT_EQ(seed_values.size(), 5u);
}

TEST(Harness, TimingRulesExcludeRegionsInRealClock) {
  ScriptedWorkload w({0.95});
  core::QualityMetric target{"q", 0.9, true};
  RunOptions opts;
  core::ManualClock clock;
  const RunOutcome out = run_to_target(w, target, opts, clock);
  // ManualClock never advances -> zero-duration run, but all events present.
  EXPECT_NE(out.log.find(core::keys::kReformatStart), nullptr);
  EXPECT_NE(out.log.find(core::keys::kModelCreationStart), nullptr);
  EXPECT_NE(out.log.find(core::keys::kQualityTarget), nullptr);
  EXPECT_NE(out.log.find(core::keys::kGlobalBatchSize), nullptr);
  EXPECT_TRUE(out.log.find_last(core::keys::kQualityReached)->as_bool());
}

TEST(Registry, BuildsAllSevenReferenceWorkloads) {
  const auto suite = core::suite_v05();
  for (const auto& spec : suite.benchmarks) {
    auto w = make_reference_workload(spec.id, WorkloadScale::kSmoke);
    ASSERT_NE(w, nullptr) << spec.name;
    EXPECT_EQ(w->name(), spec.name);
    EXPECT_EQ(w->model_signature(), spec.model) << spec.name;
    EXPECT_GT(w->global_batch_size(), 0);
    EXPECT_FALSE(w->optimizer_name().empty());
    EXPECT_FALSE(w->hyperparameters().empty());
  }
}

// run_to_target evaluates under a NoGradGuard; the guard may drop the tape
// but must not change a single bit of any workload's quality.
TEST(Registry, EvaluateIsBitwiseIdenticalUnderNoGradGuard) {
  const auto suite = core::suite_v05();
  for (const auto& spec : suite.benchmarks) {
    auto w = make_reference_workload(spec.id, WorkloadScale::kSmoke);
    w->prepare_data();
    w->build_model(42);
    w->train_epoch();
    const double taped = w->evaluate();
    double tape_free;
    {
      autograd::NoGradGuard no_grad;
      tape_free = w->evaluate();
    }
    EXPECT_EQ(0, std::memcmp(&taped, &tape_free, sizeof taped))
        << spec.name << ": " << taped << " vs " << tape_free;
  }
}

TEST(Registry, ClosedDivisionSignaturesMatchRules) {
  // Every reference workload must satisfy its own closed-division rulebook —
  // otherwise no compliant closed submission could exist.
  const auto suite = core::suite_v05();
  for (const auto& spec : suite.benchmarks) {
    auto w = make_reference_workload(spec.id, WorkloadScale::kSmoke);
    const auto rules = core::closed_rules(suite, spec.id);
    EXPECT_EQ(w->model_signature(), rules.reference_model_signature) << spec.name;
    EXPECT_TRUE(rules.optimizer_allowed(w->optimizer_name())) << spec.name;
    EXPECT_EQ(w->augmentation_signature(), rules.reference_augmentation_signature)
        << spec.name;
  }
}

TEST(Registry, SmokeTargetsAreReduced) {
  const auto suite = core::suite_v05();
  for (const auto& spec : suite.benchmarks) {
    const auto smoke = scaled_target(spec, WorkloadScale::kSmoke);
    const auto full = scaled_target(spec, WorkloadScale::kReference);
    EXPECT_DOUBLE_EQ(full.target, spec.mini_quality.target);
    EXPECT_LE(smoke.target, full.target) << spec.name;
  }
}

// End-to-end: the two fastest real workloads run to their smoke targets
// through the full harness (reformat -> model creation -> timed epochs).
class SmokeEndToEnd : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(SmokeEndToEnd, ReachesSmokeTarget) {
  const auto suite = core::suite_v05();
  const auto& spec = core::find_spec(suite, GetParam());
  auto w = make_reference_workload(spec.id, WorkloadScale::kSmoke);
  RunOptions opts;
  opts.seed = 42;
  opts.max_epochs = 40;
  const RunOutcome out = run_to_target(*w, scaled_target(spec, WorkloadScale::kSmoke), opts);
  EXPECT_TRUE(out.quality_reached)
      << spec.name << " final quality " << out.final_quality;
  EXPECT_GT(out.time_to_train_ms, 0.0);
  EXPECT_GE(out.unexcluded_time_ms, out.time_to_train_ms);
}

INSTANTIATE_TEST_SUITE_P(FastWorkloads, SmokeEndToEnd,
                         ::testing::Values(BenchmarkId::kRecommendation,
                                           BenchmarkId::kObjectDetectionLight));

}  // namespace
}  // namespace mlperf::harness
