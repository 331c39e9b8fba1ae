#include "harness/run.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "autograd/variable.h"
#include "checkpoint/state.h"
#include "core/review.h"
#include "harness/reference.h"
#include "nn/functional.h"
#include "parallel/parallel_for.h"

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
  nn::Module* model() const override { return nullptr; }  // no weights to save

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

TEST(Harness, RejectsEvalIntervalBelowOne) {
  for (const std::int64_t interval : {std::int64_t{0}, std::int64_t{-1}}) {
    ScriptedWorkload w({1.0});
    core::QualityMetric target{"q", 0.5, true};
    RunOptions opts;
    opts.seed = 9;
    opts.eval_interval = interval;
    core::ManualClock clock;
    EXPECT_THROW(run_to_target(w, target, opts, clock), std::invalid_argument) << interval;
    EXPECT_EQ(w.seed_, 0u) << "build_model ran with eval_interval " << interval;
  }
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

/// FNV-1a of a workload's trained weights: parameters() order, raw float bytes.
std::uint64_t weights_fingerprint(const models::Workload& w) {
  std::uint64_t h = checkpoint::kFnvOffset;
  for (const auto& p : w.model()->parameters())
    h = checkpoint::fnv1a(p.value().data(), static_cast<std::size_t>(p.numel()) * sizeof(float),
                          h);
  return h;
}

// Every reference workload trains bitwise-identically at 1 and 4 intra-op
// threads, end to end through the harness: same epochs, same quality bits and
// same trained weights. The weights matter because both translation workloads
// stay at BLEU 0 for all 12 smoke epochs, so their outcome fingerprints are
// constant; and they are where a vectorized loop run on differently aligned
// parallel_for subranges would show a bit difference.
class ThreadCountInvariance : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(ThreadCountInvariance, SmokeOutcomeFingerprintMatches) {
  const auto suite = core::suite_v05();
  const auto& spec = core::find_spec(suite, GetParam());
  std::uint64_t prints[2], weights[2];
  const std::int64_t threads[2] = {4, 1};  // end at 1: later tests inherit it
  for (int i = 0; i < 2; ++i) {
    auto w = make_reference_workload(spec.id, WorkloadScale::kSmoke);
    RunOptions opts;
    opts.seed = 42;
    opts.max_epochs = 12;
    opts.num_threads = threads[i];
    prints[i] =
        outcome_fingerprint(run_to_target(*w, scaled_target(spec, WorkloadScale::kSmoke), opts));
    weights[i] = weights_fingerprint(*w);
  }
  EXPECT_EQ(prints[0], prints[1]) << spec.name;
  EXPECT_EQ(weights[0], weights[1]) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSevenWorkloads, ThreadCountInvariance,
    ::testing::Values(BenchmarkId::kImageClassification, BenchmarkId::kObjectDetectionLight,
                      BenchmarkId::kObjectDetectionHeavy, BenchmarkId::kTranslationRecurrent,
                      BenchmarkId::kTranslationNonRecurrent, BenchmarkId::kRecommendation,
                      BenchmarkId::kReinforcementLearning));

// Absolute pins: the smoke-scale seed-42 outcome of every reference workload
// at one thread, recorded before the fused attention nodes and the gradient
// hand-off went in. ThreadCountInvariance only compares two thread counts,
// so a bit change common to both would pass it; this catches one. The curve
// alone is not enough: both translation workloads stay at BLEU 0 for all 12
// smoke epochs, so their outcome fingerprints are constant. The FNV-1a of
// the trained weights pins every bit of the training run instead.
struct PinnedOutcome {
  BenchmarkId id;
  std::uint64_t outcome;
  std::uint64_t weights;
};

void PrintTo(const PinnedOutcome& p, std::ostream* os) { *os << core::to_string(p.id); }

class PinnedSmokeOutcome : public ::testing::TestWithParam<PinnedOutcome> {};

TEST_P(PinnedSmokeOutcome, MatchesRecordedFingerprints) {
  const auto suite = core::suite_v05();
  const auto& spec = core::find_spec(suite, GetParam().id);
  auto w = make_reference_workload(spec.id, WorkloadScale::kSmoke);
  RunOptions opts;
  opts.seed = 42;
  opts.max_epochs = 12;
  opts.num_threads = 1;
  const RunOutcome out = run_to_target(*w, scaled_target(spec, WorkloadScale::kSmoke), opts);
  EXPECT_EQ(GetParam().outcome, outcome_fingerprint(out)) << spec.name;
  EXPECT_EQ(GetParam().weights, weights_fingerprint(*w)) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSevenWorkloads, PinnedSmokeOutcome,
    ::testing::Values(
        PinnedOutcome{BenchmarkId::kImageClassification, 0xb069437870e1d760, 0xc2b678004a29e8ad},
        PinnedOutcome{BenchmarkId::kObjectDetectionLight, 0x9e4dc4ebb1560a7b, 0x7282cf560f6f8bb7},
        PinnedOutcome{BenchmarkId::kObjectDetectionHeavy, 0x0cfc91dcea9746f5, 0x79e63f8d82db5967},
        PinnedOutcome{BenchmarkId::kTranslationRecurrent, 0x41dab631a9fd55bd, 0x4f38fa7a7a4896fb},
        PinnedOutcome{BenchmarkId::kTranslationNonRecurrent, 0x41dab631a9fd55bd,
                      0x80907e7ed7238694},
        PinnedOutcome{BenchmarkId::kRecommendation, 0x7bc25fbef7805a32, 0x14d0f12980731df5},
        PinnedOutcome{BenchmarkId::kReinforcementLearning, 0xf3a1fc583947a829,
                      0xd8585a9cca302eea}));

// The im2col pack cache is scoped to the step: a smoke-scale
// image_classification run at 1 and at 4 threads performs im2col sweeps and
// leaves no cached slab live afterwards.
TEST(ConvPackCache, RealWorkloadRunSweepsAndLeavesNoSlabLive) {
  const auto suite = core::suite_v05();
  const auto& spec = core::find_spec(suite, BenchmarkId::kImageClassification);
  for (const std::int64_t threads : {1, 4}) {
    auto w = make_reference_workload(spec.id, WorkloadScale::kSmoke);
    RunOptions opts;
    opts.seed = 42;
    opts.max_epochs = 12;
    opts.num_threads = threads;
    const std::int64_t before = nn::im2col_calls();
    run_to_target(*w, scaled_target(spec, WorkloadScale::kSmoke), opts);
    EXPECT_GT(nn::im2col_calls() - before, 0) << "t=" << threads;
    EXPECT_EQ(0, nn::conv_pack_cache_live_bytes()) << "t=" << threads;
  }
  parallel::set_num_threads(1);
}

}  // namespace
}  // namespace mlperf::harness
