#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/aggregate.h"
#include "core/benchmark_spec.h"
#include "core/category.h"
#include "core/division.h"
#include "core/mlog.h"
#include "core/review.h"
#include "core/scale.h"
#include "core/submission.h"
#include "core/timer.h"

namespace mlperf::core {
namespace {

// ---- mlog -------------------------------------------------------------------

TEST(MlLog, SerializeParseRoundTrip) {
  MlLog log;
  log.log(1.5, keys::kRunStart, true);
  log.log(2.0, keys::kEvalAccuracy, 0.75, {{"epoch", "3"}});
  log.log(3.0, keys::kSubmissionOrg, std::string("acme \"labs\""));
  MlLog parsed = MlLog::parse(log.serialize());
  ASSERT_EQ(parsed.events().size(), 3u);
  EXPECT_EQ(parsed.events()[0].key, keys::kRunStart);
  EXPECT_TRUE(parsed.events()[0].as_bool());
  EXPECT_DOUBLE_EQ(parsed.events()[1].as_number(), 0.75);
  EXPECT_EQ(parsed.events()[1].meta.at("epoch"), "3");
  EXPECT_EQ(parsed.events()[2].as_string(), "acme \"labs\"");
  EXPECT_DOUBLE_EQ(parsed.events()[1].time_ms, 2.0);

  // A day of steady-clock uptime in time_ms, a value that needs more than 6
  // significant digits, and the NaN of a diverged run all read back exactly.
  MlLog exact;
  exact.log(86400000.125, keys::kEvalAccuracy, 0.7499996);
  exact.log(86400001.0, keys::kEvalAccuracy, std::nan(""));
  const MlLog back = MlLog::parse(exact.serialize());
  ASSERT_EQ(back.events().size(), 2u);
  const double want_t = 86400000.125, want_v = 0.7499996;
  const double got_t = back.events()[0].time_ms, got_v = back.events()[0].as_number();
  EXPECT_EQ(0, std::memcmp(&want_t, &got_t, sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&want_v, &got_v, sizeof(double)));
  EXPECT_TRUE(std::isnan(back.events()[1].as_number()));
}

TEST(MlLog, ParseRejectsTrailingCharacters) {
  EXPECT_THROW(MlLog::parse("{\"time_ms\": 1, \"key\": \"k\", \"value\": 2} x\n"),
               std::invalid_argument);
}

TEST(MlLog, FindVariants) {
  MlLog log;
  log.log(1.0, "k", 1.0);
  log.log(2.0, "k", 2.0);
  log.log(3.0, "other", 0.0);
  EXPECT_DOUBLE_EQ(log.find("k")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(log.find_last("k")->as_number(), 2.0);
  EXPECT_EQ(log.find_all("k").size(), 2u);
  EXPECT_EQ(log.find("missing"), nullptr);
}

TEST(MlLog, WrongTypeAccessThrows) {
  MlLog log;
  log.log(0.0, "k", std::string("str"));
  EXPECT_THROW(log.find("k")->as_number(), std::logic_error);
  EXPECT_THROW(log.find("k")->as_bool(), std::logic_error);
}

TEST(MlLog, EscapingHandlesNewlinesAndBackslashes) {
  MlLog log;
  log.log(0.0, "k", std::string("a\nb\\c\td"));
  MlLog parsed = MlLog::parse(log.serialize());
  EXPECT_EQ(parsed.events()[0].as_string(), "a\nb\\c\td");
}

TEST(MlLog, FileRoundTrip) {
  MlLog log;
  log.log(1.0, keys::kRunStart, true);
  log.log(2.5, keys::kEvalAccuracy, 0.5, {{"epoch", "1"}});
  const std::string path = ::testing::TempDir() + "mlog_roundtrip.jsonl";
  log.write_file(path);
  const MlLog back = MlLog::read_file(path);
  ASSERT_EQ(back.events().size(), 2u);
  EXPECT_DOUBLE_EQ(back.events()[1].as_number(), 0.5);
  EXPECT_THROW(MlLog::read_file("/nonexistent/dir/x.jsonl"), std::runtime_error);
}

// ---- timer ------------------------------------------------------------------

TEST(Timer, BasicTimedRun) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  timer.start_run();
  clock.advance_ms(500.0);
  timer.stop_run();
  EXPECT_DOUBLE_EQ(timer.time_to_train_ms(), 500.0);
}

TEST(Timer, InitAndReformatExcluded) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  {
    auto r = timer.untimed_init_region();
    clock.advance_ms(10000.0);  // cluster diagnostics etc.
  }
  {
    auto r = timer.reformat_region();
    clock.advance_ms(5000.0);
  }
  timer.start_run();
  clock.advance_ms(300.0);
  timer.stop_run();
  EXPECT_DOUBLE_EQ(timer.time_to_train_ms(), 300.0);
  EXPECT_DOUBLE_EQ(timer.unexcluded_time_ms(), 15300.0);
}

TEST(Timer, ModelCreationExcludedUpToCap) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, /*cap=*/1000.0);
  {
    auto r = timer.model_creation_region();
    clock.advance_ms(900.0);  // under the cap: fully excluded
  }
  timer.start_run();
  clock.advance_ms(100.0);
  timer.stop_run();
  EXPECT_DOUBLE_EQ(timer.time_to_train_ms(), 100.0);
}

TEST(Timer, ModelCreationExcessCharged) {
  // The paper's 20-minute rule: only the cap is excluded; the excess counts,
  // discouraging impractically expensive compilation.
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  {
    auto r = timer.model_creation_region();
    clock.advance_ms(2500.0);
  }
  timer.start_run();
  clock.advance_ms(100.0);
  timer.stop_run();
  EXPECT_DOUBLE_EQ(timer.time_to_train_ms(), 100.0 + 1500.0);
}

TEST(Timer, MultipleModelCreationRegionsAccumulate) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  for (int i = 0; i < 3; ++i) {
    auto r = timer.model_creation_region();
    clock.advance_ms(600.0);
  }
  timer.start_run();
  timer.stop_run();
  EXPECT_DOUBLE_EQ(timer.time_to_train_ms(), 800.0);  // 1800 total - 1000 cap
}

TEST(Timer, RegionAfterStartThrows) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  timer.start_run();
  EXPECT_THROW(timer.untimed_init_region(), std::logic_error);
}

TEST(Timer, DoubleStartOrStopThrows) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  EXPECT_THROW(timer.stop_run(), std::logic_error);
  timer.start_run();
  EXPECT_THROW(timer.start_run(), std::logic_error);
  timer.stop_run();
  EXPECT_THROW(timer.stop_run(), std::logic_error);
  EXPECT_NO_THROW(timer.time_to_train_ms());
}

TEST(Timer, RegionsCannotNest) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  auto outer = timer.untimed_init_region();
  EXPECT_THROW(timer.reformat_region(), std::logic_error);
}

TEST(Timer, StartRunWithOpenRegionThrows) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  auto region = timer.reformat_region();
  EXPECT_THROW(timer.start_run(), std::logic_error);
}

TEST(Timer, EventsAreLogged) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  {
    auto r = timer.reformat_region();
  }
  timer.start_run();
  timer.stop_run();
  EXPECT_NE(log.find(keys::kReformatStart), nullptr);
  EXPECT_NE(log.find(keys::kReformatStop), nullptr);
  EXPECT_NE(log.find(keys::kRunStart), nullptr);
  EXPECT_NE(log.find(keys::kRunStop), nullptr);
}

// ---- aggregation (§3.2.2) ----------------------------------------------------

TEST(Aggregate, OlympicMeanDropsExtremes) {
  const std::vector<double> runs = {100.0, 1.0, 10.0, 12.0, 14.0};
  // drop 1.0 and 100.0 -> mean(10, 12, 14) = 12.
  EXPECT_DOUBLE_EQ(olympic_mean(runs, AggregationPolicy::vision()), 12.0);
}

TEST(Aggregate, VisionRequiresFiveRuns) {
  EXPECT_THROW(olympic_mean({1.0, 2.0, 3.0, 4.0}, AggregationPolicy::vision()),
               std::invalid_argument);
}

TEST(Aggregate, OtherRequiresTenRuns) {
  std::vector<double> nine(9, 1.0);
  EXPECT_THROW(olympic_mean(nine, AggregationPolicy::other()), std::invalid_argument);
  std::vector<double> ten(10, 1.0);
  EXPECT_DOUBLE_EQ(olympic_mean(ten, AggregationPolicy::other()), 1.0);
}

TEST(Aggregate, OlympicMeanRobustToOneOutlier) {
  std::vector<double> runs = {10.0, 10.0, 10.0, 10.0, 1000.0};
  EXPECT_DOUBLE_EQ(olympic_mean(runs, AggregationPolicy::vision()), 10.0);
  // Plain mean would be 208.
  EXPECT_GT(mean(runs), 200.0);
}

TEST(Aggregate, StatsHelpers) {
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
  EXPECT_NEAR(stddev({2.0, 4.0}), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Aggregate, FractionWithinTolerance) {
  const std::vector<double> xs = {100, 101, 99, 104, 96, 130};
  EXPECT_NEAR(fraction_within(xs, 0.05), 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(fraction_within(xs, 0.5), 1.0, 1e-12);
}

TEST(Aggregate, AggregateRunsSummary) {
  const std::vector<double> runs = {10, 11, 12, 13, 14};
  AggregatedResult r = aggregate_runs(runs, AggregationPolicy::vision());
  EXPECT_DOUBLE_EQ(r.score_ms, 12.0);
  EXPECT_EQ(r.runs_used, 3);
  EXPECT_DOUBLE_EQ(r.raw_mean_ms, 12.0);
}

// ---- benchmark suite (Table 1) -------------------------------------------------

TEST(Suite, V05HasSevenBenchmarksMatchingTable1) {
  const SuiteVersion s = suite_v05();
  EXPECT_EQ(s.version, "v0.5");
  ASSERT_EQ(s.benchmarks.size(), 7u);
  EXPECT_FALSE(s.lars_allowed);

  const auto& resnet = find_spec(s, BenchmarkId::kImageClassification);
  EXPECT_EQ(resnet.dataset, "ImageNet");
  EXPECT_EQ(resnet.model, "ResNet-50 v1.5");
  EXPECT_DOUBLE_EQ(resnet.paper_quality.target, 0.749);
  EXPECT_EQ(resnet.aggregation.required_runs, 5);  // vision

  const auto& ssd = find_spec(s, BenchmarkId::kObjectDetectionLight);
  EXPECT_DOUBLE_EQ(ssd.paper_quality.target, 0.212);

  const auto& mask = find_spec(s, BenchmarkId::kObjectDetectionHeavy);
  EXPECT_DOUBLE_EQ(mask.paper_quality.target, 0.377);
  ASSERT_TRUE(mask.paper_quality_secondary.has_value());
  EXPECT_DOUBLE_EQ(mask.paper_quality_secondary->target, 0.339);

  const auto& gnmt = find_spec(s, BenchmarkId::kTranslationRecurrent);
  EXPECT_DOUBLE_EQ(gnmt.paper_quality.target, 21.8);
  EXPECT_EQ(gnmt.aggregation.required_runs, 10);  // non-vision

  const auto& tfm = find_spec(s, BenchmarkId::kTranslationNonRecurrent);
  EXPECT_DOUBLE_EQ(tfm.paper_quality.target, 25.0);

  const auto& ncf = find_spec(s, BenchmarkId::kRecommendation);
  EXPECT_DOUBLE_EQ(ncf.paper_quality.target, 0.635);
  EXPECT_EQ(ncf.dataset, "MovieLens-20M");

  const auto& minigo = find_spec(s, BenchmarkId::kReinforcementLearning);
  EXPECT_DOUBLE_EQ(minigo.paper_quality.target, 0.40);
}

TEST(Suite, V06RaisesTargetsAndAllowsLars) {
  const SuiteVersion s6 = suite_v06();
  EXPECT_TRUE(s6.lars_allowed);
  EXPECT_DOUBLE_EQ(find_spec(s6, BenchmarkId::kImageClassification).paper_quality.target,
                   0.759);
  EXPECT_DOUBLE_EQ(find_spec(s6, BenchmarkId::kTranslationRecurrent).paper_quality.target,
                   24.0);
  // NCF dropped in v0.6.
  EXPECT_THROW(find_spec(s6, BenchmarkId::kRecommendation), std::out_of_range);
}

TEST(Suite, QualityMetricDirection) {
  QualityMetric higher{"acc", 0.5, true};
  EXPECT_TRUE(higher.reached(0.5));
  EXPECT_FALSE(higher.reached(0.49));
  QualityMetric lower{"loss", 0.5, false};
  EXPECT_TRUE(lower.reached(0.4));
  EXPECT_FALSE(lower.reached(0.6));
}

// ---- divisions --------------------------------------------------------------

TEST(Division, ClosedRulesAlwaysAllowBatchSize) {
  for (const auto& spec : suite_v05().benchmarks) {
    const auto rules = closed_rules(suite_v05(), spec.id);
    EXPECT_TRUE(rules.hyperparameter_allowed("global_batch_size")) << spec.name;
    EXPECT_TRUE(rules.hyperparameter_allowed("learning_rate")) << spec.name;
  }
}

TEST(Division, LarsOnlyAllowedInV06ForResNet) {
  const auto r5 = closed_rules(suite_v05(), BenchmarkId::kImageClassification);
  EXPECT_FALSE(r5.optimizer_allowed("lars"));
  const auto r6 = closed_rules(suite_v06(), BenchmarkId::kImageClassification);
  EXPECT_TRUE(r6.optimizer_allowed("lars"));
  EXPECT_TRUE(r6.hyperparameter_allowed("lars_eta"));
}

TEST(Division, UnlistedHyperparameterRejected) {
  const auto rules = closed_rules(suite_v05(), BenchmarkId::kImageClassification);
  EXPECT_FALSE(rules.hyperparameter_allowed("dropout_rate"));
  EXPECT_FALSE(rules.hyperparameter_allowed("model_depth"));
}

TEST(Division, ToStringValues) {
  EXPECT_EQ(to_string(Division::kClosed), "closed");
  EXPECT_EQ(to_string(Division::kOpen), "open");
  EXPECT_EQ(to_string(HpValue{std::int64_t{42}}), "42");
  EXPECT_EQ(to_string(HpValue{std::string("adam")}), "adam");
}

// ---- categories ----------------------------------------------------------------

TEST(Category, AvailableCriteria) {
  AvailabilityEvidence e;
  EXPECT_FALSE(e.meets_available_criteria());
  e.hardware_rentable_or_purchasable = true;
  e.software_versioned = true;
  e.software_supported = true;
  EXPECT_TRUE(e.meets_available_criteria());
}

TEST(Category, PreviewDeadlineIsLaterOf60DaysOrNextCycle) {
  PreviewDeadline d{100, 140};
  EXPECT_EQ(d.deadline_day(), 160);  // 100+60 > 140
  PreviewDeadline d2{100, 200};
  EXPECT_EQ(d2.deadline_day(), 200);
  EXPECT_TRUE(d2.is_met(199));
  EXPECT_FALSE(d2.is_met(201));
}

// ---- scale ---------------------------------------------------------------------

TEST(Scale, CloudScaleFromComponents) {
  SystemDescription sys;
  sys.num_nodes = 2;
  sys.processors_per_node = 4;
  sys.host_memory_gb = 100.0;
  sys.accelerators_per_node = 8;
  sys.accelerator_model = "accel-x";
  CloudScaleModel model;
  model.accelerator_weights = {{"accel-x", 10.0}};
  // 8 cpus * 1 + 200 GB * 0.05 + 16 accel * 10.
  EXPECT_DOUBLE_EQ(model.scale(sys), 8.0 + 10.0 + 160.0);
}

TEST(Scale, ChipsPreferAccelerators) {
  SystemDescription sys;
  sys.num_nodes = 4;
  sys.processors_per_node = 2;
  sys.accelerators_per_node = 8;
  EXPECT_EQ(sys.total_chips(), 32);
  sys.accelerators_per_node = 0;
  EXPECT_EQ(sys.total_chips(), 8);
}

// ---- submission scoring ---------------------------------------------------------

RunResult good_run(double ttt_ms) {
  RunResult r;
  r.time_to_train_ms = ttt_ms;
  r.final_quality = 0.99;
  r.quality_reached = true;
  return r;
}

Submission make_submission(std::size_t n_runs) {
  Submission sub;
  sub.organization = "acme";
  sub.system.system_name = "box";
  sub.system.num_nodes = 1;
  sub.system.accelerators_per_node = 16;
  BenchmarkEntry entry;
  entry.benchmark = BenchmarkId::kImageClassification;
  for (std::size_t i = 0; i < n_runs; ++i)
    entry.runs.push_back(good_run(1000.0 + 10.0 * static_cast<double>(i)));
  sub.entries.push_back(std::move(entry));
  return sub;
}

TEST(Submission, ScoreComputesOlympicMean) {
  const Submission sub = make_submission(5);
  const ResultsReport report = score_submission(sub, suite_v05(), CloudScaleModel{});
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(report.entries[0].result.score_ms, 1020.0);
  EXPECT_EQ(report.entries[0].chips, 16);
}

TEST(Submission, TooFewRunsRejected) {
  const Submission sub = make_submission(3);
  EXPECT_THROW(score_submission(sub, suite_v05(), CloudScaleModel{}), std::invalid_argument);
}

TEST(Submission, FailedQualityRunRejected) {
  Submission sub = make_submission(5);
  sub.entries[0].runs[2].quality_reached = false;
  EXPECT_THROW(score_submission(sub, suite_v05(), CloudScaleModel{}), std::invalid_argument);
}

TEST(Submission, ReportHasNoSummaryScoreAndFormats) {
  const Submission sub = make_submission(5);
  const ResultsReport report = score_submission(sub, suite_v05(), CloudScaleModel{});
  const std::string text = format_report(report);
  EXPECT_NE(text.find("image_classification"), std::string::npos);
  EXPECT_NE(text.find("acme"), std::string::npos);
  // §4.2.4: no aggregate across benchmarks.
  EXPECT_EQ(text.find("summary"), std::string::npos);
  EXPECT_EQ(text.find("overall"), std::string::npos);
}

TEST(Submission, CloudScaleOnlyForCloudSystems) {
  Submission sub = make_submission(5);
  sub.system_type = SystemType::kCloud;
  sub.system.host_memory_gb = 10.0;
  const ResultsReport r = score_submission(sub, suite_v05(), CloudScaleModel{});
  EXPECT_GT(r.entries[0].cloud_scale, 0.0);
  sub.system_type = SystemType::kOnPremise;
  const ResultsReport r2 = score_submission(sub, suite_v05(), CloudScaleModel{});
  EXPECT_DOUBLE_EQ(r2.entries[0].cloud_scale, 0.0);
}

// ---- review / compliance ---------------------------------------------------------

MlLog compliant_log(double seed, double quality = 0.95) {
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  log.log(clock.now_ms(), keys::kSeed, seed);
  log.log(clock.now_ms(), keys::kGlobalBatchSize, 32.0);
  {
    auto r = timer.reformat_region();
    log.log(clock.now_ms(), keys::kDataTouch, std::string("reformat"));
    clock.advance_ms(50.0);
  }
  {
    auto r = timer.model_creation_region();
    clock.advance_ms(10.0);
  }
  timer.start_run();
  clock.advance_ms(100.0);
  log.log(clock.now_ms(), keys::kDataTouch, std::string("train"));
  log.log(clock.now_ms(), keys::kEvalAccuracy, quality);
  timer.stop_run();
  return log;
}

BenchmarkEntry compliant_entry(std::int64_t runs = 5) {
  BenchmarkEntry e;
  e.benchmark = BenchmarkId::kImageClassification;
  e.optimizer_name = "sgd_momentum";
  e.model_signature = "ResNet-50 v1.5";
  e.augmentation_signature = "random_crop|horizontal_flip|color_jitter";
  e.hyperparameters["global_batch_size"] = std::int64_t{32};
  e.hyperparameters["learning_rate"] = 0.1;
  for (std::int64_t i = 0; i < runs; ++i) {
    RunResult r;
    r.log = compliant_log(static_cast<double>(i + 1));
    r.quality_reached = true;
    r.time_to_train_ms = 100.0;
    e.runs.push_back(std::move(r));
  }
  return e;
}

TEST(Review, CompliantEntryPasses) {
  const auto report =
      review_entry(compliant_entry(), suite_v05(), Division::kClosed, 1000.0);
  EXPECT_TRUE(report.compliant()) << report.to_string();
}

TEST(Review, TooFewRunsFlagged) {
  const auto report =
      review_entry(compliant_entry(3), suite_v05(), Division::kClosed, 1000.0);
  EXPECT_FALSE(report.compliant());
}

TEST(Review, DuplicateSeedFlagged) {
  auto entry = compliant_entry();
  entry.runs[1].log = compliant_log(1.0);  // same seed as run 0
  const auto report = review_entry(entry, suite_v05(), Division::kClosed, 1000.0);
  EXPECT_FALSE(report.compliant());
  bool found = false;
  for (const auto& i : report.issues)
    if (i.code == "duplicate_seed") found = true;
  EXPECT_TRUE(found);
}

TEST(Review, DataTouchedBeforeRunStartFlagged) {
  auto entry = compliant_entry();
  // Forge a log where data is touched before run_start outside reformat.
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  log.log(clock.now_ms(), keys::kSeed, 99.0);
  log.log(clock.now_ms(), keys::kGlobalBatchSize, 32.0);
  clock.advance_ms(5.0);
  log.log(clock.now_ms(), keys::kDataTouch, std::string("train"));  // violation
  clock.advance_ms(5.0);
  timer.start_run();
  log.log(clock.now_ms(), keys::kEvalAccuracy, 0.95);
  timer.stop_run();
  entry.runs[0].log = log;
  const auto report = review_entry(entry, suite_v05(), Division::kClosed, 1000.0);
  EXPECT_FALSE(report.compliant());
  bool found = false;
  for (const auto& i : report.issues)
    if (i.code == "data_touched_untimed") found = true;
  EXPECT_TRUE(found);
}

TEST(Review, QualityMissFlagged) {
  auto entry = compliant_entry();
  entry.runs[0].log = compliant_log(42.0, /*quality=*/0.10);  // below mini target
  const auto report = review_entry(entry, suite_v05(), Division::kClosed, 1000.0);
  EXPECT_FALSE(report.compliant());
}

TEST(Review, DisallowedHyperparameterFlaggedInClosedOnly) {
  auto entry = compliant_entry();
  entry.hyperparameters["secret_sauce"] = 3.0;
  EXPECT_FALSE(review_entry(entry, suite_v05(), Division::kClosed, 1000.0).compliant());
  // Open division allows it.
  EXPECT_TRUE(review_entry(entry, suite_v05(), Division::kOpen, 1000.0).compliant());
}

TEST(Review, WrongOptimizerFlagged) {
  auto entry = compliant_entry();
  entry.optimizer_name = "lars";  // not allowed in v0.5
  EXPECT_FALSE(review_entry(entry, suite_v05(), Division::kClosed, 1000.0).compliant());
  // ...but fine under v0.6 rules.
  auto entry6 = compliant_entry();
  entry6.optimizer_name = "lars";
  EXPECT_TRUE(review_entry(entry6, suite_v06(), Division::kClosed, 1000.0).compliant());
}

TEST(Review, AugmentationOrderMattersForEquivalence) {
  auto entry = compliant_entry();
  entry.augmentation_signature = "horizontal_flip|random_crop|color_jitter";
  const auto report = review_entry(entry, suite_v05(), Division::kClosed, 1000.0);
  EXPECT_FALSE(report.compliant());
}

TEST(Review, ModelCreationOverCapIsWarningNotError) {
  auto entry = compliant_entry();
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1e9);  // permissive timer; checker uses its own cap
  log.log(clock.now_ms(), keys::kSeed, 7.0);
  log.log(clock.now_ms(), keys::kGlobalBatchSize, 32.0);
  {
    auto r = timer.model_creation_region();
    clock.advance_ms(5000.0);
  }
  timer.start_run();
  log.log(clock.now_ms(), keys::kEvalAccuracy, 0.95);
  timer.stop_run();
  entry.runs[0].log = log;
  const auto report = review_entry(entry, suite_v05(), Division::kClosed, 1000.0);
  EXPECT_TRUE(report.compliant()) << report.to_string();
  bool warned = false;
  for (const auto& i : report.issues)
    if (i.code == "model_creation_over_cap") warned = true;
  EXPECT_TRUE(warned);
}

TEST(Review, MissingRunStopFlagged) {
  auto entry = compliant_entry();
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  log.log(clock.now_ms(), keys::kSeed, 50.0);
  log.log(clock.now_ms(), keys::kGlobalBatchSize, 32.0);
  timer.start_run();
  log.log(clock.now_ms(), keys::kEvalAccuracy, 0.95);
  // run_stop never logged
  entry.runs[0].log = log;
  const auto report = review_entry(entry, suite_v05(), Division::kClosed, 1000.0);
  EXPECT_FALSE(report.compliant());
  bool found = false;
  for (const auto& i : report.issues)
    if (i.code == "run_stop_count") found = true;
  EXPECT_TRUE(found);
}

TEST(Review, MissingEvalFlagged) {
  auto entry = compliant_entry();
  ManualClock clock;
  MlLog log;
  TrainingTimer timer(clock, log, 1000.0);
  log.log(clock.now_ms(), keys::kSeed, 51.0);
  log.log(clock.now_ms(), keys::kGlobalBatchSize, 32.0);
  timer.start_run();
  timer.stop_run();
  entry.runs[0].log = log;
  const auto report = review_entry(entry, suite_v05(), Division::kClosed, 1000.0);
  EXPECT_FALSE(report.compliant());
  bool found = false;
  for (const auto& i : report.issues)
    if (i.code == "no_eval") found = true;
  EXPECT_TRUE(found);
}

TEST(Review, HyperparameterBorrowing) {
  auto target = compliant_entry();
  target.hyperparameters.erase("learning_rate");
  auto source = compliant_entry();
  source.hyperparameters["learning_rate"] = 0.25;
  source.hyperparameters["illegal_knob"] = 1.0;  // must not be borrowed
  const auto rules = closed_rules(suite_v05(), BenchmarkId::kImageClassification);
  const std::int64_t borrowed = borrow_hyperparameters(target, source, rules);
  EXPECT_EQ(borrowed, 1);
  EXPECT_DOUBLE_EQ(std::get<double>(target.hyperparameters.at("learning_rate")), 0.25);
  EXPECT_EQ(target.hyperparameters.count("illegal_knob"), 0u);
  // Existing values are not overwritten.
  auto target2 = compliant_entry();
  EXPECT_EQ(borrow_hyperparameters(target2, source, rules), 0);
}

TEST(Review, SubmissionLevelReviewAggregates) {
  Submission sub;
  sub.division = Division::kClosed;
  sub.entries.push_back(compliant_entry());
  sub.entries.push_back(compliant_entry(2));  // bad: too few runs
  const auto report = review_submission(sub, suite_v05(), 1000.0);
  EXPECT_FALSE(report.compliant());
}

}  // namespace
}  // namespace mlperf::core
