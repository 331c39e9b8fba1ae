#include "checkpoint/format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/stat.h>
#include <type_traits>

#include "checkpoint/state.h"
#include "core/fileio.h"
#include "data/translation.h"
#include "harness/reference.h"
#include "harness/run.h"
#include "models/resnet.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::checkpoint {
namespace {

using core::BenchmarkId;
using harness::RunOptions;
using harness::RunOutcome;
using harness::WorkloadScale;

std::string tmp_path(const std::string& name) { return ::testing::TempDir() + name; }

std::vector<std::uint8_t> slurp(const std::string& path) {
  return core::read_file_bytes(path);
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(Format, SectionRoundTrip) {
  CheckpointWriter w;
  ByteWriter& a = w.section("alpha");
  a.put_u64(42);
  a.put_string("hello");
  a.put_f64(2.5);
  a.put_bool(true);
  ByteWriter& b = w.section("beta");
  b.put_i64(-7);
  // Re-requesting a section appends to it rather than clobbering it.
  w.section("alpha").put_u32(9);

  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  EXPECT_EQ(r.version(), kFormatVersion);
  ASSERT_TRUE(r.has_section("alpha"));
  ASSERT_TRUE(r.has_section("beta"));
  EXPECT_FALSE(r.has_section("gamma"));
  ByteReader ra = r.section("alpha");
  EXPECT_EQ(ra.get_u64(), 42u);
  EXPECT_EQ(ra.get_string(), "hello");
  EXPECT_DOUBLE_EQ(ra.get_f64(), 2.5);
  EXPECT_TRUE(ra.get_bool());
  EXPECT_EQ(ra.get_u32(), 9u);
  EXPECT_TRUE(ra.done());
  ByteReader rb = r.section("beta");
  EXPECT_EQ(rb.get_i64(), -7);
}

TEST(Format, TensorRoundTrip) {
  tensor::Tensor t({2, 3}, 0.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) t.data()[i] = static_cast<float>(i) * 1.5f;
  CheckpointWriter w;
  w.section("t").put_tensor(t);
  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  ByteReader rt = r.section("t");
  tensor::Tensor u = rt.get_tensor();
  ASSERT_EQ(u.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u.data()[i], t.data()[i]);
}

TEST(Format, RejectsBadMagic) {
  CheckpointWriter w;
  w.section("s").put_u32(1);
  std::vector<std::uint8_t> bytes = w.serialize();
  bytes[0] ^= 0xFF;
  EXPECT_THROW(CheckpointReader::parse(std::move(bytes), "mem"), CheckpointError);
}

TEST(Format, RejectsVersionMismatch) {
  CheckpointWriter w;
  w.section("s").put_u32(1);
  std::vector<std::uint8_t> bytes = w.serialize();
  bytes[4] += 1;  // format version lives right after the magic
  try {
    CheckpointReader::parse(std::move(bytes), "mem");
    FAIL() << "version mismatch was silently accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(Format, RejectsCorruptPayload) {
  CheckpointWriter w;
  for (int i = 0; i < 64; ++i) w.section("s").put_u64(static_cast<std::uint64_t>(i));
  std::vector<std::uint8_t> bytes = w.serialize();
  bytes.back() ^= 0x01;  // inside the payload of the last section
  try {
    CheckpointReader::parse(std::move(bytes), "mem");
    FAIL() << "CRC corruption was silently accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
}

TEST(Format, RejectsTruncationAndTrailingGarbage) {
  CheckpointWriter w;
  w.section("s").put_u64(7);
  const std::vector<std::uint8_t> bytes = w.serialize();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{6}}) {
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(CheckpointReader::parse(std::move(trunc), "mem"), CheckpointError)
        << "accepted a file truncated to " << cut << " bytes";
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(CheckpointReader::parse(padded, "mem"), CheckpointError);
  // The lenient walk reports the trailing byte as damage.
  const std::string path = tmp_path("trailing.ckpt");
  spit(path, padded);
  const InspectReport report = inspect_file(path);
  EXPECT_EQ(report.trailing_bytes, 1u);
  EXPECT_FALSE(report.ok());
}

TEST(Format, ByteReaderRejectsOverread) {
  CheckpointWriter w;
  w.section("s").put_u32(1);
  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  ByteReader rs = r.section("s");
  rs.get_u32();
  EXPECT_THROW(rs.get_u64(), CheckpointError);
}

TEST(Format, Crc32cKnownAnswer) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes.
  const std::uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, sizeof zeros), 0x8A9136AAu);
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
}

TEST(Format, AtomicWriteLeavesNoTempFile) {
  const std::string path = tmp_path("atomic.ckpt");
  CheckpointWriter w;
  w.section("s").put_u64(1);
  w.write_file(path);
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // Overwrite in place: still parses afterwards.
  w.section("s").put_u64(2);
  w.write_file(path);
  CheckpointReader r = CheckpointReader::read_file(path);
  ByteReader rs = r.section("s");
  EXPECT_EQ(rs.get_u64(), 1u);
  EXPECT_EQ(rs.get_u64(), 2u);
}

TEST(Format, InspectReportsCorruptionWithoutThrowing) {
  const std::string path = tmp_path("inspect.ckpt");
  CheckpointWriter w;
  for (int i = 0; i < 16; ++i) w.section("payload").put_u64(static_cast<std::uint64_t>(i));
  w.section("other").put_u32(5);
  w.write_file(path);

  InspectReport ok = inspect_file(path);
  EXPECT_TRUE(ok.magic_ok);
  EXPECT_TRUE(ok.version_ok);
  ASSERT_EQ(ok.sections.size(), 2u);
  for (const auto& s : ok.sections) EXPECT_TRUE(s.crc_ok());

  std::vector<std::uint8_t> bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0xFF;
  spit(path, bytes);
  InspectReport bad = inspect_file(path);
  bool any_bad = false;
  for (const auto& s : bad.sections) any_bad = any_bad || !s.crc_ok();
  EXPECT_TRUE(any_bad) << "inspect missed the corrupted section";
}

/// True when the lenient walk flags the file: a damaged field in the report
/// or a CheckpointError from a table it cannot walk.
bool inspect_reports_damage(const std::string& path) {
  try {
    return !inspect_file(path).ok();
  } catch (const CheckpointError&) {
    return true;
  }
}

// Every byte of a real checkpoint is under a CRC: flipping any byte of the
// header or section table, or a sampled payload byte, makes the strict reader
// throw and the lenient walk report damage.
TEST(Format, EveryTableByteFlipIsCaught) {
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec = core::find_spec(suite, BenchmarkId::kRecommendation);
  core::QualityMetric target = harness::scaled_target(spec, WorkloadScale::kSmoke);
  target.target = 1.1;  // unreachable: train the one epoch and checkpoint it
  RunOptions opts;
  opts.seed = 3;
  opts.max_epochs = 1;
  opts.checkpoint_every_n_epochs = 1;
  opts.checkpoint_path = tmp_path("byte_flip_source.ckpt");
  auto w = harness::make_reference_workload(BenchmarkId::kRecommendation, WorkloadScale::kSmoke);
  core::SteadyClock clock;
  harness::run_to_target(*w, target, opts, clock);
  const std::vector<std::uint8_t> good = slurp(opts.checkpoint_path);
  const CheckpointReader parsed = CheckpointReader::parse(good, "good");
  ASSERT_TRUE(inspect_file(opts.checkpoint_path).ok());

  std::vector<bool> in_payload(good.size(), false);
  for (const auto& info : parsed.sections())
    for (std::size_t i = 0; i < info.size; ++i) in_payload[info.offset + i] = true;
  const std::string path = tmp_path("byte_flip.ckpt");
  std::size_t table_flips = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (in_payload[i] && i % 61 != 0) continue;
    table_flips += in_payload[i] ? 0 : 1;
    for (const int mask : {0x01, 0x40}) {
      std::vector<std::uint8_t> bad = good;
      bad[i] ^= static_cast<std::uint8_t>(mask);
      EXPECT_THROW(CheckpointReader::parse(bad, "flipped"), CheckpointError)
          << "byte " << i << " ^ " << mask;
      spit(path, bad);
      EXPECT_TRUE(inspect_reports_damage(path)) << "byte " << i << " ^ " << mask;
    }
  }
  // The header is 20 bytes; each table entry is 20 bytes plus its name.
  std::size_t table_bytes = 20;
  for (const auto& info : parsed.sections()) table_bytes += 20 + info.name.size();
  EXPECT_EQ(table_flips, table_bytes);
}

// ---------------------------------------------------------------------------
// State serialization building blocks
// ---------------------------------------------------------------------------

/// Small module with both parameters and a buffer-carrying layer, so the
/// round-trip covers the named_buffers path (batch-norm running stats).
struct TinyNet : nn::Module {
  explicit TinyNet(tensor::Rng& rng) : lin(4, 3, rng), bn(3) {
    register_module("lin", lin);
    register_module("bn", bn);
  }
  nn::Linear lin;
  nn::BatchNorm2d bn;
};

TEST(State, ModuleRoundTripIncludesBuffers) {
  tensor::Rng rng_a(1), rng_b(2);
  TinyNet a(rng_a), b(rng_b);
  // Give a's buffers distinctive values (as if BN had accumulated stats).
  for (auto& [name, buf] : a.named_buffers())
    for (std::int64_t i = 0; i < buf->numel(); ++i)
      buf->data()[i] = static_cast<float>(name.size() + static_cast<std::size_t>(i)) * 0.25f;
  ASSERT_FALSE(a.named_buffers().empty());
  ASSERT_NE(hash_module(a), hash_module(b));

  CheckpointWriter w;
  write_module(w.section("model"), a);
  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  ByteReader in = r.section("model");
  read_module(in, b);
  EXPECT_EQ(hash_module(a), hash_module(b));
}

TEST(State, ReadModuleRejectsArchitectureDrift) {
  tensor::Rng rng(1);
  TinyNet a(rng);
  struct OtherNet : nn::Module {
    explicit OtherNet(tensor::Rng& r) : lin(5, 3, r) { register_module("lin", lin); }
    nn::Linear lin;
  } b(rng);
  CheckpointWriter w;
  write_module(w.section("model"), a);
  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  ByteReader in = r.section("model");
  EXPECT_THROW(read_module(in, b), CheckpointError);
}

TEST(State, OptimizerStateDictNamesAndShapesArePinned) {
  auto make_params = [] {
    return std::vector<autograd::Variable>{
        autograd::Variable(tensor::Tensor({2, 3}, 1.0f), true),
        autograd::Variable(tensor::Tensor({4}, 2.0f), true)};
  };
  {
    optim::SgdMomentum sgd(make_params());
    optim::OptimizerStateDict d = sgd.state_dict();
    EXPECT_EQ(d.kind, "sgd_momentum");
    ASSERT_EQ(d.tensors.size(), 2u);
    EXPECT_EQ(d.tensors[0].first, "velocity.0");
    EXPECT_EQ(d.tensors[1].first, "velocity.1");
    EXPECT_EQ(d.tensors[0].second->shape(), (tensor::Shape{2, 3}));
    EXPECT_EQ(d.tensors[1].second->shape(), (tensor::Shape{4}));
    EXPECT_TRUE(d.scalars.empty());
  }
  {
    optim::Adam adam(make_params());
    optim::OptimizerStateDict d = adam.state_dict();
    EXPECT_EQ(d.kind, "adam");
    ASSERT_EQ(d.tensors.size(), 4u);
    EXPECT_EQ(d.tensors[0].first, "m.0");
    EXPECT_EQ(d.tensors[1].first, "m.1");
    EXPECT_EQ(d.tensors[2].first, "v.0");
    EXPECT_EQ(d.tensors[3].first, "v.1");
    ASSERT_EQ(d.scalars.size(), 1u);
    EXPECT_EQ(d.scalars[0].first, "step");
  }
}

TEST(State, OptimizerRoundTripRestoresSlotsAndStep) {
  auto make_params = [] {
    return std::vector<autograd::Variable>{
        autograd::Variable(tensor::Tensor({3}, 1.0f), true)};
  };
  auto step_once = [](optim::Optimizer& opt) {
    for (auto p : opt.params()) {
      p.zero_grad();
      for (std::int64_t i = 0; i < p.node()->grad.numel(); ++i) p.node()->grad[i] = 0.5f;
    }
    opt.step(0.1f);
  };
  optim::Adam a(make_params()), b(make_params());
  step_once(a);
  step_once(a);
  CheckpointWriter w;
  write_optimizer(w.section("optimizer"), a);
  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  ByteReader in = r.section("optimizer");
  read_optimizer(in, b);
  optim::OptimizerStateDict da = a.state_dict(), db = b.state_dict();
  EXPECT_EQ(*da.scalars[0].second, *db.scalars[0].second);
  for (std::size_t i = 0; i < da.tensors.size(); ++i)
    for (std::int64_t j = 0; j < da.tensors[i].second->numel(); ++j)
      EXPECT_EQ(da.tensors[i].second->data()[j], db.tensors[i].second->data()[j]);
}

TEST(State, ReadOptimizerRejectsKindMismatch) {
  auto make_params = [] {
    return std::vector<autograd::Variable>{
        autograd::Variable(tensor::Tensor({3}, 1.0f), true)};
  };
  optim::SgdMomentum sgd(make_params());
  optim::Adam adam(make_params());
  CheckpointWriter w;
  write_optimizer(w.section("optimizer"), sgd);
  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  ByteReader in = r.section("optimizer");
  EXPECT_THROW(read_optimizer(in, adam), CheckpointError);
}

TEST(State, RngRoundTripIncludesBoxMullerCache) {
  tensor::Rng a(77);
  (void)a.normal();  // leaves the second Box-Muller value cached
  CheckpointWriter w;
  write_rng(w.section("rng"), a);
  const std::vector<double> expect = {a.normal(), a.normal(), a.uniform(),
                                      static_cast<double>(a.next_u64() % 1000)};
  CheckpointReader r = CheckpointReader::parse(w.serialize(), "mem");
  tensor::Rng b(0);
  ByteReader in = r.section("rng");
  read_rng(in, b);
  EXPECT_EQ(b.normal(), expect[0]);
  EXPECT_EQ(b.normal(), expect[1]);
  EXPECT_EQ(b.uniform(), expect[2]);
  EXPECT_EQ(static_cast<double>(b.next_u64() % 1000), expect[3]);
}

// ---------------------------------------------------------------------------
// Timer carry (§3.2.1 across restarts)
// ---------------------------------------------------------------------------

TEST(TimerCarry, PriorTimedMsExtendsTimeToTrain) {
  core::ManualClock clock;
  core::MlLog log;
  core::TrainingTimer timer(clock, log, 1000.0);
  timer.start_run();
  timer.carry_prior(5000.0, 6000.0);
  clock.advance_ms(100.0);
  EXPECT_DOUBLE_EQ(timer.timed_so_far_ms(), 5100.0);
  timer.stop_run();
  EXPECT_DOUBLE_EQ(timer.time_to_train_ms(), 5100.0);
  EXPECT_DOUBLE_EQ(timer.unexcluded_time_ms(), 6100.0);
}

TEST(TimerCarry, RejectsNegativeAndPostStop) {
  core::ManualClock clock;
  core::MlLog log;
  core::TrainingTimer timer(clock, log, 1000.0);
  EXPECT_THROW(timer.carry_prior(-1.0, 0.0), std::invalid_argument);
  timer.start_run();
  timer.stop_run();
  EXPECT_THROW(timer.carry_prior(1.0, 1.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// End-to-end preempt -> restart -> converge (the tentpole acceptance)
// ---------------------------------------------------------------------------

// Padding-free: gtest lists a case by dumping its bytes into the test name,
// so every byte must be a member or the listed names vary between builds.
struct ResumeCase {
  ResumeCase(BenchmarkId case_id, std::int64_t case_threads)
      : id(case_id), threads(case_threads) {}
  BenchmarkId id;
  std::int32_t zero = 0;  // fills the gap between the 4-byte id and threads
  std::int64_t threads;
};
static_assert(std::has_unique_object_representations_v<ResumeCase>);

std::uint64_t final_weights_hash(const models::Workload& w) { return hash_module(*w.model()); }

/// Epochs a resume case trains against an unreachable target, for the smoke
/// workloads that do not reach their target in a few epochs (0 = train to
/// the smoke target).
std::int64_t fixed_epochs(BenchmarkId id) {
  return id == BenchmarkId::kTranslationRecurrent || id == BenchmarkId::kTranslationNonRecurrent
             ? 4
             : 0;
}

class ResumeBitwise : public ::testing::TestWithParam<ResumeCase> {};

TEST_P(ResumeBitwise, KillAtEpochKResumesIdentically) {
  const ResumeCase c = GetParam();
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec = core::find_spec(suite, c.id);
  core::QualityMetric target = harness::scaled_target(spec, WorkloadScale::kSmoke);
  core::SteadyClock clock;

  RunOptions opts;
  opts.seed = 21;
  opts.max_epochs = 40;
  opts.num_threads = c.threads;
  if (const std::int64_t epochs = fixed_epochs(c.id)) {
    target.target = target.higher_is_better ? 1e9 : -1e9;  // unreachable: run every epoch
    opts.max_epochs = epochs;
  }

  auto baseline_w = harness::make_reference_workload(c.id, WorkloadScale::kSmoke);
  const RunOutcome baseline = harness::run_to_target(*baseline_w, target, opts, clock);
  ASSERT_TRUE(baseline.quality_reached || fixed_epochs(c.id) > 0);
  ASSERT_GE(baseline.epochs, 2) << "smoke run too short to preempt meaningfully";
  const std::uint64_t baseline_hash = final_weights_hash(*baseline_w);

  RunOptions faulted = opts;
  faulted.checkpoint_every_n_epochs = 1;
  faulted.checkpoint_path =
      tmp_path("resume_" + spec.name + "_t" + std::to_string(c.threads) + ".ckpt");
  // Preempt strictly before the last epoch so the fault actually fires.
  faulted.fault.kill_after_epoch = std::max<std::int64_t>(1, baseline.epochs / 2);
  std::unique_ptr<models::Workload> current;
  const RunOutcome resumed = harness::run_with_restarts(
      [&] {
        current = harness::make_reference_workload(c.id, WorkloadScale::kSmoke);
        return current.get();
      },
      target, faulted, clock);

  EXPECT_EQ(resumed.restarts, 1);
  EXPECT_EQ(resumed.resumed_from_epoch, faulted.fault.kill_after_epoch);
  EXPECT_EQ(resumed.quality_reached, baseline.quality_reached);
  EXPECT_EQ(resumed.epochs, baseline.epochs);
  EXPECT_EQ(harness::outcome_fingerprint(resumed), harness::outcome_fingerprint(baseline));
  EXPECT_EQ(final_weights_hash(*current), baseline_hash)
      << "resumed final weights differ bitwise from the uninterrupted run";
  // The restored session logged the restore inside the timed window.
  EXPECT_NE(resumed.log.find(core::keys::kCheckpointRestored), nullptr);
}

std::string short_name(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kImageClassification: return "resnet";
    case BenchmarkId::kObjectDetectionLight: return "ssd";
    case BenchmarkId::kObjectDetectionHeavy: return "maskrcnn";
    case BenchmarkId::kTranslationRecurrent: return "gnmt";
    case BenchmarkId::kTranslationNonRecurrent: return "transformer";
    case BenchmarkId::kRecommendation: return "ncf";
    case BenchmarkId::kReinforcementLearning: return "minigo";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, ResumeBitwise,
    ::testing::Values(ResumeCase{BenchmarkId::kRecommendation, 1},
                      ResumeCase{BenchmarkId::kRecommendation, 2},
                      ResumeCase{BenchmarkId::kRecommendation, 4},
                      ResumeCase{BenchmarkId::kRecommendation, 8},
                      ResumeCase{BenchmarkId::kImageClassification, 1},
                      ResumeCase{BenchmarkId::kImageClassification, 4},
                      ResumeCase{BenchmarkId::kObjectDetectionLight, 1},
                      ResumeCase{BenchmarkId::kObjectDetectionLight, 4},
                      ResumeCase{BenchmarkId::kObjectDetectionHeavy, 1},
                      ResumeCase{BenchmarkId::kObjectDetectionHeavy, 4},
                      ResumeCase{BenchmarkId::kTranslationRecurrent, 1},
                      ResumeCase{BenchmarkId::kTranslationRecurrent, 4},
                      ResumeCase{BenchmarkId::kTranslationNonRecurrent, 1},
                      ResumeCase{BenchmarkId::kTranslationNonRecurrent, 4},
                      ResumeCase{BenchmarkId::kReinforcementLearning, 1},
                      ResumeCase{BenchmarkId::kReinforcementLearning, 4}),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
      return short_name(info.param.id) + "_t" + std::to_string(info.param.threads);
    });

TEST(Resume, ResumingTheSameCheckpointTwiceIsIdempotent) {
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec = core::find_spec(suite, BenchmarkId::kRecommendation);
  const core::QualityMetric target = harness::scaled_target(spec, WorkloadScale::kSmoke);
  core::SteadyClock clock;

  RunOptions opts;
  opts.seed = 5;
  opts.max_epochs = 40;
  opts.checkpoint_every_n_epochs = 1;
  opts.checkpoint_path = tmp_path("idempotent.ckpt");
  opts.fault.kill_after_epoch = 1;

  auto w0 = harness::make_reference_workload(BenchmarkId::kRecommendation,
                                             WorkloadScale::kSmoke);
  EXPECT_THROW(harness::run_to_target(*w0, target, opts, clock), harness::Preempted);

  // Two independent resumes from the SAME file must agree bitwise.
  RunOptions resume = opts;
  resume.fault = harness::FaultPlan{};
  resume.resume_from = opts.checkpoint_path;
  resume.checkpoint_path = tmp_path("idempotent_resume.ckpt");  // don't clobber source
  std::uint64_t hashes[2], prints[2];
  for (int i = 0; i < 2; ++i) {
    auto w = harness::make_reference_workload(BenchmarkId::kRecommendation,
                                              WorkloadScale::kSmoke);
    const RunOutcome out = harness::run_to_target(*w, target, resume, clock);
    ASSERT_TRUE(out.quality_reached);
    hashes[i] = final_weights_hash(*w);
    prints[i] = harness::outcome_fingerprint(out);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(prints[0], prints[1]);
}

TEST(Resume, ProbabilisticFaultsStillConvergeIdentically) {
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec = core::find_spec(suite, BenchmarkId::kRecommendation);
  const core::QualityMetric target = harness::scaled_target(spec, WorkloadScale::kSmoke);
  core::SteadyClock clock;

  RunOptions opts;
  opts.seed = 9;
  opts.max_epochs = 40;
  auto baseline_w =
      harness::make_reference_workload(BenchmarkId::kRecommendation, WorkloadScale::kSmoke);
  const RunOutcome baseline = harness::run_to_target(*baseline_w, target, opts, clock);
  ASSERT_TRUE(baseline.quality_reached);

  RunOptions faulted = opts;
  faulted.checkpoint_every_n_epochs = 1;
  faulted.checkpoint_path = tmp_path("probabilistic.ckpt");
  faulted.fault.per_epoch_fail_prob = 0.5;
  faulted.fault.seed = 1234;
  std::unique_ptr<models::Workload> current;
  const RunOutcome resumed = harness::run_with_restarts(
      [&] {
        current = harness::make_reference_workload(BenchmarkId::kRecommendation,
                                                   WorkloadScale::kSmoke);
        return current.get();
      },
      target, faulted, clock, /*max_restarts=*/64);
  EXPECT_TRUE(resumed.quality_reached);
  EXPECT_EQ(harness::outcome_fingerprint(resumed), harness::outcome_fingerprint(baseline));
  EXPECT_EQ(final_weights_hash(*current), final_weights_hash(*baseline_w));
}

// Checkpoints of checkpoints: a ResNet run preempted at least twice (save ->
// restore -> train -> save -> restore) must restore its own second-generation
// file and end bitwise where the uninterrupted run ends, curve and final
// weights. Every epoch's loader is rebuilt from the restored rng, and the
// "progress" section carries the LR schedule's step across each restart.
TEST(Resume, ResnetSurvivesMultipleRestarts) {
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec =
      core::find_spec(suite, BenchmarkId::kImageClassification);
  const core::QualityMetric target = harness::scaled_target(spec, WorkloadScale::kSmoke);
  core::SteadyClock clock;

  RunOptions opts;
  opts.seed = 21;
  opts.max_epochs = 40;
  auto baseline_w = harness::make_reference_workload(BenchmarkId::kImageClassification,
                                                     WorkloadScale::kSmoke);
  const RunOutcome baseline = harness::run_to_target(*baseline_w, target, opts, clock);
  ASSERT_TRUE(baseline.quality_reached);
  ASSERT_GE(baseline.epochs, 3) << "smoke run too short for a double preemption";

  RunOptions faulted = opts;
  faulted.checkpoint_every_n_epochs = 1;
  faulted.checkpoint_path = tmp_path("resnet_multi_restart.ckpt");
  faulted.fault.per_epoch_fail_prob = 0.9;  // high enough to preempt every session
  faulted.fault.seed = 77;
  std::unique_ptr<models::Workload> current;
  const RunOutcome resumed = harness::run_with_restarts(
      [&] {
        current = harness::make_reference_workload(BenchmarkId::kImageClassification,
                                                   WorkloadScale::kSmoke);
        return current.get();
      },
      target, faulted, clock, /*max_restarts=*/64);

  ASSERT_GE(resumed.restarts, 2)
      << "fault plan only preempted once; raise per_epoch_fail_prob or change seed";
  EXPECT_TRUE(resumed.quality_reached);
  EXPECT_EQ(resumed.epochs, baseline.epochs);
  EXPECT_EQ(harness::outcome_fingerprint(resumed), harness::outcome_fingerprint(baseline));
  EXPECT_EQ(final_weights_hash(*current), final_weights_hash(*baseline_w))
      << "multi-restart final weights differ bitwise from the uninterrupted run";
}

// The prefetching loader assembles the next batch on its own thread, drawing
// each batch's augmentation from a child of the run rng. The loader lives
// only within an epoch, so no batch is in flight at an epoch-boundary
// checkpoint and the restored rng regenerates the same batches.
// Kill-and-resume at 4 threads with prefetching on must reproduce the
// uninterrupted run bitwise.
TEST(Resume, PrefetchingResnetAtFourThreadsResumesIdentically) {
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec =
      core::find_spec(suite, BenchmarkId::kImageClassification);
  const core::QualityMetric target = harness::scaled_target(spec, WorkloadScale::kSmoke);
  core::SteadyClock clock;
  // The smoke-scale reference config with the prefetching loader switched on.
  auto make = [] {
    models::ResNetWorkload::Config c;
    c.dataset.height = 8;
    c.dataset.width = 8;
    c.dataset.num_classes = 4;
    c.dataset.train_size = 128;
    c.dataset.val_size = 64;
    c.dataset.noise = 0.25f;
    c.model.num_classes = 4;
    c.model.stage_channels = {6, 8};
    c.prefetch_loader = true;
    return std::make_unique<models::ResNetWorkload>(c);
  };

  RunOptions opts;
  opts.seed = 21;
  opts.max_epochs = 40;
  opts.num_threads = 4;
  auto baseline_w = make();
  const RunOutcome baseline = harness::run_to_target(*baseline_w, target, opts, clock);
  ASSERT_TRUE(baseline.quality_reached);
  ASSERT_GT(baseline.epochs, 2) << "smoke run too short to preempt after epoch 2";

  RunOptions faulted = opts;
  faulted.checkpoint_every_n_epochs = 1;
  faulted.checkpoint_path = tmp_path("resume_resnet_prefetch_t4.ckpt");
  faulted.fault.kill_after_epoch = 2;
  std::unique_ptr<models::ResNetWorkload> current;
  const RunOutcome resumed = harness::run_with_restarts(
      [&] {
        current = make();
        return current.get();
      },
      target, faulted, clock);

  EXPECT_EQ(resumed.restarts, 1);
  EXPECT_EQ(resumed.resumed_from_epoch, 2);
  EXPECT_EQ(resumed.epochs, baseline.epochs);
  EXPECT_EQ(harness::outcome_fingerprint(resumed), harness::outcome_fingerprint(baseline));
  EXPECT_EQ(hash_module(*current->model()), hash_module(*baseline_w->model()));
}

// ---------------------------------------------------------------------------
// Loud rejection of unusable checkpoints (never silently loaded)
// ---------------------------------------------------------------------------

class ResumeRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    const core::SuiteVersion suite = core::suite_v05();
    const core::BenchmarkSpec& spec =
        core::find_spec(suite, BenchmarkId::kRecommendation);
    target_ = harness::scaled_target(spec, WorkloadScale::kSmoke);
    target_.target = 1.1;  // unreachable: the fault must fire, not convergence
    opts_.seed = 11;
    opts_.max_epochs = 5;
    opts_.checkpoint_every_n_epochs = 1;
    // Unique per test: ctest runs these fixtures in parallel processes, and
    // two of them corrupt the file in place.
    opts_.checkpoint_path =
        tmp_path(std::string("rejection_") +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".ckpt");
    opts_.fault.kill_after_epoch = 1;
    auto w = harness::make_reference_workload(BenchmarkId::kRecommendation,
                                              WorkloadScale::kSmoke);
    core::SteadyClock clock;
    EXPECT_THROW(harness::run_to_target(*w, target_, opts_, clock), harness::Preempted);
    opts_.fault = harness::FaultPlan{};
    opts_.resume_from = opts_.checkpoint_path;
  }

  RunOutcome resume_into_ncf() {
    auto w = harness::make_reference_workload(BenchmarkId::kRecommendation,
                                              WorkloadScale::kSmoke);
    core::SteadyClock clock;
    return harness::run_to_target(*w, target_, opts_, clock);
  }

  core::QualityMetric target_{"hit_rate", 0.5, true};
  RunOptions opts_;
};

TEST_F(ResumeRejection, SeedMismatch) {
  opts_.seed = 999;
  EXPECT_THROW(resume_into_ncf(), CheckpointError);
}

TEST_F(ResumeRejection, WrongBenchmark) {
  auto w = harness::make_reference_workload(BenchmarkId::kImageClassification,
                                            WorkloadScale::kSmoke);
  core::SteadyClock clock;
  EXPECT_THROW(harness::run_to_target(*w, target_, opts_, clock), CheckpointError);
}

TEST_F(ResumeRejection, CorruptFile) {
  std::vector<std::uint8_t> bytes = slurp(opts_.checkpoint_path);
  bytes[bytes.size() - 3] ^= 0x40;
  spit(opts_.checkpoint_path, bytes);
  EXPECT_THROW(resume_into_ncf(), CheckpointError);
}

TEST_F(ResumeRejection, VersionFromTheFuture) {
  std::vector<std::uint8_t> bytes = slurp(opts_.checkpoint_path);
  bytes[4] = static_cast<std::uint8_t>(kFormatVersion + 1);
  spit(opts_.checkpoint_path, bytes);
  EXPECT_THROW(resume_into_ncf(), CheckpointError);
}

TEST_F(ResumeRejection, NegativeEpoch) {
  // Valid CRCs, but the meta section claims epoch -1: rewrite every section,
  // meta with its epoch field replaced.
  const CheckpointReader in = CheckpointReader::read_file(opts_.checkpoint_path);
  CheckpointWriter out;
  for (const auto& info : in.sections()) {
    ByteReader r = in.section(info.name);
    ByteWriter& w = out.section(info.name);
    if (info.name == "meta") {
      w.put_string(r.get_string());
      w.put_string(r.get_string());
      w.put_u64(r.get_u64());
      r.get_i64();
      w.put_i64(-1);
    }
    std::vector<std::uint8_t> rest(r.remaining());
    r.get_raw(rest.data(), rest.size());
    w.put_raw(rest.data(), rest.size());
  }
  out.write_file(opts_.checkpoint_path);
  EXPECT_THROW(resume_into_ncf(), CheckpointError);
}

TEST_F(ResumeRejection, MissingFile) {
  opts_.resume_from = tmp_path("does_not_exist.ckpt");
  EXPECT_THROW(resume_into_ncf(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Strict readers of the workload-specific sections
// ---------------------------------------------------------------------------

/// A smoke workload built at seed 7 and trained one epoch, and its state.
struct SavedWorkload {
  std::unique_ptr<models::Workload> workload;
  CheckpointWriter state;
};

SavedWorkload train_one_epoch_and_save(BenchmarkId id) {
  SavedWorkload s{harness::make_reference_workload(id, WorkloadScale::kSmoke), {}};
  s.workload->prepare_data();
  s.workload->build_model(7);
  s.workload->train_epoch();
  s.workload->save_state(s.state);
  return s;
}

/// `state` with section `name` replaced by `payload`.
std::vector<std::uint8_t> with_section(const CheckpointWriter& state, const std::string& name,
                                       const ByteWriter& payload) {
  const CheckpointReader in = CheckpointReader::parse(state.serialize(), "state");
  CheckpointWriter out;
  for (const auto& info : in.sections()) {
    ByteWriter& w = out.section(info.name);
    if (info.name == name) {
      w.put_raw(payload.bytes().data(), payload.size());
    } else {
      ByteReader r = in.section(info.name);
      std::vector<std::uint8_t> all(r.remaining());
      r.get_raw(all.data(), all.size());
      w.put_raw(all.data(), all.size());
    }
  }
  return out.serialize();
}

TEST(WorkloadSections, RestoreBeforeBuildModelThrowsLogicError) {
  SavedWorkload saved = train_one_epoch_and_save(BenchmarkId::kReinforcementLearning);
  auto fresh = harness::make_reference_workload(BenchmarkId::kReinforcementLearning,
                                                WorkloadScale::kSmoke);
  const CheckpointReader in = CheckpointReader::parse(saved.state.serialize(), "state");
  EXPECT_THROW(fresh->restore_state(in), std::logic_error);
  CheckpointWriter out;
  EXPECT_THROW(fresh->save_state(out), std::logic_error);
}

TEST(WorkloadSections, MiniGoReplayCountBeyondPayloadOrCapacityIsRejected) {
  SavedWorkload saved = train_one_epoch_and_save(BenchmarkId::kReinforcementLearning);
  const CheckpointReader good = CheckpointReader::parse(saved.state.serialize(), "state");
  ByteReader replay = good.section("replay");
  const std::uint64_t count = replay.get_u64();
  ASSERT_GT(count, 0u);
  std::vector<std::uint8_t> records(replay.remaining());
  replay.get_raw(records.data(), records.size());
  // One more than the payload holds, one past the replay capacity (1024),
  // and a count whose allocation alone would exhaust memory.
  for (const std::uint64_t claimed : {count + 1, std::uint64_t{1025}, std::uint64_t{1} << 60}) {
    ByteWriter forged;
    forged.put_u64(claimed);
    forged.put_raw(records.data(), records.size());
    const CheckpointReader in =
        CheckpointReader::parse(with_section(saved.state, "replay", forged), "forged");
    auto fresh = harness::make_reference_workload(BenchmarkId::kReinforcementLearning,
                                                  WorkloadScale::kSmoke);
    fresh->prepare_data();
    fresh->build_model(7);
    EXPECT_THROW(fresh->restore_state(in), CheckpointError) << "count " << claimed;
  }
}

// ResNet's "progress" holds the global step and nothing else; a payload with
// a trailing i64 (the epoch count the section once carried) is rejected.
TEST(WorkloadSections, ResnetProgressWithTrailingI64IsRejected) {
  SavedWorkload saved = train_one_epoch_and_save(BenchmarkId::kImageClassification);
  const CheckpointReader good = CheckpointReader::parse(saved.state.serialize(), "state");
  ByteReader progress = good.section("progress");
  const std::int64_t step = progress.get_i64();
  progress.expect_done();
  ByteWriter forged;
  forged.put_i64(step);
  forged.put_i64(1);
  const CheckpointReader in =
      CheckpointReader::parse(with_section(saved.state, "progress", forged), "forged");
  auto fresh = harness::make_reference_workload(BenchmarkId::kImageClassification,
                                                WorkloadScale::kSmoke);
  fresh->prepare_data();
  fresh->build_model(7);
  EXPECT_THROW(fresh->restore_state(in), CheckpointError);
  // The unforged section restores.
  fresh->restore_state(good);
}

TEST(WorkloadSections, BucketHoldingAnotherBucketsIndexIsRejected) {
  for (const BenchmarkId id :
       {BenchmarkId::kTranslationRecurrent, BenchmarkId::kTranslationNonRecurrent}) {
    SavedWorkload saved = train_one_epoch_and_save(id);
    const CheckpointReader good = CheckpointReader::parse(saved.state.serialize(), "state");
    ByteReader in_buckets = good.section("buckets");
    data::LengthBuckets buckets(in_buckets.get_u64());
    for (auto& bucket : buckets) {
      bucket.resize(in_buckets.get_u64());
      in_buckets.get_raw(bucket.data(), bucket.size() * sizeof(std::int64_t));
    }
    // Swap one index between the first two non-empty buckets: sizes hold,
    // membership does not.
    std::vector<std::int64_t>* first = nullptr;
    for (auto& bucket : buckets) {
      if (bucket.empty()) continue;
      if (!first) {
        first = &bucket;
      } else {
        std::swap((*first)[0], bucket[0]);
        break;
      }
    }
    ByteWriter forged;
    data::write_length_buckets(forged, buckets);
    const CheckpointReader in =
        CheckpointReader::parse(with_section(saved.state, "buckets", forged), "forged");
    auto fresh = harness::make_reference_workload(id, WorkloadScale::kSmoke);
    fresh->prepare_data();
    fresh->build_model(7);
    EXPECT_THROW(fresh->restore_state(in), CheckpointError) << fresh->name();
    // The unforged section restores.
    fresh->restore_state(good);
  }
}

TEST(Harness, CheckpointEventsCarryAuditMetadata) {
  const core::SuiteVersion suite = core::suite_v05();
  const core::BenchmarkSpec& spec = core::find_spec(suite, BenchmarkId::kRecommendation);
  core::QualityMetric target = harness::scaled_target(spec, WorkloadScale::kSmoke);
  target.target = 1.1;  // unreachable: run all epochs, checkpoint each one
  RunOptions opts;
  opts.seed = 2;
  opts.max_epochs = 3;
  opts.checkpoint_every_n_epochs = 1;
  opts.checkpoint_path = tmp_path("events.ckpt");
  auto w = harness::make_reference_workload(BenchmarkId::kRecommendation,
                                            WorkloadScale::kSmoke);
  core::SteadyClock clock;
  const RunOutcome out = harness::run_to_target(*w, target, opts, clock);
  EXPECT_EQ(out.checkpoints_written, 3);
  const auto saves = out.log.find_all(core::keys::kCheckpointSaved);
  ASSERT_EQ(static_cast<std::int64_t>(saves.size()), out.checkpoints_written);
  for (const auto* e : saves) {
    EXPECT_NE(e->meta.find("bytes"), e->meta.end());
    EXPECT_NE(e->meta.find("write_ms"), e->meta.end());
    EXPECT_EQ(e->meta.at("path"), opts.checkpoint_path);
  }
  // The checkpoint on disk preserves the prior session's log verbatim.
  CheckpointReader r = CheckpointReader::read_file(opts.checkpoint_path);
  ByteReader log_in = r.section("log");
  const core::MlLog prior = core::MlLog::parse(log_in.get_string());
  EXPECT_NE(prior.find(core::keys::kRunStart), nullptr);
}

}  // namespace
}  // namespace mlperf::checkpoint
