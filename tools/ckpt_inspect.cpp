// ckpt_inspect: examine an MLCK checkpoint file from the command line.
//
//   $ ./ckpt_inspect FILE            dump header + per-section sizes/CRCs
//   $ ./ckpt_inspect FILE --eval     additionally rebuild the workload named in
//                                    the checkpoint, restore it, and run one
//                                    evaluation (proves the file restores)
//   $ ./ckpt_inspect FILE --eval --scale=smoke   use the smoke-scale workload
//                                    (checkpoints written by the test suite)
//
// The dump pass is deliberately lenient (checkpoint::inspect_file): a damaged
// file is reported field by field instead of rejected outright, so this tool
// is usable for post-mortems on exactly the files the runtime refuses to load.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "checkpoint/format.h"
#include "core/benchmark_spec.h"
#include "harness/reference.h"

using namespace mlperf;

namespace {

int inspect(const std::string& path) {
  const checkpoint::InspectReport report = checkpoint::inspect_file(path);
  std::printf("%s: %llu bytes\n", path.c_str(),
              static_cast<unsigned long long>(report.file_bytes));
  std::printf("  magic   0x%08X  %s\n", report.magic,
              report.magic_ok ? "ok (MLCK)" : "BAD (not an MLCK checkpoint)");
  std::printf("  version %u  %s\n", report.version,
              report.version_ok
                  ? "ok"
                  : ("UNSUPPORTED (this build reads version " +
                     std::to_string(checkpoint::kFormatVersion) + ")")
                        .c_str());
  if (report.magic_ok && report.version_ok)
    std::printf("  header  crc32c %s\n", report.header_crc_ok ? "ok" : "CORRUPT");
  std::printf("  %zu section(s):\n", report.sections.size());
  for (const auto& s : report.sections)
    std::printf("    %-12s %10llu bytes  crc32c stored=%08X computed=%08X  %s\n",
                s.name.c_str(), static_cast<unsigned long long>(s.size), s.stored_crc,
                s.computed_crc, s.crc_ok() ? "ok" : "CORRUPT");
  if (report.trailing_bytes != 0)
    std::printf("  %llu trailing byte(s) after the last section  CORRUPT\n",
                static_cast<unsigned long long>(report.trailing_bytes));
  return report.ok() ? 0 : 2;
}

int restore_and_eval(const std::string& path, harness::WorkloadScale scale) {
  // The strict reader: this is exactly the validation the training harness
  // applies on --resume_from, so success here means the file would resume.
  checkpoint::CheckpointReader ckpt = checkpoint::CheckpointReader::read_file(path);
  checkpoint::ByteReader meta = ckpt.section("meta");
  const std::string benchmark = meta.get_string();
  const std::string signature = meta.get_string();
  const std::uint64_t seed = meta.get_u64();
  const std::int64_t epochs = meta.get_i64();
  const double saved_quality = meta.get_f64();
  std::printf("\nrestore-to-eval:\n");
  std::printf("  benchmark  %s (%s)\n", benchmark.c_str(), signature.c_str());
  std::printf("  seed       %llu\n", static_cast<unsigned long long>(seed));
  std::printf("  epochs     %lld (saved quality %.4f)\n", static_cast<long long>(epochs),
              saved_quality);

  const core::SuiteVersion suite = core::suite_v05();
  std::optional<core::BenchmarkId> id;
  for (const auto& spec : suite.benchmarks)
    if (spec.name == benchmark) id = spec.id;
  if (!id) {
    std::fprintf(stderr, "  unknown benchmark '%s' in this build\n", benchmark.c_str());
    return 2;
  }
  auto workload = harness::make_reference_workload(*id, scale);
  workload->prepare_data();
  workload->build_model(seed);
  workload->restore_state(ckpt);
  const double quality = workload->evaluate();
  std::printf("  restored model evaluates to %.4f %s\n", quality,
              quality == saved_quality ? "(matches saved quality exactly)"
                                       : "(differs from saved quality — wrong scale?)");
  return quality == saved_quality ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool eval = false;
  harness::WorkloadScale scale = harness::WorkloadScale::kReference;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--eval") {
      eval = true;
    } else if (arg == "--scale=smoke") {
      scale = harness::WorkloadScale::kSmoke;
    } else if (arg == "--scale=reference") {
      scale = harness::WorkloadScale::kReference;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 1;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "usage: ckpt_inspect FILE [--eval] [--scale=smoke|reference]\n");
      return 1;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: ckpt_inspect FILE [--eval] [--scale=smoke|reference]\n");
    return 1;
  }
  try {
    const int rc = inspect(path);
    if (!eval) return rc;
    const int eval_rc = restore_and_eval(path, scale);
    return rc != 0 ? rc : eval_rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
