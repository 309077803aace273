// The repository benchmark's measuring program.
//
//   perfbench --workload <offline_float|offline_int8|serve_sharded>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//   perfbench --workload prepare --work-dir <dir>
//
// `prepare` trains both checkpoints into the work directory when they are
// missing and prints nothing; run it with every OpenMP thread the workloads
// may use, so the checkpoints do not depend on which workload ran first.
// Prints the host / configuration descriptor and every metric by name with
// its unit, then, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced measurement supplies the per-layer ones. Exits 1 when any
// decision disagrees with its oracle, a request fails or is rejected.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "perfbench.h"
#include "util/logging.h"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <offline_float|offline_int8|"
               "serve_sharded> --seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);  // NOLINT(concurrency-mt-unsafe) before any thread starts
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload != "offline_float" && o.workload != "offline_int8" &&
      o.workload != "serve_sharded" && o.workload != "prepare") {
    usage("unknown or missing --workload");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.work_dir.empty()) usage("missing --work-dir");
  return o;
}

double json_number(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  dtsnn::util::set_log_level(dtsnn::util::LogLevel::kWarn);
  perfbench::RunResult r;
  perfbench::describe_host(r, o);
  try {
    std::filesystem::create_directories(o.work_dir);
    // Both checkpoints are prepared on the first run of any workload, so no
    // later run of either kind pays for training.
    for (const auto& spec : {perfbench::offline_model_spec(), perfbench::serving_model_spec()}) {
      r.describe("checkpoint_prep_s " + spec.model,
                 std::to_string(perfbench::prepare_checkpoint(spec, o.work_dir)));
    }
    if (o.workload == "prepare") return 0;
    if (o.workload == "serve_sharded") {
      perfbench::run_serving(o, r);
    } else {
      perfbench::run_offline(o, o.workload == "offline_int8", r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  for (const auto& [key, value] : r.descriptor) std::printf("# %s = %s\n", key.c_str(), value.c_str());
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : r.report_only) {
    std::printf("%-28s %14.6g %s (report only)\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %zu, failed %zu\n", r.attempted, r.failed);

  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), json_number(m.value), m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
