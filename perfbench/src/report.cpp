// Statistics helpers and the host / configuration descriptor.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench.h"
#include "trace.h"
#include "util/gemm.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double windowed_quantile(const std::vector<std::vector<double>>& windows, double q) {
  const double min_count = 10.0 / (1.0 - q);
  std::vector<double> per_window;
  std::vector<double> pooled;
  for (const std::vector<double>& w : windows) {
    if (static_cast<double>(w.size()) >= min_count) per_window.push_back(quantile(w, q));
    pooled.insert(pooled.end(), w.begin(), w.end());
  }
  return per_window.empty() ? quantile(std::move(pooled), q) : median(std::move(per_window));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

bool same_decision(const dtsnn::core::InferenceResult& a,
                   const dtsnn::core::InferenceResult& b) {
  return a.predicted_class == b.predicted_class && a.exit_timestep == b.exit_timestep &&
         a.final_entropy == b.final_entropy;
}

void add_layer_metrics(RunResult& r, LayerWindow& w) {
  auto compute = [&](const char* name) -> const SpanTotals& { return w.compute[name]; };
  SpanTotals gemm;
  for (const char* op : {"util.gemm.nn", "util.gemm.at", "util.gemm.bt", "util.gemm.quant"}) {
    const SpanTotals& t = compute(op);
    gemm.count += t.count;
    gemm.busy_s += t.busy_s;
    gemm.flops += t.flops;
    gemm.a_elements += t.a_elements;
    gemm.a_nonzeros += t.a_nonzeros;
  }
  const double wall = w.compute_wall_s;
  const double other = wall - gemm.busy_s - compute("data.write_frame").busy_s -
                       compute("data.prefetch").busy_s - compute("core.exit_check").busy_s;
  r.add("util.gemm.calls", static_cast<double>(gemm.count), "count");
  r.add("util.gemm.busy_s", gemm.busy_s, "s");
  r.add("util.gemm.share", gemm.busy_s / wall, "fraction");
  r.add("util.gemm.gflop", gemm.flops * 1e-9, "GFLOP");
  r.add("util.gemm.gflops", gemm.busy_s > 0 ? gemm.flops * 1e-9 / gemm.busy_s : 0.0, "GFLOP/s");
  r.add("util.gemm.a_density", gemm.a_elements > 0 ? gemm.a_nonzeros / gemm.a_elements : 0.0,
        "fraction");
  r.add("util.gemm.nn.busy_s", compute("util.gemm.nn").busy_s, "s");
  r.add("util.gemm.at.busy_s", compute("util.gemm.at").busy_s, "s");
  r.add("util.gemm.bt.busy_s", compute("util.gemm.bt").busy_s, "s");
  r.add("util.gemm.quant.busy_s", compute("util.gemm.quant").busy_s, "s");
  r.add("snn.other_s", other, "s");
  r.add("snn.other_share", other / wall, "fraction");

  const SpanTotals& writes = w.all["data.write_frame"];
  const SpanTotals& prefetches = w.all["data.prefetch"];
  const std::size_t hits = w.storage_after.cache_hits - w.storage_before.cache_hits;
  const std::size_t misses = w.storage_after.cache_misses - w.storage_before.cache_misses;
  const std::size_t evictions =
      w.storage_after.cache_evictions - w.storage_before.cache_evictions;
  r.add("data.write_frame.calls", static_cast<double>(writes.count), "count");
  r.add("data.write_frame.busy_s", writes.busy_s, "s");
  r.add("data.write_frame.p99_us", quantile(writes.durations_us, 0.99), "us");
  r.add("data.prefetch.calls", static_cast<double>(prefetches.count), "count");
  r.add("data.prefetch.busy_s", prefetches.busy_s, "s");
  r.add("data.cache_hit_rate",
        hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
        "fraction");
  r.add("data.cache_misses", static_cast<double>(misses), "count");
  r.add("data.cache_evictions", static_cast<double>(evictions), "count");
  r.add("data.peak_resident_bytes", static_cast<double>(w.storage_after.peak_resident_bytes),
        "bytes");

  r.add("core.exit_checks", static_cast<double>(compute("core.exit_check").count), "count");
  r.add("core.exit_check.busy_s", compute("core.exit_check").busy_s, "s");
  r.add("core.early_exits", static_cast<double>(w.early_exits), "count");
  r.add("core.gflop_per_sample", gemm.flops * 1e-9 / static_cast<double>(w.samples), "GFLOP");

  std::size_t spans = 0;
  for (const auto& [name, t] : w.all) spans += t.count;
  r.add("trace.spans", static_cast<double>(spans), "count");
}

void describe_host(RunResult& r, const Options& o) {
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  r.describe("workload", o.workload);
  r.describe("seed", std::to_string(o.seed));
  r.describe("seconds", std::to_string(o.seconds));
  r.describe("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  r.describe("cpu_avx2", dtsnn::util::cpu_supports_avx2() ? "yes" : "no");
  r.describe("cpu_avx512", dtsnn::util::cpu_supports_avx512() ? "yes" : "no");
  r.describe("compiler", PERFBENCH_COMPILER);
  r.describe("build_type", PERFBENCH_BUILD_TYPE);
  r.describe("default_gemm_backend",
             std::string(dtsnn::util::default_gemm_backend().name()));
  r.describe("omp_threads", std::to_string(omp_threads));
}

}  // namespace perfbench
