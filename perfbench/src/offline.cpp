// offline_float / offline_int8: closed-loop early-exit throughput.
//
// One thread drives core::BatchedSequentialEngine (live pool of 32) over the
// in-memory sync10 test split, one pass of all 1024 samples per request, in
// an order the seed permutes afresh for every pass. Every decision of every
// pass is checked against the batch-1 core::SequentialEngine oracle on the
// same network and GEMM context.

#include <algorithm>
#include <memory>
#include <numeric>
#include <cstdio>
#include <random>

#include "core/quantize.h"
#include "perfbench.h"
#include "trace.h"
#include "util/gemm.h"

namespace perfbench {

namespace dc = dtsnn::core;
namespace du = dtsnn::util;

namespace {

constexpr std::size_t kTimesteps = 4;
constexpr std::size_t kBatch = 32;
constexpr int kSetups = 3;
constexpr int kWarmupPasses = 2;
constexpr int kMinPasses = 5;

struct Setup {
  explicit Setup(dc::Experiment experiment) : e(std::move(experiment)) {}
  dc::Experiment e;
  Calibration cal;
  std::unique_ptr<dtsnn::imc::EnergyModel> energy;
  std::unique_ptr<dc::EntropyExitPolicy> policy;
  std::unique_ptr<du::GemmContext> context;
  double int8_flip_rate = 0.0;
};

/// Everything a user pays before the first pass: dataset build, checkpoint
/// load, theta calibration, (INT8 calibration), energy model and context.
std::unique_ptr<Setup> set_up(const Options& o, bool int8) {
  auto s = std::make_unique<Setup>(load_checkpoint(offline_model_spec(), o.work_dir));
  s->cal = calibrate_operating_point(s->e);
  s->policy = std::make_unique<dc::EntropyExitPolicy>(s->cal.theta);
  s->energy = std::make_unique<dtsnn::imc::EnergyModel>(measured_energy_model(s->e));
  const du::GemmBackend* backend = &du::default_gemm_backend();
  if (int8) {
    dc::QuantCalibrationConfig config;
    config.spec.bits = 8;
    config.max_samples = 128;
    const dc::QuantCalibrationReport q =
        dc::calibrate_quantized(s->e.net, *s->e.bundle.test, *s->policy, kTimesteps, config);
    s->int8_flip_rate = q.diff.prediction_flip_rate;
    backend = du::find_gemm_backend("int8_lut");
  }
  s->context = std::make_unique<du::GemmContext>(*backend);
  return s;
}

struct Phase {
  std::vector<double> pass_rates;  ///< img/s of each timed pass
  std::vector<std::vector<double>> latency_ms;  ///< per timed pass, per sample, from its start
  std::vector<dc::InferenceResult> decided;  ///< by sample, last timed pass
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::size_t timed_samples = 0;
  std::size_t timed_early_exits = 0;
  dtsnn::data::DatasetStorageStats storage_before;
  dtsnn::data::DatasetStorageStats storage_after;
  double timed_wall_s = 0.0;
  std::int64_t timed_from_ns = 0;
  std::int64_t timed_to_ns = 0;
};

/// Run passes for `seconds` after the warm-up ones, checking every decision.
Phase measure(dtsnn::snn::SpikingNetwork& net, du::GemmContext& context,
              const dtsnn::data::Dataset& dataset, const dc::ExitPolicy& policy,
              const std::vector<dc::InferenceResult>& oracle, std::mt19937_64& rng,
              double seconds, bool traced) {
  net.set_gemm_context(&context);
  dc::BatchedSequentialEngine engine(net, policy, kTimesteps, kBatch);
  dc::InferenceRequest request = dc::InferenceRequest::first_n(dataset.size());
  Phase p;
  p.decided.resize(dataset.size());
  std::vector<double> pass_latency_ms;
  for (int pass = 0;; ++pass) {
    const bool timed = pass >= kWarmupPasses;
    if (timed && p.timed_from_ns == 0) {
      p.timed_from_ns = now_ns();
      p.storage_before = dataset.storage_stats();
    }
    if (timed && pass >= kWarmupPasses + kMinPasses &&
        seconds_since(p.timed_from_ns) >= seconds) {
      break;
    }
    std::shuffle(request.samples.begin(), request.samples.end(), rng);
    pass_latency_ms.clear();
    const std::int64_t start = now_ns();
    {
      ScopedSpan span(traced, "offline.pass");
      engine.run_streaming(dataset, request, [&](const dc::InferenceResult& r) {
        pass_latency_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
        ++p.checked;
        if (!same_decision(r, oracle.at(r.sample))) ++p.mismatches;
        if (timed) p.timed_early_exits += r.exit_timestep < kTimesteps;
        p.decided[r.sample] = r;
      });
    }
    const double wall = seconds_since(start);
    if (!timed) continue;
    p.pass_rates.push_back(static_cast<double>(request.samples.size()) / wall);
    p.latency_ms.push_back(pass_latency_ms);
    p.timed_samples += request.samples.size();
    p.timed_wall_s += wall;
  }
  p.timed_to_ns = now_ns();
  p.storage_after = dataset.storage_stats();
  net.set_gemm_context(nullptr);
  return p;
}

/// Per-layer metrics from the traced phase's spans.
void add_traced_metrics(RunResult& r, const Phase& traced, const Phase& plain, const Setup& s) {
  LayerWindow w;
  w.all = summarize(Tracer::instance().merge(), traced.timed_from_ns, traced.timed_to_ns);
  w.compute = w.all;  // the engine's thread does all of the work
  w.compute_wall_s = traced.timed_wall_s;
  w.samples = traced.timed_samples;
  w.early_exits = traced.timed_early_exits;
  w.storage_before = traced.storage_before;
  w.storage_after = traced.storage_after;
  add_layer_metrics(r, w);

  // No serving layer on this path.
  for (const char* name : {"serve.submit_us_p50", "serve.submit_us_p99"}) r.add(name, 0.0, "us");
  for (const char* name : {"serve.queue_ms_p50", "serve.queue_ms_p99", "serve.service_ms_p50",
                           "serve.bulk_p50_ms", "serve.gen_late_ms_p99",
                           "serve.gen_late_ms_max"}) {
    r.add(name, 0.0, "ms");
  }
  for (const char* name : {"serve.peak_pool", "serve.deadline_forced_exits",
                           "serve.deadline_missed"}) {
    r.add(name, 0.0, "count");
  }

  std::vector<std::size_t> exits;
  for (const dc::InferenceResult& d : traced.decided) exits.push_back(d.exit_timestep);
  r.add("imc.energy_pj_per_sample", s.energy->mean_energy_pj(exits, true), "pJ");
  r.add("imc.latency_ns_per_sample", mean_latency_ns(*s.energy, exits), "ns");
  r.add("trace.overhead", median(traced.pass_rates) / median(plain.pass_rates), "ratio");
}

}  // namespace

void run_offline(const Options& o, bool int8, RunResult& r) {
  const dc::ExperimentSpec spec = offline_model_spec();

  // The first set-up serves the run. The others only time set-up again, and
  // come after the run so that their heap churn stays out of peak_rss_mb.
  std::vector<double> setup_s;
  std::int64_t start = now_ns();
  const std::unique_ptr<Setup> s = set_up(o, int8);
  setup_s.push_back(seconds_since(start));
  const dtsnn::data::Dataset& test = *s->e.bundle.test;

  // Batch-1 oracle under the same context the batched engine runs on.
  std::vector<dc::InferenceResult> oracle;
  {
    s->e.net.set_gemm_context(s->context.get());
    dc::SequentialEngine batch1(s->e.net, *s->policy, kTimesteps);
    oracle = batch1.run(test, dc::InferenceRequest::first_n(test.size()));
    s->e.net.set_gemm_context(nullptr);
  }

  r.describe("checkpoint", spec.cache_key());
  r.describe("theta", std::to_string(s->cal.theta));
  r.describe("static_t4_accuracy", std::to_string(s->cal.static_t4_accuracy));
  r.describe("gemm_backend", std::string(s->context->backend().name()));
  r.describe("batch_size", std::to_string(kBatch));
  if (int8) r.describe("int8_flip_rate", std::to_string(s->int8_flip_rate));

  std::mt19937_64 rng(o.seed);
  const Phase plain = measure(s->e.net, *s->context, test, *s->policy, oracle, rng,
                              o.seconds, false);
  r.attempted = plain.checked;
  r.failed = plain.mismatches;
  r.describe("timed_passes", std::to_string(plain.pass_rates.size()));

  if (o.trace) {
    const std::unique_ptr<du::GemmBackend> traced_backend =
        make_traced_backend(s->context->backend());
    du::GemmContext traced_context(*traced_backend);
    const TracedDataset traced_data(test);
    const TracedExitPolicy traced_policy(*s->policy);
    std::mt19937_64 traced_rng(o.seed);
    const Phase traced = measure(s->e.net, traced_context, traced_data, traced_policy,
                                 oracle, traced_rng, o.seconds, true);
    r.attempted += traced.checked;
    r.failed += traced.mismatches;
    // Inert tracing: the traced passes decide exactly as the untraced ones.
    for (std::size_t i = 0; i < test.size(); ++i) {
      ++r.attempted;
      if (!same_decision(traced.decided[i], plain.decided[i])) ++r.failed;
    }
    add_traced_metrics(r, traced, plain, *s);
    const std::string path = o.work_dir + "/trace-" + o.workload + ".txt";
    if (!write_trace(path, Tracer::instance().merge())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    r.describe("trace_file", path);
    return;
  }

  const double rss_mb = peak_rss_mb();
  for (int i = 1; i < kSetups; ++i) {
    start = now_ns();
    const std::unique_ptr<Setup> extra = set_up(o, int8);
    setup_s.push_back(seconds_since(start));
  }

  std::size_t correct = 0;
  std::vector<std::size_t> exits;
  double timesteps = 0.0;
  for (const dc::InferenceResult& d : plain.decided) {
    correct += d.predicted_class == static_cast<std::size_t>(test.label(d.sample));
    exits.push_back(d.exit_timestep);
    timesteps += static_cast<double>(d.exit_timestep);
  }
  const double n = static_cast<double>(plain.decided.size());
  const double ok_share =
      1.0 - static_cast<double>(r.failed) / static_cast<double>(std::max<std::size_t>(r.attempted, 1));
  r.add("setup_s", median(setup_s), "s");
  r.add("throughput_img_s", median(plain.pass_rates), "img/s");
  // Percentiles per pass, median over the passes.
  r.add("latency_p50_ms", windowed_quantile(plain.latency_ms, 0.50), "ms");
  r.add("latency_p99_ms", windowed_quantile(plain.latency_ms, 0.99), "ms");
  // No offline sample carries a deadline: a sample meets its objective when
  // it completes with the oracle's decision.
  r.add("slo_attainment", ok_share, "fraction");
  r.add("accuracy", static_cast<double>(correct) / n, "fraction");
  r.add("avg_timesteps", timesteps / n, "timesteps");
  r.add("edp_vs_static_t4", edp_vs_static_t4(*s->energy, exits), "ratio");
  r.add("ops_ok_share", ok_share, "fraction");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.report("ops_failed_share", 1.0 - ok_share, "fraction");
}

}  // namespace perfbench
