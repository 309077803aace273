// serve_sharded: open-loop serving of a two-tenant trace from shard storage.
//
// A serve::ServingFleet (EDF scheduler, tenants "interactive" and "bulk",
// 2 workers, live pools of 8) serves vgg_micro, reading frames from a
// data::ShardedDataset export of the test split (16 shards of 64 samples)
// through a 4-slot cache, so shard misses stay on the path.
//
// Latency phase: one generator thread replays a seeded trace at a fixed
// offered rate, about a quarter of this workload's capacity on the 4-core
// reference host: 60% interactive Poisson arrivals with a 10 ms deadline and
// 40% bulk bursts of 6 without one. Latency runs from each arrival's due
// time to its on_result callback, so a stalled generator is charged to the
// requests it delayed; the generator's own lateness is reported beside it.
//
// Capacity phase: bursts of arrivals (same class mix, no deadlines) are all
// due at once; capacity is a burst's size over the time until its last
// result, and the median burst is reported.
//
// Every served decision is checked against the batch-1 SequentialEngine
// oracle; a deadline-forced exit must equal the oracle truncated at the
// timestep where it exited.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "data/shard.h"
#include "data/sharded_dataset.h"
#include "perfbench.h"
#include "serve/fleet.h"
#include "trace.h"
#include "util/arrival_trace.h"
#include "util/gemm.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace dc = dtsnn::core;
namespace dd = dtsnn::data;
namespace du = dtsnn::util;
namespace ds = dtsnn::serve;

namespace {

constexpr std::size_t kTimesteps = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxPool = 8;
constexpr std::size_t kSamplesPerShard = 64;
constexpr std::size_t kCacheSlots = 4;  // of 16 shards: most admissions miss
constexpr std::uint64_t kDeadlineUs = 10000;
constexpr double kInteractiveShare = 0.6;
constexpr std::size_t kBulkBurst = 6;
/// Offered load of the latency phase, fixed so every run and every commit
/// sees the same traffic: 20-30% of the capacity phase's rate on the 4-core
/// reference host (4.5k-7k req/s as neighbours come and go). At 2000 req/s
/// queueing made p99 swing twice as far as capacity when the host slowed.
constexpr double kOfferedRate = 1400.0;  // arrivals per second
/// Latency percentiles are taken per window of consecutive interactive
/// arrivals, then the median over windows; 1000 is the fewest that leave ten
/// samples beyond p99.
constexpr std::size_t kLatencyWindow = 1000;
constexpr double kWarmupSeconds = 0.5;
constexpr double kLatencyShare = 0.85;  ///< of --seconds; the rest is capacity
constexpr std::size_t kCapacityBurst = 2048;
constexpr int kMinCapacityBursts = 3;
constexpr int kSetups = 3;
constexpr std::size_t kInteractive = 0;  ///< trace class index

struct Setup {
  explicit Setup(dc::Experiment experiment) : e(std::move(experiment)) {}
  // Declaration order is destruction order reversed: the fleet drains first.
  dc::Experiment e;
  Calibration cal;
  std::unique_ptr<dc::EntropyExitPolicy> policy;
  std::unique_ptr<dtsnn::imc::EnergyModel> energy;
  std::unique_ptr<dd::ShardedDataset> shards;
  std::unique_ptr<ds::ServingFleet> fleet;
};

std::unique_ptr<Setup> set_up(const Options& o) {
  auto s = std::make_unique<Setup>(load_checkpoint(serving_model_spec(), o.work_dir));
  s->cal = calibrate_operating_point(s->e);
  s->policy = std::make_unique<dc::EntropyExitPolicy>(s->cal.theta);
  s->energy = std::make_unique<dtsnn::imc::EnergyModel>(measured_energy_model(s->e));
  const std::filesystem::path dir = std::filesystem::path(o.work_dir) / "shards";
  std::filesystem::create_directories(dir);
  dd::export_shards(*s->e.bundle.test, dir, kSamplesPerShard);
  dd::ShardCacheConfig cache;
  cache.cache_slots = kCacheSlots;
  s->shards = std::make_unique<dd::ShardedDataset>(dir, cache);
  return s;
}

/// A fleet over `dataset` and `policy`; every worker network runs through
/// `context` (nullptr = the process default context).
std::unique_ptr<ds::ServingFleet> make_fleet(dc::Experiment& e, const dd::Dataset& dataset,
                                             const dc::ExitPolicy& policy,
                                             du::GemmContext* context,
                                             std::size_t max_queue,
                                             std::size_t latency_window) {
  e.net.set_gemm_context(context);
  ds::FleetModel model;
  model.name = "vgg_micro";
  model.network = &e.net;
  model.dataset = &dataset;
  model.default_policy = &policy;
  model.max_timesteps = kTimesteps;
  model.workers = kWorkers;
  model.max_pool = kMaxPool;
  model.make_replica = [&e, context] {
    dtsnn::snn::SpikingNetwork net = dc::replica_factory(e)();
    net.set_gemm_context(context);
    return net;
  };
  ds::FleetConfig config;
  config.scheduler = "edf";
  config.max_queue = max_queue;
  config.latency_window = latency_window;
  config.tenants.push_back({.name = "interactive", .weight = 4.0});
  config.tenants.push_back({.name = "bulk", .weight = 1.0});
  std::vector<ds::FleetModel> models;
  models.push_back(std::move(model));
  return std::make_unique<ds::ServingFleet>(std::move(models), config);
}

/// One arrival as replayed: what was asked, when, and what came back.
struct Served {
  du::ClassedArrival arrival;
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t done_ns = 0;
  bool rejected = false;
  bool failed = false;
  dc::InferenceResult result;

  [[nodiscard]] bool ok() const { return !rejected && !failed; }
  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
};

/// Replay `trace` from now (open loop: each arrival is submitted at its
/// offset, never waiting on earlier results) and wait for every result.
/// `id_base` keeps the span request ids of different replays distinct.
std::vector<Served> replay(ds::ServingFleet& fleet, const std::vector<du::ClassedArrival>& trace,
                           bool traced, std::uint64_t id_base) {
  std::vector<Served> served(trace.size());
  std::vector<std::future<std::vector<dc::InferenceResult>>> futures(trace.size());
  const std::int64_t t0 = now_ns() + 1'000'000;  // first arrival due in 1 ms
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Served& s = served[i];
    s.arrival = trace[i];
    s.due_ns = t0 + static_cast<std::int64_t>(trace[i].offset_us) * 1000;
    const auto due = ds::ServeClock::time_point(std::chrono::nanoseconds(s.due_ns));
    // Spin rather than sleep: a sleeping generator wakes late by up to
    // several ms on a shared host, and that lateness is charged to the
    // requests it delays.
    while (ds::ServeClock::now() < due) {
    }

    ds::FleetRequest req;
    req.request.samples.push_back(trace[i].sample);
    req.tenant = static_cast<ds::TenantId>(trace[i].tenant_class + 1);
    if (trace[i].deadline_us > 0) {
      req.deadline = due + std::chrono::microseconds(trace[i].deadline_us);
    }
    const std::uint64_t id = id_base + i;
    req.on_result = [&s, traced, id](const dc::InferenceResult&) {
      ScopedSpan span(traced, "serve.on_result", id);
      s.done_ns = now_ns();
    };
    s.submit_ns = now_ns();
    {
      ScopedSpan span(traced, "serve.submit", id);
      try {
        futures[i] = fleet.submit(std::move(req)).results;
      } catch (const std::exception&) {
        s.rejected = true;
      }
    }
    s.submitted_ns = now_ns();
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (served[i].rejected) continue;
    try {
      served[i].result = futures[i].get().at(0);
    } catch (const std::exception&) {
      served[i].failed = true;
    }
  }
  return served;
}

std::vector<du::ClassedArrival> open_loop_trace(std::uint64_t seed, double seconds,
                                                std::size_t samples) {
  const auto total = std::max<std::size_t>(
      static_cast<std::size_t>(kOfferedRate * seconds), 2 * kBulkBurst);
  const auto interactive = static_cast<std::size_t>(kInteractiveShare * static_cast<double>(total));
  const std::size_t bulk = total - interactive;
  du::MultiClassTraceSpec spec;
  spec.classes.push_back({.name = "interactive",
                          .arrivals = interactive,
                          .mean_gap_us = 1e6 * seconds / static_cast<double>(interactive),
                          .burst = 1,
                          .deadline_us = kDeadlineUs});
  spec.classes.push_back({.name = "bulk",
                          .arrivals = bulk,
                          .mean_gap_us = 1e6 * seconds * kBulkBurst / static_cast<double>(bulk),
                          .burst = kBulkBurst,
                          .deadline_us = 0});
  spec.sample_limit = samples;
  spec.seed = seed;
  return du::make_arrival_trace(spec);
}

/// A capacity burst: the same class mix, every arrival due at once, no
/// deadlines (so no exit is forced and the work is the natural-exit work).
std::vector<du::ClassedArrival> burst_trace(std::mt19937_64& rng, std::size_t samples) {
  std::vector<du::ClassedArrival> trace(kCapacityBurst);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (auto& a : trace) {
    a.sample = static_cast<std::size_t>(rng() % samples);
    a.tenant_class = coin(rng) < kInteractiveShare ? 0 : 1;
  }
  return trace;
}

struct Phases {
  std::vector<Served> warmup;
  std::vector<Served> latency;
  std::vector<std::vector<Served>> bursts;
  std::vector<double> capacity_rps;
  ds::FleetStats before_latency;
  ds::FleetStats after_latency;
  dd::DatasetStorageStats storage_before;
  dd::DatasetStorageStats storage_after;
  std::int64_t capacity_from_ns = 0;
  std::int64_t capacity_to_ns = 0;
  double capacity_wall_s = 0.0;
};

Phases run_phases(ds::ServingFleet& fleet, const dd::Dataset& dataset, const Options& o,
                  bool traced) {
  Phases p;
  const double latency_s = kLatencyShare * o.seconds;
  p.warmup = replay(fleet, open_loop_trace(o.seed ^ 0x5eedull, kWarmupSeconds, dataset.size()),
                    traced, 1'000'000'000);
  p.before_latency = fleet.stats();
  p.latency = replay(fleet, open_loop_trace(o.seed, latency_s, dataset.size()), traced, 1);
  p.after_latency = fleet.stats();

  std::mt19937_64 rng(o.seed);
  p.storage_before = dataset.storage_stats();
  p.capacity_from_ns = now_ns();
  for (int b = 0;; ++b) {
    if (b >= kMinCapacityBursts && seconds_since(p.capacity_from_ns) >= o.seconds - latency_s) {
      break;
    }
    std::vector<Served> burst =
        replay(fleet, burst_trace(rng, dataset.size()), traced,
               2'000'000'000 + static_cast<std::uint64_t>(b) * kCapacityBurst);
    std::int64_t last = burst.front().due_ns;
    for (const Served& s : burst) last = std::max(last, s.done_ns);
    const double wall = static_cast<double>(last - burst.front().due_ns) * 1e-9;
    p.capacity_rps.push_back(static_cast<double>(burst.size()) / wall);
    p.capacity_wall_s += wall;
    p.bursts.push_back(std::move(burst));
  }
  p.capacity_to_ns = now_ns();
  p.storage_after = dataset.storage_stats();
  return p;
}

/// Checks every served decision against the batch-1 oracle; deadline-forced
/// exits against the oracle truncated at their exit timestep.
class OracleCheck {
 public:
  OracleCheck(dc::Experiment& e, const dc::ExitPolicy& policy) : e_(e), policy_(policy) {
    dc::SequentialEngine batch1(e.net, policy, kTimesteps);
    for (dc::InferenceResult& r :
         batch1.run(*e.bundle.test, dc::InferenceRequest::first_n(e.bundle.test->size()))) {
      full_.push_back(std::move(r));
    }
  }

  /// Counts one attempted operation per arrival; returns the failures.
  std::size_t check(const std::vector<Served>& served) {
    std::size_t failures = 0;
    for (const Served& s : served) {
      if (!s.ok()) {
        ++failures;
        continue;
      }
      const dc::InferenceResult& want = full_.at(s.result.sample);
      if (s.result.sample != s.arrival.sample) {
        ++failures;
      } else if (s.result.exit_timestep == want.exit_timestep) {
        failures += !same_decision(s.result, want);
      } else if (s.arrival.deadline_us == 0 || s.result.exit_timestep > want.exit_timestep) {
        ++failures;  // only a deadline may shorten a run
      } else {
        failures += !same_decision(s.result, truncated(s.result.sample, s.result.exit_timestep));
      }
    }
    return failures;
  }

 private:
  const dc::InferenceResult& truncated(std::size_t sample, std::size_t budget) {
    auto [it, fresh] = cut_.try_emplace({sample, budget});
    if (fresh) {
      dc::SequentialEngine cut(e_.net, policy_, budget);
      dc::InferenceRequest one;
      one.samples.push_back(sample);
      it->second = cut.run(*e_.bundle.test, one).at(0);
    }
    return it->second;
  }

  dc::Experiment& e_;
  const dc::ExitPolicy& policy_;
  std::vector<dc::InferenceResult> full_;
  std::map<std::pair<std::size_t, std::size_t>, dc::InferenceResult> cut_;
};

void check_all(OracleCheck& oracle, const Phases& p, RunResult& r) {
  r.attempted += p.warmup.size() + p.latency.size();
  r.failed += oracle.check(p.warmup) + oracle.check(p.latency);
  for (const auto& burst : p.bursts) {
    r.attempted += burst.size();
    r.failed += oracle.check(burst);
  }
}

struct ClassLatency {
  std::vector<double> interactive_ms;
  std::vector<std::vector<double>> interactive_windows;  ///< kLatencyWindow arrivals each
  std::vector<double> bulk_ms;
  std::size_t interactive = 0;
  std::size_t interactive_met = 0;
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  std::vector<std::size_t> exits;
};

ClassLatency latency_view(const std::vector<Served>& served) {
  ClassLatency v;
  for (const Served& s : served) {
    v.late_ms.push_back(static_cast<double>(s.submit_ns - s.due_ns) * 1e-6);
    v.submit_us.push_back(static_cast<double>(s.submitted_ns - s.submit_ns) * 1e-3);
    const bool interactive = s.arrival.tenant_class == kInteractive;
    v.interactive += interactive;
    if (!s.ok()) continue;  // a failed or rejected arrival misses its SLO
    v.exits.push_back(s.result.exit_timestep);
    (interactive ? v.interactive_ms : v.bulk_ms).push_back(s.latency_ms());
    if (interactive) {
      if (v.interactive_windows.empty() || v.interactive_windows.back().size() == kLatencyWindow) {
        v.interactive_windows.emplace_back();
      }
      v.interactive_windows.back().push_back(s.latency_ms());
    }
    v.interactive_met += interactive && s.latency_ms() <= kDeadlineUs * 1e-3;
  }
  return v;
}

void add_traced_metrics(RunResult& r, const Phases& traced, const Phases& plain,
                        const dtsnn::imc::EnergyModel& energy) {
  // Layer times are taken over the capacity phase, when the workers never
  // idle. Worker threads are the ones that ran GEMMs.
  const std::vector<Span> spans = Tracer::instance().merge();
  std::vector<bool> worker(1, false);
  for (const Span& s : spans) {
    if (std::string_view(s.name).starts_with("util.gemm")) {
      if (worker.size() <= s.thread) worker.resize(s.thread + 1, false);
      worker[s.thread] = true;
    }
  }
  std::vector<Span> worker_spans;
  for (const Span& s : spans) {
    if (s.thread < worker.size() && worker[s.thread]) worker_spans.push_back(s);
  }
  LayerWindow w;
  w.all = summarize(spans, traced.capacity_from_ns, traced.capacity_to_ns);
  w.compute = summarize(worker_spans, traced.capacity_from_ns, traced.capacity_to_ns);
  w.compute_wall_s = static_cast<double>(kWorkers) * traced.capacity_wall_s;
  for (const auto& burst : traced.bursts) {
    for (const Served& s : burst) {
      ++w.samples;
      w.early_exits += s.ok() && s.result.exit_timestep < kTimesteps;
    }
  }
  w.storage_before = traced.storage_before;
  w.storage_after = traced.storage_after;
  add_layer_metrics(r, w);

  const ClassLatency lat = latency_view(traced.latency);
  const ds::FleetStats& f0 = traced.before_latency;
  const ds::FleetStats& f1 = traced.after_latency;
  r.add("serve.submit_us_p50", quantile(lat.submit_us, 0.50), "us");
  r.add("serve.submit_us_p99", quantile(lat.submit_us, 0.99), "us");
  r.add("serve.queue_ms_p50", f1.queue_us.p50 * 1e-3, "ms");
  r.add("serve.queue_ms_p99", f1.queue_us.p99 * 1e-3, "ms");
  r.add("serve.service_ms_p50", (f1.latency_us.p50 - f1.queue_us.p50) * 1e-3, "ms");
  r.add("serve.bulk_p50_ms", quantile(lat.bulk_ms, 0.50), "ms");
  r.add("serve.peak_pool", static_cast<double>(f1.peak_pool), "count");
  r.add("serve.deadline_forced_exits",
        static_cast<double>(f1.deadline_forced_exits - f0.deadline_forced_exits), "count");
  r.add("serve.deadline_missed",
        static_cast<double>(f1.deadline_missed - f0.deadline_missed), "count");
  r.add("serve.gen_late_ms_p99", quantile(lat.late_ms, 0.99), "ms");
  r.add("serve.gen_late_ms_max", quantile(lat.late_ms, 1.0), "ms");

  r.add("imc.energy_pj_per_sample", energy.mean_energy_pj(lat.exits, true), "pJ");
  r.add("imc.latency_ns_per_sample", mean_latency_ns(energy, lat.exits), "ns");
  r.add("trace.overhead", median(traced.capacity_rps) / median(plain.capacity_rps), "ratio");
}

}  // namespace

void run_serving(const Options& o, RunResult& r) {
  const dc::ExperimentSpec spec = serving_model_spec();

  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  const std::size_t threads = 1 + kWorkers * static_cast<std::size_t>(omp_threads);
  const auto nproc = static_cast<std::size_t>(std::max(1u, std::thread::hardware_concurrency()));
  r.describe("thread_budget", std::to_string(threads) + " of " + std::to_string(nproc) +
                                  (threads <= nproc ? " (ok)" : " (OVER nproc)"));
  if (threads > nproc) {
    std::fprintf(stderr, "perfbench: generator + workers x OpenMP threads = %zu > nproc %zu\n",
                 threads, nproc);
  }

  const std::size_t max_queue =
      static_cast<std::size_t>(kOfferedRate * o.seconds) + kCapacityBurst + 64;
  // The fleet's latency digests then cover exactly the latency phase.
  const auto window = std::max<std::size_t>(
      static_cast<std::size_t>(kOfferedRate * kLatencyShare * o.seconds), 1);
  // The first set-up serves the run; the oracle is computed from it, untimed,
  // before the fleet takes the network. The other set-ups only time set-up
  // again, after the run, so their heap churn stays out of peak_rss_mb.
  std::vector<double> setup_s;
  std::int64_t start = now_ns();
  const std::unique_ptr<Setup> s = set_up(o);
  const double before_fleet = seconds_since(start);
  OracleCheck oracle(s->e, *s->policy);
  start = now_ns();
  s->fleet = make_fleet(s->e, *s->shards, *s->policy, nullptr, max_queue, window);
  setup_s.push_back(before_fleet + seconds_since(start));

  r.describe("checkpoint", spec.cache_key());
  r.describe("theta", std::to_string(s->cal.theta));
  r.describe("static_t4_accuracy", std::to_string(s->cal.static_t4_accuracy));
  r.describe("gemm_backend", std::string(du::default_gemm_backend().name()));
  r.describe("offered_rate_rps", std::to_string(kOfferedRate));
  r.describe("shards", std::to_string(s->shards->num_shards()) + " x " +
                           std::to_string(kSamplesPerShard) + " samples, " +
                           std::to_string(s->shards->cache_slots()) + " cache slots");

  const Phases plain = run_phases(*s->fleet, *s->shards, o, false);
  s->fleet.reset();  // drains; the base network is free again

  Phases traced;
  if (o.trace) {
    const std::unique_ptr<du::GemmBackend> backend =
        make_traced_backend(du::default_gemm_backend());
    du::GemmContext context(*backend);
    const TracedDataset data(*s->shards);
    const TracedExitPolicy policy(*s->policy);
    auto fleet = make_fleet(s->e, data, policy, &context, max_queue, window);
    traced = run_phases(*fleet, data, o, true);
  }
  s->e.net.set_gemm_context(nullptr);

  check_all(oracle, plain, r);
  if (o.trace) {
    check_all(oracle, traced, r);
    // Inert tracing: capacity bursts carry no deadline, so the traced and
    // untraced runs must decide each of them identically.
    for (std::size_t b = 0; b < std::min(plain.bursts.size(), traced.bursts.size()); ++b) {
      for (std::size_t i = 0; i < plain.bursts[b].size(); ++i) {
        ++r.attempted;
        if (!same_decision(plain.bursts[b][i].result, traced.bursts[b][i].result)) ++r.failed;
      }
    }
    add_traced_metrics(r, traced, plain, *s->energy);
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
    const std::unique_ptr<Setup> extra = set_up(o);
    extra->fleet = make_fleet(extra->e, *extra->shards, *extra->policy, nullptr, max_queue, window);
    setup_s.push_back(seconds_since(start));
  }

  const ClassLatency lat = latency_view(plain.latency);
  // Decision quality is taken over every served decision of both phases.
  std::size_t correct = 0;
  double timesteps = 0.0;
  std::vector<std::size_t> exits;
  auto tally = [&](const std::vector<Served>& served) {
    for (const Served& sv : served) {
      if (!sv.ok()) continue;
      correct += sv.result.predicted_class ==
                 static_cast<std::size_t>(s->e.bundle.test->label(sv.result.sample));
      timesteps += static_cast<double>(sv.result.exit_timestep);
      exits.push_back(sv.result.exit_timestep);
    }
  };
  tally(plain.latency);
  for (const auto& burst : plain.bursts) tally(burst);
  const double n = static_cast<double>(exits.size());
  const double ok_share = 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(std::max<std::size_t>(r.attempted, 1));
  r.describe("latency_arrivals", std::to_string(plain.latency.size()));
  r.describe("interactive_samples", std::to_string(lat.interactive_ms.size()));
  r.describe("capacity_bursts", std::to_string(plain.capacity_rps.size()));
  {
    std::string bursts;
    for (double c : plain.capacity_rps) bursts += std::to_string(static_cast<int>(c)) + " ";
    r.describe("capacity_rps_bursts", bursts);
    std::string windows;
    for (const std::vector<double>& w : lat.interactive_windows) {
      char ms[32];
      std::snprintf(ms, sizeof ms, "%.3f ", quantile(w, 0.99));
      windows += ms;
    }
    r.describe("latency_p99_ms_windows", windows);
  }

  r.add("setup_s", median(setup_s), "s");
  r.add("throughput_img_s", median(plain.capacity_rps), "img/s");
  // Percentiles per window of arrivals, median over the windows.
  r.add("latency_p50_ms", windowed_quantile(lat.interactive_windows, 0.50), "ms");
  r.add("latency_p99_ms", windowed_quantile(lat.interactive_windows, 0.99), "ms");
  r.add("slo_attainment",
        static_cast<double>(lat.interactive_met) / static_cast<double>(std::max<std::size_t>(lat.interactive, 1)),
        "fraction");
  r.add("accuracy", static_cast<double>(correct) / n, "fraction");
  r.add("avg_timesteps", timesteps / n, "timesteps");
  r.add("edp_vs_static_t4", edp_vs_static_t4(*s->energy, exits), "ratio");
  r.add("ops_ok_share", ok_share, "fraction");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.report("capacity_rps", median(plain.capacity_rps), "req/s");
  r.report("interactive_p50_ms", quantile(lat.interactive_ms, 0.50), "ms");
  r.report("interactive_p90_ms", quantile(lat.interactive_ms, 0.90), "ms");
  r.report("interactive_p99_ms", quantile(lat.interactive_ms, 0.99), "ms");
  r.report("bulk_p50_ms", quantile(lat.bulk_ms, 0.50), "ms");
  r.report("gen_late_ms_p99", quantile(lat.late_ms, 0.99), "ms");
  r.report("gen_late_ms_max", quantile(lat.late_ms, 1.0), "ms");
  r.report("ops_failed_share", 1.0 - ok_share, "fraction");
}

}  // namespace perfbench
