// Shared declarations of the repository benchmark (see ../README.md).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/inference.h"
#include "imc/energy_model.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< checkpoints, shard exports and trace files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main for printing.
struct RunResult {
  std::size_t attempted = 0;  ///< decisions checked + submissions made
  std::size_t failed = 0;     ///< oracle mismatches, failed futures, rejections
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer (traced)
  /// Printed beside the metrics but left out of the JSON line: the
  /// workload-specific names of the shared end-to-end views (capacity_rps,
  /// interactive_p99_ms, ...) and figures with no bound.
  std::vector<Metric> report_only;
  std::vector<std::pair<std::string, std::string>> descriptor;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void report(std::string name, double value, std::string unit) {
    report_only.push_back({std::move(name), value, std::move(unit)});
  }
  void describe(std::string key, std::string value) {
    descriptor.emplace_back(std::move(key), std::move(value));
  }
};

// ------------------------------------------------------------------ models

/// The two checkpoints the workloads use (sync10, T=4, Eq. 10 loss).
dtsnn::core::ExperimentSpec offline_model_spec();  ///< vgg_mini
dtsnn::core::ExperimentSpec serving_model_spec();  ///< vgg_micro

/// Train each spec once into the work directory's checkpoint cache. Runs
/// before anything is timed; returns the preparation seconds recorded when
/// the checkpoint was first trained (0 when it was trained by an older
/// build of the benchmark that did not record it).
double prepare_checkpoint(const dtsnn::core::ExperimentSpec& spec,
                          const std::string& work_dir);

/// Load a prepared checkpoint (dataset rebuilt, weights loaded).
dtsnn::core::Experiment load_checkpoint(const dtsnn::core::ExperimentSpec& spec,
                                        const std::string& work_dir);

struct Calibration {
  double theta = 0.0;
  double static_t4_accuracy = 0.0;
  double calibrated_accuracy = 0.0;
};

/// The paper's operating point: the largest entropy threshold whose
/// accuracy on the test split stays within 1pp of static T=4.
Calibration calibrate_operating_point(dtsnn::core::Experiment& e);

/// The IMC chip model of `e`'s network, driven by its measured mean hidden
/// spike activity (first layer analog input).
dtsnn::imc::EnergyModel measured_energy_model(dtsnn::core::Experiment& e);

/// DT-SNN EDP over `exits` (sigma-E module included) divided by the EDP of
/// the static SNN at T=4.
double edp_vs_static_t4(const dtsnn::imc::EnergyModel& model,
                        const std::vector<std::size_t>& exits);
double mean_latency_ns(const dtsnn::imc::EnergyModel& model,
                       const std::vector<std::size_t>& exits);

// ------------------------------------------------------------------- stats

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Median over windows of each window's q-quantile. Only windows with at
/// least ten samples beyond the quantile count; with none, the quantile of
/// all samples pooled. A single stall then moves one window, not the figure.
double windowed_quantile(const std::vector<std::vector<double>>& windows, double q);
double peak_rss_mb();
double seconds_since(std::int64_t start_ns);

/// Bitwise decision equality (prediction, exit timestep, exit entropy).
bool same_decision(const dtsnn::core::InferenceResult& a,
                   const dtsnn::core::InferenceResult& b);

/// Host and configuration facts every result carries.
void describe_host(RunResult& r, const Options& o);

// ------------------------------------------------------- per-layer metrics

/// What a traced measurement hands to add_layer_metrics, all over one
/// window of the run.
struct LayerWindow {
  /// Spans of the threads that run the network (engine or fleet workers).
  std::map<std::string, SpanTotals> compute;
  /// Spans of every thread (the shard prefetcher's included).
  std::map<std::string, SpanTotals> all;
  double compute_wall_s = 0.0;  ///< summed wall time of those threads
  std::size_t samples = 0;      ///< decisions made in the window
  std::size_t early_exits = 0;  ///< of those, exits before the budget
  dtsnn::data::DatasetStorageStats storage_before;
  dtsnn::data::DatasetStorageStats storage_after;
};

/// The util.*, snn.*, data.* and core.* metrics of one window.
void add_layer_metrics(RunResult& r, LayerWindow& w);

// --------------------------------------------------------------- workloads

/// Run one workload, appending its descriptor entries, metrics and counts.
void run_offline(const Options& o, bool int8, RunResult& r);
void run_serving(const Options& o, RunResult& r);

}  // namespace perfbench
