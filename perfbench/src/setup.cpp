// Checkpoint preparation and the per-run set-up steps shared by workloads.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "core/calibration.h"
#include "imc/mapping.h"
#include "imc/network_spec.h"
#include "perfbench.h"
#include "trace.h"

namespace perfbench {

namespace dc = dtsnn::core;

namespace {

dc::ExperimentSpec sync10_spec(const char* model, std::size_t epochs) {
  dc::ExperimentSpec spec;
  spec.model = model;
  spec.dataset = "sync10";
  spec.timesteps = 4;
  spec.epochs = epochs;
  spec.loss = dc::LossKind::kPerTimestep;
  return spec;
}

std::string checkpoint_dir(const std::string& work_dir) { return work_dir + "/ckpt"; }

}  // namespace

// vgg_mini at 4 epochs trains in under three minutes on a 4-core host and
// reaches ~86% static T=4 accuracy on the full 1024-sample test split.
dc::ExperimentSpec offline_model_spec() { return sync10_spec("vgg_mini", 4); }
dc::ExperimentSpec serving_model_spec() { return sync10_spec("vgg_micro", 6); }

double prepare_checkpoint(const dc::ExperimentSpec& spec, const std::string& work_dir) {
  const std::string marker = checkpoint_dir(work_dir) + "/" + spec.cache_key() + ".prep_s";
  double seconds = 0.0;
  if (std::ifstream in(marker); in >> seconds) return seconds;
  const std::int64_t start = now_ns();
  (void)dc::train_or_load(spec, checkpoint_dir(work_dir));
  seconds = seconds_since(start);
  std::ofstream(marker) << seconds << "\n";
  return seconds;
}

dc::Experiment load_checkpoint(const dc::ExperimentSpec& spec, const std::string& work_dir) {
  return dc::train_or_load(spec, checkpoint_dir(work_dir));
}

Calibration calibrate_operating_point(dc::Experiment& e) {
  // Batches of 64 keep the per-thread replicas' activations small (and the
  // peak RSS steady); the recording is bitwise identical at any batch size.
  const dc::TimestepOutputs outputs = dc::collect_outputs_parallel(
      e.net, dc::replica_factory(e), *e.bundle.test, 4, /*batch_size=*/64);
  Calibration c;
  c.static_t4_accuracy = dc::static_accuracy(outputs, 4);
  const dc::CalibrationResult r =
      dc::calibrate_theta(outputs, c.static_t4_accuracy, /*tolerance=*/0.01);
  c.theta = r.theta;
  c.calibrated_accuracy = r.result.accuracy;
  return c;
}

dtsnn::imc::EnergyModel measured_energy_model(dc::Experiment& e) {
  const auto& test = *e.bundle.test;
  std::vector<std::size_t> probe(std::min<std::size_t>(64, test.size()));
  std::iota(probe.begin(), probe.end(), std::size_t{0});
  const auto batch = dtsnn::data::materialize_batch(test, probe, 4);
  e.net.forward(batch.x, 4, /*train=*/false);
  const std::vector<double> rates = e.net.lif_spike_rates();
  const double activity =
      rates.empty() ? 0.15
                    : std::accumulate(rates.begin(), rates.end(), 0.0) /
                          static_cast<double>(rates.size());
  auto spec = dtsnn::imc::spec_from_network(e.net, e.spec.model);
  dtsnn::imc::set_uniform_activity(spec, activity, /*first_layer_activity=*/1.0);
  return dtsnn::imc::EnergyModel(dtsnn::imc::map_network(spec, dtsnn::imc::ImcConfig{}));
}

double edp_vs_static_t4(const dtsnn::imc::EnergyModel& model,
                        const std::vector<std::size_t>& exits) {
  return model.mean_edp(exits, /*dynamic=*/true) / model.edp(4.0, /*dynamic=*/false);
}

double mean_latency_ns(const dtsnn::imc::EnergyModel& model,
                       const std::vector<std::size_t>& exits) {
  double sum = 0.0;
  for (const std::size_t t : exits) sum += model.latency_ns(static_cast<double>(t));
  return exits.empty() ? 0.0 : sum / static_cast<double>(exits.size());
}

}  // namespace perfbench
