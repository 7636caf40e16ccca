// Layer counters the benchmark diffs over a measured phase, and the metric
// record every workload reports.
#ifndef COPIER_PERFBENCH_LAYERS_H_
#define COPIER_PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/tracer.h"
#include "src/core/service.h"

namespace perfbench {

inline constexpr double kNominalGHz = 2.9;  // virtual cycles -> seconds

inline double VirtualUs(copier::Cycles cycles) {
  return static_cast<double>(cycles) / (kNominalGHz * 1e3);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Exact percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(const std::vector<double>& samples, double p);

// Public stats structs of the core layer, read together.
struct LayerCounters {
  copier::core::Engine::Stats engine;
  copier::core::CopierService::IpcFuseStats fuse;
  copier::core::CopierService::SchedStats sched;
};

LayerCounters Snapshot(const copier::core::CopierService& service);
// after - before, field by field (gauges and high-water marks keep `after`).
LayerCounters Diff(const LayerCounters& after, const LayerCounters& before);
// Field-by-field sum, for phases measured on separate stacks.
void Accumulate(LayerCounters* into, const LayerCounters& add);

// Everything a workload hands to the per-layer report besides the counters.
struct LayerInputs {
  LayerCounters counters;
  std::map<std::string, Tracer::Totals> spans;
  std::map<std::string, uint64_t> events;  // Tracer::Count totals
  uint64_t ops = 0;            // requests or transfers in the traced phase
  uint64_t payload_bytes = 0;  // value/body/transfer bytes those ops carried
  std::vector<double> copy_window_us;
  std::vector<double> issue_late_us;
  double build_s = 0;          // trace/input generation (part of setup)
};

// The per-layer metric set, identical in names and units on every workload.
Metrics LayerMetrics(const LayerInputs& in);

}  // namespace perfbench

#endif  // COPIER_PERFBENCH_LAYERS_H_
