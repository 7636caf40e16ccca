// The benchmark's workloads. Each runs from a seed for a fixed time and
// returns its end-to-end metrics (untraced run) or per-layer metrics (traced
// run), plus the operations it checked and how many of them failed.
#ifndef COPIER_PERFBENCH_WORKLOADS_H_
#define COPIER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/layers.h"

namespace perfbench {

struct RunSpec {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // traced run: span file path ("" = don't write)
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

Report RunKvSmall(const RunSpec& spec);
Report RunIpcBulk(const RunSpec& spec);
Report RunKvThreaded(const RunSpec& spec);

}  // namespace perfbench

#endif  // COPIER_PERFBENCH_WORKLOADS_H_
