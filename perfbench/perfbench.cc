// Repo benchmark driver: runs one workload from a seed for a fixed time and
// prints its metrics, one per line, then one JSON result line.
//
//   copier_perfbench --workload kv-small|ipc-bulk|kv-threaded --seed N
//                    --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced run (spans written to --trace-out). The exit code is 0 whenever
// the run completed; failed operations are reported, not hidden.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: copier_perfbench --workload kv-small|ipc-bulk|kv-threaded --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunSpec spec;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      spec.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      spec.seconds = std::atof(value);
    } else if (flag == "--trace") {
      spec.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      spec.trace_out = value;
    } else {
      Usage();
    }
  }
  if (spec.seconds <= 0) {
    Usage();
  }

  perfbench::Report report;
  if (workload == "kv-small") {
    report = perfbench::RunKvSmall(spec);
  } else if (workload == "ipc-bulk") {
    report = perfbench::RunIpcBulk(spec);
  } else if (workload == "kv-threaded") {
    report = perfbench::RunKvThreaded(spec);
  } else {
    Usage();
  }

  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n", workload.c_str(), spec.seed,
              spec.seconds, spec.trace ? 1 : 0);
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!spec.trace) {
    // The end-to-end metrics this workload has no pass for.
    for (const char* name : {"vlat_p50_us", "vlat_p99_us", "vsat_rps", "vknee_rps",
                             "vgoodput_gibps", "sim_ops_per_s", "hlat_p50_us", "hlat_p99_us",
                             "hsat_rps"}) {
      bool found = false;
      for (const perfbench::Metric& m : report.metrics) {
        found |= m.name == name;
      }
      if (!found) {
        std::printf("  %-36s %18s\n", name, "n/a");
      }
    }
  }
  std::printf("  %-36s %18.6f fraction (%" PRIu64 " of %" PRIu64 " operations failed)\n",
              "fail_ratio",
              static_cast<double>(report.failed) / static_cast<double>(report.attempted),
              report.failed, report.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              report.failed == 0 ? "true" : "false", report.attempted, report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
