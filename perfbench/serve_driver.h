// The benchmark's own serving driver: MiniKv (+ MiniProxy) under an
// open-loop trace, through the full stack, calling each layer's public
// functions itself so every call can be wrapped in a span.
//
// In virtual mode it issues exactly the calls apps::RunServeVirtual issues,
// in the same order, so both produce the same per-request reply hashes,
// latencies and store image (the parity self-test checks this). It differs
// from the harness in how it reports correctness: every reply, proxied
// message and final store entry is checked against the model and counted as
// one operation, and a request that never completes (threaded mode) counts
// as failed instead of aborting the run. Threaded mode paces arrivals at one
// trace cycle per 1/kNominalGHz host ns, so a trace built for R virtual
// req/s is issued at R req/s of host time.
#ifndef COPIER_PERFBENCH_SERVE_DRIVER_H_
#define COPIER_PERFBENCH_SERVE_DRIVER_H_

#include <cstdint>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/tracer.h"
#include "src/core/loadgen.h"

namespace perfbench {

struct ServeDriverOptions {
  std::vector<copier::core::ServeRequest> trace;
  size_t connections = 16;
  bool threaded = false;
  size_t threads = 2;  // service threads (threaded mode)
};

struct ServeRecordOut {
  uint64_t index = 0;
  bool ok = true;
  double latency_us = 0;  // from the intended arrival
  double copy_window_us = 0;  // first submit -> last KFUNC (virtual mode; 0 = none ran)
  uint64_t reply_hash = 0;  // FNV-1a of the reply bytes (KV requests)
};

struct ServeOutcome {
  std::vector<ServeRecordOut> records;
  std::vector<double> latency_us;     // completed requests
  std::vector<double> issue_late_us;  // issue time - intended arrival
  uint64_t attempted = 0;  // requests + final store entries checked
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t store_hash = 0;
  uint64_t payload_bytes = 0;  // SET values, GET hits and proxy bodies moved
  double setup_s = 0;     // kernel, service, apps, sockets and buffers
  double measured_s = 0;  // host time of the request loop and final drain
  double span_us = 0;     // first arrival -> last completion (virtual or host)
  LayerCounters counters;  // diffed over the measured phase
};

ServeOutcome DriveServe(const ServeDriverOptions& options, Tracer& tracer);

}  // namespace perfbench

#endif  // COPIER_PERFBENCH_SERVE_DRIVER_H_
