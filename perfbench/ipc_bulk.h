// Bulk-transfer driver: posted-window socket sends at queue depth 1 and 4,
// Binder parcels, and the proxy-forward pipeline (client -> proxy socket ->
// KV Binder window), all on one long-lived stack, in virtual time. Closed
// loop: each transfer starts when the previous one has landed.
//
// Each transfer is checked on its own: the receiver image must hash to the
// sender's pattern, every socket message must fire one reclaim KFUNC per
// flow-control chunk, and every posted window must complete with all of its
// bytes.
#ifndef COPIER_PERFBENCH_IPC_BULK_H_
#define COPIER_PERFBENCH_IPC_BULK_H_

#include <cstdint>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/tracer.h"

namespace perfbench {

enum class IpcKind { kSocketQd1, kSocketQd4, kBinder, kForward };

struct IpcTransfer {
  uint64_t index = 0;
  IpcKind kind = IpcKind::kSocketQd1;
  size_t bytes = 0;         // per message (qd4 sends four of them)
  bool congruent = true;    // false: receiver window off page congruence
};

// `count` transfers, a quarter of each kind, sizes log-uniform in
// [min_bytes, max_bytes] (Binder and forward transfers capped at the 1 MiB
// transaction buffer), a quarter of the windows off page congruence.
std::vector<IpcTransfer> BuildIpcTrace(uint64_t seed, size_t count, size_t min_bytes,
                                       size_t max_bytes);

struct IpcOutcome {
  std::vector<double> latency_us;  // per transfer, from the previous one's landing
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t payload_bytes = 0;
  double setup_s = 0;
  double pass_s = 0;  // host time of the whole transfer loop
  // Host time of the transfer loop, less the driver's own pattern writes and
  // image checks: the time the stack spent moving the transfers.
  double measured_s = 0;
  copier::Cycles span_cycles = 0;  // first start -> last landing
  LayerCounters counters;
};

IpcOutcome DriveIpc(const std::vector<IpcTransfer>& transfers, Tracer& tracer);
// Host time to build the stack for `transfers` (kernel, service, apps,
// buffers) without running them.
double TimeIpcSetup(const std::vector<IpcTransfer>& transfers);

}  // namespace perfbench

#endif  // COPIER_PERFBENCH_IPC_BULK_H_
