#include "perfbench/layers.h"

#include "src/common/cycle_clock.h"
#include "src/common/histogram.h"

namespace perfbench {

namespace core = copier::core;

// Engine::Stats counters (monotonic; diffed and summed field by field).
#define PERFBENCH_ENGINE_COUNTERS(X)                                                   \
  X(tasks_ingested) X(tasks_completed) X(tasks_dropped) X(tasks_aborted)               \
  X(barriers_processed) X(sync_promotions) X(bytes_copied) X(bytes_absorbed)           \
  X(avx_bytes) X(dma_bytes_submitted) X(dma_bytes_completed) X(dma_batches_submitted)  \
  X(dma_batches_completed) X(dma_ring_full_fallbacks) X(dma_stall_cycles)              \
  X(dma_drain_wait_cycles) X(dma_rounds_parked) X(kfuncs_run) X(ufuncs_queued)         \
  X(lazy_absorbed_bytes) X(remap_tasks) X(remapped_bytes) X(remap_cow_breaks)          \
  X(fused_ipc_tasks) X(fused_ipc_bytes) X(fuse_fallbacks) X(dep_probes)                \
  X(dep_tasks_scanned) X(submit_entries) X(submit_batches) X(notify_calls)             \
  X(serve_cycles) X(cross_dep_probes) X(cross_dep_settles) X(cross_dep_defers)         \
  X(cross_dep_wait_cycles) X(admission_admitted) X(admission_shed)                     \
  X(admission_deferred) X(admission_throttled) X(admission_throttle_cycles)            \
  X(overload_ring_backoffs)

#define PERFBENCH_FUSE_COUNTERS(X)                                                    \
  X(fused) X(fallback_not_posted) X(fallback_window_full) X(fallback_pool_exhausted)  \
  X(fallback_ring) X(forward_fused) X(fallback_forward) X(ring_windows_posted)        \
  X(ring_rollovers)

#define PERFBENCH_SCHED_COUNTERS(X)                                                 \
  X(picks) X(pick_calls) X(pick_attempts) X(pick_tsc_cycles) X(clients_scanned)     \
  X(steals) X(steal_attempts) X(targeted_wakeups) X(broadcast_wakeups)              \
  X(reconcile_marks) X(dma_reap_requeues)

LayerCounters Snapshot(const core::CopierService& service) {
  return LayerCounters{service.TotalStats(), service.ipc_fuse_stats(), service.sched_stats()};
}

LayerCounters Diff(const LayerCounters& after, const LayerCounters& before) {
  LayerCounters d = after;
#define SUB(group, f) d.group.f = after.group.f - before.group.f;
#define SUB_ENGINE(f) SUB(engine, f)
#define SUB_FUSE(f) SUB(fuse, f)
#define SUB_SCHED(f) SUB(sched, f)
  PERFBENCH_ENGINE_COUNTERS(SUB_ENGINE)
  PERFBENCH_FUSE_COUNTERS(SUB_FUSE)
  PERFBENCH_SCHED_COUNTERS(SUB_SCHED)
  return d;
}

void Accumulate(LayerCounters* into, const LayerCounters& add) {
#define ADD(group, f) into->group.f += add.group.f;
#define ADD_ENGINE(f) ADD(engine, f)
#define ADD_FUSE(f) ADD(fuse, f)
#define ADD_SCHED(f) ADD(sched, f)
  PERFBENCH_ENGINE_COUNTERS(ADD_ENGINE)
  PERFBENCH_FUSE_COUNTERS(ADD_FUSE)
  PERFBENCH_SCHED_COUNTERS(ADD_SCHED)
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

double Percentile(const std::vector<double>& samples, double p) {
  copier::Histogram h;
  for (double x : samples) {
    h.Add(x);
  }
  return h.Count() == 0 ? 0.0 : h.Percentile(p);
}

Metrics LayerMetrics(const LayerInputs& in) {
  Metrics m;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    m.push_back({name, value, unit});
  };
  auto span = [&](const std::string& name) {
    auto it = in.spans.find(name);
    return it == in.spans.end() ? Tracer::Totals{} : it->second;
  };
  auto event = [&](const std::string& name) {
    auto it = in.events.find(name);
    return it == in.events.end() ? uint64_t{0} : it->second;
  };
  // host_ns is self time: the span's duration minus its children's.
  auto add_span = [&](const std::string& name, bool with_vcycles) {
    const Tracer::Totals t = span(name);
    add(name + ".calls", static_cast<double>(t.calls), "count");
    add(name + ".host_ns", static_cast<double>(t.self_host_ns), "ns");
    if (with_vcycles) {
      add(name + ".vcycles", static_cast<double>(t.vcycles), "vcycles");
    }
  };
  const core::Engine::Stats& e = in.counters.engine;
  const core::CopierService::IpcFuseStats& f = in.counters.fuse;
  const core::CopierService::SchedStats& s = in.counters.sched;

  add("bench.ops", static_cast<double>(in.ops), "count");
  add("bench.payload_bytes", static_cast<double>(in.payload_bytes), "B");
  add_span("driver.request", false);

  // loadgen
  add("loadgen.build_s", in.build_s, "s");
  add("loadgen.issue_late_p99_us", Percentile(in.issue_late_us, 99), "us");

  // apps
  add_span("apps.kv_process", true);
  add("apps.kv_process.not_ready", static_cast<double>(event("apps.kv_process.not_ready")),
      "count");
  add_span("apps.proxy_forward", true);

  // simos
  for (const char* call : {"simos.send", "simos.recv", "simos.post_recv", "simos.post_recv_ring",
                           "simos.complete_recv", "simos.binder_post", "simos.binder_transact"}) {
    add_span(call, true);
  }
  add("simos.recv.not_ready", static_cast<double>(event("simos.recv.not_ready")), "count");
  add("simos.cow_breaks", static_cast<double>(e.remap_cow_breaks), "count");

  // core.admission
  add_span("admission", false);
  add("admission.shed", static_cast<double>(e.admission_shed), "count");

  // core.engine
  add_span("engine.serve", false);
  add_span("engine.drain", false);
  add_span("engine.wait_descriptor", true);
  add("engine.serve_vcycles", static_cast<double>(e.serve_cycles), "vcycles");
  add("engine.tasks_ingested", static_cast<double>(e.tasks_ingested), "count");
  add("engine.tasks_completed", static_cast<double>(e.tasks_completed), "count");
  add("engine.tasks_aborted", static_cast<double>(e.tasks_aborted), "count");
  add("engine.sync_promotions", static_cast<double>(e.sync_promotions), "count");
  add("engine.bytes_absorbed", static_cast<double>(e.bytes_absorbed), "B");
  add("engine.bytes_copied", static_cast<double>(e.bytes_copied), "B");
  add("engine.absorbed_share",
      Ratio(static_cast<double>(e.bytes_absorbed),
            static_cast<double>(e.bytes_absorbed + e.bytes_copied)),
      "fraction");
  add("engine.dep_probes", static_cast<double>(e.dep_probes), "count");
  add("engine.dep_tasks_scanned", static_cast<double>(e.dep_tasks_scanned), "count");
  add("engine.dep_scan_per_probe",
      Ratio(static_cast<double>(e.dep_tasks_scanned), static_cast<double>(e.dep_probes)),
      "tasks/probe");
  add("engine.kfuncs", static_cast<double>(e.kfuncs_run), "count");
  add("engine.doorbells", static_cast<double>(e.notify_calls), "count");
  add("engine.doorbells_per_op",
      Ratio(static_cast<double>(e.notify_calls), static_cast<double>(in.ops)), "1/op");
  add("engine.copy_window_p50_us", Percentile(in.copy_window_us, 50), "us");
  add("engine.copy_window_p99_us", Percentile(in.copy_window_us, 99), "us");

  // hw tiers
  const uint64_t moved = e.avx_bytes + e.dma_bytes_completed;
  add("tier.avx_bytes", static_cast<double>(e.avx_bytes), "B");
  add("tier.dma_bytes", static_cast<double>(e.dma_bytes_completed), "B");
  add("tier.remap_bytes", static_cast<double>(e.remapped_bytes), "B");
  add("tier.moved_bytes", static_cast<double>(moved), "B");
  add("tier.moved_per_payload_byte",
      Ratio(static_cast<double>(moved), static_cast<double>(in.payload_bytes)), "B/B");
  add("tier.dma_ring_full_fallbacks", static_cast<double>(e.dma_ring_full_fallbacks), "count");
  add("tier.dma_rounds_parked", static_cast<double>(e.dma_rounds_parked), "count");
  add("tier.dma_drain_wait_vcycles", static_cast<double>(e.dma_drain_wait_cycles), "vcycles");

  // core.ipc_fuse
  const uint64_t fused = f.fused + f.forward_fused;
  add("fuse.fused", static_cast<double>(fused), "count");
  add("fuse.posted_sends", static_cast<double>(fused + f.fallbacks()), "count");
  add("fuse.fused_rate", f.fused_rate(), "fraction");
  add("fuse.forward_fused", static_cast<double>(f.forward_fused), "count");
  add("fuse.fallback_not_posted", static_cast<double>(f.fallback_not_posted), "count");
  add("fuse.fallback_window_full", static_cast<double>(f.fallback_window_full), "count");
  add("fuse.fallback_pool_exhausted", static_cast<double>(f.fallback_pool_exhausted), "count");
  add("fuse.fallback_ring", static_cast<double>(f.fallback_ring), "count");

  // core.sched
  add("sched.picks", static_cast<double>(s.picks), "count");
  add("sched.pick_calls", static_cast<double>(s.pick_calls), "count");
  add("sched.pick_hit_ratio",
      Ratio(static_cast<double>(s.picks), static_cast<double>(s.pick_calls)), "fraction");
  add("sched.steals", static_cast<double>(s.steals), "count");
  add("sched.targeted_wakeups", static_cast<double>(s.targeted_wakeups), "count");
  add("sched.broadcast_wakeups", static_cast<double>(s.broadcast_wakeups), "count");
  add("sched.reconcile_marks", static_cast<double>(s.reconcile_marks), "count");
  add("sched.pick_host_ns",
      s.pick_tsc_cycles == 0 ? 0.0 : copier::RealCycleClock::CyclesToNanos(s.pick_tsc_cycles),
      "ns");
  return m;
}

}  // namespace perfbench
