#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/ipc_bulk.h"
#include "perfbench/serve_driver.h"
#include "src/apps/serve_harness.h"
#include "src/core/loadgen.h"

namespace perfbench {
namespace {

namespace apps = copier::apps;
namespace core = copier::core;

// --- fixed workload parameters -------------------------------------------------

// kv-small: MiniKv with 10% proxy traffic, virtual time, open loop.
constexpr size_t kKvSmallConnections = 16;
constexpr size_t kKvPassRequests = 16384;
constexpr double kKvNominalRps = 400e3;
constexpr size_t kKvNominalPasses = 40;  // pooled for vlat_*
constexpr size_t kKvSaturationPasses = 4;  // pooled for vsat_rps, vgoodput_gibps
// Offered-rate grid (virtual req/s) and the absolute p99 limit that defines
// the knee. Neither is derived from a run's own numbers.
constexpr double kKvGridRps[] = {300e3, 350e3, 400e3, 450e3, 500e3, 550e3, 600e3,
                                 650e3, 700e3, 750e3, 800e3, 850e3};
constexpr double kKvP99LimitUs = 50.0;

// kv-threaded: the kv-small shape on 8 connections, 2 service threads plus
// the driver thread, paced at a fixed host rate.
constexpr size_t kKvThreadedConnections = 8;
constexpr size_t kKvThreadedServiceThreads = 2;
constexpr double kKvThreadedRps = 2000;

// ipc-bulk: closed-loop transfers of 16 KiB..4 MiB on one long-lived stack.
constexpr size_t kIpcMinBytes = 16 * copier::kKiB;
constexpr size_t kIpcMaxBytes = 4 * copier::kMiB;
constexpr size_t kIpcPassTransfers = 16384;
constexpr size_t kIpcSetupSamples = 10;

// Traced runs keep at most this many spans per pass in the span file.
constexpr size_t kMaxWrittenSpans = 200'000;

// --- helpers --------------------------------------------------------------------

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Elapsed(uint64_t since_ns) { return static_cast<double>(HostNs() - since_ns) / 1e9; }

uint64_t HashDouble(double v, uint64_t hash) { return apps::Fnv1a(&v, sizeof(v), hash); }

// Rate at which p99 first crosses `limit_us` on an ascending grid, linearly
// interpolated between the last grid point under the limit and the first
// over it. Under the limit everywhere: the top of the grid. Over it at the
// first point: that rate scaled down by how far it overshoots.
double Knee(const std::vector<double>& rates, const std::vector<double>& p99s, double limit_us) {
  for (size_t i = 0; i < rates.size(); ++i) {
    if (p99s[i] > limit_us) {
      if (i == 0) {
        return rates[0] * limit_us / p99s[0];
      }
      const double f = (limit_us - p99s[i - 1]) / (p99s[i] - p99s[i - 1]);
      return rates[i - 1] + f * (rates[i] - rates[i - 1]);
    }
  }
  return rates.back();
}

double GiBps(uint64_t bytes, double seconds) {
  return seconds <= 0 ? 0 : static_cast<double>(bytes) / seconds / (1024.0 * 1024 * 1024);
}

// Checked operation outside a driver (parity, determinism, trace identity).
void Check(Report* report, bool ok, const char* what) {
  ++report->attempted;
  if (!ok) {
    ++report->failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  }
}

void Absorb(Report* report, uint64_t attempted, uint64_t failed) {
  report->attempted += attempted;
  report->failed += failed;
}

// Writes every tracer's spans, one pass label each.
void WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, const Tracer*>>& passes) {
  if (path.empty()) {
    return;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  Tracer::WriteHeader(out);
  for (const auto& [label, tracer] : passes) {
    tracer->Write(out, label, kMaxWrittenSpans);
  }
  std::fclose(out);
}

void MergeTracer(const Tracer& tracer, LayerInputs* in) {
  for (const auto& [name, t] : tracer.Aggregate()) {
    Tracer::Totals& into = in->spans[name];
    into.calls += t.calls;
    into.self_host_ns += t.self_host_ns;
    into.vcycles += t.vcycles;
  }
  for (const auto& [name, n] : tracer.counts()) {
    in->events[name] += n;
  }
}

// --- serving passes -------------------------------------------------------------

core::ServeWorkload KvShape(uint64_t seed, size_t connections, double rps, size_t requests) {
  core::ServeWorkload w;
  w.seed = seed;
  w.requests = requests;
  w.connections = connections;
  w.keys = 128;
  w.zipf_theta = 0.99;
  w.get_fraction = 0.7;
  w.value_sizes = {64, 1024, 4096};
  w.value_weights = {4.0, 2.0, 1.0};
  w.burst.rate_multiplier = 4.0;
  // Short burst phases: many independent bursts per pass, so the tail is an
  // average over bursts rather than set by the single longest one.
  w.burst.mean_phase_requests = 16;
  w.proxy_fraction = 0.1;
  w.churn_every = 64;
  w.mean_gap_cycles = rps > 0 ? kNominalGHz * 1e9 / rps : 1;  // 1 = back to back
  return w;
}

struct ServePass {
  ServeOutcome out;
  double build_s = 0;
  std::vector<core::ServeRequest> trace;
  uint64_t fingerprint = 0;  // virtual results: per-request outcome + store image

  double setup_s() const { return build_s + out.setup_s; }
};

uint64_t Fingerprint(const ServeOutcome& out) {
  uint64_t h = out.store_hash;
  for (const ServeRecordOut& r : out.records) {
    h = apps::Fnv1a(&r.index, sizeof(r.index), h);
    h = apps::Fnv1a(&r.reply_hash, sizeof(r.reply_hash), h);
    h = HashDouble(r.ok ? r.latency_us : -1.0, h);
    h = HashDouble(r.copy_window_us, h);
  }
  return h;
}

// Service threads for kv-threaded: two, with the driver thread making three,
// and never more threads than the host has CPUs.
size_t ServiceThreads() {
  const size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<size_t>(cpus - 1, 1, kKvThreadedServiceThreads);
}

ServePass RunServePass(const core::ServeWorkload& shape, bool threaded, Tracer& tracer) {
  ServePass pass;
  const uint64_t t0 = HostNs();
  pass.trace = core::BuildServeTrace(shape);
  pass.build_s = Elapsed(t0);
  ServeDriverOptions options;
  options.trace = pass.trace;
  options.connections = shape.connections;
  options.threaded = threaded;
  options.threads = ServiceThreads();
  pass.out = DriveServe(options, tracer);
  pass.fingerprint = Fingerprint(pass.out);
  return pass;
}

ServePass RunServePass(const core::ServeWorkload& shape, bool threaded) {
  Tracer off(false);
  return RunServePass(shape, threaded, off);
}

// Parity self-test: the serving harness, given the same trace, must report
// the same per-request reply hashes, latencies and copy windows, and the same
// store image, as the benchmark's own driver.
bool HarnessParity(const ServePass& pass, size_t connections) {
  apps::ServeOptions options;
  options.trace = pass.trace;
  options.workload.connections = connections;
  const apps::ServeResult ref = apps::RunServeVirtual(options);
  if (ref.records.size() != pass.out.records.size() || ref.store_hash != pass.out.store_hash ||
      !ref.replies_ok) {
    return false;
  }
  for (size_t i = 0; i < ref.records.size(); ++i) {
    const apps::ServeRecord& a = ref.records[i];
    const ServeRecordOut& b = pass.out.records[i];
    if (a.index != b.index || a.reply_hash != b.reply_hash || a.latency_us != b.latency_us ||
        a.copy_window_us != b.copy_window_us) {
      return false;
    }
  }
  return true;
}

LayerInputs ServeLayerInputs(const std::vector<const ServePass*>& passes) {
  LayerInputs in;
  std::vector<double> builds;
  for (const ServePass* p : passes) {
    Accumulate(&in.counters, p->out.counters);
    in.ops += p->out.records.size();
    in.payload_bytes += p->out.payload_bytes;
    builds.push_back(p->build_s);
  }
  in.build_s = Median(builds);
  return in;
}

// Traced run of a serving workload: alternates untraced and traced runs of
// the same passes until the time is up. Per-layer numbers come from the first
// traced round; every traced round must reproduce the untraced virtual
// results exactly; the host-time ratio of the two is the tracing overhead.
// shapes[0] is the paced pass, the only one whose issue lateness is reported.
Report TracedServe(const RunSpec& spec, const std::vector<core::ServeWorkload>& shapes,
                   const std::vector<std::string>& labels, bool threaded) {
  Report report;
  const uint64_t start = HostNs();
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::unique_ptr<Tracer>> first_tracers;
  std::vector<ServePass> first_passes;
  double round_s = 0;
  do {
    const uint64_t round_start = HostNs();
    double u = 0;
    double t = 0;
    std::vector<uint64_t> fingerprints;
    for (const core::ServeWorkload& shape : shapes) {
      ServePass pass = RunServePass(shape, threaded);
      Absorb(&report, pass.out.attempted, pass.out.failed);
      u += pass.out.measured_s;
      fingerprints.push_back(pass.fingerprint);
    }
    for (size_t i = 0; i < shapes.size(); ++i) {
      auto tracer = std::make_unique<Tracer>(true);
      ServePass pass = RunServePass(shapes[i], threaded, *tracer);
      Absorb(&report, pass.out.attempted, pass.out.failed);
      t += pass.out.measured_s;
      if (!threaded) {
        Check(&report, pass.fingerprint == fingerprints[i],
              "traced and untraced virtual results differ");
      }
      if (first_tracers.size() < shapes.size()) {
        first_tracers.push_back(std::move(tracer));
        first_passes.push_back(std::move(pass));
      }
    }
    untraced_s.push_back(u);
    traced_s.push_back(t);
    round_s = Elapsed(round_start);
  } while (Elapsed(start) + round_s < spec.seconds);

  std::vector<const ServePass*> passes;
  for (const ServePass& p : first_passes) {
    passes.push_back(&p);
  }
  LayerInputs in = ServeLayerInputs(passes);
  std::vector<std::pair<std::string, const Tracer*>> span_files;
  size_t spans = 0;
  for (size_t i = 0; i < first_tracers.size(); ++i) {
    MergeTracer(*first_tracers[i], &in);
    span_files.push_back({labels[i], first_tracers[i].get()});
    spans += first_tracers[i]->span_count();
    const ServeOutcome& out = first_passes[i].out;
    for (const ServeRecordOut& r : out.records) {
      if (r.copy_window_us > 0) {
        in.copy_window_us.push_back(r.copy_window_us);
      }
    }
    if (i == 0) {  // the paced pass; back-to-back arrivals have no schedule
      in.issue_late_us = out.issue_late_us;
    }
  }
  report.metrics = LayerMetrics(in);
  report.metrics.push_back({"trace.spans", static_cast<double>(spans), "count"});
  report.metrics.push_back(
      {"trace.overhead_share", Median(traced_s) / Median(untraced_s) - 1, "fraction"});
  WriteSpans(spec.trace_out, span_files);
  return report;
}

}  // namespace

// --- kv-small -------------------------------------------------------------------

Report RunKvSmall(const RunSpec& spec) {
  auto nominal = [&](size_t k) {
    return KvShape(DeriveSeed(spec.seed, 100 + k), kKvSmallConnections, kKvNominalRps,
                   kKvPassRequests);
  };
  auto b2b = [&](size_t k) {
    return KvShape(DeriveSeed(spec.seed, 200 + k), kKvSmallConnections, 0, kKvPassRequests);
  };
  if (spec.trace) {
    return TracedServe(spec, {nominal(0), b2b(0)}, {"nominal", "back_to_back"}, false);
  }

  Report report;
  const uint64_t start = HostNs();
  std::vector<double> setups;
  std::vector<double> sim_rates;
  auto account = [&](const ServePass& pass) {
    Absorb(&report, pass.out.attempted, pass.out.failed);
    setups.push_back(pass.setup_s());
    sim_rates.push_back(static_cast<double>(pass.out.records.size()) / pass.out.measured_s);
  };

  // Nominal-rate passes: latency from the intended arrival, pooled.
  std::vector<double> latency;
  std::vector<uint64_t> nominal_fingerprints;
  for (size_t k = 0; k < kKvNominalPasses; ++k) {
    const ServePass pass = RunServePass(nominal(k), false);
    account(pass);
    nominal_fingerprints.push_back(pass.fingerprint);
    for (const ServeRecordOut& r : pass.out.records) {
      if (r.ok) {
        latency.push_back(r.latency_us);
      }
    }
    if (k == 0) {
      Check(&report, HarnessParity(pass, kKvSmallConnections),
            "driver parity with apps::RunServeVirtual");
    }
  }

  // Back-to-back passes: saturation throughput and payload goodput.
  uint64_t sat_completed = 0;
  uint64_t sat_bytes = 0;
  double sat_s = 0;
  for (size_t k = 0; k < kKvSaturationPasses; ++k) {
    const ServePass pass = RunServePass(b2b(k), false);
    account(pass);
    sat_completed += pass.out.completed;
    sat_bytes += pass.out.payload_bytes;
    sat_s += pass.out.span_us / 1e6;
  }

  // Offered-rate grid: the knee under the fixed p99 limit. Every grid point
  // replays the same requests with arrivals scaled to its rate (common random
  // numbers), so p99 rises smoothly along the grid.
  std::vector<double> rates(std::begin(kKvGridRps), std::end(kKvGridRps));
  std::vector<double> p99s;
  for (size_t i = 0; i < rates.size(); ++i) {
    const ServePass pass = RunServePass(
        KvShape(DeriveSeed(spec.seed, 300), kKvSmallConnections, rates[i], kKvPassRequests),
        false);
    account(pass);
    p99s.push_back(Percentile(pass.out.latency_us, 99));
  }

  // Remaining time: repeat nominal passes while a whole one still fits; each
  // must reproduce its first run exactly.
  double pass_s = 0;
  for (size_t k = 0; Elapsed(start) + pass_s < spec.seconds; ++k) {
    const uint64_t t0 = HostNs();
    const ServePass pass = RunServePass(nominal(k % kKvNominalPasses), false);
    account(pass);
    Check(&report, pass.fingerprint == nominal_fingerprints[k % kKvNominalPasses],
          "repeated virtual pass differs");
    pass_s = Elapsed(t0);
  }

  report.metrics = {
      {"setup_s", Median(setups), "s"},
      {"vlat_p50_us", Percentile(latency, 50), "us"},
      {"vlat_p99_us", Percentile(latency, 99), "us"},
      {"vsat_rps", static_cast<double>(sat_completed) / sat_s, "req/s"},
      {"vknee_rps", Knee(rates, p99s, kKvP99LimitUs), "req/s"},
      {"vgoodput_gibps", GiBps(sat_bytes, sat_s), "GiB/s"},
      {"sim_ops_per_s", Median(sim_rates), "ops/s"},
  };
  return report;
}

// --- ipc-bulk -------------------------------------------------------------------

namespace {

// Receiver images are checked byte for byte against the sender pattern, so
// the latencies are what is left to compare across repeats.
uint64_t Fingerprint(const IpcOutcome& out) {
  uint64_t h = 1469598103934665603ull;
  for (double us : out.latency_us) {
    h = HashDouble(us, h);
  }
  return h;
}

std::vector<IpcTransfer> IpcClosedTrace(uint64_t seed) {
  return BuildIpcTrace(DeriveSeed(seed, 500), kIpcPassTransfers, kIpcMinBytes, kIpcMaxBytes);
}

}  // namespace

Report RunIpcBulk(const RunSpec& spec) {
  Report report;
  const uint64_t start = HostNs();
  if (spec.trace) {
    // Alternate untraced and traced closed-loop passes (see TracedServe).
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::unique_ptr<Tracer> first_tracer;
    IpcOutcome first;
    double first_build_s = 0;
    double round_s = 0;
    do {
      const uint64_t t0 = HostNs();
      const std::vector<IpcTransfer> trace = IpcClosedTrace(spec.seed);
      const double build_s = Elapsed(t0);
      Tracer off(false);
      const IpcOutcome u = DriveIpc(trace, off);
      auto tracer = std::make_unique<Tracer>(true);
      IpcOutcome t = DriveIpc(trace, *tracer);
      Absorb(&report, u.attempted + t.attempted, u.failed + t.failed);
      Check(&report, Fingerprint(u) == Fingerprint(t),
            "traced and untraced virtual results differ");
      untraced_s.push_back(u.measured_s);
      traced_s.push_back(t.measured_s);
      if (first_tracer == nullptr) {
        first_tracer = std::move(tracer);
        first = std::move(t);
        first_build_s = build_s;
      }
      round_s = Elapsed(t0);
    } while (Elapsed(start) + round_s < spec.seconds);
    LayerInputs in;
    in.counters = first.counters;
    in.ops = first.attempted;
    in.payload_bytes = first.payload_bytes;
    in.build_s = first_build_s;
    MergeTracer(*first_tracer, &in);
    report.metrics = LayerMetrics(in);
    report.metrics.push_back(
        {"trace.spans", static_cast<double>(first_tracer->span_count()), "count"});
    report.metrics.push_back(
        {"trace.overhead_share", Median(traced_s) / Median(untraced_s) - 1, "fraction"});
    WriteSpans(spec.trace_out, {{"closed_loop", first_tracer.get()}});
    return report;
  }

  // Set-up alone, several times: build the inputs and the stack.
  std::vector<double> setups;
  for (size_t i = 0; i < kIpcSetupSamples; ++i) {
    const uint64_t t0 = HostNs();
    const std::vector<IpcTransfer> trace = IpcClosedTrace(spec.seed);
    const double build_s = Elapsed(t0);
    setups.push_back(build_s + TimeIpcSetup(trace));
  }

  // The closed-loop pass, then repeats of it while a whole one still fits in
  // the time; each repeat must reproduce the first exactly.
  const std::vector<IpcTransfer> trace = IpcClosedTrace(spec.seed);
  Tracer off(false);
  const IpcOutcome c = DriveIpc(trace, off);
  Absorb(&report, c.attempted, c.failed);
  uint64_t transfers = c.attempted;
  double host_s = c.measured_s;
  while (Elapsed(start) + c.setup_s + c.pass_s < spec.seconds) {
    const IpcOutcome again = DriveIpc(trace, off);
    Absorb(&report, again.attempted, again.failed);
    Check(&report, Fingerprint(again) == Fingerprint(c), "repeated virtual pass differs");
    transfers += again.attempted;
    host_s += again.measured_s;
  }

  const double closed_s = static_cast<double>(c.span_cycles) / (kNominalGHz * 1e9);
  report.metrics = {
      {"setup_s", Median(setups), "s"},
      {"vlat_p50_us", Percentile(c.latency_us, 50), "us"},
      {"vlat_p99_us", Percentile(c.latency_us, 99), "us"},
      {"vsat_rps", static_cast<double>(c.attempted) / closed_s, "req/s"},
      {"vgoodput_gibps", GiBps(c.payload_bytes, closed_s), "GiB/s"},
      {"sim_ops_per_s", static_cast<double>(transfers) / host_s, "ops/s"},
  };
  return report;
}

// --- kv-threaded ----------------------------------------------------------------

Report RunKvThreaded(const RunSpec& spec) {
  // The paced pass takes about a quarter of the time, so a traced run (an
  // untraced and a traced round of both passes) still fits.
  const size_t paced_requests =
      std::max<size_t>(1000, static_cast<size_t>(spec.seconds * kKvThreadedRps / 4));
  const core::ServeWorkload paced = KvShape(DeriveSeed(spec.seed, 700), kKvThreadedConnections,
                                            kKvThreadedRps, paced_requests);
  const core::ServeWorkload b2b =
      KvShape(DeriveSeed(spec.seed, 701), kKvThreadedConnections, 0, kKvPassRequests);
  if (spec.trace) {
    return TracedServe(spec, {paced, b2b}, {"paced", "back_to_back"}, true);
  }

  Report report;
  std::vector<double> setups;
  const ServePass host = RunServePass(paced, true);
  const ServePass host_sat = RunServePass(b2b, true);
  const ServePass virt = RunServePass(paced, false);
  const ServePass virt_sat = RunServePass(b2b, false);
  // fail_ratio is the real-thread passes' share; the virtual replays of the
  // same traces are one check each.
  for (const ServePass* p : {&host, &host_sat, &virt, &virt_sat}) {
    setups.push_back(p->setup_s());
  }
  Absorb(&report, host.out.attempted + host_sat.out.attempted,
         host.out.failed + host_sat.out.failed);
  Check(&report, virt.out.failed == 0, "virtual replay of the paced trace");
  Check(&report, virt_sat.out.failed == 0, "virtual replay of the back-to-back trace");
  const double virt_sat_s = virt_sat.out.span_us / 1e6;
  report.metrics = {
      {"setup_s", Median(setups), "s"},
      {"vlat_p50_us", Percentile(virt.out.latency_us, 50), "us"},
      {"vlat_p99_us", Percentile(virt.out.latency_us, 99), "us"},
      {"vsat_rps", static_cast<double>(virt_sat.out.completed) / virt_sat_s, "req/s"},
      {"vgoodput_gibps", GiBps(virt_sat.out.payload_bytes, virt_sat_s), "GiB/s"},
      {"sim_ops_per_s",
       static_cast<double>(virt.out.records.size()) / virt.out.measured_s, "ops/s"},
      {"hlat_p50_us", Percentile(host.out.latency_us, 50), "us"},
      {"hlat_p99_us", Percentile(host.out.latency_us, 99), "us"},
      {"hsat_rps", static_cast<double>(host_sat.out.completed) / (host_sat.out.span_us / 1e6),
       "req/s"},
      {"loadgen.issue_late_p99_us", Percentile(host.out.issue_late_us, 99), "us"},
  };
  return report;
}

}  // namespace perfbench
