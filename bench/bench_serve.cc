// Production-serving sweep (DESIGN.md §13): open-loop load against the
// MiniKv (+ MiniProxy) stack through the serve harness, reporting tail
// latency (end-to-end p50/p99/p999 per request, plus the per-request
// copy-use window p50/p99 — first copy submit -> last KFUNC retired) and
// throughput-vs-offered-load, in virtual time and with real Copier threads.
//
// The virtual sweep runs each overload policy across offered-load multipliers
// of the calibrated capacity. The headline gate: with overload_policy=shed
// the offered load at which p999 exceeds 10x the unloaded p50 (the "knee")
// must sit strictly to the right of the kNone knee — admission control buys
// tail latency headroom. Every run also model-checks its replies and final
// store image; any mismatch or a failed knee gate prints " NO " and MISMATCH
// on stderr for scripts/bench_smoke.sh, and a row that fails model
// verification makes the bench exit 1.
//
// --quick shrinks the sweep for CI; --json writes BENCH_serve.json.
#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/apps/serve_harness.h"

namespace copier::bench {
namespace {

using core::CopierConfig;

constexpr double kKneeFactor = 10.0;  // knee: p999 > kKneeFactor * unloaded p50

const char* PolicyName(CopierConfig::OverloadPolicy policy) {
  switch (policy) {
    case CopierConfig::OverloadPolicy::kNone:
      return "none";
    case CopierConfig::OverloadPolicy::kShed:
      return "shed";
    case CopierConfig::OverloadPolicy::kDefer:
      return "defer";
    case CopierConfig::OverloadPolicy::kThrottle:
      return "throttle";
  }
  return "?";
}

CopierConfig PolicyConfig(CopierConfig::OverloadPolicy policy) {
  CopierConfig config;
  config.overload_policy = policy;
  // The request-count bound binds first for this workload: it caps the
  // admitted queue depth, which is what bounds the admitted tail.
  config.admission_max_inflight_requests = 4;
  return config;
}

apps::ServeOptions BaseOptions(const hw::TimingModel& t, size_t requests) {
  apps::ServeOptions options;
  options.timing = &t;
  options.workload.seed = 7;
  options.workload.requests = requests;
  options.workload.connections = 16;
  options.workload.keys = 128;
  options.workload.value_sizes = {64, 1024, 4096};
  options.workload.value_weights = {4.0, 2.0, 1.0};
  options.workload.burst.rate_multiplier = 4.0;
  options.workload.proxy_fraction = 0.1;
  options.workload.churn_every = 64;
  return options;
}

struct SweepPoint {
  CopierConfig::OverloadPolicy policy = CopierConfig::OverloadPolicy::kNone;
  double multiplier = 0;       // offered load as a fraction of capacity
  double offered_rps = 0;      // open-loop arrival rate
  apps::ServeResult result;
  PercentileSummary tail;
  PercentileSummary copy_window;  // first submit -> last KFUNC, per request
};

SweepPoint RunPoint(const hw::TimingModel& t, CopierConfig::OverloadPolicy policy,
                    double multiplier, double capacity_gap_cycles, size_t requests) {
  apps::ServeOptions options = BaseOptions(t, requests);
  options.config = PolicyConfig(policy);
  options.workload.mean_gap_cycles = capacity_gap_cycles / multiplier;
  SweepPoint point;
  point.policy = policy;
  point.multiplier = multiplier;
  point.offered_rps = kNominalGHz * 1e9 / options.workload.mean_gap_cycles;
  point.result = apps::RunServeVirtual(options);
  point.tail = Summarize(point.result.latency);
  point.copy_window = Summarize(point.result.copy_window);
  return point;
}

// First multiplier whose p999 crosses the knee threshold; 0 = never crossed.
double Knee(const std::vector<SweepPoint>& sweep, double unloaded_p50) {
  for (const SweepPoint& point : sweep) {
    if (point.tail.p999 > kKneeFactor * unloaded_p50) {
      return point.multiplier;
    }
  }
  return 0;
}

// Returns 0 when every row verified against the model, 1 otherwise.
int Run(int argc, char** argv) {
  const hw::TimingModel& t = SelectTiming(argc, argv);
  const bool quick = HasFlag(argc, argv, "--quick");
  const size_t requests = quick ? 384 : 1024;

  // --- calibration ---------------------------------------------------------
  // Unloaded tails: arrivals far apart, no queueing anywhere.
  apps::ServeOptions calib = BaseOptions(t, quick ? 192 : 384);
  calib.workload.mean_gap_cycles = 200'000;
  const apps::ServeResult unloaded = apps::RunServeVirtual(calib);
  const PercentileSummary unloaded_tail = Summarize(unloaded.latency);
  const PercentileSummary unloaded_cw = Summarize(unloaded.copy_window);
  const double unloaded_p50 = unloaded_tail.p50;
  // Capacity: a back-to-back run (every arrival queued behind the previous
  // request) measures the bottleneck service time directly — unloaded latency
  // would overestimate it, since most copy work runs concurrently on the
  // engine.
  apps::ServeOptions satur = BaseOptions(t, quick ? 192 : 384);
  satur.workload.mean_gap_cycles = 1;
  const apps::ServeResult saturated = apps::RunServeVirtual(satur);
  const double capacity_gap = saturated.span_us * kNominalGHz * 1e3 /
                              static_cast<double>(saturated.admitted);

  PrintBanner("Serving sweep (virtual): open-loop MiniKv+proxy, tail latency vs offered load");
  std::printf("unloaded p50 %.2f us, p999 %.2f us; copy-use window p50 %.2f us, p99 %.2f us; "
              "capacity ~%.0f rps; knee threshold %.2f us\n",
              unloaded_p50, unloaded_tail.p999, unloaded_cw.p50, unloaded_cw.p99,
              kNominalGHz * 1e9 / capacity_gap, kKneeFactor * unloaded_p50);

  const std::vector<double> multipliers =
      quick ? std::vector<double>{0.25, 0.9, 1.2}
            : std::vector<double>{0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.4};

  bool all_verified = true;
  TextTable table({"policy", "offered", "krps in", "krps out", "admit", "shed", "defer",
                   "thr", "p50", "p99", "p999", "cw p50", "cw p99", "ok"});
  auto add_point = [&](const SweepPoint& point) {
    const bool ok = point.result.replies_ok;
    all_verified = all_verified && ok;
    if (!ok) {
      std::fprintf(stderr, "MISMATCH: policy=%s x%.2f reply/store image differs from model\n",
                   PolicyName(point.policy), point.multiplier);
    }
    table.AddRow({PolicyName(point.policy), TextTable::Num(point.multiplier, 2) + "x",
                  TextTable::Num(point.offered_rps / 1e3),
                  TextTable::Num(point.result.achieved_rps / 1e3),
                  TextTable::Num(point.result.admitted, 0),
                  TextTable::Num(point.result.shed, 0),
                  TextTable::Num(point.result.defer_verdicts, 0),
                  TextTable::Num(point.result.throttle_verdicts, 0),
                  TextTable::Num(point.tail.p50), TextTable::Num(point.tail.p99),
                  TextTable::Num(point.tail.p999), TextTable::Num(point.copy_window.p50),
                  TextTable::Num(point.copy_window.p99), ok ? "yes" : "NO"});
  };

  std::vector<SweepPoint> none_sweep;
  std::vector<SweepPoint> shed_sweep;
  for (double m : multipliers) {
    none_sweep.push_back(RunPoint(t, CopierConfig::OverloadPolicy::kNone, m, capacity_gap,
                                  requests));
    add_point(none_sweep.back());
  }
  for (double m : multipliers) {
    shed_sweep.push_back(RunPoint(t, CopierConfig::OverloadPolicy::kShed, m, capacity_gap,
                                  requests));
    add_point(shed_sweep.back());
  }
  // One overloaded point each for the remaining policies (spectrum, ungated).
  const double hot = multipliers.back();
  const SweepPoint defer_point =
      RunPoint(t, CopierConfig::OverloadPolicy::kDefer, hot, capacity_gap, requests);
  add_point(defer_point);
  const SweepPoint throttle_point =
      RunPoint(t, CopierConfig::OverloadPolicy::kThrottle, hot, capacity_gap, requests);
  add_point(throttle_point);
  table.Print();

  const double knee_none = Knee(none_sweep, unloaded_p50);
  const double knee_shed = Knee(shed_sweep, unloaded_p50);
  // 0 = "never crossed within the sweep" = beyond the last multiplier.
  const double knee_none_v = knee_none == 0 ? multipliers.back() + 1 : knee_none;
  const double knee_shed_v = knee_shed == 0 ? multipliers.back() + 1 : knee_shed;
  const bool knee_ok = knee_shed_v > knee_none_v;
  if (!knee_ok) {
    std::fprintf(stderr, "MISMATCH: shed knee (%.2fx) did not move right of none (%.2fx)\n",
                 knee_shed_v, knee_none_v);
  }
  std::printf("\np999 knee (first offered load with p999 > %.0fx unloaded p50): "
              "none=%s shed=%s -> gate %s\n",
              kKneeFactor,
              knee_none == 0 ? ">sweep" : (TextTable::Num(knee_none, 2) + "x").c_str(),
              knee_shed == 0 ? ">sweep" : (TextTable::Num(knee_shed, 2) + "x").c_str(),
              knee_ok ? "OK" : " NO ");

  // --- real-threaded sweep -------------------------------------------------
  PrintBanner("Serving sweep (threaded): real Copier threads, host-clock tails");
  TextTable ttable({"policy", "gap us", "krps out", "admit", "shed", "p50", "p99", "p999",
                    "ring backoffs", "ok"});
  struct ThreadedPoint {
    const char* policy;
    double gap_us = 0;
    apps::ServeResult result;
    PercentileSummary tail;
  };
  std::vector<ThreadedPoint> threaded;
  for (const double gap_cycles : std::vector<double>{2'000'000, 500'000}) {
    for (const auto policy :
         {CopierConfig::OverloadPolicy::kNone, CopierConfig::OverloadPolicy::kShed}) {
      apps::ServeOptions options = BaseOptions(t, quick ? 128 : 256);
      options.config = PolicyConfig(policy);
      options.workload.mean_gap_cycles = gap_cycles;
      options.workload.connections = 8;
      options.ns_per_cycle = 1.0;
      options.threads = 2;
      ThreadedPoint point;
      point.policy = PolicyName(policy);
      point.gap_us = gap_cycles * options.ns_per_cycle / 1e3;
      point.result = apps::RunServeThreaded(options);
      point.tail = Summarize(point.result.latency);
      const bool ok = point.result.replies_ok;
      all_verified = all_verified && ok;
      if (!ok) {
        std::fprintf(stderr, "MISMATCH: threaded policy=%s reply/store image differs\n",
                     point.policy);
      }
      ttable.AddRow({point.policy, TextTable::Num(point.gap_us),
                     TextTable::Num(point.result.achieved_rps / 1e3),
                     TextTable::Num(point.result.admitted, 0),
                     TextTable::Num(point.result.shed, 0), TextTable::Num(point.tail.p50),
                     TextTable::Num(point.tail.p99), TextTable::Num(point.tail.p999),
                     TextTable::Num(point.result.stats.overload_ring_backoffs, 0),
                     ok ? "yes" : "NO"});
      threaded.push_back(std::move(point));
    }
  }
  ttable.Print();
  std::printf("(threaded tails include host scheduler jitter; the virtual sweep above is "
              "the tail-latency evidence)\n");

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_serve.json");
    auto emit = [&](const SweepPoint& p) {
      out << "{\"policy\": \"" << PolicyName(p.policy) << "\", \"multiplier\": "
          << p.multiplier << ", \"offered_rps\": " << p.offered_rps
          << ", \"achieved_rps\": " << p.result.achieved_rps
          << ", \"offered\": " << p.result.offered << ", \"admitted\": " << p.result.admitted
          << ", \"shed\": " << p.result.shed
          << ", \"defer_verdicts\": " << p.result.defer_verdicts
          << ", \"throttle_verdicts\": " << p.result.throttle_verdicts
          << ", \"churns\": " << p.result.churns << ", \"p50_us\": " << p.tail.p50
          << ", \"p99_us\": " << p.tail.p99 << ", \"p999_us\": " << p.tail.p999
          << ", \"copy_window_p50_us\": " << p.copy_window.p50
          << ", \"copy_window_p99_us\": " << p.copy_window.p99
          << ", \"ring_backoffs\": " << p.result.stats.overload_ring_backoffs
          << ", \"verified\": " << (p.result.replies_ok ? "true" : "false") << "}";
    };
    out << "{\n  \"bench\": \"serve\",\n  \"requests\": " << requests
        << ",\n  \"unloaded_p50_us\": " << unloaded_p50
        << ",\n  \"unloaded_p999_us\": " << unloaded_tail.p999
        << ",\n  \"unloaded_copy_window_p50_us\": " << unloaded_cw.p50
        << ",\n  \"unloaded_copy_window_p99_us\": " << unloaded_cw.p99
        << ",\n  \"capacity_rps\": " << kNominalGHz * 1e9 / capacity_gap
        << ",\n  \"knee_factor\": " << kKneeFactor << ",\n  \"virtual_sweep\": [\n";
    bool first = true;
    for (const auto* sweep : {&none_sweep, &shed_sweep}) {
      for (const SweepPoint& p : *sweep) {
        if (!first) {
          out << ",\n";
        }
        first = false;
        out << "    ";
        emit(p);
      }
    }
    out << ",\n    ";
    emit(defer_point);
    out << ",\n    ";
    emit(throttle_point);
    out << "\n  ],\n  \"knee_none\": " << knee_none_v << ",\n  \"knee_shed\": " << knee_shed_v
        << ",\n  \"knee_gate_ok\": " << (knee_ok ? "true" : "false")
        << ",\n  \"threaded_sweep\": [\n";
    for (size_t i = 0; i < threaded.size(); ++i) {
      const ThreadedPoint& p = threaded[i];
      out << "    {\"policy\": \"" << p.policy << "\", \"gap_us\": " << p.gap_us
          << ", \"achieved_rps\": " << p.result.achieved_rps
          << ", \"admitted\": " << p.result.admitted << ", \"shed\": " << p.result.shed
          << ", \"p50_us\": " << p.tail.p50 << ", \"p99_us\": " << p.tail.p99
          << ", \"p999_us\": " << p.tail.p999
          << ", \"verified\": " << (p.result.replies_ok ? "true" : "false") << "}"
          << (i + 1 < threaded.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote BENCH_serve.json\n");
  }

  if (!all_verified) {
    std::printf("model verification: NO \n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  return copier::bench::Run(argc, argv);
}
