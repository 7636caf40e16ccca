// Engine-pool sweep (DESIGN.md §10): the same 8-client copy workload runs
// over pools of 1 -> 8 engines, plus the enable_engine_pool=false ablation.
//
// Scaling is measured in virtual time: every engine owns a cycle clock, so
// aggregate throughput is total payload divided by the *busiest* engine's
// busy-cycle delta — exactly the wall-clock of a machine with one core per
// engine. Clients are private (home-engine affinity partitions them), so the
// pool should scale near-linearly. A second sweep drives a real-threaded
// service (one OS thread per engine) from 8 app threads to exercise the same
// topology under actual concurrency. The remap tier is pinned off so the
// copies run on the AVX+DMA path the pool scales (aligned 256 KiB copies
// would otherwise alias, at remap's own rate); each row prints the bytes
// every tier moved. Gated in-binary — the process exits 1 — when the virtual
// sweep scales below 7x from 1 to 8 engines or any configuration lands an
// image that differs (per-client FNV-1a checksums against the 1-engine run).
//
// --json additionally writes BENCH_engines.json for scripts/bench_smoke.sh.
#include "bench/bench_util.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

constexpr size_t kClients = 8;
constexpr size_t kSlots = 12;                // copies per client per run
constexpr size_t kSlotBytes = 256 * kKiB;    // virtual-time sweep copy size
constexpr size_t kThreadedSlotBytes = 64 * kKiB;

struct EngineResult {
  size_t engines = 0;
  bool pool_enabled = true;
  uint64_t bytes = 0;
  Cycles busy_max = 0;       // busiest engine's busy cycles: the critical path
  Cycles busy_sum = 0;       // total engine busy cycles (work conservation)
  uint64_t steals = 0;
  uint64_t cross_probes = 0;
  uint64_t avx_bytes = 0;    // bytes each tier moved in the measured copies
  uint64_t dma_bytes = 0;
  uint64_t remap_bytes = 0;
  uint64_t checksum = 0;     // combined per-client destination FNV-1a
  double wall_ms = 0;        // host time (threaded sweep only)
};

struct BenchClient {
  simos::Process* proc = nullptr;
  core::Client* client = nullptr;
  std::unique_ptr<lib::CopierLib> lib;
  uint64_t arena = 0;
};

uint64_t Fnv1a(const uint8_t* data, size_t n, uint64_t hash) {
  for (size_t i = 0; i < n; ++i) {
    hash = (hash ^ data[i]) * 1099511628211ull;
  }
  return hash;
}

std::vector<BenchClient> MakeClients(simos::SimKernel& kernel, core::CopierService& service,
                                     size_t slot_bytes) {
  std::vector<BenchClient> clients(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    BenchClient& c = clients[i];
    c.proc = kernel.CreateProcess("eng" + std::to_string(i));
    c.client = service.AttachProcess(c.proc);
    c.lib = std::make_unique<lib::CopierLib>(c.client, &service);
    auto va = c.proc->mem().MapAnonymous((kSlots + 1) * slot_bytes, "arena", true);
    COPIER_CHECK(va.ok());
    c.arena = *va;
    Rng rng(0xE16 + i);  // per-client source image, same in every config
    std::vector<uint8_t> bytes(slot_bytes);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    COPIER_CHECK(c.proc->mem().WriteBytes(c.arena, bytes.data(), slot_bytes).ok());
  }
  return clients;
}

uint64_t CombinedChecksum(std::vector<BenchClient>& clients, size_t slot_bytes) {
  uint64_t hash = 1469598103934665603ull;
  std::vector<uint8_t> image(kSlots * slot_bytes);
  for (BenchClient& c : clients) {
    COPIER_CHECK(c.proc->mem().ReadBytes(c.arena + slot_bytes, image.data(), image.size()).ok());
    hash = Fnv1a(image.data(), image.size(), hash);
  }
  return hash;
}

// Virtual-time sweep: manual mode, engines pumped explicitly through each
// client's csync_all (home-engine affinity routes every pump).
EngineResult RunVirtual(const hw::TimingModel& t, size_t engines, bool pool_enabled) {
  core::CopierConfig config;
  config.enable_engine_pool = pool_enabled;
  config.engine_count = engines;
  config.enable_remap_tier = false;  // measure the AVX+DMA path
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.config = config;
  options.timing = &t;
  core::CopierService service(std::move(options));
  auto clients = MakeClients(kernel, service, kSlotBytes);

  // Warm-up: populate the ATCache so the sweep measures steady state.
  for (BenchClient& c : clients) {
    c.lib->amemcpy(c.arena + kSlotBytes, c.arena, kSlotBytes);
    COPIER_CHECK_OK(c.lib->csync_all());
  }
  const size_t pool = service.engine_count();
  std::vector<Cycles> starts(pool);
  for (size_t e = 0; e < pool; ++e) {
    starts[e] = service.engine_ctx(e).now();
  }
  const core::Engine::Stats before = service.TotalStats();
  for (size_t i = 0; i < kSlots; ++i) {
    for (BenchClient& c : clients) {
      c.lib->amemcpy(c.arena + (i + 1) * kSlotBytes, c.arena, kSlotBytes);
    }
  }
  for (BenchClient& c : clients) {
    COPIER_CHECK_OK(c.lib->csync_all());
  }
  service.DrainAll();

  EngineResult result;
  result.engines = engines;
  result.pool_enabled = pool_enabled;
  result.bytes = static_cast<uint64_t>(kClients) * kSlots * kSlotBytes;
  for (size_t e = 0; e < pool; ++e) {
    const Cycles busy = service.engine_ctx(e).now() - starts[e];
    result.busy_max = std::max(result.busy_max, busy);
    result.busy_sum += busy;
  }
  const core::Engine::Stats stats = service.TotalStats();
  result.cross_probes = stats.cross_dep_probes;
  result.avx_bytes = stats.avx_bytes - before.avx_bytes;
  result.dma_bytes = stats.dma_bytes_completed - before.dma_bytes_completed;
  result.remap_bytes = stats.remapped_bytes - before.remapped_bytes;
  result.checksum = CombinedChecksum(clients, kSlotBytes);
  return result;
}

// Real-threaded sweep: one OS thread per engine, one driver thread per client.
EngineResult RunThreaded(size_t engines) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.enable_engine_pool = true;
  options.config.engine_count = engines;
  options.config.min_threads = engines;
  options.config.max_threads = engines;
  options.config.enable_remap_tier = false;  // measure the AVX+DMA path
  core::CopierService service(std::move(options));
  auto clients = MakeClients(kernel, service, kThreadedSlotBytes);
  service.Start();

  const size_t pool = service.engine_count();
  std::vector<Cycles> starts(pool);
  std::vector<Cycles> blocked(pool);
  for (size_t e = 0; e < pool; ++e) {
    starts[e] = service.engine_ctx(e).now();
    blocked[e] = service.engine_ctx(e).blocked_cycles();
  }
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (BenchClient& c : clients) {
    drivers.emplace_back([&c] {
      for (size_t i = 0; i < kSlots; ++i) {
        c.lib->amemcpy(c.arena + (i + 1) * kThreadedSlotBytes, c.arena, kThreadedSlotBytes);
        if (i % 4 == 3) {
          COPIER_CHECK_OK(c.lib->csync(c.arena + (i + 1) * kThreadedSlotBytes,
                                       kThreadedSlotBytes));
        }
      }
      COPIER_CHECK_OK(c.lib->csync_all());
    });
  }
  for (auto& d : drivers) {
    d.join();
  }
  service.DrainAll();
  const auto wall_end = std::chrono::steady_clock::now();

  EngineResult result;
  result.engines = engines;
  result.bytes = static_cast<uint64_t>(kClients) * kSlots * kThreadedSlotBytes;
  for (size_t e = 0; e < pool; ++e) {
    const Cycles busy = (service.engine_ctx(e).now() - starts[e]) -
                        (service.engine_ctx(e).blocked_cycles() - blocked[e]);
    result.busy_max = std::max(result.busy_max, busy);
    result.busy_sum += busy;
  }
  const core::Engine::Stats stats = service.TotalStats();
  result.cross_probes = stats.cross_dep_probes;
  result.avx_bytes = stats.avx_bytes;
  result.dma_bytes = stats.dma_bytes_completed;
  result.remap_bytes = stats.remapped_bytes;
  for (size_t e = 0; e < pool; ++e) {
    const core::CopierService::EngineUtil util = service.engine_util(e);
    result.steals += util.steals_in;
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  service.Stop();
  result.checksum = CombinedChecksum(clients, kThreadedSlotBytes);
  return result;
}

constexpr double kScalingFloor = 7.0;  // virtual 1 -> 8 engines

std::string Mib(uint64_t bytes) { return TextTable::Num(static_cast<double>(bytes) / kMiB, 1); }

// Returns the process exit code: non-zero when a gate is missed.
int Run(int argc, char** argv) {
  const hw::TimingModel& t = SelectTiming(argc, argv);
  PrintBanner("Engine-pool sweep: 8 private clients over 1 -> 8 copier engines");
  const std::vector<size_t> engine_counts = {1, 2, 4, 8};

  std::vector<EngineResult> sweep;
  for (size_t engines : engine_counts) {
    sweep.push_back(RunVirtual(t, engines, /*pool_enabled=*/true));
  }
  const EngineResult ablation = RunVirtual(t, 8, /*pool_enabled=*/false);
  const EngineResult& base = sweep.front();

  bool identical = true;
  TextTable table({"config", "agg GiB/s", "vs 1 engine", "busy max us", "busy sum us",
                   "cross probes", "AVX MiB", "DMA MiB", "remap MiB", "identical"});
  auto add_row = [&](const EngineResult& r, const std::string& label) {
    table.AddRow({label, TextTable::Num(GiBps(r.bytes, r.busy_max)),
                  TextTable::Num(static_cast<double>(base.busy_max) / r.busy_max, 2) + "x",
                  TextTable::Num(Us(r.busy_max)), TextTable::Num(Us(r.busy_sum)),
                  TextTable::Num(r.cross_probes, 0), Mib(r.avx_bytes), Mib(r.dma_bytes),
                  Mib(r.remap_bytes), r.checksum == base.checksum ? "yes" : "NO"});
    identical &= r.checksum == base.checksum;
    if (r.checksum != base.checksum) {
      std::fprintf(stderr, "MISMATCH: %s image differs from the 1-engine run\n",
                   label.c_str());
    }
  };
  for (const EngineResult& r : sweep) {
    add_row(r, std::to_string(r.engines) + " engines");
  }
  add_row(ablation, "pool disabled (ablation)");
  table.Print();
  const double speedup_8x = static_cast<double>(base.busy_max) / sweep.back().busy_max;
  const bool floor_met = speedup_8x >= kScalingFloor;
  std::printf("\nscaling 1 -> 8 engines: %.2fx aggregate GiB/s (acceptance floor %.0fx) %s\n",
              speedup_8x, kScalingFloor, floor_met ? "ok" : "MISSED");

  PrintBanner("Engine-pool sweep (threaded): one OS thread per engine");
  std::vector<EngineResult> threaded;
  for (size_t engines : engine_counts) {
    threaded.push_back(RunThreaded(engines));
  }
  const EngineResult& tbase = threaded.front();
  TextTable ttable({"config", "agg GiB/s", "vs 1 engine", "busy max us", "steals",
                    "wall ms", "AVX MiB", "DMA MiB", "remap MiB", "identical"});
  for (const EngineResult& r : threaded) {
    ttable.AddRow({std::to_string(r.engines) + " engines",
                   TextTable::Num(GiBps(r.bytes, r.busy_max)),
                   TextTable::Num(static_cast<double>(tbase.busy_max) / r.busy_max, 2) + "x",
                   TextTable::Num(Us(r.busy_max)), TextTable::Num(r.steals, 0),
                   TextTable::Num(r.wall_ms), Mib(r.avx_bytes), Mib(r.dma_bytes),
                   Mib(r.remap_bytes), r.checksum == tbase.checksum ? "yes" : "NO"});
    identical &= r.checksum == tbase.checksum;
    if (r.checksum != tbase.checksum) {
      std::fprintf(stderr, "MISMATCH: %zu-engine threaded image differs\n", r.engines);
    }
  }
  ttable.Print();
  std::printf("(threaded clocks include scheduler jitter; the virtual sweep above is the "
              "scaling evidence)\n");

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_engines.json");
    auto emit = [&](const EngineResult& r, const EngineResult& b) {
      out << "{\"engines\": " << r.engines << ", \"pool_enabled\": "
          << (r.pool_enabled ? "true" : "false")
          << ", \"agg_gibps\": " << GiBps(r.bytes, r.busy_max)
          << ", \"busy_max_cycles\": " << r.busy_max
          << ", \"busy_sum_cycles\": " << r.busy_sum
          << ", \"cross_probes\": " << r.cross_probes
          << ", \"steals\": " << r.steals << ", \"avx_bytes\": " << r.avx_bytes
          << ", \"dma_bytes\": " << r.dma_bytes << ", \"remap_bytes\": " << r.remap_bytes
          << ", \"speedup_vs_1\": " << static_cast<double>(b.busy_max) / r.busy_max
          << ", \"identical_result\": " << (r.checksum == b.checksum ? "true" : "false")
          << "}";
    };
    out << "{\n  \"bench\": \"engines\",\n  \"remap_tier\": false,\n  \"clients\": " << kClients
        << ",\n  \"slots\": " << kSlots << ",\n  \"slot_bytes\": " << kSlotBytes
        << ",\n  \"virtual_sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      out << "    ";
      emit(sweep[i], base);
      out << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"ablation_pool_disabled\": ";
    emit(ablation, base);
    out << ",\n  \"threaded_sweep\": [\n";
    for (size_t i = 0; i < threaded.size(); ++i) {
      out << "    ";
      emit(threaded[i], tbase);
      out << (i + 1 < threaded.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"scaling_1_to_8\": " << speedup_8x
        << ",\n  \"min_scaling_1_to_8\": " << kScalingFloor << "\n}\n";
    std::printf("wrote BENCH_engines.json\n");
  }
  return floor_met && identical ? 0 : 1;
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) { return copier::bench::Run(argc, argv); }
