// Channel sweep: non-blocking multi-channel DMA (DESIGN.md §9).
//
// The same steady-state large-copy loop runs over 1→8 DMA channels with
// asynchronous completion (rounds park their in-flight batches and the
// reaper lands them on later serves), plus the blocking single-channel
// baseline (the pre-§9 engine: every round ends in a busy-wait on the DMA
// tail). Reported per configuration:
//   * throughput (GiB/s of virtual time) and speedup over 1 async channel,
//   * dma_stall_cycles — end-of-round blocking waits (~0 when async),
//   * dma_drain_wait_cycles — clock advanced to completions at barriers,
//   * parked rounds and ring-full CPU fallbacks,
//   * an FNV-1a checksum of the destination, compared against the blocking
//     baseline: the async multi-channel engine must land identical bytes.
//
// The remap tier is pinned off: the page-aligned 1 MiB copy would otherwise
// be aliased and no byte would reach a channel. The 1 -> 4 channel scaling is
// gated in-binary: below the 1.5x floor the bench exits non-zero.
//
// --json additionally writes BENCH_dma_channels.json for scripts/bench_smoke.sh.
#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/common/rng.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

struct ChannelResult {
  size_t channels = 0;
  bool async = true;
  Cycles cycles = 0;
  uint64_t bytes = 0;
  uint64_t stall_cycles = 0;
  uint64_t drain_wait_cycles = 0;
  uint64_t parked_rounds = 0;
  uint64_t ring_full_fallbacks = 0;
  uint64_t dma_bytes = 0;
  uint64_t avx_bytes = 0;
  uint64_t translate_cycles = 0;  // VA->PA charge of the DMA side
  uint64_t kfunc_cycles = 0;      // KFUNC dispatch charged to the engine
  uint64_t atcache_hits = 0;      // ATCache extent probes
  uint64_t atcache_misses = 0;
  uint64_t checksum = 0;
};

ChannelResult RunChannels(const hw::TimingModel& t, size_t channels, bool async) {
  core::CopierConfig config;
  config.dma_channel_count = channels;
  config.enable_async_dma_completion = async;
  config.enable_remap_tier = false;  // measure the channels, not the alias
  BenchStack stack(&t, config);
  apps::AppProcess* app = stack.NewApp("dmabench");
  const size_t kCopy = 1 * kMiB;
  constexpr int kIters = 24;
  const uint64_t src = app->Map(kCopy, "src");
  const uint64_t dst = app->Map(kCopy, "dst");
  {
    Rng rng(0xD31A);  // same image in every configuration
    std::vector<uint8_t> bytes(kCopy);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    COPIER_CHECK(app->proc()->mem().WriteBytes(src, bytes.data(), kCopy).ok());
  }
  // Warm-up pass: populate the ATCache so the sweep measures the steady
  // state, not first-touch page walks (cold translations cost ~240 cycles a
  // page and mask the channel scaling).
  app->lib()->amemcpy(dst, src, kCopy, &app->ctx());
  COPIER_CHECK_OK(app->lib()->csync(dst, kCopy, &app->ctx()));

  const Cycles start = stack.service->engine_ctx().now();
  const core::Engine::Stats before = stack.service->TotalStats();
  const core::ATCache& cache = stack.service->engine().atcache();
  const uint64_t hits_before = cache.hits();
  const uint64_t misses_before = cache.misses();
  for (int i = 0; i < kIters; ++i) {
    app->lib()->amemcpy(dst, src, kCopy, &app->ctx());
    COPIER_CHECK_OK(app->lib()->csync(dst, kCopy, &app->ctx()));
  }
  stack.service->DrainAll();

  ChannelResult result;
  result.channels = channels;
  result.async = async;
  result.cycles = stack.service->engine_ctx().now() - start;
  result.bytes = static_cast<uint64_t>(kCopy) * kIters;
  const core::Engine::Stats after = stack.service->TotalStats();
  result.stall_cycles = after.dma_stall_cycles - before.dma_stall_cycles;
  result.drain_wait_cycles = after.dma_drain_wait_cycles - before.dma_drain_wait_cycles;
  result.parked_rounds = after.dma_rounds_parked - before.dma_rounds_parked;
  result.ring_full_fallbacks = after.dma_ring_full_fallbacks - before.dma_ring_full_fallbacks;
  result.dma_bytes = after.dma_bytes_completed - before.dma_bytes_completed;
  result.avx_bytes = after.avx_bytes - before.avx_bytes;
  result.translate_cycles = after.translate_cycles - before.translate_cycles;
  result.kfunc_cycles = after.kfunc_cycles - before.kfunc_cycles;
  result.atcache_hits = cache.hits() - hits_before;
  result.atcache_misses = cache.misses() - misses_before;

  uint64_t hash = 1469598103934665603ull;  // FNV-1a over the destination
  std::vector<uint8_t> image(kCopy);
  if (!app->proc()->mem().ReadBytes(dst, image.data(), image.size()).ok()) {
    std::fprintf(stderr, "destination readback failed at %zu channels\n", channels);
  }
  for (uint8_t byte : image) {
    hash = (hash ^ byte) * 1099511628211ull;
  }
  result.checksum = hash;
  return result;
}

constexpr double kScalingFloor = 1.5;  // 1 -> 4 async channels

// Returns the process exit code: non-zero when the scaling floor is missed.
int Run(int argc, char** argv) {
  const hw::TimingModel& t = SelectTiming(argc, argv);
  PrintBanner("DMA channel sweep: async parked rounds vs blocking single channel");
  const std::vector<size_t> channel_counts = {1, 2, 4, 8};

  const ChannelResult blocking = RunChannels(t, 1, /*async=*/false);
  std::vector<ChannelResult> sweep;
  for (size_t channels : channel_counts) {
    sweep.push_back(RunChannels(t, channels, /*async=*/true));
  }
  const ChannelResult& base = sweep.front();  // 1 async channel

  TextTable table({"config", "GiB/s", "vs 1ch", "stall cyc", "drain cyc", "parked",
                   "fallbacks", "DMA share", "xlate cyc", "kfunc cyc", "ATC hit/miss",
                   "identical"});
  auto add_row = [&](const ChannelResult& r, const char* label) {
    const double gibps = GiBps(r.bytes, r.cycles);
    table.AddRow({label, TextTable::Num(gibps),
                  TextTable::Num(static_cast<double>(base.cycles) / r.cycles, 2) + "x",
                  TextTable::Num(r.stall_cycles, 0), TextTable::Num(r.drain_wait_cycles, 0),
                  TextTable::Num(r.parked_rounds, 0),
                  TextTable::Num(r.ring_full_fallbacks, 0),
                  TextTable::Num(100.0 * r.dma_bytes / (r.dma_bytes + r.avx_bytes), 0) + "%",
                  TextTable::Num(r.translate_cycles, 0), TextTable::Num(r.kfunc_cycles, 0),
                  std::to_string(r.atcache_hits) + "/" + std::to_string(r.atcache_misses),
                  r.checksum == blocking.checksum ? "yes" : "NO"});
    if (r.checksum != blocking.checksum) {
      std::fprintf(stderr, "MISMATCH: %s image differs from the blocking baseline\n", label);
    }
  };
  add_row(blocking, "1 ch, blocking");
  const std::vector<std::string> labels = {"1 ch, async", "2 ch, async", "4 ch, async",
                                           "8 ch, async"};
  for (size_t i = 0; i < sweep.size(); ++i) {
    add_row(sweep[i], labels[i].c_str());
  }
  table.Print();
  const double scaling = static_cast<double>(base.cycles) / sweep[2].cycles;
  const bool floor_met = scaling >= kScalingFloor;
  std::printf("\nscaling 1 -> 4 async channels: %.2fx (acceptance floor %.1fx) %s\n", scaling,
              kScalingFloor, floor_met ? "ok" : "MISSED");

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_dma_channels.json");
    auto emit = [&](const ChannelResult& r) {
      out << "{\"channels\": " << r.channels << ", \"async\": " << (r.async ? "true" : "false")
          << ", \"gibps\": " << GiBps(r.bytes, r.cycles) << ", \"cycles\": " << r.cycles
          << ", \"stall_cycles\": " << r.stall_cycles
          << ", \"drain_wait_cycles\": " << r.drain_wait_cycles
          << ", \"parked_rounds\": " << r.parked_rounds
          << ", \"ring_full_fallbacks\": " << r.ring_full_fallbacks
          << ", \"dma_bytes\": " << r.dma_bytes << ", \"avx_bytes\": " << r.avx_bytes
          << ", \"translate_cycles\": " << r.translate_cycles
          << ", \"kfunc_cycles\": " << r.kfunc_cycles
          << ", \"atcache_hits\": " << r.atcache_hits
          << ", \"atcache_misses\": " << r.atcache_misses
          << ", \"speedup_vs_1ch_async\": "
          << static_cast<double>(base.cycles) / r.cycles << ", \"identical_result\": "
          << (r.checksum == blocking.checksum ? "true" : "false") << "}";
    };
    out << "{\n  \"bench\": \"dma_channels\",\n  \"copy_bytes\": " << (1 * kMiB)
        << ",\n  \"iters\": 24,\n  \"blocking_baseline\": ";
    emit(blocking);
    out << ",\n  \"sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      out << "    ";
      emit(sweep[i]);
      out << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"scaling_1_to_4\": "
        << static_cast<double>(base.cycles) / sweep[2].cycles << "\n}\n";
    std::printf("wrote BENCH_dma_channels.json\n");
  }
  if (!floor_met) {
    std::fprintf(stderr, "bench_dma_channels: 1 -> 4 channel scaling %.2fx is below %.1fx\n",
                 scaling, kScalingFloor);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) { return copier::bench::Run(argc, argv); }
