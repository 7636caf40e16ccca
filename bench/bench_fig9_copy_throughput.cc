// Figure 9: throughput of Copier handling Copy Tasks vs the kernel's copy
// (ERMS) and userspace copy (AVX2), with 0% and 75% buffer repetition, plus
// the ATCache ablation.
//
// Paper numbers to reproduce in shape: Copier up to ~158% over ERMS (~55% at
// 4 KiB) and ~38% over AVX2 (33% at 4 KiB) with no repetition; with 75%
// repetition +63%/+32%, ATCache contributing 2–11%.
//
// The remap tier is pinned off: page-aligned copies of >= 8 KiB would
// otherwise be aliased, no byte would reach a DMA channel, and the ATCache
// (which only prices DMA translations) would measure nothing. The ATCache
// ablation is gated in-binary: the bench exits non-zero when the gain is
// negative on any row, or not positive at 64 KiB and 256 KiB with 75%
// repetition. --json writes BENCH_fig9.json for scripts/bench_smoke.sh.
#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/common/rng.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

// Virtual time for Copier to drain `count` copies of `size`, with the given
// buffer-repetition rate. `stats_out` (optional) receives the engine
// counters of the run — the DMA dispatch picture behind the throughput.
Cycles CopierDrainTime(const hw::TimingModel& timing, size_t size, int count,
                       double repetition, bool atcache, uint64_t seed,
                       core::Engine::Stats* stats_out = nullptr) {
  core::CopierConfig config;
  config.enable_atcache = atcache;
  config.enable_remap_tier = false;  // measure the copy units, not the alias
  BenchStack stack(&timing, config);
  apps::AppProcess* app = stack.NewApp("copybench");
  // Buffer pool: with repetition r, a copy reuses a recent buffer pair with
  // probability r; otherwise it uses a fresh one.
  constexpr size_t kPool = 8;
  std::vector<uint64_t> srcs;
  std::vector<uint64_t> dsts;
  const size_t fresh_needed = static_cast<size_t>(count * (1.0 - repetition)) + kPool + 1;
  for (size_t i = 0; i < fresh_needed; ++i) {
    srcs.push_back(app->Map(size, "src"));
    dsts.push_back(app->Map(size, "dst"));
  }
  stack.service->engine().atcache().Attach(app->proc()->mem());

  Rng rng(seed);
  size_t fresh_cursor = kPool;
  // Submit in waves of 8 with the service polling in between (as the
  // concurrent Copier thread would), so the engine never idles waiting for
  // submissions and the pending list stays realistic.
  core::Client* client = stack.service->ClientById(app->proc()->copier_client_id());
  for (int i = 0; i < count; ++i) {
    size_t index;
    if (rng.NextDouble() < repetition || fresh_cursor >= srcs.size()) {
      index = rng.Below(kPool);  // recycled buffer (ATCache hit territory)
    } else {
      index = fresh_cursor++;
    }
    app->lib()->amemcpy(dsts[index], srcs[index], size, nullptr);
    if (i % 8 == 7) {
      stack.service->Serve(*client);
    }
  }
  stack.service->DrainAll();
  if (stats_out != nullptr) {
    *stats_out = stack.service->TotalStats();
  }
  return stack.service->engine_ctx().now();
}

struct Fig9Row {
  double repetition = 0;
  size_t size = 0;
  double erms = 0;
  double avx = 0;
  double copier = 0;
  double copier_noatc = 0;
  uint64_t dma_bytes = 0;
  uint64_t translate_cycles = 0;

  double atcache_gain() const { return copier / copier_noatc - 1; }
  // Gated: never negative; positive where DMA moves large reused buffers.
  bool gain_ok() const {
    const bool must_gain = repetition > 0 && (size == 64 * kKiB || size == 256 * kKiB);
    return must_gain ? atcache_gain() > 0 : atcache_gain() >= 0;
  }
};

// Returns the process exit code: non-zero when an ATCache gain gate misses.
int Run(int argc, char** argv) {
  const hw::TimingModel& t = SelectTiming(argc, argv);
  constexpr int kCount = 64;
  PrintBanner("Figure 9: copy throughput (GiB/s), Copier (AVX+DMA) vs ERMS vs AVX2");
  std::vector<Fig9Row> rows;
  bool all_ok = true;
  for (double repetition : {0.0, 0.75}) {
    std::printf("\n-- buffer repetition %.0f%% --\n", repetition * 100);
    TextTable table({"size", "ERMS", "AVX2", "Copier", "Copier/noATC", "vs ERMS", "vs AVX2",
                     "ATCache gain", "DMA bytes", "xlate cyc", "ok"});
    core::Engine::Stats dma_totals;
    for (size_t size : StandardSizes()) {
      const uint64_t bytes = static_cast<uint64_t>(size) * kCount;
      Fig9Row row;
      row.repetition = repetition;
      row.size = size;
      row.erms = GiBps(bytes, t.erms.CopyCycles(size) * kCount);
      row.avx = GiBps(bytes, t.avx.CopyCycles(size) * kCount);
      core::Engine::Stats stats;
      row.copier = GiBps(bytes, CopierDrainTime(t, size, kCount, repetition, true, 42, &stats));
      row.copier_noatc = GiBps(bytes, CopierDrainTime(t, size, kCount, repetition, false, 42));
      row.dma_bytes = stats.dma_bytes_completed;
      row.translate_cycles = stats.translate_cycles;
      dma_totals.dma_bytes_completed += stats.dma_bytes_completed;
      dma_totals.dma_rounds_parked += stats.dma_rounds_parked;
      dma_totals.dma_ring_full_fallbacks += stats.dma_ring_full_fallbacks;
      dma_totals.dma_stall_cycles += stats.dma_stall_cycles;
      dma_totals.dma_drain_wait_cycles += stats.dma_drain_wait_cycles;
      all_ok &= row.gain_ok();
      if (!row.gain_ok()) {
        std::fprintf(stderr, "MISMATCH: %.0f%% repetition, %zu B: ATCache gain %.1f%%\n",
                     repetition * 100, size, row.atcache_gain() * 100);
      }
      table.AddRow({TextTable::Bytes(size), TextTable::Num(row.erms), TextTable::Num(row.avx),
                    TextTable::Num(row.copier), TextTable::Num(row.copier_noatc),
                    TextTable::Num((row.copier / row.erms - 1) * 100, 0) + "%",
                    TextTable::Num((row.copier / row.avx - 1) * 100, 0) + "%",
                    TextTable::Num(row.atcache_gain() * 100, 1) + "%",
                    TextTable::Bytes(row.dma_bytes), TextTable::Num(row.translate_cycles, 0),
                    row.gain_ok() ? "yes" : " NO "});
      rows.push_back(row);
    }
    table.Print();
    std::printf("Copier DMA dispatch: %s offloaded, %llu parked rounds, %llu ring-full "
                "fallbacks, %llu stall cyc, %llu drain cyc\n",
                TextTable::Bytes(dma_totals.dma_bytes_completed).c_str(),
                static_cast<unsigned long long>(dma_totals.dma_rounds_parked),
                static_cast<unsigned long long>(dma_totals.dma_ring_full_fallbacks),
                static_cast<unsigned long long>(dma_totals.dma_stall_cycles),
                static_cast<unsigned long long>(dma_totals.dma_drain_wait_cycles));
  }

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_fig9.json");
    out << "{\n  \"bench\": \"fig9_copy_throughput\",\n  \"copies_per_row\": " << kCount
        << ",\n  \"remap_tier\": false,\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Fig9Row& r = rows[i];
      out << "    {\"repetition\": " << r.repetition << ", \"bytes\": " << r.size
          << ", \"erms_gibps\": " << r.erms << ", \"avx2_gibps\": " << r.avx
          << ", \"copier_gibps\": " << r.copier
          << ", \"copier_noatc_gibps\": " << r.copier_noatc
          << ", \"atcache_gain\": " << r.atcache_gain() << ", \"dma_bytes\": " << r.dma_bytes
          << ", \"translate_cycles\": " << r.translate_cycles
          << ", \"gain_ok\": " << (r.gain_ok() ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote BENCH_fig9.json\n");
  }
  if (!all_ok) {
    std::fprintf(stderr, "bench_fig9_copy_throughput: an ATCache gain gate missed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) { return copier::bench::Run(argc, argv); }
