#include "src/core/round_plan.h"

#include <algorithm>

namespace copier::core {
namespace {

size_t LeastLoaded(const std::vector<Cycles>& load) {
  size_t least = 0;
  for (size_t c = 1; c < load.size(); ++c) {
    if (load[c] < load[least]) {
      least = c;
    }
  }
  return least;
}

}  // namespace

RoundPlan PlanRound(const hw::TimingModel& timing, const CopierConfig& config,
                    std::span<const Subtask> subtasks, size_t channels) {
  RoundPlan plan;
  plan.channel_chunks.resize(channels);
  const auto avx = [&timing](size_t length) {
    return timing.CpuCopyCycles(hw::CopyUnitKind::kAvx, length);
  };

  // Pick the DMA set. Piggybacking draws DMA candidates from the *tail* of
  // the round (latter part of a large task — i-piggyback — or latter tasks of
  // a fused round — e-piggyback) because later bytes have longer Copy-Use
  // windows, and balances the two units' completion times.
  std::vector<bool> on_dma(subtasks.size(), false);
  if (config.use_dma && config.enable_piggyback && channels > 0) {
    // Channel-aware greedy split: a candidate moves to DMA while the
    // *aggregate* DMA makespan — each candidate placed on the least-loaded
    // channel — stays within the tolerance over the remaining AVX time.
    // Both units finish close together and the CPU never idles waiting
    // (§4.3); the slack biases toward engaging DMA — a short confirmed wait
    // beats leaving the second unit idle. Loads start at zero: the round
    // balances its own work (with one channel this is exactly the serial
    // dma_time accumulation of the single-engine split).
    Cycles avx_time = 0;
    for (const Subtask& st : subtasks) {
      avx_time += avx(st.length);
    }
    std::vector<Cycles> load(channels, 0);
    const size_t tol = timing.piggyback_greedy_tolerance_pct;
    for (size_t i = subtasks.size(); i-- > 0;) {
      const Subtask& st = subtasks[i];
      if (!st.dma_eligible) {
        continue;
      }
      const Cycles st_avx = avx(st.length);
      const Cycles st_dma = timing.DmaTransferCycles(st.length);
      const size_t least = LeastLoaded(load);
      Cycles makespan = load[least] + st_dma;
      for (size_t c = 0; c < channels; ++c) {
        if (c != least) {
          makespan = std::max(makespan, load[c]);
        }
      }
      const Cycles rem_avx = avx_time - st_avx;
      if (makespan <= rem_avx + rem_avx * tol / 100) {
        plan.dma_set.push_back(i);
        on_dma[i] = true;
        load[least] += st_dma;
        avx_time -= st_avx;
      }
    }
  }

  // Lay the DMA side out: one descriptor batch per channel, chunks assigned
  // least-loaded-first. A large subtask is chunked across channels only when
  // the round has fewer DMA subtasks than channels (otherwise whole subtasks
  // already spread, and chunking would just multiply per-descriptor cost).
  std::vector<Cycles> transfer(channels, 0);
  const bool chunk_large = channels > 1 && plan.dma_set.size() < channels;
  for (size_t idx : plan.dma_set) {
    const Subtask& st = subtasks[idx];
    // DMA needs explicit physical addresses: ~240 cycles per page-table
    // walk, amortized by the ATCache (§4.3). CPU copies pay nothing (MMU).
    plan.translate_cycles += st.pages_cached * timing.atcache_hit_cycles +
                             st.pages_uncached * timing.va_translate_cycles_per_page;
    size_t pieces = 1;
    if (chunk_large && st.length >= 2 * timing.dma_min_subtask_bytes) {
      pieces = std::min(channels, st.length / timing.dma_min_subtask_bytes);
    }
    const size_t base = st.length / pieces;
    size_t off = 0;
    for (size_t p = 0; p < pieces; ++p) {
      const size_t len = (p + 1 == pieces) ? st.length - off : base;
      const size_t least = LeastLoaded(transfer);
      plan.channel_chunks[least].push_back({idx, off, len});
      transfer[least] += timing.DmaTransferCycles(len);
      off += len;
    }
  }

  // Price the round as the executor runs it: translation, then each
  // channel's doorbell in channel order (a batch starts moving
  // dma_submit_cycles after its doorbell), then the CPU copies while the
  // batches are in flight.
  Cycles cpu = plan.translate_cycles;
  Cycles dma_makespan = 0;
  for (size_t c = 0; c < channels; ++c) {
    const size_t descs = plan.channel_chunks[c].size();
    if (descs == 0) {
      continue;
    }
    cpu += timing.DmaSubmissionCost(descs);
    dma_makespan = std::max(dma_makespan, cpu + timing.dma_submit_cycles + transfer[c]);
  }
  const bool naive_dma = config.use_dma && !config.enable_piggyback && channels > 0;
  for (size_t i = 0; i < subtasks.size(); ++i) {
    const Subtask& st = subtasks[i];
    if (on_dma[i]) {
      continue;
    }
    if (naive_dma && st.dma_eligible) {
      // Naive DMA (ablation): submit one descriptor, wait it out, confirm.
      cpu += timing.DmaSubmissionCost(1) + timing.dma_submit_cycles +
             timing.DmaTransferCycles(st.length) + timing.dma_completion_check_cycles;
    } else {
      cpu += avx(st.length);
    }
  }
  plan.makespan = std::max(cpu, dma_makespan);
  return plan;
}

}  // namespace copier::core
