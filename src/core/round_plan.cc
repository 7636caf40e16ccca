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

// What DMA owes for one side of a subtask, given the id of the last lookup
// already charged on that side. DMA subtasks are visited in round order, so a
// lookup shared with an earlier DMA subtask is that subtask's last.
Cycles Owed(const SideTranslation& xlate, uint64_t* charged) {
  const bool shared = xlate.first_id != 0 && xlate.first_id == *charged;
  *charged = xlate.last_id;
  return (shared ? 0 : xlate.first) + xlate.rest;
}

// One copy-cost curve (TimingModel::avx or ::dma) memoized for the last length
// asked. Most of a round's subtasks, and a run's pieces, share one length, and
// each evaluation interpolates the curve through logarithms.
class CurveCycles {
 public:
  explicit CurveCycles(const hw::ThroughputCurve& curve) : curve_(curve) {}

  Cycles operator()(size_t length) {
    if (length != length_) {
      length_ = length;
      cycles_ = curve_.CopyCycles(length);
    }
    return cycles_;
  }

 private:
  const hw::ThroughputCurve& curve_;
  size_t length_ = 0;
  Cycles cycles_ = 0;  // CopyCycles(0)
};

// A run of the DMA set: consecutive picks that one descriptor covers, each
// pick the subtask just before the previous pick, which continues it on both
// sides (Subtask::continues). Runs are the layout's units.
struct Run {
  size_t first_pick = 0;  // index into the DMA set (pick order)
  size_t picks = 0;
  size_t length = 0;
};

// The DMA side of a round, grown one pick at a time by the greedy split and
// priced as it will be laid out: runs go whole to the least-loaded channel in
// pick order, except that when the set has fewer runs than channels each run
// is cut into near-equal pieces across them — a host-contiguous DMA tail is
// then one block per channel, one descriptor each.
class DmaSide {
 public:
  DmaSide(const hw::TimingModel& timing, std::span<const Subtask> subtasks, size_t channels)
      : timing_(timing), transfer_(timing.dma), subtasks_(subtasks), closed_load_(channels, 0) {}

  const std::vector<Run>& runs() const { return runs_; }

  // Pieces a run of `length` bytes is cut into (each one descriptor).
  size_t Pieces(size_t length) const {
    const size_t min = timing_.dma_min_subtask_bytes;
    return Chunked() && length >= 2 * min ? std::min(closed_load_.size(), length / min) : 1;
  }

  // Adds subtask `idx`, picked after every subtask already in the set; `pick`
  // is its index in the set.
  void Push(size_t idx, size_t pick) {
    const size_t len = subtasks_[idx].length;
    Undo undo;
    undo.extended = !runs_.empty() && idx + 1 == last_ && subtasks_[last_].continues;
    undo.last = last_;
    if (undo.extended) {
      ++runs_.back().picks;
      runs_.back().length += len;
    } else {
      if (!runs_.empty()) {  // the open run closes: place it whole
        undo.closed_on = LeastLoaded(closed_load_);
        closed_load_[undo.closed_on] += transfer_(runs_.back().length);
      }
      runs_.push_back({pick, 1, len});
    }
    undo_ = undo;
    last_ = idx;
  }

  // Undoes the Push just made (one level).
  void Pop() {
    const Undo undo = undo_;
    if (undo.extended) {
      --runs_.back().picks;
      runs_.back().length -= subtasks_[last_].length;
    } else {
      runs_.pop_back();
      if (!runs_.empty()) {
        closed_load_[undo.closed_on] -= transfer_(runs_.back().length);
      }
    }
    last_ = undo.last;
  }

  // Transfer cycles of the busiest channel: the DMA side's makespan on
  // channels idle at round start.
  Cycles Makespan() {
    if (runs_.empty()) {
      return 0;
    }
    if (!Chunked()) {
      // Whole runs: the closed ones are placed already; add the open one.
      const Cycles open = closed_load_[LeastLoaded(closed_load_)] +
                          transfer_(runs_.back().length);
      return std::max(open, *std::max_element(closed_load_.begin(), closed_load_.end()));
    }
    std::vector<Cycles> load(closed_load_.size(), 0);
    for (const Run& run : runs_) {
      const size_t pieces = Pieces(run.length);
      for (size_t p = 0; p < pieces; ++p) {
        load[LeastLoaded(load)] += transfer_(PieceLength(run, pieces, p));
      }
    }
    return *std::max_element(load.begin(), load.end());
  }

  static size_t PieceLength(const Run& run, size_t pieces, size_t p) {
    const size_t base = run.length / pieces;
    return p + 1 == pieces ? run.length - p * base : base;
  }

 private:
  // Fewer runs than channels: runs are cut across channels.
  bool Chunked() const { return closed_load_.size() > 1 && runs_.size() < closed_load_.size(); }

  struct Undo {
    bool extended = false;  // the push grew the open run (else opened one)
    size_t last = 0;        // last_ before the push
    size_t closed_on = 0;   // channel the previously open run was placed on
  };

  const hw::TimingModel& timing_;
  CurveCycles transfer_;  // TimingModel::DmaTransferCycles
  std::span<const Subtask> subtasks_;
  std::vector<Run> runs_;
  std::vector<Cycles> closed_load_;  // runs but the last, placed whole
  Undo undo_;  // of the last Push
  size_t last_ = 0;  // the last subtask pushed
};

}  // namespace

RoundPlan PlanRound(const hw::TimingModel& timing, const CopierConfig& config,
                    std::span<const Subtask> subtasks, size_t channels) {
  RoundPlan plan;
  plan.channel_chunks.resize(channels);
  CurveCycles avx(timing.avx);  // TimingModel::CpuCopyCycles(kAvx, ·)
  CurveCycles transfer(timing.dma);

  // Pick the DMA set. Piggybacking draws DMA candidates from the *tail* of
  // the round (latter part of a large task — i-piggyback — or latter tasks of
  // a fused round — e-piggyback) because later bytes have longer Copy-Use
  // windows, and balances the two units' completion times.
  std::vector<bool> on_dma(subtasks.size(), false);
  DmaSide side(timing, subtasks, channels);
  if (config.use_dma && config.enable_piggyback && channels > 0) {
    // Channel-aware greedy split: a candidate moves to DMA while the DMA
    // side's makespan — the set laid out and coalesced exactly as it will be
    // submitted — stays within the tolerance over the remaining AVX time.
    // Both units finish close together and the CPU never idles waiting
    // (§4.3); the slack biases toward engaging DMA — a short confirmed wait
    // beats leaving the second unit idle. Loads start at zero: the round
    // balances its own work.
    Cycles avx_time = 0;
    for (const Subtask& st : subtasks) {
      avx_time += avx(st.length);
    }
    const size_t tol = timing.piggyback_greedy_tolerance_pct;
    for (size_t i = subtasks.size(); i-- > 0;) {
      const Subtask& st = subtasks[i];
      if (!st.dma_eligible) {
        continue;
      }
      const Cycles rem_avx = avx_time - avx(st.length);
      side.Push(i, plan.dma_set.size());
      if (side.Makespan() <= rem_avx + rem_avx * tol / 100) {
        plan.dma_set.push_back(i);
        on_dma[i] = true;
        avx_time = rem_avx;
      } else {
        side.Pop();
      }
    }
  }

  // DMA needs explicit physical addresses (§4.3): ~240 cycles per page walk,
  // one ATCache probe per cached extent. Each side pays every lookup its DMA
  // subtasks span once, even when a CPU subtask's bytes also relied on it.
  // CPU copies pay nothing (MMU).
  uint64_t dst_charged = 0;
  uint64_t src_charged = 0;
  for (size_t i = 0; i < subtasks.size(); ++i) {
    if (on_dma[i]) {
      plan.translate_cycles += Owed(subtasks[i].dst_xlate, &dst_charged) +
                               Owed(subtasks[i].src_xlate, &src_charged);
    }
  }

  // Lay the DMA side out as priced: each piece of a run is one descriptor on
  // the least-loaded channel, its chunks in address order, every chunk after
  // the first joining the piece's descriptor.
  std::vector<Cycles> load(channels, 0);
  for (const Run& run : side.runs()) {
    const size_t pieces = side.Pieces(run.length);
    size_t pick = run.first_pick + run.picks - 1;  // the run's lowest subtask
    size_t in_subtask = 0;
    for (size_t p = 0; p < pieces; ++p) {
      const size_t piece = DmaSide::PieceLength(run, pieces, p);
      const size_t least = LeastLoaded(load);
      load[least] += transfer(piece);
      for (size_t left = piece; left > 0;) {
        const size_t idx = plan.dma_set[pick];
        const size_t len = std::min(left, subtasks[idx].length - in_subtask);
        plan.channel_chunks[least].push_back({idx, in_subtask, len, left != piece});
        left -= len;
        in_subtask += len;
        if (in_subtask == subtasks[idx].length) {
          --pick;  // wraps past the run's first pick only once the run is done
          in_subtask = 0;
        }
      }
    }
  }

  // Price the round as the executor runs it: translation, then each
  // channel's doorbell in channel order (a batch starts moving
  // dma_submit_cycles after its doorbell), then the CPU copies while the
  // batches are in flight.
  Cycles cpu = plan.translate_cycles;
  Cycles dma_makespan = 0;
  for (size_t c = 0; c < channels; ++c) {
    const std::vector<RoundChunk>& chunks = plan.channel_chunks[c];
    if (chunks.empty()) {
      continue;
    }
    const size_t descs = std::count_if(chunks.begin(), chunks.end(),
                                       [](const RoundChunk& ch) { return !ch.joins; });
    cpu += timing.DmaSubmissionCost(descs);
    dma_makespan = std::max(dma_makespan, cpu + timing.dma_submit_cycles + load[c]);
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
             transfer(st.length) + timing.dma_completion_check_cycles;
    } else {
      cpu += avx(st.length);
    }
  }
  plan.makespan = std::max(cpu, dma_makespan);
  return plan;
}

}  // namespace copier::core
