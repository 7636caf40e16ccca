#include "src/core/round_plan.h"

#include <algorithm>
#include <array>
#include <limits>

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

// What DMA owes for one side of subtask `next` when `prev` is the DMA
// subtask charged just before it: a lookup shared with `prev` is paid once.
Cycles SharedDiscount(const SideTranslation& prev, const SideTranslation& next) {
  return next.first_id != 0 && next.first_id == prev.last_id ? next.first : 0;
}

// One copy-cost curve (TimingModel::avx or ::dma) memoized for the last few
// lengths asked. Most of a round's subtasks share one length, a spread run's
// pieces take at most four (each wave's and the last wave's, base and
// remainder), and each evaluation interpolates the curve through logarithms.
class CurveCycles {
 public:
  explicit CurveCycles(const hw::ThroughputCurve& curve) : curve_(curve) {}

  Cycles operator()(size_t length) {
    for (const Entry& entry : memo_) {
      if (entry.length == length) {
        return entry.cycles;
      }
    }
    Entry& entry = memo_[next_++ % memo_.size()];
    entry = {length, curve_.CopyCycles(length)};
    return entry.cycles;
  }

 private:
  struct Entry {
    size_t length = 0;
    Cycles cycles = 0;  // CopyCycles(0)
  };
  const hw::ThroughputCurve& curve_;
  std::array<Entry, 4> memo_{};
  size_t next_ = 0;
};

// Near-equal cut of `length` bytes into `parts`: part p's length.
size_t PartLength(size_t length, size_t parts, size_t p) {
  const size_t base = length / parts;
  return p + 1 == parts ? length - p * base : base;
}

// How a candidate DMA set is cut into descriptors: a host-contiguous run is
// spread across the channels in `waves` waves, several runs are spread when
// fewer than the channels — or, unspread, every run is one descriptor.
struct Cut {
  size_t waves = 1;
  bool spread = true;
};

struct Price {
  Cycles makespan = 0;
  Cycles engine_free = 0;
  Cycles objective() const { return makespan + engine_free; }
};

// Prices candidate rounds: the DMA set is every eligible subtask from a split
// index on, laid out as it will be submitted. Positions are round byte
// offsets (subtask i covers [pos_[i], pos_[i + 1])).
class RoundPricer {
 public:
  RoundPricer(const hw::TimingModel& timing, const CopierConfig& config,
              std::span<const Subtask> subtasks, size_t channels)
      : timing_(timing),
        config_(config),
        subtasks_(subtasks),
        channels_(channels),
        transfer_(timing.dma) {
    const size_t n = subtasks.size();
    CurveCycles avx(timing.avx);
    free_.assign(channels, 0);
    pos_.assign(n + 1, 0);
    kfunc_pos_.clear();
    eligible_.clear();
    for (size_t i = 0; i < n; ++i) {
      const Subtask& st = subtasks[i];
      pos_[i + 1] = pos_[i] + st.length;
      avx_total_ += avx(st.length);
      for (size_t end : st.kfunc_ends) {
        kfunc_pos_.push_back(pos_[i] + end - st.task_offset);
      }
      kfuncs_deferred_ |= st.kfuncs_deferred;
    }
    if (!std::is_sorted(kfunc_pos_.begin(), kfunc_pos_.end())) {
      std::sort(kfunc_pos_.begin(), kfunc_pos_.end());
    }
    // Suffix tables over split indices: the AVX time the DMA set takes off
    // the CPU, its translation (each lookup a DMA subtask spans charged once
    // per side), and where the run starting at each eligible subtask ends.
    dma_avx_.assign(n + 1, 0);
    xlate_.assign(n + 1, 0);
    run_end_.assign(n, 0);
    size_t next = n;  // the next eligible subtask after i
    for (size_t i = n; i-- > 0;) {
      const Subtask& st = subtasks[i];
      dma_avx_[i] = dma_avx_[i + 1];
      xlate_[i] = xlate_[i + 1];
      if (!st.dma_eligible) {
        continue;
      }
      dma_avx_[i] += avx(st.length);
      xlate_[i] += st.dst_xlate.first + st.dst_xlate.rest + st.src_xlate.first +
                   st.src_xlate.rest;
      if (next < n) {
        xlate_[i] -= SharedDiscount(st.dst_xlate, subtasks[next].dst_xlate) +
                     SharedDiscount(st.src_xlate, subtasks[next].src_xlate);
      }
      run_end_[i] = next < n && next == i + 1 && subtasks[next].continues ? run_end_[next] : i + 1;
      if (eligible_.empty()) {
        last_eligible_ = i;
      }
      eligible_.push_back(i);
      next = i;
    }
    std::reverse(eligible_.begin(), eligible_.end());
  }

  // Per-candidate scratch of the split search.
  std::vector<Price>& memo() { return storage_.memo; }

  // Split candidates: the eligible subtasks ascending, then "no DMA".
  size_t candidates() const { return eligible_.size() + 1; }
  size_t Split(size_t k) const { return k < eligible_.size() ? eligible_[k] : subtasks_.size(); }

  // Where a search starts: the candidate at which the CPU copies stop
  // outlasting the DMA tail cut across `channels` — a cheap stand-in for the
  // balance point the search then finds exactly.
  size_t BalanceHint(size_t channels) {
    const size_t n = subtasks_.size();
    size_t lo = 0;
    size_t hi = eligible_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const size_t split = eligible_[mid];
      if (avx_total_ - dma_avx_[split] < transfer_((pos_[n] - pos_[split]) / channels)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Most waves worth trying: waves only let early KFUNCs drain while later
  // bytes are in flight, so a round without KFUNCs (or with blocking
  // completion) runs one; each wave is a batch per channel in every ring.
  size_t MaxWaves() const {
    if (kfunc_pos_.empty() || !config_.enable_async_dma_completion || eligible_.empty()) {
      return 1;
    }
    const size_t bytes = pos_[subtasks_.size()] - pos_[eligible_.front()];
    return std::max<size_t>(
        1, std::min(bytes / (channels_ * timing_.dma_min_subtask_bytes), config_.dma_ring_slots));
  }

  // Prices the round with the DMA set taken from `split` on, cut as `cut`.
  Price Evaluate(size_t split, Cut cut) {
    Layout(split, cut);
    const size_t n = subtasks_.size();
    Cycles cpu = xlate_[split];
    Cycles last_landed = 0;
    std::fill(free_.begin(), free_.end(), 0);
    land_.resize(batches_.size());
    for (size_t b = 0; b < batches_.size(); ++b) {
      const Batch& batch = batches_[b];
      cpu += timing_.DmaSubmissionCost(batch.descs);
      const Cycles start = std::max(cpu + timing_.dma_submit_cycles, free_[batch.channel]);
      land_[b] = free_[batch.channel] = start + batch.transfer;
      last_landed = std::max(last_landed, land_[b]);
    }
    // The CPU copies; the KFUNCs of segments ending before the first DMA
    // byte fire inline as their bytes land — or, deferred, first thing after
    // the round.
    const Cycles dispatch = timing_.handler_dispatch_cycles;
    const size_t inline_kfuncs = KfuncsUpTo(pos_[split]);
    cpu += avx_total_ - dma_avx_[split];
    const Cycles after_round = cpu + inline_kfuncs * dispatch;
    if (!kfuncs_deferred_) {
      cpu = after_round;
    }

    Price price;
    price.makespan = std::max(cpu, last_landed);
    if (batches_.empty()) {
      price.engine_free = after_round;
      return price;
    }
    const Cycles check = timing_.dma_completion_check_cycles;
    if (!config_.enable_async_dma_completion) {
      // Blocking: the round waits out every batch, confirms each, then every
      // remaining KFUNC fires.
      price.engine_free = std::max(after_round, last_landed) + batches_.size() * check +
                          (kfunc_pos_.size() - inline_kfuncs) * dispatch;
      return price;
    }
    // Parked: batches are reaped in landing order (ties: submission order),
    // each once it has landed and the engine is free; a reap fires every
    // segment whose bytes have all landed.
    order_.resize(batches_.size());
    for (size_t b = 0; b < order_.size(); ++b) {
      order_[b] = b;
    }
    std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      return land_[a] != land_[b] ? land_[a] < land_[b] : a < b;
    });
    landed_.assign(batches_.size(), false);
    size_t frontier = 0;  // first descriptor (address order) not yet landed
    size_t fired = inline_kfuncs;
    Cycles t = after_round;
    for (size_t b : order_) {
      t = std::max(t, land_[b]) + check;
      landed_[b] = true;
      while (frontier < descs_.size() && landed_[descs_[frontier].batch]) {
        ++frontier;
      }
      const size_t now_fired =
          KfuncsUpTo(frontier < descs_.size() ? descs_[frontier].begin : pos_[n]);
      t += (now_fired - fired) * dispatch;
      fired = now_fired;
    }
    price.engine_free = t;
    return price;
  }

  // Writes the layout Evaluate(split, cut) priced into `plan`.
  void Emit(size_t split, Cut cut, RoundPlan* plan) {
    Layout(split, cut);
    plan->waves = batches_.empty() ? 0 : waves_;
    plan->translate_cycles = xlate_[split];
    for (size_t i = split; i < subtasks_.size(); ++i) {
      if (subtasks_[i].dma_eligible) {
        plan->dma_set.push_back(i);
      }
    }
    plan->batches.resize(batches_.size());
    for (size_t b = 0; b < batches_.size(); ++b) {
      plan->batches[b].channel = batches_[b].channel;
    }
    size_t idx = split;  // descriptors come in address order
    for (const Desc& desc : descs_) {
      std::vector<RoundChunk>& chunks = plan->batches[desc.batch].chunks;
      for (size_t at = desc.begin; at < desc.end;) {
        while (pos_[idx + 1] <= at) {
          ++idx;
        }
        const size_t len = std::min(desc.end, pos_[idx + 1]) - at;
        chunks.push_back({idx, at - pos_[idx], len, at != desc.begin});
        at += len;
      }
    }
  }

 private:
  // A descriptor of the candidate layout: round positions [begin, end).
  struct Desc {
    size_t begin = 0;
    size_t end = 0;
    size_t batch = 0;  // index into batches_
  };
  struct Batch {
    size_t channel = 0;
    size_t descs = 0;
    Cycles transfer = 0;
  };

  // Pieces a run of `length` bytes is cut into across channels (each one
  // descriptor).
  size_t Pieces(size_t length) const {
    const size_t min = timing_.dma_min_subtask_bytes;
    return channels_ > 1 && length >= 2 * min ? std::min(channels_, length / min) : 1;
  }

  size_t KfuncsUpTo(size_t pos) const {
    return std::upper_bound(kfunc_pos_.begin(), kfunc_pos_.end(), pos) - kfunc_pos_.begin();
  }

  // Lays the DMA set out as it will be submitted. A spread host-contiguous
  // run is cut into `cut.waves` near-equal waves in address order (fewer if
  // a wave would drop below dma_min_subtask_bytes), each wave into
  // near-equal pieces on channels 0, 1, ... — one descriptor and one batch
  // per piece. Otherwise runs go tail first to the least-loaded
  // channel, whole — or, spread with fewer runs than channels, cut into
  // pieces the same way — and each channel's descriptors form one batch.
  // descs_ ends up in address order, batches_ in submission order.
  void Layout(size_t split, Cut cut) {
    descs_.clear();
    batches_.clear();
    waves_ = 1;
    const size_t n = subtasks_.size();
    if (split >= n) {
      return;
    }
    if (run_end_[split] > last_eligible_ && cut.spread) {  // one run
      const size_t begin = pos_[split];
      const size_t length = pos_[run_end_[split]] - begin;
      waves_ = std::clamp<size_t>(length / timing_.dma_min_subtask_bytes, 1, cut.waves);
      size_t at = begin;
      for (size_t w = 0; w < waves_; ++w) {
        const size_t wave = PartLength(length, waves_, w);
        const size_t pieces = Pieces(wave);
        for (size_t p = 0; p < pieces; ++p) {
          const size_t piece = PartLength(wave, pieces, p);
          descs_.push_back({at, at + piece, batches_.size()});
          batches_.push_back({p, 1, transfer_(piece)});
          at += piece;
        }
      }
      return;
    }
    runs_.clear();  // [begin, end) positions, tail first
    for (size_t i = split; i < n; ++i) {
      if (subtasks_[i].dma_eligible) {
        runs_.push_back({pos_[i], pos_[run_end_[i]]});
        i = run_end_[i] - 1;
      }
    }
    std::reverse(runs_.begin(), runs_.end());
    const bool chunked = cut.spread && channels_ > 1 && runs_.size() < channels_;
    load_.assign(channels_, 0);
    channel_descs_.resize(channels_);
    for (std::vector<Desc>& descs : channel_descs_) {
      descs.clear();
    }
    for (const auto& [begin, end] : runs_) {
      const size_t pieces = chunked ? Pieces(end - begin) : 1;
      size_t at = begin;
      for (size_t p = 0; p < pieces; ++p) {
        const size_t piece = PartLength(end - begin, pieces, p);
        const size_t least = LeastLoaded(load_);
        load_[least] += transfer_(piece);
        channel_descs_[least].push_back({at, at + piece, 0});
        at += piece;
      }
    }
    for (size_t c = 0; c < channels_; ++c) {
      if (channel_descs_[c].empty()) {
        continue;
      }
      for (Desc& desc : channel_descs_[c]) {
        desc.batch = batches_.size();
        descs_.push_back(desc);
      }
      batches_.push_back({c, channel_descs_[c].size(), load_[c]});
    }
    std::sort(descs_.begin(), descs_.end(),
              [](const Desc& a, const Desc& b) { return a.begin < b.begin; });
  }

  const hw::TimingModel& timing_;
  const CopierConfig& config_;
  std::span<const Subtask> subtasks_;
  size_t channels_;
  CurveCycles transfer_;  // TimingModel::DmaTransferCycles

  Cycles avx_total_ = 0;
  bool kfuncs_deferred_ = false;  // no KFUNC fires inline
  size_t last_eligible_ = 0;
  size_t waves_ = 1;  // waves of the current layout

  // The tables and the scratch of the current layout live in per-thread
  // storage reused from round to round: every round is planned, and small
  // ones must not pay for allocation.
  struct Storage {
    std::vector<size_t> pos;
    std::vector<size_t> kfunc_pos;
    std::vector<Cycles> dma_avx;
    std::vector<Cycles> xlate;
    std::vector<size_t> run_end;
    std::vector<size_t> eligible;
    std::vector<Desc> descs;
    std::vector<Batch> batches;
    std::vector<std::pair<size_t, size_t>> runs;
    std::vector<std::vector<Desc>> channel_descs;
    std::vector<Cycles> load;
    std::vector<Cycles> free;
    std::vector<Cycles> land;
    std::vector<size_t> order;
    std::vector<bool> landed;
    std::vector<Price> memo;
  };
  static Storage& ThreadStorage() {
    thread_local Storage storage;
    return storage;
  }
  Storage& storage_ = ThreadStorage();
  std::vector<size_t>& pos_ = storage_.pos;
  std::vector<size_t>& kfunc_pos_ = storage_.kfunc_pos;  // each KFUNC's last byte
  std::vector<Cycles>& dma_avx_ = storage_.dma_avx;      // per split: DMA set's AVX time
  std::vector<Cycles>& xlate_ = storage_.xlate;          // per split: its translation
  std::vector<size_t>& run_end_ = storage_.run_end;      // per eligible subtask: run end
  std::vector<size_t>& eligible_ = storage_.eligible;    // ascending
  std::vector<Desc>& descs_ = storage_.descs;
  std::vector<Batch>& batches_ = storage_.batches;
  std::vector<std::pair<size_t, size_t>>& runs_ = storage_.runs;
  std::vector<std::vector<Desc>>& channel_descs_ = storage_.channel_descs;
  std::vector<Cycles>& load_ = storage_.load;
  std::vector<Cycles>& free_ = storage_.free;
  std::vector<Cycles>& land_ = storage_.land;
  std::vector<size_t>& order_ = storage_.order;
  std::vector<bool>& landed_ = storage_.landed;
};

}  // namespace

RoundPlan PlanRound(const hw::TimingModel& timing, const CopierConfig& config,
                    std::span<const Subtask> subtasks, size_t channels) {
  // Everything on the CPU first: with naive DMA (ablation) each eligible
  // subtask is submitted, waited out and confirmed on its own. Every KFUNC
  // fires inline.
  RoundPlan plan;
  const bool piggyback = config.use_dma && config.enable_piggyback && channels > 0;
  const bool naive_dma = config.use_dma && !config.enable_piggyback && channels > 0;
  Cycles cpu = 0;
  size_t kfuncs = 0;
  bool deferred = false;
  bool eligible = false;
  for (const Subtask& st : subtasks) {
    if (naive_dma && st.dma_eligible) {
      cpu += timing.DmaSubmissionCost(1) + timing.dma_submit_cycles +
             timing.DmaTransferCycles(st.length) + timing.dma_completion_check_cycles;
    } else {
      cpu += timing.CpuCopyCycles(hw::CopyUnitKind::kAvx, st.length);
    }
    kfuncs += st.kfunc_ends.size();
    deferred |= st.kfuncs_deferred;
    eligible |= st.dma_eligible;
  }
  // Deferred KFUNCs fire right after the round instead of inline.
  const Cycles after_round = cpu + kfuncs * timing.handler_dispatch_cycles;
  plan.makespan = deferred ? cpu : after_round;
  plan.engine_free = after_round;
  // With piggybacking, no DMA batch lands before its doorbell, the doorbell
  // latency and a dma_min_subtask_bytes transfer, and the engine is not free
  // before it lands: a round whose CPU-only completion times sum to at most
  // twice that has no better split.
  if (!piggyback || !eligible ||
      plan.makespan + plan.engine_free <=
          2 * (timing.DmaSubmissionCost(1) + timing.dma_submit_cycles +
               timing.DmaTransferCycles(timing.dma_min_subtask_bytes))) {
    return plan;
  }

  // Piggybacking draws DMA candidates from the *tail* of the round (latter
  // part of a large task — i-piggyback — or latter tasks of a fused round —
  // e-piggyback), because later bytes have longer Copy-Use windows. The split
  // and the cut minimize makespan + engine_free, the two completion times
  // the round produces: §4.3 balances the CPU and DMA so they finish
  // together, and the KFUNCs of DMA-landed bytes are the engine's share of
  // the tail. For a fixed cut the objective falls while moving a subtask to
  // DMA shortens the CPU side by more than it lengthens the DMA side and the
  // reap, and rises after, so its minimum is bracketed by galloping from a
  // hint — the rough balance point, or the previous wave count's optimum —
  // and bisected. Cuts: spread across the channels in one wave, two, ... while
  // another wave helps, then every run whole.
  RoundPricer pricer(timing, config, subtasks, channels);
  const size_t none = pricer.candidates() - 1;  // the "no DMA" candidate
  size_t best_split = pricer.Split(none);
  Cut best_cut;
  const Price no_dma = pricer.Evaluate(best_split, best_cut);
  Price best = no_dma;
  std::vector<Price>& memo = pricer.memo();  // price per candidate, this cut
  // The best split for one cut, searched from candidate `hint`; returns its
  // candidate index and objective.
  const auto search = [&](Cut cut, size_t hint) {
    memo.assign(none + 1, Price{});
    memo[none] = no_dma;  // the same under every cut
    const auto objective = [&](size_t k) {
      if (memo[k].objective() == 0) {
        memo[k] = pricer.Evaluate(pricer.Split(k), cut);
      }
      return memo[k].objective();
    };
    // One less DMA subtask than candidate k still improves.
    const auto falling = [&](size_t k) { return k < none && objective(k + 1) < objective(k); };
    // Bracket the first candidate that is not falling by galloping from the
    // hint, then bisect.
    size_t lo = 0;
    size_t hi = none;
    if (falling(hint)) {
      lo = hint + 1;
      for (size_t step = 1; lo < hi; step *= 2) {
        const size_t probe = std::min(hint + step, hi);
        if (!falling(probe)) {
          hi = probe;
          break;
        }
        lo = probe + 1;
      }
    } else {
      hi = hint;
      for (size_t step = 1; lo < hi; step *= 2) {
        const size_t probe = hint > step ? hint - step : 0;
        if (falling(probe)) {
          lo = probe + 1;
          break;
        }
        hi = probe;
      }
    }
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (falling(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    size_t cut_k = lo;
    for (size_t k = lo > 0 ? lo - 1 : 0; k <= std::min(lo + 1, none); ++k) {
      if (objective(k) < objective(cut_k)) {
        cut_k = k;
      }
    }
    if (objective(cut_k) < best.objective()) {
      best = memo[cut_k];
      best_split = pricer.Split(cut_k);
      best_cut = cut;
    }
    return std::pair<size_t, Cycles>{cut_k, objective(cut_k)};
  };
  const auto [one_wave_k, one_wave] = search({1, /*spread=*/true}, pricer.BalanceHint(channels));
  size_t hint = one_wave_k;
  Cycles last = one_wave;
  for (size_t waves = 2; waves <= pricer.MaxWaves(); ++waves) {
    const auto [k, objective] = search({waves, /*spread=*/true}, hint);
    if (objective >= last) {
      break;  // one more wave no longer helps
    }
    hint = k;
    last = objective;
  }
  if (channels > 1) {
    search({1, /*spread=*/false}, pricer.BalanceHint(1));  // a whole run is on one channel
  }
  pricer.Emit(best_split, best_cut, &plan);
  plan.makespan = best.makespan;
  plan.engine_free = best.engine_free;
  return plan;
}

}  // namespace copier::core
