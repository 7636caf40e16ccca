// RoundPlan — the piggyback dispatcher's cost function for one execution
// round (§4.3).
//
// A round is a list of physically contiguous subtasks (one large task's
// pieces — i-piggyback — or several adjacent tasks' — e-piggyback). The plan
// decides which subtasks go to the DMA channels, lays them out as few
// descriptors as host contiguity allows (a host-contiguous DMA tail is one
// near-equal block per channel, optionally cut into landing-ordered waves),
// and prices both completion times the round produces in virtual cycles:
// when its last byte lands and when its last segment KFUNC has fired. The
// engine executes exactly this plan (Engine::ExecuteRound) and reaps it
// (Engine::ReapParkedDma), and prices the copy a remap alias would replace
// with it (Engine::RemapCandidate), so the tier choice and the executor agree
// on what a copy costs.
#ifndef COPIER_SRC_CORE_ROUND_PLAN_H_
#define COPIER_SRC_CORE_ROUND_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/cycle_clock.h"
#include "src/core/config.h"
#include "src/hw/timing_model.h"

namespace copier::core {

struct PendingTask;

// The lookups that translated one side of a subtask — ATCache extent probes
// and page walks — priced in cycles. A side's host run is resolved once and
// cut into subtasks, so neighbouring subtasks share the lookups at their
// edges: `first_id` / `last_id` name the lookups holding the side's first and
// last byte, and PlanRound charges a shared lookup once. Id 0 is never shared.
struct SideTranslation {
  uint64_t first_id = 0;
  uint64_t last_id = 0;
  Cycles first = 0;  // the lookup holding the first byte
  Cycles rest = 0;   // every later lookup, up to and including last_id's
};

// One physically contiguous piece of a round. Pricing reads the length, DMA
// eligibility, continuation, translation charges and KFUNC ends; the pointers
// are the executor's.
struct Subtask {
  uint8_t* dst = nullptr;
  const uint8_t* src = nullptr;
  size_t length = 0;
  PendingTask* owner = nullptr;
  size_t task_offset = 0;  // byte offset of this subtask within the task
  bool dma_eligible = false;
  bool on_dma = false;  // selected for the round's DMA batch (ExecuteRound)
  // Continues the round's previous subtask: same task, next bytes, and
  // host-contiguous on both sides with the merged source and destination
  // disjoint, so one descriptor's memcpy equals the per-subtask copies.
  bool continues = false;
  // Translation owed per side if this subtask goes to DMA (§4.3 ATCache):
  // CPU copies translate through the MMU for free; DMA needs explicit VA->PA.
  SideTranslation dst_xlate;
  SideTranslation src_xlate;
  // Task-local end offsets (ascending) of the owner's segment KFUNCs whose
  // last byte lies in this subtask, i.e. in (task_offset, task_offset +
  // length]. A segment fires once every byte before its end has landed
  // (segment handlers fire in order), each at handler_dispatch_cycles.
  std::span<const size_t> kfunc_ends;
  // An earlier task has bytes parked on a DMA channel: none of these KFUNCs
  // fires inline; the reaps after the round fire them.
  bool kfuncs_deferred = false;
};

// A DMA descriptor's share of one subtask.
struct RoundChunk {
  size_t subtask = 0;  // index into the round's subtasks
  size_t offset = 0;   // byte offset within the subtask
  size_t length = 0;
  // Extends the descriptor of the channel's previous chunk, whose subtask
  // this one continues, instead of starting a new descriptor.
  bool joins = false;
};

// One doorbell: a descriptor batch on one channel, parked and reaped as a
// unit.
struct RoundBatch {
  size_t channel = 0;
  std::vector<RoundChunk> chunks;  // in address order
};

struct RoundPlan {
  // Subtasks moved to DMA: every DMA-eligible subtask from the split on.
  std::vector<size_t> dma_set;
  // Descriptor batches in submission order. A host-contiguous DMA tail is cut
  // into `waves` near-equal waves in address order, each one batch per
  // channel (channels ascending); otherwise one batch per busy channel.
  std::vector<RoundBatch> batches;
  size_t waves = 0;
  // VA->PA translation of the DMA subtasks: the first CPU-side charge,
  // before the doorbells and the copies left to the CPU.
  Cycles translate_cycles = 0;
  // Both times are cycles from round start on channels idle at round start.
  // makespan: the round's last byte lands — the CPU side (translation, one
  // SubmissionCost per batch, the CPU copies and the segment KFUNCs they
  // complete; with naive DMA each eligible subtask's submit, wait and
  // completion check) or the last DMA batch, whichever is later.
  Cycles makespan = 0;
  // engine_free: the round's last segment KFUNC has fired. The KFUNCs of
  // DMA-landed bytes run at the reap: each batch, once it has landed and the
  // engine is free, costs one completion check plus the KFUNCs it completes.
  Cycles engine_free = 0;
};

// Plans one round over `channels` DMA channels under `config`'s dispatch mode
// (use_dma, enable_piggyback, enable_async_dma_completion, dma_ring_slots):
// the split and the descriptor cut (waves, or every run whole) minimizing
// makespan + engine_free. Pure: reads only its arguments.
RoundPlan PlanRound(const hw::TimingModel& timing, const CopierConfig& config,
                    std::span<const Subtask> subtasks, size_t channels);

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_ROUND_PLAN_H_
