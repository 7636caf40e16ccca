// RoundPlan — the piggyback dispatcher's cost function for one execution
// round (§4.3).
//
// A round is a list of physically contiguous subtasks (one large task's
// pieces — i-piggyback — or several adjacent tasks' — e-piggyback). The plan
// decides which subtasks go to the DMA channels, lays them out per channel as
// few descriptors as host contiguity allows (a host-contiguous DMA tail is one
// near-equal block per channel), and prices the round's critical path in
// virtual cycles. The engine executes exactly this plan
// (Engine::ExecuteRound), and prices the
// copy a remap alias would replace with it (Engine::RemapCandidate), so the
// tier choice and the executor agree on what a copy costs.
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

// One physically contiguous piece of a round. Pricing reads only the length,
// DMA eligibility and translation charges; the pointers are the executor's.
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

struct RoundPlan {
  // Subtasks moved to DMA, in pick order (tail first).
  std::vector<size_t> dma_set;
  // Descriptor batches, one per channel, in submission order (empty = the
  // channel gets no batch this round).
  std::vector<std::vector<RoundChunk>> channel_chunks;
  // VA->PA translation of the DMA subtasks: the first CPU-side charge,
  // before the channel doorbells and the copies left to the CPU.
  Cycles translate_cycles = 0;
  // The round's critical path on channels idle at round start: cycles until
  // its last byte lands — the CPU side (translation, one SubmissionCost per
  // non-empty batch, the CPU copies; with naive DMA each eligible subtask's
  // submit, wait and completion check) or the last DMA batch, whichever is
  // later.
  Cycles makespan = 0;
};

// Plans one round over `channels` DMA channels under `config`'s dispatch mode
// (use_dma, enable_piggyback). Pure: reads only its arguments.
RoundPlan PlanRound(const hw::TimingModel& timing, const CopierConfig& config,
                    std::span<const Subtask> subtasks, size_t channels);

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_ROUND_PLAN_H_
