// Simulated I/OAT-style DMA engine (§4.3, DESIGN.md §1 substitution table).
//
// Faithful properties relied on by the dispatcher:
//   * a bounded descriptor ring; submission fails with kUnavailable when full;
//   * a CPU-side submission cost (descriptor writes + doorbell) and zero CPU
//     cost while the transfer is in flight;
//   * a serial channel: batches execute in submission order, each taking
//     TimingModel::DmaTransferCycles() of wall-clock time;
//   * source and destination of each descriptor must be physically contiguous
//     — enforced by the caller (the dispatcher splits tasks into subtasks at
//     page-contiguity boundaries, Fig. 7-b).
//
// Data is moved eagerly at submission so the engine is correct in real-thread
// mode too; only the *completion timestamp* is modeled. Clients may not
// observe bytes before completion because csync() gates on the descriptor
// bitmap, which Copier updates only after CompletionTime().
#ifndef COPIER_SRC_HW_DMA_ENGINE_H_
#define COPIER_SRC_HW_DMA_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>

#include "src/common/cycle_clock.h"
#include "src/common/status.h"
#include "src/hw/timing_model.h"

namespace copier::hw {

struct DmaDescriptor {
  void* dst = nullptr;
  const void* src = nullptr;
  size_t length = 0;
};

class DmaEngine {
 public:
  explicit DmaEngine(const TimingModel* model, size_t ring_slots = 256)
      : model_(model), ring_slots_(ring_slots) {}

  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  // Submits a batch of descriptors at time `now`. Moves the data immediately
  // and returns a cookie identifying the batch. The CPU-side cost the caller
  // should charge is SubmissionCost(batch.size()).
  StatusOr<uint64_t> SubmitBatch(std::span<const DmaDescriptor> batch, Cycles now);

  // CPU cycles consumed by submitting a batch of `descriptors` entries.
  Cycles SubmissionCost(size_t descriptors) const {
    return model_->DmaSubmissionCost(descriptors);
  }

  // Wall-clock completion time of the given batch (valid until retired).
  Cycles CompletionTime(uint64_t cookie) const;
  bool IsComplete(uint64_t cookie, Cycles now) const { return CompletionTime(cookie) <= now; }

  // Retires batches whose completion time has passed; returns count retired.
  size_t Poll(Cycles now);

  // Wall-clock time at which the channel becomes idle.
  Cycles busy_until() const { return busy_until_; }
  size_t in_flight() const { return in_flight_.size(); }
  // Free descriptor-ring slots (a batch of n needs n; see SubmitBatch).
  size_t ring_free() const {
    return ring_slots_ > in_flight_.size() ? ring_slots_ - in_flight_.size() : 0;
  }

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_batches() const { return total_batches_; }

 private:
  struct Batch {
    uint64_t cookie;
    Cycles completion_time;
  };

  const TimingModel* model_;
  size_t ring_slots_;
  std::deque<Batch> in_flight_;
  Cycles busy_until_ = 0;
  uint64_t next_cookie_ = 1;
  uint64_t total_bytes_ = 0;
  uint64_t total_batches_ = 0;
};

}  // namespace copier::hw

#endif  // COPIER_SRC_HW_DMA_ENGINE_H_
