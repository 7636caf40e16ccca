#include "src/simos/phys_memory.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace copier::simos {

PhysicalMemory::PhysicalMemory(size_t bytes, AllocPolicy policy, uint64_t seed)
    : total_frames_(AlignUp(bytes, kPageSize) >> kPageShift),
      policy_(policy),
      rng_(seed) {
  // Frames are zero-filled at fault time; the slab itself need not be.
  slab_ = std::make_unique_for_overwrite<uint8_t[]>(total_frames_ << kPageShift);
  refcount_.assign(total_frames_, 0);
  free_list_.reserve(total_frames_);
  // Push descending so sequential pops ascend.
  for (size_t i = total_frames_; i > 0; --i) {
    free_list_.push_back(i - 1);
  }
}

StatusOr<Pfn> PhysicalMemory::AllocFrame() {
  std::lock_guard<std::mutex> lock(mu_);
  return AllocFrameLocked();
}

StatusOr<Pfn> PhysicalMemory::AllocFrameLocked() {
  if (free_list_.empty()) {
    return ResourceExhausted("out of physical frames");
  }
  size_t index = free_list_.size() - 1;
  if (policy_ == AllocPolicy::kFragmented) {
    index = rng_.Below(free_list_.size());
    std::swap(free_list_[index], free_list_.back());
  }
  const Pfn pfn = free_list_.back();
  free_list_.pop_back();
  refcount_[pfn] = 1;
  return pfn;
}

StatusOr<Pfn> PhysicalMemory::AllocContiguous(size_t count) {
  if (count == 0) {
    return InvalidArgument("zero-frame contiguous allocation");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (count == 1) {
    return AllocFrameLocked();
  }
  // Sort a copy of the free list and scan for a run. This is O(n log n) but
  // only used for skb pools and huge pages, both allocated rarely.
  std::vector<Pfn> sorted = free_list_;
  std::sort(sorted.begin(), sorted.end());
  size_t run_start = 0;
  for (size_t i = 1; i <= sorted.size(); ++i) {
    if (i == sorted.size() || sorted[i] != sorted[i - 1] + 1) {
      if (i - run_start >= count) {
        const Pfn base = sorted[run_start];
        // Remove [base, base+count) from the real free list.
        auto new_end = std::remove_if(free_list_.begin(), free_list_.end(), [&](Pfn p) {
          return p >= base && p < base + count;
        });
        free_list_.erase(new_end, free_list_.end());
        for (size_t f = 0; f < count; ++f) {
          refcount_[base + f] = 1;
        }
        return base;
      }
      run_start = i;
    }
  }
  return ResourceExhausted("no contiguous run of requested length");
}

void PhysicalMemory::FreeFrame(Pfn pfn) {
  COPIER_DCHECK(pfn < total_frames_);
  std::lock_guard<std::mutex> lock(mu_);
  COPIER_DCHECK(refcount_[pfn] > 0) << "double free of frame " << pfn;
  refcount_[pfn] = 0;
  free_list_.push_back(pfn);
}

void PhysicalMemory::Unref(Pfn pfn) {
  COPIER_DCHECK(pfn < total_frames_);
  std::lock_guard<std::mutex> lock(mu_);
  COPIER_DCHECK(refcount_[pfn] > 0);
  if (--refcount_[pfn] == 0) {
    free_list_.push_back(pfn);
  }
}

}  // namespace copier::simos
