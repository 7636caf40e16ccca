#include "src/core/atcache.h"

#include <iterator>

namespace copier::core {

const ATCache::Extent* ATCache::Find(uint32_t asid, uint64_t va, uint64_t* start) {
  auto space = spaces_.find(asid);
  if (space == spaces_.end()) {
    return nullptr;
  }
  auto it = space->second.upper_bound(va);
  if (it == space->second.begin()) {
    return nullptr;
  }
  --it;
  if (va >= it->second.end) {
    return nullptr;
  }
  *start = it->first;
  return &it->second;
}

std::optional<ATCache::Hit> ATCache::Lookup(uint32_t asid, uint64_t va, bool for_write) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t start = 0;
  const Extent* extent = Find(asid, va, &start);
  if (extent == nullptr || (for_write && !extent->writable)) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return Hit{extent->host + (va - start), extent->end - va};
}

size_t ATCache::WritableBytes(uint32_t asid, uint64_t va) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t start = 0;
  const Extent* extent = Find(asid, va, &start);
  return extent != nullptr && extent->writable ? extent->end - va : 0;
}

void ATCache::Carve(Extents& extents, uint64_t lo, uint64_t hi) {
  auto it = extents.upper_bound(lo);
  if (it != extents.begin() && std::prev(it)->second.end > lo) {
    --it;
  }
  while (it != extents.end() && it->first < hi) {
    const uint64_t start = it->first;
    const Extent extent = it->second;
    if (extent.end > hi) {  // keep the right remainder
      extents[hi] = Extent{extent.end, extent.host + (hi - start), extent.writable};
    }
    if (start < lo) {  // keep the left remainder
      it->second.end = lo;
      ++it;
    } else {
      it = extents.erase(it);
    }
  }
}

void ATCache::Insert(uint32_t asid, uint64_t va, uint8_t* host_page, bool writable) {
  std::lock_guard<std::mutex> lock(mu_);
  Extents& extents = spaces_[asid];
  const uint64_t lo = PageBase(va);
  const uint64_t hi = lo + kPageSize;
  Carve(extents, lo, hi);
  auto right = extents.lower_bound(hi);
  const bool joins_right = right != extents.end() && right->first == hi &&
                           right->second.writable == writable &&
                           right->second.host == host_page + kPageSize;
  const uint64_t end = joins_right ? right->second.end : hi;
  if (joins_right) {
    extents.erase(right);
  }
  auto left = extents.lower_bound(lo);
  if (left != extents.begin()) {
    --left;
    if (left->second.end == lo && left->second.writable == writable &&
        left->second.host + (lo - left->first) == host_page) {
      left->second.end = end;
      return;
    }
  }
  extents[lo] = Extent{end, host_page, writable};
}

void ATCache::Invalidate(uint32_t asid, uint64_t va, size_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  if (length == SIZE_MAX) {
    spaces_.erase(asid);  // whole-space invalidation (fork downgrades broadly)
    return;
  }
  auto space = spaces_.find(asid);
  if (space == spaces_.end()) {
    return;
  }
  const uint64_t lo = PageBase(va);
  const uint64_t hi = PageBase(va + (length == 0 ? 0 : length - 1)) + kPageSize;
  Carve(space->second, lo, hi);
}

int ATCache::Attach(simos::AddressSpace& space) {
  return space.AddInvalidationListener(
      [this](uint32_t asid, uint64_t va, size_t length) { Invalidate(asid, va, length); });
}

}  // namespace copier::core
