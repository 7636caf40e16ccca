// ATCache — Address Transfer Cache (§4.3).
//
// DMA needs physical addresses; translating a VA costs ~240 cycles/page.
// Copy addresses recur heavily (buffer pools, fixed I/O buffers — the paper
// measures >75% recurrence in Redis), so the service caches per-page
// translations. The memory subsystem invalidates entries when mappings
// change, via AddressSpace invalidation listeners.
#ifndef COPIER_SRC_CORE_ATCACHE_H_
#define COPIER_SRC_CORE_ATCACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/common/align.h"
#include "src/simos/address_space.h"

namespace copier::core {

class ATCache {
 public:
  struct Entry {
    uint8_t* host_page = nullptr;  // host pointer to the frame
    bool writable = false;         // cached translation was write-capable
  };

  // Looks up (asid, page of va); counts a hit or a miss. The entry is copied
  // out under the lock: a concurrent Invalidate may free the map node.
  std::optional<Entry> Lookup(uint32_t asid, uint64_t va);

  // True when (asid, page of va) holds a write-capable translation. Counts
  // nothing: window registration probes with it (DESIGN.md §12).
  bool HasWritable(uint32_t asid, uint64_t va);

  void Insert(uint32_t asid, uint64_t va, uint8_t* host_page, bool writable);

  // Invalidation callback target: drops entries covering [va, va+length) of
  // `asid`; length SIZE_MAX drops the whole address space.
  void Invalidate(uint32_t asid, uint64_t va, size_t length);

  // Registers this cache with an address space; the returned token pairs with
  // RemoveInvalidationListener. Caller manages lifetime.
  int Attach(simos::AddressSpace& space);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static uint64_t Key(uint32_t asid, uint64_t vpn) {
    return (static_cast<uint64_t>(asid) << 40) ^ vpn;
  }

  std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_ATCACHE_H_
