// ATCache — Address Transfer Cache (§4.3).
//
// DMA needs physical addresses; translating a VA costs ~240 cycles/page.
// Copy addresses recur heavily (buffer pools, fixed I/O buffers — the paper
// measures >75% recurrence in Redis), so the service caches translations.
// Like an RDMA memory region, a cached translation covers an extent, not a
// page: per address space the cache keeps maximal VA ranges whose frames are
// host-contiguous and share one writability, and every walked page merges
// into its neighbours. One probe answers a whole extent. The memory
// subsystem invalidates ranges when mappings change, via AddressSpace
// invalidation listeners; invalidation trims or splits the extents it hits.
#ifndef COPIER_SRC_CORE_ATCACHE_H_
#define COPIER_SRC_CORE_ATCACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/common/align.h"
#include "src/common/relaxed_counter.h"
#include "src/simos/address_space.h"

namespace copier::core {

class ATCache {
 public:
  // A cached translation of one address: its host pointer and the bytes left
  // in its extent from there (host-contiguous by construction).
  struct Hit {
    uint8_t* host = nullptr;
    size_t length = 0;
  };

  // Looks up `va` in `asid`; counts one hit or one miss. A read-only extent
  // never satisfies a write lookup. The hit is copied out under the lock: a
  // concurrent Invalidate may reshape the extents.
  std::optional<Hit> Lookup(uint32_t asid, uint64_t va, bool for_write);

  // Bytes of the write-capable extent at `va` from there (0 = none). Counts
  // nothing: window registration probes with it (DESIGN.md §12).
  size_t WritableBytes(uint32_t asid, uint64_t va);

  // Caches the translation of `va`'s page (`host_page` is its frame) and
  // merges it with host-contiguous neighbours of the same writability.
  void Insert(uint32_t asid, uint64_t va, uint8_t* host_page, bool writable);

  // Invalidation callback target: drops the pages covering [va, va+length)
  // of `asid`, trimming or splitting extents; length SIZE_MAX drops the whole
  // address space.
  void Invalidate(uint32_t asid, uint64_t va, size_t length);

  // Registers this cache with an address space; the returned token pairs with
  // RemoveInvalidationListener. Caller manages lifetime.
  int Attach(simos::AddressSpace& space);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Extent {
    uint64_t end = 0;         // exclusive; the map key is the start VA
    uint8_t* host = nullptr;  // host pointer of the start VA
    bool writable = false;
  };
  using Extents = std::map<uint64_t, Extent>;

  // The extent holding `va`, or nullptr. Caller holds mu_.
  const Extent* Find(uint32_t asid, uint64_t va, uint64_t* start);
  // Removes the page-aligned [lo, hi) from `extents`. Caller holds mu_.
  static void Carve(Extents& extents, uint64_t lo, uint64_t hi);

  std::mutex mu_;
  std::unordered_map<uint32_t, Extents> spaces_;
  RelaxedCounter hits_;
  RelaxedCounter misses_;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_ATCACHE_H_
