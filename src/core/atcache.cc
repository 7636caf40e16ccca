#include "src/core/atcache.h"

namespace copier::core {

std::optional<ATCache::Entry> ATCache::Lookup(uint32_t asid, uint64_t va) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(asid, PageNumber(va)));
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

bool ATCache::HasWritable(uint32_t asid, uint64_t va) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(asid, PageNumber(va)));
  return it != entries_.end() && it->second.writable;
}

void ATCache::Insert(uint32_t asid, uint64_t va, uint8_t* host_page, bool writable) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[Key(asid, PageNumber(va))] = Entry{host_page, writable};
}

void ATCache::Invalidate(uint32_t asid, uint64_t va, size_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  if (length == SIZE_MAX) {
    // Whole-space invalidation (fork downgrades permissions broadly).
    for (auto it = entries_.begin(); it != entries_.end();) {
      if ((it->first >> 40) == asid) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return;
  }
  const uint64_t first = PageNumber(va);
  const uint64_t last = PageNumber(va + (length == 0 ? 0 : length - 1));
  for (uint64_t vpn = first; vpn <= last; ++vpn) {
    entries_.erase(Key(asid, vpn));
  }
}

int ATCache::Attach(simos::AddressSpace& space) {
  return space.AddInvalidationListener(
      [this](uint32_t asid, uint64_t va, size_t length) { Invalidate(asid, va, length); });
}

}  // namespace copier::core
