#include "src/simos/socket.h"

#include <algorithm>

#include "src/common/logging.h"

namespace copier::simos {

SkbPool::SkbPool(size_t count, const hw::TimingModel* timing) : timing_(timing) {
  slab_ = std::make_unique<uint8_t[]>(count * kMtu);
  all_.reserve(count);
  free_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto skb = std::make_unique<Skb>();
    skb->data = slab_.get() + i * kMtu;
    skb->id = static_cast<uint32_t>(i);
    free_.push_back(skb.get());
    all_.push_back(std::move(skb));
  }
  low_watermark_ = count;
}

StatusOr<Skb*> SkbPool::Acquire(ExecContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    ++acquire_failures_;
    return ResourceExhausted("skb pool empty");
  }
  Skb* skb = free_.back();  // LIFO: reuse the most recent buffer (ATCache-friendly)
  free_.pop_back();
  skb->length = 0;
  skb->consumed = 0;
  skb->drained.store(false, std::memory_order_relaxed);
  skb->pending_copies.store(0, std::memory_order_relaxed);
  ++total_acquires_;
  low_watermark_ = std::min(low_watermark_, free_.size());
  ChargeCtx(ctx, timing_->skb_alloc_cycles);
  return skb;
}

std::vector<Skb*> SkbPool::AcquireBatch(size_t max_count, ExecContext* ctx) {
  std::vector<Skb*> batch;
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    if (max_count > 0) {
      ++acquire_failures_;
    }
    return batch;
  }
  const size_t take = std::min(max_count, free_.size());
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    Skb* skb = free_.back();  // LIFO, same reuse order as Acquire()
    free_.pop_back();
    skb->length = 0;
    skb->consumed = 0;
    skb->drained.store(false, std::memory_order_relaxed);
    skb->pending_copies.store(0, std::memory_order_relaxed);
    ++total_acquires_;
    batch.push_back(skb);
  }
  low_watermark_ = std::min(low_watermark_, free_.size());
  ChargeCtx(ctx, timing_->skb_alloc_cycles);  // one freelist transaction
  return batch;
}

uint64_t SkbPool::acquire_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquire_failures_;
}

size_t SkbPool::low_watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return low_watermark_;
}

void SkbPool::Release(Skb* skb) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(skb);
}

size_t SkbPool::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

void SimSocket::EnqueueRx(Skb* skb) {
  std::lock_guard<std::mutex> lock(mu_);
  rx_.push_back(skb);
}

bool SimSocket::HasData() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !rx_.empty();
}

size_t SimSocket::RxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const Skb* skb : rx_) {
    total += skb->length - skb->consumed;
  }
  return total;
}

size_t SimSocket::ConsumeRx(size_t max, Cycles* latest_delivery,
                            const std::function<void(Skb*, size_t, size_t)>& sink) {
  size_t consumed = 0;
  while (consumed < max) {
    Skb* skb = nullptr;
    size_t offset = 0;
    size_t take = 0;
    bool drains_skb = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (rx_.empty()) {
        break;
      }
      skb = rx_.front();
      offset = skb->consumed;
      take = std::min(max - consumed, skb->length - offset);
      skb->consumed += take;
      if (latest_delivery != nullptr) {
        *latest_delivery = std::max(*latest_delivery, skb->delivered_at);
      }
      if (skb->consumed == skb->length) {
        rx_.pop_front();
        drains_skb = true;
      }
    }
    // Mark drained before the sink runs so a synchronous sink's completion
    // (CompleteCopy) can release the skb.
    if (drains_skb) {
      skb->drained.store(true, std::memory_order_release);
    }
    sink(skb, offset, take);
    consumed += take;
  }
  return consumed;
}

void SimSocket::PostWindow(std::unique_ptr<PostedWindow> window) {
  std::lock_guard<std::mutex> lock(mu_);
  posted_.push_back(std::move(window));
}

PostedWindow* SimSocket::ActiveWindow() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& win : posted_) {
    // A forwarded window is consumed even though no bytes landed locally —
    // it represents exactly one proxied message awaiting reap.
    if (win->filled < win->length && win->forwarded == 0) {
      return win.get();
    }
  }
  return nullptr;
}

bool SimSocket::HasPostedWindow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !posted_.empty();
}

size_t SimSocket::posted_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return posted_.size();
}

std::unique_ptr<PostedWindow> SimSocket::TakeWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (posted_.empty()) {
    return nullptr;
  }
  std::unique_ptr<PostedWindow> win = std::move(posted_.front());
  posted_.pop_front();
  return win;
}

void SimSocket::SetForwardRule(std::shared_ptr<ForwardRule> rule) {
  std::lock_guard<std::mutex> lock(mu_);
  forward_rule_ = std::move(rule);
}

const ForwardRule* SimSocket::forward_rule() const {
  std::lock_guard<std::mutex> lock(mu_);
  return forward_rule_.get();
}

void SimSocket::CompleteCopy(SkbPool* pool, Skb* skb) {
  // Called once per completed copy after the sink bumped pending_copies.
  const uint32_t remaining = skb->pending_copies.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (remaining == 0 && skb->drained.load(std::memory_order_acquire)) {
    pool->Release(skb);
  }
}

}  // namespace copier::simos
