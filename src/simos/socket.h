// Simulated loopback socket stack.
//
// Reproduces the copy structure of Linux send()/recv() that Copier-Linux
// optimizes (§5.2):
//   * send(): user data is copied into kernel socket buffers (skbs); with
//     checksum offloaded to the NIC the TCP/IP layers never touch the
//     payload, so the driver only needs the data immediately before the NIC
//     TX enqueue — that is the send-side Copy-Use window.
//   * recv(): skb payloads are copied to the user buffer; the app touches the
//     data only after the syscall returns and it has set up processing —
//     the recv-side Copy-Use window.
//
// Skbs come from a bounded reuse pool (LIFO), reproducing the kernel-buffer
// address recurrence that makes the ATCache effective (§4.3). Each skb is
// released back to the pool by the copy's completion handler (KFUNC, §4.1).
#ifndef COPIER_SRC_SIMOS_SOCKET_H_
#define COPIER_SRC_SIMOS_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/status.h"
#include "src/hw/timing_model.h"
#include "src/simos/copy_backend.h"
#include "src/simos/process.h"

namespace copier::simos {

inline constexpr size_t kMtu = 4096;  // payload bytes per skb

struct Skb {
  uint8_t* data = nullptr;  // kMtu bytes, physically contiguous kernel memory
  size_t length = 0;        // valid payload bytes
  uint32_t id = 0;

  // Delivery timestamp on the sender's clock; receivers in the virtual-time
  // engine wait until this time (network propagation is modeled as zero).
  Cycles delivered_at = 0;

  // Receive-side consumption state: bytes already handed to recv() and copies
  // still in flight; the skb returns to the pool when fully consumed and all
  // asynchronous copies out of it have completed.
  size_t consumed = 0;
  std::atomic<uint32_t> pending_copies{0};
  std::atomic<bool> drained{false};
};

// Bounded LIFO pool of kernel socket buffers.
class SkbPool {
 public:
  SkbPool(size_t count, const hw::TimingModel* timing);

  StatusOr<Skb*> Acquire(ExecContext* ctx);
  // Bulk reservation for posted-window sends (DESIGN.md §12): pops up to
  // `max_count` skbs in one pool transaction, charging the allocation cost
  // once for the batch — the fused path reserves its whole flow-control token
  // run without paying per-packet allocation. Returns an empty vector (and
  // counts an acquire failure) when the pool is dry.
  std::vector<Skb*> AcquireBatch(size_t max_count, ExecContext* ctx);
  void Release(Skb* skb);

  size_t available() const;
  uint64_t total_acquires() const { return total_acquires_; }
  // Acquire() calls that found the pool empty. Together with low_watermark()
  // this makes skb_pool_size pressure observable, so pool-exhaustion
  // fallbacks of the fused path (FuseEvent::kFallbackPoolExhausted) can be
  // told apart from receiver-not-posted fallbacks.
  uint64_t acquire_failures() const;
  // Smallest free count observed right after a successful Acquire.
  size_t low_watermark() const;

 private:
  const hw::TimingModel* timing_;
  std::unique_ptr<uint8_t[]> slab_;
  std::vector<std::unique_ptr<Skb>> all_;
  mutable std::mutex mu_;
  std::vector<Skb*> free_;
  uint64_t total_acquires_ = 0;
  uint64_t acquire_failures_ = 0;
  size_t low_watermark_ = 0;
};

struct SendOptions {
  bool zerocopy = false;  // MSG_ZEROCOPY-like baseline (see src/baselines/)
  bool lazy = false;      // submit the user->kernel copy as a Lazy Task (§4.4)
};

struct RecvOptions {
  // libCopier descriptor the kernel-side Copy Tasks report into; the app
  // csync()s against it. Null for synchronous receives.
  void* descriptor = nullptr;
  bool lazy = false;  // mark kernel->user copy lazy (proxy pattern, §4.4)
};

// A receiver-posted landing window (fused IPC, DESIGN.md §12): the recv
// buffer registered *before* the data arrives, so a peer send can land
// directly in it — fused when the backend supports it, via a posted two-step
// otherwise. `filled` advances as sends route bytes in; the receiver csyncs
// `descriptor` and closes the window with CompleteRecv.
struct PostedWindow {
  Process* proc = nullptr;     // receiver owning the window
  uint64_t va = 0;             // window base in the receiver's space
  size_t length = 0;
  size_t filled = 0;           // bytes routed into the window so far
  void* descriptor = nullptr;  // receiver's descriptor covering the window
  size_t forwarded = 0;        // bytes forwarded *through* (never landed here)
};

// Proxy-transparent forwarding (DESIGN.md §12) ------------------------------
//
// The receiver of a forward-posted window never reads the payload: it only
// rewrites a bounded header and relays the message. A ForwardRule captures
// that rewrite so the kernel can apply it at send time and dispatch one
// src→destination-window Copy Task with the rewritten header spliced in
// front of the unmodified payload.

// The rewrite's output for one complete message.
struct ForwardAction {
  // Bytes [body_off, total) of the incoming message are the payload, relayed
  // untouched; bytes [0, body_off) are replaced by `prefix` (the destination
  // protocol's framing + rewritten header).
  size_t body_off = 0;
  std::vector<uint8_t> prefix;
};

// The destination endpoint's side of a forward dispatch: claim its front
// posted window plus a flow-control token, or refuse.
struct ForwardClaim {
  Process* proc = nullptr;     // destination window owner
  uint64_t va = 0;             // destination window base
  void* descriptor = nullptr;  // destination window's descriptor
  // Releases the endpoint's flow-control token (e.g. the Binder transaction
  // buffer); fires as the fused task's final KFUNC, or from AbandonForward.
  std::function<void(Cycles)> release;
  Cycles dispatch_cycles = 0;  // endpoint protocol bookkeeping, charged once
  uint64_t token = 0;          // endpoint-private id for AbandonForward
};

class ForwardEndpoint {
 public:
  virtual ~ForwardEndpoint() = default;
  // Claims the endpoint's front posted window for a `length`-byte landing.
  // On success the window is consumed (its descriptor reports readiness to
  // the destination app); the caller must either dispatch a transfer whose
  // completion runs `release`, or call AbandonForward(token).
  virtual StatusOr<ForwardClaim> ClaimForward(size_t length, ExecContext* ctx) = 0;
  // Restores the claimed window and flow-control token (dispatch failed).
  virtual void AbandonForward(uint64_t token) = 0;
};

struct ForwardRule {
  ForwardEndpoint* endpoint = nullptr;
  size_t inspect_limit = 64;   // header bytes the rewrite may inspect
  Cycles rewrite_cycles = 0;   // modeled in-kernel header-rewrite cost
  // Maps the head of a send to its forward action. `head`/`head_len` are the
  // first min(inspect_limit, total) bytes; `total` is the send's length.
  // Returns nullopt to decline — e.g. the send is a partial message — in
  // which case the bytes land in the window for the app-level path.
  std::function<std::optional<ForwardAction>(const uint8_t* head, size_t head_len,
                                             size_t total)> rewrite;
};

// One endpoint of a connected in-memory stream socket.
class SimSocket {
 public:
  explicit SimSocket(SkbPool* pool) : pool_(pool) {}

  void set_peer(SimSocket* peer) { peer_ = peer; }
  SimSocket* peer() { return peer_; }
  SkbPool* pool() { return pool_; }

  // Posted window registry — a FIFO ring (DESIGN.md §12). A window is posted
  // behind any already posted; sends land in the first window with room
  // (ActiveWindow); CompleteRecv reaps the front window; Recv() is rejected
  // while any window is posted. Pointers stay owned by the socket until
  // TakeWindow. The kernel mutates `filled` from send syscalls without the
  // socket lock — post/send/complete on one socket are syscall-serialized by
  // the apps, as stream sockets require anyway.
  void PostWindow(std::unique_ptr<PostedWindow> window);
  // First posted window with room for more bytes; null when none or all full.
  PostedWindow* ActiveWindow() const;
  bool HasPostedWindow() const;
  size_t posted_count() const;
  std::unique_ptr<PostedWindow> TakeWindow();

  // Forward rule (proxy-transparent forwarding): applies to complete messages
  // arriving while an empty posted window is active. Owned by the app.
  void SetForwardRule(std::shared_ptr<ForwardRule> rule);
  const ForwardRule* forward_rule() const;

  void EnqueueRx(Skb* skb);
  bool HasData() const;
  size_t RxBytes() const;

  // Pops payload for recv(): invokes `sink(skb, offset_in_skb, n)` for each
  // consumed piece, tracking partial consumption, up to `max` bytes. The sink
  // must bump skb->pending_copies for asynchronous consumption before
  // returning. Returns bytes consumed (0 when empty).
  size_t ConsumeRx(size_t max, Cycles* latest_delivery,
                   const std::function<void(Skb*, size_t, size_t)>& sink);

  // Marks an asynchronous copy out of `skb` complete; releases the skb to the
  // pool once it is fully drained. Safe from any thread (KFUNC context).
  static void CompleteCopy(SkbPool* pool, Skb* skb);

 private:
  SkbPool* pool_;
  SimSocket* peer_ = nullptr;
  mutable std::mutex mu_;
  std::deque<Skb*> rx_;
  std::deque<std::unique_ptr<PostedWindow>> posted_;  // FIFO ring
  std::shared_ptr<ForwardRule> forward_rule_;
};

}  // namespace copier::simos

#endif  // COPIER_SRC_SIMOS_SOCKET_H_
