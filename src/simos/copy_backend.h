// KernelCopyBackend — the pluggable user↔kernel copy mechanism.
//
// Every simulated syscall that moves data across the privilege boundary
// (send/recv, Binder, CoW) funnels through this interface. Implementations:
//   * SyncErmsBackend (here)     — stock-Linux behaviour: blocking `rep movsb`
//     with modeled cost; this is the paper's baseline.
//   * CopierKernelBackend (src/core/linux_glue.h) — submits asynchronous Copy
//     Tasks to the process's k-mode queue with the app-provided descriptor
//     and a KFUNC completion handler (§5.2).
#ifndef COPIER_SRC_SIMOS_COPY_BACKEND_H_
#define COPIER_SRC_SIMOS_COPY_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/status.h"
#include "src/simos/process.h"

namespace copier::simos {

struct UserCopyOp {
  Process* proc = nullptr;
  uint64_t user_va = 0;       // user-side address
  uint8_t* kernel_buf = nullptr;  // kernel-side host buffer (physically contiguous)
  size_t length = 0;
  bool to_user = false;  // true: kernel_buf -> user_va (recv); false: user -> kernel (send)

  // Asynchronous-copy extras (ignored by synchronous backends):
  void* descriptor = nullptr;      // app-provided descriptor (core::Descriptor*)
  size_t descriptor_offset = 0;    // byte offset of this op within the descriptor
  // KFUNC invoked when the copy completes (e.g. reclaim the skb, §4.1); the
  // argument is the completion time on the executing context's clock.
  std::function<void(Cycles)> on_complete;
  bool lazy = false;  // Lazy Copy Task (§4.4): mediator for absorption

  ExecContext* ctx = nullptr;  // the syscall's execution context (time charging)
};

// One kernel-side segment of a vectored copy: a contiguous buffer plus the
// completion KFUNC that fires when every byte of the segment has landed.
struct UserCopySeg {
  uint8_t* kernel_buf = nullptr;
  size_t length = 0;
  std::function<void(Cycles)> on_complete;
};

// A syscall's full op-list (vectored submission): the user side is the single
// contiguous range [user_va, user_va + total_length()); the kernel side is
// `segs` in order. Send/Recv/Binder always build one of these per syscall;
// whether it becomes one scatter-gather Copy Task or degenerates to per-
// segment Copy() calls is the backend's choice.
struct UserCopyVecOp {
  Process* proc = nullptr;
  uint64_t user_va = 0;
  bool to_user = false;  // true: segments -> user (recv); false: user -> segments (send)

  // Client whose queue carries the task (null = `proc`). The posted-window
  // two-step path submits the drain into the *receiver's* window from the
  // *sender's* syscall; riding the sender's queue keeps both halves FIFO-
  // ordered on one client and never touches the receiver's syscall state.
  // The user side above still resolves in `proc`'s address space.
  Process* submit_proc = nullptr;

  void* descriptor = nullptr;    // app-provided descriptor covering the user range
  size_t descriptor_offset = 0;  // byte offset of the op within the descriptor
  bool lazy = false;
  ExecContext* ctx = nullptr;

  std::vector<UserCopySeg> segs;

  size_t total_length() const {
    size_t sum = 0;
    for (const UserCopySeg& seg : segs) {
      sum += seg.length;
    }
    return sum;
  }
};

// One flow-control chunk of a fused transfer: `length` bytes whose reclaim
// KFUNC (release the skb/parcel-buffer token) fires when every byte of the
// chunk has landed in the receiver's window — the same per-segment firing
// order the two-step path produces.
struct FusedChunk {
  size_t length = 0;
  std::function<void(Cycles)> on_complete;
};

// A fused IPC transfer (DESIGN.md §12): one direct src→dst copy across two
// address spaces, skipping the intermediate kernel buffer entirely. Built by
// Send/Transact when the receiver's window is posted.
struct FusedCopyOp {
  Process* src_proc = nullptr;  // sender; the task rides this client's queue
  uint64_t src_va = 0;
  Process* dst_proc = nullptr;  // receiver owning the posted window
  uint64_t dst_va = 0;
  size_t length = 0;

  void* descriptor = nullptr;  // receiver's window descriptor (core::Descriptor*)
  size_t descriptor_offset = 0;
  std::vector<FusedChunk> chunks;  // lengths sum to `length`
  // Write-protect the sender's source range until the fused copy lands, so a
  // sender-side store after "send returned" cannot leak into the receiver's
  // image (the two-step path snapshots into skbs). The protected range is the
  // user-sourced payload only: [src_va, src_va + length - prefix bytes).
  bool protect_src = true;

  // Proxy-transparent forwarding (DESIGN.md §12): kernel-resident header
  // bytes spliced in front of the user payload at [src_va, ...). When set,
  // `length` = src_prefix->size() + payload bytes and the engine reads the
  // first prefix bytes from this buffer instead of the sender's space.
  std::shared_ptr<const std::vector<uint8_t>> src_prefix;
  // Descriptor of the window the message was forwarded *through* (the proxy's
  // posted window): settled for [0, bypassed_length) when the fused transfer
  // completes, so a csync against the bypassed window never hangs even though
  // no bytes ever land there.
  void* bypassed_descriptor = nullptr;
  size_t bypassed_length = 0;

  ExecContext* ctx = nullptr;
};

// Send-time routing decision on a fuse-capable backend (service observability;
// CopierService::IpcFuseStats).
enum class FuseEvent : uint8_t {
  kFused = 0,              // dispatched as one fused task
  kFallbackNotPosted,      // receiver window absent → classic two-step
  kFallbackWindowFull,     // window present but full / too small
  kFallbackPoolExhausted,  // no skb/buffer flow-control token available
  kFallbackRing,           // submission ring full → posted two-step
  kForwardFused,           // forwarded: one src→destination-window task
  kFallbackForward,        // forward rule present but declined/unclaimable →
                           // the message lands in the window (app-level path)
  kRingWindowPosted,       // a window posted behind an already-posted one
  kRingRollover,           // one send spilled into the ring's next window
};

class KernelCopyBackend {
 public:
  virtual ~KernelCopyBackend() = default;

  virtual Status Copy(const UserCopyOp& op) = 0;

  // Vectored copy. The default unrolls the op-list into per-segment Copy()
  // calls (synchronous backends and the per-skb ablation baseline); Copier
  // overrides it with a single scatter-gather Copy Task + one doorbell.
  // Returns the first per-segment error, with earlier segments already
  // submitted (matching the historical per-op loop in Send/Recv); when
  // `segs_submitted` is non-null it reports how many leading segments were
  // accepted, so callers can reclaim the buffers of the rest.
  virtual Status CopyV(const UserCopyVecOp& op, size_t* segs_submitted = nullptr);

  // Fused IPC (DESIGN.md §12). A fuse-capable backend turns a FusedCopyOp
  // into one cross-address-space Copy Task whose per-chunk KFUNCs fire in
  // order as bytes land. Backends that cannot (the synchronous baseline, the
  // enable_ipc_fuse ablation) report !SupportsFusedIpc() and the kernel keeps
  // the two-step path. CopyFused may fail with ResourceExhausted (submission
  // ring full) — no side effects in that case; the caller falls back.
  virtual bool SupportsFusedIpc() const { return false; }
  virtual Status CopyFused(const FusedCopyOp& op) {
    (void)op;
    return Unimplemented("backend cannot fuse IPC transfers");
  }
  // Send-time routing observability; fuse-capable backends forward these to
  // the service's IpcFuseStats counters.
  virtual void NoteFuseEvent(FuseEvent event) { (void)event; }

  // Window registration (DESIGN.md §12): called when a receive window is
  // posted. A fuse-capable backend treats the post like an RDMA memory
  // registration — it walks the window's pages once, faulting them in and
  // publishing their translations to the service's address-transfer cache,
  // so the fused copy's DMA engines hit warm translations instead of paying
  // per-page walks on the transfer's critical path. The walk is charged to
  // the receiver's context here, where it overlaps the peer's send.
  virtual void RegisterWindow(Process* proc, uint64_t va, size_t length, ExecContext* ctx) {
    (void)proc;
    (void)va;
    (void)length;
    (void)ctx;
  }

  // Ensures all pending kernel-side copies for `proc` whose destination the
  // kernel itself is about to consume are done (e.g. send: driver syncs
  // before enqueueing packets into NIC TX queues, §5.2).
  virtual Status SyncKernel(Process* proc, ExecContext* ctx) { return OkStatus(); }

  virtual const char* name() const = 0;
};

// Baseline: synchronous ERMS copy_to_user/copy_from_user with modeled cost.
class SyncErmsBackend : public KernelCopyBackend {
 public:
  explicit SyncErmsBackend(const hw::TimingModel* timing) : timing_(timing) {}

  Status Copy(const UserCopyOp& op) override;
  const char* name() const override { return "sync-erms"; }

 private:
  const hw::TimingModel* timing_;
};

}  // namespace copier::simos

#endif  // COPIER_SRC_SIMOS_COPY_BACKEND_H_
