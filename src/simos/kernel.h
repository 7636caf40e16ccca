// SimKernel — the simulated OS: processes, fork/CoW, the socket stack, and
// the Binder driver, with explicit trap-enter/trap-exit events.
//
// The trap events are load-bearing: Copier's order-dependency tracking
// (§4.2.1) uses syscall trap and return as the indicators that delimit
// k-mode task batches against the u-mode queue. The Copier-Linux glue
// (src/core/linux_glue.h) registers a TrapHooks implementation that submits
// Barrier Tasks on these events.
#ifndef COPIER_SRC_SIMOS_KERNEL_H_
#define COPIER_SRC_SIMOS_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/status.h"
#include "src/hw/timing_model.h"
#include "src/simos/copy_backend.h"
#include "src/simos/phys_memory.h"
#include "src/simos/process.h"
#include "src/simos/socket.h"

namespace copier::simos {

class SimKernel {
 public:
  struct Config {
    size_t phys_bytes = 512 * kMiB;
    PhysicalMemory::AllocPolicy alloc_policy = PhysicalMemory::AllocPolicy::kSequential;
    const hw::TimingModel* timing = nullptr;  // defaults to TimingModel::Default()
    size_t skb_pool_size = 4096;
  };

  // Observes privilege-boundary crossings (used for cross-queue barriers).
  class TrapHooks {
   public:
    virtual ~TrapHooks() = default;
    virtual void OnTrapEnter(Process& proc, ExecContext* ctx) {}
    virtual void OnTrapExit(Process& proc, ExecContext* ctx) {}
  };

  SimKernel() : SimKernel(Config{}) {}
  explicit SimKernel(Config config);

  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  // --- Processes -------------------------------------------------------------

  Process* CreateProcess(std::string name);
  StatusOr<Process*> Fork(Process& parent, ExecContext* ctx);

  // --- Sockets ---------------------------------------------------------------

  // Creates a connected stream-socket pair; both endpoints stay owned by the
  // kernel and valid for its lifetime.
  std::pair<SimSocket*, SimSocket*> CreateSocketPair();

  // send(2): copies user data into skbs via the copy backend; the driver
  // delivers each skb to the peer when its copy completes (KFUNC). Returns
  // bytes sent. When the peer has posted a receive window (PostRecv), the
  // transfer routes into the window instead — as ONE fused src→dst task on a
  // fuse-capable backend (skbs are reserved only as flow-control tokens), or
  // as a posted two-step (stage into skbs, drain into the window) otherwise.
  StatusOr<size_t> Send(Process& proc, SimSocket* sock, uint64_t va, size_t length,
                        ExecContext* ctx, const SendOptions& opts = {});

  // recv(2): copies pending skb payload into the user buffer via the backend.
  // Returns bytes received; kUnavailable when no data is queued (EAGAIN);
  // kFailedPrecondition while a window is posted (use CompleteRecv).
  StatusOr<size_t> Recv(Process& proc, SimSocket* sock, uint64_t va, size_t length,
                        ExecContext* ctx, const RecvOptions& opts = {});

  // Posted-receive fast path (fused IPC, DESIGN.md §12): registers
  // [va, va+length) as `sock`'s landing window so subsequent peer sends land
  // directly in it. Skbs already queued are staged-drained into the window
  // immediately (staged-then-fused). Returns the bytes staged. The app csyncs
  // opts.descriptor (which covers the window's byte space) for readiness.
  // The one-window PostRecvRing: the window goes behind any already posted;
  // sends fill them in FIFO order and CompleteRecv reaps the front one.
  StatusOr<size_t> PostRecv(Process& proc, SimSocket* sock, uint64_t va, size_t length,
                            ExecContext* ctx, const RecvOptions& opts = {});

  // Multi-window receive ring (DESIGN.md §12): posts all of `windows` behind
  // any already-posted ones in ONE trap — one syscall bracket, per-window
  // ATCache registration, FIFO consumption. Pipelined senders keep landing
  // fused at queue depth > 1 instead of falling back between re-posts.
  // Returns the bytes of already-queued skbs drained into the new windows.
  struct RecvWindowSpec {
    uint64_t va = 0;
    size_t length = 0;
    void* descriptor = nullptr;  // libCopier descriptor covering this window
  };
  StatusOr<size_t> PostRecvRing(Process& proc, SimSocket* sock,
                                const std::vector<RecvWindowSpec>& windows, ExecContext* ctx);

  // Closes the oldest posted window and returns the bytes that landed in it
  // (plus, for forward-posted windows, the bytes forwarded through it).
  StatusOr<size_t> CompleteRecv(Process& proc, SimSocket* sock, ExecContext* ctx);

  // Test hook (kfunc-order differentials): invoked with the skb id from every
  // skb delivery/reclaim KFUNC the socket paths fire, in firing order.
  void SetKfuncProbe(std::function<void(uint32_t)> probe) { kfunc_probe_ = std::move(probe); }

  // --- Traps -------------------------------------------------------------------

  // Explicit bracketing for syscalls implemented outside SimKernel (Binder,
  // custom app syscalls). Charges entry/exit cost and fires hooks.
  void TrapEnter(Process& proc, ExecContext* ctx);
  void TrapExit(Process& proc, ExecContext* ctx);

  // --- Wiring ------------------------------------------------------------------

  void SetCopyBackend(KernelCopyBackend* backend) { backend_ = backend; }
  KernelCopyBackend* copy_backend() { return backend_; }

  void SetTrapHooks(TrapHooks* hooks) { trap_hooks_ = hooks; }

  PhysicalMemory& phys() { return *phys_; }
  SkbPool& skb_pool() { return *skb_pool_; }
  const hw::TimingModel& timing() const { return *timing_; }

 private:
  // Classic two-step send: user → skbs, delivery KFUNC per skb (the
  // pre-posted-window path, verbatim).
  StatusOr<size_t> SendClassic(Process& proc, SimSocket* sock, uint64_t va, size_t length,
                               ExecContext* ctx, const SendOptions& opts);
  // Posted-window send: fused single-hop when the backend supports it,
  // two-step staged through the reserved skb tokens otherwise.
  StatusOr<size_t> SendPosted(Process& proc, SimSocket* peer, PostedWindow* win, uint64_t va,
                              size_t length, ExecContext* ctx, const SendOptions& opts);
  // Proxy-transparent forwarding (DESIGN.md §12): a complete message landing
  // on an empty forward-posted window is rewritten in the kernel and
  // dispatched as one src→destination-window fused task; the payload never
  // touches the proxy's address space. Sets *handled=false (and returns 0)
  // when the rule declines or the dispatch cannot proceed — the caller lands
  // the bytes in the window via the normal posted path.
  StatusOr<size_t> SendForward(Process& proc, SimSocket* peer, PostedWindow* win, uint64_t va,
                               size_t length, ExecContext* ctx, bool* handled);
  // Drains `sock`'s queued skbs into its posted window (classic scatter ops
  // with reclaim KFUNCs, descriptor offsets at win->filled). `submit_proc` is
  // the syscall's process: the receiver for PostRecv, the sender when a send
  // finds staged bytes ahead of it in the stream.
  Status DrainRxIntoWindow(Process& submit_proc, SimSocket* sock, PostedWindow* win,
                           ExecContext* ctx);
  // Ring-aware drain: fills posted windows in FIFO order until the queue or
  // the ring's room is exhausted.
  Status DrainRxIntoRing(Process& submit_proc, SimSocket* sock, ExecContext* ctx);

  const hw::TimingModel* timing_;
  std::unique_ptr<PhysicalMemory> phys_;
  std::unique_ptr<SkbPool> skb_pool_;
  std::unique_ptr<SyncErmsBackend> default_backend_;
  KernelCopyBackend* backend_ = nullptr;
  TrapHooks* trap_hooks_ = nullptr;

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<SimSocket>> sockets_;
  uint32_t next_pid_ = 1;
  std::function<void(uint32_t)> kfunc_probe_;
};

}  // namespace copier::simos

#endif  // COPIER_SRC_SIMOS_KERNEL_H_
