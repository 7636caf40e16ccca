// CopierLinux — the Copier-Linux integration layer (§5.2).
//
// Implements the pieces Copier-Linux adds to the stock kernel:
//   * KernelCopyBackend: syscalls' user↔kernel copies become asynchronous
//     k-mode Copy Tasks carrying the app's descriptor and a KFUNC completion
//     handler (network stack, Binder driver);
//   * TrapHooks: Barrier Tasks bracketing each syscall's k-mode submissions
//     so the service can track order dependency across the privilege
//     boundary (§4.2.1) — the enter barrier is submitted lazily, right before
//     the first Copy Task of the syscall, exactly as the paper specifies;
//   * CoW acceleration: the fault handler splits the page copy between
//     itself and Copier and syncs before updating the page table (§5.2).
#ifndef COPIER_SRC_CORE_LINUX_GLUE_H_
#define COPIER_SRC_CORE_LINUX_GLUE_H_

#include "src/core/service.h"
#include "src/simos/copy_backend.h"
#include "src/simos/kernel.h"

namespace copier::core {

// Waits until [offset, offset+length) of `descriptor` is ready. In manual
// mode `pump` (serve-my-client) is invoked while unready; in threaded mode
// the wait spins. Returns kFault if the descriptor failed. The caller's
// clock advances to the ready time (virtual-time blocking).
Status WaitDescriptor(const Descriptor& descriptor, size_t offset, size_t length,
                      ExecContext* ctx, const std::function<void()>& pump);

class CopierLinux : public simos::SimKernel::TrapHooks, public simos::KernelCopyBackend {
 public:
  CopierLinux(CopierService* service, simos::SimKernel* kernel);
  ~CopierLinux() override;

  // Installs this glue as the kernel's copy backend and trap observer.
  void Install();

  // --- simos::SimKernel::TrapHooks ---
  void OnTrapEnter(simos::Process& proc, ExecContext* ctx) override;
  void OnTrapExit(simos::Process& proc, ExecContext* ctx) override;

  // --- simos::KernelCopyBackend ---
  Status Copy(const simos::UserCopyOp& op) override;
  // Vectored submission (one doorbell per syscall): publishes the syscall's
  // whole op-list as ONE scatter-gather Copy Task in a single ring
  // transaction, with one barrier-state check and one NotifyRunnable carrying
  // the accumulated length. Falls back to the per-segment default when the
  // process is unattached, vectored submission is disabled (ablation), or the
  // batch reservation fails.
  Status CopyV(const simos::UserCopyVecOp& op, size_t* segs_submitted = nullptr) override;
  // Fused IPC (DESIGN.md §12): publishes one cross-address-space bookkeeping
  // Copy Task on the *sender's* client — src = the sender's buffer (write-
  // locked until the copy lands), dst = the receiver's posted window, with
  // one SgSegment per flow-control chunk so token-reclaim KFUNCs fire in the
  // same order as the two-step path's per-skb handlers. ResourceExhausted
  // (ring full) leaves no side effects; the kernel falls back to two-step.
  // Proxy-transparent forwarding rides the fused path itself.
  bool SupportsFusedIpc() const override;
  Status CopyFused(const simos::FusedCopyOp& op) override;
  void NoteFuseEvent(simos::FuseEvent event) override;
  // Pre-translates the posted window into every engine's ATCache so fused
  // DMA lands on warm translations. Only pages some engine lacks in a
  // write-capable extent are walked; a re-posted warm extent costs one probe.
  void RegisterWindow(simos::Process* proc, uint64_t va, size_t length,
                      ExecContext* ctx) override;
  Status SyncKernel(simos::Process* proc, ExecContext* ctx) override;
  const char* name() const override { return "copier-linux"; }

  // Replaces the process's CoW page-copy hook with the split Copier version:
  // the handler copies the head synchronously while Copier copies the tail,
  // then the handler syncs — blocking ≈ max(head, tail) instead of the whole
  // copy (§5.2, evaluated in §6.1.2).
  // handler_fraction defaults to the head share that balances the handler's
  // ERMS rate against Copier's AVX+DMA rate, so both sides finish together.
  void AccelerateCow(simos::Process& proc, double handler_fraction = 0.35);

  CopierService* service() { return service_; }

  // Per-syscall-bracket bookkeeping, exposed for tests. The state lives on
  // the Client (Client::ksyscall), touched only by the process's own thread —
  // concurrent processes never serialize on a glue-global lock to submit.
  bool BracketOpen(simos::Process& proc);

 private:
  Client* ClientFor(simos::Process& proc);
  // Lazily submits the syscall's enter barrier before its first Copy Task
  // (§4.2.1). Returns false when the k-mode ring is full.
  bool EnsureEnterBarrier(Client& client, QueuePair& pair);
  // Synchronous degrade for cross-client op-lists (submit_proc != proc): the
  // per-segment queue fallback would submit on the receiver's client from the
  // sender's thread, racing the receiver's syscall bracket — copy inline and
  // mark the descriptor instead.
  Status CopyVSync(const simos::UserCopyVecOp& op, size_t* segs_submitted);

  CopierService* service_;
  simos::SimKernel* kernel_;
  simos::SyncErmsBackend fallback_;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_LINUX_GLUE_H_
