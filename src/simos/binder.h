// Binder-like IPC driver (§5.2, §6.1.2).
//
// Android Binder's two-step transfer, reproduced: the client's message is
// copied into a kernel transaction buffer by the driver (the copy Copier
// optimizes), and that kernel buffer is then *mapped* — not copied — into the
// server's address space. The server parses it through the Parcel API
// (src/apps/parcel.h), reading typed items one by one; with Copier, the
// Parcel _csync()s against a descriptor placed at the front of the message
// (shared memory) before each read, so the driver-side copy overlaps with
// transaction bookkeeping and server wakeup.
#ifndef COPIER_SRC_SIMOS_BINDER_H_
#define COPIER_SRC_SIMOS_BINDER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/status.h"
#include "src/simos/kernel.h"

namespace copier::simos {

class BinderDriver : public ForwardEndpoint {
 public:
  // Transaction buffers are physically contiguous kernel allocations.
  static constexpr size_t kTxnBufferBytes = 1 * kMiB;

  explicit BinderDriver(SimKernel* kernel, size_t buffer_count = 16);

  struct Transaction {
    // Kernel transaction buffer mapped (read-only) into the server; the
    // server accesses it through this host pointer. Null when the payload
    // landed directly in the server's posted window (in_window).
    const uint8_t* data = nullptr;
    size_t length = 0;
    uint64_t id = 0;
    // Posted-receive delivery (fused IPC, DESIGN.md §12): the payload is at
    // [window_va, window_va+length) in window_proc's address space.
    bool in_window = false;
    Process* window_proc = nullptr;
    uint64_t window_va = 0;
  };

  // Client sends [client_va, client_va+length) to the server. `descriptor`
  // is the libCopier descriptor for the driver-side copy (null = synchronous
  // baseline). The returned transaction stays valid until Release(id).
  // When the server has posted a receive window that fits, the payload lands
  // in the window instead (one fused src→dst task on a fuse-capable backend,
  // a posted two-step through the transaction buffer otherwise) and the
  // returned transaction has in_window set; the window is consumed.
  StatusOr<Transaction> Transact(Process& client, uint64_t client_va, size_t length,
                                 ExecContext* ctx, void* descriptor = nullptr);

  // Registers the server's landing window for the next transaction (fused
  // IPC): the next Transact whose payload fits lands directly in
  // [va, va+length) instead of bouncing through a mapped kernel buffer.
  // `descriptor` is the server's libCopier descriptor covering the window —
  // it replaces Transact's for the posted transaction. The one-window
  // PostReceiveRing: windows form a FIFO ring and transactions consume the
  // front window, so pipelined clients stay fused at depth > 1.
  Status PostReceive(Process& server, uint64_t va, size_t length, void* descriptor,
                     ExecContext* ctx);
  // Posts a whole ring of landing windows in ONE trap (per-window ATCache
  // registration, FIFO consumption) — the Binder side of PostRecvRing.
  Status PostReceiveRing(Process& server, const std::vector<SimKernel::RecvWindowSpec>& windows,
                         ExecContext* ctx);
  // Drops all posted windows (server shutdown / mode switch).
  void ClearReceive();

  // --- ForwardEndpoint (proxy-transparent forwarding, DESIGN.md §12) ---------
  // Claims the front posted window (must fit `length`) plus a transaction
  // buffer as the flow-control token; the claim's release KFUNC frees the
  // buffer when the forwarded payload has landed.
  StatusOr<ForwardClaim> ClaimForward(size_t length, ExecContext* ctx) override;
  void AbandonForward(uint64_t token) override;

  // Server replies (small control message; modeled cost only).
  Status Reply(Process& server, ExecContext* ctx);

  void Release(uint64_t transaction_id);

 private:
  struct Buffer {
    std::unique_ptr<uint8_t[]> data;
    bool in_use = false;
    uint64_t transaction_id = 0;
  };

  // Posted-window delivery: fused single hop when the backend supports it,
  // two-step through `buffer` otherwise. Consumes `win` on success, restores
  // it on failure. The caller has already TrapEnter'd; exits the trap.
  StatusOr<Transaction> TransactPosted(Process& client, uint64_t client_va, size_t length,
                                       ExecContext* ctx, std::unique_ptr<PostedWindow> win,
                                       Buffer* buffer, uint64_t id);

  SimKernel* kernel_;
  std::mutex mu_;
  std::vector<Buffer> buffers_;
  uint64_t next_id_ = 1;
  std::deque<std::unique_ptr<PostedWindow>> posted_;  // server's landing ring (FIFO)
  // Windows claimed by an in-flight forward dispatch, keyed by the claim's
  // buffer-token id; dropped when the forward lands, restored by
  // AbandonForward when it cannot be dispatched.
  std::unordered_map<uint64_t, std::unique_ptr<PostedWindow>> claimed_;
};

}  // namespace copier::simos

#endif  // COPIER_SRC_SIMOS_BINDER_H_
