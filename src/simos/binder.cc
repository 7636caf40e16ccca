#include "src/simos/binder.h"

namespace copier::simos {

BinderDriver::BinderDriver(SimKernel* kernel, size_t buffer_count) : kernel_(kernel) {
  buffers_.resize(buffer_count);
  for (Buffer& buf : buffers_) {
    buf.data = std::make_unique<uint8_t[]>(kTxnBufferBytes);
  }
}

StatusOr<BinderDriver::Transaction> BinderDriver::Transact(Process& client, uint64_t client_va,
                                                           size_t length, ExecContext* ctx,
                                                           void* descriptor) {
  if (length > kTxnBufferBytes) {
    return InvalidArgument("binder transaction exceeds buffer size");
  }
  kernel_->TrapEnter(client, ctx);
  KernelCopyBackend* backend = kernel_->copy_backend();
  const bool fuse_capable = backend->SupportsFusedIpc();

  // A server-posted window that fits takes the transaction; too-small windows
  // stay posted and the payload bounces through a buffer as usual.
  std::unique_ptr<PostedWindow> win;
  bool window_too_small = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!posted_.empty()) {
      // FIFO: only the front window may take a transaction (ring order is the
      // delivery order the server posted for).
      if (length <= posted_.front()->length) {
        win = std::move(posted_.front());
        posted_.pop_front();
      } else {
        window_too_small = true;
      }
    }
  }
  if (fuse_capable && win == nullptr) {
    backend->NoteFuseEvent(window_too_small ? FuseEvent::kFallbackWindowFull
                                            : FuseEvent::kFallbackNotPosted);
  }

  // The transaction buffer doubles as the flow-control token on the posted
  // path: fused transfers never touch its payload but still occupy the slot
  // until their completion KFUNC, matching two-step buffer pressure.
  Buffer* buffer = nullptr;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Buffer& buf : buffers_) {
      if (!buf.in_use) {
        buf.in_use = true;
        id = buf.transaction_id = next_id_++;
        buffer = &buf;
        break;
      }
    }
  }
  if (buffer == nullptr) {
    if (fuse_capable && win != nullptr) {
      backend->NoteFuseEvent(FuseEvent::kFallbackPoolExhausted);
    }
    if (win != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      posted_.push_front(std::move(win));  // Restore the unconsumed window.
    }
    kernel_->TrapExit(client, ctx);
    return ResourceExhausted("no free binder transaction buffer");
  }

  if (win != nullptr) {
    return TransactPosted(client, client_va, length, ctx, std::move(win), buffer, id);
  }

  // Step 1: driver copies client data into the kernel transaction buffer —
  // a single-segment vectored op, so the syscall still publishes with one
  // ring transaction and one doorbell on the Copier backend.
  UserCopyVecOp op;
  op.proc = &client;
  op.user_va = client_va;
  op.to_user = false;
  op.descriptor = descriptor;
  op.ctx = ctx;
  op.segs.push_back(UserCopySeg{buffer->data.get(), length, nullptr});
  const Status status = kernel_->copy_backend()->CopyV(op);
  if (!status.ok()) {
    Release(id);
    kernel_->TrapExit(client, ctx);
    return status;
  }

  // Step 2: driver bookkeeping + scheduling the server thread — this is the
  // Copy-Use window that hides the copy (§5.2). The buffer is mapped, not
  // copied, into the server.
  ChargeCtx(ctx, kernel_->timing().binder_transaction_cycles);

  kernel_->TrapExit(client, ctx);
  Transaction txn;
  txn.data = buffer->data.get();
  txn.length = length;
  txn.id = id;
  return txn;
}

StatusOr<BinderDriver::Transaction> BinderDriver::TransactPosted(
    Process& client, uint64_t client_va, size_t length, ExecContext* ctx,
    std::unique_ptr<PostedWindow> win, Buffer* buffer, uint64_t id) {
  KernelCopyBackend* backend = kernel_->copy_backend();
  auto restore_window = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_front(std::move(win));
  };
  bool staged = !backend->SupportsFusedIpc();
  if (!staged) {
    // Fused single hop: client → window, no kernel-buffer bounce. One chunk —
    // its completion KFUNC frees the buffer token, mirroring the two-step
    // path's single buffer-reclaim handler.
    FusedCopyOp fop;
    fop.src_proc = &client;
    fop.src_va = client_va;
    fop.dst_proc = win->proc;
    fop.dst_va = win->va;
    fop.length = length;
    fop.descriptor = win->descriptor;
    fop.descriptor_offset = 0;
    fop.protect_src = true;
    fop.ctx = ctx;
    fop.chunks.push_back(FusedChunk{length, [this, id](Cycles) { Release(id); }});
    const Status fuse_status = backend->CopyFused(fop);
    backend->NoteFuseEvent(fuse_status.ok() ? FuseEvent::kFused : FuseEvent::kFallbackRing);
    staged = !fuse_status.ok();
  }
  if (staged) {
    // Posted two-step: client → transaction buffer, then buffer → window on
    // the client's queue (submit_proc), so the drain trails the staging FIFO.
    UserCopyVecOp vop1;
    vop1.proc = &client;
    vop1.user_va = client_va;
    vop1.to_user = false;
    vop1.ctx = ctx;
    vop1.segs.push_back(UserCopySeg{buffer->data.get(), length, nullptr});
    Status status = backend->CopyV(vop1);
    if (status.ok()) {
      UserCopyVecOp vop2;
      vop2.proc = win->proc;
      vop2.submit_proc = &client;
      vop2.user_va = win->va;
      vop2.to_user = true;
      vop2.descriptor = win->descriptor;
      vop2.descriptor_offset = 0;
      vop2.ctx = ctx;
      vop2.segs.push_back(
          UserCopySeg{buffer->data.get(), length, [this, id](Cycles) { Release(id); }});
      status = backend->CopyV(vop2);
    }
    if (!status.ok()) {
      Release(id);
      restore_window();
      kernel_->TrapExit(client, ctx);
      return status;
    }
  }
  ChargeCtx(ctx, kernel_->timing().binder_transaction_cycles);
  kernel_->TrapExit(client, ctx);
  Transaction txn;
  txn.length = length;
  txn.id = id;
  txn.in_window = true;
  txn.window_proc = win->proc;
  txn.window_va = win->va;
  return txn;
}

Status BinderDriver::PostReceive(Process& server, uint64_t va, size_t length, void* descriptor,
                                 ExecContext* ctx) {
  return PostReceiveRing(server, {{va, length, descriptor}}, ctx);
}

Status BinderDriver::PostReceiveRing(Process& server,
                                     const std::vector<SimKernel::RecvWindowSpec>& windows,
                                     ExecContext* ctx) {
  if (windows.empty()) {
    return InvalidArgument("empty receive ring");
  }
  for (const SimKernel::RecvWindowSpec& spec : windows) {
    if (spec.length == 0) {
      return InvalidArgument("zero-length receive window");
    }
  }
  KernelCopyBackend* backend = kernel_->copy_backend();
  kernel_->TrapEnter(server, ctx);
  for (const SimKernel::RecvWindowSpec& spec : windows) {
    auto window = std::make_unique<PostedWindow>();
    window->proc = &server;
    window->va = spec.va;
    window->length = spec.length;
    window->descriptor = spec.descriptor;
    bool behind = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      behind = !posted_.empty();
      posted_.push_back(std::move(window));
    }
    if (behind) {
      backend->NoteFuseEvent(FuseEvent::kRingWindowPosted);
    }
    // Registration (DESIGN.md §12): pre-translate the window so a fused
    // transact lands on warm ATCache entries; the walk is the server's
    // post-time cost, overlapped with the client's send.
    backend->RegisterWindow(&server, spec.va, spec.length, ctx);
  }
  ChargeCtx(ctx, kernel_->timing().binder_transaction_cycles / 4);  // driver bookkeeping
  kernel_->TrapExit(server, ctx);
  return OkStatus();
}

void BinderDriver::ClearReceive() {
  std::lock_guard<std::mutex> lock(mu_);
  posted_.clear();
}

StatusOr<ForwardClaim> BinderDriver::ClaimForward(size_t length, ExecContext* ctx) {
  std::unique_ptr<PostedWindow> win;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (posted_.empty()) {
      return FailedPrecondition("no destination window posted");
    }
    if (length > posted_.front()->length) {
      return FailedPrecondition("destination window too small");
    }
    win = std::move(posted_.front());
    posted_.pop_front();
  }
  // The transaction buffer is the flow-control token, exactly as on the
  // app-level path: a forwarded message occupies a buffer slot (never its
  // payload) until the fused task's settle KFUNC releases it.
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Buffer& buf : buffers_) {
      if (!buf.in_use) {
        buf.in_use = true;
        id = buf.transaction_id = next_id_++;
        break;
      }
    }
    if (id == 0) {
      posted_.push_front(std::move(win));
      return ResourceExhausted("no free binder transaction buffer");
    }
  }
  ForwardClaim claim;
  claim.proc = win->proc;
  claim.va = win->va;
  claim.descriptor = win->descriptor;
  claim.dispatch_cycles = kernel_->timing().binder_transaction_cycles;
  claim.token = id;
  claim.release = [this, id](Cycles) {
    Release(id);
    std::lock_guard<std::mutex> lock(mu_);
    claimed_.erase(id);
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    claimed_[id] = std::move(win);
  }
  (void)ctx;
  return claim;
}

void BinderDriver::AbandonForward(uint64_t token) {
  Release(token);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = claimed_.find(token);
  if (it != claimed_.end()) {
    posted_.push_front(std::move(it->second));
    claimed_.erase(it);
  }
}

Status BinderDriver::Reply(Process& server, ExecContext* ctx) {
  kernel_->TrapEnter(server, ctx);
  ChargeCtx(ctx, kernel_->timing().binder_transaction_cycles / 4);  // small control reply
  kernel_->TrapExit(server, ctx);
  return OkStatus();
}

void BinderDriver::Release(uint64_t transaction_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Buffer& buf : buffers_) {
    if (buf.in_use && buf.transaction_id == transaction_id) {
      buf.in_use = false;
      return;
    }
  }
}

}  // namespace copier::simos
