#include "src/simos/kernel.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "src/common/logging.h"

namespace copier::simos {

SimKernel::SimKernel(Config config)
    : timing_(config.timing != nullptr ? config.timing : &hw::TimingModel::Default()) {
  phys_ = std::make_unique<PhysicalMemory>(config.phys_bytes, config.alloc_policy);
  skb_pool_ = std::make_unique<SkbPool>(config.skb_pool_size, timing_);
  default_backend_ = std::make_unique<SyncErmsBackend>(timing_);
  backend_ = default_backend_.get();
}

Process* SimKernel::CreateProcess(std::string name) {
  const uint32_t pid = next_pid_++;
  auto space = std::make_unique<AddressSpace>(phys_.get(), pid, timing_);
  processes_.push_back(std::make_unique<Process>(pid, std::move(space), std::move(name)));
  return processes_.back().get();
}

StatusOr<Process*> SimKernel::Fork(Process& parent, ExecContext* ctx) {
  TrapEnter(parent, ctx);
  const uint32_t pid = next_pid_++;
  auto child_space_or = parent.mem().ForkCow(pid);
  if (!child_space_or.ok()) {
    TrapExit(parent, ctx);
    return child_space_or.status();
  }
  ChargeCtx(ctx, timing_->fork_base_cycles +
                     timing_->fork_per_page_cycles * parent.mem().resident_pages());
  processes_.push_back(std::make_unique<Process>(pid, std::move(*child_space_or),
                                                 parent.name() + "-child"));
  Process* child = processes_.back().get();
  TrapExit(parent, ctx);
  return child;
}

std::pair<SimSocket*, SimSocket*> SimKernel::CreateSocketPair() {
  sockets_.push_back(std::make_unique<SimSocket>(skb_pool_.get()));
  SimSocket* a = sockets_.back().get();
  sockets_.push_back(std::make_unique<SimSocket>(skb_pool_.get()));
  SimSocket* b = sockets_.back().get();
  a->set_peer(b);
  b->set_peer(a);
  return {a, b};
}

void SimKernel::TrapEnter(Process& proc, ExecContext* ctx) {
  ChargeCtx(ctx, timing_->syscall_entry_cycles);
  if (trap_hooks_ != nullptr) {
    trap_hooks_->OnTrapEnter(proc, ctx);
  }
}

void SimKernel::TrapExit(Process& proc, ExecContext* ctx) {
  if (trap_hooks_ != nullptr) {
    trap_hooks_->OnTrapExit(proc, ctx);
  }
  ChargeCtx(ctx, timing_->syscall_exit_cycles);
}

StatusOr<size_t> SimKernel::Send(Process& proc, SimSocket* sock, uint64_t va, size_t length,
                                 ExecContext* ctx, const SendOptions& opts) {
  if (length == 0) {
    return InvalidArgument("zero-length send");
  }
  TrapEnter(proc, ctx);
  SimSocket* peer = sock->peer();
  const bool fuse_capable = backend_->SupportsFusedIpc();
  StatusOr<size_t> result = 0;
  if (!peer->HasPostedWindow()) {
    if (fuse_capable) {
      backend_->NoteFuseEvent(FuseEvent::kFallbackNotPosted);
    }
    result = SendClassic(proc, sock, va, length, ctx, opts);
  } else {
    // Stream order: skbs already queued at the peer carry bytes sent before
    // this call — drain them into the ring ahead of this payload.
    Status drain_status = OkStatus();
    if (peer->HasData()) {
      drain_status = DrainRxIntoRing(proc, peer, ctx);
    }
    PostedWindow* win = peer->ActiveWindow();
    if (!drain_status.ok()) {
      result = drain_status;
    } else if (win == nullptr) {
      // Every posted window is full.
      if (fuse_capable) {
        backend_->NoteFuseEvent(FuseEvent::kFallbackWindowFull);
      }
      result = SendClassic(proc, sock, va, length, ctx, opts);
    } else {
      bool forwarded = false;
      if (fuse_capable && win->filled == 0 && !peer->HasData() &&
          peer->forward_rule() != nullptr) {
        result = SendForward(proc, peer, win, va, length, ctx, &forwarded);
      }
      if (!forwarded) {
        // Fill the ring's windows in FIFO order within this one syscall: a
        // send larger than the active window's room rolls over into the next
        // posted window instead of returning short.
        size_t sent_total = 0;
        Status err = OkStatus();
        while (sent_total < length) {
          PostedWindow* w = peer->ActiveWindow();
          if (w == nullptr) {
            break;  // ring full: short send, receiver must reap/re-post
          }
          if (sent_total > 0) {
            backend_->NoteFuseEvent(FuseEvent::kRingRollover);
          }
          auto part =
              SendPosted(proc, peer, w, va + sent_total, length - sent_total, ctx, opts);
          if (!part.ok()) {
            err = part.status();
            break;
          }
          if (*part == 0) {
            break;
          }
          sent_total += *part;
        }
        if (sent_total > 0) {
          result = sent_total;
        } else {
          result = err.ok() ? StatusOr<size_t>(0) : StatusOr<size_t>(err);
        }
      }
    }
  }
  TrapExit(proc, ctx);
  return result;
}

StatusOr<size_t> SimKernel::SendClassic(Process& proc, SimSocket* sock, uint64_t va,
                                        size_t length, ExecContext* ctx,
                                        const SendOptions& opts) {
  SimSocket* peer = sock->peer();
  SkbPool* pool = sock->pool();
  auto probe = kfunc_probe_;
  // Gather the syscall's whole skb op-list, then submit it with ONE vectored
  // copy — one ring transaction and one doorbell on the Copier backend, a
  // per-segment loop on synchronous backends.
  UserCopyVecOp vop;
  vop.proc = &proc;
  vop.user_va = va;
  vop.to_user = false;
  vop.lazy = opts.lazy;
  vop.ctx = ctx;
  std::vector<Skb*> acquired;
  size_t sent = 0;
  const Cycles nic_tx = timing_->nic_tx_enqueue_cycles;
  while (sent < length) {
    auto skb_or = pool->Acquire(ctx);
    if (!skb_or.ok()) {
      break;  // Short send: pool exhausted (receiver must drain).
    }
    Skb* skb = *skb_or;
    const size_t take = std::min(kMtu, length - sent);
    skb->length = take;
    // TCP/IP header processing (checksum offloaded: payload untouched, §5.2).
    ChargeCtx(ctx, timing_->tcp_tx_per_packet_cycles);
    // The driver syncs the data right before the NIC TX enqueue — i.e. at
    // segment completion, which delivers the packet (this is the send-side
    // Copy-Use window: socket-layer submit → driver enqueue).
    acquired.push_back(skb);
    vop.segs.push_back(UserCopySeg{skb->data, take, [peer, skb, nic_tx, probe](Cycles when) {
                                     if (probe) probe(skb->id);
                                     skb->delivered_at = when + nic_tx;
                                     peer->EnqueueRx(skb);
                                   }});
    sent += take;
  }
  if (sent == 0) {
    return ResourceExhausted("skb pool exhausted");
  }
  size_t segs_submitted = 0;
  const Status status = backend_->CopyV(vop, &segs_submitted);
  if (!status.ok()) {
    // Segments past the failure point were never submitted: their skbs still
    // belong to the sender (submitted ones are delivered/reclaimed by their
    // completion handlers).
    for (size_t i = segs_submitted; i < acquired.size(); ++i) {
      pool->Release(acquired[i]);
    }
    return status;
  }
  return sent;
}

StatusOr<size_t> SimKernel::SendPosted(Process& proc, SimSocket* peer, PostedWindow* win,
                                       uint64_t va, size_t length, ExecContext* ctx,
                                       const SendOptions& /*opts*/) {
  SkbPool* pool = peer->pool();
  const size_t target = std::min(length, win->length - win->filled);
  const bool fuse_capable = backend_->SupportsFusedIpc();
  auto probe = kfunc_probe_;
  // Reserve skbs as flow-control tokens even though the fused path never
  // touches their payload: the posted path must exert the same pool pressure
  // — and fire the same per-chunk reclaim KFUNCs, in the same order — as the
  // two-step path it replaces. The reservation is one bulk pool transaction,
  // and the transfer is one logical segment (the window bypasses TCP
  // segmentation), so TX protocol work is charged once, not per MTU.
  std::vector<Skb*> tokens =
      pool->AcquireBatch((target + kMtu - 1) / kMtu, ctx);
  std::vector<size_t> takes;
  size_t covered = 0;
  for (Skb* skb : tokens) {
    const size_t take = std::min(kMtu, target - covered);
    skb->length = take;
    takes.push_back(take);
    covered += take;
  }
  if (!tokens.empty()) {
    ChargeCtx(ctx, timing_->tcp_tx_per_packet_cycles);
  }
  if (covered == 0) {
    if (fuse_capable) {
      backend_->NoteFuseEvent(FuseEvent::kFallbackPoolExhausted);
    }
    return ResourceExhausted("skb pool exhausted");
  }
  const size_t dst_off = win->filled;
  if (fuse_capable) {
    // Fused single hop: ONE src→dst Copy Task, no kernel-buffer bounce. The
    // sender's range stays write-protected until the task lands (CopyFused
    // locks it); each chunk's completion releases its flow-control token.
    FusedCopyOp fop;
    fop.src_proc = &proc;
    fop.src_va = va;
    fop.dst_proc = win->proc;
    fop.dst_va = win->va + dst_off;
    fop.length = covered;
    fop.descriptor = win->descriptor;
    fop.descriptor_offset = dst_off;
    fop.protect_src = true;
    fop.ctx = ctx;
    fop.chunks.reserve(tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      Skb* skb = tokens[i];
      fop.chunks.push_back(FusedChunk{takes[i], [pool, skb, probe](Cycles) {
                                        if (probe) probe(skb->id);
                                        pool->Release(skb);
                                      }});
    }
    const Status fuse_status = backend_->CopyFused(fop);
    if (fuse_status.ok()) {
      backend_->NoteFuseEvent(FuseEvent::kFused);
      win->filled += covered;
      return covered;
    }
    // Ring full: CopyFused left no side effects, the tokens are still ours —
    // stage through them instead.
    backend_->NoteFuseEvent(FuseEvent::kFallbackRing);
  }
  // Posted two-step: stage sender→skbs, then drain skbs→window. Both halves
  // ride the sender's client (vop2.submit_proc), so the drain is queued FIFO
  // behind the staging it reads from.
  UserCopyVecOp vop1;
  vop1.proc = &proc;
  vop1.user_va = va;
  vop1.to_user = false;
  // Never lazy: the drain reads the skbs as the very next task, so deferring
  // the staging would invert the data dependency.
  vop1.ctx = ctx;
  for (size_t i = 0; i < tokens.size(); ++i) {
    vop1.segs.push_back(UserCopySeg{tokens[i]->data, takes[i], nullptr});
  }
  size_t staged = 0;
  const Status stage_status = backend_->CopyV(vop1, &staged);
  if (!stage_status.ok()) {
    for (size_t i = staged; i < tokens.size(); ++i) {
      pool->Release(tokens[i]);
    }
    if (staged == 0) {
      return stage_status;
    }
    tokens.resize(staged);  // Truncate to the staged prefix.
    takes.resize(staged);
    covered = 0;
    for (size_t take : takes) {
      covered += take;
    }
  }
  UserCopyVecOp vop2;
  vop2.proc = win->proc;
  vop2.submit_proc = &proc;
  vop2.user_va = win->va + dst_off;
  vop2.to_user = true;
  vop2.descriptor = win->descriptor;
  vop2.descriptor_offset = dst_off;
  vop2.ctx = ctx;
  for (size_t i = 0; i < tokens.size(); ++i) {
    Skb* skb = tokens[i];
    vop2.segs.push_back(UserCopySeg{skb->data, takes[i], [pool, skb, probe](Cycles) {
                                      if (probe) probe(skb->id);
                                      pool->Release(skb);
                                    }});
  }
  size_t drained = 0;
  const Status drain_status = backend_->CopyV(vop2, &drained);
  if (!drain_status.ok()) {
    for (size_t i = drained; i < tokens.size(); ++i) {
      pool->Release(tokens[i]);
    }
    size_t landed = 0;
    for (size_t i = 0; i < drained; ++i) {
      landed += takes[i];
    }
    if (landed == 0) {
      return drain_status;
    }
    win->filled += landed;
    return landed;
  }
  win->filled += covered;
  return covered;
}

StatusOr<size_t> SimKernel::SendForward(Process& proc, SimSocket* peer, PostedWindow* win,
                                        uint64_t va, size_t length, ExecContext* ctx,
                                        bool* handled) {
  *handled = false;
  const ForwardRule* rule = peer->forward_rule();
  if (rule == nullptr || rule->endpoint == nullptr || !rule->rewrite) {
    return 0;
  }
  // Bounded header peek: the kernel inspects at most inspect_limit bytes to
  // classify the message — the payload is never read here.
  const size_t head_len = std::min(rule->inspect_limit, length);
  std::vector<uint8_t> head(head_len);
  if (!proc.mem().ReadBytes(va, head.data(), head_len, ctx).ok()) {
    return 0;  // unreadable header: land locally, the app will fault properly
  }
  ChargeCtx(ctx, rule->rewrite_cycles);
  std::optional<ForwardAction> action = rule->rewrite(head.data(), head_len, length);
  if (!action.has_value() || action->body_off > length) {
    // Partial message or a frame the rule does not own: app-level path.
    backend_->NoteFuseEvent(FuseEvent::kFallbackForward);
    return 0;
  }
  const size_t payload = length - action->body_off;
  const size_t fused_len = action->prefix.size() + payload;
  auto claim_or = rule->endpoint->ClaimForward(fused_len, ctx);
  if (!claim_or.ok()) {
    backend_->NoteFuseEvent(FuseEvent::kFallbackForward);
    return 0;
  }
  ForwardClaim claim = std::move(*claim_or);

  // Flow-control parity with the posted path the message would otherwise
  // take: reserve the same skb token run for the same stream bytes, so the
  // sender sees identical pool pressure and the same reclaim KFUNC ids fire
  // in the same order whether or not the message was forwarded.
  SkbPool* pool = peer->pool();
  std::vector<Skb*> tokens = pool->AcquireBatch((length + kMtu - 1) / kMtu, ctx);
  std::vector<size_t> takes;
  size_t covered = 0;
  for (Skb* skb : tokens) {
    const size_t take = std::min(kMtu, length - covered);
    skb->length = take;
    takes.push_back(take);
    covered += take;
  }
  // The first chunk absorbs the header-length delta (rewritten prefix in,
  // original header out), so chunk lengths sum to the fused length while the
  // chunk *count* stays the token count.
  const int64_t delta = static_cast<int64_t>(action->prefix.size()) -
                        static_cast<int64_t>(action->body_off);
  if (covered < length ||
      static_cast<int64_t>(takes[0]) + delta < 0) {
    for (Skb* skb : tokens) {
      pool->Release(skb);
    }
    rule->endpoint->AbandonForward(claim.token);
    backend_->NoteFuseEvent(FuseEvent::kFallbackForward);
    return 0;  // the posted path re-acquires and lands locally / two-steps
  }
  ChargeCtx(ctx, timing_->tcp_tx_per_packet_cycles);  // one logical segment
  ChargeCtx(ctx, claim.dispatch_cycles);              // destination protocol work

  auto probe = kfunc_probe_;
  FusedCopyOp fop;
  fop.src_proc = &proc;
  fop.src_va = va + action->body_off;
  fop.dst_proc = claim.proc;
  fop.dst_va = claim.va;
  fop.length = fused_len;
  fop.descriptor = claim.descriptor;
  fop.descriptor_offset = 0;
  fop.protect_src = true;
  fop.ctx = ctx;
  fop.src_prefix = std::make_shared<const std::vector<uint8_t>>(std::move(action->prefix));
  // The proxy's window descriptor settles when the forward lands: no bytes
  // ever arrive in the window, but a csync against it must not hang.
  fop.bypassed_descriptor = win->descriptor;
  fop.bypassed_length = length;
  fop.chunks.reserve(tokens.size() + 1);
  for (size_t i = 0; i < tokens.size(); ++i) {
    Skb* skb = tokens[i];
    const size_t chunk_len =
        i == 0 ? static_cast<size_t>(static_cast<int64_t>(takes[i]) + delta) : takes[i];
    fop.chunks.push_back(FusedChunk{chunk_len, [pool, skb, probe](Cycles) {
                                      if (probe) probe(skb->id);
                                      pool->Release(skb);
                                    }});
  }
  // Zero-length settle chunk: fires after every payload chunk has landed,
  // releasing the destination endpoint's flow-control token — mirroring the
  // second hop's single buffer-reclaim KFUNC on the app-level path.
  fop.chunks.push_back(FusedChunk{0, claim.release});

  const Status fuse_status = backend_->CopyFused(fop);
  if (!fuse_status.ok()) {
    for (Skb* skb : tokens) {
      pool->Release(skb);
    }
    rule->endpoint->AbandonForward(claim.token);
    backend_->NoteFuseEvent(FuseEvent::kFallbackRing);
    return 0;  // ring full: the posted path stages through skbs instead
  }
  backend_->NoteFuseEvent(FuseEvent::kForwardFused);
  win->forwarded += length;
  *handled = true;
  return length;
}

Status SimKernel::DrainRxIntoRing(Process& submit_proc, SimSocket* sock, ExecContext* ctx) {
  while (sock->HasData()) {
    PostedWindow* win = sock->ActiveWindow();
    if (win == nullptr) {
      return OkStatus();  // ring full: the rest stays queued
    }
    const size_t before = win->filled;
    const Status status = DrainRxIntoWindow(submit_proc, sock, win, ctx);
    if (!status.ok()) {
      return status;
    }
    if (win->filled == before) {
      return OkStatus();
    }
  }
  return OkStatus();
}

Status SimKernel::DrainRxIntoWindow(Process& submit_proc, SimSocket* sock, PostedWindow* win,
                                    ExecContext* ctx) {
  SkbPool* pool = sock->pool();
  const size_t room = win->length - win->filled;
  if (room == 0) {
    return OkStatus();
  }
  auto probe = kfunc_probe_;
  size_t packets = 0;
  Cycles latest_delivery = 0;
  UserCopyVecOp vop;
  vop.proc = win->proc;
  vop.submit_proc = &submit_proc;
  vop.user_va = win->va + win->filled;
  vop.to_user = true;
  vop.descriptor = win->descriptor;
  vop.descriptor_offset = win->filled;
  vop.ctx = ctx;
  std::vector<Skb*> consumed_skbs;
  const size_t consumed =
      sock->ConsumeRx(room, &latest_delivery, [&](Skb* skb, size_t offset, size_t take) {
        ++packets;
        skb->pending_copies.fetch_add(1, std::memory_order_acq_rel);
        consumed_skbs.push_back(skb);
        vop.segs.push_back(UserCopySeg{skb->data + offset, take, [pool, skb, probe](Cycles) {
                                         if (probe) probe(skb->id);
                                         SimSocket::CompleteCopy(pool, skb);
                                       }});
      });
  if (consumed == 0) {
    return OkStatus();
  }
  if (ctx != nullptr) {
    ctx->WaitUntil(latest_delivery);
  }
  ChargeCtx(ctx, timing_->tcp_rx_per_packet_cycles * packets + timing_->socket_status_cycles);
  size_t segs_submitted = 0;
  const Status status = backend_->CopyV(vop, &segs_submitted);
  if (!status.ok()) {
    for (size_t i = segs_submitted; i < consumed_skbs.size(); ++i) {
      SimSocket::CompleteCopy(pool, consumed_skbs[i]);
    }
    size_t landed = 0;
    for (size_t i = 0; i < segs_submitted; ++i) {
      landed += vop.segs[i].length;
    }
    win->filled += landed;  // The submitted prefix still lands in the window.
    return status;
  }
  win->filled += consumed;
  return OkStatus();
}

StatusOr<size_t> SimKernel::PostRecv(Process& proc, SimSocket* sock, uint64_t va, size_t length,
                                     ExecContext* ctx, const RecvOptions& opts) {
  return PostRecvRing(proc, sock, {{va, length, opts.descriptor}}, ctx);
}

StatusOr<size_t> SimKernel::PostRecvRing(Process& proc, SimSocket* sock,
                                         const std::vector<RecvWindowSpec>& windows,
                                         ExecContext* ctx) {
  if (windows.empty()) {
    return InvalidArgument("empty receive ring");
  }
  for (const RecvWindowSpec& spec : windows) {
    if (spec.length == 0) {
      return InvalidArgument("zero-length receive window");
    }
  }
  TrapEnter(proc, ctx);
  std::vector<PostedWindow*> posted;
  posted.reserve(windows.size());
  for (const RecvWindowSpec& spec : windows) {
    auto window = std::make_unique<PostedWindow>();
    window->proc = &proc;
    window->va = spec.va;
    window->length = spec.length;
    window->descriptor = spec.descriptor;
    posted.push_back(window.get());
    if (sock->HasPostedWindow()) {
      backend_->NoteFuseEvent(FuseEvent::kRingWindowPosted);
    }
    sock->PostWindow(std::move(window));
    // Registration (DESIGN.md §12): every window's pages are pre-walked into
    // the ATCache at post time, so fused sends — the Nth pipelined one as
    // much as the first — land on warm entries; the walk is the receiver's
    // post-time cost.
    backend_->RegisterWindow(&proc, spec.va, spec.length, ctx);
  }
  // Staged-then-fused: bytes already queued were sent before the windows
  // existed — drain them into the ring now so stream order is preserved.
  const Status status = DrainRxIntoRing(proc, sock, ctx);
  TrapExit(proc, ctx);
  if (!status.ok()) {
    return status;
  }
  size_t staged = 0;
  for (const PostedWindow* win : posted) {
    staged += win->filled;
  }
  return staged;
}

StatusOr<size_t> SimKernel::CompleteRecv(Process& proc, SimSocket* sock, ExecContext* ctx) {
  TrapEnter(proc, ctx);
  std::unique_ptr<PostedWindow> win = sock->TakeWindow();
  ChargeCtx(ctx, timing_->socket_status_cycles);
  TrapExit(proc, ctx);
  if (win == nullptr) {
    return FailedPrecondition("no receive window posted");
  }
  return win->filled + win->forwarded;
}

StatusOr<size_t> SimKernel::Recv(Process& proc, SimSocket* sock, uint64_t va, size_t length,
                                 ExecContext* ctx, const RecvOptions& opts) {
  if (length == 0) {
    return InvalidArgument("zero-length recv");
  }
  if (sock->HasPostedWindow()) {
    return FailedPrecondition("recv while a window is posted (use CompleteRecv)");
  }
  TrapEnter(proc, ctx);
  SkbPool* pool = sock->pool();
  auto probe = kfunc_probe_;
  size_t packets = 0;
  Cycles latest_delivery = 0;
  // Gather the consumed skb pieces into one op-list; each piece's completion
  // handler releases its skb once drained.
  UserCopyVecOp vop;
  vop.proc = &proc;
  vop.user_va = va;
  vop.to_user = true;
  vop.descriptor = opts.descriptor;
  vop.descriptor_offset = 0;
  vop.lazy = opts.lazy;
  vop.ctx = ctx;
  std::vector<Skb*> consumed_skbs;
  const size_t consumed =
      sock->ConsumeRx(length, &latest_delivery, [&](Skb* skb, size_t offset, size_t take) {
        ++packets;
        skb->pending_copies.fetch_add(1, std::memory_order_acq_rel);
        consumed_skbs.push_back(skb);
        vop.segs.push_back(UserCopySeg{skb->data + offset, take, [pool, skb, probe](Cycles) {
                                         if (probe) probe(skb->id);
                                         SimSocket::CompleteCopy(pool, skb);
                                       }});
      });
  if (consumed > 0 && ctx != nullptr) {
    // Blocking semantics in virtual time: the receiver cannot observe a
    // packet before the sender's NIC delivered it. Submitting after the wait
    // also keeps the Copy Task's submit time at/after delivery.
    ctx->WaitUntil(latest_delivery);
  }
  ChargeCtx(ctx, timing_->tcp_rx_per_packet_cycles * packets + timing_->socket_status_cycles);
  Status copy_status;
  if (consumed > 0) {
    size_t segs_submitted = 0;
    copy_status = backend_->CopyV(vop, &segs_submitted);
    if (!copy_status.ok()) {
      // Unsubmitted pieces never got their completion handler: balance the
      // pending-copies count so the skbs can return to the pool (the bytes
      // are lost to the caller either way — the error is returned).
      for (size_t i = segs_submitted; i < consumed_skbs.size(); ++i) {
        SimSocket::CompleteCopy(pool, consumed_skbs[i]);
      }
    }
  }
  TrapExit(proc, ctx);
  if (!copy_status.ok()) {
    return copy_status;
  }
  if (consumed == 0) {
    return Unavailable("no data (EAGAIN)");
  }
  return consumed;
}

}  // namespace copier::simos
