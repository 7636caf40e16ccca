#include "src/core/linux_glue.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/logging.h"
#include "src/hw/copy_unit.h"

namespace copier::core {

Status WaitDescriptor(const Descriptor& descriptor, size_t offset, size_t length,
                      ExecContext* ctx, const std::function<void()>& pump) {
  uint64_t spins = 0;
  while (!descriptor.RangeReady(offset, length)) {
    ++spins;
    if (pump) {
      pump();
      // A pumped wait that makes no progress for this long is a lost-copy
      // bug, not a slow copy: fail loudly instead of spinning forever. (In
      // threaded mode the pump is a wakeup, so the bound is generous and the
      // spin yields to let service threads run.)
      COPIER_CHECK(spins < (1u << 24))
          << "csync stuck: descriptor range [" << offset << ", " << offset + length
          << ") never became ready";
      if (spins % 512 == 0) {
        std::this_thread::yield();
      }
    } else {
      if (spins % 1024 == 0) {
        std::this_thread::yield();
      }
    }
  }
  if (descriptor.failed()) {
    return FaultError("copy task dropped; descriptor failed");
  }
  if (ctx != nullptr) {
    ctx->WaitUntil(descriptor.ReadyTime(offset, length));
  }
  return OkStatus();
}

CopierLinux::CopierLinux(CopierService* service, simos::SimKernel* kernel)
    : service_(service), kernel_(kernel), fallback_(&kernel->timing()) {}

CopierLinux::~CopierLinux() = default;

void CopierLinux::Install() {
  kernel_->SetCopyBackend(this);
  kernel_->SetTrapHooks(this);
}

Client* CopierLinux::ClientFor(simos::Process& proc) {
  const uint64_t id = proc.copier_client_id();
  if (id == 0) {
    return nullptr;
  }
  return service_->ClientById(id);
}

void CopierLinux::OnTrapEnter(simos::Process& proc, ExecContext* ctx) {
  Client* client = ClientFor(proc);
  if (client != nullptr) {
    client->ksyscall.in_syscall = true;
    client->ksyscall.barrier_submitted = false;
  }
  (void)ctx;
}

void CopierLinux::OnTrapExit(simos::Process& proc, ExecContext* ctx) {
  Client* client = ClientFor(proc);
  if (client == nullptr) {
    return;
  }
  const bool emit_exit = client->ksyscall.in_syscall && client->ksyscall.barrier_submitted;
  client->ksyscall.in_syscall = false;
  client->ksyscall.barrier_submitted = false;
  if (emit_exit) {
    CopyQueueEntry exit_barrier;
    exit_barrier.kind = CopyQueueEntry::Kind::kBarrierExit;
    // The exit barrier closes the syscall's k-mode bracket (§4.2.1); the ring
    // is sized so this cannot fail while the bracket is open.
    COPIER_CHECK(client->default_pair().kernel.copy_q.TryPush(std::move(exit_barrier)));
  }
  (void)ctx;
}

bool CopierLinux::BracketOpen(simos::Process& proc) {
  Client* client = ClientFor(proc);
  return client != nullptr && client->ksyscall.in_syscall && client->ksyscall.barrier_submitted;
}

bool CopierLinux::EnsureEnterBarrier(Client& client, QueuePair& pair) {
  if (!client.ksyscall.in_syscall || client.ksyscall.barrier_submitted) {
    return true;
  }
  CopyQueueEntry barrier;
  barrier.kind = CopyQueueEntry::Kind::kBarrierEnter;
  barrier.user_queue_position = pair.user.copy_q.HeadPosition();
  if (!pair.kernel.copy_q.TryPush(std::move(barrier))) {
    return false;  // ring full
  }
  client.ksyscall.barrier_submitted = true;
  return true;
}

Status CopierLinux::Copy(const simos::UserCopyOp& op) {
  Client* client = ClientFor(*op.proc);
  if (client == nullptr) {
    // Process not attached to Copier: stock kernel behaviour.
    return fallback_.Copy(op);
  }
  QueuePair& pair = client->default_pair();

  // Lazily submit the enter barrier before the syscall's first Copy Task,
  // recording the current u-mode queue position (§4.2.1).
  if (!EnsureEnterBarrier(*client, pair)) {
    return fallback_.Copy(op);  // ring full: fall back to sync copy
  }

  CopyQueueEntry entry;
  entry.kind = CopyQueueEntry::Kind::kCopy;
  CopyTask& task = entry.task;
  if (op.to_user) {
    task.dst = MemRef::User(&op.proc->mem(), op.user_va);
    task.src = MemRef::Kernel(op.kernel_buf);
  } else {
    task.dst = MemRef::Kernel(op.kernel_buf);
    task.src = MemRef::User(&op.proc->mem(), op.user_va);
  }
  task.length = op.length;
  task.descriptor = static_cast<Descriptor*>(op.descriptor);
  task.descriptor_offset = op.descriptor_offset;
  task.type = op.lazy ? TaskType::kLazy : TaskType::kNormal;
  task.submit_time = CtxNow(op.ctx);
  task.gseq = service_->AllocateGlobalSeq();
  if (op.on_complete) {
    task.handler = PostHandler::KernelFunc(op.on_complete);
  }

  ChargeCtx(op.ctx, service_->timing().task_submit_cycles);
  const uint64_t gseq = task.gseq;
  if (!pair.kernel.copy_q.TryPush(std::move(entry))) {
    // Stamped but never queued: retire the sequence before falling back.
    service_->RetireGlobalSeq(gseq);
    return fallback_.Copy(op);  // ring full: synchronous fallback (§4.6)
  }
  service_->NotifyRunnable(*client, op.length);
  return OkStatus();
}

Status CopierLinux::CopyVSync(const simos::UserCopyVecOp& op, size_t* segs_submitted) {
  simos::UserCopyOp seg_op;
  seg_op.proc = op.proc;
  seg_op.to_user = op.to_user;
  seg_op.lazy = op.lazy;
  seg_op.ctx = op.ctx;
  uint64_t va = op.user_va;
  size_t descriptor_offset = op.descriptor_offset;
  size_t submitted = 0;
  for (const simos::UserCopySeg& seg : op.segs) {
    seg_op.user_va = va;
    seg_op.kernel_buf = seg.kernel_buf;
    seg_op.length = seg.length;
    seg_op.on_complete = seg.on_complete;
    Status status = fallback_.Copy(seg_op);
    if (!status.ok()) {
      if (segs_submitted != nullptr) {
        *segs_submitted = submitted;
      }
      return status;
    }
    // The synchronous baseline has no engine to mark progress; completed
    // bytes are ready immediately.
    if (op.descriptor != nullptr) {
      static_cast<Descriptor*>(op.descriptor)
          ->MarkRange(descriptor_offset, seg.length, CtxNow(op.ctx));
    }
    ++submitted;
    va += seg.length;
    descriptor_offset += seg.length;
  }
  if (segs_submitted != nullptr) {
    *segs_submitted = submitted;
  }
  return OkStatus();
}

Status CopierLinux::CopyV(const simos::UserCopyVecOp& op, size_t* segs_submitted) {
  // The task rides the submitter's queue; the user side still resolves in
  // op.proc's space (posted-window drains land in the receiver's window from
  // the sender's syscall).
  simos::Process* submitter = op.submit_proc != nullptr ? op.submit_proc : op.proc;
  const bool cross_client = op.submit_proc != nullptr && op.submit_proc != op.proc;
  Client* client = submitter != nullptr ? ClientFor(*submitter) : nullptr;
  if (client == nullptr || !service_->config().enable_vectored_submit) {
    // Per-segment path: unattached process (stock kernel behaviour) or the
    // per-op ablation baseline.
    if (cross_client) {
      return CopyVSync(op, segs_submitted);
    }
    return KernelCopyBackend::CopyV(op, segs_submitted);
  }
  if (op.segs.empty()) {
    if (segs_submitted != nullptr) {
      *segs_submitted = 0;
    }
    return OkStatus();
  }
  QueuePair& pair = client->default_pair();

  // One ring transaction for the whole syscall: the enter barrier (when this
  // is the bracket's first submission) and the scatter-gather Copy Task are
  // reserved together and published with a single release (§4.2.1 ordering is
  // preserved — the barrier occupies the earlier slot).
  const bool need_barrier =
      client->ksyscall.in_syscall && !client->ksyscall.barrier_submitted;
  MpscRingBuffer<CopyQueueEntry>::Batch batch;
  if (!pair.kernel.copy_q.TryReserveBatch(need_barrier ? 2 : 1, &batch)) {
    // Ring full: per-segment fallback (which itself falls back to the
    // synchronous copy per segment when the ring stays full).
    if (cross_client) {
      return CopyVSync(op, segs_submitted);
    }
    return KernelCopyBackend::CopyV(op, segs_submitted);
  }
  size_t slot = 0;
  if (need_barrier) {
    CopyQueueEntry barrier;
    barrier.kind = CopyQueueEntry::Kind::kBarrierEnter;
    barrier.user_queue_position = pair.user.copy_q.HeadPosition();
    batch[slot++] = std::move(barrier);
    client->ksyscall.barrier_submitted = true;
  }

  auto sg = std::make_shared<SgList>();
  sg->kernel_is_dst = !op.to_user;
  sg->segs.reserve(op.segs.size());
  size_t total = 0;
  for (const simos::UserCopySeg& seg : op.segs) {
    sg->segs.push_back(SgSegment{seg.kernel_buf, seg.length, seg.on_complete});
    total += seg.length;
  }

  CopyQueueEntry entry;
  entry.kind = CopyQueueEntry::Kind::kCopy;
  CopyTask& task = entry.task;
  if (op.to_user) {
    task.dst = MemRef::User(&op.proc->mem(), op.user_va);
  } else {
    task.src = MemRef::User(&op.proc->mem(), op.user_va);
  }
  task.sg = std::move(sg);
  task.length = total;
  task.descriptor = static_cast<Descriptor*>(op.descriptor);
  task.descriptor_offset = op.descriptor_offset;
  task.type = op.lazy ? TaskType::kLazy : TaskType::kNormal;
  task.submit_time = CtxNow(op.ctx);
  task.gseq = service_->AllocateGlobalSeq();
  batch[slot] = std::move(entry);
  batch.Commit();

  // Amortized submission cost and ONE doorbell carrying the accumulated
  // length, however many segments the syscall gathered.
  ChargeCtx(op.ctx, service_->timing().task_submitv_base_cycles +
                        op.segs.size() * service_->timing().task_submitv_per_seg_cycles);
  service_->NotifyRunnable(*client, total);
  if (segs_submitted != nullptr) {
    *segs_submitted = op.segs.size();
  }
  return OkStatus();
}

bool CopierLinux::SupportsFusedIpc() const { return service_->config().enable_ipc_fuse; }

void CopierLinux::NoteFuseEvent(simos::FuseEvent event) { service_->NoteIpcFuseEvent(event); }

void CopierLinux::RegisterWindow(simos::Process* proc, uint64_t va, size_t length,
                                 ExecContext* ctx) {
  // Posting a window is registration (DESIGN.md §12): like an RDMA MR or
  // io_uring provided buffers, the pages are walked at post time — faulted
  // in, write-translated, and their translations published to every engine's
  // address-transfer cache — so the fused task's DMA channels hit warm
  // entries instead of paying the per-page walk while the peer waits. Windows
  // are reused, so a range every engine already holds as a write-capable
  // extent is warm: it costs one cache probe, whatever its length, not a
  // walk per page. A mapping change (munmap, fork, alias, CoW break)
  // invalidates the range through the usual listener, and the next post walks
  // those pages again.
  if (proc == nullptr || length == 0 || !SupportsFusedIpc() ||
      !service_->config().enable_atcache) {
    return;
  }
  simos::AddressSpace& space = proc->mem();
  const uint64_t end = PageBase(va + length - 1) + kPageSize;
  const hw::TimingModel& timing = service_->timing();
  Cycles cycles = 0;
  for (uint64_t page = PageBase(va); page < end;) {
    size_t warm = end - page;
    for (size_t i = 0; i < service_->engine_count() && warm > 0; ++i) {
      warm = std::min(warm, service_->engine(i).atcache().WritableBytes(space.asid(), page));
    }
    if (warm > 0) {
      cycles += timing.atcache_hit_cycles;
      page += warm;
      continue;
    }
    auto pfn_or = space.TranslateWrite(page, ctx);
    if (!pfn_or.ok()) {
      break;  // unmapped tail: the copy that tries to land there reports kFault
    }
    uint8_t* host = space.phys()->FrameData(*pfn_or);
    for (size_t i = 0; i < service_->engine_count(); ++i) {
      service_->engine(i).atcache().Insert(space.asid(), page, host, /*writable=*/true);
    }
    cycles += timing.va_translate_cycles_per_page;
    page += kPageSize;
  }
  ChargeCtx(ctx, cycles);
}

Status CopierLinux::CopyFused(const simos::FusedCopyOp& op) {
  Client* client = op.src_proc != nullptr ? ClientFor(*op.src_proc) : nullptr;
  if (client == nullptr || !service_->config().enable_ipc_fuse) {
    return Unimplemented("fused IPC requires an attached sender");
  }
  COPIER_CHECK(op.dst_proc != nullptr && !op.chunks.empty());
  size_t chunk_total = 0;
  for (const simos::FusedChunk& chunk : op.chunks) {
    chunk_total += chunk.length;
  }
  COPIER_CHECK(chunk_total == op.length) << "fused chunks do not cover the transfer";

  QueuePair& pair = client->default_pair();
  const bool need_barrier =
      client->ksyscall.in_syscall && !client->ksyscall.barrier_submitted;
  MpscRingBuffer<CopyQueueEntry>::Batch batch;
  if (!pair.kernel.copy_q.TryReserveBatch(need_barrier ? 2 : 1, &batch)) {
    // No side effects yet: the kernel falls back to the two-step posted path.
    return ResourceExhausted("k-mode ring full for fused transfer");
  }
  size_t slot = 0;
  if (need_barrier) {
    CopyQueueEntry barrier;
    barrier.kind = CopyQueueEntry::Kind::kBarrierEnter;
    barrier.user_queue_position = pair.user.copy_q.HeadPosition();
    batch[slot++] = std::move(barrier);
    client->ksyscall.barrier_submitted = true;
  }

  // Source write-protection: a sender store into the in-flight range blocks
  // (pumping the service) until the copy lands, preserving the snapshot
  // semantics the two-step path gets by staging into skbs. Taken only after
  // the ring slots are reserved, so every lock has a task to resolve it.
  // A forward splice's prefix bytes are kernel-resident (already snapshotted
  // at rewrite time), so only the user payload tail is locked.
  const size_t pfx = op.src_prefix != nullptr ? op.src_prefix->size() : 0;
  COPIER_CHECK(pfx < op.length) << "prefix splice must carry user payload";
  simos::AddressSpace* src_space = &op.src_proc->mem();
  int lock_token = 0;
  if (op.protect_src) {
    CopierService* service = service_;
    std::function<void()> resolver;
    if (service->mode() == CopierService::Mode::kManual) {
      resolver = [service, client] { service->Serve(*client); };
    } else {
      resolver = [service, client] {
        service->NotifyRunnable(*client);
        std::this_thread::yield();
      };
    }
    lock_token = src_space->LockRangeForCopy(op.src_va, op.length - pfx, std::move(resolver));
  }

  // One bookkeeping segment per flow-control chunk: the engine's in-order
  // credit-and-fire machinery runs the reclaim KFUNCs chunk by chunk exactly
  // as the two-step path fires per-skb handlers. The last chunk also releases
  // the source lock — on completion and on abort alike (aborted tasks fire
  // their remaining segment handlers at retirement).
  auto sg = std::make_shared<SgList>();
  sg->bookkeeping = true;
  sg->prefix = op.src_prefix;
  sg->segs.reserve(op.chunks.size());
  for (size_t i = 0; i < op.chunks.size(); ++i) {
    std::function<void(Cycles)> fn = op.chunks[i].on_complete;
    if (i + 1 == op.chunks.size()) {
      if (op.protect_src) {
        fn = [src_space, lock_token, inner = std::move(fn)](Cycles when) {
          src_space->UnlockRangeForCopy(lock_token);
          if (inner) {
            inner(when);
          }
        };
      }
      // Proxy-transparent forwarding: the window the forward bypassed still
      // owes its poster a completion — the proxy's wait on that descriptor
      // resolves when the forwarded payload has fully landed downstream.
      if (op.bypassed_descriptor != nullptr && op.bypassed_length > 0) {
        Descriptor* bypassed = static_cast<Descriptor*>(op.bypassed_descriptor);
        const size_t bypassed_length = op.bypassed_length;
        fn = [bypassed, bypassed_length, inner = std::move(fn)](Cycles when) {
          bypassed->MarkRange(0, bypassed_length, when);
          if (inner) {
            inner(when);
          }
        };
      }
    }
    sg->segs.push_back(SgSegment{nullptr, op.chunks[i].length, std::move(fn)});
  }

  CopyQueueEntry entry;
  entry.kind = CopyQueueEntry::Kind::kCopy;
  CopyTask& task = entry.task;
  task.dst = MemRef::User(&op.dst_proc->mem(), op.dst_va);
  task.src = MemRef::User(src_space, op.src_va);
  task.length = op.length;
  task.descriptor = static_cast<Descriptor*>(op.descriptor);
  task.descriptor_offset = op.descriptor_offset;
  task.submit_time = CtxNow(op.ctx);
  task.gseq = service_->AllocateGlobalSeq();
  task.sg = std::move(sg);
  batch[slot] = std::move(entry);
  batch.Commit();

  ChargeCtx(op.ctx, service_->timing().task_submitv_base_cycles +
                        op.chunks.size() * service_->timing().task_submitv_per_seg_cycles);
  service_->NotifyRunnable(*client, op.length);
  return OkStatus();
}

Status CopierLinux::SyncKernel(simos::Process* proc, ExecContext* ctx) {
  Client* client = proc != nullptr ? ClientFor(*proc) : nullptr;
  if (client == nullptr) {
    return OkStatus();
  }
  if (service_->mode() == CopierService::Mode::kManual) {
    service_->Serve(*client);
    if (ctx != nullptr) {
      ctx->WaitUntil(service_->engine_ctx(service_->EngineIndexFor(*client)).now());
    }
  } else {
    // Bounded condition-wait on queue/pending drain: the serving thread
    // signals drain_cv after any pass that leaves the client idle. The
    // periodic timeout re-rings the doorbell in case the runnable mark was
    // consumed before the last submission landed (never signal-and-wait on a
    // lock held across NotifyRunnable — the service may serve inline).
    service_->NotifyRunnable(*client);
    std::unique_lock<std::mutex> lock(client->drain_mu);
    while (client->HasQueuedWork()) {
      const auto status = client->drain_cv.wait_for(lock, std::chrono::microseconds(200));
      if (status == std::cv_status::timeout && client->HasQueuedWork()) {
        lock.unlock();
        service_->NotifyRunnable(*client);
        lock.lock();
      }
    }
  }
  return OkStatus();
}

void CopierLinux::AccelerateCow(simos::Process& proc, double handler_fraction) {
  Client* client = ClientFor(proc);
  COPIER_CHECK(client != nullptr) << "AccelerateCow requires an attached process";
  CopierService* service = service_;
  const hw::TimingModel* timing = &kernel_->timing();
  proc.mem().SetCowCopyFn([service, client, timing, handler_fraction](
                              void* dst, const void* src, size_t len, ExecContext* ctx) {
    // Split the copy: Copier takes the tail, the fault handler copies the
    // head itself in parallel, then syncs before the PTE update (§5.2).
    const size_t handler_part =
        std::min(len, AlignUp(static_cast<size_t>(len * handler_fraction), 64));
    const size_t copier_part = len - handler_part;

    Descriptor descriptor(copier_part);
    if (copier_part > 0) {
      CopyQueueEntry entry;
      entry.kind = CopyQueueEntry::Kind::kCopy;
      entry.task.dst = MemRef::Kernel(static_cast<uint8_t*>(dst) + handler_part);
      entry.task.src = MemRef::Kernel(
          const_cast<uint8_t*>(static_cast<const uint8_t*>(src)) + handler_part);
      entry.task.length = copier_part;
      entry.task.descriptor = &descriptor;
      entry.task.submit_time = CtxNow(ctx);
      entry.task.gseq = service->AllocateGlobalSeq();
      ChargeCtx(ctx, timing->task_submit_cycles);
      const uint64_t gseq = entry.task.gseq;
      if (!client->default_pair().kernel.copy_q.TryPush(std::move(entry))) {
        // Ring full: plain synchronous copy of the whole page block. The
        // stamped sequence dies with the dropped entry.
        service->RetireGlobalSeq(gseq);
        hw::ErmsCopy(dst, src, len);
        ChargeCtx(ctx, timing->CpuCopyCycles(hw::CopyUnitKind::kErms, len));
        return;
      }
      service->NotifyRunnable(*client, copier_part);
    }

    // Handler's own share, overlapped with Copier's.
    hw::ErmsCopy(dst, src, handler_part);
    ChargeCtx(ctx, timing->CpuCopyCycles(hw::CopyUnitKind::kErms, handler_part));

    if (copier_part > 0) {
      std::function<void()> pump;
      if (service->mode() == CopierService::Mode::kManual) {
        pump = [service, client] { service->Serve(*client); };
      }
      COPIER_CHECK_OK(WaitDescriptor(descriptor, 0, copier_part, ctx, pump));
    }
  });
}

}  // namespace copier::core
