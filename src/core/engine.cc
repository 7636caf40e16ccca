#include "src/core/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "src/common/logging.h"
#include "src/hw/copy_unit.h"

namespace copier::core {
namespace {

// Bounded work per ServeClient call so one client cannot monopolize the
// ingestion loop.
constexpr size_t kMaxIngestPerCall = 1024;
// e-piggyback fuses at most this many adjacent tasks into one round (§4.3).
constexpr size_t kMaxFusedTasks = 8;
// Upper bound on a single subtask: fully contiguous large tasks are still
// split so the piggyback dispatcher can balance AVX and DMA and segment bits
// publish incrementally (copy-use pipelining, §4.1).
constexpr size_t kMaxSubtaskBytes = 16 * kKiB;
// Smallest aliasable interior: below two pages the remap + TLB-shootdown
// cost does not beat just copying the pages.
constexpr size_t kMinRemapPages = 2;
// Lazy tasks execute when depended upon, aborted, or after this age (§4.4).
constexpr Cycles kLazyTimeoutCycles = 10'000'000;
// Safety limit for recursive dependency resolution.
constexpr int kMaxDependencyDepth = 16;
// Engine decision dumps to stderr (accept/exec/abort/subtask; COPIER_TRACE2
// adds the per-task pending scan), read once at startup.
const bool kTrace = std::getenv("COPIER_TRACE") != nullptr;
const bool kTrace2 = std::getenv("COPIER_TRACE2") != nullptr;

// True when `dst_side` of `t` is the segment list of a scatter-gather task.
// Bookkeeping lists (fused IPC, DESIGN.md §12) carry only chunk lengths and
// per-chunk KFUNCs — both sides of the task are its plain contiguous dst/src.
bool SideIsSg(const CopyTask& t, bool dst_side) {
  return t.sg != nullptr && !t.sg->bookkeeping && t.sg->kernel_is_dst == dst_side;
}

// Forward-fuse header splice (DESIGN.md §12): length of the kernel-resident
// prefix spliced in front of the task's user source. 0 for every other task.
size_t SrcPrefixLen(const CopyTask& t) {
  return (t.sg != nullptr && t.sg->prefix != nullptr) ? t.sg->prefix->size() : 0;
}

// True when `dst_side` of `t` is non-contiguous — a scatter-gather segment
// list, or a prefix-spliced source. Such a side must be walked as pieces.
bool SideIsPieced(const CopyTask& t, bool dst_side) {
  return SideIsSg(t, dst_side) || (!dst_side && SrcPrefixLen(t) > 0);
}

// A contiguous piece of one side of a task: `ref` names the memory at
// task-local byte `task_offset`, `length` bytes long. A plain side is one
// piece; the scatter-gather side of a vectored task is one piece per segment.
// All coordination arithmetic (overlap windows, index entries, producer
// lookups) runs over pieces so it never assumes a side is contiguous.
struct RefPiece {
  MemRef ref;
  size_t task_offset = 0;
  size_t length = 0;
};

// Appends the pieces of the chosen side of `t` covering task-local
// [offset, offset + length), clipped to the task's extent.
void CollectPieces(const CopyTask& t, bool dst_side, size_t offset, size_t length,
                   std::vector<RefPiece>* out) {
  if (offset >= t.length) {
    return;
  }
  length = std::min(length, t.length - offset);
  if (!SideIsSg(t, dst_side)) {
    const size_t pfx = dst_side ? 0 : SrcPrefixLen(t);
    if (pfx == 0) {
      const MemRef& side = dst_side ? t.dst : t.src;
      out->push_back({side.Offset(offset), offset, length});
      return;
    }
    // Prefix-spliced source: [0, pfx) reads the kernel prefix bytes, the rest
    // reads the user range shifted back by pfx.
    const size_t end = offset + length;
    if (offset < pfx) {
      const size_t hi = std::min(end, pfx);
      out->push_back({MemRef::Kernel(const_cast<uint8_t*>(t.sg->prefix->data()) + offset),
                      offset, hi - offset});
      offset = hi;
    }
    if (offset < end) {
      out->push_back({t.src.Offset(offset - pfx), offset, end - offset});
    }
    return;
  }
  const size_t end = offset + length;
  size_t seg_base = 0;
  for (const SgSegment& seg : t.sg->segs) {
    const size_t seg_end = seg_base + seg.length;
    if (seg_end > offset) {
      const size_t lo = std::max(offset, seg_base);
      const size_t hi = std::min(end, seg_end);
      if (lo >= hi) {
        break;
      }
      out->push_back({MemRef::Kernel(seg.kernel + (lo - seg_base)), lo, hi - lo});
      if (hi == end) {
        break;
      }
    }
    seg_base = seg_end;
  }
}

// Resolves the memory at task-local byte `offset` of a side; *contig reports
// how many bytes are contiguous from there (clipped at the segment end for a
// scatter-gather side).
MemRef SideRefAt(const CopyTask& t, bool dst_side, size_t offset, size_t* contig) {
  if (!SideIsSg(t, dst_side)) {
    const size_t pfx = dst_side ? 0 : SrcPrefixLen(t);
    if (offset < pfx) {
      *contig = pfx - offset;
      return MemRef::Kernel(const_cast<uint8_t*>(t.sg->prefix->data()) + offset);
    }
    *contig = t.length - offset;
    return (dst_side ? t.dst : t.src).Offset(offset - pfx);
  }
  size_t seg_base = 0;
  for (const SgSegment& seg : t.sg->segs) {
    const size_t seg_end = seg_base + seg.length;
    if (offset < seg_end) {
      *contig = seg_end - offset;
      return MemRef::Kernel(seg.kernel + (offset - seg_base));
    }
    seg_base = seg_end;
  }
  COPIER_CHECK(false) << "task-local offset " << offset << " past scatter-gather extent";
  return {};
}

// True when any piece of `a_dst` of `a` overlaps any piece of `b_dst` of `b`
// (the piece-aware generalization of RefsOverlap for whole task sides).
bool SidesOverlap(const CopyTask& a, bool a_dst, const CopyTask& b, bool b_dst) {
  if (!SideIsPieced(a, a_dst) && !SideIsPieced(b, b_dst)) {
    return RefsOverlap(a_dst ? a.dst : a.src, a.length, b_dst ? b.dst : b.src, b.length);
  }
  std::vector<RefPiece> ap;
  std::vector<RefPiece> bp;
  CollectPieces(a, a_dst, 0, a.length, &ap);
  CollectPieces(b, b_dst, 0, b.length, &bp);
  for (const RefPiece& pa : ap) {
    for (const RefPiece& pb : bp) {
      if (RefsOverlap(pa.ref, pa.length, pb.ref, pb.length)) {
        return true;
      }
    }
  }
  return false;
}

// Set while FireDeferredSuccessors runs on this thread: completions nested in
// its cascade leave the rest of the chain to the outermost call.
thread_local bool t_fire_cascade = false;

}  // namespace

bool RefsOverlap(const MemRef& a, size_t alen, const MemRef& b, size_t blen) {
  if (a.domain() != b.domain()) {
    return false;
  }
  return RangesOverlap(a.start(), alen, b.start(), blen);
}

Engine::Engine(const CopierConfig& config, const hw::TimingModel* timing, ExecContext* ctx)
    : config_(config),
      timing_(timing),
      ctx_(ctx),
      own_dma_(std::make_unique<hw::DmaChannelPool>(timing, config.dma_channel_count,
                                                    config.dma_ring_slots)),
      dma_(own_dma_.get()) {}

Engine::Engine(const CopierConfig& config, const hw::TimingModel* timing, ExecContext* ctx,
               hw::DmaChannelSlice dma)
    : config_(config), timing_(timing), ctx_(ctx), dma_(dma) {}

Engine::Stats Engine::stats() const {
  Stats s;
  s.tasks_ingested = stats_.tasks_ingested;
  s.tasks_completed = stats_.tasks_completed;
  s.tasks_dropped = stats_.tasks_dropped;
  s.tasks_aborted = stats_.tasks_aborted;
  s.barriers_processed = stats_.barriers_processed;
  s.sync_promotions = stats_.sync_promotions;
  s.bytes_copied = stats_.bytes_copied;
  s.bytes_absorbed = stats_.bytes_absorbed;
  s.avx_bytes = stats_.avx_bytes;
  s.dma_bytes_submitted = stats_.dma_bytes_submitted;
  s.dma_bytes_completed = stats_.dma_bytes_completed;
  s.dma_batches_submitted = stats_.dma_batches_submitted;
  s.dma_batches_completed = stats_.dma_batches_completed;
  s.dma_ring_full_fallbacks = stats_.dma_ring_full_fallbacks;
  s.dma_stall_cycles = stats_.dma_stall_cycles;
  s.dma_drain_wait_cycles = stats_.dma_drain_wait_cycles;
  s.dma_rounds_parked = stats_.dma_rounds_parked;
  s.translate_cycles = stats_.translate_cycles;
  s.kfuncs_run = stats_.kfuncs_run;
  s.kfunc_cycles = stats_.kfunc_cycles;
  s.ufuncs_queued = stats_.ufuncs_queued;
  s.lazy_absorbed_bytes = stats_.lazy_absorbed_bytes;
  s.remap_tasks = stats_.remap_tasks;
  s.remapped_bytes = stats_.remapped_bytes;
  s.remap_cow_breaks = stats_.remap_cow_breaks;
  s.fused_ipc_tasks = stats_.fused_ipc_tasks;
  s.fused_ipc_bytes = stats_.fused_ipc_bytes;
  s.last_kfunc_cycles = stats_.last_kfunc_cycles.load(std::memory_order_relaxed);
  s.dep_probes = stats_.dep_probes;
  s.dep_tasks_scanned = stats_.dep_tasks_scanned;
  s.index_entries = stats_.index_entries;
  s.submit_entries = stats_.submit_entries;
  s.submit_batches = stats_.submit_batches;
  s.serve_cycles = stats_.serve_cycles;
  s.cross_dep_probes = stats_.cross_dep_probes;
  s.cross_dep_settles = stats_.cross_dep_settles;
  s.cross_dep_defers = stats_.cross_dep_defers;
  s.cross_dep_wait_cycles = stats_.cross_dep_wait_cycles;
  // notify_calls is a service-side counter (the doorbell fires before any
  // engine sees the work); CopierService::TotalStats fills it in.
  return s;
}

// ---------------------------------------------------------------------------
// Ingestion (§4.2.1)
// ---------------------------------------------------------------------------

Status Engine::ValidateTask(Client& client, const CopyTask& task, bool kernel_mode) const {
  if (task.length == 0) {
    return InvalidArgument("zero-length copy task");
  }
  if (task.sg != nullptr) {
    // Scatter-gather tasks name raw kernel buffers; only kernel submitters
    // (which own the buffer lifecycle) may build them.
    if (!kernel_mode) {
      return PermissionDenied("u-mode task carries a scatter-gather list");
    }
    if (task.sg->segs.empty() || task.sg->total_length() != task.length) {
      return InvalidArgument("scatter-gather segments do not sum to task length");
    }
    if (task.sg->prefix != nullptr &&
        (!task.sg->bookkeeping || task.sg->prefix->size() >= task.length)) {
      // A source prefix rides bookkeeping (fused-forward) lists only, and the
      // task must carry at least one user payload byte past it.
      return InvalidArgument("malformed source-prefix splice");
    }
  }
  if (!kernel_mode) {
    // Security checks: a u-mode task may only name its own address space —
    // kernel pointers or foreign spaces are rejected and the process is
    // signalled, as a bad synchronous copy would have faulted (§4.5.4).
    if (!task.dst.is_user() || !task.src.is_user()) {
      return PermissionDenied("u-mode task names kernel memory");
    }
    if (task.dst.space != client.space() || task.src.space != client.space()) {
      return PermissionDenied("u-mode task names a foreign address space");
    }
    if (task.dst.va == 0 || task.src.va == 0 || task.dst.va + task.length < task.dst.va ||
        task.src.va + task.length < task.src.va) {
      return PermissionDenied("address range out of bounds");
    }
  }
  return OkStatus();
}

void Engine::AcceptTask(Client& client, QueuePair& pair, CopyTask task, bool kernel_mode) {
  const Status valid = ValidateTask(client, task, kernel_mode);
  task.id = client.next_task_id++;
  // Virtual-time alignment: the Copier thread cannot have observed the task
  // before the client submitted it (the service polls; idle time is skipped).
  if (ctx_ != nullptr && task.submit_time > ctx_->now()) {
    ctx_->WaitUntil(task.submit_time);
  }

  auto pending = std::make_unique<PendingTask>();
  pending->task = std::move(task);
  pending->kernel_mode = kernel_mode;
  pending->order = client.next_order++;
  pending->origin = &pair;
  // Execution progress is always tracked in a private per-task descriptor:
  // client descriptors may be shared by several tasks at arbitrary offsets
  // (stream framing), so their segments cannot distinguish which task's bytes
  // have landed. The client-visible descriptor is *mirrored* from the private
  // one in MarkProgress. (A client segment straddling two tasks is set when
  // either task finishes its bytes in it — adjacent recv tasks execute
  // back-to-back in FIFO order, so the early-set window is confined to a
  // partially-served batch; see EXPERIMENTS.md "known deviations".)
  const size_t seg_size = pending->task.descriptor != nullptr
                              ? pending->task.descriptor->segment_size()
                              : config_.default_segment_size;
  pending->internal_progress = std::make_unique<Descriptor>(pending->task.length, seg_size);
  pending->progress = pending->internal_progress.get();
  pending->progress_offset = 0;
  if (pending->task.sg != nullptr && valid.ok()) {
    const auto& segs = pending->task.sg->segs;
    size_t end = 0;
    for (const SgSegment& seg : segs) {
      end += seg.length;
      pending->sg_remaining.push_back(seg.length);
      pending->sg_ends.push_back(end);
      if (seg.on_complete != nullptr) {
        pending->sg_kfunc_ends.push_back(end);
      }
    }
    if (pending->task.sg->bookkeeping) {
      ++stats_.fused_ipc_tasks;
    }
  }
  ++stats_.submit_entries;
  if (pending->task.sg != nullptr) {
    ++stats_.submit_batches;
  }

  if (!valid.ok()) {
    // A submitter-stamped sequence dies with the task: retire it so it
    // cannot hold back tombstone pruning forever.
    if (cross_ != nullptr) {
      cross_->RetireGlobalSeq(pending->task.gseq);
    }
    DropTask(client, *pending, valid);
    // Keep the dropped task out of the pending list entirely.
    ++stats_.tasks_ingested;
    return;
  }

  if (kTrace) {
    const PendingTask& pt = *pending;
    std::fprintf(stderr,
                 "[accept] task=%llu order=%llu k=%d lazy=%d dst=%llx src=%llx len=%zu\n",
                 (unsigned long long)pt.task.id, (unsigned long long)pt.order,
                 pt.kernel_mode, pt.task.type == TaskType::kLazy,
                 (unsigned long long)pt.task.dst.start(),
                 (unsigned long long)pt.task.src.start(), pt.task.length);
  }
  // Cross-engine ordering (DESIGN.md §10): give the task its place in the
  // service-global submission sequence — the submitter's stamp when present,
  // else the next sequence number at ingestion — and register shared-visible
  // ranges in the service ledger so foreign engines can order against them.
  if (cross_ != nullptr) {
    pending->gseq = pending->task.gseq != 0 ? pending->task.gseq : cross_->NextGlobalSeq();
    pending->shared_visible = TaskIsSharedVisible(client, *pending);
  } else {
    // Standalone engine: per-client order doubles as the sequence (monotone,
    // and only ever compared against this client's own entries).
    pending->gseq = pending->task.gseq != 0 ? pending->task.gseq : pending->order;
  }
  PendingTask* accepted = pending.get();
  client.pending.push_back(std::move(pending));
  client.pending_count.store(client.pending.size(), std::memory_order_release);
  if (config_.enable_range_index) {
    IndexInsert(client, *accepted);
  }
  if (cross_ != nullptr) {
    if (accepted->shared_visible) {
      cross_->RegisterShared(client, *accepted);
    } else {
      // Private tasks never probe the ledger; their sequence stops being
      // outstanding the moment that is decided.
      cross_->RetireGlobalSeq(accepted->gseq);
    }
  }
  ++stats_.tasks_ingested;
}

bool Engine::TaskIsSharedVisible(Client& client, const PendingTask& task) const {
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
  CollectPieces(task.task, /*dst_side=*/false, 0, task.task.length, &pieces);
  simos::AddressSpace* own = client.space();
  for (const RefPiece& piece : pieces) {
    if (!piece.ref.is_user() || piece.ref.space != own) {
      return true;  // kernel host memory or a foreign address space
    }
    if (cross_->DomainShared(piece.ref.domain())) {
      return true;  // own space, but a foreign client has ranges here
    }
  }
  return false;
}

void Engine::IngestPair(Client& client, QueuePair& pair) {
  current_pair_ = &pair;
  for (size_t steps = 0; steps < kMaxIngestPerCall; ++steps) {
    if (pair.kernel_bracket_open) {
      // Inside a syscall bracket: consume k entries until the exit barrier.
      // u-mode entries beyond the bracket bound wait (k-mode prioritized in
      // the concurrent-submission corner, §4.2.1).
      auto entry = pair.kernel.copy_q.TryPop();
      if (!entry.has_value()) {
        break;  // kernel still mid-syscall; resume on a later poll
      }
      if (entry->kind == CopyQueueEntry::Kind::kBarrierExit) {
        pair.kernel_bracket_open = false;
        ++stats_.barriers_processed;
        ChargeCtx(ctx_, timing_->barrier_process_cycles);
        continue;
      }
      if (entry->kind == CopyQueueEntry::Kind::kBarrierEnter) {
        pair.bracket_user_bound = entry->user_queue_position;  // re-bracket
        ++stats_.barriers_processed;
        continue;
      }
      AcceptTask(client, pair, std::move(entry->task), /*kernel_mode=*/true);
      continue;
    }

    const CopyQueueEntry* k_head = pair.kernel.copy_q.Peek();
    if (k_head != nullptr && k_head->kind == CopyQueueEntry::Kind::kBarrierEnter) {
      // The k batch after this barrier follows all u entries below the
      // recorded position: drain those first.
      if (pair.user_ingested < k_head->user_queue_position) {
        auto u = pair.user.copy_q.TryPop();
        if (!u.has_value()) {
          break;  // the u producer acquired a slot but has not published yet
        }
        ++pair.user_ingested;
        AcceptTask(client, pair, std::move(u->task), /*kernel_mode=*/false);
        continue;
      }
      pair.bracket_user_bound = k_head->user_queue_position;
      pair.kernel_bracket_open = true;
      pair.kernel.copy_q.TryPop();
      ++stats_.barriers_processed;
      ChargeCtx(ctx_, timing_->barrier_process_cycles);
      continue;
    }
    if (k_head != nullptr) {
      // Un-bracketed k entry (standalone kernel clients submit without
      // barriers — there is no paired u queue activity to order against).
      auto entry = pair.kernel.copy_q.TryPop();
      if (entry->kind == CopyQueueEntry::Kind::kCopy) {
        AcceptTask(client, pair, std::move(entry->task), /*kernel_mode=*/true);
      }
      continue;
    }

    auto u = pair.user.copy_q.TryPop();
    if (!u.has_value()) {
      break;
    }
    ++pair.user_ingested;
    AcceptTask(client, pair, std::move(u->task), /*kernel_mode=*/false);
  }
  current_pair_ = nullptr;
}

void Engine::IngestClient(Client& client) {
  for (size_t i = 0; i < client.pair_count(); ++i) {
    IngestPair(client, client.pair(static_cast<int>(i)));
  }
}

// ---------------------------------------------------------------------------
// Sync Tasks: promotion and abort (§4.1, §4.4)
// ---------------------------------------------------------------------------

void Engine::HandleSyncTask(Client& client, const SyncTask& sync) {
  // A Sync Task orders after every Copy Task its submitter queued before it:
  // the copy-queue pushes happened-before the sync-queue push, so draining the
  // copy queues here makes those tasks visible to the matching below. Without
  // this, an abort can be observed while the consumer that absorbs the
  // protected range (e.g. the send following a lazy reply copy) is still
  // un-ingested; the dependent probe then misses it and discards a mediator
  // the consumer later resolves through.
  uint64_t ingest_progress;
  do {
    ingest_progress = stats_.tasks_ingested + stats_.barriers_processed;
    IngestClient(client);
  } while (stats_.tasks_ingested + stats_.barriers_processed != ingest_progress);
  if (sync.kind == SyncTask::Kind::kAbort) {
    // Explicitly discard still-queued Copy Tasks writing the range. The
    // discard is deferred while a later pending task still reads the would-be
    // destination (its absorption chain runs through this task); handlers
    // still run at discard time (source buffers must be reclaimed). Copier
    // never discards implicitly.
    const auto request_abort = [&client](PendingTask& task) {
      if (!task.abort_requested) {
        task.abort_requested = true;
        ++client.pending_abort_requests;
      }
    };
    ++stats_.dep_probes;
    if (config_.enable_range_index) {
      ChargeCtx(ctx_, timing_->absorption_match_cycles);
      stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
          RangeIndex::Side::kDst, sync.addr.domain(), sync.addr.start(), sync.length,
          [&](const RangeIndex::Entry& entry) {
            request_abort(*entry.task);
            return true;
          });
    } else {
      for (auto& pending : client.pending) {
        PendingTask& task = *pending;
        if (task.Done()) {
          continue;
        }
        // Abort matching is the same per-candidate work as a promotion scan;
        // it must not be free in virtual time.
        ChargeCtx(ctx_, timing_->absorption_match_cycles);
        ++stats_.dep_tasks_scanned;
        std::vector<RefPiece> pieces;
        CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
        for (const RefPiece& p : pieces) {
          if (RefsOverlap(p.ref, p.length, sync.addr, sync.length)) {
            request_abort(task);
            break;
          }
        }
      }
    }
    ApplyDeferredAborts(client);
    return;
  }
  ++stats_.sync_promotions;
  PromoteRange(client, sync.addr, sync.length);
}

void Engine::ProcessSyncQueues(Client& client) {
  for (size_t i = 0; i < client.pair_count(); ++i) {
    QueuePair& pair = client.pair(static_cast<int>(i));
    // k-mode Sync Queue first, then u-mode (§4.2.2).
    while (auto sync = pair.kernel.sync_q.TryPop()) {
      HandleSyncTask(client, *sync);
    }
    while (auto sync = pair.user.sync_q.TryPop()) {
      HandleSyncTask(client, *sync);
    }
  }
}

void Engine::PromoteRange(Client& client, const MemRef& addr, size_t length) {
  // Promote every pending task producing bytes of [addr, addr+length),
  // oldest first so newer writers land last (ResolveDependencies additionally
  // orders each one's prerequisites).
  ++stats_.dep_probes;
  if (config_.enable_range_index) {
    struct Hit {
      PendingTask* task;
      uint64_t order;
      uint64_t start;
      uint64_t end;
      size_t task_offset;
    };
    std::vector<Hit> hits;
    ChargeCtx(ctx_, timing_->absorption_match_cycles);
    stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
        RangeIndex::Side::kDst, addr.domain(), addr.start(), length,
        [&](const RangeIndex::Entry& entry) {
          hits.push_back({entry.task, entry.order, entry.start, entry.start + entry.length,
                          entry.task_offset});
          return true;
        });
    std::sort(hits.begin(), hits.end(),
              [](const Hit& a, const Hit& b) { return a.order < b.order; });
    for (const Hit& hit : hits) {
      PendingTask& task = *hit.task;
      if (task.Done()) {
        continue;  // executed as a dependency of an older promoted task
      }
      const uint64_t ovl_start = std::max(hit.start, addr.start());
      const uint64_t ovl_end = std::min(hit.end, addr.start() + length);
      task.promoted = true;
      const Status status =
          ExecuteTaskRange(client, task, ovl_start - hit.start + hit.task_offset,
                           ovl_end - ovl_start, /*depth=*/0, /*must_land=*/true);
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        // kUnavailable: a cross-engine settle bounced off a held foreign
        // client. The promotion stays incomplete; the waiter's pump retries.
        DropTask(client, task, status);
      }
    }
    RetireDone(client);
    return;
  }
  for (auto it = client.pending.begin(); it != client.pending.end(); ++it) {
    PendingTask& task = **it;
    if (task.Done()) {
      continue;
    }
    ChargeCtx(ctx_, timing_->absorption_match_cycles);
    ++stats_.dep_tasks_scanned;
    std::vector<RefPiece> pieces;
    CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
    for (const RefPiece& p : pieces) {
      if (task.Done()) {
        break;
      }
      if (p.ref.domain() != addr.domain()) {
        continue;
      }
      const uint64_t ovl_start = std::max(p.ref.start(), addr.start());
      const uint64_t ovl_end = std::min(p.ref.start() + p.length, addr.start() + length);
      if (ovl_start >= ovl_end) {
        continue;
      }
      task.promoted = true;
      const Status status =
          ExecuteTaskRange(client, task, ovl_start - p.ref.start() + p.task_offset,
                           ovl_end - ovl_start, /*depth=*/0, /*must_land=*/true);
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        DropTask(client, task, status);
        break;
      }
    }
  }
  RetireDone(client);
}

// ---------------------------------------------------------------------------
// Dependency resolution (§4.2.2)
// ---------------------------------------------------------------------------

Status Engine::ResolveDependencies(Client& client, PendingTask& task, size_t offset,
                                   size_t length, int depth) {
  if (depth >= kMaxDependencyDepth) {
    return FailedPrecondition("dependency chain too deep");
  }
  // Probe windows: the task's own dst and src over [offset, offset+length),
  // piece by piece (a scatter-gather side probes once per covered segment).
  std::vector<RefPiece> dst_windows;
  std::vector<RefPiece> src_windows;
  CollectPieces(task.task, /*dst_side=*/true, offset, length, &dst_windows);
  if (!config_.enable_absorption) {
    CollectPieces(task.task, /*dst_side=*/false, offset, length, &src_windows);
  }
  if (config_.enable_range_index) {
    // Enumerate only the overlapping entries, then replay them in submission
    // order (oldest first) with WAW before WAR before RAW per conflicting
    // task — the order the linear scan visits them in.
    struct Conflict {
      PendingTask* task;
      uint64_t order;
      uint8_t kind;    // 0 = WAW, 1 = WAR, 2 = RAW
      uint64_t start;  // overlap, in the conflicting task's domain addresses
      uint64_t end;
      uint64_t entry_start;      // the conflicting entry's own start address
      size_t entry_task_offset;  // task-local byte at entry_start
    };
    std::vector<Conflict> conflicts;
    const auto probe = [&](RangeIndex::Side side, const RefPiece& w, uint8_t kind) {
      ++stats_.dep_probes;
      ChargeCtx(ctx_, timing_->absorption_match_cycles);
      stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
          side, w.ref.domain(), w.ref.start(), w.length, [&](const RangeIndex::Entry& entry) {
            if (entry.order < task.order) {
              const uint64_t start = std::max(entry.start, w.ref.start());
              const uint64_t end =
                  std::min(entry.start + entry.length, w.ref.start() + w.length);
              conflicts.push_back(
                  {entry.task, entry.order, kind, start, end, entry.start, entry.task_offset});
            }
            return true;
          });
    };
    for (const RefPiece& w : dst_windows) {
      probe(RangeIndex::Side::kDst, w, 0);  // WAW: earlier writes of these bytes
      probe(RangeIndex::Side::kSrc, w, 1);  // WAR: earlier reads this overwrites
    }
    for (const RefPiece& w : src_windows) {
      probe(RangeIndex::Side::kDst, w, 2);  // RAW: producers must land first
    }
    std::sort(conflicts.begin(), conflicts.end(), [](const Conflict& a, const Conflict& b) {
      return a.order != b.order ? a.order < b.order : a.kind < b.kind;
    });
    for (const Conflict& c : conflicts) {
      // The entry carries its own (start, task_offset), so the overlap maps to
      // the conflicting task's local bytes without assuming its side is
      // contiguous. ExecuteTaskRange skips tasks an earlier conflict already
      // completed.
      COPIER_RETURN_IF_ERROR(ExecuteTaskRange(client, *c.task,
                                              c.start - c.entry_start + c.entry_task_offset,
                                              c.end - c.start, depth + 1,
                                              /*must_land=*/true));
    }
    return OkStatus();
  }
  // Oldest-first so earlier conflicting writes land in submission order.
  ++stats_.dep_probes;
  for (auto& other_ptr : client.pending) {
    PendingTask& other = *other_ptr;
    if (other.order >= task.order || other.Done()) {
      continue;
    }
    ChargeCtx(ctx_, timing_->absorption_match_cycles);
    ++stats_.dep_tasks_scanned;
    std::vector<RefPiece> other_dst;
    std::vector<RefPiece> other_src;
    CollectPieces(other.task, /*dst_side=*/true, 0, other.task.length, &other_dst);
    CollectPieces(other.task, /*dst_side=*/false, 0, other.task.length, &other_src);
    // Executes the other task's local range for every overlap between its
    // side pieces and this task's windows.
    const auto run_overlaps = [&](const std::vector<RefPiece>& opieces,
                                  const std::vector<RefPiece>& windows) -> Status {
      for (const RefPiece& w : windows) {
        for (const RefPiece& op : opieces) {
          if (op.ref.domain() != w.ref.domain()) {
            continue;
          }
          const uint64_t start = std::max(op.ref.start(), w.ref.start());
          const uint64_t end = std::min(op.ref.start() + op.length, w.ref.start() + w.length);
          if (start >= end) {
            continue;
          }
          COPIER_RETURN_IF_ERROR(ExecuteTaskRange(client, other,
                                                  start - op.ref.start() + op.task_offset,
                                                  end - start, depth + 1,
                                                  /*must_land=*/true));
        }
      }
      return OkStatus();
    };
    // WAW: an earlier task writes bytes this range is about to write.
    COPIER_RETURN_IF_ERROR(run_overlaps(other_dst, dst_windows));
    // WAR: an earlier task still needs to *read* bytes this range overwrites.
    COPIER_RETURN_IF_ERROR(run_overlaps(other_src, dst_windows));
    // RAW: with absorption enabled, ResolveSources reads through the producer
    // (layered absorption); otherwise the producer must execute first.
    if (!config_.enable_absorption) {
      COPIER_RETURN_IF_ERROR(run_overlaps(other_dst, src_windows));
    }
  }
  return OkStatus();
}

PendingTask* Engine::FindProducer(Client& client, const PendingTask& task, const MemRef& ref,
                                  size_t length, size_t* overlap_offset,
                                  size_t* overlap_length, size_t* producer_local) {
  // Latest-order earlier task whose destination contains ref's FIRST byte.
  // If none contains it, overlap_offset reports where the nearest producer
  // region begins (bounding the plain prefix) and nullptr is returned with
  // overlap_length/producer_local untouched. Candidates are per contiguous
  // destination *piece*, so a scatter-gather producer contributes one
  // candidate per segment and producer_local maps through the segment list.
  const uint64_t first_byte = ref.start();
  struct Cand {
    PendingTask* task;
    uint64_t order;
    uint64_t start;
    uint64_t end;
    size_t task_offset;  // task-local byte of the candidate piece's start
  };
  std::vector<Cand> cands;
  ++stats_.dep_probes;
  if (config_.enable_range_index) {
    // One overlap enumeration yields the stabbing answer (latest writer
    // containing the first byte), the successor bound for the plain prefix,
    // and the newer-writer clip — the linear version needed a second full
    // scan for the clip. Index entries only cover live (non-Done) tasks; a
    // completed producer's bytes have landed, so the plain path reading the
    // actual source memory is equivalent (and dead-write suppression keeps
    // those bytes WAW-consistent).
    ChargeCtx(ctx_, timing_->absorption_match_cycles);
    stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
        RangeIndex::Side::kDst, ref.domain(), first_byte, length,
        [&](const RangeIndex::Entry& entry) {
          if (entry.order < task.order) {
            cands.push_back({entry.task, entry.order, entry.start,
                             entry.start + entry.length, entry.task_offset});
          }
          return true;
        });
  } else {
    for (auto it = client.pending.rbegin(); it != client.pending.rend(); ++it) {
      PendingTask& other = **it;
      if (other.order >= task.order || other.aborted) {
        continue;
      }
      ChargeCtx(ctx_, timing_->absorption_match_cycles);
      ++stats_.dep_tasks_scanned;
      std::vector<RefPiece> dpieces;
      CollectPieces(other.task, /*dst_side=*/true, 0, other.task.length, &dpieces);
      for (const RefPiece& p : dpieces) {
        if (p.ref.domain() != ref.domain()) {
          continue;
        }
        const uint64_t p_start = p.ref.start();
        const uint64_t p_end = p_start + p.length;
        if (p_start < first_byte + length && p_end > first_byte) {
          cands.push_back({&other, other.order, p_start, p_end, p.task_offset});
        }
      }
    }
  }
  const Cand* best = nullptr;
  uint64_t nearest_start = UINT64_MAX;
  for (const Cand& cand : cands) {
    if (first_byte >= cand.start && first_byte < cand.end) {
      if (best == nullptr || cand.order > best->order) {
        best = &cand;
      }
    } else if (cand.start > first_byte) {
      nearest_start = std::min(nearest_start, cand.start);
    }
  }
  if (best == nullptr) {
    *overlap_offset = nearest_start == UINT64_MAX
                          ? length
                          : static_cast<size_t>(nearest_start - first_byte);
    return nullptr;
  }
  uint64_t end = std::min(best->end, first_byte + length);
  // Clip at the start of any LATER-ordered producer piece inside the overlap:
  // those bytes belong to the newer writer, which the next iteration picks up.
  for (const Cand& cand : cands) {
    if (cand.order > best->order && cand.start > first_byte && cand.start < end) {
      end = cand.start;
    }
  }
  *overlap_offset = 0;
  *overlap_length = end - first_byte;
  *producer_local = static_cast<size_t>(first_byte - best->start) + best->task_offset;
  return best->task;
}

// ---------------------------------------------------------------------------
// Layered copy absorption (§4.4)
// ---------------------------------------------------------------------------

void Engine::ResolveSources(Client& client, PendingTask& task, size_t src_offset, size_t length,
                            int depth, std::vector<SourcePiece>* out) {
  // Per contiguous piece of the task's source side: a scatter-gather source
  // resolves segment by segment, so absorption chains can pass *through* a
  // vectored producer exactly as through a plain one.
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/false, src_offset, length, &pieces);
  const bool absorb = config_.enable_absorption && depth < kMaxDependencyDepth;
  for (const RefPiece& p : pieces) {
    if (!absorb) {
      out->push_back({p.ref, p.length, false});
    } else {
      ResolveSourcesContig(client, task, p.ref, p.length, depth, out);
    }
  }
}

void Engine::ResolveSourcesContig(Client& client, PendingTask& task, const MemRef& src,
                                  size_t length, int depth, std::vector<SourcePiece>* out) {
  size_t pos = 0;
  while (pos < length) {
    size_t ovl_off = 0;
    size_t ovl_len = 0;
    size_t producer_base = 0;
    // FindProducer charges the probe (per index lookup, or per candidate in
    // the linear baseline).
    PendingTask* producer = FindProducer(client, task, src.Offset(pos), length - pos, &ovl_off,
                                         &ovl_len, &producer_base);
    if (producer == nullptr) {
      // Plain piece up to the nearest producer-covered byte (ovl_off).
      const size_t plain = std::min(length - pos, ovl_off);
      out->push_back({src.Offset(pos), plain, false});
      pos += plain;
      continue;
    }
    // Walk the overlapping piece segment by segment of the *producer*'s
    // progress space: marked segments may hold client-modified data, so the
    // intermediate buffer (this task's src) is authoritative; unmarked
    // segments cannot have been touched (the client would have csync'd
    // first), so read through to the producer's own source (Fig. 8-b).
    size_t done = 0;
    while (done < ovl_len) {
      const size_t producer_local = producer_base + done;
      const size_t seg_size = producer->progress->segment_size();
      const size_t seg_space_off = producer->progress_offset + producer_local;
      const size_t seg_index = producer->progress->SegmentOf(seg_space_off);
      const size_t seg_end_space = (seg_index + 1) * seg_size;
      size_t chunk = std::min(ovl_len - done, seg_end_space - seg_space_off);
      // Clamp to the producer's own extent.
      chunk = std::min(chunk, producer->task.length - producer_local);
      if (producer->progress->SegmentReady(seg_index)) {
        out->push_back({src.Offset(pos + done), chunk, false});
      } else {
        stats_.bytes_absorbed += chunk;
        if (producer->task.type == TaskType::kLazy) {
          stats_.lazy_absorbed_bytes += chunk;
        }
        ResolveSources(client, *producer, producer_local, chunk, depth + 1, out);
      }
      done += chunk;
    }
    pos += ovl_len;
  }
}

// ---------------------------------------------------------------------------
// Proactive fault handling and subtask construction (§4.3, §4.5.4)
// ---------------------------------------------------------------------------

StatusOr<Engine::HostRun> Engine::ResolveUserSpan(simos::AddressSpace* space, uint64_t va,
                                                   bool for_write, Cycles* lookup) {
  if (config_.enable_atcache) {
    const std::optional<ATCache::Hit> hit = atcache_.Lookup(space->asid(), va, for_write);
    if (hit.has_value()) {
      *lookup = timing_->atcache_hit_cycles;
      return HostRun{hit->host, hit->length};
    }
  }
  // Proactive fault handling: translate now; the translation itself faults
  // pages in (on-demand paging) and breaks CoW in the Copier context instead
  // of waiting for a hardware fault mid-copy. The explicit-translation cost
  // (needed only when the bytes go to DMA) is charged by ExecuteRound.
  auto pfn_or = for_write ? space->TranslateWrite(va, ctx_) : space->TranslateRead(va, ctx_);
  if (!pfn_or.ok()) {
    return pfn_or.status();
  }
  uint8_t* host_page = space->phys()->FrameData(*pfn_or);
  if (config_.enable_atcache) {
    atcache_.Insert(space->asid(), va, host_page, for_write);
  }
  *lookup = timing_->va_translate_cycles_per_page;
  return HostRun{host_page + PageOffset(va), kPageSize - PageOffset(va)};
}

// Resolves the longest host-contiguous run starting at `ref`, at most
// `max_length` bytes. Subtask boundaries fall exactly where physical
// contiguity breaks (Fig. 7-b). Kernel refs are contiguous by construction.
StatusOr<Engine::HostRun> Engine::ResolveHostRun(const MemRef& ref, size_t max_length,
                                                 bool for_write,
                                                 std::vector<RunLookup>* lookups) {
  lookups->clear();
  if (!ref.is_user()) {
    return HostRun{ref.host, max_length};
  }
  HostRun run;
  while (run.length < max_length) {
    Cycles cycles = 0;
    auto span_or = ResolveUserSpan(ref.space, ref.va + run.length, for_write, &cycles);
    if (!span_or.ok()) {
      return span_or.status();  // every byte of the range must be accessible
    }
    if (run.length == 0) {
      run.host = span_or->host;
    } else if (span_or->host != run.host + run.length) {
      break;  // physical discontinuity
    }
    run.length = std::min(max_length, run.length + span_or->length);
    lookups->push_back({run.length, cycles, next_lookup_id_++});
  }
  return run;
}

// The lookups of a resolved run (ascending `end`) that run bytes
// [at, at + length) rely on.
SideTranslation Engine::TranslationOf(const std::vector<RunLookup>& lookups, size_t at,
                                      size_t length) const {
  SideTranslation xlate;
  if (lookups.empty()) {
    return xlate;  // kernel memory: no translation
  }
  auto it = std::upper_bound(lookups.begin(), lookups.end(), at,
                             [](size_t pos, const RunLookup& l) { return pos < l.end; });
  xlate.first_id = xlate.last_id = it->id;
  xlate.first = it->cycles;
  const size_t lookup_start = it == lookups.begin() ? 0 : std::prev(it)->end;
  if (lookup_start < at && config_.enable_atcache) {
    // The lookup began in an earlier subtask, whose walk left the page
    // cached: unless that subtask's DMA paid for it, one probe finds it.
    xlate.first = std::min(xlate.first, timing_->atcache_hit_cycles);
  }
  while (it->end < at + length) {
    ++it;
    xlate.rest += it->cycles;
    xlate.last_id = it->id;
  }
  return xlate;
}

Status Engine::BuildSubtasks(Client& client, PendingTask& task, size_t offset,
                             const std::vector<SourcePiece>& sources,
                             std::vector<Subtask>* out) {
  // A plain task whose source and destination overlap in one space is a
  // memmove-style copy: its bytes move in subtask order on the CPU. DMA moves
  // its bytes at submission, before the round's AVX head, so the image would
  // depend on the split.
  const bool self_overlap = task.task.sg == nullptr &&
                            RefsOverlap(task.task.dst, task.task.length, task.task.src,
                                        task.task.length);
  const bool dma_ok = config_.use_dma && !self_overlap;
  // While an earlier task has not fired its handler, this task's segment
  // KFUNCs wait for that task's completion cascade (CreditSgSegments).
  const bool kfuncs_deferred =
      !task.sg_kfunc_ends.empty() && HasEarlierUnfired(client, task.order);
  const std::vector<size_t>& ends = task.sg_kfunc_ends;
  auto next_end = std::upper_bound(ends.begin(), ends.end(), offset);  // subtasks ascend
  // Host start of the current chain of continuing subtasks (both sides).
  const uint8_t* chain_dst = nullptr;
  const uint8_t* chain_src = nullptr;
  std::vector<RunLookup> dst_lookups;
  std::vector<RunLookup> src_lookups;
  size_t dst_cursor = offset;
  for (const SourcePiece& piece : sources) {
    size_t piece_pos = 0;
    while (piece_pos < piece.length) {
      // Resolve the longest run host-contiguous on both sides once — one
      // lookup per cached extent — then cut it into subtasks of at most
      // kMaxSubtaskBytes. A scatter-gather destination additionally bounds
      // the run at its segment edge.
      size_t dst_contig = 0;
      const MemRef dref = SideRefAt(task.task, /*dst_side=*/true, dst_cursor, &dst_contig);
      const size_t remaining = std::min(piece.length - piece_pos, dst_contig);
      auto dst_or = ResolveHostRun(dref, remaining, /*for_write=*/true, &dst_lookups);
      if (!dst_or.ok()) {
        return dst_or.status();
      }
      auto src_or = ResolveHostRun(piece.ref.Offset(piece_pos), dst_or->length,
                                   /*for_write=*/false, &src_lookups);
      if (!src_or.ok()) {
        return src_or.status();
      }
      const size_t run_length = std::min(dst_or->length, src_or->length);
      for (size_t at = 0; at < run_length;) {
        Subtask st;
        st.length = std::min(kMaxSubtaskBytes, run_length - at);
        st.dst = dst_or->host + at;
        st.src = src_or->host + at;
        st.owner = &task;
        st.task_offset = dst_cursor + at;
        st.dma_eligible = dma_ok && st.length >= timing_->dma_min_subtask_bytes;
        // One descriptor may cover a chain of subtasks that continue each
        // other on both sides while the chain's source and destination stay
        // disjoint.
        const Subtask* prev = out->empty() ? nullptr : &out->back();
        st.continues = prev != nullptr && prev->owner == &task &&
                       prev->dst + prev->length == st.dst && prev->src + prev->length == st.src;
        if (st.continues) {
          const size_t chain_len = st.dst + st.length - chain_dst;
          st.continues = !RangesOverlap(reinterpret_cast<uintptr_t>(chain_dst), chain_len,
                                        reinterpret_cast<uintptr_t>(chain_src), chain_len);
        }
        if (!st.continues) {
          chain_dst = st.dst;
          chain_src = st.src;
        }
        st.dst_xlate = TranslationOf(dst_lookups, at, st.length);
        st.src_xlate = TranslationOf(src_lookups, at, st.length);
        const auto first_end = next_end;
        while (next_end != ends.end() && *next_end <= st.task_offset + st.length) {
          ++next_end;
        }
        st.kfunc_ends = {first_end, next_end};
        st.kfuncs_deferred = kfuncs_deferred;
        if (kTrace) {
          std::fprintf(stderr, "[st] task=%llu off=%zu len=%zu dst=%p src=%p\n",
                       (unsigned long long)task.task.id, st.task_offset, st.length,
                       (void*)st.dst, (void*)st.src);
        }
        out->push_back(st);
        at += st.length;
      }
      piece_pos += run_length;
      dst_cursor += run_length;
    }
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Piggyback-based dispatch and execution (§4.3)
// ---------------------------------------------------------------------------

void Engine::ExecuteRound(Client& client, std::vector<Subtask>& subtasks) {
  if (subtasks.empty()) {
    return;
  }
  const size_t nch = dma_.channel_count();
  const RoundPlan plan = PlanRound(*timing_, config_, subtasks, nch);
  for (size_t idx : plan.dma_set) {
    subtasks[idx].on_dma = true;
  }

  // Submit the DMA side: the plan's descriptor batches, one doorbell each, in
  // submission order (a wave's batches land before the next wave's).
  struct SubmittedBatch {
    Cycles completion = 0;
    uint64_t bytes = 0;
    const std::vector<RoundChunk>* chunks = nullptr;
  };
  std::vector<SubmittedBatch> submitted;
  std::vector<RoundChunk> ring_full_chunks;  // partial fallbacks, AVX below
  if (!plan.dma_set.empty()) {
    ChargeCtx(ctx_, plan.translate_cycles);
    stats_.translate_cycles += plan.translate_cycles;
    std::vector<hw::DmaDescriptor> descs;
    for (const RoundBatch& batch : plan.batches) {
      descs.clear();
      uint64_t bytes = 0;
      for (const RoundChunk& ch : batch.chunks) {
        const Subtask& st = subtasks[ch.subtask];
        if (ch.joins) {
          descs.back().length += ch.length;
        } else {
          descs.push_back({st.dst + ch.offset, st.src + ch.offset, ch.length});
        }
        bytes += ch.length;
      }
      ChargeCtx(ctx_, dma_.SubmissionCost(descs.size()));
      auto sub_or = dma_.SubmitOn(batch.channel, descs, CtxNow(ctx_));
      if (!sub_or.ok()) {
        // Ring full on this channel: the batch falls back to the CPU (the
        // failed attempt stays charged — the descriptors were written before
        // the doorbell bounced). Whole subtasks rejoin the AVX loop; partial
        // chunks of a split subtask run separately below.
        ++stats_.dma_ring_full_fallbacks;
        if (overload_ != nullptr) {
          ++overload_->ring_full_events;
        }
        for (const RoundChunk& ch : batch.chunks) {
          if (ch.offset == 0 && ch.length == subtasks[ch.subtask].length) {
            subtasks[ch.subtask].on_dma = false;
          } else {
            ring_full_chunks.push_back(ch);
          }
        }
        continue;
      }
      submitted.push_back({sub_or->completion_time, bytes, &batch.chunks});
      stats_.dma_bytes_submitted += bytes;
      ++stats_.dma_batches_submitted;
    }
  }

  // CPU side: AVX subtasks run while the DMA transfers are in flight. Each
  // subtask's segments become ready as soon as its bytes land.
  for (size_t i = 0; i < subtasks.size(); ++i) {
    if (subtasks[i].on_dma) {
      continue;
    }
    Subtask& st = subtasks[i];
    if (config_.use_dma && !config_.enable_piggyback && st.dma_eligible) {
      // Naive DMA (ablation): submit and busy-wait per subtask.
      hw::DmaDescriptor desc{st.dst, st.src, st.length};
      ChargeCtx(ctx_, dma_.SubmissionCost(1));
      const size_t ch = dma_.PickChannel(1);
      if (ch < nch) {
        auto sub_or = dma_.SubmitOn(ch, {&desc, 1}, CtxNow(ctx_));
        if (sub_or.ok()) {
          if (ctx_ != nullptr) {
            const Cycles stall_from = ctx_->now();
            ctx_->WaitUntil(sub_or->completion_time);
            stats_.dma_stall_cycles += ctx_->now() - stall_from;
          }
          ChargeCtx(ctx_, timing_->dma_completion_check_cycles);
          stats_.dma_bytes_submitted += st.length;
          ++stats_.dma_batches_submitted;
          stats_.dma_bytes_completed += st.length;
          ++stats_.dma_batches_completed;
          MarkProgress(client, *st.owner, st.task_offset, st.length, CtxNow(ctx_));
          continue;
        }
      }
      ++stats_.dma_ring_full_fallbacks;
      if (overload_ != nullptr) {
        ++overload_->ring_full_events;
      }
    }
    hw::AvxCopy(st.dst, st.src, st.length);
    ChargeCtx(ctx_, timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, st.length));
    stats_.avx_bytes += st.length;
    MarkProgress(client, *st.owner, st.task_offset, st.length, CtxNow(ctx_));
  }
  for (const RoundChunk& ch : ring_full_chunks) {
    Subtask& st = subtasks[ch.subtask];
    hw::AvxCopy(st.dst + ch.offset, st.src + ch.offset, ch.length);
    ChargeCtx(ctx_, timing_->CpuCopyCycles(hw::CopyUnitKind::kAvx, ch.length));
    stats_.avx_bytes += ch.length;
    MarkProgress(client, *st.owner, st.task_offset + ch.offset, ch.length, CtxNow(ctx_));
  }

  if (submitted.empty()) {
    return;
  }
  if (config_.enable_async_dma_completion && ctx_ != nullptr) {
    // Park the in-flight batches instead of waiting them out (DESIGN.md §9):
    // the round retires with its DMA bytes outstanding, the serve returns to
    // the scheduler, and ReapParkedDma lands the bytes on a later pass.
    // Completion times were captured at submission, so even an engine that
    // later steals this client never touches this engine's channels.
    ++stats_.dma_rounds_parked;
    for (const SubmittedBatch& b : submitted) {
      Client::ParkedDma parked;
      parked.completion_time = b.completion;
      parked.bytes = b.bytes;
      parked.segs.reserve(b.chunks->size());
      for (const RoundChunk& ch : *b.chunks) {
        Subtask& st = subtasks[ch.subtask];
        const size_t task_off = st.task_offset + ch.offset;
        parked.segs.push_back({st.owner, task_off, ch.length});
        st.owner->dma_parked.emplace_back(task_off, task_off + ch.length);
      }
      client.parked_dma.push_back(std::move(parked));
      client.dma_inflight_bytes.fetch_add(b.bytes, std::memory_order_relaxed);
    }
    return;
  }
  // Blocking completion (ablation baseline; also any engine without an
  // ExecContext, whose clock cannot advance to a later reap): wait out the
  // slowest channel, then confirm each batch.
  Cycles last_completion = 0;
  for (const SubmittedBatch& b : submitted) {
    last_completion = std::max(last_completion, b.completion);
  }
  if (ctx_ != nullptr) {
    const Cycles stall_from = ctx_->now();
    ctx_->WaitUntil(last_completion);
    stats_.dma_stall_cycles += ctx_->now() - stall_from;
  }
  for (const SubmittedBatch& b : submitted) {
    ChargeCtx(ctx_, timing_->dma_completion_check_cycles);
    stats_.dma_bytes_completed += b.bytes;
    ++stats_.dma_batches_completed;
  }
  dma_.Poll(CtxNow(ctx_));
  for (const SubmittedBatch& b : submitted) {
    for (const RoundChunk& ch : *b.chunks) {
      Subtask& st = subtasks[ch.subtask];
      MarkProgress(client, *st.owner, st.task_offset + ch.offset, ch.length, CtxNow(ctx_));
    }
  }
}

// ---------------------------------------------------------------------------
// Task-range execution
// ---------------------------------------------------------------------------

Status Engine::CopyRange(Client& client, PendingTask& task, size_t offset, size_t length,
                         int depth) {
  // Execute whole progress segments covering [offset, offset+length),
  // skipping segments already marked: a segment's bit is set only once all of
  // the task's bytes in it have landed (§4.1).
  const size_t seg_size = task.progress->segment_size();
  const size_t end = std::min(task.task.length, offset + length);
  if (offset >= end) {
    return OkStatus();
  }
  const auto seg_start_local = [&](size_t seg) {
    const size_t space = seg * seg_size;
    return space > task.progress_offset ? space - task.progress_offset : 0;
  };
  const auto seg_end_local = [&](size_t seg) {
    return std::min(task.task.length, (seg + 1) * seg_size - task.progress_offset);
  };

  const size_t first_seg = task.progress->SegmentOf(task.progress_offset + offset);
  const size_t last_seg = task.progress->SegmentOf(task.progress_offset + end - 1);
  size_t seg = first_seg;
  while (seg <= last_seg) {
    if (task.progress->SegmentReady(seg)) {
      ++seg;
      continue;
    }
    const size_t run_first = seg;
    while (seg <= last_seg && !task.progress->SegmentReady(seg)) {
      ++seg;
    }
    const size_t run_start = seg_start_local(run_first);
    const size_t run_end = seg_end_local(seg - 1);

    // Dead-write suppression: bytes of this run that a *later* task has
    // already written (its progress segments are marked) must not be
    // overwritten with this task's older data — promotion can execute tasks
    // out of submission order (§4.1), so the suppression is what keeps WAW
    // semantics intact. Dead bytes are marked done without copying.
    std::vector<std::pair<size_t, size_t>> live;  // [start, end) task-local
    live.emplace_back(run_start, run_end);
    // Removes [cut_start, cut_end) (task-local bytes) from `ranges`.
    const auto subtract_range = [](std::vector<std::pair<size_t, size_t>>& ranges,
                                   size_t cut_start, size_t cut_end) {
      std::vector<std::pair<size_t, size_t>> next;
      for (auto [ls, le] : ranges) {
        if (cut_end <= ls || cut_start >= le) {
          next.emplace_back(ls, le);
          continue;
        }
        if (ls < cut_start) {
          next.emplace_back(ls, cut_start);
        }
        if (cut_end < le) {
          next.emplace_back(cut_end, le);
        }
      }
      ranges = std::move(next);
    };
    const auto subtract_dead = [&live, &subtract_range](size_t dead_start, size_t dead_end) {
      subtract_range(live, dead_start, dead_end);
    };
    // Bytes of this run already in flight on a DMA channel execute on nobody:
    // their batch lands them at the reap. Snapshot before suppression runs —
    // a later-writer settle below may reap this task's own batches mid-run,
    // and re-copying bytes that just landed would double-count progress.
    const std::vector<std::pair<size_t, size_t>> parked_before = task.dma_parked;
    // Suppression runs per contiguous destination piece of the run: a
    // scatter-gather destination checks each covered segment against later
    // writers of *that* segment's addresses.
    std::vector<RefPiece> dpieces;
    CollectPieces(task.task, /*dst_side=*/true, run_start, run_end - run_start, &dpieces);
    for (const RefPiece& dp : dpieces) {
      const uint64_t dbase = dp.ref.start();
      const uint64_t ddomain = dp.ref.domain();
      // Bytes fully written by later tasks that already completed. Entries
      // are gseq-keyed: locally retired writes and imported foreign landed
      // writes (cross-engine dead-write suppression) compare uniformly.
      for (const auto& done : client.completed_writes) {
        if (done.gseq <= task.gseq || done.domain != ddomain) {
          continue;
        }
        const uint64_t ovl_start = std::max(done.start, dbase);
        const uint64_t ovl_end = std::min(done.start + done.length, dbase + dp.length);
        if (ovl_start >= ovl_end) {
          continue;
        }
        subtract_dead(ovl_start - dbase + dp.task_offset, ovl_end - dbase + dp.task_offset);
      }
      // Bytes a later *pending* writer has already landed (segment-granular).
      const auto suppress_from = [&](PendingTask& other) {
        // A later writer with bytes still in flight must land first: its
        // unreaped segments read as "unready" here, and copying this task's
        // older data under them would then be overwritten-in-reverse when the
        // newer batch is reaped (a WAW inversion against in-flight hardware).
        if (!other.dma_parked.empty()) {
          SettleTaskParked(client, other);
        }
        std::vector<RefPiece> opieces;
        CollectPieces(other.task, /*dst_side=*/true, 0, other.task.length, &opieces);
        for (const RefPiece& op : opieces) {
          if (op.ref.domain() != ddomain) {
            continue;
          }
          const uint64_t obase = op.ref.start();
          const uint64_t ovl_start = std::max(obase, dbase);
          const uint64_t ovl_end = std::min(obase + op.length, dbase + dp.length);
          if (ovl_start >= ovl_end) {
            continue;
          }
          // Walk the overlap in `other`'s progress segments; marked pieces
          // are dead for this task.
          uint64_t cursor = ovl_start;
          while (cursor < ovl_end) {
            const size_t other_local = cursor - obase + op.task_offset;
            const size_t o_seg_size = other.progress->segment_size();
            const size_t o_space = other.progress_offset + other_local;
            const size_t o_seg = other.progress->SegmentOf(o_space);
            const size_t seg_room = (o_seg + 1) * o_seg_size - o_space;
            const uint64_t piece_end = std::min<uint64_t>(ovl_end, cursor + seg_room);
            if (other.progress->SegmentReady(o_seg)) {
              subtract_dead(cursor - dbase + dp.task_offset,
                            piece_end - dbase + dp.task_offset);
            }
            cursor = piece_end;
          }
        }
      };
      if (config_.enable_range_index) {
        // Live later writers whose dst overlaps this piece. Done tasks
        // already left the index; their full write is covered by
        // completed_writes above. An SG writer has one entry per segment —
        // dedup so suppress_from walks it once.
        std::vector<PendingTask*> writers;
        ++stats_.dep_probes;
        ChargeCtx(ctx_, timing_->absorption_match_cycles);
        stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
            RangeIndex::Side::kDst, ddomain, dbase, dp.length,
            [&](const RangeIndex::Entry& entry) {
              if (entry.order > task.order && !entry.task->aborted &&
                  std::find(writers.begin(), writers.end(), entry.task) == writers.end()) {
                writers.push_back(entry.task);
              }
              return true;
            });
        for (PendingTask* other : writers) {
          suppress_from(*other);
        }
      } else {
        for (const auto& other_ptr : client.pending) {
          PendingTask& other = *other_ptr;
          ChargeCtx(ctx_, timing_->absorption_match_cycles);
          ++stats_.dep_tasks_scanned;
          if (other.order <= task.order || other.aborted) {
            continue;
          }
          suppress_from(other);
        }
      }
    }

    if (kTrace) {
      std::fprintf(stderr, "[exec] task=%llu order=%llu dst=%llx run=[%zu,%zu) live:",
                   (unsigned long long)task.task.id, (unsigned long long)task.order,
                   (unsigned long long)task.task.dst.start(), run_start, run_end);
      for (auto [ls, le] : live) std::fprintf(stderr, " [%zu,%zu)", ls, le);
      std::fprintf(stderr, "\n");
    }
    size_t live_bytes = 0;
    for (auto [ls, le] : live) {
      live_bytes += le - ls;
      // Parked bytes stay out of the executed set but still count as live:
      // they are neither dead nor this round's work.
      std::vector<std::pair<size_t, size_t>> exec;
      exec.emplace_back(ls, le);
      for (auto [ps, pe] : parked_before) {
        subtract_range(exec, ps, pe);
      }
      for (auto [xs, xe] : exec) {
        std::vector<SourcePiece> sources;
        ResolveSources(client, task, xs, xe - xs, depth, &sources);
        if (kTrace) {
          size_t total = 0;
          std::fprintf(stderr, "[src] task=%llu run=[%zu,%zu):",
                       (unsigned long long)task.task.id, xs, xe);
          for (const SourcePiece& sp : sources) {
            std::fprintf(stderr, " {%llx,%zu%s}", (unsigned long long)sp.ref.start(), sp.length,
                         sp.absorbed ? ",A" : "");
            total += sp.length;
          }
          std::fprintf(stderr, " total=%zu\n", total);
        }
        // Remap tier (DESIGN.md §11): a page-co-aligned interior backed
        // directly by the task's source is satisfied by CoW aliasing —
        // complete for ordering, zero bytes moved. The unaligned head and
        // tail (and any ineligible range) take the physical path below.
        size_t rs = 0;
        size_t re = 0;
        if (RemapCandidate(task, xs, xe, &rs, &re) &&
            RemapSourcesPlain(task, sources, xs, rs, re) &&
            TryRemapRange(client, task, rs, re)) {
          for (auto [hs, he] : {std::pair<size_t, size_t>{xs, rs}, {re, xe}}) {
            if (hs >= he) {
              continue;
            }
            std::vector<SourcePiece> edge;
            ResolveSources(client, task, hs, he - hs, depth, &edge);
            std::vector<Subtask> subtasks;
            COPIER_RETURN_IF_ERROR(BuildSubtasks(client, task, hs, edge, &subtasks));
            ExecuteRound(client, subtasks);
          }
          continue;
        }
        std::vector<Subtask> subtasks;
        COPIER_RETURN_IF_ERROR(BuildSubtasks(client, task, xs, sources, &subtasks));
        ExecuteRound(client, subtasks);
      }
    }
    // Dead bytes: obligation satisfied by the newer writer; mark done.
    if (live_bytes < run_end - run_start) {
      size_t cursor = run_start;
      for (auto [ls, le] : live) {
        if (cursor < ls) {
          MarkProgress(client, task, cursor, ls - cursor, CtxNow(ctx_));
        }
        cursor = le;
      }
      if (cursor < run_end) {
        MarkProgress(client, task, cursor, run_end - cursor, CtxNow(ctx_));
      }
    }
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Zero-copy remap tier (DESIGN.md §11)
// ---------------------------------------------------------------------------

bool Engine::RemapCandidate(const PendingTask& task, size_t start, size_t end, size_t* rs,
                            size_t* re) const {
  if (!config_.enable_remap_tier ||
      (task.task.sg != nullptr && !task.task.sg->bookkeeping)) {
    return false;
  }
  const MemRef& dst = task.task.dst;
  const MemRef& src = task.task.src;
  if (!dst.is_user() || !src.is_user()) {
    return false;
  }
  // Both sides must reach page boundaries at the same task offsets, i.e. the
  // VAs are congruent mod the page size. A prefix-spliced source (forward
  // fuse) shifts the user bytes: task-local byte k reads src.va + k - pfx, so
  // the congruence carries the prefix length and the aliasable interior
  // starts past the prefix (whose bytes have no user source to alias).
  const size_t pfx = SrcPrefixLen(task.task);
  if (((dst.va - src.va + pfx) & (kPageSize - 1)) != 0) {
    return false;
  }
  const uint64_t lo = AlignUp(dst.va + std::max(start, pfx), kPageSize);
  const uint64_t hi = AlignDown(dst.va + end, kPageSize);
  if (lo >= hi || hi - lo < kMinRemapPages * kPageSize) {
    return false;
  }
  *rs = lo - dst.va;
  *re = hi - dst.va;
  // Fused IPC tasks (bookkeeping SgList) have a receiver latency-blocked on
  // the window descriptor, so the alias is taken only when the PTE/shootdown
  // work beats the round the executor would run instead: the interior cut
  // into host-contiguous subtasks (as the sequential allocator backs it) and
  // planned over this engine's DMA channels, every page priced as a cold
  // translation. Bulk amemcpy-style tasks take the alias for the moved-bytes
  // win alone.
  if (task.task.sg != nullptr && task.task.sg->bookkeeping) {
    std::vector<Subtask> round;
    for (uint64_t off = lo; off < hi; off += kMaxSubtaskBytes) {
      Subtask st;
      st.length = std::min<uint64_t>(kMaxSubtaskBytes, hi - off);
      st.dma_eligible = config_.use_dma && st.length >= timing_->dma_min_subtask_bytes;
      st.continues = !round.empty();  // one VA-contiguous interior
      st.dst_xlate.rest = (st.length / kPageSize) * timing_->va_translate_cycles_per_page;
      round.push_back(st);
    }
    const size_t pages = (hi - lo) / kPageSize;
    const Cycles alias_cost =
        timing_->page_remap_cycles * pages + timing_->tlb_shootdown_cycles;
    if (alias_cost >= PlanRound(*timing_, config_, round, dma_.channel_count()).makespan) {
      return false;
    }
  }
  // Overlapping same-space interiors cannot alias (a frame would be both
  // sides of the share); AliasCowRange would reject them anyway.
  if (dst.space == src.space &&
      RangesOverlap(dst.va + *rs, *re - *rs, src.va + *rs, *re - *rs)) {
    return false;
  }
  return true;
}

bool Engine::RemapSourcesPlain(const PendingTask& task, const std::vector<SourcePiece>& sources,
                               size_t start, size_t rs, size_t re) {
  const MemRef& src = task.task.src;
  const size_t pfx = SrcPrefixLen(task.task);
  size_t pos = start;
  for (const SourcePiece& piece : sources) {
    const size_t piece_start = pos;
    pos += piece.length;
    if (pos <= rs) {
      continue;
    }
    if (piece_start >= re) {
      break;
    }
    // A piece backs the interior only if it sits at the task's own source
    // offset — absorption rewrites pieces to the producer's memory, where
    // the aliasable frames do not hold the task's data yet. Under a prefix
    // splice user bytes sit `pfx` earlier in the source range (the interior
    // itself starts past the prefix, so piece_start >= pfx here).
    if (piece.absorbed || !piece.ref.is_user() || piece.ref.space != src.space ||
        piece.ref.va != src.va + piece_start - pfx) {
      return false;
    }
  }
  return pos >= re;
}

bool Engine::TryRemapRange(Client& client, PendingTask& task, size_t rs, size_t re) {
  const MemRef& dst = task.task.dst;
  const MemRef& src = task.task.src;
  const size_t pfx = SrcPrefixLen(task.task);
  const size_t length = re - rs;
  const Status aliased =
      dst.space->AliasCowRangeFrom(*src.space, dst.va + rs, src.va + rs - pfx, length, ctx_);
  if (!aliased.ok()) {
    return false;  // pinned/huge/shared/unmapped edge: physical copy fallback
  }
  ++stats_.remap_tasks;
  stats_.remapped_bytes += length;
  // The aliased bytes are complete for ordering: progress marks, kfuncs and
  // barrier visibility flow through the same accounting as a physical copy.
  MarkProgress(client, task, rs, length, CtxNow(ctx_));
  return true;
}

Status Engine::ExecuteTaskRange(Client& client, PendingTask& task, size_t offset, size_t length,
                                int depth, bool must_land) {
  if (kTrace) {
    std::fprintf(stderr, "[range] task=%llu off=%zu len=%zu depth=%d done=%d bytes=%zu\n",
                 (unsigned long long)task.task.id, offset, length, depth, task.Done(),
                 task.bytes_done);
  }
  if (task.Done() || length == 0) {
    return OkStatus();
  }
  if (depth >= kMaxDependencyDepth) {
    return FailedPrecondition("dependency recursion limit");
  }
  offset = std::min(offset, task.task.length);
  length = std::min(length, task.task.length - offset);
  // Execution happens in whole progress segments (CopyRange), so dependency
  // resolution must cover the segment-aligned expansion of the requested
  // range — otherwise bytes copied "for free" at segment edges could land
  // before an earlier conflicting write (WAW/WAR inversion).
  const size_t seg = task.progress->segment_size();
  const size_t space_start = AlignDown(task.progress_offset + offset, seg);
  const size_t aligned_offset =
      space_start >= task.progress_offset ? space_start - task.progress_offset : 0;
  const size_t aligned_end = std::min<size_t>(
      task.task.length,
      AlignUp(task.progress_offset + offset + length, seg) - task.progress_offset);
  offset = aligned_offset;
  length = aligned_end - aligned_offset;
  // Barrier-drain rule (DESIGN.md §9): a synchronizing or conflicting access
  // (promotion, csync, dependency resolution) may not proceed past bytes the
  // hardware still has in flight — settle them to their completion first.
  // Plain FIFO passes skip this; their parked bytes land via the reaper.
  if (must_land && !task.dma_parked.empty()) {
    SettleParkedRange(client, task, offset, length);
    if (task.Done()) {
      return OkStatus();
    }
  }
  // Cross-engine shared-range protocol (DESIGN.md §10): before executing a
  // window other clients may also name, import landed foreign writes ordered
  // after us (dead-write suppression) and force-land live foreign conflicts
  // ordered before us. kUnavailable from a held foreign client propagates to
  // the caller as a defer — never a drop.
  if (cross_ != nullptr && task.shared_visible) {
    COPIER_RETURN_IF_ERROR(CrossSettle(client, task, offset, length));
  }
  COPIER_RETURN_IF_ERROR(ResolveDependencies(client, task, offset, length, depth));
  COPIER_RETURN_IF_ERROR(CopyRange(client, task, offset, length, depth));
  if (task.bytes_done >= task.task.length) {
    CompleteTask(client, task);
  }
  return OkStatus();
}

Status Engine::CrossSettle(Client& client, PendingTask& task, size_t offset, size_t length) {
  // One ledger probe per contiguous piece of each side of the window: dst
  // pieces are writes (WAW/WAR against foreign tasks), src pieces are reads
  // (RAW). The hooks decide what conflicts; this only enumerates windows.
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, offset, length, &pieces);
  const size_t dst_pieces = pieces.size();
  CollectPieces(task.task, /*dst_side=*/false, offset, length, &pieces);
  for (size_t i = 0; i < pieces.size(); ++i) {
    const RefPiece& piece = pieces[i];
    ++stats_.cross_dep_probes;
    Status status = cross_->SettleForeign(*this, client, task, piece.ref.domain(),
                                          piece.ref.start(), piece.length,
                                          /*writes=*/i < dst_pieces);
    if (!status.ok() && status.code() == StatusCode::kUnavailable) {
      ++stats_.cross_dep_defers;
    }
    COPIER_RETURN_IF_ERROR(status);
  }
  return OkStatus();
}

bool Engine::RangeLanded(const PendingTask& task, size_t offset, size_t length) const {
  if (task.Done()) {
    return true;
  }
  const size_t end = std::min(offset + length, task.task.length);
  if (offset >= end) {
    return true;
  }
  for (const auto& [s, e] : task.dma_parked) {
    if (s < end && e > offset) {
      return false;  // in flight on a channel: submitted, not landed
    }
  }
  return task.progress->RangeReady(task.progress_offset + offset, end - offset);
}

Status Engine::SettleSharedRange(Client& client, uint64_t domain, uint64_t start, size_t length,
                                 uint64_t gseq_bound) {
  // Runs on the *probing* engine while `client` — usually homed on another
  // engine — is claimed through its `serving` flag: force-lands every live
  // task of `client` ordered before `gseq_bound` that touches
  // [start, start + length) of `domain`. Charges accrue to this engine's
  // clock and DMA slice; the victim's channel state is never touched (parked
  // batches carry their completion times). Never retires: the victim may be
  // mid-ExecutePending up-stack on its own engine, holding `pending`
  // iterators.
  struct Hit {
    PendingTask* task;
    size_t offset;
    size_t length;
    uint64_t gseq;
  };
  std::vector<Hit> hits;
  const auto consider = [&](PendingTask* task, size_t local_off, size_t local_len) {
    if (task == nullptr || task->Done() || task->gseq >= gseq_bound) {
      return;
    }
    hits.push_back({task, local_off, local_len, task->gseq});
  };
  if (config_.enable_range_index) {
    for (const RangeIndex::Side side : {RangeIndex::Side::kDst, RangeIndex::Side::kSrc}) {
      client.range_index.ForEachOverlap(
          side, domain, start, length, [&](const RangeIndex::Entry& entry) {
            const uint64_t lo = std::max(start, entry.start);
            const uint64_t hi = std::min(start + length, entry.start + entry.length);
            if (lo < hi) {
              consider(entry.task, entry.task_offset + (lo - entry.start),
                       static_cast<size_t>(hi - lo));
            }
            return true;
          });
    }
  } else {
    for (auto& pending : client.pending) {
      PendingTask& task = *pending;
      if (task.Done() || task.gseq >= gseq_bound) {
        continue;
      }
      std::vector<RefPiece> pieces;
      CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
      CollectPieces(task.task, /*dst_side=*/false, 0, task.task.length, &pieces);
      for (const RefPiece& piece : pieces) {
        if (piece.ref.domain() != domain) {
          continue;
        }
        const uint64_t lo = std::max(start, piece.ref.start());
        const uint64_t hi = std::min(start + length, piece.ref.start() + piece.length);
        if (lo < hi) {
          consider(&task, piece.task_offset + (lo - piece.ref.start()),
                   static_cast<size_t>(hi - lo));
        }
      }
    }
  }
  // gseq order is the cross-client conflict order (fixed at submission):
  // settling in it reproduces exactly what a single engine executing in
  // global submission order would do to these bytes.
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.gseq != b.gseq ? a.gseq < b.gseq : a.offset < b.offset;
  });
  const Cycles settle_start = CtxNow(ctx_);
  for (const Hit& hit : hits) {
    if (hit.task->Done() || RangeLanded(*hit.task, hit.offset, hit.length)) {
      continue;  // already landed (e.g. absorbed or delivered): nothing to order
    }
    ++stats_.cross_dep_settles;
    Status status =
        ExecuteTaskRange(client, *hit.task, hit.offset, hit.length, /*depth=*/0,
                         /*must_land=*/true);
    if (!status.ok()) {
      if (status.code() == StatusCode::kUnavailable) {
        stats_.cross_dep_wait_cycles += CtxNow(ctx_) - settle_start;
        return status;  // nested defer: unwind to the original caller
      }
      DropTask(client, *hit.task, status);
    }
  }
  stats_.cross_dep_wait_cycles += CtxNow(ctx_) - settle_start;
  return OkStatus();
}

void Engine::ApplyDeferredAborts(Client& client) {
  if (client.pending_abort_requests == 0) {
    return;  // common case: nothing deferred (runs after every pending pass)
  }
  size_t remaining = 0;
  for (auto& pending : client.pending) {
    PendingTask& task = *pending;
    if (!task.abort_requested || task.Done()) {
      continue;
    }
    bool has_dependent = false;
    if (config_.enable_range_index) {
      // A dependent is a live, later-ordered reader of this task's dst
      // (probed per contiguous destination piece).
      std::vector<RefPiece> dpieces;
      CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &dpieces);
      for (const RefPiece& dp : dpieces) {
        ++stats_.dep_probes;
        ChargeCtx(ctx_, timing_->absorption_match_cycles);
        stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
            RangeIndex::Side::kSrc, dp.ref.domain(), dp.ref.start(), dp.length,
            [&](const RangeIndex::Entry& entry) {
              if (entry.order > task.order && !entry.task->Done()) {
                has_dependent = true;
                return false;
              }
              return true;
            });
        if (has_dependent) {
          break;
        }
      }
    } else {
      for (const auto& other : client.pending) {
        ChargeCtx(ctx_, timing_->absorption_match_cycles);
        ++stats_.dep_tasks_scanned;
        if (other->order > task.order && !other->Done() &&
            SidesOverlap(task.task, /*a_dst=*/true, other->task, /*b_dst=*/false)) {
          has_dependent = true;
          break;
        }
      }
    }
    if (has_dependent) {
      ++remaining;
    } else {
      if (kTrace) {
        std::fprintf(stderr, "[abort] task=%llu order=%llu dst=%llx len=%zu\n",
                     (unsigned long long)task.task.id, (unsigned long long)task.order,
                     (unsigned long long)task.task.dst.start(), task.task.length);
      }
      // Bytes already on a DMA channel cannot be recalled: settle them first
      // so the abort never leaves parked references to a retiring task. If
      // the landing completes the task, the abort raced completion and lost.
      if (!task.dma_parked.empty()) {
        SettleTaskParked(client, task);
        if (task.Done()) {
          continue;
        }
      }
      task.aborted = true;
      OnTaskDone(client, task);
      ++stats_.tasks_aborted;
      // Settle the client-visible descriptor: the client explicitly discarded
      // this copy and promised not to use the data (§4.4), but csync_all
      // sweeps every registered copy and must not wait forever on it.
      if (task.task.descriptor != nullptr) {
        task.task.descriptor->MarkRange(task.task.descriptor_offset, task.task.length,
                                        CtxNow(ctx_));
      }
      CompleteTask(client, task);
    }
  }
  client.pending_abort_requests = remaining;
}

uint64_t Engine::ExecutePending(Client& client, uint64_t budget) {
  uint64_t served = 0;
  const Cycles now = CtxNow(ctx_);
  size_t scan = 0;
  while (served < budget && scan < client.pending.size()) {
    // Find the first executable task (FIFO; lazy tasks wait for promotion,
    // dependency pull, abort, or their age timeout, §4.4).
    PendingTask* head = nullptr;
    std::vector<PendingTask*> round;
    for (; scan < client.pending.size(); ++scan) {
      PendingTask& task = *client.pending[scan];
      if (kTrace2) {
        std::fprintf(stderr, "[scan] task=%llu done=%d bytes=%zu abreq=%d lazy=%d prom=%d\n",
                     (unsigned long long)task.task.id, task.Done(), task.bytes_done,
                     task.abort_requested, task.task.type == TaskType::kLazy, task.promoted);
      }
      if (task.Done() || task.abort_requested) {
        continue;
      }
      if (task.task.type == TaskType::kLazy && !task.promoted &&
          now < task.task.submit_time + kLazyTimeoutCycles) {
        continue;
      }
      head = &task;
      break;
    }
    if (head == nullptr) {
      break;
    }

    round.push_back(head);
    // e-piggyback: fuse small adjacent tasks with no data dependencies into
    // one hardware round so even sub-12 KiB tasks get DMA parallelism (§4.3).
    // The fused path bypasses per-task dependency resolution, so the head
    // itself must also be conflict-free against every unfinished task ordered
    // before it (it may have been scheduled past skipped lazy tasks).
    // Scatter-gather tasks never fuse: per-segment KFUNC timing depends on
    // the ordered per-task path, and their round-size economics differ (one
    // SG task already fills a round).
    // Shared-visible tasks never fuse either: their cross-engine ledger probe
    // runs in the ordered per-task path (ExecuteTaskRange).
    bool head_fusable = head->task.sg == nullptr && !head->shared_visible;
    if (head_fusable) {
      for (const auto& done : client.completed_writes) {
        if (done.gseq > head->gseq && done.domain == head->task.dst.domain() &&
            RangesOverlap(done.start, done.length, head->task.dst.start(),
                          head->task.length)) {
          head_fusable = false;
          break;
        }
      }
    }
    if (head_fusable && HasAnyConflict(client, *head)) {
      head_fusable = false;
    }
    // The fused path copies whole tasks without segment clipping, so only
    // fully-unstarted tasks may fuse: a partially-executed task re-copying
    // its done segments would re-read sources that later tasks have since
    // legally overwritten (found by the concurrency stress harness).
    // Tasks with bytes parked on a DMA channel look unstarted (bytes_done is
    // credited only at the reap) but are not: re-copying them whole would
    // double their progress.
    if (head_fusable && head->bytes_done == 0 && head->dma_parked.empty() &&
        config_.use_dma && config_.enable_piggyback &&
        head->task.length < timing_->ipiggyback_min_task_bytes) {
      // A fused candidate executes ahead of every task it is hoisted over, so
      // it must have no data dependency (RAW/WAW/WAR, either direction) with
      // round members *or* any unfinished task ordered before it — including
      // lazy/abort-deferred tasks sitting before the round head.
      size_t round_bytes = head->task.length;
      for (size_t j = scan + 1; j < client.pending.size() && round.size() < kMaxFusedTasks;
           ++j) {
        PendingTask& cand = *client.pending[j];
        if (cand.Done()) {
          continue;
        }
        // Conflict with any live task (round members included — they are all
        // live pending tasks, so one probe set covers them).
        bool conflict = HasAnyConflict(client, cand);
        if (!conflict) {
          for (const auto& done : client.completed_writes) {
            if (done.gseq > cand.gseq &&
                done.domain == cand.task.dst.domain() &&
                RangesOverlap(done.start, done.length, cand.task.dst.start(),
                              cand.task.length)) {
              conflict = true;  // a newer completed write covers part of dst
              break;
            }
          }
        }
        if (conflict || cand.task.type == TaskType::kLazy || cand.bytes_done != 0 ||
            !cand.dma_parked.empty() || cand.task.sg != nullptr || cand.shared_visible) {
          continue;  // stays in place; later candidates are checked against it
        }
        // Tasks with producers need the ordered (absorption-aware) path.
        if (HasEarlierLiveWriter(client, cand)) {
          continue;
        }
        round.push_back(&cand);
        round_bytes += cand.task.length;
        if (round_bytes >= config_.copy_slice_bytes) {
          break;
        }
      }
    }

    if (round.size() == 1) {
      // Parked (submitted, unreaped) bytes count as progress here: the slice
      // already paid their submission, and the reap that lands them is free
      // work the scheduler should not bill twice.
      const uint64_t before = head->bytes_done + head->dma_parked_bytes();
      const Status status =
          ExecuteTaskRange(client, *head, 0, head->task.length, 0, /*must_land=*/false);
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        // kUnavailable is the cross-engine defer signal (a foreign serving
        // claim was held): the task stays queued and retries on a later pass.
        DropTask(client, *head, status);
      }
      const uint64_t after = head->bytes_done + head->dma_parked_bytes();
      served += after - before;
      if (after == before && !head->Done()) {
        ++scan;  // no forward progress on this task: move past it this pass
      }
    } else {
      // Fused round: build one combined subtask list. Dependencies were ruled
      // out above, so sources resolve plainly.
      std::vector<Subtask> subtasks;
      std::vector<uint64_t> before;
      bool fault = false;
      for (PendingTask* member : round) {
        before.push_back(member->bytes_done + member->dma_parked_bytes());
        std::vector<SourcePiece> sources;
        ResolveSources(client, *member, 0, member->task.length, 0, &sources);
        const Status status = BuildSubtasks(client, *member, 0, sources, &subtasks);
        if (!status.ok()) {
          DropTask(client, *member, status);
          fault = true;
          break;
        }
      }
      if (!fault) {
        ExecuteRound(client, subtasks);
      }
      for (size_t i = 0; i < round.size(); ++i) {
        if (round[i]->bytes_done >= round[i]->task.length) {
          CompleteTask(client, *round[i]);
        }
        served += round[i]->bytes_done + round[i]->dma_parked_bytes() -
                  (i < before.size() ? before[i] : 0);
      }
    }
  }
  ApplyDeferredAborts(client);
  RetireDone(client);
  return served;
}

// ---------------------------------------------------------------------------
// Completion, drops, retirement
// ---------------------------------------------------------------------------

void Engine::MarkProgress(Client& client, PendingTask& task, size_t offset, size_t length,
                          Cycles when) {
  const bool was_done = task.Done();
  task.progress->MarkRange(task.progress_offset + offset, length, when);
  // Mirror into the client-visible descriptor (§4.1): csync gates on it.
  if (task.task.descriptor != nullptr) {
    task.task.descriptor->MarkRange(task.task.descriptor_offset + offset, length, when);
  }
  task.bytes_done += length;
  stats_.bytes_copied += length;
  if (task.task.sg != nullptr) {
    // Fused-IPC accounting is exact by construction: every byte that lands
    // through a bookkeeping task skipped the intermediate kernel buffer, and
    // aborted remainders never reach MarkProgress.
    if (task.task.sg->bookkeeping) {
      stats_.fused_ipc_bytes += length;
    }
    CreditSgSegments(client, task, offset, length);
  }
  if (!was_done && task.Done()) {
    OnTaskDone(client, task);
  }
}

void Engine::CreditSgSegments(Client& client, PendingTask& task, size_t offset, size_t length) {
  // Only the segments the landing overlaps: the first one ending past
  // `offset` up to the first one starting at or past its end.
  const auto& segs = task.task.sg->segs;
  const size_t end = offset + length;
  const auto first = std::upper_bound(task.sg_ends.begin(), task.sg_ends.end(), offset);
  for (size_t i = first - task.sg_ends.begin(); i < segs.size(); ++i) {
    const size_t seg_start = task.sg_ends[i] - segs[i].length;
    if (seg_start >= end) {
      break;
    }
    const size_t ovl = std::min(end, task.sg_ends[i]) - std::max(offset, seg_start);
    task.sg_remaining[i] -= std::min(ovl, task.sg_remaining[i]);
  }
  // Fire the longest fully-credited prefix, IN SEGMENT ORDER. Progress can
  // land out of order within a round (DMA takes the tail while the CPU
  // finishes the head), but the op-list is a stream: segment k's handler
  // (skb delivery on the send path) must not run before segment k-1's, or
  // the receiver reassembles the bytes in the wrong order — exactly the
  // per-op path's task-order firing. The same stream can also span several
  // tasks: while an earlier task has not fired its handler, the prefix waits
  // for that task's completion cascade (FireDeferredSuccessors).
  if (!HasEarlierUnfired(client, task.order)) {
    FireReadySgSegments(task);
  }
}

void Engine::FireReadySgSegments(PendingTask& task) {
  const auto& segs = task.task.sg->segs;
  while (task.sg_next_fire < segs.size() && task.sg_remaining[task.sg_next_fire] == 0) {
    const size_t i = task.sg_next_fire++;
    if (segs[i].on_complete != nullptr) {
      // The per-segment KFUNC is the per-skb completion handler of the
      // per-op path: same dispatch charge, same kfuncs_run accounting.
      RunKfunc(segs[i].on_complete);
    }
  }
}

void Engine::RunKfunc(const std::function<void(Cycles)>& fn) {
  ChargeCtx(ctx_, timing_->handler_dispatch_cycles);
  stats_.kfunc_cycles += timing_->handler_dispatch_cycles;
  const Cycles at = CtxNow(ctx_);
  fn(at);
  ++stats_.kfuncs_run;
  NoteKfuncTime(at);
}

void Engine::FireRemainingSgSegments(PendingTask& task) {
  if (task.task.sg == nullptr) {
    return;
  }
  const auto& segs = task.task.sg->segs;
  while (task.sg_next_fire < segs.size()) {
    const size_t i = task.sg_next_fire++;
    if (segs[i].on_complete != nullptr) {
      RunKfunc(segs[i].on_complete);
    }
  }
}

void Engine::CompleteTask(Client& client, PendingTask& task) {
  if (task.handler_fired) {
    return;
  }
  // Per-client handler order is submission order, unconditionally: if an
  // earlier task has not fired, this one stays done-but-unfired and the
  // predecessor's completion cascades it (below). This one rule orders every
  // path: a FIFO pass cannot overtake an earlier task whose bytes are still
  // parked on a DMA channel (the socket paths reassemble streams in handler
  // order); cross-engine settles keep KFUNC order independent of which
  // engine's settle landed the task first; and an aliased task (DESIGN.md
  // §11) — complete the instant its PTEs flip — cannot overtake a
  // predecessor whose bytes are still moving.
  if (HasEarlierUnfired(client, task.order)) {
    // The blocking predecessor may itself be done (completed mid-round via
    // absorption or a remap) with nobody left to call CompleteTask on it:
    // run the cascade so done-but-unfired prefixes drain now, not never.
    FireDeferredSuccessors(client);
    return;
  }
  task.handler_fired = true;
  if (!task.aborted) {
    ++stats_.tasks_completed;
  }
  client.total_copy_length += task.task.length;
  // Any segment KFUNC not yet fired through progress fires now: the kernel
  // buffers behind an aborted vectored task must be reclaimed exactly as the
  // per-op path's completion handlers would have.
  FireRemainingSgSegments(task);
  PostHandler& handler = task.task.handler;
  switch (handler.kind) {
    case PostHandler::Kind::kNone:
      break;
    case PostHandler::Kind::kKernelFunc:
      RunKfunc(handler.fn);
      break;
    case PostHandler::Kind::kUserFunc: {
      QueuePair* pair = task.origin != nullptr ? task.origin : &client.default_pair();
      HandlerTask ht;
      ht.fn = handler.fn;
      ht.ready_time = CtxNow(ctx_);
      if (!pair->user.handler_q.TryPush(std::move(ht))) {
        // Handler queue full: execute inline as a last resort (never drop a
        // reclamation handler).
        handler.fn(CtxNow(ctx_));
      }
      ++stats_.ufuncs_queued;
      break;
    }
  }
  FireDeferredSuccessors(client);
}

bool Engine::HasEarlierUnfired(const Client& client, uint64_t order) const {
  for (const auto& pending : client.pending) {
    if (pending->order >= order) {
      break;  // pending is ordered by ingestion order
    }
    if (!pending->handler_fired) {
      return true;
    }
  }
  return false;
}

void Engine::FireDeferredSuccessors(Client& client) {
  if (t_fire_cascade) {
    return;  // the outermost completion runs one cascade for the whole chain
  }
  t_fire_cascade = true;
  for (auto& pending : client.pending) {
    PendingTask& task = *pending;
    if (task.handler_fired) {
      continue;
    }
    if (!task.Done()) {
      // The first unfired, incomplete task blocks everything behind it; the
      // landed prefix of its own segments may fire now.
      if (task.task.sg != nullptr) {
        FireReadySgSegments(task);
      }
      break;
    }
    CompleteTask(client, task);  // aborted tasks too — their handlers fire
    if (!task.handler_fired) {
      break;
    }
  }
  t_fire_cascade = false;
}

void Engine::DropTask(Client& client, PendingTask& task, const Status& reason) {
  COPIER_LOG(kDebug) << "dropping task " << task.task.id << ": " << reason.ToString();
  // Bytes already on a DMA channel land regardless of the fault; settle them
  // so no parked batch keeps a reference to the retiring task.
  if (!task.dma_parked.empty()) {
    SettleTaskParked(client, task);
  }
  ++stats_.tasks_dropped;
  task.aborted = true;
  OnTaskDone(client, task);
  task.handler_fired = true;  // handlers do not run for faulted tasks
  if (task.progress != nullptr) {
    task.progress->MarkFailed(CtxNow(ctx_));
  }
  if (task.task.descriptor != nullptr) {
    task.task.descriptor->MarkFailed(CtxNow(ctx_));
  }
  if (client.process() != nullptr) {
    client.process()->Deliver(simos::Signal::kSegv);
  }
  FireDeferredSuccessors(client);
}

void Engine::RetireDone(Client& client) {
  std::erase_if(client.pending, [this, &client](const std::unique_ptr<PendingTask>& task) {
    // A task with bytes still parked on a DMA channel must outlive the reap
    // (the parked batch holds a pointer to it), Done or not.
    if (!task->Done() || !task->handler_fired || !task->dma_parked.empty()) {
      return false;
    }
    // Done tasks normally had their index entries dropped and their
    // destination logged at the Done transition (OnTaskDone); this is the
    // safety net for any path that flipped Done() without going through it.
    OnTaskDone(client, *task);
    return true;
  });
  client.pending_count.store(client.pending.size(), std::memory_order_release);
  // Prune: a completed write only matters while an EARLIER-sequenced task
  // could still execute late.
  uint64_t min_pending_gseq = UINT64_MAX;
  for (const auto& task : client.pending) {
    if (!task->Done()) {
      min_pending_gseq = std::min(min_pending_gseq, task->gseq);
    }
  }
  std::erase_if(client.completed_writes, [&](const Client::CompletedWrite& w) {
    if (w.gseq >= min_pending_gseq && min_pending_gseq != UINT64_MAX) {
      return false;  // a local earlier-ordered task could still execute late
    }
    // Cross-engine retention: a write into a shared domain that landed before
    // the domain turned shared has no ledger tombstone — this log entry is
    // the only record a foreign lower-gseq prober can import (SettleForeign's
    // owner-log scan). Keep it while such a prober may still be outstanding.
    return cross_ == nullptr || !cross_->LandedWriteStillNeeded(w.gseq);
  });
}

// ---------------------------------------------------------------------------
// Pending-range interval index
// ---------------------------------------------------------------------------

void Engine::IndexInsert(Client& client, PendingTask& task) {
  if (task.in_range_index || task.Done()) {
    return;
  }
  // One entry per contiguous piece of each side: a scatter-gather side
  // contributes one entry per segment, carrying the segment's task-local
  // prefix offset so probes map hits back to task bytes.
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Insert(RangeIndex::Side::kDst, p.ref.domain(), p.ref.start(), p.length,
                              task.order, &task, p.task_offset);
  }
  pieces.clear();
  CollectPieces(task.task, /*dst_side=*/false, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Insert(RangeIndex::Side::kSrc, p.ref.domain(), p.ref.start(), p.length,
                              task.order, &task, p.task_offset);
  }
  task.in_range_index = true;
  stats_.index_entries = client.range_index.size();
}

void Engine::IndexErase(Client& client, PendingTask& task) {
  if (!task.in_range_index) {
    return;
  }
  std::vector<RefPiece> pieces;
  CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Erase(RangeIndex::Side::kDst, p.ref.domain(), p.ref.start(), task.order);
  }
  pieces.clear();
  CollectPieces(task.task, /*dst_side=*/false, 0, task.task.length, &pieces);
  for (const RefPiece& p : pieces) {
    client.range_index.Erase(RangeIndex::Side::kSrc, p.ref.domain(), p.ref.start(), task.order);
  }
  task.in_range_index = false;
  stats_.index_entries = client.range_index.size();
}

void Engine::OnTaskDone(Client& client, PendingTask& task) {
  if (task.done_processed) {
    return;
  }
  task.done_processed = true;
  IndexErase(client, task);
  // Log the write so a still-pending earlier task executing late cannot
  // overwrite it (WAW); pruned in RetireDone once no earlier task remains.
  // One log entry per contiguous destination piece.
  if (!task.aborted) {
    std::vector<RefPiece> pieces;
    CollectPieces(task.task, /*dst_side=*/true, 0, task.task.length, &pieces);
    for (const RefPiece& p : pieces) {
      client.completed_writes.push_back(
          Client::CompletedWrite{task.gseq, p.ref.domain(), p.ref.start(), p.length});
    }
  }
  if (cross_ != nullptr && task.shared_visible) {
    cross_->UnregisterShared(task);
  }
}

bool Engine::HasAnyConflict(Client& client, const PendingTask& self) {
  const CopyTask& b = self.task;
  if (config_.enable_range_index) {
    bool conflict = false;
    const auto probe = [&](RangeIndex::Side side, const RefPiece& p) {
      if (conflict) {
        return;
      }
      ++stats_.dep_probes;
      ChargeCtx(ctx_, timing_->absorption_match_cycles);
      stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
          side, p.ref.domain(), p.ref.start(), p.length, [&](const RangeIndex::Entry& entry) {
            if (entry.task != &self && !entry.task->Done()) {
              conflict = true;
              return false;
            }
            return true;
          });
    };
    std::vector<RefPiece> pieces;
    CollectPieces(b, /*dst_side=*/true, 0, b.length, &pieces);
    for (const RefPiece& p : pieces) {
      probe(RangeIndex::Side::kDst, p);  // WAW: another writer of our dst
      probe(RangeIndex::Side::kSrc, p);  // WAR: a reader of our dst
    }
    pieces.clear();
    CollectPieces(b, /*dst_side=*/false, 0, b.length, &pieces);
    for (const RefPiece& p : pieces) {
      probe(RangeIndex::Side::kDst, p);  // RAW: a writer of our src
    }
    return conflict;
  }
  for (const auto& other : client.pending) {
    ChargeCtx(ctx_, timing_->absorption_match_cycles);
    ++stats_.dep_tasks_scanned;
    if (other.get() == &self || other->Done()) {
      continue;
    }
    const CopyTask& a = other->task;
    if (SidesOverlap(a, /*a_dst=*/true, b, /*b_dst=*/true) ||
        SidesOverlap(a, /*a_dst=*/true, b, /*b_dst=*/false) ||
        SidesOverlap(a, /*a_dst=*/false, b, /*b_dst=*/true)) {
      return true;
    }
  }
  return false;
}

bool Engine::HasEarlierLiveWriter(Client& client, const PendingTask& reader) {
  const CopyTask& b = reader.task;
  if (config_.enable_range_index) {
    bool found = false;
    std::vector<RefPiece> pieces;
    CollectPieces(b, /*dst_side=*/false, 0, b.length, &pieces);
    for (const RefPiece& p : pieces) {
      ++stats_.dep_probes;
      ChargeCtx(ctx_, timing_->absorption_match_cycles);
      stats_.dep_tasks_scanned += client.range_index.ForEachOverlap(
          RangeIndex::Side::kDst, p.ref.domain(), p.ref.start(), p.length,
          [&](const RangeIndex::Entry& entry) {
            if (entry.order < reader.order && !entry.task->Done()) {
              found = true;
              return false;
            }
            return true;
          });
      if (found) {
        break;
      }
    }
    return found;
  }
  for (const auto& other : client.pending) {
    ChargeCtx(ctx_, timing_->absorption_match_cycles);
    ++stats_.dep_tasks_scanned;
    if (other->order < reader.order && !other->Done() &&
        SidesOverlap(other->task, /*a_dst=*/true, b, /*b_dst=*/false)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Asynchronous DMA completion (DESIGN.md §9)
// ---------------------------------------------------------------------------

uint64_t Engine::ReapParkedDma(Client& client, Cycles now) {
  if (client.parked_dma.empty()) {
    return 0;
  }
  // Land ripe batches in completion order (ties: submission order), so
  // progress marks, SG-segment credits and completion handlers replay exactly
  // as the hardware retired them.
  std::vector<size_t> ripe;
  for (size_t i = 0; i < client.parked_dma.size(); ++i) {
    if (client.parked_dma[i].completion_time <= now) {
      ripe.push_back(i);
    }
  }
  if (ripe.empty()) {
    return 0;
  }
  std::stable_sort(ripe.begin(), ripe.end(), [&client](size_t a, size_t b) {
    return client.parked_dma[a].completion_time < client.parked_dma[b].completion_time;
  });
  uint64_t landed = 0;
  for (size_t i : ripe) {
    Client::ParkedDma& batch = client.parked_dma[i];
    // One completion check per batch — the charge the blocking path paid.
    ChargeCtx(ctx_, timing_->dma_completion_check_cycles);
    stats_.dma_bytes_completed += batch.bytes;
    ++stats_.dma_batches_completed;
    landed += batch.bytes;
    for (const Client::ParkedDma::Seg& seg : batch.segs) {
      std::erase(seg.task->dma_parked, std::make_pair(seg.offset, seg.offset + seg.length));
      MarkProgress(client, *seg.task, seg.offset, seg.length, batch.completion_time);
    }
    client.dma_inflight_bytes.fetch_sub(batch.bytes, std::memory_order_relaxed);
  }
  // Erase reaped entries back-to-front so earlier indices stay valid.
  std::sort(ripe.begin(), ripe.end(), std::greater<size_t>());
  for (size_t i : ripe) {
    client.parked_dma.erase(client.parked_dma.begin() + static_cast<ptrdiff_t>(i));
  }
  // Handlers deferred behind the landed batches fire now, in task order —
  // never in batch-completion order, which multi-channel submission permutes.
  FireDeferredSuccessors(client);
  return landed;
}

void Engine::SettleParkedRange(Client& client, PendingTask& task, size_t offset, size_t length) {
  if (client.parked_dma.empty()) {
    return;
  }
  const size_t end = offset + length;
  Cycles target = 0;
  for (const Client::ParkedDma& batch : client.parked_dma) {
    for (const Client::ParkedDma::Seg& seg : batch.segs) {
      if (seg.task == &task && seg.offset < end && seg.offset + seg.length > offset) {
        target = std::max(target, batch.completion_time);
        break;
      }
    }
  }
  if (target == 0) {
    return;  // nothing of this range is in flight
  }
  WaitAndReapParked(client, target);
}

void Engine::WaitAndReapParked(Client& client, Cycles until) {
  if (ctx_ != nullptr && until > ctx_->now()) {
    stats_.dma_drain_wait_cycles += until - ctx_->now();
    ctx_->WaitUntil(until);
  }
  ReapParkedDma(client, CtxNow(ctx_));
}

// ---------------------------------------------------------------------------
// Top-level serving
// ---------------------------------------------------------------------------

uint64_t Engine::ServeClient(Client& client, uint64_t max_bytes) {
  const Cycles serve_start = CtxNow(ctx_);
  ChargeCtx(ctx_, timing_->poll_iteration_cycles);
  // Land whatever the hardware finished since the last serve before taking
  // new work: reaps unblock csync gates and retire parked tasks. This is the
  // scheduler-integrated reaper — FinishServe re-queues a client that still
  // has pending (possibly only parked) tasks, so the next pick lands here.
  ReapParkedDma(client, CtxNow(ctx_));
  IngestClient(client);
  ProcessSyncQueues(client);
  const uint64_t served = ExecutePending(client, max_bytes);
  ReapParkedDma(client, CtxNow(ctx_));
  if (served == 0 && !client.parked_dma.empty()) {
    // Nothing executable and nothing newly landed: only in-flight hardware
    // remains. Advance to the completions instead of spinning serve after
    // serve with the clock stuck before them (virtual time moves only by
    // charges and waits). The wait is drain time, not an execution stall —
    // the engine had no other work for this client.
    while (!client.parked_dma.empty()) {
      Cycles earliest = client.parked_dma.front().completion_time;
      for (const Client::ParkedDma& batch : client.parked_dma) {
        earliest = std::min(earliest, batch.completion_time);
      }
      WaitAndReapParked(client, earliest);
    }
    RetireDone(client);
  }
  dma_.Poll(CtxNow(ctx_));
  // Attribute CoW breaks of remap-aliased pages (the lazily materialized
  // copies) to the serving engine. Delta-sampled: the space's counter is
  // monotonic and this engine holds the client's serving claim.
  if (client.space() != nullptr) {
    const uint64_t breaks = client.space()->alias_cow_breaks();
    if (breaks > client.alias_breaks_seen) {
      stats_.remap_cow_breaks += breaks - client.alias_breaks_seen;
      client.alias_breaks_seen = breaks;
    }
  }
  stats_.serve_cycles += CtxNow(ctx_) - serve_start;
  return served;
}

void Engine::DrainClient(Client& client) {
  // Two passes may be required: executing tasks can fire KFUNCs that submit
  // more tasks (e.g. skb reclamation rarely does, but be safe) — loop until
  // no work remains.
  for (int i = 0; i < 64; ++i) {
    if (!client.HasQueuedWork()) {
      return;
    }
    ServeClient(client, UINT64_MAX);
  }
}

}  // namespace copier::core
