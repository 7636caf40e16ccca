// Engine — the single-threaded task-processing core of the Copier service.
//
// One Engine instance backs one Copier (k)thread. A service (service.h) owns
// one or more Engines and drives them from real threads; tests and the
// virtual-time benchmark harness drive an Engine directly.
//
// Responsibilities, each mapping to a design section of the paper:
//   * Ingestion with cross-queue Barrier Tasks — order dependency (§4.2.1):
//     k-mode entries are consumed bracket-by-bracket; a BarrierEnter bounds
//     how far the u-mode queue may be drained before the bracket's tasks.
//   * Sync Task processing — task promotion / out-of-order execution (§4.1),
//     k-mode Sync Queue served before u-mode (§4.2.2), and explicit aborts
//     (§4.4).
//   * Data-dependency resolution (§4.2.2): before a byte range of a task
//     executes, conflicting ranges (RAW/WAW/WAR) of earlier pending tasks
//     execute first — except RAW producers, which layered copy absorption
//     (§4.4) reads *through* instead of executing.
//   * Hardware dispatch (§4.3): tasks split into physically contiguous
//     subtasks; large tasks i-piggyback DMA onto AVX; small adjacent tasks
//     fuse into e-piggyback rounds; segment completion times respect both
//     units' clocks.
//   * Proactive fault handling (§4.5.4): user ranges are translated, faulted
//     in and pinned before the copy; unresolvable faults drop the task, fail
//     its descriptor, and signal the process.
#ifndef COPIER_SRC_CORE_ENGINE_H_
#define COPIER_SRC_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/relaxed_counter.h"
#include "src/common/status.h"
#include "src/core/atcache.h"
#include "src/core/client.h"
#include "src/core/config.h"
#include "src/core/round_plan.h"
#include "src/hw/dma_channel_pool.h"
#include "src/hw/timing_model.h"

namespace copier::core {

class Engine;

// Overload feedback sink (DESIGN.md §13): engines report saturation events —
// today DMA ring-full doorbell bounces, the moment "silently eat it on CPU"
// becomes visible — into a service-owned instance; admission control samples
// the counter and backs off while new events keep appearing. Null pointer
// (standalone engines) = no reporting, bit-for-bit the old behavior.
struct OverloadSignals {
  RelaxedCounter ring_full_events;
};

// Cross-engine coordination surface (DESIGN.md §10). One Engine is
// single-threaded by construction; when a service runs a pool of them,
// conflicts between *clients* (shared kernel buffers, foreign-space writes)
// can span engines. The service implements these hooks over its shared range
// ledger; a null hooks pointer (standalone engines, pool disabled) makes
// every cross-engine path a no-op — bit-for-bit the single-engine behavior.
class CrossEngineHooks {
 public:
  virtual ~CrossEngineHooks() = default;

  // Service-global submission sequence, shared with the submitter-side
  // stamping (CopyTask::gseq) so ingestion-assigned fallbacks interleave
  // consistently. An allocated sequence is *outstanding* — it may still name
  // a not-yet-ingested task that will probe the ledger — until it is either
  // registered (RegisterShared) or retired (RetireGlobalSeq); tombstone
  // pruning is bounded by the minimum outstanding sequence.
  virtual uint64_t NextGlobalSeq() = 0;

  // Declares a stamped sequence dead: its task was ingested as private (will
  // never probe the ledger), dropped at validation, or never entered a ring
  // (failed push, synchronous fallback). No-op for gseq 0 (unstamped).
  virtual void RetireGlobalSeq(uint64_t gseq) = 0;

  // True while the cross-engine protocol still needs a *landed* write at
  // `gseq` kept in the writer's completed-write log: a lower-gseq task may
  // still be outstanding service-wide. Covers writes that landed before their
  // domain turned shared (never registered, so no ledger tombstone exists);
  // SettleForeign consults the claimed owner's log for exactly these.
  virtual bool LandedWriteStillNeeded(uint64_t gseq) = 0;

  // True once a client other than its owner has registered ranges in
  // `domain` (an address-space asid): own-space tasks of that domain must
  // then join the shared ledger too.
  virtual bool DomainShared(uint64_t domain) = 0;

  // Registers / unregisters the dst and src pieces of a shared-visible task
  // in the ledger. Registration happens at ingestion (AcceptTask);
  // unregistration at the Done transition (OnTaskDone). Landed writes stay
  // as tombstones for cross-client dead-write suppression until no live task
  // with a lower gseq remains.
  virtual void RegisterShared(Client& client, PendingTask& task) = 0;
  virtual void UnregisterShared(PendingTask& task) = 0;

  // Orders the window [start, start+length) of `domain`, accessed by `task`
  // (writing it when `writes`), against foreign clients' conflicting ranges:
  // executes every conflicting foreign task with a lower gseq (a targeted
  // steal run on `thief`), and imports landed foreign writes with a higher
  // gseq into `client`'s completed-write log so the engine's own dead-write
  // suppression skips those bytes. Returns kUnavailable when a foreign
  // serving claim could not be taken (the caller defers and retries).
  virtual Status SettleForeign(Engine& thief, Client& client, PendingTask& task,
                               uint64_t domain, uint64_t start, size_t length,
                               bool writes) = 0;
};

class Engine {
 public:
  // Snapshot of the engine's counters; see stats(). The live counters are
  // relaxed atomics (AtomicStats) so observers — CopierService::TotalStats,
  // benches — can read them while the owning Copier thread keeps serving.
  struct Stats {
    uint64_t tasks_ingested = 0;
    uint64_t tasks_completed = 0;
    uint64_t tasks_dropped = 0;   // proactive fault handling failures
    uint64_t tasks_aborted = 0;
    uint64_t barriers_processed = 0;
    uint64_t sync_promotions = 0;
    uint64_t bytes_copied = 0;    // bytes physically moved by this engine
    uint64_t bytes_absorbed = 0;  // bytes short-circuited past an intermediate
    uint64_t avx_bytes = 0;
    // DMA accounting is split at the submission/completion boundary so
    // observers can compute genuinely in-flight work (submitted − completed)
    // while rounds are parked (DESIGN.md §9).
    uint64_t dma_bytes_submitted = 0;
    uint64_t dma_bytes_completed = 0;
    uint64_t dma_batches_submitted = 0;
    uint64_t dma_batches_completed = 0;
    // Ring-full submissions that fell back to the CPU (the failed attempt is
    // still charged — descriptors were written before the doorbell bounced).
    uint64_t dma_ring_full_fallbacks = 0;
    // Engine-thread cycles blocked in end-of-round DMA completion waits
    // (blocking mode; ~0 with enable_async_dma_completion).
    uint64_t dma_stall_cycles = 0;
    // Cycles spent force-settling or idle-advancing past parked batches
    // (barrier/csync drains, dependency settles, end-of-work reaps).
    uint64_t dma_drain_wait_cycles = 0;
    uint64_t dma_rounds_parked = 0;  // rounds returned with DMA in flight
    // VA->PA translation charged for the DMA side of rounds (ATCache extent
    // probes and page walks, RoundPlan::translate_cycles).
    uint64_t translate_cycles = 0;
    uint64_t kfuncs_run = 0;
    // Engine cycles spent dispatching them (handler_dispatch_cycles each).
    uint64_t kfunc_cycles = 0;
    uint64_t ufuncs_queued = 0;
    uint64_t lazy_absorbed_bytes = 0;
    // Zero-copy remap tier (DESIGN.md §11). remapped_bytes count toward
    // bytes_copied (progress semantics) but not avx/dma bytes — nothing
    // physically moved. remap_cow_breaks are the lazily materialized copies
    // (sampled from the client spaces' alias-break counters).
    uint64_t remap_tasks = 0;       // exec ranges satisfied by aliasing
    uint64_t remapped_bytes = 0;    // bytes landed without moving
    uint64_t remap_cow_breaks = 0;  // post-remap write faults that broke a share
    // Fused IPC fast path (DESIGN.md §12): single-hop transfers that skipped
    // the intermediate kernel buffer. fused_ipc_bytes counts exactly the
    // bytes that landed through a fused task (each such byte would have been
    // physically moved twice on the two-step path); fuse_fallbacks sums the
    // send-time fallbacks to two-step (service-wide; filled in by
    // CopierService::TotalStats, see IpcFuseStats for the breakdown).
    uint64_t fused_ipc_tasks = 0;
    uint64_t fused_ipc_bytes = 0;
    uint64_t fuse_fallbacks = 0;
    // Engine-clock time of the most recent KFUNC dispatch (max across engines
    // in TotalStats). The serve harness differences this against the request's
    // submit time for per-request copy-use *window* attribution — first
    // submit → last kfunc — alongside end-to-end latency.
    uint64_t last_kfunc_cycles = 0;
    // Coordination-lookup observability (range index vs linear baseline).
    uint64_t dep_probes = 0;         // dependency/absorption/abort lookups issued
    uint64_t dep_tasks_scanned = 0;  // candidate tasks examined across all probes
    uint64_t index_entries = 0;      // live index entries (gauge, last-touched client)
    // Submission-path observability (vectored submission vs per-op baseline).
    uint64_t submit_entries = 0;   // copy-queue Copy entries ingested
    uint64_t submit_batches = 0;   // of those, scatter-gather (vectored) tasks
    uint64_t notify_calls = 0;     // NotifyRunnable doorbells (service-wide;
                                   // filled in by CopierService::TotalStats)
    // Engine-pool observability (DESIGN.md §10).
    uint64_t serve_cycles = 0;        // virtual cycles spent inside ServeClient
    uint64_t cross_dep_probes = 0;    // shared-ledger windows probed
    uint64_t cross_dep_settles = 0;   // foreign task ranges force-landed here
    uint64_t cross_dep_defers = 0;    // probes bounced off a held foreign client
    uint64_t cross_dep_wait_cycles = 0;  // cycles synced to foreign completions
    // Overload admission control (DESIGN.md §13; service-wide, filled in by
    // CopierService::TotalStats from the per-cgroup decision counters —
    // admitted + shed + deferred-to-death sum to the requests offered through
    // AdmitRequest).
    uint64_t admission_admitted = 0;
    uint64_t admission_shed = 0;
    uint64_t admission_deferred = 0;   // defer verdicts issued (retries count)
    uint64_t admission_throttled = 0;  // throttle verdicts issued
    uint64_t admission_throttle_cycles = 0;  // total backpressure wait imposed
    uint64_t overload_ring_backoffs = 0;     // admission back-offs from ring-full
                                             // feedback (service-wide, TotalStats)
  };

  // Standalone engine: owns a private DMA channel pool (tests, single-engine
  // harnesses).
  Engine(const CopierConfig& config, const hw::TimingModel* timing, ExecContext* ctx);
  // Pool member: operates a slice of a service-owned channel pool (disjoint
  // per engine, so channel state stays single-threaded).
  Engine(const CopierConfig& config, const hw::TimingModel* timing, ExecContext* ctx,
         hw::DmaChannelSlice dma);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Serves one client: drains sync queues, ingests copy queues, executes up
  // to `max_bytes` of pending work (a copy slice, §4.5.3). Returns the bytes
  // of copy length served (the scheduler's resource unit, §4.5.2).
  uint64_t ServeClient(Client& client, uint64_t max_bytes);

  // Runs until the client has no queued or pending work (csync_all, tests).
  void DrainClient(Client& client);

  // Executes the pending ranges needed to make [addr, addr+length) ready —
  // the service-side reaction to a Sync Task (also used directly in
  // single-threaded mode when csync finds segments unready).
  void PromoteRange(Client& client, const MemRef& addr, size_t length);

  // Cross-engine targeted steal (DESIGN.md §10): force-lands every live task
  // of `client` with gseq < `gseq_bound` whose dst or src pieces overlap
  // [start, start+length) of `domain`. Runs on *this* (the thief) engine
  // while the caller holds the client's serving claim; never retires pending
  // entries — the owner may be mid-iteration over them up-stack.
  Status SettleSharedRange(Client& client, uint64_t domain, uint64_t start, size_t length,
                           uint64_t gseq_bound);

  // Installs the service's cross-engine coordination hooks (null = disabled).
  void set_cross(CrossEngineHooks* cross) { cross_ = cross; }
  // Installs the service's overload feedback sink (null = no reporting).
  // Unlike set_cross this is installed on every engine regardless of pool
  // mode: reporting a counter has no behavioral side effects.
  void set_overload_signals(OverloadSignals* signals) { overload_ = signals; }

  ExecContext* ctx() { return ctx_; }
  ATCache& atcache() { return atcache_; }
  hw::DmaChannelSlice& dma() { return dma_; }
  // Coherent snapshot of the counters, safe from any thread.
  Stats stats() const;
  const CopierConfig& config() const { return config_; }

 private:
  // Planner/executor parity probe (tests/ipc_fuse_test.cc).
  friend class EngineRoundProbe;

  // --- ingestion --------------------------------------------------------------
  void IngestClient(Client& client);
  void IngestPair(Client& client, QueuePair& pair);
  void AcceptTask(Client& client, QueuePair& pair, CopyTask task, bool kernel_mode);
  void ProcessSyncQueues(Client& client);
  void HandleSyncTask(Client& client, const SyncTask& sync);
  // Applies abort requests whose dependents have drained (§4.4).
  void ApplyDeferredAborts(Client& client);

  // --- execution ---------------------------------------------------------------
  uint64_t ExecutePending(Client& client, uint64_t budget);
  // Executes [offset, offset+length) of `task` (clipped to unfinished
  // segments), resolving dependencies first. Depth guards recursion.
  // `must_land` is the barrier-drain rule (DESIGN.md §9): promotion/csync and
  // dependency-resolution calls force any overlapping dma-in-flight bytes to
  // settle; plain FIFO passes skip them instead (they land via the reaper).
  Status ExecuteTaskRange(Client& client, PendingTask& task, size_t offset, size_t length,
                          int depth, bool must_land);
  Status ResolveDependencies(Client& client, PendingTask& task, size_t offset, size_t length,
                             int depth);
  // Physically copies [offset, offset+length) of the task (sources resolved
  // through layered absorption) and marks progress.
  Status CopyRange(Client& client, PendingTask& task, size_t offset, size_t length, int depth);

  // Layered absorption (§4.4): maps [src_offset, +length) of `task`'s source
  // onto the memory that holds the *latest* data, possibly through chains of
  // earlier pending tasks. Appends (ref, length) pieces to `out`.
  struct SourcePiece {
    MemRef ref;
    size_t length = 0;
    bool absorbed = false;  // read through an unexecuted producer
  };
  void ResolveSources(Client& client, PendingTask& task, size_t src_offset, size_t length,
                      int depth, std::vector<SourcePiece>* out);
  // Absorption worker for one contiguous source piece (`src` is a piece of
  // `task`'s source side covering `length` bytes).
  void ResolveSourcesContig(Client& client, PendingTask& task, const MemRef& src, size_t length,
                            int depth, std::vector<SourcePiece>* out);

  // --- hardware dispatch (§4.3) -------------------------------------------------
  struct HostRun {
    uint8_t* host = nullptr;
    size_t length = 0;
  };
  // One lookup behind a resolved user run — an ATCache extent probe or a page
  // walk — covering the run's bytes up to `end`; `cycles` is what DMA owes
  // for it. Ids are unique per engine (SideTranslation).
  struct RunLookup {
    size_t end = 0;
    Cycles cycles = 0;
    uint64_t id = 0;
  };
  // Longest host-contiguous run at `ref`, at most `max_length` bytes
  // (proactively faulting user pages); `*lookups` receives the lookups that
  // resolved it (none for kernel memory).
  StatusOr<HostRun> ResolveHostRun(const MemRef& ref, size_t max_length, bool for_write,
                                   std::vector<RunLookup>* lookups);
  // The lookups of a resolved run (ascending `end`) that run bytes
  // [at, at + length) rely on.
  SideTranslation TranslationOf(const std::vector<RunLookup>& lookups, size_t at,
                                size_t length) const;
  // Builds physically contiguous subtasks for [offset, offset+length) of the
  // task given resolved source pieces; pins user pages (proactive faults).
  Status BuildSubtasks(Client& client, PendingTask& task, size_t offset,
                       const std::vector<SourcePiece>& sources, std::vector<Subtask>* out);
  // Executes the round PlanRound plans over the subtasks; marks progress per
  // owner.
  void ExecuteRound(Client& client, std::vector<Subtask>& subtasks);

  // Resolves `va` to a host pointer and the host-contiguous bytes that follow
  // it: one ATCache extent on a hit, else the rest of `va`'s page, walked
  // with proactive fault handling and cached. `*lookup` gets the DMA price.
  StatusOr<HostRun> ResolveUserSpan(simos::AddressSpace* space, uint64_t va, bool for_write,
                                    Cycles* lookup);

  // --- zero-copy remap tier (DESIGN.md §11) -----------------------------------
  // Eligibility of task-local [start, end): a non-SG user->user copy whose
  // sides are page-co-aligned with a page-multiple interior of at least
  // kMinRemapPages pages. A fused IPC task additionally needs the alias to
  // beat the planned copy round (PlanRound) of that interior. On success
  // *rs/*re bound the aliasable interior.
  bool RemapCandidate(const PendingTask& task, size_t start, size_t end, size_t* rs,
                      size_t* re) const;
  // True when the resolved `sources` (covering task-local [start, ...)) back
  // [rs, re) directly from the task's own source range — absorbed pieces read
  // through producers whose data is *not* at the source, so they must copy.
  static bool RemapSourcesPlain(const PendingTask& task, const std::vector<SourcePiece>& sources,
                                size_t start, size_t rs, size_t re);
  // Aliases the interior instead of copying and marks it complete for
  // ordering. Returns false (leaving no partial alias) to fall back to the
  // physical copy path.
  bool TryRemapRange(Client& client, PendingTask& task, size_t rs, size_t re);

  // Security checks (§4.5.4): u-mode tasks may only touch their own space.
  Status ValidateTask(Client& client, const CopyTask& task, bool kernel_mode) const;

  // --- asynchronous DMA completion (DESIGN.md §9) -----------------------------
  // Lands every parked batch whose completion time has passed: marks progress
  // at the batch's completion time, fires completions, frees the parked
  // ranges. Returns the bytes landed.
  uint64_t ReapParkedDma(Client& client, Cycles now);
  // Forces the parked batches holding bytes of `task` overlapping task-local
  // [offset, offset+length) to land, advancing the clock to their completion
  // (the barrier-drain rule: conflicting or synchronizing accesses may not
  // proceed past in-flight hardware).
  void SettleParkedRange(Client& client, PendingTask& task, size_t offset, size_t length);
  void SettleTaskParked(Client& client, PendingTask& task) {
    SettleParkedRange(client, task, 0, task.task.length);
  }
  // Advances the clock to `until` — charged as drain wait, not an execution
  // stall — and lands every parked batch completed by then.
  void WaitAndReapParked(Client& client, Cycles until);
  void MarkProgress(Client& client, PendingTask& task, size_t offset, size_t length,
                    Cycles when);
  // Fires the task's handler once every earlier task of the client has fired
  // its own (HasEarlierUnfired) — the one completion-ordering rule (DESIGN.md
  // §9). Otherwise the task stays done-but-unfired, and the completion of its
  // blocking predecessor cascades it (FireDeferredSuccessors). Every path —
  // FIFO passes, reaps, promotion, dependency resolution, cross-engine
  // settles (DESIGN.md §10), remap aliases (§11) — goes through this gate, so
  // KFUNC order does not depend on the tier, the DMA completion mode or the
  // engine-pool size.
  void CompleteTask(Client& client, PendingTask& task);
  bool HasEarlierUnfired(const Client& client, uint64_t order) const;
  // Fires the done-but-unfired prefix of the pending list in task order, then
  // the landed segment prefix of the first unfired, incomplete task. Every
  // completion, drop and reap ends with it.
  void FireDeferredSuccessors(Client& client);
  void DropTask(Client& client, PendingTask& task, const Status& reason);
  void RetireDone(Client& client);

  // Finds the latest-ordered unfinished earlier task writing the memory at
  // `ref` (the absorption producer). On a hit, *overlap_offset/*overlap_length
  // describe the overlap within [ref, ref+length) and *producer_local is the
  // producer-local byte offset of the overlap's first byte (piece-aware: for
  // a scatter-gather producer this maps through its segment list).
  PendingTask* FindProducer(Client& client, const PendingTask& task, const MemRef& ref,
                            size_t length, size_t* overlap_offset, size_t* overlap_length,
                            size_t* producer_local);

  // Scatter-gather segment accounting: credits bytes landing at task-local
  // [offset, offset+length) against the segments they overlap (found through
  // PendingTask::sg_ends, so each landing visits only those) and fires each
  // segment's KFUNC exactly once when its remaining byte count hits zero and
  // no earlier task is unfired.
  void CreditSgSegments(Client& client, PendingTask& task, size_t offset, size_t length);
  // Fires the longest fully-credited segment prefix, in segment order.
  void FireReadySgSegments(PendingTask& task);
  // Fires every still-unfired segment KFUNC (task completion / abort — the
  // kernel buffers must be reclaimed exactly as the per-op path would).
  void FireRemainingSgSegments(PendingTask& task);

  // --- pending-range interval index maintenance and fused-path probes ---
  void IndexInsert(Client& client, PendingTask& task);
  void IndexErase(Client& client, PendingTask& task);
  // Done transition: drops the task's index entries and logs its destination
  // in client.completed_writes (non-aborted tasks), exactly once per task.
  void OnTaskDone(Client& client, PendingTask& task);
  // True when any live pending task other than `self` has a data dependency
  // (RAW/WAW/WAR, either direction) with `self`'s ranges (e-piggyback gate).
  bool HasAnyConflict(Client& client, const PendingTask& self);
  // True when an unfinished earlier-ordered task writes bytes `reader`'s
  // source names (a live RAW producer — such tasks need the ordered path).
  bool HasEarlierLiveWriter(Client& client, const PendingTask& reader);

  // --- cross-engine coordination (DESIGN.md §10) ------------------------------
  // True when any piece of the task can overlap another client's ranges
  // (kernel host memory, a foreign space, or a domain with foreign activity).
  bool TaskIsSharedVisible(Client& client, const PendingTask& task) const;
  // Probes the shared ledger for the dst (and src) windows of task-local
  // [offset, offset+length): settles conflicting lower-gseq foreign work,
  // imports higher-gseq landed foreign writes. kUnavailable = defer.
  Status CrossSettle(Client& client, PendingTask& task, size_t offset, size_t length);
  // True when every byte of task-local [offset, offset+length) has landed
  // (progress-descriptor check; lets settle paths skip no-op executions
  // without charging the clock).
  bool RangeLanded(const PendingTask& task, size_t offset, size_t length) const;

  // Live counters: field-for-field atomic mirror of Stats (same names, so
  // counting sites read like plain integer code).
  struct AtomicStats {
    RelaxedCounter tasks_ingested;
    RelaxedCounter tasks_completed;
    RelaxedCounter tasks_dropped;
    RelaxedCounter tasks_aborted;
    RelaxedCounter barriers_processed;
    RelaxedCounter sync_promotions;
    RelaxedCounter bytes_copied;
    RelaxedCounter bytes_absorbed;
    RelaxedCounter avx_bytes;
    RelaxedCounter dma_bytes_submitted;
    RelaxedCounter dma_bytes_completed;
    RelaxedCounter dma_batches_submitted;
    RelaxedCounter dma_batches_completed;
    RelaxedCounter dma_ring_full_fallbacks;
    RelaxedCounter dma_stall_cycles;
    RelaxedCounter dma_drain_wait_cycles;
    RelaxedCounter dma_rounds_parked;
    RelaxedCounter translate_cycles;
    RelaxedCounter kfuncs_run;
    RelaxedCounter kfunc_cycles;
    RelaxedCounter ufuncs_queued;
    RelaxedCounter lazy_absorbed_bytes;
    RelaxedCounter remap_tasks;
    RelaxedCounter remapped_bytes;
    RelaxedCounter remap_cow_breaks;
    RelaxedCounter fused_ipc_tasks;
    RelaxedCounter fused_ipc_bytes;
    RelaxedCounter dep_probes;
    RelaxedCounter dep_tasks_scanned;
    RelaxedCounter index_entries;
    RelaxedCounter submit_entries;
    RelaxedCounter submit_batches;
    RelaxedCounter serve_cycles;
    RelaxedCounter cross_dep_probes;
    RelaxedCounter cross_dep_settles;
    RelaxedCounter cross_dep_defers;
    RelaxedCounter cross_dep_wait_cycles;
    // Monotonic max, not a counter: single writer (the engine thread), so a
    // relaxed load-compare-store suffices.
    std::atomic<uint64_t> last_kfunc_cycles{0};
  };

  // Fires one KFUNC: charges its dispatch, runs it stamped with the engine
  // clock after the charge — the time it actually runs, not when the bytes it
  // retires landed — and counts it.
  void RunKfunc(const std::function<void(Cycles)>& fn);
  void NoteKfuncTime(Cycles when) {
    if (when > stats_.last_kfunc_cycles.load(std::memory_order_relaxed)) {
      stats_.last_kfunc_cycles.store(when, std::memory_order_relaxed);
    }
  }

  const CopierConfig& config_;
  const hw::TimingModel* timing_;
  ExecContext* ctx_;
  ATCache atcache_;
  uint64_t next_lookup_id_ = 1;  // RunLookup ids; 0 is never shared
  // Channel state: a standalone engine owns its pool; a pool-member engine
  // views a disjoint slice of the service's pool. Either way `dma_` is the
  // single access path.
  std::unique_ptr<hw::DmaChannelPool> own_dma_;
  hw::DmaChannelSlice dma_;
  CrossEngineHooks* cross_ = nullptr;
  OverloadSignals* overload_ = nullptr;
  AtomicStats stats_;
  // The pair whose tasks are currently being accepted (handler routing).
  QueuePair* current_pair_ = nullptr;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_ENGINE_H_
