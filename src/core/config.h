// CopierConfig — service-wide tunables and ablation switches.
//
// The ablation switches (use_dma, enable_piggyback, enable_absorption,
// enable_atcache) exist so the breakdown experiments (Fig. 12-c, Fig. 9) can
// turn individual mechanisms off; the other enable_* flags keep the reference
// side of a differential test or bench. Defaults are the full system. Every
// field is set by some test, bench or app; a setting nothing varies is a
// constant in the code that uses it.
#ifndef COPIER_SRC_CORE_CONFIG_H_
#define COPIER_SRC_CORE_CONFIG_H_

#include <cstddef>

#include "src/common/align.h"
#include "src/common/cycle_clock.h"

namespace copier::core {

struct CopierConfig {
  // Queue geometry.
  size_t queue_capacity = 4096;         // entries per CSH queue
  size_t default_segment_size = 4096;   // descriptor granularity (§4.1)

  // Hardware usage (§4.3).
  bool use_dma = true;
  bool enable_piggyback = true;  // false: DMA used naively (submit+wait)
  bool enable_atcache = true;
  // Independent DMA channels per engine (DESIGN.md §9). 1 = the serial
  // single-channel baseline; more channels let one round's batches (and
  // chunks of one large subtask) transfer concurrently.
  size_t dma_channel_count = 4;
  // Descriptor-ring slots per channel (ring-full submissions fall back to
  // the CPU and are counted in dma_ring_full_fallbacks).
  size_t dma_ring_slots = 256;
  // Non-blocking DMA completion (DESIGN.md §9): the execution round parks
  // DMA-bound bytes in flight and returns to the scheduler instead of
  // waiting out the batch; completions are reaped on a later serve. Off =
  // the end-of-round blocking wait baseline.
  bool enable_async_dma_completion = true;

  // Global-view optimizations (§4.4).
  bool enable_absorption = true;

  // Zero-copy remap tier (DESIGN.md §11): the page-aligned, page-multiple
  // interior of an eligible user->user copy is satisfied by CoW aliasing
  // (AliasCowRange) instead of moving bytes; later writes to either side
  // materialize the copy lazily through the CoW-break path. Off = every byte
  // is physically moved (ablation / bench_remap "copy" mode).
  bool enable_remap_tier = true;

  // Fused IPC fast path (DESIGN.md §12): when the receiver of a Binder
  // transaction or loopback-socket send has already posted its landing
  // window, the two-step transfer (sender -> kernel skb/parcel buffer ->
  // receiver) collapses into one direct cross-address-space Copy Task; the
  // intermediate kernel buffers are reserved only as flow-control tokens and
  // their reclaim KFUNCs ride the fused task. Off = every posted transfer
  // takes the two-step path (ablation / bench_ipc_fuse "two-step" mode).
  bool enable_ipc_fuse = true;

  // Vectored submission: Send/Recv/Binder publish one scatter-gather Copy
  // Task per syscall (one ring transaction, one barrier check, one doorbell)
  // instead of one entry per skb. Off = the per-skb submission baseline
  // (ablation / bench_submit_batch "per-op" mode).
  bool enable_vectored_submit = true;

  // Pending-range interval index: O(log n + k) dependency resolution,
  // absorption lookup, promotion and abort matching instead of linear scans
  // over the pending list. Off = the linear-scan baseline (ablation /
  // bench_queue_depth "before" mode).
  bool enable_range_index = true;

  // Scheduling (§4.5.3).
  size_t copy_slice_bytes = 256 * kKiB;  // max copy length per scheduling pick

  // Engine pool (DESIGN.md §10): the service runs `engine_count` copier
  // instances, each owning a disjoint slice of the DMA channel pool, with
  // client home-engine affinity (id % engine_count) and cross-engine work
  // stealing. Off = exactly one engine and no cross-engine range ledger —
  // bit-for-bit the single-engine path.
  bool enable_engine_pool = true;
  // 0 = auto: one engine per service thread in threaded mode (max_threads),
  // one engine in manual mode (manual callers drive engines explicitly).
  // Threaded mode runs one thread per engine, so the pool is clamped to
  // max_threads there; raise max_threads alongside engine_count.
  size_t engine_count = 0;

  // Sharded scheduler (threaded mode): per-engine run queues with O(log n)
  // picks, event-driven runnable marking, targeted wakeups and work stealing.
  // Off = the global-mutex double-scan baseline (ablation / bench_sched
  // "linear" mode). Manual mode always uses the linear scan: manual callers
  // drive specific clients themselves and direct ring pushes (tests) never
  // issue runnable notifications.
  bool enable_sharded_scheduler = true;
  // An idle shard steals the highest-backlog runnable client from the most
  // loaded shard before sleeping. Required for full throughput when a hot
  // client hashes onto a busy shard; disable only for ablation.
  bool enable_work_stealing = true;

  // Overload admission control (DESIGN.md §13). Request submitters consult
  // CopierService::AdmitRequest before pushing a request's copy work; the
  // service tracks per-cgroup admitted-but-unfinished work and the engines'
  // DMA ring-full feedback (dma_ring_full_fallbacks escalated from "silently
  // eat it on CPU" into a signal) and applies the policy when either
  // saturates. kNone = the historical behavior: every request is admitted and
  // overload shows up only as unbounded queueing delay.
  enum class OverloadPolicy {
    kNone,      // admit everything (baseline / ablation)
    kShed,      // reject the request outright (load shedding)
    kDefer,     // ask the submitter to retry after admission_defer_cycles
    kThrottle,  // admit, but make the submitter wait out the excess backlog
  };
  OverloadPolicy overload_policy = OverloadPolicy::kNone;
  // A cgroup is overloaded when its admitted-but-unfinished work exceeds
  // either bound (bytes of copy work, or request count).
  uint64_t admission_max_inflight_bytes = 8 * kMiB;
  uint64_t admission_max_inflight_requests = 64;
  // kDefer: suggested retry-after gap, and how many retries a submitter
  // should attempt before treating the request as shed.
  Cycles admission_defer_cycles = 50'000;
  uint64_t admission_max_defer_retries = 4;

  // Service threads (§4.5.1).
  enum class PollMode {
    kNapi,            // poll continuously, back off to sleep after idle spins
    kScenarioDriven,  // run only while a scenario is active (smartphone, §5.3)
  };
  PollMode poll_mode = PollMode::kNapi;
  size_t min_threads = 1;
  size_t max_threads = 4;
  size_t idle_spins_before_sleep = 4096;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_CONFIG_H_
