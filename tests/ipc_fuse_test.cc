// Fused IPC fast path (DESIGN.md §12): posted-receive transfers must be
// byte-identical — with identical KFUNC order — whether they take the fused
// single-hop task or the two-step staged path (enable_ipc_fuse ablation),
// and every rung of the fallback ladder must degrade losslessly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "src/apps/miniproxy.h"
#include "src/apps/parcel.h"
#include "src/simos/binder.h"
#include "tests/test_util.h"

namespace copier::core {

// Runs every task a client has queued as ONE execution round, exactly as
// CopyRange hands a round to the executor, reaps its parked batches as an
// otherwise idle engine does, and reports the planner's price next to what
// the executor did.
class EngineRoundProbe {
 public:
  struct Landing {
    size_t task_offset = 0;  // the batch's first byte
    Cycles completion = 0;
  };
  struct Result {
    RoundPlan plan;
    Cycles start = 0;        // engine clock when the round began
    Cycles last_landed = 0;  // when the round's last byte landed
    Cycles engine_free = 0;  // when the last reap (and its KFUNCs) finished
    uint64_t parked_bytes = 0;
    std::vector<Landing> landings;  // parked batches, in submission order
  };

  static Result RunQueuedAsOneRound(Engine& engine, Client& client) {
    engine.IngestClient(client);
    std::vector<Subtask> subtasks;
    for (const auto& task : client.pending) {
      std::vector<Engine::SourcePiece> sources;
      engine.ResolveSources(client, *task, 0, task->task.length, 0, &sources);
      EXPECT_TRUE(engine.BuildSubtasks(client, *task, 0, sources, &subtasks).ok());
    }
    Result r;
    r.plan = PlanRound(*engine.timing_, engine.config_, subtasks, engine.dma_.channel_count());
    r.start = engine.ctx()->now();
    engine.ExecuteRound(client, subtasks);
    // CPU-side bytes land as the copies finish; parked batches at their
    // channel's completion time.
    r.last_landed = engine.ctx()->now();
    for (const Client::ParkedDma& batch : client.parked_dma) {
      r.last_landed = std::max(r.last_landed, batch.completion_time);
      r.parked_bytes += batch.bytes;
      r.landings.push_back({batch.segs.front().offset, batch.completion_time});
    }
    // Reap each batch once it has landed, waiting when nothing has.
    while (!client.parked_dma.empty()) {
      Cycles earliest = client.parked_dma.front().completion_time;
      for (const Client::ParkedDma& batch : client.parked_dma) {
        earliest = std::min(earliest, batch.completion_time);
      }
      engine.ctx()->WaitUntil(earliest);
      engine.ReapParkedDma(client, engine.ctx()->now());
    }
    r.engine_free = engine.ctx()->now();
    // Tasks the CPU side landed complete through the same cascade a reap
    // ends with.
    engine.FireDeferredSuccessors(client);
    return r;
  }
};

}  // namespace copier::core

namespace copier::test {
namespace {

// --- socket differential -----------------------------------------------------

struct PostedRunResult {
  std::vector<uint8_t> image;
  uint64_t kfuncs_run = 0;
  std::vector<uint32_t> probe;  // skb ids in KFUNC firing order
  uint64_t fused_ipc_tasks = 0;
  uint64_t fused_ipc_bytes = 0;
  core::CopierService::IpcFuseStats fuse = {};
};

PostedRunResult RunPostedSocketWorkload(bool fuse, size_t n) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const uint64_t src = stack.Map(n, "src");
  FillPattern(stack.proc->mem(), src, n, 7001 + n);
  auto dst_or = peer->mem().MapAnonymous(n, "win", true);
  EXPECT_TRUE(dst_or.ok());

  PostedRunResult result;
  stack.kernel->SetKfuncProbe([&](uint32_t id) { result.probe.push_back(id); });

  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  auto staged = stack.kernel->PostRecv(*peer, rx, *dst_or, n, nullptr, ropts);
  EXPECT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(*staged, 0u);  // nothing queued yet

  size_t sent_total = 0;
  for (int iter = 0; iter < 1000 && sent_total < n; ++iter) {
    auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, n - sent_total, nullptr);
    EXPECT_TRUE(sent.ok()) << sent.status().ToString();
    if (!sent.ok()) {
      break;
    }
    sent_total += *sent;
    stack.service->DrainAll();
  }
  EXPECT_EQ(sent_total, n);
  EXPECT_TRUE(
      core::WaitDescriptor(descriptor, 0, n, nullptr, [&] { stack.service->DrainAll(); })
          .ok());
  auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  EXPECT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);

  result.image = ReadAll(peer->mem(), *dst_or, n);
  const core::Engine::Stats stats = stack.service->TotalStats();
  result.kfuncs_run = stats.kfuncs_run;
  result.fused_ipc_tasks = stats.fused_ipc_tasks;
  result.fused_ipc_bytes = stats.fused_ipc_bytes;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

class PostedSocketDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(PostedSocketDifferential, FusedMatchesTwoStep) {
  const size_t n = GetParam();
  const PostedRunResult fused = RunPostedSocketWorkload(/*fuse=*/true, n);
  const PostedRunResult two_step = RunPostedSocketWorkload(/*fuse=*/false, n);

  // Byte identity: the modes differ in how many times the bytes move, never
  // in what lands in the window.
  ASSERT_EQ(fused.image.size(), two_step.image.size());
  EXPECT_EQ(fused.image, two_step.image);

  // KFUNC parity: the fused task's per-chunk reclaim handlers replace the
  // drain's per-skb handlers one for one, in the same order.
  EXPECT_EQ(fused.kfuncs_run, two_step.kfuncs_run);
  EXPECT_GT(fused.kfuncs_run, 0u);
  EXPECT_EQ(fused.probe, two_step.probe);

  // fused_ipc_bytes is exact: every payload byte went through a fused task in
  // fuse mode, none in the ablation.
  EXPECT_EQ(fused.fused_ipc_bytes, n);
  EXPECT_GE(fused.fused_ipc_tasks, 1u);
  EXPECT_GE(fused.fuse.fused, 1u);
  EXPECT_EQ(fused.fuse.fallbacks(), 0u);
  EXPECT_EQ(two_step.fused_ipc_bytes, 0u);
  EXPECT_EQ(two_step.fused_ipc_tasks, 0u);
  EXPECT_EQ(two_step.fuse.fused, 0u);
  EXPECT_EQ(two_step.fuse.fallbacks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PostedSocketDifferential,
                         ::testing::Values(4 * kKiB, 40 * kKiB + 123, 1 * kMiB));

// --- binder differential -----------------------------------------------------

struct BinderRunResult {
  std::vector<uint8_t> image;
  uint64_t kfuncs_run = 0;
  uint64_t fused_ipc_bytes = 0;
  core::CopierService::IpcFuseStats fuse = {};
};

BinderRunResult RunPostedBinderWorkload(bool fuse, size_t n) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* server = stack.kernel->CreateProcess("server");
  stack.service->AttachProcess(server);
  simos::BinderDriver binder(stack.kernel.get());

  const uint64_t msg = stack.Map(n, "msg");
  FillPattern(stack.proc->mem(), msg, n, 41);
  auto win_or = server->mem().MapAnonymous(n, "win", true);
  EXPECT_TRUE(win_or.ok());

  core::Descriptor descriptor(n);
  EXPECT_TRUE(binder.PostReceive(*server, *win_or, n, &descriptor, nullptr).ok());
  auto txn = binder.Transact(*stack.proc, msg, n, nullptr);
  EXPECT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_TRUE(txn->in_window);
  EXPECT_EQ(txn->window_va, *win_or);
  EXPECT_TRUE(
      core::WaitDescriptor(descriptor, 0, n, nullptr, [&] { stack.service->DrainAll(); })
          .ok());
  binder.Release(txn->id);

  BinderRunResult result;
  result.image = ReadAll(server->mem(), *win_or, n);
  const core::Engine::Stats stats = stack.service->TotalStats();
  result.kfuncs_run = stats.kfuncs_run;
  result.fused_ipc_bytes = stats.fused_ipc_bytes;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

TEST(BinderPostedDifferential, FusedMatchesTwoStep) {
  const size_t n = 192 * kKiB + 257;
  const BinderRunResult fused = RunPostedBinderWorkload(/*fuse=*/true, n);
  const BinderRunResult two_step = RunPostedBinderWorkload(/*fuse=*/false, n);

  EXPECT_EQ(fused.image, two_step.image);
  // Both posted paths fire exactly one buffer-reclaim KFUNC.
  EXPECT_EQ(fused.kfuncs_run, 1u);
  EXPECT_EQ(two_step.kfuncs_run, 1u);
  EXPECT_EQ(fused.fused_ipc_bytes, n);
  EXPECT_EQ(fused.fuse.fused, 1u);
  EXPECT_EQ(two_step.fused_ipc_bytes, 0u);
  EXPECT_EQ(two_step.fuse.fused + two_step.fuse.fallbacks(), 0u);
}

TEST(BinderPosted, TooSmallWindowFallsBackAndStaysPosted) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* server = stack.kernel->CreateProcess("server");
  stack.service->AttachProcess(server);
  simos::BinderDriver binder(stack.kernel.get());

  const size_t n = 8 * kKiB;
  const uint64_t msg = stack.Map(n, "msg");
  FillPattern(stack.proc->mem(), msg, n, 5);
  auto win_or = server->mem().MapAnonymous(kPageSize, "win", true);
  ASSERT_TRUE(win_or.ok());
  ASSERT_TRUE(binder.PostReceive(*server, *win_or, kPageSize, nullptr, nullptr).ok());

  // Payload exceeds the window: classic buffer bounce, window left posted.
  auto txn = binder.Transact(*stack.proc, msg, n, nullptr);
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_FALSE(txn->in_window);
  stack.service->DrainAll();
  EXPECT_EQ(std::vector<uint8_t>(txn->data, txn->data + n), ReadAll(stack.proc->mem(), msg, n));
  binder.Release(txn->id);
  EXPECT_EQ(stack.service->ipc_fuse_stats().fallback_window_full, 1u);

  // A fitting transaction still takes the posted path.
  auto txn2 = binder.Transact(*stack.proc, msg, kPageSize, nullptr);
  ASSERT_TRUE(txn2.ok());
  EXPECT_TRUE(txn2->in_window);
  stack.service->DrainAll();
  EXPECT_EQ(ReadAll(server->mem(), *win_or, kPageSize),
            ReadAll(stack.proc->mem(), msg, kPageSize));
  binder.Release(txn2->id);
}

// --- fallback ladder edges ---------------------------------------------------

// Receiver posts its window mid-stream: bytes sent before the post are staged
// into the window ahead of the fused bytes, preserving stream order.
TEST(IpcFuseFallback, ReceiverPostsMidStream) {
  for (const bool fuse : {true, false}) {
    core::CopierConfig config;
    config.enable_ipc_fuse = fuse;
    CopierStack stack(config);
    simos::Process* peer = stack.kernel->CreateProcess("peer");
    stack.service->AttachProcess(peer);
    auto [tx, rx] = stack.kernel->CreateSocketPair();

    const size_t first = 24 * kKiB + 100;
    const size_t second = 32 * kKiB + 11;
    const size_t n = first + second;
    const uint64_t src = stack.Map(n, "src");
    FillPattern(stack.proc->mem(), src, n, 99);
    auto win_or = peer->mem().MapAnonymous(n, "win", true);
    ASSERT_TRUE(win_or.ok());

    // Classic send (no window posted yet), delivered before the post.
    auto s1 = stack.kernel->Send(*stack.proc, tx, src, first, nullptr);
    ASSERT_TRUE(s1.ok());
    ASSERT_EQ(*s1, first);
    stack.service->DrainAll();

    // The post stages the queued bytes into the window front.
    core::Descriptor descriptor(n);
    simos::RecvOptions ropts;
    ropts.descriptor = &descriptor;
    auto staged = stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, ropts);
    ASSERT_TRUE(staged.ok()) << staged.status().ToString();
    EXPECT_EQ(*staged, first);

    // The rest goes fused (or posted two-step in the ablation), behind it.
    auto s2 = stack.kernel->Send(*stack.proc, tx, src + first, second, nullptr);
    ASSERT_TRUE(s2.ok());
    ASSERT_EQ(*s2, second);
    ASSERT_TRUE(
        core::WaitDescriptor(descriptor, 0, n, nullptr, [&] { stack.service->DrainAll(); })
            .ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, n);
    EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), ReadAll(stack.proc->mem(), src, n));
    if (fuse) {
      const auto fuse_stats = stack.service->ipc_fuse_stats();
      EXPECT_EQ(fuse_stats.fused, 1u);
      EXPECT_EQ(fuse_stats.fallback_not_posted, 1u);  // the pre-post send
      EXPECT_EQ(stack.service->TotalStats().fused_ipc_bytes, second);
    }
  }
}

// Skb pool exhausted while staged bytes hold every token: the posted send
// reports ResourceExhausted (counted as a pool-exhaustion fallback, distinct
// from not-posted) and succeeds once reclaim KFUNCs refill the pool.
TEST(IpcFuseFallback, PoolExhaustedDuringStagedDrain) {
  simos::SimKernel::Config kconfig;
  kconfig.skb_pool_size = 4;  // 16 KiB of skbs
  simos::SimKernel kernel(kconfig);
  core::CopierService::Options options;
  options.config.enable_ipc_fuse = true;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();
  simos::Process* sender = kernel.CreateProcess("sender");
  simos::Process* receiver = kernel.CreateProcess("receiver");
  service.AttachProcess(sender);
  service.AttachProcess(receiver);
  auto [tx, rx] = kernel.CreateSocketPair();

  const size_t half = 4 * simos::kMtu;  // exactly the pool
  const size_t n = 2 * half;
  auto src_or = sender->mem().MapAnonymous(n, "src", true);
  auto win_or = receiver->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(src_or.ok() && win_or.ok());
  FillPattern(sender->mem(), *src_or, n, 3);

  // Classic send takes the whole pool; deliver the skbs to the peer.
  auto s1 = kernel.Send(*sender, tx, *src_or, half, nullptr);
  ASSERT_TRUE(s1.ok());
  ASSERT_EQ(*s1, half);
  service.DrainAll();

  // Post the window: the queued skbs are staged into it, but their reclaim
  // KFUNCs have not run yet — the pool is still empty.
  auto staged = kernel.PostRecv(*receiver, rx, *win_or, n, nullptr, {});
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(*staged, half);
  EXPECT_EQ(kernel.skb_pool().available(), 0u);

  auto blocked = kernel.Send(*sender, tx, *src_or + half, half, nullptr);
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.ipc_fuse_stats().fallback_pool_exhausted, 1u);
  EXPECT_EQ(service.ipc_fuse_stats().fallback_not_posted, 1u);  // pre-post send
  // Satellite: the pool's own stats tell exhaustion pressure apart.
  EXPECT_GE(kernel.skb_pool().acquire_failures(), 1u);
  EXPECT_EQ(kernel.skb_pool().low_watermark(), 0u);

  // Reclaims refill the pool; the retry goes fused.
  service.DrainAll();
  EXPECT_EQ(kernel.skb_pool().available(), 4u);
  auto s2 = kernel.Send(*sender, tx, *src_or + half, half, nullptr);
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(*s2, half);
  service.DrainAll();
  EXPECT_EQ(service.ipc_fuse_stats().fused, 1u);
  auto filled = kernel.CompleteRecv(*receiver, rx, nullptr);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);
  EXPECT_EQ(ReadAll(receiver->mem(), *win_or, n), ReadAll(sender->mem(), *src_or, n));
}

// Aborting a fused task in flight reclaims every flow-control token and the
// sender's write lock, and never marks the window descriptor ready.
TEST(IpcFuseFallback, AbortInFlightFusedTask) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t n = 16 * kKiB;  // 4 chunks
  const uint64_t src = stack.Map(n, "src");
  FillPattern(stack.proc->mem(), src, n, 77);
  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());
  const std::vector<uint8_t> before = ReadAll(peer->mem(), *win_or, n);

  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, ropts).ok());
  const size_t pool_full = stack.kernel->skb_pool().available();
  auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, n);
  ASSERT_EQ(stack.service->ipc_fuse_stats().fused, 1u);
  EXPECT_TRUE(stack.proc->mem().WriteLockedForCopy(src, n));

  // Abort the in-flight fused task (it rides the sender's client; its dst is
  // the receiver's window).
  core::SyncTask sync;
  sync.kind = core::SyncTask::Kind::kAbort;
  sync.addr = core::MemRef::User(&peer->mem(), *win_or);
  sync.length = n;
  ASSERT_TRUE(stack.client->default_pair().user.sync_q.TryPush(std::move(sync)));
  stack.service->DrainAll();

  // Tokens returned by the fired reclaim handlers; source lock released; no
  // bytes moved, no fused bytes counted.
  EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
  EXPECT_FALSE(stack.proc->mem().WriteLockedForCopy(src, n));
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), before);
  EXPECT_EQ(stack.service->TotalStats().fused_ipc_bytes, 0u);
  // The sender can write its buffer again without blocking.
  FillPattern(stack.proc->mem(), src, n, 78);
}

// Alternating posted and classic transfers on one socket keep stream order in
// both modes.
TEST(IpcFuseFallback, MixedFusedAndClassicOrdering) {
  std::vector<uint8_t> images[2];
  for (const bool fuse : {true, false}) {
    core::CopierConfig config;
    config.enable_ipc_fuse = fuse;
    CopierStack stack(config);
    simos::Process* peer = stack.kernel->CreateProcess("peer");
    stack.service->AttachProcess(peer);
    auto [tx, rx] = stack.kernel->CreateSocketPair();

    const size_t chunk = 12 * kKiB + 34;
    const int rounds = 4;
    const size_t n = chunk * rounds;
    const uint64_t src = stack.Map(n, "src");
    FillPattern(stack.proc->mem(), src, n, 1234);
    auto dst_or = peer->mem().MapAnonymous(n, "dst", true);
    ASSERT_TRUE(dst_or.ok());

    for (int r = 0; r < rounds; ++r) {
      const uint64_t s = src + r * chunk;
      const uint64_t d = *dst_or + r * chunk;
      if (r % 2 == 0) {
        // Posted round.
        ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, d, chunk, nullptr, {}).ok());
        size_t sent_total = 0;
        while (sent_total < chunk) {
          auto sent = stack.kernel->Send(*stack.proc, tx, s + sent_total, chunk - sent_total,
                                         nullptr);
          ASSERT_TRUE(sent.ok());
          sent_total += *sent;
          stack.service->DrainAll();
        }
        auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
        ASSERT_TRUE(filled.ok());
        ASSERT_EQ(*filled, chunk);
      } else {
        // Classic round.
        size_t sent_total = 0;
        while (sent_total < chunk) {
          auto sent = stack.kernel->Send(*stack.proc, tx, s + sent_total, chunk - sent_total,
                                         nullptr);
          ASSERT_TRUE(sent.ok());
          sent_total += *sent;
          stack.service->DrainAll();
        }
        size_t received = 0;
        while (received < chunk) {
          auto got = stack.kernel->Recv(*peer, rx, d + received, chunk - received, nullptr);
          ASSERT_TRUE(got.ok());
          received += *got;
          stack.service->DrainAll();
        }
      }
    }
    images[fuse ? 0 : 1] = ReadAll(peer->mem(), *dst_or, n);
    EXPECT_EQ(images[fuse ? 0 : 1], ReadAll(stack.proc->mem(), src, n));
  }
  EXPECT_EQ(images[0], images[1]);
}

TEST(IpcFuse, RecvRejectedWhileWindowPosted) {
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  (void)tx;
  auto win_or = peer->mem().MapAnonymous(2 * kPageSize, "win", true);
  ASSERT_TRUE(win_or.ok());
  ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, kPageSize, nullptr, {}).ok());
  auto r = stack.kernel->Recv(*peer, rx, *win_or, kPageSize, nullptr);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // A second post extends the receive ring.
  ASSERT_TRUE(
      stack.kernel->PostRecv(*peer, rx, *win_or + kPageSize, kPageSize, nullptr, {}).ok());
  for (int i = 0; i < 2; ++i) {
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, 0u);
  }
  // With both windows reaped, Recv works again (EAGAIN on empty).
  EXPECT_EQ(stack.kernel->Recv(*peer, rx, *win_or, kPageSize, nullptr).status().code(),
            StatusCode::kUnavailable);
}

// PostRecv and PostReceive post the one-window ring: on twin stacks, posting
// the same window through the single call and through the ring call returns
// the same, charges the receiver the same, counts the same ring windows and
// lands the same bytes. Each pair runs with stream bytes already queued when
// the window is posted (for Binder: a buffer-path transaction still held)
// and with a window already posted in front of it.
constexpr size_t kFrontWindow = 6 * kKiB + 40;
constexpr size_t kPostedWindow = 20 * kKiB + 123;

struct OnePostResult {
  StatusCode code = StatusCode::kOk;
  size_t staged = 0;     // bytes the post drained into the window (sockets)
  Cycles rx_clock = 0;   // receiver clock right after the post
  uint64_t ring_windows_posted = 0;
  std::vector<uint8_t> landed;    // every posted window, front first
  std::vector<uint8_t> expected;  // the sender's bytes for those windows
};

OnePostResult PostSocketWindowOnce(bool ring, bool queued, bool behind) {
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  const size_t front = behind ? kFrontWindow : 0;
  const size_t total = front + kPostedWindow;
  const uint64_t src = stack.Map(total, "src");
  FillPattern(stack.proc->mem(), src, total, 0x0DE + total);
  auto win_or = peer->mem().MapAnonymous(total, "win", true);
  EXPECT_TRUE(win_or.ok());
  ExecContext rx_ctx("rx");

  size_t sent_total = 0;
  const auto send_until = [&](size_t until) {
    while (sent_total < until) {
      auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, until - sent_total,
                                     nullptr);
      ASSERT_TRUE(sent.ok()) << sent.status().ToString();
      sent_total += *sent;
      stack.service->DrainAll();
    }
  };
  if (queued) {
    send_until(front + kPostedWindow / 2);  // the front window's bytes and half of ours
  }
  core::Descriptor front_descriptor(kFrontWindow);
  if (behind) {
    EXPECT_TRUE(stack.kernel->PostRecvRing(*peer, rx, {{*win_or, front, &front_descriptor}},
                                           &rx_ctx)
                    .ok());
  }
  core::Descriptor descriptor(kPostedWindow);
  const uint64_t va = *win_or + front;
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  const StatusOr<size_t> staged =
      ring ? stack.kernel->PostRecvRing(*peer, rx, {{va, kPostedWindow, &descriptor}}, &rx_ctx)
           : stack.kernel->PostRecv(*peer, rx, va, kPostedWindow, &rx_ctx, ropts);
  OnePostResult result;
  result.code = staged.status().code();
  result.staged = staged.ok() ? *staged : 0;
  result.rx_clock = rx_ctx.now();

  send_until(total);
  const auto reap = [&](core::Descriptor& d, size_t length) {
    EXPECT_TRUE(
        core::WaitDescriptor(d, 0, length, nullptr, [&] { stack.service->DrainAll(); }).ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, &rx_ctx);
    ASSERT_TRUE(filled.ok()) << filled.status().ToString();
    EXPECT_EQ(*filled, length);
  };
  if (behind) {
    reap(front_descriptor, front);
  }
  reap(descriptor, kPostedWindow);
  result.ring_windows_posted = stack.service->ipc_fuse_stats().ring_windows_posted;
  result.landed = ReadAll(peer->mem(), *win_or, total);
  result.expected = ReadAll(stack.proc->mem(), src, total);
  return result;
}

OnePostResult PostBinderWindowOnce(bool ring, bool queued, bool behind) {
  CopierStack stack;
  simos::Process* server = stack.kernel->CreateProcess("server");
  stack.service->AttachProcess(server);
  simos::BinderDriver binder(stack.kernel.get());
  const size_t front = behind ? kFrontWindow : 0;
  const size_t total = front + kPostedWindow;
  const uint64_t msg = stack.Map(total, "msg");
  FillPattern(stack.proc->mem(), msg, total, 0xB1D + total);
  auto win_or = server->mem().MapAnonymous(total, "win", true);
  EXPECT_TRUE(win_or.ok());
  ExecContext rx_ctx("server");

  std::optional<simos::BinderDriver::Transaction> held;
  if (queued) {
    auto txn = binder.Transact(*stack.proc, msg, kPageSize, nullptr);
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    EXPECT_FALSE(txn->in_window);
    held = *txn;
    stack.service->DrainAll();
  }
  core::Descriptor front_descriptor(kFrontWindow);
  if (behind) {
    EXPECT_TRUE(
        binder.PostReceiveRing(*server, {{*win_or, front, &front_descriptor}}, &rx_ctx).ok());
  }
  core::Descriptor descriptor(kPostedWindow);
  const uint64_t va = *win_or + front;
  const Status posted =
      ring ? binder.PostReceiveRing(*server, {{va, kPostedWindow, &descriptor}}, &rx_ctx)
           : binder.PostReceive(*server, va, kPostedWindow, &descriptor, &rx_ctx);
  OnePostResult result;
  result.code = posted.code();
  result.rx_clock = rx_ctx.now();

  const auto transact = [&](size_t offset, size_t length, core::Descriptor& d) {
    auto txn = binder.Transact(*stack.proc, msg + offset, length, nullptr);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    EXPECT_TRUE(txn->in_window);
    EXPECT_TRUE(
        core::WaitDescriptor(d, 0, length, nullptr, [&] { stack.service->DrainAll(); }).ok());
    binder.Release(txn->id);
  };
  if (behind) {
    transact(0, front, front_descriptor);
  }
  transact(front, kPostedWindow, descriptor);
  if (held.has_value()) {
    binder.Release(held->id);
  }
  result.ring_windows_posted = stack.service->ipc_fuse_stats().ring_windows_posted;
  result.landed = ReadAll(server->mem(), *win_or, total);
  result.expected = ReadAll(stack.proc->mem(), msg, total);
  return result;
}

void ExpectSamePost(const OnePostResult& single, const OnePostResult& ring, bool behind) {
  EXPECT_EQ(single.code, StatusCode::kOk);
  EXPECT_EQ(single.code, ring.code);
  EXPECT_EQ(single.staged, ring.staged);
  EXPECT_EQ(single.rx_clock, ring.rx_clock);
  EXPECT_GT(single.rx_clock, 0u);
  EXPECT_EQ(single.ring_windows_posted, behind ? 1u : 0u);
  EXPECT_EQ(single.ring_windows_posted, ring.ring_windows_posted);
  EXPECT_EQ(single.landed, single.expected);
  EXPECT_EQ(single.landed, ring.landed);
}

TEST(IpcFuse, SinglePostIsTheOneWindowRing) {
  for (const bool queued : {false, true}) {
    for (const bool behind : {false, true}) {
      SCOPED_TRACE(testing::Message() << "queued=" << queued << " behind=" << behind);
      const OnePostResult socket = PostSocketWindowOnce(/*ring=*/false, queued, behind);
      ExpectSamePost(socket, PostSocketWindowOnce(/*ring=*/true, queued, behind), behind);
      EXPECT_EQ(socket.staged, queued ? kPostedWindow / 2 : 0u);
      ExpectSamePost(PostBinderWindowOnce(/*ring=*/false, queued, behind),
                     PostBinderWindowOnce(/*ring=*/true, queued, behind), behind);
    }
  }
}

// A sender store into the in-flight range blocks until the fused copy lands:
// the receiver observes the pre-store snapshot, exactly like the two-step
// path's eager staging.
TEST(IpcFuse, SenderWriteProtectedUntilCopyLands) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t n = 64 * kKiB;
  const uint64_t src = stack.Map(n, "src");
  FillPattern(stack.proc->mem(), src, n, 500);
  const std::vector<uint8_t> snapshot = ReadAll(stack.proc->mem(), src, n);
  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());

  ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, {}).ok());
  auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, n);
  ASSERT_TRUE(stack.proc->mem().WriteLockedForCopy(src, n));

  // The store blocks, pumping the service until the copy completes.
  const std::vector<uint8_t> overwrite(n, 0xEE);
  ASSERT_TRUE(stack.proc->mem().WriteBytes(src, overwrite.data(), n).ok());
  EXPECT_GE(stack.proc->mem().copy_lock_waits(), 1u);
  EXPECT_FALSE(stack.proc->mem().WriteLockedForCopy(src, n));

  stack.service->DrainAll();
  auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), snapshot);       // pre-store image
  EXPECT_EQ(ReadAll(stack.proc->mem(), src, n), overwrite);    // store landed after
}

// Exact fused-byte accounting across several posted transfers.
TEST(IpcFuse, FusedBytesAccountingIsExact) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  size_t expected = 0;
  uint64_t windows = 0;
  for (const size_t n : {size_t{4 * kKiB}, size_t{9 * kKiB + 17}, size_t{256 * kKiB}}) {
    const uint64_t src = stack.Map(n, "src");
    FillPattern(stack.proc->mem(), src, n, n);
    auto win_or = peer->mem().MapAnonymous(n, "win", true);
    ASSERT_TRUE(win_or.ok());
    ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, {}).ok());
    size_t sent_total = 0;
    while (sent_total < n) {
      auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, n - sent_total,
                                     nullptr);
      ASSERT_TRUE(sent.ok());
      sent_total += *sent;
      stack.service->DrainAll();
    }
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    ASSERT_EQ(*filled, n);
    EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), ReadAll(stack.proc->mem(), src, n));
    expected += n;
    ++windows;
    EXPECT_EQ(stack.service->TotalStats().fused_ipc_bytes, expected);
  }
  EXPECT_EQ(stack.service->ipc_fuse_stats().fused, windows);
}

// Under the default timing model a page-congruent 4 MiB fused send is copied,
// not aliased: the PTE + shootdown work (650 cycles/page) loses to the planned
// AVX+DMA round that copies the same pages. A second send into the same
// window therefore finds plain pages on both sides — no CoW share to break.
TEST(IpcFuse, DefaultTimingCopiesCongruentFusedSendInsteadOfAliasing) {
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t n = 4 * kMiB;
  const uint64_t src = stack.Map(n, "src");
  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());
  const auto send_into_window = [&](uint64_t seed) {
    FillPattern(stack.proc->mem(), src, n, seed);
    ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, {}).ok());
    size_t sent_total = 0;
    while (sent_total < n) {
      auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, n - sent_total,
                                     nullptr);
      ASSERT_TRUE(sent.ok()) << sent.status().ToString();
      sent_total += *sent;
      stack.service->DrainAll();
    }
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    ASSERT_EQ(*filled, n);
    EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), ReadAll(stack.proc->mem(), src, n));
  };

  send_into_window(71);
  core::Engine::Stats stats = stack.service->TotalStats();
  EXPECT_EQ(stats.fused_ipc_bytes, n);
  EXPECT_EQ(stats.remapped_bytes, 0u);
  EXPECT_GT(stats.avx_bytes + stats.dma_bytes_completed, 0u);

  const uint64_t breaks_before =
      peer->mem().alias_cow_breaks() + stack.proc->mem().alias_cow_breaks();
  send_into_window(72);
  stats = stack.service->TotalStats();
  EXPECT_EQ(stats.fused_ipc_bytes, 2 * n);
  EXPECT_EQ(stats.remapped_bytes, 0u);
  EXPECT_EQ(peer->mem().alias_cow_breaks() + stack.proc->mem().alias_cow_breaks(),
            breaks_before);
}

// Window registration (DESIGN.md §12) walks only pages some engine lacks as a
// write-capable ATCache extent. A re-post of a warm window costs one probe
// per extent every engine holds — one for this host-contiguous window — and
// the probes are not counted as cache hits.
TEST(IpcFuse, RepostedWarmWindowChargesProbesOnly) {
  core::CopierConfig config;
  config.engine_count = 2;
  CopierStack stack(config);
  ASSERT_EQ(stack.service->engine_count(), 2u);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  const hw::TimingModel& t = stack.service->timing();
  const size_t pages = 16;
  auto win_or = peer->mem().MapAnonymous(pages * kPageSize, "win", true);
  ASSERT_TRUE(win_or.ok());
  const auto register_cost = [&] {
    ExecContext ctx;
    stack.glue->RegisterWindow(peer, *win_or, pages * kPageSize, &ctx);
    return ctx.now();
  };
  const auto lookups = [&] {
    uint64_t n = 0;
    for (size_t i = 0; i < stack.service->engine_count(); ++i) {
      n += stack.service->engine(i).atcache().hits() +
           stack.service->engine(i).atcache().misses();
    }
    return n;
  };

  EXPECT_EQ(register_cost(), pages * t.va_translate_cycles_per_page);
  const uint64_t lookups_before = lookups();
  EXPECT_EQ(register_cost(), t.atcache_hit_cycles);
  EXPECT_EQ(lookups(), lookups_before) << "registration probes must not count as lookups";

  // One engine losing one page makes that page cold again; the walk merges it
  // back, so the next re-post is one probe again.
  stack.service->engine(1).atcache().Invalidate(peer->mem().asid(), *win_or, kPageSize);
  EXPECT_EQ(register_cost(), t.va_translate_cycles_per_page + t.atcache_hit_cycles);
  EXPECT_EQ(register_cost(), t.atcache_hit_cycles);

  // A lost middle page splits that engine's extent: probe, walk, probe.
  stack.service->engine(1).atcache().Invalidate(peer->mem().asid(),
                                                *win_or + (pages / 2) * kPageSize, kPageSize);
  EXPECT_EQ(register_cost(), t.va_translate_cycles_per_page + 2 * t.atcache_hit_cycles);
  EXPECT_EQ(register_cost(), t.atcache_hit_cycles);
}

// A mapping change invalidates registered translations: after munmap and a
// fresh mmap the next post walks again and the fused send lands in the new
// frames; after fork the CoW-shared window is walked (breaking the share) and
// the send lands in the receiver's frames, never in the child's.
TEST(IpcFuse, RegistrationRewalksAfterMappingChanges) {
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  const size_t n = 256 * kKiB;
  const uint64_t src = stack.Map(n, "src");
  core::ATCache& cache = stack.service->engine().atcache();
  const uint32_t asid = peer->mem().asid();

  const auto post_and_send = [&](uint64_t win, uint64_t seed) {
    FillPattern(stack.proc->mem(), src, n, seed);
    ExecContext post_ctx;
    EXPECT_TRUE(stack.kernel->PostRecv(*peer, rx, win, n, &post_ctx, {}).ok());
    size_t sent_total = 0;
    while (sent_total < n) {
      auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, n - sent_total,
                                     nullptr);
      EXPECT_TRUE(sent.ok()) << sent.status().ToString();
      if (!sent.ok()) {
        break;
      }
      sent_total += *sent;
      stack.service->DrainAll();
    }
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    EXPECT_TRUE(filled.ok());
    EXPECT_EQ(ReadAll(peer->mem(), win, n), ReadAll(stack.proc->mem(), src, n));
    return post_ctx.now();
  };

  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());
  const Cycles cold_post = post_and_send(*win_or, 81);
  const Cycles warm_post = post_and_send(*win_or, 82);
  const hw::TimingModel& t = stack.service->timing();
  EXPECT_EQ(cold_post - warm_post,
            (n / kPageSize) * t.va_translate_cycles_per_page - t.atcache_hit_cycles)
      << "a warm host-contiguous window costs one probe";

  ASSERT_TRUE(peer->mem().Unmap(*win_or, n).ok());
  for (uint64_t page = *win_or; page < *win_or + n; page += kPageSize) {
    ASSERT_EQ(cache.WritableBytes(asid, page), 0u) << "munmap left a registered page";
  }
  auto remapped_or = peer->mem().MapAnonymous(n, "win2", true);
  ASSERT_TRUE(remapped_or.ok());
  EXPECT_EQ(post_and_send(*remapped_or, 83), cold_post) << "a fresh window walks every page";

  // Fork shares the window's frames CoW with the child; the parent's cached
  // translations would point into the shared frames.
  const std::vector<uint8_t> before_fork = ReadAll(peer->mem(), *remapped_or, n);
  auto child_or = stack.kernel->Fork(*peer, nullptr);
  ASSERT_TRUE(child_or.ok());
  ASSERT_EQ(cache.WritableBytes(asid, *remapped_or), 0u) << "fork must drop the registration";
  post_and_send(*remapped_or, 84);
  EXPECT_EQ(ReadAll((*child_or)->mem(), *remapped_or, n), before_fork)
      << "the fused send leaked into the child's CoW frames";
}

// A CoW break in the middle of a registered window moves that page to a new
// frame. Only that page's translation is dropped — the window's extent
// splits around it — so the next post walks just that page, the fused send
// lands in the new frame, and the frame the page used to share is unchanged.
TEST(IpcFuse, CowBreakInsideRegisteredWindowSplitsItsExtent) {
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  simos::Process* other = stack.kernel->CreateProcess("other");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  const size_t n = 64 * kKiB;
  const uint64_t src = stack.Map(n, "src");
  core::ATCache& cache = stack.service->engine().atcache();
  const uint32_t asid = peer->mem().asid();
  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());
  const uint64_t win = *win_or;
  const uint64_t mid = win + n / 2;
  Cycles last_post = 0;

  const auto post_and_send = [&](uint64_t seed) {
    FillPattern(stack.proc->mem(), src, n, seed);
    ExecContext post_ctx;
    EXPECT_TRUE(stack.kernel->PostRecv(*peer, rx, win, n, &post_ctx, {}).ok());
    size_t sent_total = 0;
    while (sent_total < n) {
      auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, n - sent_total,
                                     nullptr);
      ASSERT_TRUE(sent.ok()) << sent.status().ToString();
      sent_total += *sent;
      stack.service->DrainAll();
    }
    ASSERT_TRUE(stack.kernel->CompleteRecv(*peer, rx, nullptr).ok());
    EXPECT_EQ(ReadAll(peer->mem(), win, n), ReadAll(stack.proc->mem(), src, n));
    last_post = post_ctx.now();
  };
  post_and_send(90);
  post_and_send(91);
  const Cycles warm_post = last_post;
  ASSERT_EQ(cache.WritableBytes(asid, win), n) << "the window registers as one extent";

  // Share the middle page CoW with another process, then break the share
  // from the window's side: the window's page moves to a fresh frame.
  auto snap_or = other->mem().MapAnonymous(kPageSize, "snap", true);
  ASSERT_TRUE(snap_or.ok());
  ASSERT_TRUE(other->mem().AliasCowRangeFrom(peer->mem(), *snap_or, mid, kPageSize, nullptr).ok());
  auto old_pfn = other->mem().TranslateRead(*snap_or, nullptr);
  ASSERT_TRUE(old_pfn.ok());
  auto new_pfn = peer->mem().TranslateWrite(mid, nullptr);
  ASSERT_TRUE(new_pfn.ok());
  ASSERT_NE(*new_pfn, *old_pfn) << "the write must break the CoW share";
  const std::vector<uint8_t> shared = ReadAll(other->mem(), *snap_or, kPageSize);
  EXPECT_EQ(cache.WritableBytes(asid, win), n / 2);
  EXPECT_EQ(cache.WritableBytes(asid, mid), 0u);
  EXPECT_EQ(cache.WritableBytes(asid, mid + kPageSize), n / 2 - kPageSize);

  post_and_send(92);
  const hw::TimingModel& t = stack.service->timing();
  EXPECT_EQ(last_post - warm_post, t.va_translate_cycles_per_page + t.atcache_hit_cycles)
      << "one probe became probe, walk the broken page, probe";
  EXPECT_EQ(ReadAll(other->mem(), *snap_or, kPageSize), shared)
      << "the fused send wrote through the stale translation into the shared frame";
  auto landed = peer->mem().TranslateRead(mid, nullptr);
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(*landed, *new_pfn);
}

// The round planner is the executor's own cost function: for every round
// shape its makespan is exactly the virtual time from round start until the
// round's last byte lands — CPU copies or parked DMA batches, whichever is
// later — its engine_free is exactly when an idle engine has reaped every
// batch and fired the KFUNCs they complete, and the bytes it sends to DMA
// are exactly the bytes parked. Each copy runs once first: translation is
// priced in the split, and a cold page owes DMA two walks, more than copying
// it, so a cold one-shot round stays on the CPU; the warming copy leaves the
// ATCache warm. On host-contiguous memory a large task's DMA share coalesces
// into one descriptor per channel per wave; on fragmented frames nothing
// merges.
TEST(RoundPlanParity, MakespanIsWhenTheRoundsLastByteLands) {
  const size_t small = hw::TimingModel::Default().dma_min_subtask_bytes / 2;
  std::vector<size_t> mixed;
  for (int i = 0; i < 16; ++i) {
    mixed.push_back(i % 2 == 0 ? small : 16 * kKiB);
  }
  enum class Merges { kAny, kOnePerChannel, kNone };
  struct Shape {
    std::vector<size_t> tasks;
    simos::PhysicalMemory::AllocPolicy policy =
        simos::PhysicalMemory::AllocPolicy::kSequential;
    Merges merges = Merges::kAny;
  };
  const std::vector<Shape> shapes = {
      {{2 * kMiB}},                          // i-piggyback over one large task
      {std::vector<size_t>(64, 16 * kKiB)},  // e-piggyback over 64 adjacent tasks
      {{96 * kKiB}},                         // fewer DMA subtasks than channels: chunked
      {mixed},                               // sub-threshold subtasks stay on AVX
      {std::vector<size_t>(8, small)},       // nothing DMA-eligible
      // Host-contiguous: the DMA tail is one run, one descriptor per channel.
      {{4 * kMiB}, simos::PhysicalMemory::AllocPolicy::kSequential, Merges::kOnePerChannel},
      // Fragmented frames: every chunk is its own descriptor.
      {{2 * kMiB}, simos::PhysicalMemory::AllocPolicy::kFragmented, Merges::kNone},
  };
  for (const Shape& shape : shapes) {
    const std::vector<size_t>& tasks = shape.tasks;
    size_t total = 0;
    for (size_t len : tasks) {
      total += len;
    }
    const bool fragmented = shape.policy == simos::PhysicalMemory::AllocPolicy::kFragmented;
    SCOPED_TRACE(testing::Message() << tasks.size() << " task(s), " << total << " bytes"
                                    << (fragmented ? ", fragmented" : ""));
    core::CopierConfig config;  // defaults: 4 channels, parked DMA completion
    ASSERT_TRUE(config.enable_async_dma_completion);
    // The warming copy must copy: an alias would leave the next write to
    // break CoW into fresh, uncached (and scattered) frames.
    config.enable_remap_tier = false;
    CopierStack stack(config, shape.policy);
    const uint64_t src = stack.Map(total, "src");
    const uint64_t dst = stack.Map(total, "dst");
    const auto queue_copies = [&] {
      size_t off = 0;
      for (size_t len : tasks) {
        stack.lib->amemcpy(dst + off, src + off, len);
        off += len;
      }
    };
    FillPattern(stack.proc->mem(), src, total, total + 1);
    queue_copies();  // warming copy
    stack.service->DrainAll();
    ASSERT_TRUE(stack.lib->csync_all().ok());
    FillPattern(stack.proc->mem(), src, total, total);
    queue_copies();

    const core::EngineRoundProbe::Result r =
        core::EngineRoundProbe::RunQueuedAsOneRound(stack.service->engine(), *stack.client);
    EXPECT_EQ(r.last_landed - r.start, r.plan.makespan);
    EXPECT_EQ(r.engine_free - r.start, r.plan.engine_free);
    uint64_t planned_dma = 0;
    size_t chunks = 0;
    size_t descriptors = 0;
    for (const core::RoundBatch& batch : r.plan.batches) {
      for (const core::RoundChunk& ch : batch.chunks) {
        planned_dma += ch.length;
        ++chunks;
        descriptors += ch.joins ? 0 : 1;
      }
    }
    EXPECT_EQ(r.parked_bytes, planned_dma);
    const bool any_eligible =
        std::any_of(tasks.begin(), tasks.end(), [small](size_t len) { return len > small; });
    EXPECT_EQ(planned_dma > 0, any_eligible);
    if (shape.merges == Merges::kOnePerChannel) {
      EXPECT_EQ(r.plan.batches.size(), r.plan.waves * config.dma_channel_count);
      EXPECT_EQ(descriptors, r.plan.batches.size()) << "one descriptor per channel per wave";
      EXPECT_GT(chunks, r.plan.batches.size()) << "the shape must exercise merging";
    } else if (shape.merges == Merges::kNone) {
      EXPECT_GT(chunks, 0u);
      EXPECT_EQ(descriptors, chunks);
    }

    stack.service->DrainAll();
    ASSERT_TRUE(stack.lib->csync_all().ok());
    ExpectSameBytes(stack.proc->mem(), src, dst, total);
  }

  // A fused socket send (bookkeeping SgList: one reclaim KFUNC per MTU
  // chunk) of 2 MiB into a warm posted window. The KFUNCs of DMA-landed
  // chunks fire at the reap, so the plan cuts the host-contiguous tail into
  // waves that land in address order, one descriptor per channel per wave.
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  const size_t n = 2 * kMiB;
  const uint64_t src = stack.Map(n, "src");
  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());
  std::vector<uint32_t> probe;
  stack.kernel->SetKfuncProbe([&](uint32_t id) { probe.push_back(id); });
  const auto post_and_send = [&](uint64_t seed) {
    FillPattern(stack.proc->mem(), src, n, seed);
    EXPECT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, {}).ok());
    auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    ASSERT_EQ(*sent, n) << "one fused task must carry the whole message";
  };
  post_and_send(95);  // warming transfer
  stack.service->DrainAll();
  ASSERT_TRUE(stack.kernel->CompleteRecv(*peer, rx, nullptr).ok());
  post_and_send(96);
  probe.clear();
  const core::EngineRoundProbe::Result r =
      core::EngineRoundProbe::RunQueuedAsOneRound(stack.service->engine(), *stack.client);
  EXPECT_EQ(r.last_landed - r.start, r.plan.makespan);
  EXPECT_EQ(r.engine_free - r.start, r.plan.engine_free);
  EXPECT_GT(r.plan.waves, 1u) << "the KFUNCs of the DMA tail should drain in waves";
  EXPECT_EQ(r.plan.batches.size(), r.plan.waves * stack.service->config().dma_channel_count);
  ASSERT_EQ(r.landings.size(), r.plan.batches.size());
  for (size_t b = 1; b < r.landings.size(); ++b) {
    EXPECT_GT(r.landings[b].task_offset, r.landings[b - 1].task_offset);
    EXPECT_GE(r.landings[b].completion, r.landings[b - 1].completion)
        << "batch " << b << " lands before the lower-addressed batch " << b - 1;
  }
  EXPECT_EQ(probe.size(), n / simos::kMtu) << "one reclaim KFUNC per MTU chunk";
  stack.service->DrainAll();
  auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), ReadAll(stack.proc->mem(), src, n));
}

// Threaded service: the fused path's lock resolver yields to the copier
// threads instead of pumping (TSan coverage; all syscalls on this thread).
TEST(IpcFuseThreaded, PostedTransferCompletes) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.enable_ipc_fuse = true;
  options.config.max_threads = 2;
  options.config.min_threads = 2;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();
  service.Start();
  simos::Process* sender = kernel.CreateProcess("sender");
  simos::Process* receiver = kernel.CreateProcess("receiver");
  service.AttachProcess(sender);
  service.AttachProcess(receiver);
  auto [tx, rx] = kernel.CreateSocketPair();

  const size_t n = 256 * kKiB + 123;
  auto src_or = sender->mem().MapAnonymous(n, "src", true);
  auto win_or = receiver->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(src_or.ok() && win_or.ok());
  FillPattern(sender->mem(), *src_or, n, 2024);

  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  ASSERT_TRUE(kernel.PostRecv(*receiver, rx, *win_or, n, nullptr, ropts).ok());
  size_t sent_total = 0;
  while (sent_total < n) {
    auto sent = kernel.Send(*sender, tx, *src_or + sent_total, n - sent_total, nullptr);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    sent_total += *sent;
  }
  // Mid-flight overwrite: must block until the snapshot landed.
  const std::vector<uint8_t> snapshot = ReadAll(sender->mem(), *src_or, n);
  const std::vector<uint8_t> overwrite(n, 0xAB);
  ASSERT_TRUE(sender->mem().WriteBytes(*src_or, overwrite.data(), n).ok());

  ASSERT_TRUE(core::WaitDescriptor(descriptor, 0, n, nullptr, nullptr).ok());
  auto filled = kernel.CompleteRecv(*receiver, rx, nullptr);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);
  EXPECT_EQ(ReadAll(receiver->mem(), *win_or, n), snapshot);
  service.Stop();
}

// --- receive-ring stress (DESIGN.md §12, multi-window rings) -----------------

// Pipelined sender against a FIFO receive ring that is smaller than the
// burst: `messages` back-to-back sends against `ring` pre-posted windows.
// Sends beyond the ring fall back classic; reaping a window re-posts the next
// one, whose staged drain pulls the queued bytes in — stream order holds
// end to end.
struct RingRunResult {
  std::vector<uint8_t> image;  // reaped windows, concatenated in stream order
  uint64_t kfuncs_run = 0;
  std::vector<uint32_t> probe;
  core::CopierService::IpcFuseStats fuse = {};
};

RingRunResult RunRingPipelinedWorkload(bool fuse, size_t msg, size_t ring, size_t messages) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t total = msg * messages;
  const uint64_t src = stack.Map(total, "src");
  FillPattern(stack.proc->mem(), src, total, 0xA11CE + msg);
  auto win_or = peer->mem().MapAnonymous(total, "win", true);
  EXPECT_TRUE(win_or.ok());

  RingRunResult result;
  stack.kernel->SetKfuncProbe([&](uint32_t id) { result.probe.push_back(id); });

  std::vector<std::unique_ptr<core::Descriptor>> descriptors;
  for (size_t i = 0; i < messages; ++i) {
    descriptors.push_back(std::make_unique<core::Descriptor>(msg));
  }
  std::vector<simos::SimKernel::RecvWindowSpec> specs;
  for (size_t i = 0; i < std::min(ring, messages); ++i) {
    specs.push_back({*win_or + i * msg, msg, descriptors[i].get()});
  }
  EXPECT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());

  // Burst every message before reaping anything (queue depth = messages).
  for (size_t i = 0; i < messages; ++i) {
    size_t sent_total = 0;
    while (sent_total < msg) {
      auto sent =
          stack.kernel->Send(*stack.proc, tx, src + i * msg + sent_total, msg - sent_total,
                             nullptr);
      EXPECT_TRUE(sent.ok()) << sent.status().ToString();
      sent_total += *sent;
      stack.service->DrainAll();
    }
  }

  // Reap FIFO; each reap re-posts the next window so the classic-queued tail
  // stages in behind the fused head.
  for (size_t i = 0; i < messages; ++i) {
    EXPECT_TRUE(core::WaitDescriptor(*descriptors[i], 0, msg, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    EXPECT_TRUE(filled.ok()) << filled.status().ToString();
    EXPECT_EQ(*filled, msg);
    const size_t next = ring + i;
    if (next < messages) {
      simos::RecvOptions ropts;
      ropts.descriptor = descriptors[next].get();
      EXPECT_TRUE(
          stack.kernel->PostRecv(*peer, rx, *win_or + next * msg, msg, nullptr, ropts).ok());
    }
  }

  result.image = ReadAll(peer->mem(), *win_or, total);
  result.kfuncs_run = stack.service->TotalStats().kfuncs_run;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

TEST(RecvRingStress, PipelinedDepthBeyondRingDifferential) {
  const size_t msg = 24 * kKiB + 96;
  const size_t ring = 2;
  const size_t messages = 5;  // depth > ring: 3 messages overflow the ring
  const RingRunResult fused = RunRingPipelinedWorkload(/*fuse=*/true, msg, ring, messages);
  const RingRunResult staged = RunRingPipelinedWorkload(/*fuse=*/false, msg, ring, messages);

  EXPECT_EQ(fused.image, staged.image);
  EXPECT_EQ(fused.kfuncs_run, staged.kfuncs_run);
  EXPECT_GT(fused.kfuncs_run, 0u);
  EXPECT_EQ(fused.probe, staged.probe);

  // The fused arm's ladder: the first `ring` messages fuse, the overflow
  // falls back window-full, and every re-post behind a live ring counts.
  EXPECT_GE(fused.fuse.fused, ring);
  EXPECT_GE(fused.fuse.fallback_window_full, 1u);
  EXPECT_GE(fused.fuse.ring_windows_posted, ring - 1);
}

// A whole pipelined burst landing in one ring: every message fuses and a
// send spanning two windows rolls over without falling back.
TEST(RecvRingStress, BurstWithinRingAllFused) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t msg = 16 * kKiB;
  const size_t depth = 4;
  const uint64_t src = stack.Map(msg * depth, "src");
  FillPattern(stack.proc->mem(), src, msg * depth, 31337);
  auto win_or = peer->mem().MapAnonymous(msg * depth, "win", true);
  ASSERT_TRUE(win_or.ok());

  std::vector<std::unique_ptr<core::Descriptor>> descriptors;
  std::vector<simos::SimKernel::RecvWindowSpec> specs;
  for (size_t i = 0; i < depth; ++i) {
    descriptors.push_back(std::make_unique<core::Descriptor>(msg));
    specs.push_back({*win_or + i * msg, msg, descriptors[i].get()});
  }
  ASSERT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());

  // One double-width send (rolls over window 0 -> 1), then two singles.
  auto wide = stack.kernel->Send(*stack.proc, tx, src, 2 * msg, nullptr);
  ASSERT_TRUE(wide.ok());
  ASSERT_EQ(*wide, 2 * msg);
  for (size_t i = 2; i < depth; ++i) {
    auto sent = stack.kernel->Send(*stack.proc, tx, src + i * msg, msg, nullptr);
    ASSERT_TRUE(sent.ok());
    ASSERT_EQ(*sent, msg);
  }
  for (size_t i = 0; i < depth; ++i) {
    ASSERT_TRUE(core::WaitDescriptor(*descriptors[i], 0, msg, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, msg);
  }
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, msg * depth),
            ReadAll(stack.proc->mem(), src, msg * depth));
  const auto fuse_stats = stack.service->ipc_fuse_stats();
  EXPECT_EQ(fuse_stats.fallbacks(), 0u);
  EXPECT_EQ(fuse_stats.fused_rate(), 1.0);
  EXPECT_GE(fuse_stats.ring_rollovers, 1u);
  EXPECT_EQ(fuse_stats.ring_windows_posted, depth - 1);
}

// Aborting a fused send mid-stream leaves the rest of the ring usable: the
// next message lands in the following window, tokens and source locks all
// come back, and the aborted window's descriptor settles without bytes.
TEST(RecvRingStress, MidStreamAbortLeavesRingUsable) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t msg = 16 * kKiB;
  const uint64_t src = stack.Map(2 * msg, "src");
  FillPattern(stack.proc->mem(), src, 2 * msg, 555);
  auto win_or = peer->mem().MapAnonymous(2 * msg, "win", true);
  ASSERT_TRUE(win_or.ok());
  const std::vector<uint8_t> win0_before = ReadAll(peer->mem(), *win_or, msg);

  core::Descriptor d0(msg);
  core::Descriptor d1(msg);
  const std::vector<simos::SimKernel::RecvWindowSpec> specs = {
      {*win_or, msg, &d0}, {*win_or + msg, msg, &d1}};
  ASSERT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());
  const size_t pool_full = stack.kernel->skb_pool().available();

  // First message in flight, then aborted before the engine runs it.
  auto s0 = stack.kernel->Send(*stack.proc, tx, src, msg, nullptr);
  ASSERT_TRUE(s0.ok());
  ASSERT_EQ(*s0, msg);
  core::SyncTask sync;
  sync.kind = core::SyncTask::Kind::kAbort;
  sync.addr = core::MemRef::User(&peer->mem(), *win_or);
  sync.length = msg;
  ASSERT_TRUE(stack.client->default_pair().user.sync_q.TryPush(std::move(sync)));
  stack.service->DrainAll();
  EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
  EXPECT_FALSE(stack.proc->mem().WriteLockedForCopy(src, msg));

  // Second message: the aborted window is consumed, the ring moves on.
  auto s1 = stack.kernel->Send(*stack.proc, tx, src + msg, msg, nullptr);
  ASSERT_TRUE(s1.ok());
  ASSERT_EQ(*s1, msg);
  ASSERT_TRUE(
      core::WaitDescriptor(d1, 0, msg, nullptr, [&] { stack.service->DrainAll(); }).ok());
  // An explicit abort settles the descriptor as complete, not failed: the
  // client discarded the copy and promised not to read the bytes (§4.4), and
  // csync_all must not wait forever on it. MarkFailed is reserved for faults.
  EXPECT_TRUE(d0.RangeReady(0, msg));
  EXPECT_FALSE(d0.failed());
  EXPECT_FALSE(d1.failed());

  auto reap0 = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  ASSERT_TRUE(reap0.ok());  // aborted window: reaped, bytes untouched
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, msg), win0_before);
  auto reap1 = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  ASSERT_TRUE(reap1.ok());
  EXPECT_EQ(*reap1, msg);
  EXPECT_EQ(ReadAll(peer->mem(), *win_or + msg, msg),
            ReadAll(stack.proc->mem(), src + msg, msg));
  EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
  EXPECT_EQ(stack.service->ipc_fuse_stats().fused, 2u);
}

// Connection churn under pipelined ring traffic: fresh socket pairs mid-run,
// every round byte-verified, all flow-control tokens back at the end.
TEST(RecvRingStress, ConnectionChurnDifferential) {
  const size_t msg = 12 * kKiB + 40;
  const int rounds = 5;
  std::vector<uint8_t> images[2];
  uint64_t kfuncs[2] = {0, 0};
  std::vector<uint32_t> probes[2];
  for (const bool fuse : {true, false}) {
    core::CopierConfig config;
    config.enable_ipc_fuse = fuse;
    CopierStack stack(config);
    simos::Process* peer = stack.kernel->CreateProcess("peer");
    stack.service->AttachProcess(peer);
    const size_t pool_full = stack.kernel->skb_pool().available();

    std::vector<uint32_t> probe;
    stack.kernel->SetKfuncProbe([&](uint32_t id) { probe.push_back(id); });
    const uint64_t src = stack.Map(2 * msg * rounds, "src");
    FillPattern(stack.proc->mem(), src, 2 * msg * rounds, 9090);
    auto win_or = peer->mem().MapAnonymous(2 * msg * rounds, "win", true);
    ASSERT_TRUE(win_or.ok());

    std::vector<uint8_t> image;
    for (int round = 0; round < rounds; ++round) {
      // Reconnect: a fresh pair each round (the serve harness churn shape).
      auto [tx, rx] = stack.kernel->CreateSocketPair();
      const uint64_t rsrc = src + 2 * msg * round;
      const uint64_t rwin = *win_or + 2 * msg * round;
      core::Descriptor d0(msg);
      core::Descriptor d1(msg);
      const std::vector<simos::SimKernel::RecvWindowSpec> specs = {
          {rwin, msg, &d0}, {rwin + msg, msg, &d1}};
      ASSERT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());
      for (int i = 0; i < 2; ++i) {
        size_t sent_total = 0;
        while (sent_total < msg) {
          auto sent = stack.kernel->Send(*stack.proc, tx, rsrc + i * msg + sent_total,
                                         msg - sent_total, nullptr);
          ASSERT_TRUE(sent.ok());
          sent_total += *sent;
          stack.service->DrainAll();
        }
      }
      for (core::Descriptor* d : {&d0, &d1}) {
        ASSERT_TRUE(core::WaitDescriptor(*d, 0, msg, nullptr,
                                         [&] { stack.service->DrainAll(); })
                        .ok());
        auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
        ASSERT_TRUE(filled.ok());
        ASSERT_EQ(*filled, msg);
      }
      const std::vector<uint8_t> got = ReadAll(peer->mem(), rwin, 2 * msg);
      EXPECT_EQ(got, ReadAll(stack.proc->mem(), rsrc, 2 * msg));
      image.insert(image.end(), got.begin(), got.end());
    }
    EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
    if (fuse) {
      EXPECT_EQ(stack.service->ipc_fuse_stats().fused, 2u * rounds);
      EXPECT_EQ(stack.service->ipc_fuse_stats().fallbacks(), 0u);
    }
    images[fuse ? 0 : 1] = std::move(image);
    kfuncs[fuse ? 0 : 1] = stack.service->TotalStats().kfuncs_run;
    probes[fuse ? 0 : 1] = std::move(probe);
  }
  EXPECT_EQ(images[0], images[1]);
  EXPECT_EQ(kfuncs[0], kfuncs[1]);
  EXPECT_EQ(probes[0], probes[1]);
}

// --- proxy-transparent forwarding (DESIGN.md §12) ----------------------------

struct ForwardRunResult {
  std::vector<uint8_t> kv_image;
  uint64_t kfuncs_run = 0;
  std::vector<uint32_t> probe;
  core::CopierService::IpcFuseStats fuse = {};
  Cycles last_reclaim = 0;  // engine time at which the last reclaim KFUNC ran
  Cycles window_ready = 0;  // when the proxy's window was marked ready
};

// Client ships "FWD <id> <len>\r\n<body>" into the proxy's forward-posted
// window; fused arm: the kernel re-frames it as the "VIA" parcel and splices
// it straight into the KV server's binder window. Ablation: the message lands
// in the proxy, which parses, marshals and transacts app-level — the exact
// work the forward rule replaces.
ForwardRunResult RunForwardWorkload(bool fuse, size_t body_len, bool split_send) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* proxy = stack.kernel->CreateProcess("proxy");
  simos::Process* kv = stack.kernel->CreateProcess("kv");
  stack.service->AttachProcess(proxy);
  stack.service->AttachProcess(kv);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  simos::BinderDriver binder(stack.kernel.get());

  std::vector<uint8_t> body(body_len);
  for (size_t i = 0; i < body_len; ++i) {
    body[i] = static_cast<uint8_t>(i * 131 + 5);
  }
  const int upstream = 9;
  const std::vector<uint8_t> fwd_msg = apps::MiniProxy::BuildMessage(upstream, body);
  const size_t n = fwd_msg.size();
  char via[64];
  const int via_len = std::snprintf(via, sizeof(via), "VIA %d %zu\r\n", upstream, body_len);
  const size_t parcel_len = 4 + static_cast<size_t>(via_len) + body_len;

  const uint64_t src = stack.Map(n, "fwd-src");
  EXPECT_TRUE(stack.proc->mem().WriteBytes(src, fwd_msg.data(), n).ok());
  auto pwin_or = proxy->mem().MapAnonymous(n, "proxy-win", true);
  auto kv_win_or = kv->mem().MapAnonymous(parcel_len, "kv-win", true);
  auto marshal_or = proxy->mem().MapAnonymous(parcel_len, "marshal", true);
  EXPECT_TRUE(pwin_or.ok() && kv_win_or.ok() && marshal_or.ok());

  ForwardRunResult result;
  // One engine in manual mode serves every client.
  core::Engine& engine = stack.service->engine();
  stack.kernel->SetKfuncProbe([&](uint32_t id) {
    result.probe.push_back(id);
    result.last_reclaim = engine.ctx()->now();
  });

  core::Descriptor d2(parcel_len);
  EXPECT_TRUE(binder.PostReceive(*kv, *kv_win_or, parcel_len, &d2, nullptr).ok());
  core::Descriptor d1(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &d1;
  rx->SetForwardRule(apps::MiniProxy::MakeParcelForwardRule(&binder));
  EXPECT_TRUE(stack.kernel->PostRecv(*proxy, rx, *pwin_or, n, nullptr, ropts).ok());

  if (split_send) {
    // A partial frame first: the rule must decline (fallback_forward) and the
    // bytes land in the window app-level instead.
    const size_t half = n / 2;
    auto first = stack.kernel->Send(*stack.proc, tx, src, half, nullptr);
    EXPECT_TRUE(first.ok() && *first == half);
    auto rest = stack.kernel->Send(*stack.proc, tx, src + half, n - half, nullptr);
    EXPECT_TRUE(rest.ok() && *rest == n - half);
  } else {
    auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
    EXPECT_TRUE(sent.ok()) << sent.status().ToString();
    EXPECT_EQ(*sent, n);
  }
  EXPECT_TRUE(
      core::WaitDescriptor(d1, 0, n, nullptr, [&] { stack.service->DrainAll(); }).ok());
  result.window_ready = d1.ReadyTime(0, n);
  auto reaped = stack.kernel->CompleteRecv(*proxy, rx, nullptr);
  EXPECT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, n);

  if (stack.service->ipc_fuse_stats().forward_fused == 0) {
    // App-level completion: what the forward rule fuses away.
    const std::vector<uint8_t> landed = ReadAll(proxy->mem(), *pwin_or, n);
    EXPECT_EQ(landed, fwd_msg);
    apps::ParcelWriter writer;
    std::string item(via, via + via_len);
    item.append(body.begin(), body.end());
    writer.WriteString(item);
    EXPECT_EQ(writer.bytes().size(), parcel_len);
    EXPECT_TRUE(proxy->mem().WriteBytes(*marshal_or, writer.bytes().data(), parcel_len).ok());
    auto txn = binder.Transact(*proxy, *marshal_or, parcel_len, nullptr);
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    EXPECT_TRUE(txn->in_window);
    EXPECT_TRUE(core::WaitDescriptor(d2, 0, parcel_len, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
    binder.Release(txn->id);
  } else {
    EXPECT_TRUE(core::WaitDescriptor(d2, 0, parcel_len, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
  }
  result.kv_image = ReadAll(kv->mem(), *kv_win_or, parcel_len);
  result.kfuncs_run = stack.service->TotalStats().kfuncs_run;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

TEST(ForwardFuse, FusedMatchesAppLevelPath) {
  const size_t body_len = 96 * kKiB + 31;
  const ForwardRunResult fused =
      RunForwardWorkload(/*fuse=*/true, body_len, /*split_send=*/false);
  const ForwardRunResult staged =
      RunForwardWorkload(/*fuse=*/false, body_len, /*split_send=*/false);

  // The KV server sees the identical parcel either way.
  EXPECT_EQ(fused.kv_image, staged.kv_image);
  // KFUNC parity: k skb-chunk reclaims + 1 binder release on both arms, and
  // the socket probes fire the same skb ids in the same order.
  EXPECT_EQ(fused.kfuncs_run, staged.kfuncs_run);
  EXPECT_GT(fused.kfuncs_run, 1u);
  EXPECT_EQ(fused.probe, staged.probe);

  EXPECT_EQ(fused.fuse.forward_fused, 1u);
  EXPECT_EQ(fused.fuse.fallback_forward, 0u);
  EXPECT_EQ(staged.fuse.forward_fused, 0u);
}

TEST(ForwardFuse, PartialFrameDeclinesLosslessly) {
  const size_t body_len = 32 * kKiB + 7;
  const ForwardRunResult declined =
      RunForwardWorkload(/*fuse=*/true, body_len, /*split_send=*/true);
  const ForwardRunResult staged =
      RunForwardWorkload(/*fuse=*/false, body_len, /*split_send=*/true);

  // The decline rode the app-level path; nothing lost, nothing forwarded.
  EXPECT_EQ(declined.kv_image, staged.kv_image);
  EXPECT_EQ(declined.fuse.forward_fused, 0u);
  EXPECT_GE(declined.fuse.fallback_forward, 1u);
  // The landing itself still fused into the posted window.
  EXPECT_GE(declined.fuse.fused, 1u);
}

// Causality of the bypassed window: the forward's last reclaim KFUNC marks
// the proxy's window ready, so the window cannot be ready before the engine
// ran the reclaim KFUNCs — a waiter on it must not go on before they did.
// Shape: the bench_ipc_fuse pipeline-e2e 256 KiB forward-fused row.
TEST(ForwardFuse, BypassedWindowIsReadyNoEarlierThanItsReclaimKfuncs) {
  const ForwardRunResult fused =
      RunForwardWorkload(/*fuse=*/true, 256 * kKiB, /*split_send=*/false);
  ASSERT_EQ(fused.fuse.forward_fused, 1u);
  ASSERT_GT(fused.last_reclaim, 0u);
  EXPECT_GE(fused.window_ready, fused.last_reclaim)
      << "the proxy's window was marked ready before its reclaim KFUNCs ran";
}

// Prefix length == header length with page-aligned endpoints: the spliced
// source stays page-congruent with the destination window, so the payload
// interior is satisfied by the zero-copy remap tier — forwarded AND aliased.
TEST(ForwardFuse, RemapCongruentForwardAliasesInterior) {
  hw::TimingModel timing = hw::TimingModel::Default();
  // Make the alias unambiguously cheaper than one engine copy so the
  // bookkeeping-task cost gate cannot flip this test's outcome.
  timing.page_remap_cycles = 40;
  timing.tlb_shootdown_cycles = 100;
  simos::SimKernel::Config kconfig;
  kconfig.timing = &timing;
  simos::SimKernel kernel(kconfig);
  core::CopierService::Options options;
  options.config.enable_ipc_fuse = true;
  options.timing = &timing;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();
  simos::Process* client = kernel.CreateProcess("client");
  simos::Process* proxy = kernel.CreateProcess("proxy");
  simos::Process* kv = kernel.CreateProcess("kv");
  service.AttachProcess(client);
  service.AttachProcess(proxy);
  service.AttachProcess(kv);
  auto [tx, rx] = kernel.CreateSocketPair();
  simos::BinderDriver binder(&kernel);

  constexpr size_t kHdr = 16;
  const size_t body_len = 256 * kKiB;
  const size_t n = kHdr + body_len;
  auto src_or = client->mem().MapAnonymous(n, "src", true);
  auto pwin_or = proxy->mem().MapAnonymous(n, "proxy-win", true);
  auto kv_win_or = kv->mem().MapAnonymous(n, "kv-win", true);
  ASSERT_TRUE(src_or.ok() && pwin_or.ok() && kv_win_or.ok());
  std::vector<uint8_t> msg(n);
  std::memcpy(msg.data(), "HDR:0123456789ab", kHdr);
  for (size_t i = 0; i < body_len; ++i) {
    msg[kHdr + i] = static_cast<uint8_t>(i * 17 + 3);
  }
  ASSERT_TRUE(client->mem().WriteBytes(*src_or, msg.data(), n).ok());

  // Fixed-width header rewrite: the prefix is exactly as long as the header
  // it replaces, so src+body_off and the window stay page-congruent.
  auto rule = std::make_shared<simos::ForwardRule>();
  rule->endpoint = &binder;
  rule->inspect_limit = kHdr;
  rule->rewrite_cycles = 0;
  rule->rewrite = [body_len](const uint8_t* head, size_t head_len,
                             size_t total) -> std::optional<simos::ForwardAction> {
    if (head_len < kHdr || total != kHdr + body_len ||
        std::memcmp(head, "HDR:", 4) != 0) {
      return std::nullopt;
    }
    simos::ForwardAction action;
    action.body_off = kHdr;
    action.prefix.assign(head, head + kHdr);
    action.prefix[0] = 'V';
    action.prefix[1] = 'I';
    action.prefix[2] = 'A';
    return action;
  };
  rx->SetForwardRule(rule);

  core::Descriptor d2(n);
  ASSERT_TRUE(binder.PostReceive(*kv, *kv_win_or, n, &d2, nullptr).ok());
  core::Descriptor d1(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &d1;
  ASSERT_TRUE(kernel.PostRecv(*proxy, rx, *pwin_or, n, nullptr, ropts).ok());
  auto sent = kernel.Send(*client, tx, *src_or, n, nullptr);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  ASSERT_EQ(*sent, n);
  ASSERT_TRUE(core::WaitDescriptor(d1, 0, n, nullptr, [&] { service.DrainAll(); }).ok());
  ASSERT_TRUE(core::WaitDescriptor(d2, 0, n, nullptr, [&] { service.DrainAll(); }).ok());
  auto reaped = kernel.CompleteRecv(*proxy, rx, nullptr);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, n);

  std::vector<uint8_t> expected = msg;
  expected[0] = 'V';
  expected[1] = 'I';
  expected[2] = 'A';
  EXPECT_EQ(ReadAll(kv->mem(), *kv_win_or, n), expected);
  EXPECT_EQ(service.ipc_fuse_stats().forward_fused, 1u);
  const core::Engine::Stats stats = service.TotalStats();
  EXPECT_GT(stats.remapped_bytes, 0u);       // interior aliased, not moved
  EXPECT_LT(stats.avx_bytes, n);             // only header page + edges moved
}

// Posted-receive Parcel channel (apps layer) delivers identical strings in
// fused and ablated runs.
TEST(IpcFuseApps, PostedParcelChannelRoundTrip) {
  for (const bool fuse : {true, false}) {
    simos::SimKernel kernel;
    core::CopierService::Options options;
    options.config.enable_ipc_fuse = fuse;
    auto service = std::make_unique<core::CopierService>(std::move(options));
    core::CopierLinux glue(service.get(), &kernel);
    glue.Install();
    apps::AppProcess client(&kernel, service.get(), apps::Mode::kCopier, "client");
    apps::AppProcess server(&kernel, service.get(), apps::Mode::kCopier, "server");
    simos::BinderDriver binder(&kernel);
    apps::BinderParcelChannel channel(&binder, &client, &server, /*posted_receive=*/true);

    std::vector<std::string> strings;
    for (int i = 0; i < 12; ++i) {
      strings.push_back(std::string(100 + 400 * i, static_cast<char>('a' + i)));
    }
    auto result = channel.Call(strings, &client.ctx(), &server.ctx());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, strings);
    if (fuse) {
      EXPECT_GE(service->ipc_fuse_stats().fused, 1u);
      EXPECT_GT(service->TotalStats().fused_ipc_bytes, 0u);
    } else {
      EXPECT_EQ(service->TotalStats().fused_ipc_bytes, 0u);
    }
  }
}

}  // namespace
}  // namespace copier::test
