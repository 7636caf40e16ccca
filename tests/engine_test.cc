// Engine-level tests: cross-queue barriers (order dependency), out-of-order
// promotion, piggyback dispatch, ATCache, scheduler/cgroup fairness, and the
// threaded service mode.
#include "src/core/engine.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace copier::test {
namespace {

// recv() through the Copier backend: the kernel-submitted task (K: skb->U)
// and an app-submitted task (U->V) after the syscall must execute in order —
// this is exactly the A->B before B->C case of §4.2.1.
TEST(OrderDependency, KernelTaskBeforeDependentUserTask) {
  CopierStack stack;
  const size_t n = 8 * kKiB;
  simos::Process* peer_proc = stack.kernel->CreateProcess("peer");
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  auto peer_buf = peer_proc->mem().MapAnonymous(n, "peer", true);
  ASSERT_TRUE(peer_buf.ok());
  FillPattern(peer_proc->mem(), *peer_buf, n, 3);
  ASSERT_TRUE(stack.kernel->Send(*peer_proc, tx, *peer_buf, n, nullptr).ok());

  const uint64_t io_buf = stack.Map(n);
  const uint64_t dest = stack.Map(n);
  // Copier recv: kernel submits k-mode tasks with our descriptor.
  core::Descriptor* descriptor = stack.lib->pool().Acquire(n);
  simos::RecvOptions opts;
  opts.descriptor = descriptor;
  auto received = stack.kernel->Recv(*stack.proc, rx, io_buf, n, nullptr, opts);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, n);

  // Immediately chain a user-mode copy that reads the recv destination.
  stack.lib->amemcpy(dest, io_buf, n);
  ASSERT_TRUE(stack.lib->csync(dest, n).ok());
  EXPECT_EQ(ReadAll(stack.proc->mem(), dest, n), ReadAll(peer_proc->mem(), *peer_buf, n));
  EXPECT_GE(stack.service->TotalStats().barriers_processed, 2u);  // enter+exit
  stack.lib->pool().Release(descriptor);
}

TEST(OrderDependency, UserTasksBeforeSyscallStayBeforeKernelBatch) {
  CopierStack stack;
  const size_t n = 4 * kKiB;
  const uint64_t a = stack.Map(n);
  const uint64_t b = stack.Map(n);
  FillPattern(stack.proc->mem(), a, n, 8);

  // U task first (not yet served), then a syscall that submits k tasks
  // *reading the same user range* (send of b... use send of `a` so the k task
  // reads what U wrote: U: a->b, K: send(b)).
  stack.lib->amemcpy(b, a, n);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  ASSERT_TRUE(stack.kernel->Send(*stack.proc, tx, b, n, nullptr).ok());
  stack.service->DrainAll();

  // The peer must observe a's bytes: the k-mode send copy happened after the
  // u-mode a->b copy.
  const uint64_t out = stack.Map(n);
  auto received = stack.kernel->Recv(*stack.proc, rx, out, n, nullptr);
  ASSERT_TRUE(received.ok());
  stack.service->DrainAll();  // flush the descriptor-less recv k-task too
  ASSERT_TRUE(stack.lib->csync_all().ok());
  ExpectSameBytes(stack.proc->mem(), a, out, n);
}

TEST(Promotion, SyncTaskOvertakesHeadOfLine) {
  // Queue a large copy, then a small one; csync the small one. With
  // out-of-order execution the small task's data must be correct even though
  // the big task is still ahead in FIFO order.
  core::CopierConfig config;
  config.copy_slice_bytes = 1;  // effectively disable FIFO auto-drain per pump
  CopierStack stack(config);
  const size_t big = 256 * kKiB;
  const size_t small = 4 * kKiB;
  const uint64_t big_src = stack.Map(big);
  const uint64_t big_dst = stack.Map(big);
  const uint64_t small_src = stack.Map(small);
  const uint64_t small_dst = stack.Map(small);
  FillPattern(stack.proc->mem(), big_src, big, 1);
  FillPattern(stack.proc->mem(), small_src, small, 2);

  stack.lib->amemcpy(big_dst, big_src, big);
  stack.lib->amemcpy(small_dst, small_src, small);
  ASSERT_TRUE(stack.lib->csync(small_dst, small).ok());
  ExpectSameBytes(stack.proc->mem(), small_src, small_dst, small);
  EXPECT_GE(stack.service->TotalStats().sync_promotions, 1u);
  ASSERT_TRUE(stack.lib->csync_all().ok());
  ExpectSameBytes(stack.proc->mem(), big_src, big_dst, big);
}

TEST(Dispatch, LargeTaskUsesBothUnits) {
  core::CopierConfig config;
  config.enable_remap_tier = false;  // force bytes onto the AVX+DMA path
  CopierStack stack(config);
  const size_t n = 256 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  // A warming copy first: translation is priced in the split, and a cold
  // page owes DMA two walks, more than copying it on the CPU.
  FillPattern(stack.proc->mem(), src, n, 4);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  const core::Engine::Stats warm = stack.service->TotalStats();
  FillPattern(stack.proc->mem(), src, n, 5);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  core::Engine::Stats stats = stack.service->TotalStats();
  stats.dma_bytes_completed -= warm.dma_bytes_completed;
  stats.dma_bytes_submitted -= warm.dma_bytes_submitted;
  stats.avx_bytes -= warm.avx_bytes;
  EXPECT_GT(stats.dma_bytes_completed, 0u) << "i-piggyback should offload part to DMA";
  EXPECT_GT(stats.avx_bytes, 0u);
  EXPECT_EQ(stats.dma_bytes_completed + stats.avx_bytes, n);
  EXPECT_EQ(stats.dma_bytes_submitted, stats.dma_bytes_completed)
      << "after csync every submitted byte has landed";
  ExpectSameBytes(stack.proc->mem(), src, dst, n);
}

TEST(Dispatch, EPiggybackFusesSmallAdjacentTasks) {
  CopierStack stack;
  const size_t n = 4 * kKiB;
  std::vector<std::pair<uint64_t, uint64_t>> copies;
  for (int i = 0; i < 6; ++i) {
    const uint64_t src = stack.Map(n);
    const uint64_t dst = stack.Map(n);
    FillPattern(stack.proc->mem(), src, n, 60 + i);
    copies.emplace_back(src, dst);
  }
  // A warming pass first (cold pages keep a one-shot round on the CPU).
  for (const auto& [src, dst] : copies) {
    stack.lib->amemcpy(dst, src, n);
  }
  stack.service->DrainAll();
  for (size_t i = 0; i < copies.size(); ++i) {
    FillPattern(stack.proc->mem(), copies[i].first, n, 70 + i);
  }
  for (const auto& [src, dst] : copies) {
    stack.lib->amemcpy(dst, src, n);
  }
  stack.service->DrainAll();
  const core::Engine::Stats stats = stack.service->TotalStats();
  // Several 4 KiB tasks fused into rounds: DMA participated even though each
  // task is below the 12 KiB i-piggyback threshold.
  EXPECT_GT(stats.dma_bytes_completed, 0u);
  for (const auto& [src, dst] : copies) {
    ExpectSameBytes(stack.proc->mem(), src, dst, n);
  }
}

TEST(Dispatch, DmaDisabledUsesAvxOnly) {
  core::CopierConfig config;
  config.use_dma = false;
  CopierStack stack(config);
  const size_t n = 128 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 6);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  EXPECT_EQ(stack.service->TotalStats().dma_bytes_submitted, 0u);
  ExpectSameBytes(stack.proc->mem(), src, dst, n);
}

TEST(Dispatch, FragmentedMemorySplitsSubtasks) {
  // Fragmented physical allocation breaks contiguity: copies still correct.
  CopierStack stack({}, simos::PhysicalMemory::AllocPolicy::kFragmented);
  const size_t n = 64 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 9);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  ExpectSameBytes(stack.proc->mem(), src, dst, n);
}

TEST(ATCacheTest, HitsOnBufferReuse) {
  core::CopierConfig config;
  config.enable_remap_tier = false;  // reused translations need moved bytes
  CopierStack stack(config);
  const size_t n = 16 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 4);
  for (int round = 0; round < 8; ++round) {
    stack.lib->amemcpy(dst, src, n);
    ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  }
  const auto& cache = stack.service->engine().atcache();
  EXPECT_GT(cache.hits(), cache.misses());
}

TEST(ATCacheTest, InvalidationOnUnmap) {
  CopierStack stack;
  stack.service->engine().atcache().Attach(stack.proc->mem());
  const size_t n = 8 * kKiB;
  const uint64_t src = stack.Map(n);
  uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 4);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  // Unmap dst; the stale translation must not be reused for a new mapping.
  ASSERT_TRUE(stack.proc->mem().Unmap(dst, n).ok());
  const uint64_t dst2 = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 14);
  stack.lib->amemcpy(dst2, src, n);
  ASSERT_TRUE(stack.lib->csync(dst2, n).ok());
  ExpectSameBytes(stack.proc->mem(), src, dst2, n);
}

// The extent cache, driven directly: host pointers come from one buffer, so
// pages at adjacent offsets are host-contiguous.
class ATCacheExtentTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kAsid = 7;
  static constexpr uint64_t kVa = 0x40000000;

  uint64_t Va(size_t page) const { return kVa + page * kPageSize; }
  uint8_t* Host(size_t page) { return frames_.data() + page * kPageSize; }

  core::ATCache cache_;
  std::vector<uint8_t> frames_ = std::vector<uint8_t>(8 * kPageSize);
};

TEST_F(ATCacheExtentTest, ContiguousPagesMergeAndOneLookupAnswersTheRun) {
  for (size_t page : {2, 0, 3, 1}) {  // out of order: both neighbours merge
    cache_.Insert(kAsid, Va(page), Host(page), /*writable=*/true);
  }
  auto hit = cache_.Lookup(kAsid, Va(0), /*for_write=*/true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->host, Host(0));
  EXPECT_EQ(hit->length, 4 * kPageSize);
  hit = cache_.Lookup(kAsid, Va(1) + 100, /*for_write=*/false);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->host, Host(1) + 100);
  EXPECT_EQ(hit->length, 3 * kPageSize - 100);
  EXPECT_EQ(cache_.hits(), 2u);

  // A page whose frame is not host-contiguous starts its own extent.
  cache_.Insert(kAsid, Va(4), Host(6), /*writable=*/true);
  hit = cache_.Lookup(kAsid, Va(0), /*for_write=*/true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->length, 4 * kPageSize);
  hit = cache_.Lookup(kAsid, Va(4), /*for_write=*/true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->host, Host(6));
  EXPECT_EQ(hit->length, kPageSize);
}

TEST_F(ATCacheExtentTest, InvalidatingAMiddlePageSplitsTheExtent) {
  for (size_t page = 0; page < 5; ++page) {
    cache_.Insert(kAsid, Va(page), Host(page), /*writable=*/true);
  }
  cache_.Invalidate(kAsid, Va(2) + 10, 1);
  auto left = cache_.Lookup(kAsid, Va(0), /*for_write=*/true);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->length, 2 * kPageSize);
  EXPECT_FALSE(cache_.Lookup(kAsid, Va(2), /*for_write=*/false).has_value());
  auto right = cache_.Lookup(kAsid, Va(3), /*for_write=*/true);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->host, Host(3));
  EXPECT_EQ(right->length, 2 * kPageSize);
  EXPECT_EQ(cache_.misses(), 1u);

  // Walking the page again rejoins both halves.
  cache_.Insert(kAsid, Va(2), Host(2), /*writable=*/true);
  EXPECT_EQ(cache_.WritableBytes(kAsid, Va(0)), 5 * kPageSize);
}

TEST_F(ATCacheExtentTest, ReadOnlyExtentNeverServesWritesNorMergesWithWritable) {
  cache_.Insert(kAsid, Va(0), Host(0), /*writable=*/true);
  cache_.Insert(kAsid, Va(1), Host(1), /*writable=*/false);
  cache_.Insert(kAsid, Va(2), Host(2), /*writable=*/true);
  EXPECT_EQ(cache_.WritableBytes(kAsid, Va(0)), kPageSize);
  EXPECT_EQ(cache_.WritableBytes(kAsid, Va(1)), 0u);
  EXPECT_EQ(cache_.WritableBytes(kAsid, Va(2)), kPageSize);
  EXPECT_FALSE(cache_.Lookup(kAsid, Va(1), /*for_write=*/true).has_value());
  auto read = cache_.Lookup(kAsid, Va(1), /*for_write=*/false);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->host, Host(1));
  EXPECT_EQ(read->length, kPageSize);

  // A write walk (CoW break) replaces the read-only page and then merges.
  cache_.Insert(kAsid, Va(1), Host(1), /*writable=*/true);
  EXPECT_EQ(cache_.WritableBytes(kAsid, Va(0)), 3 * kPageSize);
}

TEST_F(ATCacheExtentTest, WholeSpaceInvalidationDropsOnlyThatAsid) {
  for (size_t page = 0; page < 2; ++page) {
    cache_.Insert(kAsid, Va(page), Host(page), /*writable=*/true);
    cache_.Insert(kAsid + 1, Va(page), Host(page + 4), /*writable=*/true);
  }
  cache_.Invalidate(kAsid, 0, SIZE_MAX);
  EXPECT_FALSE(cache_.Lookup(kAsid, Va(0), /*for_write=*/false).has_value());
  EXPECT_FALSE(cache_.Lookup(kAsid, Va(1), /*for_write=*/false).has_value());
  auto other = cache_.Lookup(kAsid + 1, Va(0), /*for_write=*/true);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->host, Host(4));
  EXPECT_EQ(other->length, 2 * kPageSize);
}

// The DMA side pays one probe per cached extent per side. On fragmented
// frames every extent is one page, so a warm copy pays the per-page price —
// one probe per DMA page per side; on sequential frames the same copy pays
// one probe per side.
TEST(ATCacheTest, DmaTranslationChargeIsPerExtent) {
  const size_t n = 64 * kKiB;
  const auto warm_charge = [n](simos::PhysicalMemory::AllocPolicy policy, uint64_t* dma_bytes) {
    core::CopierConfig config;
    config.enable_remap_tier = false;  // measure moved bytes
    CopierStack stack(config, policy);
    const uint64_t src = stack.Map(n);
    const uint64_t dst = stack.Map(n);
    FillPattern(stack.proc->mem(), src, n, 5);
    stack.lib->amemcpy(dst, src, n);  // warm-up: populate the ATCache
    EXPECT_TRUE(stack.lib->csync(dst, n).ok());
    const core::Engine::Stats before = stack.service->TotalStats();
    stack.lib->amemcpy(dst, src, n);
    EXPECT_TRUE(stack.lib->csync(dst, n).ok());
    ExpectSameBytes(stack.proc->mem(), src, dst, n);
    const core::Engine::Stats after = stack.service->TotalStats();
    *dma_bytes = after.dma_bytes_submitted - before.dma_bytes_submitted;
    return after.translate_cycles - before.translate_cycles;
  };
  const hw::TimingModel& t = hw::TimingModel::Default();
  uint64_t dma_bytes = 0;
  const uint64_t fragmented =
      warm_charge(simos::PhysicalMemory::AllocPolicy::kFragmented, &dma_bytes);
  ASSERT_GT(dma_bytes, 0u);
  ASSERT_EQ(dma_bytes % kPageSize, 0u);
  EXPECT_EQ(fragmented, 2 * (dma_bytes / kPageSize) * t.atcache_hit_cycles);
  const uint64_t sequential =
      warm_charge(simos::PhysicalMemory::AllocPolicy::kSequential, &dma_bytes);
  ASSERT_GT(dma_bytes, kPageSize);
  EXPECT_EQ(sequential, 2 * t.atcache_hit_cycles);
}

TEST(Scheduler, CopyLengthFairnessAcrossClients) {
  // Two clients, equal shares: served bytes should balance even though one
  // submits much larger tasks.
  CopierStack stack;
  simos::Process* proc2 = stack.kernel->CreateProcess("p2");
  core::Client* client2 = stack.service->AttachProcess(proc2);
  lib::CopierLib lib2(client2, stack.service.get());

  const size_t small = 16 * kKiB;
  const size_t big = 64 * kKiB;
  auto src1 = stack.Map(small * 8);
  auto dst1 = stack.Map(small * 8);
  auto src2 = proc2->mem().MapAnonymous(big * 8, "s2", true);
  auto dst2 = proc2->mem().MapAnonymous(big * 8, "d2", true);
  ASSERT_TRUE(src2.ok() && dst2.ok());
  for (int i = 0; i < 8; ++i) {
    stack.lib->amemcpy(dst1 + i * small, src1 + i * small, small);
    lib2.amemcpy(*dst2 + i * big, *src2 + i * big, big);
  }
  // After the first few scheduling rounds, the lighter client must not be
  // starved: it should reach completion no later than the heavy one.
  uint64_t rounds_to_finish_small = 0;
  while (stack.client->HasQueuedWork()) {
    stack.service->RunOnce();
    ++rounds_to_finish_small;
    ASSERT_LT(rounds_to_finish_small, 1000u);
  }
  EXPECT_TRUE(client2->HasQueuedWork()) << "heavy client should still have work";
  stack.service->DrainAll();
  EXPECT_TRUE(stack.lib->csync_all().ok());
  EXPECT_TRUE(lib2.csync_all().ok());
}

TEST(CgroupTest, SharesBiasService) {
  core::CopierConfig cg_config;
  cg_config.copy_slice_bytes = 32 * kKiB;  // small slices: observe shares mid-flight
  CopierStack stack(cg_config);
  core::Cgroup* gold = stack.service->CreateCgroup("gold", 4096);
  core::Cgroup* bronze = stack.service->CreateCgroup("bronze", 256);

  simos::Process* pg = stack.kernel->CreateProcess("gold");
  simos::Process* pb = stack.kernel->CreateProcess("bronze");
  core::Client* cg = stack.service->AttachProcess(pg, gold);
  core::Client* cb = stack.service->AttachProcess(pb, bronze);
  lib::CopierLib lg(cg, stack.service.get());
  lib::CopierLib lb(cb, stack.service.get());

  const size_t n = 32 * kKiB;
  auto sg = pg->mem().MapAnonymous(n * 16, "sg", true);
  auto dg = pg->mem().MapAnonymous(n * 16, "dg", true);
  auto sb = pb->mem().MapAnonymous(n * 16, "sb", true);
  auto db = pb->mem().MapAnonymous(n * 16, "db", true);
  ASSERT_TRUE(sg.ok() && dg.ok() && sb.ok() && db.ok());
  for (int i = 0; i < 16; ++i) {
    lg.amemcpy(*dg + i * n, *sg + i * n, n);
    lb.amemcpy(*db + i * n, *sb + i * n, n);
  }
  // Run a limited number of scheduling rounds (while both cgroups still have
  // queued work); the gold cgroup must receive proportionally more service.
  for (int i = 0; i < 16; ++i) {
    stack.service->RunOnce();
  }
  EXPECT_TRUE(cg->HasQueuedWork() || cb->HasQueuedWork());
  EXPECT_GE(gold->total_bytes(), 2 * bronze->total_bytes());
  stack.service->DrainAll();
  EXPECT_TRUE(lg.csync_all().ok());
  EXPECT_TRUE(lb.csync_all().ok());
}

TEST(ThreadedService, RealThreadsServeCopies) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.min_threads = 1;
  options.config.max_threads = 2;
  core::CopierService service(std::move(options));
  service.Start();

  simos::Process* proc = kernel.CreateProcess("t");
  core::Client* client = service.AttachProcess(proc);
  lib::CopierLib lib(client, &service);

  const size_t n = 64 * kKiB;
  auto src = proc->mem().MapAnonymous(n, "s", true);
  auto dst = proc->mem().MapAnonymous(n, "d", true);
  ASSERT_TRUE(src.ok() && dst.ok());
  for (int round = 0; round < 20; ++round) {
    FillPattern(proc->mem(), *src, n, 100 + round);
    lib.amemcpy(*dst, *src, n);
    ASSERT_TRUE(lib.csync(*dst, n).ok());
    ExpectSameBytes(proc->mem(), *src, *dst, n);
  }
  service.Stop();
}

TEST(ThreadedService, ScenarioDrivenPollingOnlyServesDuringScenario) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.poll_mode = core::CopierConfig::PollMode::kScenarioDriven;
  core::CopierService service(std::move(options));
  service.Start();

  simos::Process* proc = kernel.CreateProcess("t");
  core::Client* client = service.AttachProcess(proc);
  lib::CopierLib lib(client, &service);
  const size_t n = 8 * kKiB;
  auto src = proc->mem().MapAnonymous(n, "s", true);
  auto dst = proc->mem().MapAnonymous(n, "d", true);
  ASSERT_TRUE(src.ok() && dst.ok());
  FillPattern(proc->mem(), *src, n, 1);

  lib.amemcpy(*dst, *src, n);
  // Without an active scenario, threads are parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(client->HasQueuedWork());

  service.ScenarioBegin();
  ASSERT_TRUE(lib.csync(*dst, n).ok());
  ExpectSameBytes(proc->mem(), *src, *dst, n);
  service.ScenarioEnd();
  service.Stop();
}

TEST(Breakeven, TaskSubmissionCheaperThanKernelCopyAbove300B) {
  // §4.6: async pays off when copy time exceeds submit+csync cost.
  const auto& t = hw::TimingModel::Default();
  const Cycles async_overhead = t.task_submit_cycles + t.csync_check_cycles;
  EXPECT_GT(t.CpuCopyCycles(hw::CopyUnitKind::kErms, 512), async_overhead);
  EXPECT_LT(t.CpuCopyCycles(hw::CopyUnitKind::kErms, 64), async_overhead);
}

}  // namespace
}  // namespace copier::test
