// Non-blocking multi-channel DMA (DESIGN.md §9): channel-pool unit tests,
// parking/reaping behavior, and the async-vs-blocking differential — the
// multi-channel asynchronous engine must land byte-identical images and the
// same per-stream handler order as the single-channel blocking baseline over
// randomized scatter-gather workloads with overlaps, mid-flight aborts and
// barrier-forced drains.
#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hw/dma_channel_pool.h"
#include "tests/test_util.h"

namespace copier::test {
namespace {

using hw::DmaChannelPool;
using hw::DmaDescriptor;

// ---------------------------------------------------------------------------
// DmaChannelPool unit tests
// ---------------------------------------------------------------------------

TEST(DmaChannelPool, PicksLeastBusyChannel) {
  std::vector<uint8_t> src(16 * kKiB, 0xab), dst(16 * kKiB);
  DmaChannelPool pool(&hw::TimingModel::Default(), /*channels=*/4);
  ASSERT_EQ(pool.channel_count(), 4u);

  // Load channel 0 with a long transfer; the next pick must avoid it.
  const DmaDescriptor big{dst.data(), src.data(), 16 * kKiB};
  const size_t first = pool.PickChannel(1);
  ASSERT_LT(first, pool.channel_count());
  ASSERT_TRUE(pool.SubmitOn(first, std::span(&big, 1), /*now=*/0).ok());
  const size_t second = pool.PickChannel(1);
  ASSERT_LT(second, pool.channel_count());
  EXPECT_NE(second, first);
  EXPECT_LT(pool.channel(second).busy_until(), pool.channel(first).busy_until());
}

TEST(DmaChannelPool, SubmissionRecordsChannelAndCompletion) {
  std::vector<uint8_t> src(8 * kKiB, 0x5c), dst(8 * kKiB);
  DmaChannelPool pool(&hw::TimingModel::Default(), /*channels=*/2);
  const DmaDescriptor d{dst.data(), src.data(), 8 * kKiB};
  auto sub = pool.SubmitOn(1, std::span(&d, 1), /*now=*/100);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->channel, 1u);
  // The record matches the channel's own view, so the parker never has to
  // query the channel again.
  EXPECT_EQ(sub->completion_time, pool.channel(1).CompletionTime(sub->cookie));
  EXPECT_EQ(sub->completion_time, pool.channel(1).busy_until());
  EXPECT_EQ(dst, src);  // data moves eagerly at submission
}

TEST(DmaChannelPool, FullRingsRejectAndSignalFallback) {
  std::vector<uint8_t> src(kKiB, 1), dst(kKiB);
  DmaChannelPool pool(&hw::TimingModel::Default(), /*channels=*/2, /*ring_slots=*/1);
  const DmaDescriptor d{dst.data(), src.data(), kKiB};
  ASSERT_TRUE(pool.SubmitOn(0, std::span(&d, 1), 0).ok());
  ASSERT_TRUE(pool.SubmitOn(1, std::span(&d, 1), 0).ok());
  // Every ring is full: the pick signals the CPU fallback...
  EXPECT_EQ(pool.PickChannel(1), pool.channel_count());
  // ...and a forced submission bounces with kUnavailable (per channel, not
  // per pool).
  EXPECT_FALSE(pool.SubmitOn(0, std::span(&d, 1), 0).ok());
  // Retiring the in-flight batches frees the rings.
  pool.Poll(pool.busy_until());
  EXPECT_LT(pool.PickChannel(1), pool.channel_count());
}

TEST(DmaChannelPool, SingleChannelPoolMatchesRawEngine) {
  // A pool of one is bit-for-bit the old single-engine dispatcher: same
  // cookie sequence, same completion times, same costs.
  std::vector<uint8_t> src(32 * kKiB, 7), dst_a(32 * kKiB), dst_b(32 * kKiB);
  const auto& model = hw::TimingModel::Default();
  DmaChannelPool pool(&model, /*channels=*/1);
  hw::DmaEngine raw(&model);
  Cycles now = 17;
  for (size_t len : {4 * kKiB, 16 * kKiB, 32 * kKiB}) {
    const DmaDescriptor pd{dst_a.data(), src.data(), len};
    const DmaDescriptor rd{dst_b.data(), src.data(), len};
    auto sub = pool.SubmitOn(0, std::span(&pd, 1), now);
    auto cookie = raw.SubmitBatch(std::span(&rd, 1), now);
    ASSERT_TRUE(sub.ok() && cookie.ok());
    EXPECT_EQ(sub->cookie, *cookie);
    EXPECT_EQ(sub->completion_time, raw.CompletionTime(*cookie));
    now += 1000;
  }
  EXPECT_EQ(pool.SubmissionCost(3), raw.SubmissionCost(3));
}

// ---------------------------------------------------------------------------
// Engine parking and reaping
// ---------------------------------------------------------------------------

TEST(AsyncDma, RoundsParkAndStallsDisappear) {
  core::CopierConfig config;  // defaults: 4 channels, async completion on
  config.enable_remap_tier = false;  // force bytes onto the DMA path
  CopierStack stack(config);
  const size_t n = 512 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  // A warming copy first: translation is priced in the split, and a cold
  // page owes DMA two walks, more than copying it on the CPU.
  FillPattern(stack.proc->mem(), src, n, 10);
  stack.lib->amemcpy(dst, src, n);
  stack.service->DrainAll();
  ASSERT_TRUE(stack.lib->csync_all().ok());
  FillPattern(stack.proc->mem(), src, n, 11);
  stack.lib->amemcpy(dst, src, n);
  stack.service->DrainAll();
  ASSERT_TRUE(stack.lib->csync_all().ok());
  ExpectSameBytes(stack.proc->mem(), src, dst, n);

  const auto stats = stack.service->TotalStats();
  EXPECT_GT(stats.dma_rounds_parked, 0u) << "rounds should return with DMA in flight";
  EXPECT_EQ(stats.dma_stall_cycles, 0u) << "async mode never blocks at end of round";
  EXPECT_EQ(stats.dma_bytes_submitted, stats.dma_bytes_completed);
  EXPECT_EQ(stats.dma_batches_submitted, stats.dma_batches_completed);
}

TEST(AsyncDma, BlockingAblationRestoresEndOfRoundWaits) {
  core::CopierConfig config;
  config.dma_channel_count = 1;
  config.enable_async_dma_completion = false;
  config.enable_remap_tier = false;  // force bytes onto the DMA path
  CopierStack stack(config);
  // The planner balances the CPU copies against the DMA tail one 16 KiB
  // subtask at a time, so whether a round's best split ends with the tail
  // still in flight depends on its size: copy a few sizes. Each copy runs
  // twice — translation is priced in the split and a cold page owes DMA two
  // walks, so a cold one-shot round stays on the CPU.
  const size_t max = 512 * kKiB + 3 * 16 * kKiB;
  const uint64_t src = stack.Map(max);
  const uint64_t dst = stack.Map(max);
  for (size_t n = 512 * kKiB; n <= max; n += 16 * kKiB) {
    for (uint64_t seed : {12 + n, 13 + n}) {
      FillPattern(stack.proc->mem(), src, n, seed);
      stack.lib->amemcpy(dst, src, n);
      ASSERT_TRUE(stack.lib->csync(dst, n).ok());
      ExpectSameBytes(stack.proc->mem(), src, dst, n);
    }
  }

  const auto stats = stack.service->TotalStats();
  EXPECT_GT(stats.dma_bytes_completed, 0u);
  EXPECT_EQ(stats.dma_rounds_parked, 0u);
  EXPECT_GT(stats.dma_stall_cycles, 0u) << "blocking mode waits out the DMA tail";
  EXPECT_EQ(stats.dma_drain_wait_cycles, 0u) << "nothing is ever parked to drain";
}

TEST(AsyncDma, MultiChannelShortensLargeCopyMakespan) {
  // The same large copy, 1 channel vs 4: more channels means the round's DMA
  // share splits across rings and the makespan shrinks. Measured on a warm
  // ATCache — on the first pass every offloaded page pays a cold ~240-cycle
  // walk, which cancels the offload win; steady state is what the channel
  // count buys. (The ≥1.5x scaling acceptance number lives in
  // bench_dma_channels, measured over a longer run; here we assert strict
  // improvement to stay robust.)
  auto elapsed = [](size_t channels) {
    core::CopierConfig config;
    config.dma_channel_count = channels;
    config.enable_remap_tier = false;  // force bytes onto the DMA path
    CopierStack stack(config);
    const size_t n = 4 * kMiB;
    const uint64_t src = stack.Map(n);
    const uint64_t dst = stack.Map(n);
    FillPattern(stack.proc->mem(), src, n, 21);
    stack.lib->amemcpy(dst, src, n);  // warm-up: populate the ATCache
    EXPECT_TRUE(stack.lib->csync(dst, n).ok());
    FillPattern(stack.proc->mem(), src, n, 22);
    const Cycles start = stack.service->engine_ctx().now();
    stack.lib->amemcpy(dst, src, n);
    EXPECT_TRUE(stack.lib->csync(dst, n).ok());
    ExpectSameBytes(stack.proc->mem(), src, dst, n);
    return stack.service->engine_ctx().now() - start;
  };
  const Cycles one = elapsed(1);
  const Cycles four = elapsed(4);
  EXPECT_LT(four, one) << "4 channels must beat 1 on a large contiguous copy";
}

TEST(AsyncDma, RingFullFallbackCountsAndStaysCorrect) {
  core::CopierConfig config;
  config.dma_channel_count = 1;
  config.dma_ring_slots = 1;  // one in-flight batch: the next round bounces
  config.enable_remap_tier = false;  // force bytes onto the DMA path
  // Fragmented frames keep every subtask its own descriptor, so a round's
  // batch outgrows the 1-slot ring (host-contiguous copies coalesce into one
  // descriptor per channel and would always fit).
  CopierStack stack(config, simos::PhysicalMemory::AllocPolicy::kFragmented);
  const size_t n = 256 * kKiB;
  std::vector<std::pair<uint64_t, uint64_t>> copies;
  for (int i = 0; i < 4; ++i) {
    const uint64_t src = stack.Map(n);
    const uint64_t dst = stack.Map(n);
    FillPattern(stack.proc->mem(), src, n, 30 + i);
    copies.emplace_back(src, dst);
    stack.lib->amemcpy(dst, src, n);
  }
  stack.service->DrainAll();
  ASSERT_TRUE(stack.lib->csync_all().ok());
  for (const auto& [src, dst] : copies) {
    ExpectSameBytes(stack.proc->mem(), src, dst, n);
  }
  const auto stats = stack.service->TotalStats();
  EXPECT_GT(stats.dma_ring_full_fallbacks, 0u)
      << "with a 1-slot ring, parked rounds must bounce follow-up submissions";
}

// ---------------------------------------------------------------------------
// Randomized differential: async multi-channel vs blocking single-channel
// ---------------------------------------------------------------------------

struct DiffResult {
  std::vector<uint8_t> image;   // final arena bytes (abort targets excluded)
  std::vector<uint8_t> stream;  // socket bytes in delivery order
  uint64_t kfuncs_run = 0;
};

// Replays one pseudo-random workload: overlapping copies into a shared arena,
// partial serving passes that leave rounds parked, aborts aimed at a separate
// scratch region (abort outcomes are timing-dependent by design, so their
// destinations stay out of the comparison), csync barriers that force drains,
// and socket traffic whose received byte order *is* the kfunc firing order.
DiffResult RunDifferentialWorkload(core::CopierConfig config, bool vectored, uint64_t seed) {
  config.enable_vectored_submit = vectored;
  CopierStack stack(config);
  const size_t kArena = 256 * kKiB;
  const uint64_t arena = stack.Map(kArena, "arena");
  const uint64_t scratch = stack.Map(kArena, "scratch");
  const uint64_t source = stack.Map(kArena, "source");
  FillPattern(stack.proc->mem(), arena, kArena, seed);
  FillPattern(stack.proc->mem(), scratch, kArena, seed + 1);
  FillPattern(stack.proc->mem(), source, kArena, seed + 2);

  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  const size_t kStreamCap = 512 * kKiB;
  auto peer_buf = peer->mem().MapAnonymous(kStreamCap, "peer", true);
  EXPECT_TRUE(peer_buf.ok());

  DiffResult result;
  Rng rng(seed * 977 + 3);
  size_t sent = 0;
  size_t received = 0;
  auto rand_range = [&](size_t limit) {
    const size_t off = rng.Next() % (kArena - 64);
    const size_t len = 64 + rng.Next() % std::min<size_t>(limit, kArena - off - 64);
    return std::make_pair(off, len);
  };

  for (int op = 0; op < 160; ++op) {
    switch (rng.Next() % 8) {
      case 0:
      case 1: {  // overlapping copy within the arena (WAW/absorption chains)
        auto [doff, len] = rand_range(32 * kKiB);
        const size_t soff = rng.Next() % (kArena - len);
        stack.lib->amemcpy(arena + doff, arena + soff, len);
        break;
      }
      case 2: {  // fresh bytes into the arena
        auto [doff, len] = rand_range(48 * kKiB);
        stack.lib->amemcpy(arena + doff, source + (rng.Next() % (kArena - len)), len);
        break;
      }
      case 3: {  // partial pump: leaves the tail of a round parked in flight
        stack.service->RunOnce();
        break;
      }
      case 4: {  // copy into scratch, then maybe abort it mid-flight
        auto [doff, len] = rand_range(32 * kKiB);
        stack.lib->amemcpy(scratch + doff, source + (rng.Next() % (kArena - len)), len);
        if (rng.Next() % 2 == 0) {
          stack.service->RunOnce();
          stack.lib->abort_range(scratch + doff, len);
        }
        break;
      }
      case 5: {  // barrier-forced drain of in-flight bytes (§4.2.1)
        auto [doff, len] = rand_range(64 * kKiB);
        EXPECT_TRUE(stack.lib->csync(arena + doff, len).ok());
        break;
      }
      case 6: {  // socket send: delivery order = handler firing order
        const size_t len = 4 * kKiB + rng.Next() % (28 * kKiB);
        if (sent + len <= kStreamCap) {
          auto ok = stack.kernel->Send(*stack.proc, tx,
                                       source + (rng.Next() % (kArena - len)), len, nullptr);
          EXPECT_TRUE(ok.ok());
          if (ok.ok()) {
            sent += *ok;
          }
        }
        break;
      }
      case 7: {  // receive whatever has been delivered so far
        stack.service->DrainAll();
        if (received < sent) {
          auto got = stack.kernel->Recv(*peer, rx, *peer_buf + received, sent - received,
                                        nullptr);
          EXPECT_TRUE(got.ok());
          received += *got;
        }
        break;
      }
    }
  }
  stack.service->DrainAll();
  for (int i = 0; i < 64 && received < sent; ++i) {
    auto got = stack.kernel->Recv(*peer, rx, *peer_buf + received, sent - received, nullptr);
    EXPECT_TRUE(got.ok());
    if (!got.ok()) {
      break;
    }
    received += *got;
    stack.service->DrainAll();
  }
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(stack.lib->csync_all().ok());
  stack.service->DrainAll();

  result.image = ReadAll(stack.proc->mem(), arena, kArena);
  result.stream = ReadAll(peer->mem(), *peer_buf, received);
  result.kfuncs_run = stack.service->TotalStats().kfuncs_run;
  return result;
}

class AsyncDmaDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(AsyncDmaDifferential, MatchesBlockingSingleChannelBitForBit) {
  const bool vectored = GetParam();
  for (uint64_t seed : {1u, 7u, 23u}) {
    core::CopierConfig async_cfg;
    async_cfg.dma_channel_count = 4;
    async_cfg.enable_async_dma_completion = true;
    core::CopierConfig blocking_cfg;
    blocking_cfg.dma_channel_count = 1;
    blocking_cfg.enable_async_dma_completion = false;

    const DiffResult a = RunDifferentialWorkload(async_cfg, vectored, seed);
    const DiffResult b = RunDifferentialWorkload(blocking_cfg, vectored, seed);
    EXPECT_EQ(a.image, b.image) << "arena image diverged, seed " << seed;
    // Socket bytes arrive in per-skb handler order: identical streams prove
    // the async engine fires completion kfuncs in the blocking engine's
    // per-stream order.
    EXPECT_EQ(a.stream, b.stream) << "stream order diverged, seed " << seed;
    EXPECT_EQ(a.kfuncs_run, b.kfuncs_run) << "handler counts diverged, seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(VectoredAndPerOp, AsyncDmaDifferential, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "vectored" : "per_op";
                         });

// A memmove-style amemcpy (source and destination overlap in one space) moves
// its bytes on the CPU in subtask order: DMA would move the tail's bytes at
// submission, before the AVX head reads them, so the image would depend on
// the channel count. Every DMA configuration lands the no-DMA image.
TEST(AsyncDma, SelfOverlappingCopyStaysOnTheCpu) {
  const auto run = [](size_t channels, bool async, bool use_dma) {
    core::CopierConfig config;
    config.dma_channel_count = channels;
    config.enable_async_dma_completion = async;
    config.use_dma = use_dma;
    CopierStack stack(config);
    const size_t n = 64 * kKiB;
    const size_t shift = 8 * kKiB;
    const uint64_t buf = stack.Map(n + shift);
    FillPattern(stack.proc->mem(), buf, n + shift, 77);
    stack.lib->amemcpy(buf + shift, buf, n);
    stack.service->DrainAll();
    EXPECT_TRUE(stack.lib->csync_all().ok());
    EXPECT_EQ(stack.service->TotalStats().dma_bytes_submitted, 0u);
    return ReadAll(stack.proc->mem(), buf, n + shift);
  };
  const std::vector<uint8_t> cpu_only = run(1, /*async=*/false, /*use_dma=*/false);
  EXPECT_EQ(run(1, /*async=*/false, /*use_dma=*/true), cpu_only) << "1 channel, blocking";
  EXPECT_EQ(run(4, /*async=*/true, /*use_dma=*/true), cpu_only) << "4 channels, async";
}

// ---------------------------------------------------------------------------
// Threaded mode: the reaper, the in-flight mirror and the re-queue counter
// run under real threads (TSan coverage).
// ---------------------------------------------------------------------------

TEST(AsyncDmaThreaded, ParkedRoundsSurviveRealThreads) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.min_threads = 2;
  options.config.max_threads = 2;
  core::CopierService service(std::move(options));
  service.Start();

  // Process creation and attach are setup-phase (not thread-safe): do them
  // on the main thread; the app threads only submit and sync.
  constexpr int kClients = 3;
  constexpr size_t kBytes = 128 * kKiB;
  struct App {
    simos::Process* proc = nullptr;
    core::Client* client = nullptr;
    uint64_t src = 0;
    uint64_t dst = 0;
  };
  std::vector<App> setups(kClients);
  for (int c = 0; c < kClients; ++c) {
    App& app = setups[c];
    app.proc = kernel.CreateProcess("app" + std::to_string(c));
    app.client = service.AttachProcess(app.proc);
    auto src = app.proc->mem().MapAnonymous(kBytes, "s", true);
    auto dst = app.proc->mem().MapAnonymous(kBytes, "d", true);
    ASSERT_TRUE(src.ok() && dst.ok());
    app.src = *src;
    app.dst = *dst;
  }
  std::vector<std::thread> apps;
  for (int c = 0; c < kClients; ++c) {
    apps.emplace_back([&service, &setups, c] {
      App& app = setups[c];
      lib::CopierLib lib(app.client, &service);
      for (int round = 0; round < 12; ++round) {
        FillPattern(app.proc->mem(), app.src, kBytes, 400 + c * 100 + round);
        lib.amemcpy(app.dst, app.src, kBytes);
        ASSERT_TRUE(lib.csync(app.dst, kBytes).ok());
        ExpectSameBytes(app.proc->mem(), app.src, app.dst, kBytes);
      }
    });
  }
  for (auto& t : apps) {
    t.join();
  }
  service.Stop();
  const auto stats = service.TotalStats();
  EXPECT_EQ(stats.dma_bytes_submitted, stats.dma_bytes_completed);
  EXPECT_EQ(stats.dma_stall_cycles, 0u);
}

}  // namespace
}  // namespace copier::test
