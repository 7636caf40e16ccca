// Remap tier sweep (DESIGN.md §11): bytes physically moved with the
// zero-copy remap tier on vs off, on the two user-space copy shapes the tier
// targets:
//
//   proxy  — the miniproxy organize copy (bench_fig12): equal-length headers
//            make in/out bodies page-co-aligned, the app touches only the
//            header, and the body interior aliases. Moved bytes collapse to
//            the unaligned head+tail page.
//   kv-get — the MiniKv GET reply copy (bench_fig11): store values and the
//            reply landing slot are both page-aligned, so the whole value
//            aliases and moved bytes drop to ~0.
//
// Both arms of each run must produce byte-identical reply images and the
// same kfunc count; a mismatch prints " NO " (bench_smoke.sh greps for it)
// and a MISMATCH line on stderr. Rows of at least 64 KiB gate the ≥90%
// moved-bytes drop. --json writes BENCH_remap.json.
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "bench/bench_util.h"

namespace copier::bench {
namespace {

constexpr size_t kHeaderLen = 16;  // "FWD <id> <len>\r\n" — equal in and out

uint64_t Fnv1a(const std::vector<uint8_t>& bytes, uint64_t hash = 1469598103934665603ull) {
  for (uint8_t b : bytes) {
    hash = (hash ^ b) * 1099511628211ull;
  }
  return hash;
}

struct RunResult {
  uint64_t moved = 0;     // avx_bytes + dma_bytes_completed
  uint64_t remapped = 0;  // bytes landed by aliasing
  uint64_t kfuncs = 0;
  uint64_t checksum = 0;
};

core::CopierConfig RemapConfig(bool remap) {
  core::CopierConfig config;
  config.enable_remap_tier = remap;
  return config;
}

RunResult Collect(BenchStack& stack, apps::AppProcess* app, uint64_t reply_start,
                  size_t reply_len) {
  COPIER_CHECK_OK(app->lib()->csync_all());
  std::vector<uint8_t> reply(reply_len);
  COPIER_CHECK_OK(app->proc()->mem().ReadBytes(reply_start, reply.data(), reply_len));
  const core::Engine::Stats stats = stack.service->TotalStats();
  RunResult r;
  r.moved = stats.avx_bytes + stats.dma_bytes_completed;
  r.remapped = stats.remapped_bytes;
  r.kfuncs = stats.kfuncs_run;
  r.checksum = Fnv1a(reply);
  return r;
}

// Miniproxy organize copy: header written by the app, body copied from the
// inbound buffer at the same page offset (equal header lengths).
RunResult RunProxy(const hw::TimingModel& t, bool remap, size_t body) {
  BenchStack stack(&t, RemapConfig(remap));
  apps::AppProcess* app = stack.NewApp("remap-proxy");
  const uint64_t in_buf = app->Map(kHeaderLen + body, "proxy-in", true);
  const uint64_t out_buf = app->Map(kHeaderLen + body, "proxy-out", true);
  std::vector<uint8_t> payload(body);
  for (size_t i = 0; i < body; ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + body);
  }
  COPIER_CHECK_OK(app->proc()->mem().WriteBytes(in_buf + kHeaderLen, payload.data(), body));
  const char header[kHeaderLen + 1] = "FWD 7 4660    \r\n";
  COPIER_CHECK_OK(app->proc()->mem().WriteBytes(out_buf, header, kHeaderLen));
  app->lib()->amemcpy(out_buf + kHeaderLen, in_buf + kHeaderLen, body);
  return Collect(stack, app, out_buf, kHeaderLen + body);
}

// MiniKv GET reply: page-aligned store value copied to the page-aligned
// reply landing slot, header backing up from the value (minikv.cc layout).
RunResult RunKvGet(const hw::TimingModel& t, bool remap, size_t vlen) {
  BenchStack stack(&t, RemapConfig(remap));
  apps::AppProcess* app = stack.NewApp("remap-kv");
  const uint64_t store = app->Map(vlen, "kv-value", true);
  const uint64_t reply = app->Map(kPageSize + vlen + 2, "kv-reply", true);
  std::vector<uint8_t> value(vlen);
  for (size_t i = 0; i < vlen; ++i) {
    value[i] = static_cast<uint8_t>(i * 29 + 7);
  }
  COPIER_CHECK_OK(app->proc()->mem().WriteBytes(store, value.data(), vlen));
  char header[32];
  const int header_len = std::snprintf(header, sizeof(header), "$%zu\r\n", vlen);
  const uint64_t value_va = reply + kPageSize;
  const uint64_t reply_start = value_va - header_len;
  COPIER_CHECK_OK(app->proc()->mem().WriteBytes(reply_start, header, header_len));
  app->lib()->amemcpy(value_va, store, vlen);
  COPIER_CHECK_OK(app->proc()->mem().WriteBytes(value_va + vlen, "\r\n", 2));
  return Collect(stack, app, reply_start, header_len + vlen + 2);
}

struct Row {
  std::string scenario;
  size_t bytes = 0;
  RunResult copy;   // enable_remap_tier = false
  RunResult remap;  // enable_remap_tier = true
  bool gated = false;

  double drop_pct() const {
    if (copy.moved == 0) {
      return 0;
    }
    return (1.0 - static_cast<double>(remap.moved) / static_cast<double>(copy.moved)) * 100.0;
  }
  bool identical() const {
    return copy.checksum == remap.checksum && copy.kfuncs == remap.kfuncs;
  }
  bool drop_ok() const { return !gated || drop_pct() >= 90.0; }
};

void Run(const hw::TimingModel& t, bool json) {
  PrintBanner("Zero-copy remap tier: bytes physically moved, copy vs remap");
  std::vector<Row> rows;
  for (size_t bytes : {16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB}) {
    Row row;
    row.scenario = "proxy";
    row.bytes = bytes;
    row.copy = RunProxy(t, false, bytes);
    row.remap = RunProxy(t, true, bytes);
    row.gated = bytes >= 64 * kKiB;
    rows.push_back(row);
  }
  for (size_t bytes : {64 * kKiB, 256 * kKiB, 1 * kMiB}) {
    Row row;
    row.scenario = "kv-get";
    row.bytes = bytes;
    row.copy = RunKvGet(t, false, bytes);
    row.remap = RunKvGet(t, true, bytes);
    row.gated = true;
    rows.push_back(row);
  }

  TextTable table({"scenario", "size KiB", "moved(copy)", "moved(remap)", "remapped", "drop",
                   "identical"});
  bool all_ok = true;
  for (const Row& row : rows) {
    const bool ok = row.identical() && row.drop_ok();
    all_ok &= ok;
    if (!row.identical()) {
      std::fprintf(stderr, "MISMATCH: %s/%zu images or kfuncs differ across the ablation\n",
                   row.scenario.c_str(), row.bytes);
    }
    if (!row.drop_ok()) {
      std::fprintf(stderr, "MISMATCH: %s/%zu moved-bytes drop %.1f%% < 90%%\n",
                   row.scenario.c_str(), row.bytes, row.drop_pct());
    }
    table.AddRow({row.scenario, std::to_string(row.bytes / kKiB),
                  std::to_string(row.copy.moved), std::to_string(row.remap.moved),
                  std::to_string(row.remap.remapped),
                  std::string("-") + TextTable::Num(row.drop_pct(), 1) + "%", ok ? "yes" : " NO "});
  }
  table.Print();

  if (json) {
    std::ofstream out("BENCH_remap.json");
    out << "{\n  \"bench\": \"remap\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"scenario\": \"" << row.scenario << "\", \"bytes\": " << row.bytes
          << ", \"moved_copy\": " << row.copy.moved << ", \"moved_remap\": " << row.remap.moved
          << ", \"remapped_bytes\": " << row.remap.remapped << ", \"drop_pct\": " << row.drop_pct()
          << ", \"gated\": " << (row.gated ? "true" : "false")
          << ", \"identical_result\": " << (row.identical() ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  COPIER_CHECK(all_ok);
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(copier::bench::SelectTiming(argc, argv),
                     copier::bench::HasFlag(argc, argv, "--json"));
  return 0;
}
