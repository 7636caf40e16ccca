#include "perfbench/ipc_bulk.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/apps/app_util.h"
#include "src/apps/miniproxy.h"
#include "src/apps/parcel.h"
#include "src/apps/serve_harness.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/descriptor.h"
#include "src/core/linux_glue.h"
#include "src/core/service.h"
#include "src/simos/binder.h"
#include "src/simos/kernel.h"

namespace perfbench {

namespace apps = copier::apps;
namespace core = copier::core;
namespace simos = copier::simos;
using copier::Cycles;
using copier::ExecContext;
using copier::kKiB;
using copier::kMiB;

std::vector<IpcTransfer> BuildIpcTrace(uint64_t seed, size_t count, size_t min_bytes,
                                       size_t max_bytes) {
  copier::Rng rng(seed * 0x2545f4914f6cdd1dull + 17);
  auto shuffle = [&rng](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.Below(i)]);
    }
  };
  // Stratified draws: each kind gets an equal share of the transfers, its
  // sizes one per equal-probability stratum of the log-uniform range, and a
  // quarter of its windows off congruence. The seed moves every draw within
  // its stratum and the order, so no two seeds share inputs, yet the size mix
  // (and so the tail) is the same shape on every seed.
  const double lo = std::log(static_cast<double>(min_bytes));
  const double hi = std::log(static_cast<double>(max_bytes));
  // The forward parcel ([u32]["VIA ..."] + body) must fit one transaction
  // buffer, like every Binder parcel.
  const size_t parcel_cap = simos::BinderDriver::kTxnBufferBytes - 4 * kKiB;
  std::vector<IpcTransfer> trace;
  const size_t per_kind = count / 4;
  for (int kind = 0; kind < 4; ++kind) {
    std::vector<uint8_t> congruent(per_kind, 1);
    std::fill(congruent.begin(), congruent.begin() + per_kind / 4, 0);
    shuffle(congruent);
    for (size_t j = 0; j < per_kind; ++j) {
      IpcTransfer t;
      t.kind = static_cast<IpcKind>(kind);
      const double q = (static_cast<double>(j) + rng.NextDouble()) / static_cast<double>(per_kind);
      t.bytes = static_cast<size_t>(std::exp(lo + (hi - lo) * q));
      if (t.kind == IpcKind::kBinder || t.kind == IpcKind::kForward) {
        t.bytes = std::min(t.bytes, parcel_cap);
      }
      t.congruent = congruent[j] != 0;
      trace.push_back(t);
    }
  }
  shuffle(trace);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].index = i;
  }
  return trace;
}

namespace {

// Off-congruence receiver offset: not a multiple of the page size, so the
// remap tier cannot alias the window.
constexpr size_t kSkew = 512;

// Sender bytes come from one xorshift stream generated at setup; each
// message starts at its own unaligned offset, so a misplaced or stale chunk
// cannot match.
constexpr size_t kPatternSpan = 4 * kMiB;

std::vector<uint8_t> PatternPool(size_t max_bytes) {
  std::vector<uint8_t> pool((max_bytes + kPatternSpan + 7) / 8 * 8);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < pool.size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(pool.data() + i, &x, 8);
  }
  return pool;
}

size_t Chunks(size_t n) { return (n + simos::kMtu - 1) / simos::kMtu; }

// Adds the host time of a scope to a counter.
class DriverTime {
 public:
  explicit DriverTime(uint64_t* total) : total_(total), start_(HostNs()) {}
  ~DriverTime() { *total_ += HostNs() - start_; }

  DriverTime(const DriverTime&) = delete;
  DriverTime& operator=(const DriverTime&) = delete;

 private:
  uint64_t* total_;
  uint64_t start_;
};

class IpcDriver {
 public:
  IpcDriver(const std::vector<IpcTransfer>& transfers, Tracer& tracer)
      : transfers_(transfers), tracer_(tracer) {}

  double TimeSetup() {
    const uint64_t setup_start = HostNs();
    Setup();
    return static_cast<double>(HostNs() - setup_start) / 1e9;
  }

  IpcOutcome Run() {
    out_.setup_s = TimeSetup();

    const LayerCounters before = Snapshot(*service_);
    const uint64_t host_start = HostNs();
    Cycles first = 0;
    Cycles last = 0;
    for (const IpcTransfer& t : transfers_) {
      tracer_.set_request(t.index);
      Scope span(tracer_, "driver.request", &rx_->ctx());
      const Cycles start = SyncClocks();
      if (&t == &transfers_.front()) {
        first = start;
      }
      ++out_.attempted;
      bool ok = false;
      switch (t.kind) {
        case IpcKind::kSocketQd1:
          ok = SocketRing(t, 1);
          break;
        case IpcKind::kSocketQd4:
          ok = SocketRing(t, 4);
          break;
        case IpcKind::kBinder:
          ok = Binder(t);
          break;
        case IpcKind::kForward:
          ok = Forward(t);
          break;
      }
      const Cycles end = rx_->ctx().now();
      last = std::max(last, end);
      out_.failed += ok ? 0 : 1;
      out_.latency_us.push_back(VirtualUs(end - start));
    }
    out_.pass_s = static_cast<double>(HostNs() - host_start) / 1e9;
    out_.measured_s = static_cast<double>(HostNs() - host_start - driver_ns_) / 1e9;
    out_.counters = Diff(Snapshot(*service_), before);
    out_.span_cycles = last - first;
    return std::move(out_);
  }

 private:
  void Setup() {
    const copier::hw::TimingModel* timing = &copier::hw::TimingModel::Default();
    simos::SimKernel::Config kconfig;
    kconfig.timing = timing;
    kernel_ = std::make_unique<simos::SimKernel>(kconfig);
    core::CopierService::Options soptions;
    soptions.timing = timing;
    service_ = std::make_unique<core::CopierService>(std::move(soptions));
    glue_ = std::make_unique<core::CopierLinux>(service_.get(), kernel_.get());
    glue_->Install();
    kernel_->SetKfuncProbe([this](uint32_t) { ++kfunc_probes_; });
    binder_ = std::make_unique<simos::BinderDriver>(kernel_.get());

    size_t max_bytes = 0;
    for (const IpcTransfer& t : transfers_) {
      max_bytes = std::max(max_bytes, t.bytes);
    }
    pattern_ = PatternPool(max_bytes);
    tx_ = NewApp("bulk-tx");
    rx_ = NewApp("bulk-rx");
    proxy_ = NewApp("bulk-proxy");
    src_ = tx_->Map(4 * max_bytes + simos::kMtu, "src", true);
    win_ = rx_->Map(4 * max_bytes + 2 * simos::kMtu, "win", true);
    proxy_win_ = proxy_->Map(simos::BinderDriver::kTxnBufferBytes, "proxy-win", true);
    marshal_ = proxy_->Map(simos::BinderDriver::kTxnBufferBytes, "marshal", true);
    auto [tx_end, rx_end] = kernel_->CreateSocketPair();
    sock_tx_ = tx_end;
    sock_rx_ = rx_end;
    auto [fwd_tx, fwd_rx] = kernel_->CreateSocketPair();
    fwd_tx_ = fwd_tx;
    fwd_rx_ = fwd_rx;
    fwd_rx_->SetForwardRule(apps::MiniProxy::MakeParcelForwardRule(binder_.get()));
  }

  apps::AppProcess* NewApp(const std::string& name) {
    apps_.push_back(std::make_unique<apps::AppProcess>(kernel_.get(), service_.get(),
                                                       apps::Mode::kCopier, name));
    return apps_.back().get();
  }

  // Closed loop: every party starts the next transfer once the previous one
  // landed everywhere.
  Cycles SyncClocks() {
    const Cycles t0 = std::max({tx_->ctx().now(), rx_->ctx().now(), proxy_->ctx().now()});
    tx_->ctx().WaitUntil(t0);
    rx_->ctx().WaitUntil(t0);
    proxy_->ctx().WaitUntil(t0);
    return t0;
  }

  void Drain() {
    Scope span(tracer_, "engine.drain", nullptr);
    service_->DrainAll();
  }

  bool Wait(const core::Descriptor& d, size_t n, ExecContext* ctx) {
    Scope span(tracer_, "engine.wait_descriptor", ctx);
    return core::WaitDescriptor(d, 0, n, ctx, [this] { Drain(); }).ok();
  }

  // Sends [va, va+n) from `from` on `sock`, draining between short sends.
  bool SendAll(apps::AppProcess* from, simos::SimSocket* sock, uint64_t va, size_t n,
               bool drain_after_last) {
    size_t sent_total = 0;
    while (sent_total < n) {
      copier::StatusOr<size_t> sent = [&] {
        Scope span(tracer_, "simos.send", &from->ctx());
        return kernel_->Send(*from->proc(), sock, va + sent_total, n - sent_total, &from->ctx());
      }();
      if (!sent.ok()) {
        return false;
      }
      sent_total += *sent;
      if (sent_total < n || drain_after_last) {
        Drain();
      }
    }
    return true;
  }

  bool CompleteRecv(apps::AppProcess* app, simos::SimSocket* sock, size_t expect) {
    Scope span(tracer_, "simos.complete_recv", &app->ctx());
    auto filled = kernel_->CompleteRecv(*app->proc(), sock, &app->ctx());
    return filled.ok() && *filled == expect;
  }

  // Compares the receiver image with the expected bytes.
  bool CheckImage(apps::AppProcess* app, uint64_t va, const uint8_t* expected, size_t n) {
    DriverTime timed(&driver_ns_);
    std::vector<uint8_t> got(n);
    if (!app->proc()->mem().ReadBytes(va, got.data(), n).ok()) {
      return false;
    }
    return std::memcmp(got.data(), expected, n) == 0;
  }

  // The sender writes its message bytes (the app producing them).
  void WriteSource(uint64_t va, const uint8_t* bytes, size_t n) {
    DriverTime timed(&driver_ns_);
    COPIER_CHECK_OK(tx_->proc()->mem().WriteBytes(va, bytes, n));
  }

  const uint8_t* Pattern(uint64_t message) const {
    return pattern_.data() + (message * 4093) % kPatternSpan;
  }

  // `depth` equal messages into a ring of `depth` posted windows (depth 1 is
  // the single posted window), reaped in FIFO order.
  bool SocketRing(const IpcTransfer& t, size_t depth) {
    const size_t n = t.bytes;
    const uint64_t win = win_ + (t.congruent ? 0 : kSkew);
    std::vector<const uint8_t*> patterns;
    for (size_t i = 0; i < depth; ++i) {
      patterns.push_back(Pattern(t.index * 4 + i));
      WriteSource(src_ + i * n, patterns[i], n);
    }
    std::vector<std::unique_ptr<core::Descriptor>> descriptors;
    std::vector<simos::SimKernel::RecvWindowSpec> specs;
    for (size_t i = 0; i < depth; ++i) {
      descriptors.push_back(std::make_unique<core::Descriptor>(n));
      specs.push_back({win + i * n, n, descriptors[i].get()});
    }
    const uint64_t probes_before = kfunc_probes_;
    bool ok = true;
    if (depth == 1) {
      simos::RecvOptions ropts;
      ropts.descriptor = descriptors[0].get();
      Scope span(tracer_, "simos.post_recv", &rx_->ctx());
      ok = kernel_->PostRecv(*rx_->proc(), sock_rx_, win, n, &rx_->ctx(), ropts).ok();
    } else {
      Scope span(tracer_, "simos.post_recv_ring", &rx_->ctx());
      ok = kernel_->PostRecvRing(*rx_->proc(), sock_rx_, specs, &rx_->ctx()).ok();
    }
    for (size_t i = 0; ok && i < depth; ++i) {
      ok = SendAll(tx_, sock_tx_, src_ + i * n, n, /*drain_after_last=*/depth == 1);
    }
    for (size_t i = 0; ok && i < depth; ++i) {
      ok = Wait(*descriptors[i], n, &rx_->ctx()) && CompleteRecv(rx_, sock_rx_, n);
      ok = ok && CheckImage(rx_, win + i * n, patterns[i], n);
    }
    out_.payload_bytes += depth * n;
    // One reclaim KFUNC per flow-control chunk of every message.
    return ok && kfunc_probes_ - probes_before == depth * Chunks(n);
  }

  bool Binder(const IpcTransfer& t) {
    const size_t n = t.bytes;
    const uint64_t win = win_ + (t.congruent ? 0 : kSkew);
    const uint8_t* pattern = Pattern(t.index * 4);
    WriteSource(src_, pattern, n);
    core::Descriptor descriptor(n);
    {
      Scope span(tracer_, "simos.binder_post", &rx_->ctx());
      if (!binder_->PostReceive(*rx_->proc(), win, n, &descriptor, &rx_->ctx()).ok()) {
        return false;
      }
    }
    copier::StatusOr<simos::BinderDriver::Transaction> txn = [&] {
      Scope span(tracer_, "simos.binder_transact", &tx_->ctx());
      return binder_->Transact(*tx_->proc(), src_, n, &tx_->ctx());
    }();
    bool ok = txn.ok() && txn->in_window && Wait(descriptor, n, &rx_->ctx());
    if (txn.ok()) {
      binder_->Release(txn->id);
    }
    out_.payload_bytes += n;
    return ok && CheckImage(rx_, win, pattern, n);
  }

  // Client -> proxy socket -> KV Binder window. The proxy's forward rule
  // re-frames "FWD" as a "VIA" parcel in the kernel; if it declines, the
  // proxy does the same app-level (parse, marshal, transact).
  bool Forward(const IpcTransfer& t) {
    const size_t body_len = t.bytes;
    const int upstream = 7;
    const uint8_t* pattern = Pattern(t.index * 4);
    const std::vector<uint8_t> body(pattern, pattern + body_len);
    const std::vector<uint8_t> msg = apps::MiniProxy::BuildMessage(upstream, body);
    const size_t n = msg.size();
    char via[64];
    const int via_len = std::snprintf(via, sizeof(via), "VIA %d %zu\r\n", upstream, body_len);
    apps::ParcelWriter writer;
    std::string item(via, via + via_len);
    item.append(body.begin(), body.end());
    writer.WriteString(item);
    const std::vector<uint8_t>& parcel = writer.bytes();
    const size_t parcel_len = parcel.size();
    const uint64_t kv_win = win_ + (t.congruent ? 0 : kSkew);
    WriteSource(src_, msg.data(), n);

    core::Descriptor kv_descriptor(parcel_len);
    core::Descriptor proxy_descriptor(n);
    const uint64_t forwarded_before = service_->ipc_fuse_stats().forward_fused;
    const uint64_t probes_before = kfunc_probes_;
    {
      Scope span(tracer_, "simos.binder_post", &rx_->ctx());
      if (!binder_->PostReceive(*rx_->proc(), kv_win, parcel_len, &kv_descriptor, &rx_->ctx())
               .ok()) {
        return false;
      }
    }
    simos::RecvOptions ropts;
    ropts.descriptor = &proxy_descriptor;
    bool ok = [&] {
      Scope span(tracer_, "simos.post_recv", &proxy_->ctx());
      return kernel_->PostRecv(*proxy_->proc(), fwd_rx_, proxy_win_, n, &proxy_->ctx(), ropts)
          .ok();
    }();
    ok = ok && SendAll(tx_, fwd_tx_, src_, n, /*drain_after_last=*/false);
    ok = ok && Wait(proxy_descriptor, n, &proxy_->ctx()) && CompleteRecv(proxy_, fwd_rx_, n);
    if (ok && service_->ipc_fuse_stats().forward_fused == forwarded_before) {
      ok = ForwardAppLevel(n, body_len, via, via_len, parcel);
    }
    ok = ok && Wait(kv_descriptor, parcel_len, &rx_->ctx());
    if (!ok) {
      binder_->ClearReceive();
    }
    rx_->ctx().WaitUntil(proxy_->ctx().now());
    out_.payload_bytes += body_len;
    return ok && kfunc_probes_ - probes_before == Chunks(n) &&
           CheckImage(rx_, kv_win, parcel.data(), parcel.size());
  }

  bool ForwardAppLevel(size_t n, size_t body_len, const char* via, int via_len,
                       const std::vector<uint8_t>& parcel) {
    std::vector<uint8_t> msg(n);
    if (!proxy_->proc()->mem().ReadBytes(proxy_win_, msg.data(), n, &proxy_->ctx()).ok()) {
      return false;
    }
    proxy_->io().Compute(&proxy_->ctx(), 64, apps::MiniProxy::kHeaderParseCpb,
                         apps::MiniProxy::kRouteFixed);
    const uint8_t* crlf = static_cast<const uint8_t*>(std::memchr(msg.data(), '\n', 64));
    if (crlf == nullptr) {
      return false;
    }
    apps::ParcelWriter writer;
    std::string item(via, via + via_len);
    item.append(crlf + 1, crlf + 1 + body_len);
    writer.WriteString(item);
    if (writer.bytes() != parcel) {
      return false;
    }
    proxy_->io().Write(marshal_, parcel.data(), parcel.size(), &proxy_->ctx());
    copier::StatusOr<simos::BinderDriver::Transaction> txn = [&] {
      Scope span(tracer_, "simos.binder_transact", &proxy_->ctx());
      return binder_->Transact(*proxy_->proc(), marshal_, parcel.size(), &proxy_->ctx());
    }();
    if (!txn.ok()) {
      return false;
    }
    binder_->Release(txn->id);
    return txn->in_window;
  }

  const std::vector<IpcTransfer>& transfers_;
  Tracer& tracer_;
  IpcOutcome out_;
  uint64_t kfunc_probes_ = 0;
  uint64_t driver_ns_ = 0;  // host time in WriteSource and CheckImage
  std::vector<uint8_t> pattern_;

  std::unique_ptr<simos::SimKernel> kernel_;
  std::unique_ptr<core::CopierService> service_;
  std::unique_ptr<core::CopierLinux> glue_;
  std::unique_ptr<simos::BinderDriver> binder_;
  std::vector<std::unique_ptr<apps::AppProcess>> apps_;
  apps::AppProcess* tx_ = nullptr;
  apps::AppProcess* rx_ = nullptr;
  apps::AppProcess* proxy_ = nullptr;
  uint64_t src_ = 0;
  uint64_t win_ = 0;
  uint64_t proxy_win_ = 0;
  uint64_t marshal_ = 0;
  simos::SimSocket* sock_tx_ = nullptr;
  simos::SimSocket* sock_rx_ = nullptr;
  simos::SimSocket* fwd_tx_ = nullptr;
  simos::SimSocket* fwd_rx_ = nullptr;
};

}  // namespace

IpcOutcome DriveIpc(const std::vector<IpcTransfer>& transfers, Tracer& tracer) {
  COPIER_CHECK(!transfers.empty());
  return IpcDriver(transfers, tracer).Run();
}

double TimeIpcSetup(const std::vector<IpcTransfer>& transfers) {
  Tracer off(false);
  return IpcDriver(transfers, off).TimeSetup();
}

}  // namespace perfbench
