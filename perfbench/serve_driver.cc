#include "perfbench/serve_driver.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/apps/app_util.h"
#include "src/apps/minikv.h"
#include "src/apps/miniproxy.h"
#include "src/apps/serve_harness.h"
#include "src/common/logging.h"
#include "src/core/linux_glue.h"
#include "src/core/service.h"
#include "src/simos/kernel.h"

namespace perfbench {
namespace {

namespace apps = copier::apps;
namespace core = copier::core;
namespace simos = copier::simos;
using copier::Cycles;
using copier::ExecContext;

// Same admission cost estimate as the serving harness: value/body bytes plus
// a fixed header allowance.
constexpr uint64_t kRequestOverheadBytes = 64;

// Threaded mode: a request step that has not completed after this long counts
// the request as failed and reopens its connection.
constexpr double kStuckAfterS = 0.5;

// Value/body bytes from the request identity alone (the harness's rule, so
// both drivers move identical bytes).
std::vector<uint8_t> ValueBytes(const core::ServeRequest& req) {
  std::vector<uint8_t> value(req.value_bytes);
  uint64_t x = req.index * 0x9e3779b97f4a7c15ull + req.key + 1;
  for (auto& byte : value) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<uint8_t>(x >> 56);
  }
  return value;
}

struct Conn {
  apps::AppProcess* app = nullptr;
  simos::SimSocket* sock = nullptr;
  simos::SimSocket* server_end = nullptr;
  simos::SimSocket* px_sock = nullptr;
  simos::SimSocket* px_in = nullptr;
  uint64_t buf = 0;
};

class Driver {
 public:
  Driver(const ServeDriverOptions& options, Tracer& tracer)
      : options_(options), tracer_(tracer), threaded_(options.threaded) {}

  ServeOutcome Run() {
    const uint64_t setup_start = HostNs();
    Setup();
    out_.setup_s = static_cast<double>(HostNs() - setup_start) / 1e9;

    const LayerCounters before = Snapshot(*service_);
    host_start_ = HostNs();
    for (const core::ServeRequest& req : options_.trace) {
      tracer_.set_request(req.index);
      Scope request_span(tracer_, "driver.request", &conns_[req.conn].app->ctx());
      Issue(req);
    }
    {
      Scope drain(tracer_, "engine.drain", nullptr);
      service_->DrainAll();
    }
    const uint64_t host_end = HostNs();
    out_.measured_s = static_cast<double>(host_end - host_start_) / 1e9;
    out_.counters = Diff(Snapshot(*service_), before);

    CheckStore();
    if (threaded_) {
      const uint64_t first_ns = ArrivalNs(options_.trace.front());
      out_.span_us = static_cast<double>(host_end - host_start_ - first_ns) / 1e3;
      service_->Stop();
    } else {
      Cycles end = server_->ctx().now();
      if (proxy_ != nullptr) {
        end = std::max(end, proxy_->ctx().now());
      }
      for (const Conn& conn : conns_) {
        end = std::max(end, conn.app->ctx().now());
      }
      out_.span_us = VirtualUs(end - options_.trace.front().arrival);
    }
    return std::move(out_);
  }

 private:
  // Builds the stack in the serving harness's order (process ids and
  // physical pages are assigned in creation order, so the order is part of
  // the parity contract).
  void Setup() {
    const copier::hw::TimingModel* timing = &copier::hw::TimingModel::Default();
    simos::SimKernel::Config kconfig;
    kconfig.timing = timing;
    kernel_ = std::make_unique<simos::SimKernel>(kconfig);
    core::CopierService::Options soptions;
    soptions.timing = timing;
    soptions.mode = threaded_ ? core::CopierService::Mode::kThreaded
                              : core::CopierService::Mode::kManual;
    if (threaded_) {
      soptions.config.min_threads = options_.threads;
      soptions.config.max_threads = options_.threads;
    }
    service_ = std::make_unique<core::CopierService>(std::move(soptions));
    glue_ = std::make_unique<core::CopierLinux>(service_.get(), kernel_.get());
    glue_->Install();
    if (threaded_) {
      service_->Start();
    }

    server_ = NewApp(apps::Mode::kCopier, "kv-server");
    kv_ = std::make_unique<apps::MiniKv>(server_);
    kv_client_ = service_->ClientById(server_->proc()->copier_client_id());

    const auto& trace = options_.trace;
    use_proxy_ = std::any_of(trace.begin(), trace.end(),
                             [](const core::ServeRequest& r) { return r.via_proxy; });
    if (use_proxy_) {
      proxy_ = NewApp(apps::Mode::kCopier, "proxy");
      mp_ = std::make_unique<apps::MiniProxy>(proxy_);
      auto [out_end, up_end] = kernel_->CreateSocketPair();
      proxy_out_ = out_end;
      upstream_ = up_end;
      proxy_client_ = service_->ClientById(proxy_->proc()->copier_client_id());
    }

    size_t conn_count = options_.connections;
    size_t max_value = 4096;
    for (const core::ServeRequest& req : trace) {
      conn_count = std::max<size_t>(conn_count, req.conn + 1);
      max_value = std::max<size_t>(max_value, req.value_bytes);
    }
    const size_t buf_bytes = max_value + 64 * copier::kKiB;
    conns_.resize(conn_count);
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      conn.app = NewApp(apps::Mode::kSync, "client-" + std::to_string(i));
      Reconnect(conn);
      conn.buf = conn.app->Map(buf_bytes, "cbuf");
    }
  }
  apps::AppProcess* NewApp(apps::Mode mode, const std::string& name) {
    apps_.push_back(
        std::make_unique<apps::AppProcess>(kernel_.get(), service_.get(), mode, name));
    return apps_.back().get();
  }

  void Reconnect(Conn& conn) {
    auto [client_end, server_end] = kernel_->CreateSocketPair();
    conn.sock = client_end;
    conn.server_end = server_end;
    if (use_proxy_) {
      auto [px_client, px_in] = kernel_->CreateSocketPair();
      conn.px_sock = px_client;
      conn.px_in = px_in;
    }
  }

  uint64_t NowNs() const { return HostNs() - host_start_; }
  uint64_t ArrivalNs(const core::ServeRequest& req) const {
    return static_cast<uint64_t>(static_cast<double>(req.arrival) / kNominalGHz);
  }
  static void SleepNs(uint64_t ns) {
    if (ns > 100'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns - 50'000));
    }
  }
  // Threaded-mode wait deadline for one blocking step of a request.
  bool Stuck(uint64_t since_ns) const {
    return static_cast<double>(NowNs() - since_ns) / 1e9 > kStuckAfterS;
  }

  void Serve(core::Client* client) {
    if (!threaded_ && client != nullptr) {
      Scope span(tracer_, "engine.serve", nullptr);
      service_->Serve(*client);
    }
  }

  copier::StatusOr<size_t> Send(Conn& conn, simos::SimSocket* sock, size_t n) {
    ExecContext& cctx = conn.app->ctx();
    Scope span(tracer_, "simos.send", &cctx);
    return kernel_->Send(*conn.app->proc(), sock, conn.buf, n, &cctx);
  }

  // Waits for the reply in conn.buf; false when it never arrived.
  bool RecvReply(Conn& conn, size_t reply_len) {
    ExecContext& cctx = conn.app->ctx();
    auto recv = [&] {
      Scope span(tracer_, "simos.recv", &cctx);
      return kernel_->Recv(*conn.app->proc(), conn.sock, conn.buf, reply_len, &cctx);
    };
    auto reply = recv();
    uint64_t spins = 0;
    const uint64_t since = NowNs();
    while (!reply.ok()) {
      tracer_.Count("simos.recv.not_ready");
      if (!threaded_) {
        COPIER_CHECK(kv_client_ != nullptr) << reply.status().ToString();
        Serve(kv_client_);
      } else {
        std::this_thread::yield();
        if (++spins % 4096 == 0) {
          Scope span(tracer_, "engine.drain", nullptr);
          service_->DrainAll();
        }
        if (Stuck(since)) {
          return false;
        }
      }
      reply = recv();
    }
    return true;
  }

  // One ProcessOne/ForwardOne step, retried while the request bytes are
  // still landing (threaded mode). False when the request never arrived.
  template <typename Step>
  bool AppStep(const char* span_name, const char* not_ready, ExecContext* ctx, Step step) {
    const uint64_t since = NowNs();
    for (;;) {
      copier::StatusOr<bool> done = [&] {
        Scope span(tracer_, span_name, ctx);
        return step();
      }();
      COPIER_CHECK(done.ok()) << done.status().ToString();
      if (*done) {
        return true;
      }
      tracer_.Count(not_ready);
      COPIER_CHECK(threaded_) << span_name << ": request not ready in virtual time";
      std::this_thread::yield();
      if (Stuck(since)) {
        return false;
      }
    }
  }

  void Issue(const core::ServeRequest& req) {
    Conn& conn = conns_[req.conn];
    ServeRecordOut rec;
    rec.index = req.index;
    ++out_.attempted;
    if (req.churn_before) {
      Reconnect(conn);
    }

    ExecContext& cctx = conn.app->ctx();
    if (threaded_) {
      const uint64_t target = ArrivalNs(req);
      uint64_t now = NowNs();
      if (now < target) {
        SleepNs(target - now);
        while (NowNs() < target) {
        }
      }
      out_.issue_late_us.push_back(static_cast<double>(NowNs() - target) / 1e3);
    } else {
      cctx.WaitUntil(req.arrival);
      out_.issue_late_us.push_back(VirtualUs(cctx.now() - req.arrival));
    }

    const std::string key = "key" + std::to_string(req.key);
    const auto model_it = model_.find(key);
    const uint64_t expected_value =
        req.via_proxy ? req.value_bytes
                      : (req.is_get ? (model_it != model_.end() ? model_it->second.size() : 0)
                                    : req.value_bytes);
    const uint64_t cost = expected_value + kRequestOverheadBytes;
    core::Client* target_client = req.via_proxy ? proxy_client_ : kv_client_;
    if (!Admit(req, target_client, cost, cctx)) {
      rec.ok = true;  // a shed request is a correct verdict, not a failure
      out_.records.push_back(rec);
      return;
    }

    const uint64_t prev_kfuncs = service_->TotalStats().kfuncs_run;
    const Cycles submit_at = cctx.now();
    Cycles completion_cycles = 0;
    uint64_t completion_ns = 0;
    bool arrived = true;  // every step completed (threaded: within kStuckAfterS)
    bool ok = true;       // ... and the reply or forwarded message was right
    if (!req.via_proxy) {
      std::vector<uint8_t> request_bytes;
      std::vector<uint8_t> expected_reply;
      if (req.is_get) {
        request_bytes = apps::MiniKv::BuildGet(key);
        if (model_it == model_.end()) {
          expected_reply = {'$', '-', '1', '\r', '\n'};
        } else {
          std::string header = "$";
          header += std::to_string(model_it->second.size());
          header += "\r\n";
          expected_reply.assign(header.begin(), header.end());
          expected_reply.insert(expected_reply.end(), model_it->second.begin(),
                                model_it->second.end());
          expected_reply.push_back('\r');
          expected_reply.push_back('\n');
          out_.payload_bytes += model_it->second.size();
        }
      } else {
        const std::vector<uint8_t> value = ValueBytes(req);
        request_bytes = apps::MiniKv::BuildSet(key, value);
        expected_reply = {'+', 'O', 'K', '\r', '\n'};
        model_[key] = value;
        out_.payload_bytes += value.size();
      }
      conn.app->io().Write(conn.buf, request_bytes.data(), request_bytes.size(), &cctx);
      COPIER_CHECK(Send(conn, conn.sock, request_bytes.size()).ok());
      if (!threaded_) {
        server_->ctx().WaitUntil(cctx.now());
      }
      arrived = AppStep("apps.kv_process", "apps.kv_process.not_ready", &server_->ctx(),
                        [&] { return kv_->ProcessOne(conn.server_end, &server_->ctx()); });
      Serve(kv_client_);
      arrived = arrived && RecvReply(conn, expected_reply.size());
      ok = arrived;
      if (arrived) {
        std::vector<uint8_t> got(expected_reply.size());
        COPIER_CHECK(conn.app->proc()->mem().ReadBytes(conn.buf, got.data(), got.size()).ok());
        ok = got == expected_reply;
        rec.reply_hash = apps::Fnv1a(got.data(), got.size());
      }
      completion_cycles = cctx.now();
      completion_ns = NowNs();
    } else {
      const std::vector<uint8_t> body = ValueBytes(req);
      const auto msg = apps::MiniProxy::BuildMessage(1, body);
      out_.payload_bytes += body.size();
      conn.app->io().Write(conn.buf, msg.data(), msg.size(), &cctx);
      COPIER_CHECK(Send(conn, conn.px_sock, msg.size()).ok());
      if (!threaded_) {
        proxy_->ctx().WaitUntil(cctx.now());
      }
      arrived = AppStep("apps.proxy_forward", "apps.proxy_forward.not_ready", &proxy_->ctx(), [&] {
        return mp_->ForwardOne(conn.px_in, proxy_out_, &proxy_->ctx());
      });
      Serve(proxy_client_);
      // Upstream sink: the request completes when the rewritten message has
      // fully arrived; its bytes must be "VIA 1 <len>\r\n" + body.
      std::vector<uint8_t> expected = msg;
      expected[0] = 'V';
      expected[1] = 'I';
      expected[2] = 'A';
      std::vector<uint8_t> got;
      got.reserve(msg.size());
      Cycles delivered = 0;
      const uint64_t since = NowNs();
      uint64_t spins = 0;
      while (arrived && got.size() < msg.size()) {
        auto sink = [&](simos::Skb* skb, size_t off, size_t len) {
          got.insert(got.end(), skb->data + off, skb->data + off + len);
          skb->pending_copies.fetch_add(1, std::memory_order_relaxed);
          simos::SimSocket::CompleteCopy(&kernel_->skb_pool(), skb);
        };
        const size_t n = upstream_->ConsumeRx(SIZE_MAX, &delivered, sink);
        if (n == 0) {
          COPIER_CHECK(++spins < (1ull << 26)) << "upstream starved";
          Serve(proxy_client_);
          if (threaded_) {
            std::this_thread::yield();
            arrived = !Stuck(since);
          }
        }
      }
      ok = arrived && got == expected;
      completion_cycles = std::max(proxy_->ctx().now(), delivered);
      cctx.WaitUntil(completion_cycles);
      completion_ns = NowNs();
    }
    {
      Scope span(tracer_, "admission", nullptr);
      service_->FinishRequest(*target_client, cost, threaded_ ? completion_ns : completion_cycles);
    }
    rec.ok = ok;
    if (ok) {
      rec.latency_us = threaded_ ? static_cast<double>(completion_ns - ArrivalNs(req)) / 1e3
                                 : VirtualUs(completion_cycles - req.arrival);
      out_.latency_us.push_back(rec.latency_us);
      ++out_.completed;
    } else {
      ++out_.failed;
      // A request that never completed leaves bytes in flight on its
      // connection: reopen it so the run can go on. A wrong reply does not
      // reconnect — like the serving harness, the client keeps reading the
      // stream, so a desynchronized connection keeps failing.
      if (!arrived) {
        Reconnect(conn);
      }
    }
    if (!threaded_) {
      const core::Engine::Stats after = service_->TotalStats();
      if (after.kfuncs_run > prev_kfuncs && after.last_kfunc_cycles > submit_at) {
        rec.copy_window_us = VirtualUs(after.last_kfunc_cycles - submit_at);
      }
    }
    out_.records.push_back(rec);
  }

  // Request-boundary admission, the harness's verdict loop. False = shed.
  bool Admit(const core::ServeRequest& req, core::Client* client, uint64_t cost,
             ExecContext& cctx) {
    uint32_t defers = 0;
    for (;;) {
      core::CopierService::Admission adm;
      {
        Scope span(tracer_, "admission", nullptr);
        adm = service_->AdmitRequest(*client, cost, threaded_ ? NowNs() : cctx.now());
      }
      switch (adm.verdict) {
        case core::CopierService::AdmissionVerdict::kAdmit:
          return true;
        case core::CopierService::AdmissionVerdict::kThrottle:
          Wait(cctx, adm.wait_cycles);
          return true;
        case core::CopierService::AdmissionVerdict::kDefer:
          if (++defers > service_->config().admission_max_defer_retries) {
            service_->AbandonRequest(*client);
            return false;
          }
          Wait(cctx, adm.wait_cycles);
          continue;
        case core::CopierService::AdmissionVerdict::kShed:
          return false;
      }
    }
  }

  void Wait(ExecContext& cctx, Cycles cycles) {
    if (threaded_) {
      SleepNs(cycles);
    } else {
      cctx.WaitUntil(cctx.now() + cycles);
    }
  }

  // Final store image vs the model: one checked operation per model key.
  void CheckStore() {
    uint64_t hash = 1469598103934665603ull;
    for (const auto& [model_key, value] : model_) {
      ++out_.attempted;
      auto stored = kv_->Lookup(model_key);
      if (!stored.ok() || *stored != value) {
        ++out_.failed;
      }
      hash = apps::Fnv1a(model_key.data(), model_key.size(), hash);
      if (stored.ok()) {
        hash = apps::Fnv1a(stored->data(), stored->size(), hash);
      }
    }
    out_.store_hash = hash;
  }

  const ServeDriverOptions& options_;
  Tracer& tracer_;
  const bool threaded_;
  ServeOutcome out_;

  std::unique_ptr<simos::SimKernel> kernel_;
  std::unique_ptr<core::CopierService> service_;
  std::unique_ptr<core::CopierLinux> glue_;
  std::vector<std::unique_ptr<apps::AppProcess>> apps_;
  apps::AppProcess* server_ = nullptr;
  std::unique_ptr<apps::MiniKv> kv_;
  core::Client* kv_client_ = nullptr;
  bool use_proxy_ = false;
  apps::AppProcess* proxy_ = nullptr;
  std::unique_ptr<apps::MiniProxy> mp_;
  core::Client* proxy_client_ = nullptr;
  simos::SimSocket* proxy_out_ = nullptr;
  simos::SimSocket* upstream_ = nullptr;
  std::vector<Conn> conns_;
  std::map<std::string, std::vector<uint8_t>> model_;
  uint64_t host_start_ = 0;
};

}  // namespace

ServeOutcome DriveServe(const ServeDriverOptions& options, Tracer& tracer) {
  COPIER_CHECK(!options.trace.empty());
  return Driver(options, tracer).Run();
}

}  // namespace perfbench
