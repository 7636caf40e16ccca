// Span tracer for the repo benchmark: one span per public call the driver
// makes into a layer (apps, simos, core), kept in memory and written out when
// the run ends.
//
// A span has a name, a parent (the span open when it began), the request id
// shared by every span of one request, host start/end (steady clock, ns) and
// the virtual clock of the calling context at start/end. Self time is a
// span's duration minus the time its children cover. A disabled tracer costs
// one branch per call site and records nothing, so the untraced run measures
// the program, not the tracer.
#ifndef COPIER_PERFBENCH_TRACER_H_
#define COPIER_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/common/exec_context.h"

namespace perfbench {

inline uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    uint32_t parent = 0;  // 1-based span id; 0 = root
    uint64_t request = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    copier::Cycles vstart = 0;
    copier::Cycles vend = 0;
  };

  // Per-name totals over every closed span.
  struct Totals {
    uint64_t calls = 0;
    uint64_t self_host_ns = 0;  // duration minus child coverage
    uint64_t vcycles = 0;       // calling context's virtual-clock advance
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(uint64_t request) { request_ = request; }

  // Opens a span and returns its id (0 when disabled). `ctx` is the calling
  // context whose virtual clock the span reads; null = no virtual clock.
  uint32_t Begin(const char* name, const copier::ExecContext* ctx) {
    if (!enabled_) {
      return 0;
    }
    Span span;
    span.name = name;
    span.parent = open_.empty() ? 0 : open_.back();
    span.request = request_;
    span.vstart = copier::CtxNow(ctx);
    span.start_ns = HostNs();
    spans_.push_back(span);
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    open_.push_back(id);
    return id;
  }

  void End(uint32_t id, const copier::ExecContext* ctx) {
    if (id == 0) {
      return;
    }
    Span& span = spans_[id - 1];
    span.end_ns = HostNs();
    span.vend = copier::CtxNow(ctx);
    open_.pop_back();
  }

  // Event counter at a layer boundary (e.g. a not-ready poll).
  void Count(const char* name, uint64_t n = 1) {
    if (enabled_) {
      counts_[name] += n;
    }
  }
  const std::map<std::string, uint64_t>& counts() const { return counts_; }

  std::map<std::string, Totals> Aggregate() const;
  size_t span_count() const { return spans_.size(); }

  // Appends at most `max_spans` spans to `out` as tab-separated rows
  // (pass id parent request name start_ns end_ns vstart vend); `pass` labels
  // the rows when several tracers share one file.
  static void WriteHeader(std::FILE* out);
  void Write(std::FILE* out, const std::string& pass, size_t max_spans) const;

 private:
  bool enabled_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  std::map<std::string, uint64_t> counts_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, const copier::ExecContext* ctx)
      : tracer_(tracer), ctx_(ctx), id_(tracer.Begin(name, ctx)) {}
  ~Scope() { tracer_.End(id_, ctx_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  const copier::ExecContext* ctx_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // COPIER_PERFBENCH_TRACER_H_
