#include "perfbench/tracer.h"

namespace perfbench {

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  // Children run strictly inside their parent and never overlap each other
  // (the driver is one thread), so the covered part is the sum of child
  // durations.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0 && span.end_ns >= span.start_ns) {
      child_ns[span.parent - 1] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const uint64_t duration = span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
    Totals& t = totals[span.name];
    ++t.calls;
    t.self_host_ns += duration > child_ns[i] ? duration - child_ns[i] : 0;
    t.vcycles += span.vend >= span.vstart ? span.vend - span.vstart : 0;
  }
  return totals;
}

void Tracer::WriteHeader(std::FILE* out) {
  std::fprintf(out, "pass\tid\tparent\trequest\tname\tstart_ns\tend_ns\tvstart\tvend\n");
}

void Tracer::Write(std::FILE* out, const std::string& pass, size_t max_spans) const {
  const size_t n = spans_.size() < max_spans ? spans_.size() : max_spans;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s\t%zu\t%u\t%llu\t%s\t%llu\t%llu\t%llu\t%llu\n", pass.c_str(), i + 1,
                 s.parent, static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.vstart),
                 static_cast<unsigned long long>(s.vend));
  }
}

}  // namespace perfbench
