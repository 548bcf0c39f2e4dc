#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace livebench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case kSpanCall: return "core.client.call";
    case kSpanRoundTrip: return "http.round_trip";
    case kSpanHandle: return "core.server.handle";
    case kSpanOp: return "app.op";
    case kSpanKinds: break;
  }
  return "?";
}

double duration_us(const CallTrace& call, SpanKind kind) {
  const Span& s = call.spans[kind];
  return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
}

double self_us(const CallTrace& call, SpanKind kind) {
  const Span& parent = call.spans[kind];
  std::uint64_t covered = 0;
  if (kind + 1 < kSpanKinds) {
    const Span& child = call.spans[kind + 1];
    const std::uint64_t lo = std::max(parent.start_ns, child.start_ns);
    const std::uint64_t hi = std::min(parent.end_ns, child.end_ns);
    if (hi > lo) covered = hi - lo;
  }
  return static_cast<double>(parent.end_ns - parent.start_ns - covered) / 1000.0;
}

bool write_spans(const std::string& path, const std::vector<CallTrace>& calls,
                 std::size_t max_calls) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::fprintf(out.get(), "connection,call_id,name,parent,start_ns,end_ns\n");
  const std::size_t n = std::min(max_calls, calls.size());
  for (std::size_t i = 0; i < n; ++i) {
    const CallTrace& call = calls[i];
    for (int k = 0; k < kSpanKinds; ++k) {
      const auto kind = static_cast<SpanKind>(k);
      std::fprintf(out.get(), "%u,%llu,%s,%s,%llu,%llu\n", call.connection,
                   static_cast<unsigned long long>(call.call_id), span_name(kind),
                   k == 0 ? "" : span_name(static_cast<SpanKind>(k - 1)),
                   static_cast<unsigned long long>(call.spans[kind].start_ns),
                   static_cast<unsigned long long>(call.spans[kind].end_ns));
    }
  }
  return std::ferror(out.get()) == 0;
}

}  // namespace livebench
