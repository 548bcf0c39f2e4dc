// In-memory spans for the traced run.
//
// The benchmark records spans only from its own code, around the public
// calls into each layer: ClientStub::call on the caller thread, the
// transport's round trip, ServiceRuntime::handle inside the http::Server
// handler, and the registered operation. The closed loop keeps one call in
// flight per connection, so the server-side spans of a call are matched to
// the client-side ones through the connection's X-SOAP-Client-Id and a
// per-connection sequence number (stack.h's ServerSlot).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace livebench {

/// Nanoseconds on the steady clock, comparable across threads.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The spans of one call, in causal order: each is the parent of the next.
enum SpanKind : std::uint8_t {
  kSpanCall,       // core.client.call   — ClientStub::call
  kSpanRoundTrip,  // http.round_trip    — Transport::round_trip (HttpTransport)
  kSpanHandle,     // core.server.handle — ServiceRuntime::handle
  kSpanOp,         // app.op             — the registered operation handler
  kSpanKinds,
};

const char* span_name(SpanKind kind);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One closed-loop call's spans.
struct CallTrace {
  std::uint32_t connection = 0;
  std::uint64_t call_id = 0;  // per-connection sequence number
  std::array<Span, kSpanKinds> spans{};
};

/// Self time of span `kind` in µs: its duration minus the part of its
/// interval that its child span covers.
double self_us(const CallTrace& call, SpanKind kind);

/// Duration of span `kind` in µs.
double duration_us(const CallTrace& call, SpanKind kind);

/// Writes up to `max_calls` calls as CSV, one span per line:
/// connection,call_id,name,parent,start_ns,end_ns. Returns false when the
/// file cannot be written.
bool write_spans(const std::string& path, const std::vector<CallTrace>& calls,
                 std::size_t max_calls);

}  // namespace livebench
