// Cost accounting shared by the client stub, the service runtime, and the
// quality monitors.
//
// The paper's microbenchmarks separate marshalling, unmarshalling, and
// transmission costs; these counters let any experiment read them off a
// live endpoint instead of instrumenting call sites. The struct lives in
// common (not core) so lower layers — qos::MarshalCostMonitor reads it to
// derive the paper's "CPU load" attribute — never include core headers;
// sbqlint's layering rule enforces that edge direction.
#pragma once

#include <cstdint>

namespace sbq {

struct EndpointStats {
  std::uint64_t calls = 0;

  // Encode/decode work, microseconds of real CPU time.
  double marshal_us = 0.0;
  double unmarshal_us = 0.0;
  // XML ↔ binary conversion work (interoperability/compatibility modes).
  double convert_us = 0.0;
  // Compression work (compressed-XML mode).
  double compress_us = 0.0;
  // Envelope assembly / disassembly work (binary wire format).
  double envelope_us = 0.0;

  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  // Zero-copy pipeline accounting: payload bytes memcpy'd between buffers
  // while building/consuming messages (flat path: every splice; chain path:
  // only coalesce/scratch reads), and chain segments handed to the stream.
  std::uint64_t bytes_copied = 0;
  std::uint64_t segments_written = 0;

  // Failure-path accounting (fault injection, deadlines, retries, QoS
  // degradation — docs/robustness.md). `faults_injected` counts attempts
  // this endpoint saw fail with a transport-level fault (reset, timeout,
  // short write); `timeouts` the subset that were deadline expiries;
  // `retries` the re-sends the retry policy issued; `degradations` /
  // `recoveries` the observed response-type transitions away from / back to
  // the operation's full type.
  std::uint64_t faults_injected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t degradations = 0;
  std::uint64_t recoveries = 0;
  // Client RTT samples dropped because the server's reported preparation
  // time was at or above the measured round trip (docs/wire-format.md §2).
  std::uint64_t rtt_samples_dropped = 0;

  // Overload-protection accounting (docs/robustness.md "Overload and
  // drain"). On a server, `sheds` counts requests answered 503 by admission
  // control, `drains` the graceful drains begun, and `queue_high_water` the
  // deepest accepted-connection queue the load monitor has observed. On a
  // client, `sheds` counts calls that came back 503 (attempts the server
  // shed) — the retry policy may still complete the call afterwards.
  std::uint64_t sheds = 0;
  std::uint64_t drains = 0;
  std::uint64_t queue_high_water = 0;

  // Client-side resilience accounting (docs/resilience.md), maintained by a
  // core::ResilientStub fronting a multi-replica EndpointSet. `failovers`
  // counts attempts re-routed to a different replica after a failure,
  // `hedges` hedged (second) attempts fired against a slow primary and
  // `hedge_wins` the hedges whose response won the call; `breaker_trips` /
  // `breaker_closes` are circuit-breaker transitions to open / back to
  // closed observed across the set, and `probes` / `probe_failures` the
  // active health probes sent and the subset that failed.
  std::uint64_t failovers = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;

  void reset() { *this = EndpointStats{}; }
};

}  // namespace sbq
