#include "core/transports.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/error.h"

namespace sbq::core {

namespace {
/// Bytes `message` puts on the wire: the size of the chain serialize_to
/// builds.
template <typename Message>
std::size_t wire_size(const Message& message) {
  BufferChain wire;
  message.serialize_to(wire);
  return wire.size();
}
}  // namespace

http::Response SimLinkTransport::round_trip(const http::Request& request) {
  // Deadline budget for this attempt on the virtual clock. Every advance
  // goes through spend(): when the budget runs out the clock lands exactly
  // on attempt-start + deadline — the instant a live stream's read deadline
  // would fire — and the attempt fails with TimeoutError.
  std::uint64_t remaining = attempt_timeout_us_ == 0
                                ? std::numeric_limits<std::uint64_t>::max()
                                : attempt_timeout_us_;
  auto spend = [&](std::uint64_t us, std::uint64_t* bucket) {
    if (us >= remaining) {
      clock_->advance_us(remaining);
      if (bucket != nullptr) *bucket += remaining;
      throw TimeoutError("read deadline expired after " +
                         std::to_string(attempt_timeout_us_) +
                         "us (simulated link)");
    }
    clock_->advance_us(us);
    if (bucket != nullptr) *bucket += us;
    remaining -= us;
  };

  // One injector op per round trip: the simulated link works at exchange
  // granularity, so stream-level fault kinds collapse onto exchange-level
  // outcomes (reset/short-write/truncate all lose the exchange).
  std::optional<net::FaultSpec> fault;
  if (faults_) fault = faults_->next_fault(/*is_read=*/true, /*is_write=*/true);

  if (fault) {
    switch (fault->kind) {
      case net::FaultKind::kReset:
      case net::FaultKind::kShortWrite:
      case net::FaultKind::kTruncate:
        // The exchange is silently lost mid-flight. With a deadline armed
        // the failure surfaces when that deadline expires; without one the
        // simulation cannot block forever, so it reports the dead
        // connection immediately.
        if (attempt_timeout_us_ > 0) {
          spend(std::numeric_limits<std::uint64_t>::max(), nullptr);
        }
        throw TransportError("injected connection reset (simulated link)");
      case net::FaultKind::kStall:
        // Dead air before the exchange proceeds; may consume the whole
        // deadline budget (and then some — spend() clamps to the deadline).
        spend(fault->stall_us, nullptr);
        break;
      default:
        break;  // kPartialRead / kCorrupt handled below or meaningless here
    }
  }

  if (per_call_setup_us_ > 0) {
    spend(per_call_setup_us_, &timing_.request_transfer_us);
  }
  // Link costs are charged from the exact wire size: the wire chain shares
  // the body's segments, so no byte of the message is copied to count it.
  const std::uint64_t request_us =
      link_.transfer_time_us(wire_size(request), clock_->now_us());
  spend(request_us, &timing_.request_transfer_us);

  Stopwatch server_cpu;
  http::Response response = runtime_.handle(request);
  const auto cpu_us =
      static_cast<std::uint64_t>(server_cpu.elapsed_us() * cpu_scale_);
  if (charge_server_cpu_) {
    spend(cpu_us, &timing_.server_cpu_us);
  }

  const std::uint64_t response_us =
      link_.transfer_time_us(wire_size(response), clock_->now_us());
  spend(response_us, &timing_.response_transfer_us);

  if (fault && fault->kind == net::FaultKind::kCorrupt) {
    // Byte corruption in transit: flip one byte of the response body so the
    // decoder (not the HTTP layer) sees the damage.
    Bytes flat = response.body.coalesce();
    if (!flat.empty()) {
      flat[fault->offset % flat.size()] ^= fault->xor_mask;
      response.set_body(std::move(flat));
    }
  }

  ++timing_.round_trips;
  return response;
}

}  // namespace sbq::core
