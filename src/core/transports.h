// Transport implementations for the client stub.
//
//   * HttpTransport — a real HTTP connection over any net::Stream (TCP for
//     the examples, in-process pipes for tests).
//   * LoopbackTransport — calls a ServiceRuntime directly; zero transport
//     cost. Useful for unit tests and for measuring pure codec costs.
//   * SimLinkTransport — LoopbackTransport plus a deterministic LinkModel
//     and a shared SimClock: each round trip advances simulated time by the
//     request transfer, the real (measured) server processing time, and the
//     response transfer. This is what the benchmark harnesses use to stand
//     in for the paper's 100 Mbps and ADSL testbeds (DESIGN.md §3).
#pragma once

#include <functional>
#include <memory>

#include "core/client.h"
#include "core/service.h"
#include "http/client.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/sim_clock.h"
#include "net/stream.h"

namespace sbq::core {

/// HTTP over a live byte stream. Two modes:
///   * borrowing — wraps a caller-owned Stream; reconnect() is a no-op
///     (the caller owns the connection lifecycle),
///   * owning — built from a StreamFactory; the factory is invoked at
///     construction and again on every reconnect(), which is how the client
///     stub's retry path replaces a connection a fault killed.
class HttpTransport final : public Transport {
 public:
  explicit HttpTransport(net::Stream& stream) : stream_(&stream) {
    client_ = std::make_unique<http::Client>(*stream_);
  }

  using StreamFactory = std::function<std::unique_ptr<net::Stream>()>;
  explicit HttpTransport(StreamFactory factory) : factory_(std::move(factory)) {
    reconnect();
  }

  http::Response round_trip(const http::Request& request) override {
    return client_->round_trip(request);
  }

  /// Arms the stream's read deadline (deadline-capable streams only).
  void set_attempt_timeout_us(std::uint64_t timeout_us) override {
    attempt_timeout_us_ = timeout_us;
    if (stream_ != nullptr) stream_->set_read_timeout_us(timeout_us);
  }

  void reconnect() override {
    if (!factory_) return;  // borrowed stream: nothing to rebuild
    owned_ = factory_();
    if (!owned_) throw TransportError("stream factory returned no stream");
    stream_ = owned_.get();
    stream_->set_read_timeout_us(attempt_timeout_us_);
    client_ = std::make_unique<http::Client>(*stream_);
  }

 private:
  StreamFactory factory_;
  std::unique_ptr<net::Stream> owned_;  // owning mode only
  net::Stream* stream_ = nullptr;
  std::unique_ptr<http::Client> client_;
  std::uint64_t attempt_timeout_us_ = 0;
};

/// Direct in-process dispatch to a ServiceRuntime.
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(ServiceRuntime& runtime) : runtime_(runtime) {}

  http::Response round_trip(const http::Request& request) override {
    return runtime_.handle(request);
  }

 private:
  ServiceRuntime& runtime_;
};

/// Accumulated timing of a simulated endpoint pair.
struct SimTiming {
  std::uint64_t request_transfer_us = 0;
  std::uint64_t response_transfer_us = 0;
  std::uint64_t server_cpu_us = 0;
  std::uint64_t round_trips = 0;
};

/// In-process dispatch behind a simulated link. The shared SimClock must
/// also be the TimeSource of the client stub and the service runtime so the
/// RTT timestamps they exchange are in simulated time.
class SimLinkTransport final : public Transport {
 public:
  SimLinkTransport(ServiceRuntime& runtime, net::LinkModel link,
                   std::shared_ptr<net::SimClock> clock)
      : runtime_(runtime), link_(std::move(link)), clock_(std::move(clock)) {}

  http::Response round_trip(const http::Request& request) override;

  [[nodiscard]] const SimTiming& timing() const { return timing_; }

  [[nodiscard]] net::LinkModel& link() { return link_; }
  // sbqlint:allow(clock-discipline): accessor for the virtual SimClock, not libc clock()
  [[nodiscard]] net::SimClock& clock() { return *clock_; }

  /// When false (default true), the server's real CPU time is not charged
  /// to the simulated clock — isolates pure-transfer experiments from host
  /// noise.
  void set_charge_server_cpu(bool charge) { charge_server_cpu_ = charge; }

  /// Fixed extra cost charged before every round trip, modeling
  /// connection-per-request HTTP (TCP handshake + teardown), which is how
  /// 2004-era SOAP stacks like Soup transacted. 0 (default) models a
  /// keep-alive connection.
  void set_per_call_setup_us(std::uint64_t us) { per_call_setup_us_ = us; }

  /// Multiplier applied to the measured server CPU time before charging it
  /// to the simulated clock (CPU-era calibration; see bench_util.h).
  void set_cpu_scale(double scale) { cpu_scale_ = scale; }

  /// Attaches a fault scenario. Each round trip consumes one injector op;
  /// scripted faults map onto exchange-level outcomes (docs/robustness.md):
  /// reset/truncate/short-write lose the exchange, a stall delays it on the
  /// virtual clock, corrupt flips a byte of the response body.
  void set_fault_injector(std::shared_ptr<net::FaultInjector> faults) {
    faults_ = std::move(faults);
  }

  /// Per-attempt deadline on the virtual clock: a round trip whose simulated
  /// duration would exceed it advances the clock exactly to the deadline and
  /// throws TimeoutError — the moment a live stream's read deadline fires.
  void set_attempt_timeout_us(std::uint64_t timeout_us) override {
    attempt_timeout_us_ = timeout_us;
  }

 private:
  ServiceRuntime& runtime_;
  net::LinkModel link_;
  std::shared_ptr<net::SimClock> clock_;
  std::shared_ptr<net::FaultInjector> faults_;
  SimTiming timing_;
  bool charge_server_cpu_ = true;
  std::uint64_t per_call_setup_us_ = 0;
  std::uint64_t attempt_timeout_us_ = 0;
  double cpu_scale_ = 1.0;
};

}  // namespace sbq::core
