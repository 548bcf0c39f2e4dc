#include "core/resilience.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace sbq::core {

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerOptions options,
                               std::shared_ptr<net::TimeSource> clock)
    : options_(options), clock_(std::move(clock)) {
  if (!clock_) throw UsageError("CircuitBreaker needs a time source");
  if (options_.window <= 0) throw UsageError("breaker window must be positive");
  window_.assign(static_cast<std::size_t>(options_.window), 0);
}

BreakerState CircuitBreaker::state_locked() const {
  if (!open_) return BreakerState::kClosed;
  return clock_->now_us() >= opened_at_us_ + options_.cooldown_us
             ? BreakerState::kHalfOpen
             : BreakerState::kOpen;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard lock(mu_);
  return state_locked();
}

void CircuitBreaker::trip_locked() {
  open_ = true;
  opened_at_us_ = clock_->now_us();
  half_open_successes_ = 0;
  ++trips_;
}

void CircuitBreaker::push_outcome_locked(bool failure) {
  const char prior = window_[window_pos_];
  if (window_count_ < options_.window) {
    ++window_count_;
  } else if (prior != 0) {
    --window_failures_;  // the overwritten outcome leaves the window
  }
  window_[window_pos_] = failure ? 1 : 0;
  if (failure) ++window_failures_;
  window_pos_ = (window_pos_ + 1) % window_.size();
}

bool CircuitBreaker::record_success() {
  std::lock_guard lock(mu_);
  if (open_) {
    // A success can only arrive here through the half-open gate (a probe or
    // a routed user call after the cool-down).
    if (++half_open_successes_ < options_.half_open_successes) return false;
    open_ = false;
    ++closes_;
    consecutive_failures_ = 0;
    half_open_successes_ = 0;
    std::fill(window_.begin(), window_.end(), 0);
    window_pos_ = 0;
    window_count_ = 0;
    window_failures_ = 0;
    return true;
  }
  consecutive_failures_ = 0;
  push_outcome_locked(/*failure=*/false);
  return false;
}

bool CircuitBreaker::record_failure() {
  std::lock_guard lock(mu_);
  if (open_) {
    // A failed half-open probe (or a failure racing the trip) re-opens the
    // breaker: the cool-down restarts from now. Count the transition as a
    // trip only when the half-open gate had actually opened.
    const bool was_half_open = state_locked() == BreakerState::kHalfOpen;
    opened_at_us_ = clock_->now_us();
    half_open_successes_ = 0;
    if (was_half_open) ++trips_;
    return was_half_open;
  }
  ++consecutive_failures_;
  push_outcome_locked(/*failure=*/true);
  if (consecutive_failures_ >= options_.consecutive_failure_threshold) {
    trip_locked();
    return true;
  }
  if (window_count_ >= options_.error_rate_min_calls &&
      static_cast<double>(window_failures_) >=
          options_.error_rate_threshold * static_cast<double>(window_count_)) {
    trip_locked();
    return true;
  }
  return false;
}

std::uint64_t CircuitBreaker::trips() const {
  std::lock_guard lock(mu_);
  return trips_;
}

std::uint64_t CircuitBreaker::closes() const {
  std::lock_guard lock(mu_);
  return closes_;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard lock(mu_);
  return consecutive_failures_;
}

std::uint64_t CircuitBreaker::half_open_at_us() const {
  std::lock_guard lock(mu_);
  return open_ ? opened_at_us_ + options_.cooldown_us : 0;
}

LatencyWindow::LatencyWindow(std::size_t capacity)
    : samples_(capacity == 0 ? 1 : capacity, 0.0) {}

void LatencyWindow::record(double us) {
  samples_[pos_] = us;
  pos_ = (pos_ + 1) % samples_.size();
  if (count_ < samples_.size()) ++count_;
}

double LatencyWindow::percentile(double p) const {
  if (count_ == 0) return 0.0;
  std::vector<double> sorted(samples_.begin(),
                             samples_.begin() + static_cast<std::ptrdiff_t>(count_));
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(count_)));
  return sorted[rank == 0 ? 0 : rank - 1];
}

std::size_t LatencyWindow::count() const { return count_; }

EndpointSet::Endpoint::Endpoint(EndpointConfig config, WireFormat wire_format,
                                const wsdl::ServiceDesc& service,
                                std::shared_ptr<pbio::FormatServer> format_server,
                                std::shared_ptr<net::TimeSource> clock,
                                const ResilienceOptions& options)
    : name(std::move(config.name)),
      transport(config.transport_factory ? config.transport_factory() : nullptr),
      breaker(options.breaker, clock),
      latency(options.latency_window) {
  if (!transport) {
    throw UsageError("endpoint '" + name + "' produced no transport");
  }
  stub = std::make_unique<ClientStub>(*transport, wire_format, service,
                                      std::move(format_server), std::move(clock));
}

EndpointSet::EndpointSet(std::vector<EndpointConfig> configs,
                         WireFormat wire_format, wsdl::ServiceDesc service,
                         std::shared_ptr<pbio::FormatServer> format_server,
                         std::shared_ptr<net::TimeSource> clock,
                         ResilienceOptions options)
    : options_(options), service_(std::move(service)), clock_(std::move(clock)) {
  if (configs.empty()) throw UsageError("EndpointSet needs at least one endpoint");
  if (!clock_) throw UsageError("EndpointSet needs a time source");
  endpoints_.reserve(configs.size());
  for (auto& config : configs) {
    endpoints_.push_back(std::make_unique<Endpoint>(
        std::move(config), wire_format, service_, format_server, clock_, options_));
  }
  // One identity across the set: the server's per-client quality state (RTT
  // report, selected type) must follow the client to whichever replica
  // serves it next, not restart from scratch on every failover.
  client_id_ = endpoints_.front()->stub->client_id();
  for (std::size_t i = 1; i < endpoints_.size(); ++i) {
    endpoints_[i]->stub->set_client_id(client_id_);
  }
}

std::vector<EndpointSnapshot> EndpointSet::snapshots() const {
  std::vector<EndpointSnapshot> out;
  out.reserve(endpoints_.size());
  for (const auto& ep : endpoints_) {
    EndpointSnapshot snap;
    snap.name = ep->name;
    snap.breaker = ep->breaker.state();
    snap.breaker_trips = ep->breaker.trips();
    snap.breaker_closes = ep->breaker.closes();
    snap.ewma_latency_us = ep->ewma_latency.value_us();
    snap.penalized_until_us = ep->penalized_until_us;
    snap.probes = ep->probes;
    snap.probe_failures = ep->probe_failures;
    snap.stats = ep->stub->stats();
    out.push_back(std::move(snap));
  }
  return out;
}

ResilientStub::ResilientStub(EndpointSet& endpoints) : set_(endpoints) {}

void ResilientStub::set_quality_manager(
    std::shared_ptr<qos::QualityManager> quality) {
  quality_ = std::move(quality);
  for (std::size_t i = 0; i < set_.size(); ++i) {
    set_.endpoint(i).stub->set_quality_manager(quality_);
  }
}

std::size_t ResilientStub::pick_allowed(const std::vector<char>& failed,
                                        std::uint64_t now,
                                        std::size_t exclude) const {
  std::size_t best = kNone;
  int best_state_rank = 0;
  double best_latency = 0.0;
  for (std::size_t i = 0; i < set_.size(); ++i) {
    if (i == exclude || (i < failed.size() && failed[i] != 0)) continue;
    const auto& ep = set_.endpoint(i);
    const BreakerState state = ep.breaker.state();
    if (state == BreakerState::kOpen) continue;
    if (ep.penalized_until_us > now) continue;
    // Rank closed above half-open, then by smoothed latency; an endpoint
    // with no samples yet sorts first, which round-robins the warm-up
    // across fresh replicas.
    const int state_rank = state == BreakerState::kClosed ? 0 : 1;
    const double latency =
        ep.ewma_latency.has_sample() ? ep.ewma_latency.value_us() : -1.0;
    if (best == kNone || state_rank < best_state_rank ||
        (state_rank == best_state_rank && latency < best_latency)) {
      best = i;
      best_state_rank = state_rank;
      best_latency = latency;
    }
  }
  return best;
}

std::size_t ResilientStub::pick(const std::vector<char>& failed,
                                std::uint64_t now) const {
  std::size_t choice = pick_allowed(failed, now, kNone);
  if (choice != kNone) return choice;
  // Every allowed endpoint already failed this call: re-try the best of
  // them anyway rather than giving up with budget left.
  choice = pick_allowed(/*failed=*/{}, now, kNone);
  if (choice != kNone) return choice;
  // Nothing is allowed (all breakers open / penalized): pick the one that
  // becomes available soonest — its half-open gate may admit this attempt.
  std::size_t best = 0;
  std::uint64_t best_at = ~0ull;
  for (std::size_t i = 0; i < set_.size(); ++i) {
    const auto& ep = set_.endpoint(i);
    const std::uint64_t at =
        std::max(ep.breaker.half_open_at_us(), ep.penalized_until_us);
    if (at < best_at) {
      best_at = at;
      best = i;
    }
  }
  return best;
}

void ResilientStub::note_endpoint_failure(EndpointSet::Endpoint& ep,
                                          const CallOptions& options,
                                          bool is_timeout) {
  ++stats_.faults_injected;
  if (is_timeout) ++stats_.timeouts;
  if (ep.breaker.record_failure()) {
    ++stats_.breaker_trips;
    // A trip is stronger evidence than one lost attempt: feed the loss-like
    // penalty so quality steps down while the replica set is degraded
    // (docs/robustness.md); probes feed the recovery mirror on close.
    if (quality_) {
      quality_->observe_fault(static_cast<double>(options.deadline_us));
    }
  }
}

pbio::Value ResilientStub::attempt_on(std::size_t index,
                                      const std::string& operation,
                                      const pbio::Value& params,
                                      const CallOptions& options,
                                      std::uint64_t deadline_us,
                                      bool timeout_is_hedge) {
  EndpointSet::Endpoint& ep = set_.endpoint(index);
  CallOptions per_attempt = options;
  per_attempt.deadline_us = deadline_us;
  per_attempt.retry = RetryPolicy{};
  per_attempt.retry.max_attempts = 1;  // this layer owns retry and failover
  const std::uint64_t t0 = set_.time_source().now_us();
  try {
    pbio::Value result = ep.stub->call(operation, params, per_attempt);
    const auto rtt = static_cast<double>(set_.time_source().now_us() - t0);
    ep.latency.record(rtt);
    ep.ewma_latency.update(rtt);
    if (ep.breaker.record_success()) ++stats_.breaker_closes;
    last_response_type_ = ep.stub->last_response_type();
    last_index_ = index;
    return result;
  } catch (const OverloadError& e) {
    // A shed is deliberate flow control, not a broken replica: no breaker
    // charge, but honor the advertised Retry-After as a selection penalty
    // so the next attempts prefer replicas that asked for no delay.
    ++stats_.sheds;
    if (e.retry_after_us() > 0) {
      ep.penalized_until_us = set_.time_source().now_us() + e.retry_after_us();
    }
    throw;
  } catch (const TimeoutError&) {
    if (timeout_is_hedge) throw;  // hedge boundary, not replica evidence
    note_endpoint_failure(ep, options, /*is_timeout=*/true);
    throw;
  } catch (const TransportError&) {
    note_endpoint_failure(ep, options, /*is_timeout=*/false);
    throw;
  } catch (const CodecError&) {
    if (options.retry.retry_codec_errors) {
      note_endpoint_failure(ep, options, /*is_timeout=*/false);
    }
    throw;
  }
}

bool ResilientStub::probe(std::size_t index) {
  EndpointSet::Endpoint& ep = set_.endpoint(index);
  ep.last_probe_us = set_.time_source().now_us();
  ++ep.probes;
  ++stats_.probes;
  http::Request request;
  request.method = "GET";
  request.target = "/" + set_.service().name;
  request.headers.set(std::string(kHeaderClientId), set_.client_id());
  ep.transport->set_attempt_timeout_us(set_.options().probe_timeout_us);
  const std::uint64_t t0 = set_.time_source().now_us();
  try {
    (void)ep.transport->round_trip(request);
  } catch (const Error&) {
    ++ep.probe_failures;
    ++stats_.probe_failures;
    if (ep.breaker.record_failure()) ++stats_.breaker_trips;
    try {
      ep.transport->reconnect();
    } catch (const Error&) {
      // Still down; the next probe will try again after the cool-down.
    }
    return false;
  }
  // Any HTTP response proves the replica is alive and serving its front
  // door (admission control sheds only POSTs, so probes pass even under
  // overload). Walk the format-announce path so a restarted peer re-learns
  // our formats before the first real message, and feed the probe RTT to
  // the latency estimate and the quality loop — recovery is a quality
  // signal just like degradation was.
  const auto rtt = static_cast<double>(set_.time_source().now_us() - t0);
  if (ep.breaker.record_success()) ++stats_.breaker_closes;
  if (rtt > 0.0) ep.ewma_latency.update(rtt);
  ep.stub->reannounce_formats();
  if (quality_) quality_->observe_probe(rtt);
  return true;
}

void ResilientStub::pump_probes() {
  const std::uint64_t now = set_.time_source().now_us();
  const std::uint64_t interval = set_.options().probe_interval_us;
  for (std::size_t i = 0; i < set_.size(); ++i) {
    EndpointSet::Endpoint& ep = set_.endpoint(i);
    const BreakerState state = ep.breaker.state();
    if (state == BreakerState::kHalfOpen) {
      probe(i);
    } else if (state == BreakerState::kClosed && interval > 0 &&
               (ep.last_probe_us == 0 || now - ep.last_probe_us >= interval)) {
      probe(i);
    }
  }
}

pbio::Value ResilientStub::call(const std::string& operation,
                                const pbio::Value& params) {
  return call(operation, params, CallOptions{});
}

pbio::Value ResilientStub::call(const std::string& operation,
                                const pbio::Value& params,
                                const CallOptions& options) {
  const wsdl::OperationDesc& op = set_.service().required_operation(operation);
  ++stats_.calls;
  pump_probes();

  const int max_attempts = std::max(1, options.retry.max_attempts);
  Backoff backoff(options.retry, set_.client_id(), stats_.calls);
  std::vector<char> failed(set_.size(), 0);
  std::size_t prev = kNone;
  const ResilienceOptions& ro = set_.options();

  for (int attempt = 1;; ++attempt) {
    const std::uint64_t now = set_.time_source().now_us();
    const std::size_t primary = pick(failed, now);
    if (prev != kNone && primary != prev) ++stats_.failovers;
    std::size_t used = primary;
    try {
      EndpointSet::Endpoint& ep = set_.endpoint(primary);
      // Hedge an idempotent call when the primary has a trusted latency
      // profile and a healthy alternative exists: bound the primary attempt
      // at the hedge delay; if it blows through, cancel it (reconnect) and
      // spend the rest of the deadline at the next-best replica.
      if (op.idempotent && ro.hedge_enabled &&
          ep.latency.count() >= ro.hedge_min_samples) {
        const auto profile = static_cast<std::uint64_t>(
            ep.latency.percentile(ro.hedge_percentile) * ro.hedge_factor);
        const std::uint64_t hedge_delay =
            std::max(ro.hedge_min_delay_us, profile);
        const std::size_t alternative = pick_allowed(failed, now, primary);
        const bool fits =
            options.deadline_us == 0 || hedge_delay < options.deadline_us;
        if (alternative != kNone && fits) {
          try {
            return attempt_on(primary, operation, params, options, hedge_delay,
                              /*timeout_is_hedge=*/true);
          } catch (const TimeoutError&) {
            // The hedge boundary fired: the primary is slower than its own
            // profile. Record the bound as a (censored) latency sample —
            // into the EWMA too, so a replica that keeps getting hedged
            // loses its selection preference instead of soaking up a
            // doubling hedge boundary forever — then cancel the straggling
            // attempt and race the alternative with the remaining budget.
            // First response wins — the loser's connection is torn down, so
            // its late reply is dropped.
            ++stats_.hedges;
            ep.latency.record(static_cast<double>(hedge_delay));
            ep.ewma_latency.update(static_cast<double>(hedge_delay));
            try {
              ep.transport->reconnect();
            } catch (const Error&) {
              // A dead primary fails its reconnect too; the hedge proceeds.
            }
            const std::uint64_t remaining =
                options.deadline_us == 0 ? 0
                                         : options.deadline_us - hedge_delay;
            used = alternative;
            pbio::Value result = attempt_on(alternative, operation, params,
                                            options, remaining,
                                            /*timeout_is_hedge=*/false);
            ++stats_.hedge_wins;
            return result;
          }
        }
      }
      return attempt_on(primary, operation, params, options,
                        options.deadline_us, /*timeout_is_hedge=*/false);
    } catch (const Error& e) {
      if (!is_retryable(e, options.retry)) throw;
      if (attempt >= max_attempts || !op.idempotent) throw;
      ++stats_.retries;
      failed[used] = 1;
      prev = used;

      // Pacing: when another allowed replica is standing by, fail over to
      // it immediately — waiting out a backoff in front of a healthy
      // replica only adds latency. With nowhere better to go, wait the
      // jittered backoff (or the server's own Retry-After) before
      // re-trying, exactly like the single-endpoint retry loop.
      const std::uint64_t after = set_.time_source().now_us();
      if (pick_allowed(failed, after, kNone) == kNone) {
        wait_on(set_.time_source(), backoff.next_delay_us(e));
      }

      // Rebuild the failed replica's connection so a later attempt (or
      // probe) does not re-use a dead stream, and repeat the sender-side
      // format handshake.
      try {
        set_.endpoint(used).transport->reconnect();
      } catch (const Error&) {
        // Replica still unreachable; its breaker is already charged.
      }
      set_.endpoint(used).stub->reannounce_formats();
    }
  }
}

}  // namespace sbq::core
