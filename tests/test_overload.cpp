// Overload-protection tests: the degrade → shed → drain ladder
// (docs/robustness.md "Overload and drain").
//
//   * qos::LoadMonitor unit behavior (EWMA-from-zero ramp, shed threshold,
//     queue high-water),
//   * the full ladder over a loopback runtime with a scripted load source:
//     quality steps down before shedding starts, sheds surface as
//     OverloadError, the client retry honors the server's Retry-After,
//   * the acceptance scenario on real TCP: a pool of 2 workers and a queue
//     of 2 absorb 16 concurrent imaging calls (with retries riding through
//     the sheds) without the thread cap ever being exceeded,
//   * graceful drain: in-flight exchanges finish with `Connection: close`,
//     stalled connections are force-closed only past the deadline, every
//     worker joins.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "http/server.h"
#include "net/sim_clock.h"
#include "net/tcp.h"
#include "pbio/value_codec.h"
#include "qos/load.h"
#include "qos/manager.h"
#include "qos/quality_file.h"
#include "wsdl/wsdl.h"
#include "support/http_wire.h"

namespace sbq::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

// ------------------------------------------------------------- LoadMonitor

TEST(LoadMonitorTest, EwmaRampsFromZeroSoDegradePrecedesShed) {
  qos::LoadMonitor monitor(/*alpha=*/0.7, /*shed_threshold=*/0.9);
  EXPECT_DOUBLE_EQ(monitor.load(), 0.0);
  EXPECT_FALSE(monitor.should_shed());

  // Fully saturated samples: 2/2 workers busy, 2/2 queue slots taken.
  qos::LoadSample saturated;
  saturated.queue_depth = 2;
  saturated.queue_capacity = 2;
  saturated.in_flight = 2;
  saturated.workers = 2;

  // The smoothed load must cross a mid-range degrade boundary (0.5) strictly
  // before the shed threshold (0.9): quality steps down first.
  int polls_to_degrade = 0;
  int polls = 0;
  while (!monitor.should_shed()) {
    monitor.observe(saturated);
    ++polls;
    if (polls_to_degrade == 0 && monitor.load() >= 0.5) polls_to_degrade = polls;
    ASSERT_LT(polls, 100) << "shed threshold never reached";
  }
  EXPECT_GT(polls_to_degrade, 0);
  EXPECT_LT(polls_to_degrade, polls);
  EXPECT_GE(monitor.load(), 0.9);
  EXPECT_EQ(monitor.queue_high_water(), 2u);
  EXPECT_EQ(monitor.sample_count(), static_cast<std::uint64_t>(polls));

  // Idle samples decay the estimate back below the threshold.
  monitor.observe(qos::LoadSample{});
  EXPECT_FALSE(monitor.should_shed());
}

TEST(LoadMonitorTest, InstantaneousLoadAveragesWorkersAndQueue) {
  // α = 0: the smoothed value IS the instantaneous sample.
  qos::LoadMonitor monitor(/*alpha=*/0.0, /*shed_threshold=*/0.9);
  qos::LoadSample half;
  half.queue_depth = 0;
  half.queue_capacity = 4;
  half.in_flight = 4;
  half.workers = 4;
  // All workers busy, empty queue: load saturates at 0.5.
  EXPECT_DOUBLE_EQ(monitor.observe(half), 0.5);
  half.queue_depth = 4;
  EXPECT_DOUBLE_EQ(monitor.observe(half), 1.0);
}

TEST(LoadMonitorTest, EventPressureFeedsTheBacklogTerm) {
  // α = 0: the smoothed value IS the instantaneous sample.
  qos::LoadMonitor monitor(/*alpha=*/0.0, /*shed_threshold=*/0.9);

  // Event-front sample: all workers busy, dispatch queue empty, but every
  // live connection had a pending readiness event — the runtimes are
  // saturated, and the load must say so (backlog term = event pressure).
  qos::LoadSample event;
  event.queue_depth = 0;
  event.queue_capacity = 4;
  event.in_flight = 4;
  event.workers = 4;
  event.connections = 8;
  event.pending_events = 8;
  EXPECT_DOUBLE_EQ(monitor.observe(event), 1.0);

  // Quiet runtimes: the classic occupancy-only score.
  event.pending_events = 0;
  EXPECT_DOUBLE_EQ(monitor.observe(event), 0.5);

  // The backlog term is the max of queue fill and event pressure — a full
  // dispatch queue saturates it even with few pending events.
  event.queue_depth = 4;
  event.pending_events = 1;
  EXPECT_DOUBLE_EQ(monitor.observe(event), 1.0);

  // No connections and no pending events: queue fill alone sets the
  // backlog term.
  qos::LoadSample quiet;
  quiet.queue_depth = 2;
  quiet.queue_capacity = 4;
  quiet.in_flight = 0;
  quiet.workers = 4;
  EXPECT_DOUBLE_EQ(monitor.observe(quiet), 0.25);
}

TEST(LoadMonitorTest, PollSamplesTheSource) {
  qos::LoadMonitor monitor(/*alpha=*/0.0, /*shed_threshold=*/0.9);
  EXPECT_DOUBLE_EQ(monitor.poll(), 0.0);  // no source: unchanged
  monitor.set_source([] {
    qos::LoadSample s;
    s.queue_depth = 1;
    s.queue_capacity = 2;
    s.in_flight = 1;
    s.workers = 2;
    return s;
  });
  EXPECT_DOUBLE_EQ(monitor.poll(), 0.5);
  EXPECT_EQ(monitor.sample_count(), 1u);
}

TEST(LoadMonitorTest, RejectsBadParameters) {
  EXPECT_THROW(qos::LoadMonitor(/*alpha=*/1.0), QosError);
  EXPECT_THROW(qos::LoadMonitor(/*alpha=*/-0.1), QosError);
  EXPECT_THROW(qos::LoadMonitor(/*alpha=*/0.5, /*shed_threshold=*/0.0), QosError);
}

// ----------------------------------------------- imaging service fixture

FormatPtr req_format() {
  return FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build();
}

FormatPtr image_full_format() {
  return FormatBuilder("image_full")
      .add_scalar("id", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}

FormatPtr image_small_format() {
  return FormatBuilder("image_small")
      .add_scalar("id", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}

constexpr std::size_t kImageBytes = 16000;

// The load-driven policy: below half load serve the full image, above it
// the reduced one. Shedding begins only at smoothed load 0.9 — the degrade
// rung fires first by construction.
constexpr const char* kLoadPolicy =
    "attribute server_load\n"
    "0 0.5 - image_full\n"
    "0.5 inf - image_small\n";

Value shrink_image(const Value& full, const pbio::FormatDesc& target,
                   const qos::AttributeMap&) {
  const std::string& data = full.field("data").as_string();
  Value out = pbio::project_value(full, target);
  out.set_field("data", Value{data.substr(0, data.size() / 8)});
  return out;
}

/// Imaging service whose quality manager monitors `server_load`.
struct LoadedImagingFixture {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SimClock> clock = std::make_shared<net::SimClock>();
  ServiceRuntime runtime{format_server, clock};
  std::shared_ptr<qos::QualityManager> server_quality;

  LoadedImagingFixture() {
    runtime.register_operation("fetch_image", req_format(), image_full_format(),
                               [](const Value&) {
                                 return Value::record(
                                     {{"id", 7},
                                      {"data", Value{std::string(kImageBytes, 'D')}}});
                               });
    server_quality = std::make_shared<qos::QualityManager>(
        qos::QualityFile::parse(kLoadPolicy), /*switch_threshold=*/1);
    server_quality->register_message_type("image_full", image_full_format());
    server_quality->register_message_type("image_small", image_small_format(),
                                          shrink_image);
    runtime.set_quality_manager(server_quality);
  }

  wsdl::ServiceDesc service(bool idempotent = true) {
    wsdl::ServiceDesc svc;
    svc.name = "Imaging";
    wsdl::OperationDesc op;
    op.name = "fetch_image";
    op.input = req_format();
    op.output = image_full_format();
    op.idempotent = idempotent;
    svc.operations.push_back(std::move(op));
    return svc;
  }
};

// --------------------------------------------- the ladder, deterministically

// Scripted load source: saturated for the first `saturated_polls` samples,
// idle afterwards. Driving the monitor through the runtime's per-request
// poll makes the whole ladder deterministic on the loopback transport.
qos::LoadMonitor::Source scripted_source(std::shared_ptr<std::atomic<int>> left) {
  return [left] {
    qos::LoadSample s;
    s.queue_capacity = 2;
    s.workers = 2;
    if (left->fetch_sub(1) > 0) {
      s.queue_depth = 2;
      s.in_flight = 2;
    }
    return s;
  };
}

TEST(OverloadLadderTest, DegradesThenShedsThenRecovers) {
  LoadedImagingFixture env;
  auto monitor = std::make_shared<qos::LoadMonitor>(
      /*alpha=*/0.7, /*shed_threshold=*/0.9, /*retry_after_s=*/1);
  // Saturated "forever" (until the test flips it below).
  auto saturated_left = std::make_shared<std::atomic<int>>(1'000'000);
  monitor->set_source(scripted_source(saturated_left));
  env.runtime.set_load_monitor(monitor);

  LoopbackTransport transport(env.runtime);
  // No client-side quality manager: on the loopback it would share the
  // server's, and the client's RTT observations would clobber the
  // server_load attribute. Reduced responses resolve through the format
  // server alone.
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);

  const Value params = Value::record({{"n", 1}});

  // Rung 1 — degrade: under sustained saturation the response type steps
  // down to image_small strictly before the monitor reaches the shed
  // threshold (the first shed ends the loop).
  bool degraded_before_shed = false;
  bool shed_seen = false;
  while (!shed_seen) {
    try {
      const Value result = client.call("fetch_image", params);
      EXPECT_EQ(result.field("id").as_i64(), 7);
      if (client.last_response_type() == "image_small") {
        degraded_before_shed = true;
      }
    } catch (const OverloadError&) {
      shed_seen = true;
    }
    ASSERT_LT(client.stats().calls, 100u) << "shed threshold never reached";
  }
  EXPECT_TRUE(degraded_before_shed);
  EXPECT_GT(client.stats().degradations, 0u);
  EXPECT_TRUE(monitor->should_shed());

  // Still saturated: the next call sheds again.
  EXPECT_THROW(client.call("fetch_image", params), OverloadError);
  EXPECT_GE(env.runtime.stats().sheds, 1u);
  EXPECT_GT(env.runtime.stats().queue_high_water, 0u);

  // Recovery with retries: saturation ends after the next poll, so the
  // first retried attempt succeeds. The client must honor the server's
  // 1-second Retry-After over its own 5 µs backoff — visible on the shared
  // simulated clock.
  saturated_left->store(1);  // one more saturated poll (the shed), then idle
  CallOptions opts;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff_us = 5;
  const std::uint64_t before_us = env.clock->now_us();
  const Value result = client.call("fetch_image", params, opts);
  EXPECT_EQ(result.field("id").as_i64(), 7);
  EXPECT_GE(client.stats().sheds, 3u);  // two unretried above + this one
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_GE(env.clock->now_us() - before_us, 1'000'000u)
      << "client ignored the server-provided Retry-After";
  // Sheds are flow control, not faults: the fault counter stayed put.
  EXPECT_EQ(client.stats().faults_injected, 0u);

  // Load has decayed: full quality comes back.
  for (int i = 0; i < 4; ++i) client.call("fetch_image", params);
  EXPECT_EQ(client.last_response_type(), "image_full");
  EXPECT_GT(client.stats().recoveries, 0u);
}

TEST(OverloadLadderTest, NonIdempotentShedIsNotRetried) {
  LoadedImagingFixture env;
  auto monitor = std::make_shared<qos::LoadMonitor>(
      /*alpha=*/0.0, /*shed_threshold=*/0.5, /*retry_after_s=*/1);
  auto always = std::make_shared<std::atomic<int>>(1'000'000);
  monitor->set_source(scripted_source(always));
  env.runtime.set_load_monitor(monitor);

  LoopbackTransport transport(env.runtime);
  ClientStub client(transport, WireFormat::kBinary,
                    env.service(/*idempotent=*/false), env.format_server,
                    env.clock);
  CallOptions opts;
  opts.retry.max_attempts = 5;
  EXPECT_THROW(client.call("fetch_image", Value::record({{"n", 1}}), opts),
               OverloadError);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().sheds, 1u);
}

TEST(OverloadLadderTest, ShedWorksOnTheXmlWire) {
  LoadedImagingFixture env;
  auto monitor = std::make_shared<qos::LoadMonitor>(
      /*alpha=*/0.0, /*shed_threshold=*/0.5, /*retry_after_s=*/2);
  auto always = std::make_shared<std::atomic<int>>(1'000'000);
  monitor->set_source(scripted_source(always));
  env.runtime.set_load_monitor(monitor);

  LoopbackTransport transport(env.runtime);
  ClientStub client(transport, WireFormat::kXml, env.service(),
                    env.format_server, env.clock);
  try {
    client.call("fetch_image", Value::record({{"n", 1}}));
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.retry_after_us(), 2'000'000u);
  }
}

// --------------------------------------------------- acceptance: real TCP

TEST(OverloadAcceptanceTest, SixteenConcurrentCallsThroughEventFrontPoolOfTwo) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  LoadedImagingFixture fixture;  // reuse formats/service description only

  ServiceRuntime runtime(format_server, clock);
  runtime.register_operation("fetch_image", req_format(), image_full_format(),
                             [](const Value&) {
                               return Value::record(
                                   {{"id", 7},
                                    {"data", Value{std::string(kImageBytes, 'D')}}});
                             });

  http::ServerOptions options;
  options.runtimes = 2;
  options.workers = 2;
  options.queue_depth = 2;
  options.shed_retry_after_s = 0;  // shed retries fall back to local backoff
  // The handler is gated: both workers stay busy until the burst has filled
  // the dispatch queue and been shed, so the saturation the assertions
  // below count on does not depend on how the scheduler interleaves.
  std::atomic<int> entered{0};
  std::atomic<bool> gate_open{false};
  http::Server server(0,
                      [&](const http::Request& r) {
                        ++entered;
                        while (!gate_open.load()) {
                          std::this_thread::sleep_for(std::chrono::microseconds(100));
                        }
                        return runtime.handle(r);
                      },
                      options);

  std::atomic<int> successes{0};
  std::atomic<std::uint64_t> client_sheds{0};
  std::atomic<bool> go{false};
  auto one_client = [&] {
    while (!go.load()) std::this_thread::yield();  // burst-arrival barrier
    HttpTransport transport([&]() -> std::unique_ptr<net::Stream> {
      return net::TcpStream::connect("127.0.0.1", server.port());
    });
    ClientStub client(transport, WireFormat::kBinary, fixture.service(),
                      format_server, clock);
    CallOptions opts;
    opts.deadline_us = 5'000'000;
    opts.retry.max_attempts = 60;
    opts.retry.initial_backoff_us = 2'000;
    opts.retry.max_backoff_us = 20'000;
    const Value result = client.call("fetch_image", Value::record({{"n", 1}}), opts);
    EXPECT_EQ(result.field("id").as_i64(), 7);
    ++successes;
    client_sheds += client.stats().sheds;
  };

  std::vector<std::thread> threads;
  threads.reserve(16);
  for (int i = 0; i < 16; ++i) threads.emplace_back(one_client);
  go.store(true);
  const Stopwatch held;
  while ((entered.load() < 2 || server.load().queue_depth < options.queue_depth ||
          server.stats().shed == 0) &&
         held.elapsed_ns() < 10'000'000'000ull) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate_open.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(successes.load(), 16);
  // The bounded pool held: in-flight exchanges never exceeded the workers
  // plus the dispatch-queue slots (the event front counts an exchange from
  // dispatch admission to the response hitting the kernel).
  EXPECT_LE(server.stats().peak_in_flight,
            static_cast<std::uint64_t>(options.workers + options.queue_depth));
  EXPECT_GE(server.stats().accepted, 16u);
  // With a 16-call burst against 2 workers + 2 queue slots, some requests
  // were shed with the canned 503 and rode in on retries.
  EXPECT_GT(server.stats().shed, 0u);
  EXPECT_LE(client_sheds.load(), server.stats().shed);
  server.shutdown();
}

// The degrade rung ahead of the shed rung, through the event front: under a
// saturated load monitor the quality manager steps responses down to
// image_small strictly before admission control starts answering 503.
TEST(OverloadLadderTest, DegradeThenShedBehindTheEventFront) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  LoadedImagingFixture fixture;  // reuse formats/service description only

  ServiceRuntime runtime(format_server, clock);
  runtime.register_operation("fetch_image", req_format(), image_full_format(),
                             [](const Value&) {
                               return Value::record(
                                   {{"id", 7},
                                    {"data", Value{std::string(kImageBytes, 'D')}}});
                             });
  auto server_quality = std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse(kLoadPolicy), /*switch_threshold=*/1);
  server_quality->register_message_type("image_full", image_full_format());
  server_quality->register_message_type("image_small", image_small_format(),
                                        shrink_image);
  runtime.set_quality_manager(server_quality);

  auto monitor = std::make_shared<qos::LoadMonitor>(
      /*alpha=*/0.7, /*shed_threshold=*/0.9, /*retry_after_s=*/1);
  auto saturated_left = std::make_shared<std::atomic<int>>(1'000'000);
  monitor->set_source(scripted_source(saturated_left));
  runtime.set_load_monitor(monitor);

  http::ServerOptions options;
  options.runtimes = 2;
  options.workers = 2;
  http::Server server(0, [&](const http::Request& r) { return runtime.handle(r); },
                      options);

  HttpTransport transport([&]() -> std::unique_ptr<net::Stream> {
    return net::TcpStream::connect("127.0.0.1", server.port());
  });
  ClientStub client(transport, WireFormat::kBinary, fixture.service(),
                    format_server, clock);

  const Value params = Value::record({{"n", 1}});
  bool degraded_before_shed = false;
  bool shed_seen = false;
  while (!shed_seen) {
    try {
      const Value result = client.call("fetch_image", params);
      EXPECT_EQ(result.field("id").as_i64(), 7);
      if (client.last_response_type() == "image_small") {
        degraded_before_shed = true;
      }
    } catch (const OverloadError&) {
      shed_seen = true;
    }
    ASSERT_LT(client.stats().calls, 100u) << "shed threshold never reached";
  }
  EXPECT_TRUE(degraded_before_shed);
  EXPECT_GT(client.stats().degradations, 0u);
  EXPECT_TRUE(monitor->should_shed());
  EXPECT_GE(runtime.stats().sheds, 1u);

  // Final rung: the drain. Idle at this point, so it completes immediately
  // and counts exactly once.
  server.shutdown(/*drain_deadline_us=*/500'000);
  EXPECT_EQ(server.stats().drains, 1u);
}

// The standard wiring between a server and the monitor: the event front's
// load signal carries runtimes and live connections into the LoadSample.
TEST(OverloadLadderTest, EventServerLoadSourceCarriesRuntimeSignals) {
  http::ServerOptions options;
  options.runtimes = 2;
  options.workers = 3;
  options.queue_depth = 5;
  http::Server server(0, [](const http::Request&) { return http::Response{}; },
                      options);

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  http::Client conn(*stream);
  http::Request req;
  req.method = "POST";
  req.set_body("x");
  (void)conn.round_trip(req);  // keep-alive: the connection stays live

  const http::ServerLoad load = server.load();
  EXPECT_EQ(load.runtimes, 2u);
  EXPECT_EQ(load.workers, 3u);
  EXPECT_EQ(load.queue_capacity, 5u);
  EXPECT_GE(load.connections, 1u);

  qos::LoadMonitor monitor(/*alpha=*/0.0, /*shed_threshold=*/0.9);
  monitor.set_source(server_load_source(server));
  const double smoothed = monitor.poll();
  EXPECT_GE(smoothed, 0.0);
  EXPECT_LE(smoothed, 1.0);
  EXPECT_EQ(monitor.sample_count(), 1u);
  server.shutdown();
}

// ---------------------------------------------------------------- draining

TEST(DrainTest, EventFrontGracefulDrainFinishesInFlightWithConnectionClose) {
  std::atomic<bool> in_handler{false};
  http::ServerOptions options;
  options.runtimes = 2;
  options.workers = 2;
  http::Server server(0,
                      [&](const http::Request&) {
                        in_handler.store(true);
                        std::this_thread::sleep_for(std::chrono::milliseconds(100));
                        http::Response resp;
                        resp.set_body("slow but done");
                        return resp;
                      },
                      options);

  http::Response resp;
  std::thread caller([&] {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    http::Client conn(*stream);
    http::Request req;
    req.method = "POST";
    req.set_body("x");
    resp = conn.round_trip(req);
  });
  while (!in_handler.load()) std::this_thread::yield();

  server.shutdown(/*drain_deadline_us=*/2'000'000);
  caller.join();

  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body_string(), "slow but done");
  // The drain told the client this connection is done.
  EXPECT_EQ(resp.headers.get("Connection").value_or(""), "close");
  EXPECT_EQ(server.stats().drains, 1u);
  EXPECT_EQ(server.stats().forced_closes, 0u);
}

TEST(DrainTest, EventFrontStragglersAreCutAtTheDrainDeadline) {
  http::ServerOptions options;
  options.runtimes = 1;
  options.workers = 1;
  http::Server server(0, [](const http::Request&) { return http::Response{}; },
                      options);

  // A keep-alive client that finishes one exchange and then says nothing.
  // It occupies no worker — the drain needn't wait for it — but it is still
  // open when the drain ends, so it is force-closed and counted. The round
  // trip proves the connection was admitted before the drain began: a
  // connection still in the accept path when `draining` is set is shed as a
  // mid-drain arrival instead (503 + close), which is not a straggler.
  auto straggler = net::TcpStream::connect("127.0.0.1", server.port());
  http::Client conn(*straggler);
  http::Request req;
  req.method = "POST";
  req.set_body("x");
  ASSERT_EQ(conn.round_trip(req).status, 200);

  server.shutdown(/*drain_deadline_us=*/100'000);
  EXPECT_EQ(server.stats().forced_closes, 1u);
  EXPECT_EQ(server.stats().shed, 0u);
  EXPECT_EQ(server.stats().drains, 1u);
}

TEST(DrainTest, EventFrontQueuedButUndispatchedRequestsGetTheCanned503) {
  // One worker, parked on a slow call; a second request is parsed and
  // waiting in the dispatch queue and must be answered 503 (not silence)
  // when the drain begins.
  std::atomic<bool> in_handler{false};
  http::ServerOptions options;
  options.runtimes = 1;
  options.workers = 1;
  options.queue_depth = 4;
  http::Server server(0,
                      [&](const http::Request&) {
                        in_handler.store(true);
                        std::this_thread::sleep_for(std::chrono::milliseconds(300));
                        return http::Response{};
                      },
                      options);

  std::thread busy([&] {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    http::Client conn(*stream);
    http::Request req;
    req.method = "POST";
    req.set_body("x");
    (void)conn.round_trip(req);
  });
  while (!in_handler.load()) std::this_thread::yield();

  auto queued = net::TcpStream::connect("127.0.0.1", server.port());
  http::Request waiting;
  waiting.method = "POST";
  waiting.set_body("queued");
  test::write_message(*queued, waiting);
  // Wait until the runtime has parsed and queued the request.
  while (server.load().queue_depth == 0) std::this_thread::yield();

  server.shutdown(/*drain_deadline_us=*/1'000'000);
  busy.join();

  http::MessageReader reader(*queued);
  const auto resp = reader.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 503);
  EXPECT_TRUE(resp->headers.has("Retry-After"));
  EXPECT_EQ(resp->headers.get("Connection").value_or(""), "close");
}

// ------------------------------------------- runtime-level drain signaling

TEST(DrainTest, RuntimeDrainMarksResponsesAndCountsOnce) {
  LoadedImagingFixture env;
  LoopbackTransport transport(env.runtime);
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);

  env.runtime.set_draining(true);
  env.runtime.set_draining(true);  // idempotent: counted once
  EXPECT_TRUE(env.runtime.draining());
  client.call("fetch_image", Value::record({{"n", 1}}));
  EXPECT_EQ(env.runtime.stats().drains, 1u);
  env.runtime.set_draining(false);
  EXPECT_FALSE(env.runtime.draining());
}

}  // namespace
}  // namespace sbq::core
