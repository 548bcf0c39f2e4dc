// Robustness tests: scripted fault scenarios over live streams and the
// simulated link, deadline expiry, idempotent-only retries, server hard
// limits, and the QoS loop's reaction to faults (degrade under sustained
// failures, recover on clean traffic). See docs/robustness.md.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "http/parser.h"
#include "http/server.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/pipe.h"
#include "net/sim_clock.h"
#include "pbio/value_codec.h"
#include "qos/manager.h"
#include "qos/quality_file.h"
#include "wsdl/wsdl.h"
#include "support/http_wire.h"
#include "support/serve_connection.h"

namespace sbq::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjectorTest, ScriptedFaultsFireAtTheirOpIndex) {
  net::FaultInjector inj(1);
  net::FaultSpec partial;
  partial.kind = net::FaultKind::kPartialRead;  // kNextOp: next read
  inj.schedule(partial);
  net::FaultSpec reset;
  reset.kind = net::FaultKind::kReset;
  reset.at_op = 3;
  inj.schedule(reset);

  // op 0 is a write: the partial-read spec does not apply, nothing fires.
  EXPECT_FALSE(inj.next_fault(/*is_read=*/false, /*is_write=*/true).has_value());
  // op 1 is a read: the FIFO partial-read spec fires.
  auto f1 = inj.next_fault(/*is_read=*/true, /*is_write=*/false);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->kind, net::FaultKind::kPartialRead);
  // op 2: nothing scheduled.
  EXPECT_FALSE(inj.next_fault(true, false).has_value());
  // op 3: the exact-index reset.
  auto f3 = inj.next_fault(true, false);
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->kind, net::FaultKind::kReset);
  EXPECT_TRUE(inj.exhausted());
  EXPECT_EQ(inj.stats().faults_injected, 2u);
  EXPECT_EQ(inj.op_count(), 4u);
}

TEST(FaultInjectorTest, SeededProbabilisticFaultsAreReproducible) {
  net::FaultInjector a(42);
  net::FaultInjector b(42);
  a.set_partial_read_probability(0.3);
  b.set_partial_read_probability(0.3);
  a.set_corrupt_probability(0.2);
  b.set_corrupt_probability(0.2);
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.next_fault(true, false);
    const auto fb = b.next_fault(true, false);
    ASSERT_EQ(fa.has_value(), fb.has_value());
    if (fa) {
      EXPECT_EQ(fa->kind, fb->kind);
      EXPECT_EQ(fa->offset, fb->offset);
      EXPECT_EQ(fa->xor_mask, fb->xor_mask);
    }
  }
  EXPECT_EQ(a.stats().partial_reads, b.stats().partial_reads);
  EXPECT_EQ(a.stats().corruptions, b.stats().corruptions);
  EXPECT_GT(a.stats().faults_injected, 0u);
}

// ------------------------------------------------------------- FaultyStream

TEST(FaultyStreamTest, PartialReadsStillDeliverEveryByte) {
  auto [writer, reader] = net::make_pipe();
  auto inj = std::make_shared<net::FaultInjector>(7);
  inj->set_partial_read_probability(1.0);  // every read is short
  net::FaultyStream faulty(*reader, inj);

  Bytes sent(1000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i * 13);
  }
  writer->write_all(BytesView{sent});

  Bytes got(sent.size());
  faulty.read_exact(got.data(), got.size());
  EXPECT_EQ(got, sent);
  EXPECT_GT(inj->stats().partial_reads, 1u);
}

TEST(FaultyStreamTest, InjectedResetThrowsAndKillsTheStream) {
  auto [writer, reader] = net::make_pipe();
  auto inj = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec reset;
  reset.kind = net::FaultKind::kReset;
  inj->schedule(reset);
  net::FaultyStream faulty(*reader, inj);

  writer->write_all(std::string_view("hello"));
  std::uint8_t buf[8];
  EXPECT_THROW(faulty.read_some(buf, sizeof buf), TransportError);
  // Dead for good: later reads see EOF, writes fail.
  EXPECT_EQ(faulty.read_some(buf, sizeof buf), 0u);
  EXPECT_THROW(faulty.write_all(buf, sizeof buf), TransportError);
  EXPECT_EQ(inj->stats().resets, 1u);
}

TEST(FaultyStreamTest, InjectedTruncateLooksLikeMidMessageEof) {
  auto [writer, reader] = net::make_pipe();
  auto inj = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec cut;
  cut.kind = net::FaultKind::kTruncate;
  inj->schedule(cut);
  net::FaultyStream faulty(*reader, inj);

  writer->write_all(std::string_view("data that will never arrive"));
  std::uint8_t buf[16];
  EXPECT_EQ(faulty.read_some(buf, sizeof buf), 0u);  // EOF despite queued bytes
  try {
    faulty.read_exact(buf, sizeof buf);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    // Satellite contract: the EOF error names how much was already read.
    EXPECT_NE(std::string(e.what()).find("got only 0"), std::string::npos);
  }
}

TEST(FaultyStreamTest, ShortWriteSendsPrefixThenFails) {
  auto [writer, reader] = net::make_pipe();
  auto inj = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec cut;
  cut.kind = net::FaultKind::kShortWrite;
  cut.offset = 4;
  inj->schedule(cut);
  net::FaultyStream faulty(*writer, inj);

  try {
    faulty.write_all(std::string_view("0123456789"));
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("4 of 10"), std::string::npos);
  }
  std::uint8_t buf[4];
  reader->read_exact(buf, sizeof buf);  // the prefix did go out
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 4), "0123");
}

TEST(FaultyStreamTest, CorruptionFlipsExactlyTheScriptedByte) {
  auto [writer, reader] = net::make_pipe();
  auto inj = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.offset = 3;
  corrupt.xor_mask = 0x01;
  inj->schedule(corrupt);
  net::FaultyStream faulty(*reader, inj);

  writer->write_all(std::string_view("abcdefgh"));
  std::uint8_t buf[8];
  faulty.read_exact(buf, sizeof buf);
  EXPECT_EQ(buf[3], static_cast<std::uint8_t>('d' ^ 0x01));
  EXPECT_EQ(buf[0], 'a');
  EXPECT_EQ(buf[7], 'h');
}

// ---------------------------------------------------------- read deadlines

TEST(ReadDeadlineTest, PipeReadTimesOutWhenNoBytesArrive) {
  auto [writer, reader] = net::make_pipe();
  reader->set_read_timeout_us(20'000);
  std::uint8_t buf[4];
  EXPECT_THROW(reader->read_some(buf, sizeof buf), TimeoutError);
  // A TimeoutError is still a TransportError for callers that only
  // distinguish "connection usable" from "connection dead".
  writer->write_all(std::string_view("late"));
  EXPECT_EQ(reader->read_some(buf, sizeof buf), 4u);
}

TEST(ReadDeadlineTest, EofMessageCountsBytesAlreadyRead) {
  auto [writer, reader] = net::make_pipe();
  writer->write_all(std::string_view("0123456789"));
  writer->close();
  std::uint8_t buf[20];
  try {
    reader->read_exact(buf, sizeof buf);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wanted 20"), std::string::npos);
    EXPECT_NE(what.find("got only 10"), std::string::npos);
  }
}

TEST(ReadDeadlineTest, StallBeyondDeadlineSurfacesAsTimeout) {
  auto [writer, reader] = net::make_pipe();
  auto inj = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec stall;
  stall.kind = net::FaultKind::kStall;
  stall.stall_us = 60'000'000;  // a minute of dead air
  inj->schedule(stall);
  net::FaultyStream faulty(*reader, inj);
  faulty.set_read_timeout_us(10'000);
  std::uint64_t stalled_us = 0;
  faulty.set_stall_handler([&](std::uint64_t us) { stalled_us += us; });

  writer->write_all(std::string_view("x"));
  std::uint8_t buf[1];
  EXPECT_THROW(faulty.read_some(buf, 1), TimeoutError);
  // Only the deadline's worth of time passes, not the full stall.
  EXPECT_EQ(stalled_us, 10'000u);
}

// ------------------------------------------------------- server hard limits

http::Response trivial_ok(const http::Request&) {
  http::Response r;
  r.set_body("ok");
  return r;
}

/// Writes `wire` as a client, serves the connection, returns the response.
http::Response exchange_raw(const std::string& wire) {
  auto [client_end, server_end] = net::make_pipe();
  std::thread server([end = server_end.get()] {
    test::serve_connection(*end, trivial_ok);
  });
  client_end->write_all(std::string_view(wire));
  http::MessageReader reader(*client_end);
  const auto response = reader.read_response();
  client_end->close();
  server.join();
  EXPECT_TRUE(response.has_value());
  return response.value_or(http::Response{});
}

TEST(ServerLimitsTest, TooManyHeaderFieldsIsRejectedWith400) {
  std::string wire = "POST / HTTP/1.1\r\n";
  for (int i = 0; i < 150; ++i) {
    wire += "X-Filler-" + std::to_string(i) + ": v\r\n";
  }
  wire += "Content-Length: 0\r\n\r\n";
  EXPECT_EQ(exchange_raw(wire).status, 400);
}

TEST(ServerLimitsTest, OversizedHeaderBlockIsRejectedWith400) {
  std::string wire = "POST / HTTP/1.1\r\nX-Huge: ";
  wire += std::string(70 * 1024, 'h');  // > 64 KiB default cap
  wire += "\r\nContent-Length: 0\r\n\r\n";
  EXPECT_EQ(exchange_raw(wire).status, 400);
}

TEST(ServerLimitsTest, AbsurdContentLengthIsRejectedBeforeAllocation) {
  // 1 TB body claim: must bounce off the limit, not attempt the allocation.
  const std::string wire =
      "POST / HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n";
  EXPECT_EQ(exchange_raw(wire).status, 400);
}

TEST(ServerLimitsTest, GarbageRequestGets400AndConnectionSurvivesServerSide) {
  EXPECT_EQ(exchange_raw("complete nonsense\r\n\r\n").status, 400);
}

TEST(ServerLimitsTest, HandlerExceptionBecomes500NotConnectionLoss) {
  auto [client_end, server_end] = net::make_pipe();
  std::thread server([end = server_end.get()] {
    test::serve_connection(*end, [](const http::Request&) -> http::Response {
      throw std::runtime_error("handler exploded");
    });
  });
  http::Request req;
  req.set_body("x");
  test::write_message(*client_end, req);
  http::MessageReader reader(*client_end);
  const auto response = reader.read_response();
  client_end->close();
  server.join();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 500);
}

// -------------------------------------------------- service + retry fixtures

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

// Same shape as the paper's imaging experiment: clean ADSL moves the 16 KB
// payload in ~160 ms (full quality); fault penalties push the estimate far
// past 250 ms (reduced quality).
constexpr const char* kImagePolicy =
    "attribute rtt_us\n"
    "0 250000 - image_full\n"
    "250000 inf - image_small\n";

Value shrink_image(const Value& full, const pbio::FormatDesc& target,
                   const qos::AttributeMap&) {
  const std::string& data = full.field("data").as_string();
  Value out = pbio::project_value(full, target);
  out.set_field("data", Value{data.substr(0, data.size() / 8)});
  return out;
}

/// Imaging service behind a quality manager, on a shared simulated clock.
struct ImagingFixture {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SimClock> clock = std::make_shared<net::SimClock>();
  ServiceRuntime runtime{format_server, clock};
  std::shared_ptr<qos::QualityManager> server_quality;

  ImagingFixture() {
    runtime.register_operation("fetch_image", req_format(), image_full_format(),
                               [](const Value&) {
                                 return Value::record(
                                     {{"id", 7},
                                      {"data", Value{std::string(kImageBytes, 'D')}}});
                               });
    server_quality = std::make_shared<qos::QualityManager>(
        qos::QualityFile::parse(kImagePolicy), /*switch_threshold=*/1);
    server_quality->register_message_type("image_full", image_full_format());
    server_quality->register_message_type("image_small", image_small_format(),
                                          shrink_image);
    runtime.set_quality_manager(server_quality);
  }

  /// The client's service view; fetch_image is WSDL-declared idempotent
  /// unless a test says otherwise.
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

// ------------------------------------------------ retries on the sim link

TEST(SimRetryTest, IdempotentCallRetriesThroughAReset) {
  ImagingFixture env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  auto faults = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec reset;
  reset.kind = net::FaultKind::kReset;
  reset.at_op = 0;
  faults->schedule(reset);
  transport.set_fault_injector(faults);

  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  CallOptions opts;
  opts.deadline_us = 2'000'000;
  opts.retry.max_attempts = 3;

  const Value result = client.call("fetch_image", Value::record({{"n", 1}}), opts);
  EXPECT_EQ(result.field("id").as_i64(), 7);
  EXPECT_EQ(client.stats().calls, 1u);
  EXPECT_EQ(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().faults_injected, 1u);
  // On the sim link a reset is a silently lost exchange: it surfaces as the
  // read deadline expiring, so it counts as a timeout too.
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(faults->stats().resets, 1u);
}

TEST(SimRetryTest, NonIdempotentCallIsNeverRetried) {
  ImagingFixture env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  auto faults = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec reset;
  reset.kind = net::FaultKind::kReset;
  reset.at_op = 0;
  faults->schedule(reset);
  transport.set_fault_injector(faults);

  ClientStub client(transport, WireFormat::kBinary,
                    env.service(/*idempotent=*/false), env.format_server,
                    env.clock);
  CallOptions opts;
  opts.deadline_us = 2'000'000;
  opts.retry.max_attempts = 5;  // policy allows it; the WSDL forbids it

  EXPECT_THROW(client.call("fetch_image", Value::record({{"n", 1}}), opts),
               TimeoutError);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().timeouts, 1u);
}

TEST(SimRetryTest, CorruptedResponseRetriesOnlyWhenPolicyAllows) {
  net::FaultSpec corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.at_op = 0;
  corrupt.offset = 0;  // smash the envelope header: guaranteed CodecError

  {
    ImagingFixture env;
    SimLinkTransport transport(env.runtime, net::LinkModel(net::lan_100mbps()),
                               env.clock);
    transport.set_charge_server_cpu(false);
    auto faults = std::make_shared<net::FaultInjector>(1);
    faults->schedule(corrupt);
    transport.set_fault_injector(faults);
    ClientStub client(transport, WireFormat::kBinary, env.service(),
                      env.format_server, env.clock);
    CallOptions opts;
    opts.retry.max_attempts = 2;
    opts.retry.retry_codec_errors = true;
    const Value result =
        client.call("fetch_image", Value::record({{"n", 1}}), opts);
    EXPECT_EQ(result.field("id").as_i64(), 7);
    EXPECT_EQ(client.stats().retries, 1u);
  }
  {
    ImagingFixture env;
    SimLinkTransport transport(env.runtime, net::LinkModel(net::lan_100mbps()),
                               env.clock);
    transport.set_charge_server_cpu(false);
    auto faults = std::make_shared<net::FaultInjector>(1);
    faults->schedule(corrupt);
    transport.set_fault_injector(faults);
    ClientStub client(transport, WireFormat::kBinary, env.service(),
                      env.format_server, env.clock);
    CallOptions opts;
    opts.retry.max_attempts = 2;  // codec retries stay off by default
    EXPECT_THROW(client.call("fetch_image", Value::record({{"n", 1}}), opts),
                 CodecError);
    EXPECT_EQ(client.stats().retries, 0u);
  }
}

TEST(SimRetryTest, StallShorterThanDeadlineJustDelaysTheCall) {
  ImagingFixture env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  auto faults = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec stall;
  stall.kind = net::FaultKind::kStall;
  stall.at_op = 0;
  stall.stall_us = 500'000;
  faults->schedule(stall);
  transport.set_fault_injector(faults);

  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  CallOptions opts;
  opts.deadline_us = 2'000'000;

  const std::uint64_t t0 = env.clock->now_us();
  const Value result = client.call("fetch_image", Value::record({{"n", 1}}), opts);
  EXPECT_EQ(result.field("data").as_string().size(), kImageBytes);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().timeouts, 0u);
  EXPECT_GE(env.clock->now_us() - t0, 500'000u);  // the stall was charged
  EXPECT_LT(env.clock->now_us() - t0, 2'000'000u);
}

TEST(SimRetryTest, StallBeyondDeadlineExpiresExactlyAtTheDeadline) {
  ImagingFixture env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  auto faults = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec stall;
  stall.kind = net::FaultKind::kStall;
  stall.at_op = 0;
  stall.stall_us = 60'000'000;
  faults->schedule(stall);
  transport.set_fault_injector(faults);

  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  CallOptions opts;
  opts.deadline_us = 2'000'000;

  const std::uint64_t t0 = env.clock->now_us();
  EXPECT_THROW(client.call("fetch_image", Value::record({{"n", 1}}), opts),
               TimeoutError);
  // The virtual clock stops at the deadline, not at the end of the stall.
  EXPECT_EQ(env.clock->now_us() - t0, 2'000'000u);
}

// --------------------------------------------- the paper's fault scenario

// Acceptance scenario from the robustness issue: an imaging round trip on
// the ADSL sim link survives two connection resets and a stall, records
// retries, degrades the QoS message type while the link is misbehaving, and
// recovers full quality on clean traffic afterwards.
TEST(FaultScenarioTest, ImagingCallSurvivesResetsAndStallWithQosDegradation) {
  ImagingFixture env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  auto faults = std::make_shared<net::FaultInjector>(42);
  // Round trips are injector ops: op 0 is the clean baseline call; the
  // faulted call's three attempts land on ops 1 (reset), 2 (reset),
  // 3 (stall, then the exchange completes).
  net::FaultSpec reset1;
  reset1.kind = net::FaultKind::kReset;
  reset1.at_op = 1;
  net::FaultSpec reset2;
  reset2.kind = net::FaultKind::kReset;
  reset2.at_op = 2;
  net::FaultSpec stall;
  stall.kind = net::FaultKind::kStall;
  stall.at_op = 3;
  stall.stall_us = 500'000;
  faults->schedule(reset1);
  faults->schedule(reset2);
  faults->schedule(stall);
  transport.set_fault_injector(faults);

  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  CallOptions opts;
  opts.deadline_us = 2'000'000;
  opts.retry.max_attempts = 5;
  client.set_default_call_options(opts);

  // Baseline: clean ADSL, full-quality imaging payload.
  const Value baseline = client.call("fetch_image", Value::record({{"n", 0}}));
  EXPECT_EQ(client.last_response_type(), "image_full");
  const std::string full_payload = baseline.field("data").as_string();
  EXPECT_EQ(full_payload, std::string(kImageBytes, 'D'));

  // The faulted call: two resets (each burning a full deadline), one stall,
  // then success. Each failed attempt feeds a loss-like penalty into the
  // RTT estimate, so the attempt that finally completes reports a huge RTT
  // and the server degrades the response type.
  const Value degraded = client.call("fetch_image", Value::record({{"n", 1}}));
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().faults_injected, 2u);
  EXPECT_EQ(client.stats().timeouts, 2u);
  EXPECT_EQ(client.last_response_type(), "image_small");
  EXPECT_GE(client.stats().degradations, 1u);
  // The degraded payload is the correct reduced imaging result.
  EXPECT_EQ(degraded.field("id").as_i64(), 7);
  EXPECT_EQ(degraded.field("data").as_string(),
            std::string(kImageBytes / 8, 'D'));
  EXPECT_TRUE(faults->exhausted());

  // Recovery: clean calls decay the estimate below the switch boundary and
  // the server returns to the full type; the payload is byte-identical to
  // the pre-fault baseline.
  bool recovered = false;
  for (int i = 0; i < 40 && !recovered; ++i) {
    const Value r = client.call("fetch_image", Value::record({{"n", 2 + i}}));
    if (client.last_response_type() == "image_full") {
      recovered = true;
      EXPECT_EQ(r.field("data").as_string(), full_payload);
      EXPECT_EQ(r.field("id").as_i64(), baseline.field("id").as_i64());
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(client.stats().recoveries, 1u);
}

// With retries disabled the same scenario must fail fast: a TimeoutError
// no later than the deadline plus 10% slack.
TEST(FaultScenarioTest, SameScenarioWithoutRetriesTimesOutWithinSlack) {
  ImagingFixture env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  auto faults = std::make_shared<net::FaultInjector>(42);
  net::FaultSpec reset;
  reset.kind = net::FaultKind::kReset;
  reset.at_op = 1;  // op 0 is the baseline call, as above
  faults->schedule(reset);
  transport.set_fault_injector(faults);

  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  CallOptions opts;
  opts.deadline_us = 2'000'000;
  opts.retry.max_attempts = 1;  // retries disabled

  client.call("fetch_image", Value::record({{"n", 0}}));  // clean baseline

  const std::uint64_t t0 = env.clock->now_us();
  EXPECT_THROW(client.call("fetch_image", Value::record({{"n", 1}}), opts),
               TimeoutError);
  const std::uint64_t elapsed = env.clock->now_us() - t0;
  EXPECT_GE(elapsed, opts.deadline_us);
  EXPECT_LE(elapsed, opts.deadline_us + opts.deadline_us / 10);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().timeouts, 1u);
}

// ------------------------------------------------- retries over live HTTP

Value echo_handler(const Value& params) {
  return Value::record({{"n", params.field("n").as_i64()}});
}

wsdl::ServiceDesc echo_service() {
  wsdl::ServiceDesc svc;
  svc.name = "Echo";
  wsdl::OperationDesc op;
  op.name = "echo";
  op.input = req_format();
  op.output = req_format();
  op.idempotent = true;
  svc.operations.push_back(std::move(op));
  return svc;
}

TEST(HttpRetryTest, ReconnectGivesTheRetryAFreshConnection) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  runtime.register_operation("echo", req_format(), req_format(), echo_handler);

  auto faults = std::make_shared<net::FaultInjector>(1);
  net::FaultSpec reset;
  reset.kind = net::FaultKind::kReset;  // kNextOp: kills the first write
  faults->schedule(reset);

  std::vector<std::unique_ptr<net::PipeStream>> client_ends;
  std::vector<std::unique_ptr<net::PipeStream>> server_ends;
  std::vector<std::thread> servers;
  {
    // Every (re)connect builds a fresh pipe pair with its own server thread;
    // the injector scenario spans the reconnect.
    HttpTransport transport([&]() -> std::unique_ptr<net::Stream> {
      auto [client_end, server_end] = net::make_pipe();
      servers.emplace_back([&runtime, end = server_end.get()] {
        test::serve_connection(*end, [&runtime](const http::Request& r) {
          return runtime.handle(r);
        });
      });
      server_ends.push_back(std::move(server_end));
      client_ends.push_back(std::move(client_end));
      return std::make_unique<net::FaultyStream>(*client_ends.back(), faults);
    });

    ClientStub client(transport, WireFormat::kBinary, echo_service(),
                      format_server, clock);
    CallOptions opts;
    opts.retry.max_attempts = 3;
    opts.retry.initial_backoff_us = 1'000;

    const Value result = client.call("echo", Value::record({{"n", 41}}), opts);
    EXPECT_EQ(result.field("n").as_i64(), 41);
    EXPECT_EQ(client.stats().retries, 1u);
    EXPECT_EQ(client.stats().faults_injected, 1u);
    EXPECT_EQ(faults->stats().resets, 1u);
    EXPECT_EQ(client_ends.size(), 2u);  // original connection + reconnect
  }
  for (auto& end : client_ends) end->close();
  for (auto& t : servers) t.join();
}

TEST(HttpRetryTest, UnresponsiveServerHitsTheStreamReadDeadline) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();

  auto [client_end, server_end] = net::make_pipe();
  // Nobody serves server_end: the request goes out, no response ever comes.
  HttpTransport transport(*client_end);
  ClientStub client(transport, WireFormat::kBinary, echo_service(),
                    format_server, clock);
  CallOptions opts;
  opts.deadline_us = 20'000;

  EXPECT_THROW(client.call("echo", Value::record({{"n", 1}}), opts),
               TimeoutError);
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(client.stats().faults_injected, 1u);
}

// --------------------------------------------------- QoS fault coupling

TEST(QosFaultCouplingTest, ObserveFaultInflatesTheRttEstimate) {
  qos::QualityManager qm(qos::QualityFile::parse(kImagePolicy),
                         /*switch_threshold=*/1);
  qm.register_message_type("image_full", image_full_format());
  qm.register_message_type("image_small", image_small_format(), shrink_image);

  qm.observe_rtt(100'000.0);
  EXPECT_EQ(qm.select().name, "image_full");

  // One fault with a 2 s deadline: penalty sample = 2 × deadline.
  qm.observe_fault(2'000'000.0);
  EXPECT_EQ(qm.fault_count(), 1u);
  EXPECT_NEAR(qm.rtt().value_us(), 0.875 * 100'000.0 + 0.125 * 4'000'000.0,
              1.0);
  // The inflated estimate crosses the 250 ms boundary: degraded selection.
  EXPECT_EQ(qm.select().name, "image_small");

  // Clean samples pull it back under the boundary (hysteresis threshold 1).
  for (int i = 0; i < 30; ++i) qm.observe_rtt(100'000.0);
  EXPECT_EQ(qm.select().name, "image_full");
}

TEST(QosFaultCouplingTest, TimeoutPenalizesTheEstimateOfAStubWithoutManager) {
  ImagingFixture env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  auto faults = std::make_shared<net::FaultInjector>(1);
  transport.set_fault_injector(faults);
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  ASSERT_EQ(client.quality_manager(), nullptr);

  (void)client.call("fetch_image", Value::record({{"n", 1}}));
  const double before = client.rtt_estimate_us();
  ASSERT_GT(before, 0.0);
  ASSERT_LT(before, 2'000'000.0);

  net::FaultSpec stall;
  stall.kind = net::FaultKind::kStall;
  stall.stall_us = 60'000'000;
  faults->schedule(stall);
  CallOptions opts;
  opts.deadline_us = 2'000'000;
  EXPECT_THROW(client.call("fetch_image", Value::record({{"n", 2}}), opts),
               TimeoutError);
  // One penalty sample of 2 × max(deadline, estimate) = 4 s.
  EXPECT_DOUBLE_EQ(client.rtt_estimate_us(), 0.875 * before + 0.125 * 4'000'000.0);
}

}  // namespace
}  // namespace sbq::core
