// Second integration batch: corners the main suites don't reach —
// simulated-transport knobs, foreign-endian ingress at the server,
// quality over the compressed wire, server shutdown with open
// connections, and a mixed-wire stress run.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "http/client.h"
#include "http/server.h"
#include "net/tcp.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"
#include "qos/monitors.h"

namespace sbq::core {
namespace {

double benchmark_blackhole_ = 0.0;  // defeats optimizing away the burn loop

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

FormatPtr msg_format() {
  return FormatBuilder("m")
      .add_scalar("v", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}

wsdl::ServiceDesc echo_service() {
  wsdl::ServiceDesc svc;
  svc.name = "Echo";
  svc.operations.push_back(wsdl::OperationDesc{"echo", msg_format(), msg_format()});
  return svc;
}

struct SimEnv {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SimClock> clock = std::make_shared<net::SimClock>();
  ServiceRuntime runtime{format_server, clock};

  SimEnv() {
    runtime.register_operation("echo", msg_format(), msg_format(),
                               [](const Value& v) { return v; });
  }
};

TEST(SimTransportKnobs, PerCallSetupChargesFixedCost) {
  SimEnv env;
  net::LinkConfig link = net::lan_100mbps();
  SimLinkTransport transport(env.runtime, net::LinkModel(link), env.clock);
  transport.set_charge_server_cpu(false);
  ClientStub client(transport, WireFormat::kBinary, echo_service(),
                    env.format_server, env.clock);
  const Value msg = Value::record({{"v", 1}, {"data", std::string(100, 'x')}});

  client.call("echo", msg);
  const std::uint64_t base = env.clock->now_us();

  transport.set_per_call_setup_us(5000);
  client.call("echo", msg);
  const std::uint64_t with_setup = env.clock->now_us() - base;
  EXPECT_GE(with_setup, 5000u + 2 * link.latency_us);
  EXPECT_LT(with_setup, 5000u + base + 1000u);
}

TEST(SimTransportKnobs, CpuScaleMultipliesServerTime) {
  SimEnv env;
  // A handler that burns measurable real CPU.
  env.runtime.register_operation(
      "burn", msg_format(), msg_format(), [](const Value& v) {
        // sqrt chain: not constant-foldable, costs real milliseconds.
        double acc = 1.0;
        for (int i = 0; i < 3000000; ++i) acc += std::sqrt(acc + i);
        benchmark_blackhole_ = acc;
        return v;
      });
  wsdl::ServiceDesc svc = echo_service();
  svc.operations.push_back(wsdl::OperationDesc{"burn", msg_format(), msg_format()});

  auto run_with_scale = [&](double scale) {
    SimLinkTransport transport(env.runtime, net::LinkModel(net::lan_100mbps()),
                               env.clock);
    transport.set_cpu_scale(scale);
    ClientStub client(transport, WireFormat::kBinary, svc, env.format_server,
                      env.clock);
    const std::uint64_t start = env.clock->now_us();
    client.call("burn", Value::record({{"v", 1}, {"data", std::string{}}}));
    return env.clock->now_us() - start;
  };

  const auto t1 = run_with_scale(1.0);
  const auto t10 = run_with_scale(10.0);
  // Scaled run must be several times longer (tolerate scheduler noise).
  EXPECT_GT(static_cast<double>(t10), 3.0 * static_cast<double>(t1));
}

TEST(ForeignEndianIngress, ServerDecodesBigEndianClientMessage) {
  // Hand-build a SOAP-bin request whose PBIO payload uses the non-host
  // byte order, simulating the paper's SPARC peer.
  SimEnv env;
  const ByteOrder foreign = host_byte_order() == ByteOrder::kLittle
                                ? ByteOrder::kBig
                                : ByteOrder::kLittle;
  const Value params = Value::record({{"v", 77}, {"data", std::string("abc")}});
  // The sender must announce its format (first-message registration).
  env.format_server->register_format(msg_format());
  BinEnvelope envelope;
  envelope.operation = "echo";
  envelope.message_type = "m";
  envelope.timestamp_us = 42;

  http::Request request;
  request.method = "POST";
  request.headers.set("Content-Type", std::string(kContentTypePbio));
  request.body = encode_bin_message(
      envelope, pbio::encode_value_message_chain(params, *msg_format(), foreign));

  const http::Response response = env.runtime.handle(request);
  ASSERT_EQ(response.status, 200) << response.body_string();
  const DecodedBinChain out = decode_bin_message(response.body);
  EXPECT_EQ(out.envelope.echoed_timestamp_us, 42u);
  ChainReader reader(out.pbio_message);
  const pbio::WireHeader header = pbio::read_header(reader);
  const Value result = pbio::decode_value_payload(reader, header.payload_length,
                                                  header.sender_order, *msg_format());
  EXPECT_EQ(result.field("v").as_i64(), 77);
  EXPECT_EQ(result.field("data").as_string(), "abc");
}

TEST(CompressedWireQuality, ReductionWorksOverLzWire) {
  SimEnv env;
  auto small = FormatBuilder("m_small")
                   .add_scalar("v", TypeKind::kInt32)
                   .add_var_array("data", TypeKind::kChar)
                   .build();
  auto qm = std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse("0 1000 - m\n1000 inf - m_small\n"), 1);
  qm->register_message_type("m", msg_format());
  qm->register_message_type(
      "m_small", small,
      [](const Value& full, const pbio::FormatDesc& target, const qos::AttributeMap&) {
        Value out = pbio::project_value(full, target);
        out.set_field("data", Value{full.field("data").as_string().substr(0, 2)});
        return out;
      });
  env.runtime.set_quality_manager(qm);

  LoopbackTransport transport(env.runtime);
  ClientStub client(transport, WireFormat::kCompressedXml, echo_service(),
                    env.format_server, env.clock);
  auto client_qm = std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse("0 1000 - m\n1000 inf - m_small\n"), 1);
  client_qm->register_message_type("m", msg_format());
  client_qm->register_message_type("m_small", small);
  client.set_quality_manager(client_qm);

  // Degrade: the client's reported RTT drives the server to m_small.
  client_qm->observe_rtt(50000.0);
  const Value result = client.call(
      "echo", Value::record({{"v", 3}, {"data", std::string("abcdefgh")}}));
  EXPECT_EQ(client.last_response_type(), "m_small");
  EXPECT_EQ(result.field("data").as_string(), "ab");
  EXPECT_EQ(result.field("v").as_i64(), 3);
}

TEST(ServerShutdown, ForceClosesIdleConnections) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  runtime.register_operation("echo", msg_format(), msg_format(),
                             [](const Value& v) { return v; });
  auto server = std::make_unique<http::Server>(
      0, [&](const http::Request& r) { return runtime.handle(r); });

  // A client connects, makes one call, then keeps the connection open.
  auto stream = net::TcpStream::connect("127.0.0.1", server->port());
  HttpTransport transport(*stream);
  ClientStub client(transport, WireFormat::kBinary, echo_service(), format_server,
                    clock);
  client.call("echo", Value::record({{"v", 1}, {"data", std::string("x")}}));

  // Shutdown must not hang on the worker blocked reading from this client.
  server->shutdown();
  SUCCEED();
}

TEST(Stress, MixedWireFormatsSequential) {
  SimEnv env;
  LoopbackTransport transport(env.runtime);
  std::vector<std::unique_ptr<ClientStub>> clients;
  for (const auto wire : {WireFormat::kBinary, WireFormat::kXml,
                          WireFormat::kCompressedXml}) {
    clients.push_back(std::make_unique<ClientStub>(
        transport, wire, echo_service(), env.format_server, env.clock));
  }
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    auto& client = clients[rng.next_below(clients.size())];
    const std::string blob(rng.next_below(500), 'b');
    const Value msg = Value::record({{"v", i}, {"data", blob}});
    const Value result = client->call("echo", msg);
    ASSERT_EQ(result.field("v").as_i64(), i);
    ASSERT_EQ(result.field("data").as_string().size(), blob.size());
  }
  EXPECT_EQ(env.runtime.stats().calls, 300u);
}

TEST(MonitorsIntegration, MarshalCostFromLiveRuntime) {
  SimEnv env;
  LoopbackTransport transport(env.runtime);
  ClientStub client(transport, WireFormat::kBinary, echo_service(),
                    env.format_server, env.clock);

  qos::MonitorSet monitors;
  monitors.add(std::make_unique<qos::MarshalCostMonitor>(
      [&] { return env.runtime.stats(); }));
  qos::QualityManager qm(qos::QualityFile::parse("attribute marshal_cost_us\n"
                                                 "0 inf - m\n"),
                         1);
  qm.register_message_type("m", msg_format());

  for (int i = 0; i < 5; ++i) {
    client.call("echo",
                Value::record({{"v", i}, {"data", std::string(20000, 'm')}}));
    monitors.poll(qm);
  }
  // Five 20 KB marshals must register a nonzero smoothed cost.
  EXPECT_GT(qm.attribute("marshal_cost_us"), 0.0);
}

}  // namespace
}  // namespace sbq::core
