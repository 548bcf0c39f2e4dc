// Integration tests for the SOAP-bin / SOAP-binQ runtime: client stub +
// service runtime over loopback and simulated links, in all three wire
// formats, with and without quality management.
#include <gtest/gtest.h>

#include <thread>

#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "http/server.h"
#include "net/pipe.h"
#include "net/tcp.h"
#include "pbio/value_codec.h"
#include "qos/manager.h"
#include "soap/codec.h"
#include "soap/envelope.h"
#include "support/serve_connection.h"

namespace sbq::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

FormatPtr vec_format() {
  return FormatBuilder("vec")
      .add_scalar("scale", TypeKind::kFloat64)
      .add_var_array("values", TypeKind::kInt32)
      .build();
}

FormatPtr sum_format() {
  return FormatBuilder("sum")
      .add_scalar("total", TypeKind::kInt64)
      .add_scalar("count", TypeKind::kInt32)
      .build();
}

wsdl::ServiceDesc calc_service() {
  wsdl::ServiceDesc svc;
  svc.name = "Calc";
  svc.operations.push_back(wsdl::OperationDesc{"sum", vec_format(), sum_format()});
  return svc;
}

Value sum_handler_impl(const Value& params) {
  std::int64_t total = 0;
  std::int64_t count = 0;
  for (const Value& v : params.field("values").elements()) {
    total += v.as_i64();
    ++count;
  }
  total = static_cast<std::int64_t>(
      static_cast<double>(total) * params.field("scale").as_f64());
  return Value::record({{"total", total}, {"count", count}});
}

struct Endpoints {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SteadyTimeSource> clock =
      std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime{format_server, clock};
  LoopbackTransport transport{runtime};

  Endpoints() {
    runtime.register_operation("sum", vec_format(), sum_format(), sum_handler_impl);
  }

  ClientStub make_client(WireFormat wire) {
    return ClientStub(transport, wire, calc_service(), format_server, clock);
  }
};

Value sample_params() {
  return Value::record({{"scale", 2.0}, {"values", Value::array({1, 2, 3, 4})}});
}

class AllWireFormats : public ::testing::TestWithParam<WireFormat> {};

TEST_P(AllWireFormats, CallRoundTrips) {
  Endpoints env;
  ClientStub client = env.make_client(GetParam());
  const Value result = client.call("sum", sample_params());
  EXPECT_EQ(result.field("total").as_i64(), 20);
  EXPECT_EQ(result.field("count").as_i64(), 4);
  EXPECT_EQ(client.stats().calls, 1u);
  EXPECT_GT(client.stats().bytes_sent, 0u);
  EXPECT_GT(client.stats().bytes_received, 0u);
}

TEST_P(AllWireFormats, UnknownOperationRaisesRpcError) {
  Endpoints env;
  ClientStub client = env.make_client(GetParam());
  wsdl::ServiceDesc svc = calc_service();
  svc.operations.push_back(
      wsdl::OperationDesc{"missing", vec_format(), sum_format()});
  ClientStub bad(env.transport, GetParam(), svc, env.format_server, env.clock);
  EXPECT_THROW(bad.call("missing", sample_params()), RpcError);
}

TEST_P(AllWireFormats, HandlerExceptionRaisesRpcError) {
  Endpoints env;
  env.runtime.register_operation(
      "boom", vec_format(), sum_format(),
      [](const Value&) -> Value { throw std::runtime_error("kaput"); });
  wsdl::ServiceDesc svc = calc_service();
  svc.operations.push_back(wsdl::OperationDesc{"boom", vec_format(), sum_format()});
  ClientStub client(env.transport, GetParam(), svc, env.format_server, env.clock);
  try {
    client.call("boom", sample_params());
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("kaput"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(WireFormats, AllWireFormats,
                         ::testing::Values(WireFormat::kBinary, WireFormat::kXml,
                                           WireFormat::kCompressedXml),
                         [](const auto& info) {
                           switch (info.param) {
                             case WireFormat::kBinary: return "Binary";
                             case WireFormat::kXml: return "Xml";
                             case WireFormat::kCompressedXml: return "CompressedXml";
                           }
                           return "Unknown";
                         });

TEST(BinaryWire, SmallerThanXmlWire) {
  Endpoints env;
  Value big = Value::record({{"scale", 1.0}, {"values", Value::empty_array()}});
  {
    Value values = Value::empty_array();
    for (int i = 0; i < 5000; ++i) values.push_back(i * 3);
    big.set_field("values", std::move(values));
  }
  ClientStub bin_client = env.make_client(WireFormat::kBinary);
  ClientStub xml_client = env.make_client(WireFormat::kXml);
  bin_client.call("sum", big);
  xml_client.call("sum", big);
  EXPECT_LT(bin_client.stats().bytes_sent * 3, xml_client.stats().bytes_sent);
}

TEST(BinaryWire, CompressedXmlIsSmallerThanPlainXml) {
  Endpoints env;
  Value big = sample_params();
  {
    Value values = Value::empty_array();
    for (int i = 0; i < 5000; ++i) values.push_back(i % 100);
    big.set_field("values", std::move(values));
  }
  ClientStub xml_client = env.make_client(WireFormat::kXml);
  ClientStub lz_client = env.make_client(WireFormat::kCompressedXml);
  xml_client.call("sum", big);
  lz_client.call("sum", big);
  EXPECT_LT(lz_client.stats().bytes_sent * 2, xml_client.stats().bytes_sent);
}

TEST(XmlNativeServer, CompatibilityModeConversions) {
  Endpoints env;
  // An XML-native server operation: parses XML by hand, emits XML by hand.
  env.runtime.register_xml_operation(
      "sum", vec_format(), sum_format(), [](const std::string& params_xml) {
        // The legacy app sees genuine XML.
        EXPECT_NE(params_xml.find("<values>"), std::string::npos);
        const Value params = soap::value_from_xml(params_xml, *vec_format());
        const Value result = sum_handler_impl(params);
        return soap::value_to_xml(result, *sum_format(), "result");
      });
  ClientStub client = env.make_client(WireFormat::kBinary);
  const Value result = client.call("sum", sample_params());
  EXPECT_EQ(result.field("total").as_i64(), 20);
  EXPECT_GT(env.runtime.stats().convert_us, 0.0);
}

TEST(XmlNativeClient, CallXmlConvertsJustInTime) {
  Endpoints env;
  ClientStub client = env.make_client(WireFormat::kBinary);
  const std::string params_xml = soap::value_to_xml(sample_params(), *vec_format(),
                                                    "params");
  const std::string result_xml = client.call_xml("sum", params_xml);
  EXPECT_NE(result_xml.find("<total>20</total>"), std::string::npos);
  EXPECT_GT(client.stats().convert_us, 0.0);
}

TEST(FormatServerIntegration, SecondCallHitsCache) {
  Endpoints env;
  ClientStub client = env.make_client(WireFormat::kBinary);
  client.call("sum", sample_params());
  const auto lookups_after_first = env.format_server->stats().lookups;
  client.call("sum", sample_params());
  client.call("sum", sample_params());
  EXPECT_EQ(env.format_server->stats().lookups, lookups_after_first);
}

TEST(HttpIntegration, BinaryCallOverRealTcp) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  runtime.register_operation("sum", vec_format(), sum_format(), sum_handler_impl);

  http::Server server(0, [&](const http::Request& req) { return runtime.handle(req); });
  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  HttpTransport transport(*stream);
  ClientStub client(transport, WireFormat::kBinary, calc_service(), format_server,
                    clock);

  for (int i = 0; i < 3; ++i) {
    const Value result = client.call("sum", sample_params());
    EXPECT_EQ(result.field("total").as_i64(), 20);
  }
  EXPECT_GT(client.last_rtt_us(), 0.0);
  stream->close();
  server.shutdown();
}

TEST(HttpIntegration, XmlCallOverPipeServer) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  runtime.register_operation("sum", vec_format(), sum_format(), sum_handler_impl);

  auto [client_end, server_end] = net::make_pipe();
  std::thread server_thread([&runtime, s = std::move(server_end)]() mutable {
    test::serve_connection(*s, [&](const http::Request& req) {
      return runtime.handle(req);
    });
  });
  HttpTransport transport(*client_end);
  ClientStub client(transport, WireFormat::kXml, calc_service(), format_server, clock);
  const Value result = client.call("sum", sample_params());
  EXPECT_EQ(result.field("total").as_i64(), 20);
  client_end->close();
  server_thread.join();
}

TEST(WsdlAdvertisement, GetWithWsdlQueryReturnsDocument) {
  Endpoints env;
  const std::string wsdl = wsdl::generate_wsdl(calc_service());
  env.runtime.set_wsdl_document(wsdl);

  http::Request get;
  get.method = "GET";
  get.target = "/Calc?wsdl";
  const http::Response resp = env.runtime.handle(get);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body_string(), wsdl);
  // The served document compiles back to the same service.
  const wsdl::ServiceDesc parsed = wsdl::parse_wsdl(resp.body_string());
  EXPECT_EQ(parsed.required_operation("sum").input->format_id(),
            vec_format()->format_id());
}

TEST(WsdlAdvertisement, GetWithoutWsdlQueryIs404) {
  Endpoints env;
  env.runtime.set_wsdl_document("<definitions/>");
  http::Request get;
  get.method = "GET";
  get.target = "/Calc";
  EXPECT_EQ(env.runtime.handle(get).status, 404);
}

TEST(WsdlAdvertisement, GetWithoutPublishedDocumentIs404) {
  Endpoints env;
  http::Request get;
  get.method = "GET";
  get.target = "/Calc?wsdl";
  EXPECT_EQ(env.runtime.handle(get).status, 404);
}

TEST(FaultCodes, UnknownOperationIsClientFault) {
  Endpoints env;
  http::Request req;
  req.method = "POST";
  req.headers.set("Content-Type", std::string(kContentTypeXml));
  req.set_body(soap::build_request("nonexistent", sample_params(), *vec_format()));
  const http::Response resp = env.runtime.handle(req);
  EXPECT_EQ(resp.status, 500);
  const soap::Fault fault = soap::parse_fault(soap::parse_envelope(resp.body_string()));
  EXPECT_EQ(fault.code, "soap:Client");
}

TEST(FaultCodes, MalformedEnvelopeIsClientFault) {
  Endpoints env;
  http::Request req;
  req.method = "POST";
  req.headers.set("Content-Type", std::string(kContentTypeXml));
  req.set_body("<not a soap envelope");
  const http::Response resp = env.runtime.handle(req);
  const soap::Fault fault = soap::parse_fault(soap::parse_envelope(resp.body_string()));
  EXPECT_EQ(fault.code, "soap:Client");
}

TEST(FaultCodes, HandlerExceptionIsServerFault) {
  Endpoints env;
  env.runtime.register_operation(
      "explode", vec_format(), sum_format(),
      [](const Value&) -> Value { throw std::runtime_error("boom"); });
  http::Request req;
  req.method = "POST";
  req.headers.set("Content-Type", std::string(kContentTypeXml));
  req.set_body(soap::build_request("explode", sample_params(), *vec_format()));
  const http::Response resp = env.runtime.handle(req);
  const soap::Fault fault = soap::parse_fault(soap::parse_envelope(resp.body_string()));
  EXPECT_EQ(fault.code, "soap:Server");
  EXPECT_NE(fault.message.find("boom"), std::string::npos);
}

// ---------------------------------------------------------------- SOAP-binQ

FormatPtr payload_full_format() {
  return FormatBuilder("payload_full")
      .add_scalar("id", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}

FormatPtr payload_small_format() {
  return FormatBuilder("payload_small")
      .add_scalar("id", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}

// Thresholds sized for a 16 KB payload: clean ADSL moves it in ~160 ms
// (below the 250 ms boundary → full quality), 90% cross-traffic pushes the
// RTT to ~1.3 s (→ reduced quality).
constexpr const char* kPayloadPolicy =
    "attribute rtt_us\n"
    "0 250000 - payload_full\n"
    "250000 inf - payload_small\n";

constexpr std::size_t kPayloadBytes = 16000;

/// Quality handler: truncate the data blob to 1/8.
Value shrink_handler(const Value& full, const pbio::FormatDesc& target,
                     const qos::AttributeMap&) {
  const std::string& data = full.field("data").as_string();
  Value out = pbio::project_value(full, target);
  out.set_field("data", Value{data.substr(0, data.size() / 8)});
  return out;
}

struct QEndpoints {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SimClock> clock = std::make_shared<net::SimClock>();
  ServiceRuntime runtime{format_server, clock};
  std::shared_ptr<qos::QualityManager> server_quality;

  QEndpoints(int threshold = 1) {
    runtime.register_operation(
        "fetch", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build(),
        payload_full_format(), [](const Value&) {
          return Value::record(
              {{"id", 7}, {"data", Value{std::string(kPayloadBytes, 'D')}}});
        });
    server_quality =
        std::make_shared<qos::QualityManager>(qos::QualityFile::parse(kPayloadPolicy),
                                              threshold);
    server_quality->register_message_type("payload_full", payload_full_format());
    server_quality->register_message_type("payload_small", payload_small_format(),
                                          shrink_handler);
    runtime.set_quality_manager(server_quality);
  }

  wsdl::ServiceDesc service() {
    wsdl::ServiceDesc svc;
    svc.name = "Payload";
    svc.operations.push_back(wsdl::OperationDesc{
        "fetch", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build(),
        payload_full_format()});
    return svc;
  }
};

TEST(SoapBinQ, FullQualityOnFastLink) {
  QEndpoints env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::lan_100mbps()),
                             env.clock);
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  client.set_quality_manager(std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse("0 inf - req\n"), 1));
  client.quality_manager()->register_message_type(
      "req", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build());

  const Value result = client.call("fetch", Value::record({{"n", 1}}));
  EXPECT_EQ(client.last_response_type(), "payload_full");
  EXPECT_EQ(result.field("data").as_string().size(), kPayloadBytes);
}

TEST(SoapBinQ, DegradesOnCongestedLink) {
  QEndpoints env;
  net::LinkModel link(net::adsl_1mbps());
  net::CrossTrafficSchedule schedule;
  schedule.add_phase(0, 60'000'000'000ull, 0.9);  // congested throughout
  link.set_cross_traffic(schedule);
  SimLinkTransport transport(env.runtime, link, env.clock);
  transport.set_charge_server_cpu(false);  // deterministic simulated time
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);

  // The first call measures a huge RTT (16 KB at 10% of 1 Mbps is ~1.3 s);
  // the reported estimate drives the server to the small type afterwards.
  client.call("fetch", Value::record({{"n", 1}}));
  client.call("fetch", Value::record({{"n", 2}}));
  const Value result = client.call("fetch", Value::record({{"n", 3}}));
  EXPECT_EQ(client.last_response_type(), "payload_small");
  // Reduced data, padded semantics: the blob is 1/8 of full.
  EXPECT_EQ(result.field("data").as_string().size(), kPayloadBytes / 8);
}

TEST(SoapBinQ, RecoversWhenCongestionClears) {
  QEndpoints env;
  net::LinkModel link(net::adsl_1mbps());
  net::CrossTrafficSchedule schedule;
  schedule.add_phase(0, 2'000'000, 0.9);  // first 2 simulated seconds congested
  link.set_cross_traffic(schedule);
  SimLinkTransport transport(env.runtime, link, env.clock);
  transport.set_charge_server_cpu(false);

  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);

  bool saw_small = false;
  bool saw_full_after_small = false;
  for (int i = 0; i < 40; ++i) {
    client.call("fetch", Value::record({{"n", i}}));
    if (client.last_response_type() == "payload_small") saw_small = true;
    if (saw_small && client.last_response_type() == "payload_full") {
      saw_full_after_small = true;
    }
  }
  EXPECT_TRUE(saw_small);
  EXPECT_TRUE(saw_full_after_small);
}

TEST(SoapBinQ, RttEstimateTracksSimulatedLink) {
  QEndpoints env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::lan_100mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  client.call("fetch", Value::record({{"n", 1}}));
  // 16 KB response over 100 Mbps ≈ 1.3 ms + latencies.
  EXPECT_GT(client.last_rtt_us(), 1000.0);
  EXPECT_LT(client.last_rtt_us(), 30000.0);
}

TEST(SoapBinQ, ClientSideRequestReduction) {
  // The client's own quality manager reduces the request parameters, on
  // every wire: the binary server resolves the reduced format by id, the
  // XML servers by the X-SOAP-Quality-Type name through their own manager.
  for (const WireFormat wire :
       {WireFormat::kBinary, WireFormat::kXml, WireFormat::kCompressedXml}) {
    SCOPED_TRACE(static_cast<int>(wire));
    auto format_server = std::make_shared<pbio::FormatServer>();
    auto clock = std::make_shared<net::SimClock>();
    ServiceRuntime runtime(format_server, clock);

    std::size_t seen_data_size = 999;
    const FormatPtr ack = FormatBuilder("ack").add_scalar("ok", TypeKind::kInt32).build();
    runtime.register_operation("push", payload_full_format(), ack,
                               [&](const Value& params) {
                                 seen_data_size = params.field("data").as_string().size();
                                 return Value::record({{"ok", 1}});
                               });
    if (wire != WireFormat::kBinary) {
      // XML carries no format ids: the server learns the request types from
      // its own manager, whose policy always answers with the full `ack`.
      auto server_qm = std::make_shared<qos::QualityManager>(
          qos::QualityFile::parse("0 inf - ack\n"), 1);
      server_qm->register_message_type("ack", ack);
      server_qm->register_message_type("payload_full", payload_full_format());
      server_qm->register_message_type("payload_small", payload_small_format());
      runtime.set_quality_manager(server_qm);
    }

    LoopbackTransport transport(runtime);
    wsdl::ServiceDesc svc;
    svc.name = "Push";
    svc.operations.push_back(wsdl::OperationDesc{"push", payload_full_format(), ack});
    ClientStub client(transport, wire, svc, format_server, clock);

    auto qm = std::make_shared<qos::QualityManager>(
        qos::QualityFile::parse(kPayloadPolicy), 1);
    qm->register_message_type("payload_full", payload_full_format());
    qm->register_message_type("payload_small", payload_small_format(), shrink_handler);
    client.set_quality_manager(qm);
    client.set_request_quality_enabled(true);

    qm->update_attribute("rtt_us", 500000.0);  // pretend the link is terrible
    const Value result = client.call(
        "push", Value::record({{"id", 1}, {"data", Value{std::string(64000, 'U')}}}));
    // Server saw the reduced request, zero-padded onto the full type.
    EXPECT_EQ(seen_data_size, 8000u);
    EXPECT_EQ(result.field("ok").as_i64(), 1);
  }
}

TEST(SoapBinQ, QualityTypeFormatsAreAnnouncedOnce) {
  // A reduced type's format is registered with the format server the first
  // time either side sends it, not again on every call.
  QEndpoints env;
  env.server_quality->update_attribute("rtt_us", 500000.0);  // reduced responses
  LoopbackTransport transport(env.runtime);
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  auto qm = std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse("0 inf - req_small\n"), 1);
  qm->register_message_type(
      "req_small", FormatBuilder("req_small").add_scalar("n", TypeKind::kInt32).build());
  client.set_quality_manager(qm);
  client.set_request_quality_enabled(true);

  client.call("fetch", Value::record({{"n", 0}}));
  EXPECT_EQ(client.last_response_type(), "payload_small");
  const pbio::FormatServerStats after_first = env.format_server->stats();
  for (int i = 1; i < 10; ++i) client.call("fetch", Value::record({{"n", i}}));
  const pbio::FormatServerStats after_ten = env.format_server->stats();
  EXPECT_EQ(after_ten.registrations, after_first.registrations);
  EXPECT_EQ(after_ten.bytes_received, after_first.bytes_received);
  EXPECT_EQ(client.last_response_type(), "payload_small");
}

TEST(SimTransportTest, TimingAccounting) {
  QEndpoints env;
  SimLinkTransport transport(env.runtime, net::LinkModel(net::adsl_1mbps()),
                             env.clock);
  transport.set_charge_server_cpu(false);
  ClientStub client(transport, WireFormat::kBinary, env.service(),
                    env.format_server, env.clock);
  client.call("fetch", Value::record({{"n", 1}}));
  EXPECT_EQ(transport.timing().round_trips, 1u);
  EXPECT_GT(transport.timing().response_transfer_us,
            transport.timing().request_transfer_us);
  EXPECT_EQ(env.clock->now_us(), transport.timing().request_transfer_us +
                                     transport.timing().response_transfer_us);
}

}  // namespace
}  // namespace sbq::core
