// Integration tests for the SOAP-bin / SOAP-binQ runtime: client stub +
// service runtime over loopback and simulated links, in all three wire
// formats, with and without quality management.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "compress/lzss.h"
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

/// The name each wire's parameterized tests run under.
std::string wire_name(const ::testing::TestParamInfo<WireFormat>& info) {
  switch (info.param) {
    case WireFormat::kBinary: return "Binary";
    case WireFormat::kXml: return "Xml";
    case WireFormat::kCompressedXml: return "CompressedXml";
  }
  return "Unknown";
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
                         wire_name);

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

// ---------------------------------------------------------------- wire codec

FormatPtr payload_id_format() {
  return FormatBuilder("payload_id").add_scalar("id", TypeKind::kInt32).build();
}

/// Both ends of one message: a sender's and a receiver's view of one format
/// server, and a receiver's quality registry that knows the reduced type.
struct CodecEnds {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  pbio::FormatCache sender{format_server};
  pbio::FormatCache receiver{format_server};
  pbio::PlanCache plans;
  qos::QualityManager quality{qos::QualityFile::parse("0 inf - payload_full\n"), 1};

  CodecEnds() {
    quality.register_message_type("payload_full", payload_full_format());
    quality.register_message_type("payload_id", payload_id_format());
  }
};

BinEnvelope codec_meta(const std::string& message_type) {
  BinEnvelope meta;
  meta.operation = "fetch";
  meta.message_type = message_type;
  meta.timestamp_us = 11;
  meta.echoed_timestamp_us = 22;
  meta.server_prep_us = 33;
  meta.reported_rtt_us = 44.5;
  return meta;
}

/// A value of the full type and one of the reduced type.
std::vector<std::pair<FormatPtr, Value>> codec_values() {
  return {{payload_full_format(),
           Value::record({{"id", 3}, {"data", Value{std::string("abc")}}})},
          {payload_id_format(), Value::record({{"id", 5}})}};
}

/// The X-SOAP-* headers a message carries, in order.
std::vector<std::string> x_soap_headers(const http::Headers& headers) {
  std::vector<std::string> names;
  for (const auto& [name, value] : headers.items()) {
    if (name.starts_with("X-SOAP-")) names.push_back(name);
  }
  return names;
}

class WireCodec : public ::testing::TestWithParam<WireFormat> {};

TEST_P(WireCodec, RequestRoundTrips) {
  const WireFormat wire = GetParam();
  CodecEnds ends;
  const FormatPtr full = payload_full_format();
  for (const auto& [type, sent] : codec_values()) {
    SCOPED_TRACE(type->name);
    http::Request request;
    encode_wire(wire, request, codec_meta(type->name), sent, type, ends.sender);
    EXPECT_EQ(request.headers.get("Content-Type"), content_type_of(wire));
    EXPECT_EQ(x_soap_headers(request.headers),
              (wire == WireFormat::kBinary
                   ? std::vector<std::string>{}
                   : std::vector<std::string>{std::string(kHeaderQualityType),
                                              std::string(kHeaderReportedRtt)}));
    OpenedMessage in = open_wire(wire, request);
    EXPECT_EQ(in.meta.operation, "fetch");
    EXPECT_EQ(in.meta.message_type, type->name);
    EXPECT_EQ(in.meta.reported_rtt_us, 44.5);
    if (wire == WireFormat::kBinary) {
      EXPECT_EQ(in.meta.timestamp_us, 11u);
      EXPECT_EQ(in.meta.echoed_timestamp_us, 22u);
      EXPECT_EQ(in.meta.server_prep_us, 33u);
    }
    // A reduced request comes back lifted onto the full type.
    EXPECT_EQ(decode_wire(in, full, ends.receiver, ends.plans, &ends.quality),
              pbio::project_value(sent, *full));
  }
}

TEST_P(WireCodec, ResponseRoundTrips) {
  const WireFormat wire = GetParam();
  CodecEnds ends;
  const FormatPtr full = payload_full_format();
  for (const auto& [type, sent] : codec_values()) {
    SCOPED_TRACE(type->name);
    http::Response response;
    encode_wire(wire, response, codec_meta(type->name), Value(sent), type, ends.sender);
    EXPECT_EQ(response.headers.get("Content-Type"), content_type_of(wire));
    EXPECT_EQ(x_soap_headers(response.headers),
              (wire == WireFormat::kBinary
                   ? std::vector<std::string>{}
                   : std::vector<std::string>{std::string(kHeaderQualityType),
                                              std::string(kHeaderServerPrep)}));
    OpenedMessage in = open_wire(wire, response);
    EXPECT_EQ(in.meta.operation,
              wire == WireFormat::kBinary ? "fetch" : "fetchResponse");
    EXPECT_EQ(in.meta.message_type, type->name);
    EXPECT_EQ(in.meta.server_prep_us, 33u);
    if (wire == WireFormat::kBinary) {
      EXPECT_EQ(in.meta.timestamp_us, 11u);
      EXPECT_EQ(in.meta.echoed_timestamp_us, 22u);
      EXPECT_EQ(in.meta.reported_rtt_us, 44.5);
    }
    EXPECT_EQ(decode_wire(in, full, ends.receiver, ends.plans, &ends.quality),
              pbio::project_value(sent, *full));
  }
}

TEST_P(WireCodec, MessageWithoutTypeIsOfTheFullType) {
  const WireFormat wire = GetParam();
  CodecEnds ends;
  const auto values = codec_values();
  const auto& [type, sent] = values.front();
  http::Request request;
  encode_wire(wire, request, codec_meta(""), sent, type, ends.sender);
  OpenedMessage in = open_wire(wire, request);
  EXPECT_EQ(decode_wire(in, type, ends.receiver, ends.plans, nullptr), sent);
  EXPECT_EQ(in.meta.message_type, wire == WireFormat::kBinary ? "" : "payload_full");
}

INSTANTIATE_TEST_SUITE_P(WireFormats, WireCodec,
                         ::testing::Values(WireFormat::kBinary, WireFormat::kXml,
                                           WireFormat::kCompressedXml),
                         wire_name);

TEST(WireCodecErrors, SoapFaultBodyThrowsRpcError) {
  for (const WireFormat wire : {WireFormat::kXml, WireFormat::kCompressedXml}) {
    SCOPED_TRACE(static_cast<int>(wire));
    http::Response response;
    response.status = 500;
    std::string fault = soap::build_fault("soap:Client", "no such widget");
    if (wire == WireFormat::kCompressedXml) {
      response.set_body(lz::compress_string(fault));
    } else {
      response.set_body(std::move(fault));
    }
    try {
      (void)open_wire(wire, response);
      FAIL() << "expected RpcError";
    } catch (const RpcError& e) {
      EXPECT_NE(std::string(e.what()).find("soap:Client"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("no such widget"), std::string::npos);
    }
  }
}

TEST(WireCodecErrors, TruncatedBinaryBodyThrowsCodecError) {
  CodecEnds ends;
  const auto values = codec_values();
  const auto& [type, sent] = values.front();
  http::Request request;
  encode_wire(WireFormat::kBinary, request, codec_meta(type->name), sent, type,
              ends.sender);
  const Bytes whole = request.body.coalesce();
  // Cut inside the envelope: open fails. Cut inside the PBIO payload: the
  // envelope opens and the decode fails.
  request.set_body(Bytes(whole.begin(), whole.begin() + 10));
  EXPECT_THROW((void)open_wire(WireFormat::kBinary, request), CodecError);
  request.set_body(Bytes(whole.begin(), whole.end() - 2));
  OpenedMessage in = open_wire(WireFormat::kBinary, request);
  EXPECT_THROW((void)decode_wire(in, type, ends.receiver, ends.plans, nullptr),
               CodecError);
}

TEST(WireCodecErrors, MalformedXmlThrowsParseError) {
  for (const char* body : {"<soap:Envelope", "<x:Envelope xmlns:x=\"u\"><x:Body>"}) {
    http::Request request;
    request.set_body(std::string(body));
    EXPECT_THROW((void)open_wire(WireFormat::kXml, request), ParseError) << body;
  }
}

// An XML message type the receiver cannot resolve is one error on both
// sides: an RpcError naming the type, which a server answers as soap:Client.

soap::Fault xml_fault_for_type(ServiceRuntime& runtime, const std::string& operation,
                               const Value& params, const pbio::FormatDesc& format,
                               const std::string& type_name) {
  http::Request request;
  request.headers.set("Content-Type", std::string(kContentTypeXml));
  request.headers.set(std::string(kHeaderQualityType), type_name);
  request.set_body(soap::build_request(operation, params, format));
  const http::Response response = runtime.handle(request);
  EXPECT_EQ(response.status, 500);
  return soap::parse_fault(soap::parse_envelope(response.body_string()));
}

TEST(UnresolvableXmlType, ServerWithoutManagerAnswersClientFault) {
  Endpoints env;
  const soap::Fault fault = xml_fault_for_type(env.runtime, "sum", sample_params(),
                                               *vec_format(), "vec_small");
  EXPECT_EQ(fault.code, "soap:Client");
  EXPECT_NE(fault.message.find("'vec_small'"), std::string::npos);
}

TEST(UnresolvableXmlType, ServerManagerWithoutTheTypeAnswersClientFault) {
  QEndpoints env;
  const FormatPtr req = FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build();
  const soap::Fault fault = xml_fault_for_type(
      env.runtime, "fetch", Value::record({{"n", 1}}), *req, "ghost");
  EXPECT_EQ(fault.code, "soap:Client");
  EXPECT_NE(fault.message.find("'ghost'"), std::string::npos);
}

/// Serves a runtime in process, charging 1 ms of simulated time per round
/// trip, and lets a test rewrite each response as a misbehaving server or
/// proxy could.
class RewritingTransport : public Transport {
 public:
  RewritingTransport(ServiceRuntime& runtime, net::SimClock& clock)
      : runtime_(runtime), clock_(clock) {}

  http::Response round_trip(const http::Request& request) override {
    clock_.advance_us(1000);
    http::Response response = runtime_.handle(request);
    if (rewrite) rewrite(response);
    return response;
  }

  std::function<void(http::Response&)> rewrite;

 private:
  ServiceRuntime& runtime_;
  net::SimClock& clock_;
};

struct RewritingEndpoints {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SimClock> clock = std::make_shared<net::SimClock>();
  ServiceRuntime runtime{format_server, clock};
  RewritingTransport transport{runtime, *clock};

  RewritingEndpoints() {
    runtime.register_operation("sum", vec_format(), sum_format(), sum_handler_impl);
  }
};

void edit_envelope(http::Response& response,
                   const std::function<void(BinEnvelope&)>& edit) {
  DecodedBinChain decoded = decode_bin_message(response.body);
  edit(decoded.envelope);
  response.body = encode_bin_message(decoded.envelope, std::move(decoded.pbio_message));
}

TEST(UnresolvableXmlType, ClientManagerWithoutTheTypeRaisesRpcError) {
  RewritingEndpoints env;
  env.transport.rewrite = [](http::Response& response) {
    response.headers.set(std::string(kHeaderQualityType), "sum_small");
  };
  ClientStub client(env.transport, WireFormat::kXml, calc_service(), env.format_server,
                    env.clock);
  client.set_quality_manager(std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse("0 inf - sum\n"), 1));
  try {
    client.call("sum", sample_params());
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("'sum_small'"), std::string::npos);
  }
}

// ---------------------------------------------------------------- RTT samples

TEST(RttSample, EchoFromTheFutureStillReturnsTheReply) {
  // The sample runs from the client's own send time: a server clock ahead
  // of the client's cannot fail a call whose reply decoded.
  RewritingEndpoints env;
  env.transport.rewrite = [](http::Response& response) {
    edit_envelope(response,
                  [](BinEnvelope& e) { e.echoed_timestamp_us += 1'000'000; });
  };
  ClientStub client(env.transport, WireFormat::kBinary, calc_service(),
                    env.format_server, env.clock);
  const Value result = client.call("sum", sample_params());
  EXPECT_EQ(result.field("total").as_i64(), 20);
  // The 1 ms the transport charged, less the server's real prep time.
  EXPECT_GT(client.last_rtt_us(), 0.0);
  EXPECT_LE(client.last_rtt_us(), 1000.0);
}

/// A reported prep time at or above the measured round trip gives no
/// sample: the estimate holds and the drop is counted.
void expect_impossible_prep_dropped(WireFormat wire) {
  RewritingEndpoints env;
  ClientStub client(env.transport, wire, calc_service(), env.format_server, env.clock);
  client.call("sum", sample_params());
  const double estimate = client.rtt_estimate_us();
  EXPECT_GT(estimate, 0.0);
  std::uint64_t drops = 0;
  for (const std::uint64_t prep : {std::uint64_t{1000}, std::uint64_t{1'000'000'000}}) {
    env.transport.rewrite = [wire, prep](http::Response& response) {
      if (wire == WireFormat::kBinary) {
        edit_envelope(response, [prep](BinEnvelope& e) { e.server_prep_us = prep; });
      } else {
        response.headers.set(std::string(kHeaderServerPrep), std::to_string(prep));
      }
    };
    EXPECT_EQ(client.call("sum", sample_params()).field("total").as_i64(), 20) << prep;
    EXPECT_EQ(client.rtt_estimate_us(), estimate) << prep;
    EXPECT_EQ(client.stats().rtt_samples_dropped, ++drops) << prep;
  }
}

TEST(RttSample, ImpossiblePrepIsDroppedOnBinaryWire) {
  expect_impossible_prep_dropped(WireFormat::kBinary);
}

TEST(RttSample, ImpossiblePrepIsDroppedOnXmlWire) {
  expect_impossible_prep_dropped(WireFormat::kXml);
}

}  // namespace
}  // namespace sbq::core
