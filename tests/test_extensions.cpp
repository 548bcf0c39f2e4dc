// Tests for the paper's future-work extensions implemented in this repo:
// runtime policy redefinition, runtime handler installation (handler
// repository), attribute monitors, quality management on the XML wire, the
// UDDI-style service repository, and concurrent runtime access.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "core/client.h"
#include "core/quality_compiler.h"
#include "core/registry_host.h"
#include "core/service.h"
#include "core/transports.h"
#include "http/server.h"
#include "net/tcp.h"
#include "pbio/value_codec.h"
#include "qos/handler_repository.h"
#include "qos/monitors.h"
#include "soap/envelope.h"
#include "wsdl/repository.h"

namespace sbq {
namespace {

using core::ClientStub;
using core::LoopbackTransport;
using core::ServiceRuntime;
using core::WireFormat;
using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

// ---------------------------------------------------------------- policy swap

TEST(RuntimeRedefinition, ReplacePolicySwitchesRulesAndAttribute) {
  qos::QualityManager qm(qos::QualityFile::parse("0 inf - big\n"), 1);
  qm.register_message_type(
      "big", FormatBuilder("big").add_scalar("v", TypeKind::kInt32).build());
  qm.register_message_type(
      "small", FormatBuilder("small").add_scalar("v", TypeKind::kInt32).build());
  qm.update_attribute("rtt_us", 1e9);
  EXPECT_EQ(qm.select().name, "big");

  // Re-define at runtime: now monitor CPU cost, pick small when loaded.
  qm.replace_policy(qos::QualityFile::parse("attribute marshal_cost_us\n"
                                            "0 100 - big\n100 inf - small\n"),
                    1);
  EXPECT_EQ(qm.attribute_name(), "marshal_cost_us");
  qm.update_attribute("marshal_cost_us", 50.0);
  EXPECT_EQ(qm.select().name, "big");
  qm.update_attribute("marshal_cost_us", 500.0);
  EXPECT_EQ(qm.select().name, "small");
}

TEST(RuntimeRedefinition, ReplacePolicyResetsHistory) {
  qos::QualityManager qm(qos::QualityFile::parse("0 10 - a\n10 inf - b\n"), 3);
  qm.register_message_type(
      "a", FormatBuilder("a").add_scalar("v", TypeKind::kInt32).build());
  qm.register_message_type(
      "b", FormatBuilder("b").add_scalar("v", TypeKind::kInt32).build());
  qm.update_attribute("rtt_us", 5.0);
  (void)qm.select();
  qm.update_attribute("rtt_us", 50.0);
  (void)qm.select();  // 1 of 3 toward switching

  qm.replace_policy(qos::QualityFile::parse("0 10 - a\n10 inf - b\n"), 3);
  // Fresh history: the first selection establishes the active type directly.
  EXPECT_EQ(qm.select().name, "b");
}

TEST(RuntimeRedefinition, InstallHandlerSwapsAtRuntime) {
  qos::QualityManager qm(qos::QualityFile::parse("0 inf - t\n"), 1);
  auto fmt = FormatBuilder("t").add_scalar("v", TypeKind::kInt32).build();
  qm.register_message_type("t", fmt);

  const Value full = Value::record({{"v", 21}});
  EXPECT_EQ(qm.apply(full, qm.required_type("t")).field("v").as_i64(), 21);

  qm.install_handler("t", [](const Value& v, const pbio::FormatDesc&,
                             const qos::AttributeMap&) {
    return Value::record({{"v", v.field("v").as_i64() * 2}});
  });
  EXPECT_EQ(qm.apply(full, qm.required_type("t")).field("v").as_i64(), 42);
  EXPECT_THROW(qm.install_handler("ghost", nullptr), QosError);
}

// ---------------------------------------------------------------- repository of handlers

TEST(HandlerRepo, BuiltinsPresent) {
  qos::HandlerRepository repo;
  EXPECT_TRUE(repo.contains("project"));
  EXPECT_TRUE(repo.contains("truncate"));
  EXPECT_TRUE(repo.contains("stride"));
  EXPECT_FALSE(repo.contains("jit"));
  EXPECT_EQ(repo.names().size(), 3u);
}

FormatPtr samples_format() {
  return FormatBuilder("samples_msg")
      .add_scalar("id", TypeKind::kInt32)
      .add_var_array("samples", TypeKind::kInt32)
      .build();
}

Value samples_value(int n) {
  Value samples = Value::empty_array();
  for (int i = 0; i < n; ++i) samples.push_back(i);
  return Value::record({{"id", 1}, {"samples", std::move(samples)}});
}

TEST(HandlerRepo, ProjectSpec) {
  qos::HandlerRepository repo;
  auto handler = repo.instantiate("project");
  const Value out = handler(samples_value(8), *samples_format(), {});
  EXPECT_EQ(out.field("samples").array_size(), 8u);
}

TEST(HandlerRepo, TruncateArray) {
  qos::HandlerRepository repo;
  auto handler = repo.instantiate("truncate:samples:4");
  const Value out = handler(samples_value(16), *samples_format(), {});
  ASSERT_EQ(out.field("samples").array_size(), 4u);
  EXPECT_EQ(out.field("samples").at(3).as_i64(), 3);
}

TEST(HandlerRepo, TruncateBulkString) {
  auto blob = FormatBuilder("blob").add_var_array("data", TypeKind::kChar).build();
  qos::HandlerRepository repo;
  auto handler = repo.instantiate("truncate:data:2");
  const Value out = handler(Value::record({{"data", std::string(10, 'x')}}), *blob, {});
  EXPECT_EQ(out.field("data").as_string().size(), 5u);
}

TEST(HandlerRepo, StrideDownsamples) {
  qos::HandlerRepository repo;
  auto handler = repo.instantiate("stride:samples:3");
  const Value out = handler(samples_value(10), *samples_format(), {});
  ASSERT_EQ(out.field("samples").array_size(), 4u);  // 0,3,6,9
  EXPECT_EQ(out.field("samples").at(2).as_i64(), 6);
}

TEST(HandlerRepo, CustomFactoryAndErrors) {
  qos::HandlerRepository repo;
  repo.register_factory("zero", [](const std::vector<std::string>&) {
    return [](const Value&, const pbio::FormatDesc& target,
              const qos::AttributeMap&) { return pbio::zero_value(target); };
  });
  auto handler = repo.instantiate("zero");
  EXPECT_EQ(handler(samples_value(5), *samples_format(), {}).field("id").as_i64(), 0);

  EXPECT_THROW(repo.instantiate("unknown"), QosError);
  EXPECT_THROW(repo.instantiate("truncate"), QosError);          // missing args
  EXPECT_THROW(repo.instantiate("truncate:samples:0"), QosError);  // zero divisor
  EXPECT_THROW(repo.instantiate("truncate:samples:x"), ParseError);
  EXPECT_THROW(repo.instantiate("project:extra"), QosError);
  EXPECT_THROW(repo.register_factory("bad", nullptr), QosError);
}

TEST(HandlerRepo, MissingFieldDiagnosed) {
  qos::HandlerRepository repo;
  auto handler = repo.instantiate("truncate:ghost:2");
  EXPECT_THROW(handler(samples_value(4), *samples_format(), {}), QosError);
}

// ---------------------------------------------------------------- monitors

TEST(Monitors, CallableMonitorFeedsManager) {
  qos::QualityManager qm(qos::QualityFile::parse("0 inf - t\n"), 1);
  qos::MonitorSet monitors;
  double load = 0.25;
  monitors.add(std::make_unique<qos::CallableMonitor>("cpu_load",
                                                      [&] { return load; }));
  monitors.poll(qm);
  EXPECT_DOUBLE_EQ(qm.attribute("cpu_load"), 0.25);
  load = 0.75;
  monitors.poll(qm);
  EXPECT_DOUBLE_EQ(qm.attribute("cpu_load"), 0.75);
}

TEST(Monitors, MarshalCostMonitorTracksPerCallCost) {
  EndpointStats stats;
  qos::MarshalCostMonitor monitor([&] { return stats; }, /*alpha=*/0.0);

  EXPECT_DOUBLE_EQ(monitor.sample(), 0.0);  // no calls yet
  stats.calls = 2;
  stats.marshal_us = 60.0;
  stats.unmarshal_us = 40.0;
  EXPECT_DOUBLE_EQ(monitor.sample(), 50.0);  // (60+40)/2 per call

  stats.calls = 3;
  stats.marshal_us = 160.0;  // one expensive call: +100 µs marshal
  EXPECT_DOUBLE_EQ(monitor.sample(), 100.0);
}

TEST(Monitors, NullRejected) {
  qos::MonitorSet monitors;
  EXPECT_THROW(monitors.add(nullptr), QosError);
  EXPECT_THROW(qos::MarshalCostMonitor(nullptr), QosError);
}

// ---------------------------------------------------------------- XML-wire quality

FormatPtr xf_full() {
  return FormatBuilder("xfull")
      .add_scalar("id", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}
FormatPtr xf_small() {
  return FormatBuilder("xsmall")
      .add_scalar("id", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}

std::shared_ptr<qos::QualityManager> xml_quality(int threshold = 1) {
  auto qm = std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse("0 100000 - xfull\n100000 inf - xsmall\n"), threshold);
  qm->register_message_type("xfull", xf_full());
  qm->register_message_type(
      "xsmall", xf_small(),
      [](const Value& full, const pbio::FormatDesc& target, const qos::AttributeMap&) {
        Value out = pbio::project_value(full, target);
        out.set_field("data",
                      Value{full.field("data").as_string().substr(0, 4)});
        return out;
      });
  return qm;
}

struct XmlQualityFixture {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SimClock> clock = std::make_shared<net::SimClock>();
  ServiceRuntime runtime{format_server, clock};
  LoopbackTransport transport{runtime};
  std::shared_ptr<qos::QualityManager> server_quality = xml_quality();
  std::vector<std::unique_ptr<ClientStub>> clients;

  XmlQualityFixture() {
    runtime.register_operation(
        "fetch", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build(),
        xf_full(), [](const Value&) {
          return Value::record({{"id", 9}, {"data", std::string(64, 'Z')}});
        });
    runtime.set_quality_manager(server_quality);
  }

  std::unique_ptr<ClientStub> make_client(WireFormat wire = WireFormat::kXml) {
    wsdl::ServiceDesc svc;
    svc.name = "XmlQ";
    svc.operations.push_back(wsdl::OperationDesc{
        "fetch", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build(),
        xf_full()});
    auto client = std::make_unique<ClientStub>(transport, wire, svc,
                                               format_server, clock);
    client->set_quality_manager(xml_quality());
    return client;
  }
};

TEST(XmlWireQuality, FullQualityByDefault) {
  XmlQualityFixture fx;
  ClientStub& client = *fx.clients.emplace_back(fx.make_client());
  const Value result = client.call("fetch", Value::record({{"n", 1}}));
  EXPECT_EQ(client.last_response_type(), "xfull");
  EXPECT_EQ(result.field("data").as_string().size(), 64u);
}

TEST(XmlWireQuality, ServerReducesOnReportedRtt) {
  XmlQualityFixture fx;
  ClientStub& client = *fx.clients.emplace_back(fx.make_client());
  // Pretend the client observed terrible RTT; it reports it via header.
  client.quality_manager()->observe_rtt(500000.0);
  const Value result = client.call("fetch", Value::record({{"n", 1}}));
  EXPECT_EQ(client.last_response_type(), "xsmall");
  // Reduced payload, zero-padded semantics preserved by projection.
  EXPECT_EQ(result.field("data").as_string().size(), 4u);
  EXPECT_EQ(result.field("id").as_i64(), 9);
}

TEST(XmlWireQuality, ServerReducesOnReportedRttCompressed) {
  XmlQualityFixture fx;
  ClientStub& client = *fx.clients.emplace_back(fx.make_client(WireFormat::kCompressedXml));
  client.quality_manager()->observe_rtt(500000.0);
  const Value result = client.call("fetch", Value::record({{"n", 1}}));
  EXPECT_EQ(client.last_response_type(), "xsmall");
  EXPECT_EQ(result.field("data").as_string().size(), 4u);
  EXPECT_EQ(result.field("id").as_i64(), 9);
  EXPECT_GT(client.stats().compress_us, 0.0);  // the compressed wire ran
}

TEST(XmlWireQuality, ReducedResponseWithoutClientManagerIsAnError) {
  XmlQualityFixture fx;
  wsdl::ServiceDesc svc;
  svc.name = "XmlQ";
  svc.operations.push_back(wsdl::OperationDesc{
      "fetch", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build(),
      xf_full()});
  ClientStub bare(fx.transport, WireFormat::kXml, svc, fx.format_server, fx.clock);
  // Force the server into the reduced type.
  fx.server_quality->update_attribute("rtt_us", 500000.0);
  EXPECT_THROW(bare.call("fetch", Value::record({{"n", 1}})), RpcError);
}

/// A raw "fetch" request reporting `rtt` on `wire`, as a peer other than
/// ClientStub could send it; a null `rtt` reports nothing.
http::Request fetch_reporting(WireFormat wire, const char* rtt) {
  const FormatPtr req = FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build();
  const Value params = Value::record({{"n", 1}});
  http::Request request;
  request.method = "POST";
  request.target = "/XmlQ";
  if (wire == WireFormat::kBinary) {
    core::BinEnvelope envelope;
    envelope.operation = "fetch";
    envelope.message_type = "req";
    envelope.reported_rtt_us = rtt == nullptr ? 0.0 : std::strtod(rtt, nullptr);
    request.headers.set("Content-Type", std::string(core::kContentTypePbio));
    request.body = core::encode_bin_message(
        envelope, pbio::encode_value_message_chain(params, *req));
  } else {
    request.headers.set("Content-Type", std::string(core::kContentTypeXml));
    if (rtt != nullptr) request.headers.set(std::string(core::kHeaderReportedRtt), rtt);
    request.set_body(soap::build_request("fetch", params, *req));
  }
  return request;
}

/// An infinite RTT matches no rule of the quality file, not even the one
/// ending in `inf`: published, it would make every later selection throw.
void expect_infinite_rtt_ignored(WireFormat wire) {
  XmlQualityFixture fx;
  for (const char* rtt : {"inf", "1e999"}) {
    EXPECT_EQ(fx.runtime.handle(fetch_reporting(wire, rtt)).status, 200) << rtt;
    EXPECT_EQ(fx.runtime.handle(fetch_reporting(wire, nullptr)).status, 200) << rtt;
  }
}

TEST(XmlWireQuality, InfiniteReportedRttIsNotPublishedOnBinaryWire) {
  expect_infinite_rtt_ignored(WireFormat::kBinary);
}

TEST(XmlWireQuality, InfiniteReportedRttIsNotPublishedOnXmlWire) {
  expect_infinite_rtt_ignored(WireFormat::kXml);
}

TEST(XmlWireQuality, RttMeasuredOnXmlWire) {
  XmlQualityFixture fx;
  // Advance the sim clock inside the handler to fake a slow exchange: the
  // loopback transport has no link model, so inject time via the clock.
  fx.runtime.register_operation(
      "slow", FormatBuilder("req2").add_scalar("n", TypeKind::kInt32).build(),
      xf_full(), [&](const Value&) {
        fx.clock->advance_us(2500);
        return Value::record({{"id", 1}, {"data", std::string("abcd")}});
      });
  wsdl::ServiceDesc svc;
  svc.name = "XmlQ";
  svc.operations.push_back(wsdl::OperationDesc{
      "slow", FormatBuilder("req2").add_scalar("n", TypeKind::kInt32).build(),
      xf_full()});
  ClientStub slow_client(fx.transport, WireFormat::kXml, svc, fx.format_server,
                         fx.clock);
  (void)slow_client.call("slow", Value::record({{"n", 1}}));
  // The 2.5 ms the handler spent on the sim clock is bounded above by the
  // measured round trip; the real prep time (microseconds) is subtracted,
  // so the sample never exceeds the injected delay.
  EXPECT_LE(slow_client.last_rtt_us(), 2500.0);
  EXPECT_GE(slow_client.last_rtt_us(), 0.0);
}

// ---------------------------------------------------------------- service repository

constexpr const char* kThermoWsdl = R"(<definitions name="Thermo">
  <types><schema>
    <complexType name="treq"><sequence>
      <element name="n" type="int"/>
    </sequence></complexType>
    <complexType name="tresp"><sequence>
      <element name="celsius" type="double" maxOccurs="unbounded"/>
    </sequence></complexType>
  </schema></types>
  <message name="in"><part name="p" type="treq"/></message>
  <message name="out"><part name="p" type="tresp"/></message>
  <portType name="P"><operation name="read">
    <input message="in"/><output message="out"/>
  </operation></portType>
</definitions>)";

constexpr const char* kThermoQuality =
    "attribute rtt_us\n0 1000 - tresp\n1000 inf - tresp_small\n";

TEST(Repository, PublishLookupList) {
  wsdl::ServiceRepository repo;
  EXPECT_EQ(repo.size(), 0u);
  repo.publish("Thermo", kThermoWsdl, kThermoQuality);
  repo.publish("Bare", kThermoWsdl);
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_EQ(repo.list(), (std::vector<std::string>{"Bare", "Thermo"}));

  const auto found = repo.lookup("Thermo");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->quality_text, kThermoQuality);
  EXPECT_FALSE(repo.lookup("Ghost").has_value());
}

TEST(Repository, ValidatesOnPublish) {
  wsdl::ServiceRepository repo;
  EXPECT_THROW(repo.publish("", kThermoWsdl), ParseError);
  EXPECT_THROW(repo.publish("Bad", "<notwsdl/>"), ParseError);
  EXPECT_THROW(repo.publish("BadQ", kThermoWsdl, "10 5 - inverted\n"), QosError);
  EXPECT_EQ(repo.size(), 0u);
}

TEST(Repository, RepublishReplaces) {
  wsdl::ServiceRepository repo;
  repo.publish("T", kThermoWsdl, "");
  repo.publish("T", kThermoWsdl, kThermoQuality);
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_EQ(repo.lookup("T")->quality_text, kThermoQuality);
}

TEST(Repository, CompilePublished) {
  const wsdl::Discovery d = wsdl::compile_published(
      wsdl::PublishedService{"Thermo", kThermoWsdl, kThermoQuality});
  EXPECT_EQ(d.service.required_operation("read").output->canonical(),
            "tresp{celsius:f64[]}");
  ASSERT_TRUE(d.quality.has_value());
  EXPECT_EQ(d.quality->select(5000.0), "tresp_small");
}

TEST(Repository, EndToEndDiscoveryOverSoap) {
  // Full bootstrap: host registry + target service; a client that only
  // knows the registry discovers the service (WSDL + quality file) and
  // then calls it.
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();

  ServiceRuntime registry_runtime(format_server, clock);
  auto repo = std::make_shared<wsdl::ServiceRepository>();
  core::host_repository(registry_runtime, repo);
  LoopbackTransport registry_transport(registry_runtime);
  ClientStub registry_client(registry_transport, WireFormat::kBinary,
                             wsdl::registry_service_desc(), format_server, clock);

  // The service owner publishes through SOAP.
  core::publish_service(registry_client, "Thermo", kThermoWsdl, kThermoQuality);
  EXPECT_EQ(core::list_services(registry_client),
            (std::vector<std::string>{"Thermo"}));

  // The service itself runs somewhere.
  const wsdl::ServiceDesc thermo = wsdl::parse_wsdl(kThermoWsdl);
  ServiceRuntime thermo_runtime(format_server, clock);
  thermo_runtime.register_operation(
      "read", thermo.required_operation("read").input,
      thermo.required_operation("read").output, [](const Value& params) {
        Value celsius = Value::empty_array();
        for (std::int64_t i = 0; i < params.field("n").as_i64(); ++i) {
          celsius.push_back(20.0 + static_cast<double>(i));
        }
        return Value::record({{"celsius", std::move(celsius)}});
      });
  LoopbackTransport thermo_transport(thermo_runtime);

  // A stranger discovers and calls it.
  const wsdl::Discovery discovered =
      core::discover_service(registry_client, "Thermo");
  ASSERT_TRUE(discovered.quality.has_value());
  ClientStub thermo_client(thermo_transport, WireFormat::kBinary,
                           discovered.service, format_server, clock);
  const Value reading = thermo_client.call("read", Value::record({{"n", 3}}));
  EXPECT_EQ(reading.field("celsius").array_size(), 3u);
  EXPECT_DOUBLE_EQ(reading.field("celsius").at(2).as_f64(), 22.0);

  EXPECT_THROW(core::discover_service(registry_client, "Ghost"), RpcError);
}

// ---------------------------------------------------------------- quality compiler

constexpr const char* kGridWsdl = R"(<definitions name="Grid">
  <types><schema>
    <complexType name="grid_req"><sequence>
      <element name="n" type="int"/>
    </sequence></complexType>
    <complexType name="grid_full"><sequence>
      <element name="id" type="int"/>
      <element name="samples" type="int" maxOccurs="unbounded"/>
    </sequence></complexType>
    <complexType name="grid_small"><sequence>
      <element name="id" type="int"/>
      <element name="samples" type="int" maxOccurs="unbounded"/>
    </sequence></complexType>
  </schema></types>
  <message name="in"><part name="p" type="grid_req"/></message>
  <message name="out"><part name="p" type="grid_full"/></message>
  <portType name="P"><operation name="sample">
    <input message="in"/><output message="out"/>
  </operation></portType>
</definitions>)";

TEST(QualityCompiler, WiresTypesFromWsdl) {
  const wsdl::ServiceDesc service = wsdl::parse_wsdl(kGridWsdl);
  const qos::QualityFile file = qos::QualityFile::parse(
      "0 1000 - grid_full\n1000 inf - grid_small\n");
  qos::HandlerRepository handlers;
  core::QualityCompileOptions options;
  options.handler_specs["grid_small"] = "truncate:samples:2";
  options.handlers = &handlers;
  options.switch_threshold = 1;

  auto qm = core::compile_quality(file, service, options);
  EXPECT_NO_THROW((void)qm->required_type("grid_small"));
  EXPECT_EQ(qm->required_type("grid_full").format->format_id(),
            service.type("grid_full")->format_id());

  // The spec'd handler is live.
  qm->update_attribute("rtt_us", 5000.0);
  const Value full = Value::record(
      {{"id", 1}, {"samples", Value::array({1, 2, 3, 4, 5, 6})}});
  const Value reduced = qm->apply(full, qm->select());
  EXPECT_EQ(reduced.field("samples").array_size(), 3u);
}

TEST(QualityCompiler, DiagnosesConfigurationErrors) {
  const wsdl::ServiceDesc service = wsdl::parse_wsdl(kGridWsdl);
  // Rule names a type the WSDL lacks.
  EXPECT_THROW(core::compile_quality(
                   qos::QualityFile::parse("0 inf - ghost_type\n"), service),
               QosError);
  // Spec without a repository.
  {
    core::QualityCompileOptions options;
    options.handler_specs["grid_full"] = "project";
    EXPECT_THROW(core::compile_quality(
                     qos::QualityFile::parse("0 inf - grid_full\n"), service,
                     options),
                 QosError);
  }
  // Spec for a type the policy never selects.
  {
    qos::HandlerRepository handlers;
    core::QualityCompileOptions options;
    options.handlers = &handlers;
    options.handler_specs["grid_small"] = "project";
    EXPECT_THROW(core::compile_quality(
                     qos::QualityFile::parse("0 inf - grid_full\n"), service,
                     options),
                 QosError);
  }
}

// ---------------------------------------------------------------- per-client quality

TEST(PerClientQuality, ClientsAdaptIndependently) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  runtime.register_operation(
      "fetch", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build(),
      xf_full(), [](const Value&) {
        return Value::record({{"id", 1}, {"data", std::string(64, 'P')}});
      });
  // One fresh quality manager per distinct client id.
  runtime.set_quality_factory([] { return xml_quality(1); });

  LoopbackTransport transport(runtime);
  wsdl::ServiceDesc svc;
  svc.name = "PQ";
  svc.operations.push_back(wsdl::OperationDesc{
      "fetch", FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build(),
      xf_full()});

  ClientStub fast(transport, WireFormat::kBinary, svc, format_server, clock);
  fast.set_quality_manager(xml_quality(1));
  ClientStub slow(transport, WireFormat::kBinary, svc, format_server, clock);
  slow.set_quality_manager(xml_quality(1));
  ASSERT_NE(fast.client_id(), slow.client_id());

  // The slow client reports terrible RTT; the fast one stays quiet.
  slow.quality_manager()->observe_rtt(900000.0);
  fast.quality_manager()->observe_rtt(50.0);

  (void)slow.call("fetch", Value::record({{"n", 1}}));
  (void)fast.call("fetch", Value::record({{"n", 1}}));
  EXPECT_EQ(slow.last_response_type(), "xsmall");
  EXPECT_EQ(fast.last_response_type(), "xfull");

  // Each keeps its own state across further calls.
  (void)slow.call("fetch", Value::record({{"n", 2}}));
  EXPECT_EQ(slow.last_response_type(), "xsmall");
  EXPECT_EQ(runtime.client_quality_count(), 2u);
}

TEST(PerClientQuality, RotatingClientIdsKeepTheTableBounded) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  const FormatPtr req_format = FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build();
  runtime.register_operation("fetch", req_format, xf_full(), [](const Value&) {
    return Value::record({{"id", 1}, {"data", std::string(64, 'P')}});
  });
  // Threshold 3: a held entry keeps its active type through the first two
  // selections that disagree, while a fresh one takes its first selection
  // at once.
  runtime.set_quality_factory([] { return xml_quality(3); });

  // Records one real binary request so it can be replayed under other ids.
  struct CaptureTransport final : core::Transport {
    explicit CaptureTransport(ServiceRuntime& runtime) : inner(runtime) {}
    http::Response round_trip(const http::Request& request) override {
      target = request.target;
      headers = request.headers;
      body = request.body_string();
      return inner.round_trip(request);
    }
    LoopbackTransport inner;
    std::string target;
    http::Headers headers;
    std::string body;
  };
  CaptureTransport capture(runtime);
  wsdl::ServiceDesc svc;
  svc.name = "PQ";
  svc.operations.push_back(wsdl::OperationDesc{"fetch", req_format, xf_full()});
  ClientStub client(capture, WireFormat::kBinary, svc, format_server, clock);
  client.set_quality_manager(xml_quality(1));
  (void)client.call("fetch", Value::record({{"n", 1}}));

  const auto send_as = [&](const std::string& client_id) {
    http::Request request;
    request.target = capture.target;
    request.headers = capture.headers;
    request.headers.set(std::string(core::kHeaderClientId), client_id);
    request.set_body(std::string(capture.body));
    return runtime.handle(request).status;
  };
  constexpr int kIds = 10000;
  int answered = 0;
  for (int i = 0; i < kIds; ++i) {
    if (send_as("spray-" + std::to_string(i)) == 200) ++answered;
  }
  EXPECT_EQ(answered, kIds);
  EXPECT_LE(runtime.client_quality_count(), ServiceRuntime::kMaxClientQualityManagers);
  EXPECT_EQ(ServiceRuntime::kMaxClientQualityManagers, 1024u);

  // Every sprayed id selected xfull (the replay reports no RTT). Now report
  // congestion: the newest id is still held, so its hysteresis holds xfull;
  // the oldest was evicted and starts over, so it switches at once.
  EXPECT_EQ(send_as("spray-" + std::to_string(kIds - 1)), 200);
  client.quality_manager()->observe_rtt(9'000'000.0);
  client.set_client_id("spray-" + std::to_string(kIds - 1));
  (void)client.call("fetch", Value::record({{"n", 2}}));
  EXPECT_EQ(client.last_response_type(), "xfull");
  client.set_client_id("spray-0");
  (void)client.call("fetch", Value::record({{"n", 3}}));
  EXPECT_EQ(client.last_response_type(), "xsmall");
  EXPECT_EQ(send_as("spray-0"), 200);
  EXPECT_LE(runtime.client_quality_count(), ServiceRuntime::kMaxClientQualityManagers);
}

TEST(PerClientQuality, ConcurrentClientsOverTcpShareOneRegistry) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  const FormatPtr req_format = FormatBuilder("req").add_scalar("n", TypeKind::kInt32).build();
  runtime.register_operation("fetch", req_format, xf_full(), [](const Value&) {
    return Value::record({{"id", 1}, {"data", std::string(64, 'P')}});
  });
  int factory_calls = 0;
  std::shared_ptr<qos::QualityManager> config;
  runtime.set_quality_factory([&] {
    ++factory_calls;
    config = xml_quality(1);
    return config;
  });

  http::Server server(0, [&](const http::Request& r) { return runtime.handle(r); });
  wsdl::ServiceDesc svc;
  svc.name = "PQ";
  svc.operations.push_back(wsdl::OperationDesc{"fetch", req_format, xf_full()});

  // Each thread reports its own RTT: below the 100 ms boundary → xfull,
  // above → xsmall.
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 20;
  const double reported_rtt_us[kThreads] = {50.0, 1'000'000.0, 200.0, 5'000'000.0};
  std::vector<std::thread> clients;
  std::atomic<int> wrong_type{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      try {
        auto stream = net::TcpStream::connect("127.0.0.1", server.port());
        core::HttpTransport transport(*stream);
        ClientStub client(transport, WireFormat::kBinary, svc, format_server, clock);
        client.set_client_id("tcp-" + std::to_string(t));
        client.set_quality_manager(xml_quality(1));
        const std::string expected = reported_rtt_us[t] < 100000.0 ? "xfull" : "xsmall";
        for (int i = 0; i < kCallsPerThread; ++i) {
          // Re-anchor the estimate, which each call's real RTT pulls down.
          client.quality_manager()->observe_rtt(reported_rtt_us[t]);
          (void)client.call("fetch", Value::record({{"n", i}}));
          if (client.last_response_type() != expected) ++wrong_type;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  server.shutdown();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_type.load(), 0);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_EQ(runtime.client_quality_count(), static_cast<std::size_t>(kThreads));
  // Every entry holds the configuration's registry itself, not a copy: its
  // owners are the configuration, one per entry, and this expression's copy.
  EXPECT_EQ(config->registry().use_count(), 1 + kThreads + 1);
}

TEST(PerClientQuality, SharedManagerWithoutFactory) {
  XmlQualityFixture fx;  // global manager only
  ClientStub& a = *fx.clients.emplace_back(fx.make_client());
  ClientStub& b = *fx.clients.emplace_back(fx.make_client());
  // Client a reports congestion; with one SHARED manager, b is affected too.
  a.quality_manager()->observe_rtt(500000.0);
  (void)a.call("fetch", Value::record({{"n", 1}}));
  (void)b.call("fetch", Value::record({{"n", 1}}));
  EXPECT_EQ(a.last_response_type(), "xsmall");
  EXPECT_EQ(b.last_response_type(), "xsmall");
  EXPECT_EQ(fx.runtime.client_quality_count(), 0u);
}

// ---------------------------------------------------------------- concurrency

TEST(Concurrency, ParallelClientsOverTcpKeepStatsConsistent) {
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();
  ServiceRuntime runtime(format_server, clock);
  auto echo_format =
      FormatBuilder("msg").add_scalar("v", TypeKind::kInt32).build();
  runtime.register_operation("echo", echo_format, echo_format,
                             [](const Value& v) { return v; });

  http::Server server(0, [&](const http::Request& r) { return runtime.handle(r); });

  constexpr int kThreads = 6;
  constexpr int kCallsPerThread = 25;
  wsdl::ServiceDesc svc;
  svc.name = "Echo";
  svc.operations.push_back(wsdl::OperationDesc{"echo", echo_format, echo_format});

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      try {
        auto stream = net::TcpStream::connect("127.0.0.1", server.port());
        core::HttpTransport transport(*stream);
        ClientStub client(transport, WireFormat::kBinary, svc, format_server, clock);
        for (int i = 0; i < kCallsPerThread; ++i) {
          const Value result = client.call("echo", Value::record({{"v", t * 1000 + i}}));
          if (result.field("v").as_i64() != t * 1000 + i) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  server.shutdown();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(runtime.stats().calls,
            static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
}

}  // namespace
}  // namespace sbq
