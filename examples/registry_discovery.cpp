// Service discovery — the paper's UDDI-style deployment (§III-B.b):
// "the designer providing a quality file along with the WSDL file, through
// UDDI or a similar WSDL repository. This would let the user directly
// access the service, without knowledge of the actual message types used
// in data transmission."
//
// Three parties, all over real HTTP:
//   1. the REGISTRY hosts a ServiceRepository as a SOAP-bin service,
//   2. the PROVIDER publishes its WSDL + quality file and runs the service,
//   3. the CONSUMER knows only the registry port: it discovers the service,
//      compiles the WSDL, instantiates the quality policy, and calls.
//
// Run: ./registry_discovery
#include <cstdio>

#include "core/quality_compiler.h"
#include "core/registry_host.h"
#include "core/transports.h"
#include "http/server.h"
#include "net/tcp.h"
#include "qos/manager.h"

namespace {

constexpr const char* kSensorWsdl = R"(<definitions name="SensorGrid">
  <types><schema>
    <complexType name="grid_request"><sequence>
      <element name="region" type="string"/>
      <element name="max_points" type="int"/>
    </sequence></complexType>
    <complexType name="grid_data"><sequence>
      <element name="region" type="string"/>
      <element name="points" type="double" minOccurs="0" maxOccurs="unbounded"/>
    </sequence></complexType>
    <complexType name="grid_data_coarse"><sequence>
      <element name="region" type="string"/>
      <element name="points" type="double" minOccurs="0" maxOccurs="unbounded"/>
    </sequence></complexType>
  </schema></types>
  <message name="sampleIn"><part name="p" type="grid_request"/></message>
  <message name="sampleOut"><part name="p" type="grid_data"/></message>
  <portType name="GridPort">
    <operation name="sample">
      <input message="sampleIn"/><output message="sampleOut"/>
    </operation>
  </portType>
</definitions>)";

constexpr const char* kSensorQuality =
    "attribute rtt_us\n"
    "0 50000 - grid_data\n"
    "50000 inf - grid_data_coarse\n";

}  // namespace

int main() {
  using namespace sbq;
  using pbio::Value;

  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SteadyTimeSource>();

  // ---- party 1: the registry ---------------------------------------------
  core::ServiceRuntime registry_runtime(format_server, clock);
  auto repository = std::make_shared<wsdl::ServiceRepository>();
  core::host_repository(registry_runtime, repository);
  http::Server registry_http(
      0, [&](const http::Request& r) { return registry_runtime.handle(r); });
  std::printf("registry listening on 127.0.0.1:%u\n", registry_http.port());

  // ---- party 2: the provider ---------------------------------------------
  const wsdl::ServiceDesc sensor_service = wsdl::parse_wsdl(kSensorWsdl);
  core::ServiceRuntime sensor_runtime(format_server, clock);
  const auto& op = sensor_service.required_operation("sample");
  sensor_runtime.register_operation("sample", op.input, op.output,
                                    [](const Value& params) {
                                      Value points = Value::empty_array();
                                      const auto n = params.field("max_points").as_i64();
                                      for (std::int64_t i = 0; i < n; ++i) {
                                        points.push_back(0.1 * static_cast<double>(i));
                                      }
                                      return Value::record(
                                          {{"region", params.field("region").as_string()},
                                           {"points", std::move(points)}});
                                    });
  // The provider wires its quality policy from the same file it publishes.
  auto provider_quality = std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse(kSensorQuality), 2);
  provider_quality->register_message_type("grid_data",
                                          sensor_service.type("grid_data"));
  provider_quality->register_message_type(
      "grid_data_coarse", sensor_service.type("grid_data_coarse"),
      [](const Value& full, const pbio::FormatDesc& target, const qos::AttributeMap&) {
        // Coarse = every 4th point.
        const Value& points = full.field("points");
        return pbio::project_value(full, target, "points",
                                   points.slice(points.array_size(), 4));
      });
  sensor_runtime.set_quality_manager(provider_quality);
  http::Server sensor_http(
      0, [&](const http::Request& r) { return sensor_runtime.handle(r); });
  std::printf("sensor grid listening on 127.0.0.1:%u\n", sensor_http.port());

  {  // publish through the registry's SOAP interface
    auto stream = net::TcpStream::connect("127.0.0.1", registry_http.port());
    core::HttpTransport transport(*stream);
    core::ClientStub registry_client(transport, core::WireFormat::kBinary,
                                     wsdl::registry_service_desc(), format_server,
                                     clock);
    core::publish_service(registry_client, "SensorGrid", kSensorWsdl,
                          kSensorQuality);
    std::printf("provider published 'SensorGrid' (WSDL %zu B + quality file)\n",
                std::string(kSensorWsdl).size());
  }

  // ---- party 3: the consumer ---------------------------------------------
  auto registry_stream = net::TcpStream::connect("127.0.0.1", registry_http.port());
  core::HttpTransport registry_transport(*registry_stream);
  core::ClientStub registry_client(registry_transport, core::WireFormat::kBinary,
                                   wsdl::registry_service_desc(), format_server,
                                   clock);

  std::printf("\nconsumer: services in registry:");
  for (const auto& name : core::list_services(registry_client)) {
    std::printf(" %s", name.c_str());
  }
  const wsdl::Discovery discovered =
      core::discover_service(registry_client, "SensorGrid");
  std::printf("\nconsumer: discovered %zu operation(s); quality attribute '%s'\n",
              discovered.service.operations.size(),
              discovered.quality->attribute().c_str());

  // The consumer builds its stub AND its quality manager from discovery —
  // the quality compiler wires every message type named in the quality file
  // to the WSDL types; the consumer never saw grid_data_coarse in source.
  core::QualityCompileOptions consumer_options;
  consumer_options.switch_threshold = 2;
  auto consumer_quality = core::compile_quality(*discovered.quality,
                                                discovered.service,
                                                consumer_options);

  auto sensor_stream = net::TcpStream::connect("127.0.0.1", sensor_http.port());
  core::HttpTransport sensor_transport(*sensor_stream);
  core::ClientStub sensor_client(sensor_transport, core::WireFormat::kBinary,
                                 discovered.service, format_server, clock);
  sensor_client.set_quality_manager(consumer_quality);

  const Value data = sensor_client.call(
      "sample", Value::record({{"region", "N31.2-W97.4"}, {"max_points", 12}}));
  std::printf("consumer: got %zu points for %s (response type '%s')\n",
              data.field("points").array_size(),
              data.field("region").as_string().c_str(),
              sensor_client.last_response_type().c_str());

  registry_http.shutdown();
  sensor_http.shutdown();
  std::printf("\nconsumer bootstrapped everything from one registry lookup.\n");
  return 0;
}
