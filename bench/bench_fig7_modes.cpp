// Figure 7 — the three SOAP-bin modes of operation, over 100 Mbps and ADSL
// links, for (a) arrays and (b) nested structs.
//
//   high-perf : both applications speak binary; zero XML conversions
//   interop   : the client application holds XML; the client stub converts
//               XML→binary before sending and binary→XML after receiving
//               (one-sided, just-in-time conversion)
//   compat    : both applications hold XML; conversions happen at BOTH ends
//
// The wire is PBIO in all three modes; only the conversion work differs.
// Expected shape (paper): on the fast link the modes separate increasingly
// with size (high-perf < interop < compat); over ADSL the link swamps the
// conversion costs and the three curves collapse together.
#include <cstdio>

#include "bench_util.h"
#include "soap/codec.h"

namespace sbq::bench {
namespace {

using pbio::Value;

/// Builds the echo harness in the right configuration per mode and runs
/// one warm call, returning total µs.
double run_mode(const std::string& mode, const pbio::FormatPtr& format,
                const Value& v, net::LinkConfig link, int iterations) {
  SimHarness harness = [&] {
    if (mode != "compat") {
      return make_echo_harness("echo", format, core::WireFormat::kBinary, link);
    }
    // Compatibility mode: the server application is XML-native too.
    SimHarness h;
    h.format_server = std::make_shared<pbio::FormatServer>();
    h.clock = std::make_shared<net::SimClock>();
    h.runtime = std::make_unique<core::ServiceRuntime>(h.format_server, h.clock);
    h.runtime->register_xml_operation(
        "echo", format, format,
        [](const std::string& params_xml) { return params_xml; });
    h.transport = std::make_unique<core::SimLinkTransport>(
        *h.runtime, net::LinkModel(link), h.clock);
    h.transport->set_cpu_scale(cpu_scale());
    wsdl::ServiceDesc svc;
    svc.name = "Bench";
    svc.operations.push_back(wsdl::OperationDesc{"echo", format, format});
    h.client = std::make_unique<core::ClientStub>(
        *h.transport, core::WireFormat::kBinary, svc, h.format_server, h.clock);
    return h;
  }();

  const std::string xml = soap::value_to_xml(v, *format, "params");

  // Warm up format caches (cold-start registration excluded, as in the paper).
  if (mode == "high-perf") {
    harness.timed_call("echo", v);
  } else {
    harness.client->call_xml("echo", xml);
  }

  double total = 0;
  for (int i = 0; i < iterations; ++i) {
    if (mode == "high-perf") {
      total += static_cast<double>(harness.timed_call("echo", v));
    } else {
      // interop & compat drive the XML-native client entry point.
      const EndpointStats before = harness.client->stats();
      const std::uint64_t start = harness.clock->now_us();
      (void)harness.client->call_xml("echo", xml);
      const EndpointStats& after = harness.client->stats();
      const double cpu = (after.marshal_us - before.marshal_us) +
                         (after.unmarshal_us - before.unmarshal_us) +
                         (after.convert_us - before.convert_us);
      total += static_cast<double>(harness.clock->now_us() - start) +
               cpu * cpu_scale();
    }
  }
  return total / iterations;
}

void run_workload(const std::string& figure, const std::string& label,
                  const std::vector<std::pair<std::string, Value>>& workloads,
                  const std::vector<pbio::FormatPtr>& formats) {
  for (const auto& [link_name, link] :
       std::vector<std::pair<std::string, net::LinkConfig>>{
           {"100Mbps", net::lan_100mbps()}, {"ADSL", net::adsl_1mbps()}}) {
    banner("Figure 7 (" + figure + ", " + link_name + "): modes of operation — " + label,
           "total time µs per call: high-performance vs interoperability vs "
           "compatibility");
    TablePrinter table({"workload", "high_perf", "interop", "compat"}, 15);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const auto& [key, v] = workloads[i];
      const int iterations = 4;
      const double hp = run_mode("high-perf", formats[i], v, link, iterations);
      const double io = run_mode("interop", formats[i], v, link, iterations);
      const double co = run_mode("compat", formats[i], v, link, iterations);
      table.row({key, TablePrinter::num(hp), TablePrinter::num(io),
                 TablePrinter::num(co)});
    }
  }
}

}  // namespace
}  // namespace sbq::bench

int main() {
  using namespace sbq::bench;
  {
    std::vector<std::pair<std::string, sbq::pbio::Value>> workloads;
    std::vector<sbq::pbio::FormatPtr> formats;
    for (std::size_t bytes : {10240u, 102400u, 1048576u}) {
      workloads.emplace_back(TablePrinter::bytes(bytes), make_int_array(bytes));
      formats.push_back(int_array_format());
    }
    run_workload("a", "integer arrays", workloads, formats);
  }
  {
    std::vector<std::pair<std::string, sbq::pbio::Value>> workloads;
    std::vector<sbq::pbio::FormatPtr> formats;
    for (int depth : {4, 7, 10}) {
      workloads.emplace_back("depth " + std::to_string(depth),
                             make_nested_struct(depth));
      formats.push_back(nested_struct_format(depth));
    }
    run_workload("b", "nested structs", workloads, formats);
  }
  std::printf(
      "\nShape check: modes separate with size on the fast link (high-perf\n"
      "fastest), converge over ADSL where the link dominates.\n");
  return 0;
}
