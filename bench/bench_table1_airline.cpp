// Table I — event rates for the airline operational information system.
//
// The OIS distributes catering excerpts to end users over the ADSL link.
// Paper's table:
//                         Size        Event rate (events/sec)
//   SOAP                  3898 bytes  10.15
//   SOAP-bin               860 bytes  13.76
//   Native PBIO            860 bytes  14.06
//   SOAP (compressed XML)  1264 bytes 13.17
//
// Expected shape: the ordering (native PBIO > SOAP-bin > compressed > plain
// SOAP) and the roughly 4.5x XML/PBIO size ratio. Absolute rates depend on
// the testbed.
#include <cstdio>

#include "apps/airline/ois.h"
#include "bench_util.h"
#include "pbio/value_codec.h"

namespace sbq::bench {
namespace {

using pbio::Value;

constexpr int kEvents = 25;

struct Row {
  std::string name;
  std::size_t size = 0;
  double events_per_sec = 0;
};

Row run_stack(const std::string& name, core::WireFormat wire,
              const Value& request, const airline::OperationalStore& store) {
  SimHarness h;
  h.format_server = std::make_shared<pbio::FormatServer>();
  h.clock = std::make_shared<net::SimClock>();
  h.runtime = std::make_unique<core::ServiceRuntime>(h.format_server, h.clock);
  h.runtime->register_operation(
      "getCatering", airline::catering_request_format(),
      airline::catering_excerpt_format(), [&store](const Value& params) {
        const airline::Flight* flight =
            store.flight(params.field("flight").as_string());
        if (flight == nullptr) throw RpcError("unknown flight");
        return airline::excerpt_to_value(airline::catering_excerpt(*flight));
      });
  h.transport = std::make_unique<core::SimLinkTransport>(
      *h.runtime, net::LinkModel(net::adsl_1mbps()), h.clock);

  wsdl::ServiceDesc svc;
  svc.name = "CateringService";
  svc.operations.push_back(wsdl::OperationDesc{"getCatering",
                                               airline::catering_request_format(),
                                               airline::catering_excerpt_format()});
  h.client = std::make_unique<core::ClientStub>(*h.transport, wire, svc,
                                                h.format_server, h.clock);

  h.timed_call("getCatering", request);  // warm formats
  const std::uint64_t sent_before = h.runtime->stats().bytes_sent;
  std::uint64_t total_us = 0;
  for (int i = 0; i < kEvents; ++i) {
    total_us += h.timed_call("getCatering", request);
  }
  Row row;
  row.name = name;
  // Response body size (what Table I reports per event).
  row.size = static_cast<std::size_t>(
      (h.runtime->stats().bytes_sent - sent_before) / kEvents);
  row.events_per_sec = 1e6 * kEvents / static_cast<double>(total_us);
  return row;
}

/// "Native PBIO": the OIS core path — PBIO messages straight over the link,
/// no HTTP, no SOAP envelope (how Delta's system consumed the feed).
Row run_native(const Value& excerpt, const net::LinkModel& link) {
  const BufferChain request_wire =
      pbio::encode_value_message_chain(Value::record({{"flight", "DL1000"}}),
                                       *airline::catering_request_format());
  Row row;
  row.name = "Native PBIO";
  std::uint64_t total_us = 0;
  BufferChain wire;
  for (int i = 0; i < kEvents; ++i) {
    Stopwatch cpu;
    wire = pbio::encode_value_message_chain(excerpt, *airline::catering_excerpt_format());
    const Value decoded = decode_value_chain(wire, *airline::catering_excerpt_format());
    (void)decoded;
    total_us += static_cast<std::uint64_t>(cpu.elapsed_us());
    total_us += link.transfer_time_us(request_wire.size(), 0);
    total_us += link.transfer_time_us(wire.size(), 0);
  }
  row.size = wire.size();
  row.events_per_sec = 1e6 * kEvents / static_cast<double>(total_us);
  return row;
}

}  // namespace
}  // namespace sbq::bench

int main() {
  using namespace sbq::bench;
  using sbq::pbio::Value;

  banner("Table I: event rates for the airline application",
         "catering excerpts over ADSL; per-event response size and rate");

  sbq::airline::OperationalStore store(2004);
  store.populate(/*flights=*/4, /*passengers=*/34);
  const std::string flight = store.flight_numbers()[0];
  const Value request = Value::record({{"flight", flight}});
  const Value excerpt = sbq::airline::excerpt_to_value(
      sbq::airline::catering_excerpt(*store.flight(flight)));

  std::vector<Row> rows;
  rows.push_back(run_stack("SOAP", sbq::core::WireFormat::kXml, request, store));
  rows.push_back(run_stack("SOAP-bin", sbq::core::WireFormat::kBinary, request, store));
  rows.push_back(run_native(excerpt, sbq::net::LinkModel(sbq::net::adsl_1mbps())));
  rows.push_back(run_stack("SOAP (compressed XML)", sbq::core::WireFormat::kCompressedXml,
                           request, store));

  TablePrinter table({"variant", "size", "events_per_sec"}, 24);
  for (const Row& row : rows) {
    table.row({row.name, TablePrinter::bytes(row.size),
               TablePrinter::num(row.events_per_sec, 2)});
  }
  std::printf(
      "\nShape check vs paper (3898B/10.15, 860B/13.76, 860B/14.06, 1264B/13.17):\n"
      "ordering native PBIO > SOAP-bin > compressed XML > plain SOAP, with\n"
      "XML several times the binary size.\n");
  return 0;
}
