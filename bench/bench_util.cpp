#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pbio/encode.h"
#include "pbio/value_codec.h"

namespace sbq::bench {

double cpu_scale() {
  static const double scale = [] {
    if (const char* env = std::getenv("SBQ_CPU_SCALE")) {
      const double v = std::atof(env);
      if (v > 0) return v;
    }
    return 8.0;
  }();
  return scale;
}

TablePrinter::TablePrinter(std::vector<std::string> headers, int column_width)
    : headers_(std::move(headers)), width_(column_width) {
  for (const auto& h : headers_) std::printf("%-*s", width_, h.c_str());
  std::printf("\n");
  rule();
}

void TablePrinter::rule() const {
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    for (int c = 0; c < width_ - 2; ++c) std::printf("-");
    std::printf("  ");
  }
  std::printf("\n");
}

void TablePrinter::row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%-*s", width_, c.c_str());
  std::printf("\n");
}

std::string TablePrinter::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::bytes(std::size_t n) {
  char buf[64];
  if (n >= 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.2fMB", static_cast<double>(n) / (1024.0 * 1024.0));
  } else if (n >= 1024) {
    std::snprintf(buf, sizeof buf, "%.1fKB", static_cast<double>(n) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%zuB", n);
  }
  return buf;
}

void banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
}

pbio::FormatPtr int_array_format() {
  static const pbio::FormatPtr format =
      pbio::FormatBuilder("int_array")
          .add_var_array("values", pbio::TypeKind::kInt32)
          .build();
  return format;
}

pbio::Value make_int_array(std::size_t payload_bytes) {
  pbio::Value values = pbio::Value::empty_array();
  const std::size_t count = payload_bytes / 4;
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(static_cast<std::int64_t>(1000000 + i * 7));
  }
  return pbio::Value::record({{"values", std::move(values)}});
}

pbio::FormatPtr nested_struct_format(int depth) {
  pbio::FormatPtr format = pbio::FormatBuilder("leaf")
                               .add_scalar("account", pbio::TypeKind::kInt32)
                               .add_scalar("balance", pbio::TypeKind::kFloat64)
                               .add_string("holder")
                               .build();
  for (int level = 0; level < depth; ++level) {
    format = pbio::FormatBuilder("level" + std::to_string(level))
                 .add_scalar("id", pbio::TypeKind::kInt32)
                 .add_struct("left", format)
                 .add_struct("right", format)
                 .build();
  }
  return format;
}

namespace {
pbio::Value nested_struct_value(int depth) {
  if (depth == 0) {
    return pbio::Value::record(
        {{"account", 123456}, {"balance", 1023.75}, {"holder", "J. Doe"}});
  }
  pbio::Value child = nested_struct_value(depth - 1);
  return pbio::Value::record({{"id", depth}, {"left", child}, {"right", child}});
}
}  // namespace

pbio::Value make_nested_struct(int depth) {
  return nested_struct_value(depth);
}

pbio::Value decode_value_chain(const BufferChain& message, const pbio::FormatDesc& format) {
  ChainReader reader(message);
  const pbio::WireHeader header = pbio::read_header(reader);
  return pbio::decode_value_payload(reader, header.payload_length, header.sender_order, format);
}

std::uint64_t SimHarness::timed_call(const std::string& operation,
                                     const pbio::Value& params) {
  const EndpointStats before = client->stats();
  const std::uint64_t start = clock->now_us();
  client->call(operation, params);
  const EndpointStats& after = client->stats();
  const double client_cpu_us =
      (after.marshal_us - before.marshal_us) +
      (after.unmarshal_us - before.unmarshal_us) +
      (after.convert_us - before.convert_us) +
      (after.compress_us - before.compress_us);
  return clock->now_us() - start +
         static_cast<std::uint64_t>(client_cpu_us * cpu_scale());
}

SimHarness make_echo_harness(const std::string& operation,
                             pbio::FormatPtr echo_format, core::WireFormat wire,
                             net::LinkConfig link) {
  SimHarness h;
  h.format_server = std::make_shared<pbio::FormatServer>();
  h.clock = std::make_shared<net::SimClock>();
  h.runtime = std::make_unique<core::ServiceRuntime>(h.format_server, h.clock);
  h.runtime->register_operation(operation, echo_format, echo_format,
                                [](const pbio::Value& v) { return v; });
  h.transport = std::make_unique<core::SimLinkTransport>(
      *h.runtime, net::LinkModel(link), h.clock);
  h.transport->set_cpu_scale(cpu_scale());

  wsdl::ServiceDesc svc;
  svc.name = "Bench";
  svc.operations.push_back(wsdl::OperationDesc{operation, echo_format, echo_format});
  h.client = std::make_unique<core::ClientStub>(*h.transport, wire, svc,
                                                h.format_server, h.clock);
  return h;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  s.min = samples[0];
  s.max = samples[0];
  double total = 0;
  for (double v : samples) {
    total += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = total / static_cast<double>(samples.size());
  double var = 0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  return s;
}

}  // namespace sbq::bench
