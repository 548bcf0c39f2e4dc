#include "workload.h"

#include <random>
#include <stdexcept>

#include "core/quality_compiler.h"
#include "pbio/format.h"
#include "qos/handler_repository.h"
#include "qos/quality_file.h"

namespace livebench {

using sbq::pbio::FormatBuilder;
using sbq::pbio::FormatPtr;
using sbq::pbio::TypeKind;
using sbq::pbio::Value;

namespace {

// Distinct requests per workload; calls cycle through them so no two
// consecutive calls on a connection carry the same bytes.
constexpr std::size_t kPoolSize = 4;
constexpr std::size_t kSmallElements = 16;      // 64 B of i32
constexpr std::size_t kBulkElements = 16 * 1024;  // 64 KB of i32
constexpr int kStructDepth = 6;                 // 127 records, 64 leaves

FormatPtr int_array_format(const std::string& name) {
  return FormatBuilder(name).add_var_array("values", TypeKind::kInt32).build();
}

FormatPtr nested_struct_format(int depth) {
  FormatPtr format = FormatBuilder("leaf")
                         .add_scalar("account", TypeKind::kInt32)
                         .add_scalar("balance", TypeKind::kFloat64)
                         .add_string("holder")
                         .build();
  for (int level = 0; level < depth; ++level) {
    format = FormatBuilder("level" + std::to_string(level))
                 .add_scalar("id", TypeKind::kInt32)
                 .add_struct("left", format)
                 .add_struct("right", format)
                 .build();
  }
  return format;
}

// Inputs come from std::mt19937_64 through plain modulo arithmetic, whose
// results the standard fixes, so a seed gives the same inputs everywhere.
class Source {
 public:
  explicit Source(std::uint64_t seed) : engine_(seed) {}
  std::int64_t below(std::uint64_t bound) {
    return static_cast<std::int64_t>(engine_() % bound);
  }
  std::int64_t i32() { return static_cast<std::int32_t>(engine_() & 0xffffffffu); }

 private:
  std::mt19937_64 engine_;
};

Value int_array(Source& source, std::size_t count) {
  Value values = Value::empty_array();
  for (std::size_t i = 0; i < count; ++i) values.push_back(source.i32());
  return Value::record({{"values", std::move(values)}});
}

// Every other element, as the stride:values:2 handler keeps them.
Value stride2(const Value& request) {
  const Value& values = request.field("values");
  Value kept = Value::empty_array();
  for (std::size_t i = 0; i < values.array_size(); i += 2) kept.push_back(values.at(i));
  return Value::record({{"values", std::move(kept)}});
}

// Leaves and ids have fixed-width text forms (six-digit integers, balances
// like "1234.25", eight-letter holders), so the XML size does not depend on
// the seed.
Value nested_struct(Source& source, int depth) {
  if (depth == 0) {
    std::string holder(8, 'a');
    for (char& c : holder) c = static_cast<char>('a' + source.below(26));
    const double balance = static_cast<double>(1000 + source.below(9000)) +
                           (source.below(2) == 0 ? 0.25 : 0.75);
    return Value::record({{"account", 100000 + source.below(900000)},
                          {"balance", balance},
                          {"holder", std::move(holder)}});
  }
  Value left = nested_struct(source, depth - 1);
  Value right = nested_struct(source, depth - 1);
  return Value::record({{"id", 100000 + source.below(900000)},
                        {"left", std::move(left)},
                        {"right", std::move(right)}});
}

WorkloadSpec spec_for(std::string_view name) {
  WorkloadSpec spec;
  spec.name = std::string(name);
  if (name == "bin_small") {
    spec.wire = sbq::core::WireFormat::kBinary;
    spec.quality_file = "attribute rtt_us\n0 inf - int_array\n";
  } else if (name == "binq_bulk") {
    spec.wire = sbq::core::WireFormat::kBinary;
    spec.quality_file = "attribute rtt_us\n0 inf - half_values\n";
    spec.handler_specs["half_values"] = "stride:values:2";
  } else if (name == "xml_struct") {
    spec.wire = sbq::core::WireFormat::kXml;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bin_small", "binq_bulk",
                                                 "xml_struct"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.spec = spec_for(name);
  Source source(seed);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    if (name == "bin_small") {
      w.requests.push_back(int_array(source, kSmallElements));
      w.expected.push_back(w.requests.back());
    } else if (name == "binq_bulk") {
      w.requests.push_back(int_array(source, kBulkElements));
      w.expected.push_back(stride2(w.requests.back()));
    } else {
      w.requests.push_back(nested_struct(source, kStructDepth));
      w.expected.push_back(w.requests.back());
    }
  }
  return w;
}

sbq::wsdl::ServiceDesc make_service(const WorkloadSpec& spec) {
  sbq::wsdl::ServiceDesc service;
  service.name = "LiveBench";
  const FormatPtr echo_format = spec.wire == sbq::core::WireFormat::kXml
                                    ? nested_struct_format(kStructDepth)
                                    : int_array_format("int_array");
  service.operations.push_back(
      sbq::wsdl::OperationDesc{kOperation, echo_format, echo_format});
  service.types[echo_format->name] = echo_format;
  if (spec.handler_specs.contains("half_values")) {
    service.types["half_values"] = int_array_format("half_values");
  }
  return service;
}

std::shared_ptr<sbq::qos::QualityManager> compile_workload_quality(
    const WorkloadSpec& spec, const sbq::wsdl::ServiceDesc& service) {
  if (spec.quality_file.empty()) return nullptr;
  const sbq::qos::HandlerRepository handlers;
  sbq::core::QualityCompileOptions options;
  options.handler_specs = spec.handler_specs;
  options.handlers = &handlers;
  return sbq::core::compile_quality(sbq::qos::QualityFile::parse(spec.quality_file),
                                    service, options);
}

}  // namespace livebench
