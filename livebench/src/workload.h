// Workloads of the live-stack benchmark: the service each one hosts, the
// seeded request pool it sends, and the response each request must produce.
//
// Every workload hosts one operation, "echo", whose handler returns its
// parameters. What differs is the wire format, the payload shape, and the
// quality file (README.md explains why each exists).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/client.h"
#include "pbio/value.h"
#include "qos/manager.h"
#include "wsdl/wsdl.h"

namespace livebench {

inline constexpr const char* kOperation = "echo";

/// The names the benchmark accepts for --workload.
const std::vector<std::string>& workload_names();

/// Static description of a workload: wire format and quality setup.
struct WorkloadSpec {
  std::string name;
  sbq::core::WireFormat wire = sbq::core::WireFormat::kBinary;
  /// Quality file both endpoints compile; empty means no quality management.
  std::string quality_file;
  /// Handler spec per message type, resolved through the handler repository.
  std::map<std::string, std::string> handler_specs;
};

/// A workload with its seeded inputs.
struct Workload {
  WorkloadSpec spec;
  std::vector<sbq::pbio::Value> requests;
  /// expected[i] is the response requests[i] must produce, as the client
  /// stub returns it (after padding a reduced response back to full type).
  std::vector<sbq::pbio::Value> expected;
};

/// Builds the named workload; the same seed gives the same inputs. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// Compiles the service description of `spec`: the echo operation and every
/// type its quality file names. Part of set-up, so it is timed there.
sbq::wsdl::ServiceDesc make_service(const WorkloadSpec& spec);

/// Compiles the workload's quality file against `service` into a fresh
/// manager, or returns nullptr when the workload has none.
std::shared_ptr<sbq::qos::QualityManager> compile_workload_quality(
    const WorkloadSpec& spec, const sbq::wsdl::ServiceDesc& service);

}  // namespace livebench
