// Shared support for the figure/table reproduction harnesses.
//
// Each bench binary regenerates one table or figure from the paper: it
// builds the paper's workload, runs it through the real stack (real CPU
// costs) over the deterministic link models (simulated transfer costs), and
// prints the same rows/series the paper reports. See DESIGN.md §2 for the
// experiment-to-binary map and EXPERIMENTS.md for measured-vs-paper notes.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer_chain.h"
#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "net/link.h"
#include "pbio/format.h"
#include "pbio/value.h"
#include "wsdl/wsdl.h"

namespace sbq::bench {

// ---------------------------------------------------------------- calibration

/// CPU-era calibration factor applied to measured CPU times before they are
/// combined with simulated transfer times. The paper's testbed was a
/// 2.2 GHz Pentium IV; this host processes the same workloads roughly an
/// order of magnitude faster, which would silently move every
/// CPU-vs-transfer crossover (e.g. Figure 5's "conversion costs more than
/// sending raw XML on the fast link"). Default 8.0; override with the
/// SBQ_CPU_SCALE environment variable (set 1 for uncalibrated host times).
double cpu_scale();

// ---------------------------------------------------------------- printing

/// Fixed-width table printer (plain text, one row per line).
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int column_width = 14);

  void row(const std::vector<std::string>& cells);
  void rule() const;

  static std::string num(double v, int precision = 1);
  static std::string bytes(std::size_t n);

 private:
  std::vector<std::string> headers_;
  int width_;
};

/// Prints a section banner for one experiment.
void banner(const std::string& title, const std::string& subtitle);

// ---------------------------------------------------------------- workloads

/// Format `int_array{values:i32[]}` — the paper's scientific-data workload.
pbio::FormatPtr int_array_format();

/// A record of int_array_format with `payload_bytes / 4` elements.
pbio::Value make_int_array(std::size_t payload_bytes);

/// The paper's business-data workload: a binary tree of structs of `depth`
/// levels (document size grows exponentially with depth, matching "its
/// document size increases exponentially").
pbio::FormatPtr nested_struct_format(int depth);
pbio::Value make_nested_struct(int depth);

/// Decodes a PBIO Value message straight from its chain, as the live stack
/// does: header first, then the payload, with no flattening.
pbio::Value decode_value_chain(const BufferChain& message, const pbio::FormatDesc& format);

// ---------------------------------------------------------------- harness

/// One client/server pair over a simulated link, ready to call.
struct SimHarness {
  std::shared_ptr<pbio::FormatServer> format_server;
  std::shared_ptr<net::SimClock> clock;
  std::unique_ptr<core::ServiceRuntime> runtime;
  std::unique_ptr<core::SimLinkTransport> transport;
  std::unique_ptr<core::ClientStub> client;

  /// Runs one call and returns the total time it took in µs: simulated
  /// transfer + server CPU (charged to the sim clock by the transport) +
  /// client-side codec CPU (measured for real and added here).
  std::uint64_t timed_call(const std::string& operation, const pbio::Value& params);
};

/// Builds a harness serving `operation` as an echo (request value returned
/// verbatim). `echo_format` is both input and output type.
SimHarness make_echo_harness(const std::string& operation,
                             pbio::FormatPtr echo_format, core::WireFormat wire,
                             net::LinkConfig link);

/// Mean and population standard deviation (jitter metric for Fig. 8/9).
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Summary summarize(const std::vector<double>& samples);

}  // namespace sbq::bench
