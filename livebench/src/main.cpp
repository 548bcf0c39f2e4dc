// livebench — drives one workload through the live SOAP-binQ stack and
// prints every metric by name with its unit. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <csv path>]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// alternates untraced and traced blocks on one stack and reports the
// per-layer metrics: span self times, per-call deltas of the public stats,
// layer kernels, and the traced blocks' end-to-end figures next to the
// tracing overhead. README.md documents each metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "kernels.h"
#include "loop.h"
#include "stack.h"
#include "trace.h"
#include "workload.h"

namespace livebench {
namespace {

constexpr int kSetupRuns = 51;         // set-up is timed this often; median reported
constexpr int kBlocks = 30;            // measured blocks per run
constexpr double kMaxWarmupS = 1.0;
constexpr double kKernelSeconds = 0.15;  // per layer kernel
constexpr std::size_t kMaxSpanCalls = 20'000;  // calls written to the span file

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "livebench: %s\nusage: livebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <csv path>]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown --workload '" + args.workload + "'");
  }
  if (!have_seed || !have_trace || args.seconds == 0) usage("missing arguments");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// a / b, or 0 when there is nothing to divide by.
double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct EndToEnd {
  double calls_per_s = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  double cpu_us_per_call = 0;
  double wire_bytes_per_call = 0;
};

// Rates and CPU per call are medians over blocks, so one noisy second on a
// shared host moves them less than a whole-run mean would.
EndToEnd end_to_end(const KindResult& k) {
  EndToEnd e;
  std::vector<double> rates;
  std::vector<double> cpu;
  std::uint64_t bytes = 0;
  std::uint64_t attempted = 0;
  for (const BlockResult& b : k.blocks) {
    rates.push_back(ratio(b.attempted - b.failed, b.seconds));
    if (b.attempted > 0) cpu.push_back(ratio(b.cpu_s * 1e6, b.attempted));
    bytes += b.wire_bytes;
    attempted += b.attempted;
  }
  e.calls_per_s = median(rates);
  e.cpu_us_per_call = median(cpu);
  e.wire_bytes_per_call = ratio(bytes, attempted);
  e.latency_p50_us = percentile(k.latency_us, 0.50);
  // p99 is the median of the windows' p99s: a host stall of a few seconds
  // moves one window, not the whole run's tail.
  e.latency_p99_us = k.window_p99_us.empty() ? percentile(k.latency_us, 0.99)
                                             : median(k.window_p99_us);
  return e;
}

// Calls per second and p99 are left out: both carry the latency tail, whose
// run-to-run spread on a shared host exceeds any bound an end-to-end metric
// may have, so the traced run reports them per layer.
std::vector<Metric> end_to_end_metrics(const EndToEnd& e, double rss_mb, double setup_s,
                                       const std::string& prefix) {
  return {
      {prefix + "latency_p50_us", e.latency_p50_us, "us"},
      {prefix + "cpu_us_per_call", e.cpu_us_per_call, "us"},
      {prefix + "wire_bytes_per_call", e.wire_bytes_per_call, "B"},
      {prefix + "rss_peak_mb", rss_mb, "MB"},
      {prefix + "setup_s", setup_s, "s"},
  };
}

std::vector<Metric> per_layer_metrics(LiveStack& stack, const Workload& workload,
                                      const LoopResult& loop, double rss_mb,
                                      double setup_s) {
  const KindResult& traced = loop.traced;
  std::vector<Metric> m;

  // Spans: p50 per call of each span and of the self times derived from it.
  std::vector<double> call, client_self, round_trip, front, handle, server_self, op;
  for (const CallTrace& t : traced.traces) {
    call.push_back(duration_us(t, kSpanCall));
    client_self.push_back(self_us(t, kSpanCall));
    round_trip.push_back(duration_us(t, kSpanRoundTrip));
    front.push_back(self_us(t, kSpanRoundTrip));
    handle.push_back(duration_us(t, kSpanHandle));
    server_self.push_back(self_us(t, kSpanHandle));
    op.push_back(duration_us(t, kSpanOp));
  }
  const double call_p50 = median(call);
  const double client_self_p50 = median(client_self);
  const double front_p50 = median(front);
  const double handle_p50 = median(handle);
  m.push_back({"core.client.call_us", call_p50, "us"});
  m.push_back({"core.client.self_us", client_self_p50, "us"});
  m.push_back({"http.round_trip_us", median(round_trip), "us"});
  m.push_back({"http.front_us", front_p50, "us"});
  m.push_back({"core.server.handle_us", handle_p50, "us"});
  m.push_back({"core.server.self_us", median(server_self), "us"});
  m.push_back({"app.op_us", median(op), "us"});

  // Public stats: deltas over the traced blocks, per call.
  LayerCounters client;
  LayerCounters server;
  std::uint64_t calls = 0;
  for (const BlockResult& b : traced.blocks) {
    client += b.client;
    server += b.server;
    calls += b.attempted;
  }
  const double per = ratio(1, calls);
  m.push_back({"core.client.marshal_us", client.marshal_us * per, "us"});
  m.push_back({"core.client.unmarshal_us", client.unmarshal_us * per, "us"});
  m.push_back({"core.client.envelope_us", client.envelope_us * per, "us"});
  m.push_back({"core.server.marshal_us", server.marshal_us * per, "us"});
  m.push_back({"core.server.unmarshal_us", server.unmarshal_us * per, "us"});
  m.push_back({"core.server.envelope_us", server.envelope_us * per, "us"});
  m.push_back({"core.client.bytes_copied", client.bytes_copied * per, "count"});
  m.push_back({"core.server.bytes_copied", server.bytes_copied * per, "count"});
  m.push_back({"core.client.segments_written", client.segments_written * per, "count"});
  const sbq::http::ServerStats http = stack.server().stats();
  const auto count = [&m](const char* name, std::uint64_t value) {
    m.push_back({name, static_cast<double>(value), "count"});
  };
  count("http.server.peak_in_flight", http.peak_in_flight);
  count("http.server.queue_high_water", http.queue_high_water);
  count("http.server.accepted", http.accepted);
  count("qos.server.client_managers", stack.runtime().client_quality_count());

  for (const KernelTiming& k : run_kernels(workload, kKernelSeconds)) {
    m.push_back({k.name, k.us, "us"});
  }

  // The traced blocks' end-to-end figures, and what tracing cost.
  const EndToEnd traced_e2e = end_to_end(traced);
  for (Metric& e : end_to_end_metrics(traced_e2e, rss_mb, setup_s, "traced.")) {
    m.push_back(std::move(e));
  }
  const EndToEnd untraced_e2e = end_to_end(loop.untraced);
  m.push_back({"calls_per_s", untraced_e2e.calls_per_s, "1/s"});
  m.push_back({"traced.calls_per_s", traced_e2e.calls_per_s, "1/s"});
  m.push_back({"latency_p99_us", untraced_e2e.latency_p99_us, "us"});
  m.push_back({"traced.latency_p99_us", traced_e2e.latency_p99_us, "us"});
  const std::uint64_t attempted = loop.untraced.attempted + traced.attempted;
  const std::uint64_t failed = loop.untraced.failed + traced.failed;
  m.push_back({"error_rate", ratio(failed, attempted), "ratio"});
  const double untraced_p50 = percentile(loop.untraced.latency_us, 0.50);
  m.push_back({"trace.overhead_pct",
               (ratio(traced_e2e.latency_p50_us, untraced_p50) - 1) * 100, "%"});
  m.push_back({"trace.breakdown_ratio",
               ratio(client_self_p50 + front_p50 + handle_p50, call_p50), "ratio"});
  count("trace.latency_samples", traced.latency_us.size());
  return m;
}

void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed);
  std::atomic<bool> tracing{false};

  // Set-up: formats, quality compile, bind, connect, format announce, and
  // one verified call per connection. Timed several times, median kept;
  // the last stack is the one measured.
  std::vector<double> setup_samples;
  std::unique_ptr<LiveStack> stack;
  for (int i = 0; i < kSetupRuns; ++i) {
    stack.reset();
    const std::uint64_t start = now_ns();
    stack = std::make_unique<LiveStack>(workload, tracing);
    setup_samples.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  const double setup_s = median(setup_samples);
  std::fprintf(stderr, "livebench: setup over %zu runs: min %.6f median %.6f max %.6f s\n",
               setup_samples.size(),
               *std::min_element(setup_samples.begin(), setup_samples.end()), setup_s,
               *std::max_element(setup_samples.begin(), setup_samples.end()));

  // A traced run alternates untraced and traced blocks, so both kinds see
  // the same conditions on a host whose speed drifts.
  std::vector<Block> blocks = {
      {BlockKind::kWarmup, std::min(kMaxWarmupS, args.seconds / 5)}};
  for (int i = 0; i < kBlocks; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    blocks.push_back({traced ? BlockKind::kTraced : BlockKind::kUntraced,
                      args.seconds / kBlocks});
  }
  const LoopResult loop = run_closed_loop(*stack, workload, tracing, blocks);
  const double rss_mb = peak_rss_mb();

  const std::uint64_t attempted = loop.untraced.attempted + loop.traced.attempted;
  const std::uint64_t failed = loop.untraced.failed + loop.traced.failed;
  const std::uint64_t mismatched = loop.untraced.mismatched + loop.traced.mismatched;
  const bool correct = mismatched == 0 && attempted > failed;
  std::fprintf(stderr,
               "livebench: %s seed %llu: %llu calls, %llu failed "
               "(%llu wrong responses), %zu latency samples\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(mismatched),
               loop.untraced.latency_us.size() + loop.traced.latency_us.size());
  for (const KindResult* k : {&loop.untraced, &loop.traced}) {
    if (k->blocks.empty()) continue;
    std::fprintf(stderr, "livebench: pooled p99 %.1f us; window p99s (us):",
                 percentile(k->latency_us, 0.99));
    for (double p99 : k->window_p99_us) std::fprintf(stderr, " %.1f", p99);
    std::fprintf(stderr, "\n");
    for (const BlockResult& b : k->blocks) {
      std::fprintf(stderr, "livebench: %s block: %.1f calls/s, %.1f us cpu/call\n",
                   b.kind == BlockKind::kTraced ? "traced" : "untraced",
                   ratio(b.attempted - b.failed, b.seconds),
                   ratio(b.cpu_s * 1e6, b.attempted));
    }
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    if (!args.spans_path.empty() &&
        !write_spans(args.spans_path, loop.traced.traces, kMaxSpanCalls)) {
      std::fprintf(stderr, "livebench: cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "livebench: %zu traced calls sampled, %llu traces dropped\n",
                 loop.traced.traces.size(),
                 static_cast<unsigned long long>(loop.traced.traces_dropped));
    metrics = per_layer_metrics(*stack, workload, loop, rss_mb, setup_s);
  } else {
    metrics = end_to_end_metrics(end_to_end(loop.untraced), rss_mb, setup_s, "");
  }
  stack.reset();
  print_result(metrics, correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace livebench

int main(int argc, char** argv) {
  const livebench::Args args = livebench::parse_args(argc, argv);
  try {
    return livebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "livebench: %s\n", e.what());
    return 1;
  }
}
