#include "loop.h"

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <exception>
#include <thread>

#include "reservoir.h"

namespace livebench {

using sbq::pbio::Value;

LayerCounters LayerCounters::of(const sbq::EndpointStats& s) {
  LayerCounters c;
  c.marshal_us = s.marshal_us;
  c.unmarshal_us = s.unmarshal_us;
  c.envelope_us = s.envelope_us;
  c.bytes_copied = static_cast<double>(s.bytes_copied);
  c.segments_written = static_cast<double>(s.segments_written);
  return c;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& other) {
  marshal_us += other.marshal_us;
  unmarshal_us += other.unmarshal_us;
  envelope_us += other.envelope_us;
  bytes_copied += other.bytes_copied;
  segments_written += other.segments_written;
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& other) const {
  LayerCounters d = *this;
  d.marshal_us -= other.marshal_us;
  d.unmarshal_us -= other.unmarshal_us;
  d.envelope_us -= other.envelope_us;
  d.bytes_copied -= other.bytes_copied;
  d.segments_written -= other.segments_written;
  return d;
}

namespace {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The current block, written by the main thread before the start barrier.
struct BlockPlan {
  BlockKind kind = BlockKind::kWarmup;
  std::uint64_t end_ns = 0;
  double length_us = 0;
};

// Per-call latencies and traces are sampled into fixed reservoirs
// (reservoir.h); 64k latencies per caller and kind keep every binq_bulk and
// xml_struct call and leave hundreds of samples beyond bin_small's p99.
constexpr std::size_t kLatencySamples = 1 << 16;
constexpr std::size_t kTraceSamples = 1 << 16;

struct KindTally {
  KindTally(std::size_t trace_capacity, std::uint64_t seed)
      : latency_us(kLatencySamples, seed),
        window_us(kLatencySamples, seed + 1),
        traces(trace_capacity, seed + 2) {}
  Reservoir<double> latency_us;
  Reservoir<double> window_us;  // the current latency window
  Reservoir<CallTrace> traces;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t traces_dropped = 0;
};

struct Caller {
  Caller(std::uint32_t i, bool traced_blocks)
      : index(i),
        untraced(0, 4 * i + 1),
        traced(traced_blocks ? kTraceSamples : 0, 4 * i + 3) {}
  std::uint32_t index;
  KindTally untraced;
  KindTally traced;
  std::uint64_t calls = 0;  // every call on this connection, warm-up included
  std::uint64_t block_attempted = 0;
  std::uint64_t block_failed = 0;
};

void run_block(Caller& caller, Connection& conn, const ServerSlot& slot,
               const Workload& workload, const BlockPlan& plan) {
  caller.block_attempted = 0;
  caller.block_failed = 0;
  KindTally* sink = plan.kind == BlockKind::kUntraced ? &caller.untraced
                     : plan.kind == BlockKind::kTraced ? &caller.traced
                                                       : nullptr;
  std::uint64_t seen_seq = slot.seq.load(std::memory_order_acquire);
  const std::size_t pool = workload.requests.size();
  while (now_ns() < plan.end_ns) {
    const std::uint64_t call_id = caller.calls++;
    const std::size_t k = call_id % pool;
    Value got;
    bool ok = true;
    const std::uint64_t start = now_ns();
    try {
      got = conn.stub->call(kOperation, workload.requests[k]);
    } catch (const std::exception&) {
      ok = false;
    }
    const std::uint64_t end = now_ns();
    // The check runs outside the latency interval.
    const bool mismatch = ok && !(got == workload.expected[k]);
    if (mismatch) ok = false;
    ++caller.block_attempted;
    if (!ok) ++caller.block_failed;
    if (sink == nullptr) continue;

    ++sink->attempted;
    if (!ok) {
      ++sink->failed;
      if (mismatch) ++sink->mismatched;
      sink->latency_us.add(plan.length_us);
      sink->window_us.add(plan.length_us);
      continue;
    }
    const double latency_us = static_cast<double>(end - start) / 1000.0;
    sink->latency_us.add(latency_us);
    sink->window_us.add(latency_us);
    if (plan.kind != BlockKind::kTraced) continue;

    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != seen_seq + 1) {
      ++sink->traces_dropped;
      seen_seq = seq;
      continue;
    }
    seen_seq = seq;
    CallTrace trace;
    trace.connection = caller.index;
    trace.call_id = call_id;
    trace.spans[kSpanCall] = {start, end};
    trace.spans[kSpanRoundTrip] = conn.transport->span;
    trace.spans[kSpanHandle] = {slot.handle_start.load(std::memory_order_relaxed),
                                  slot.handle_end.load(std::memory_order_relaxed)};
    trace.spans[kSpanOp] = {slot.op_start.load(std::memory_order_relaxed),
                               slot.op_end.load(std::memory_order_relaxed)};
    sink->traces.add(trace);
  }
}

// The callers' samples are pooled as they are: both run the same closed
// loop for the same blocks, so their streams are of near-equal length.
void merge(KindResult& into, const KindTally& from) {
  const std::vector<double> latency = from.latency_us.sample();
  into.latency_us.insert(into.latency_us.end(), latency.begin(), latency.end());
  const std::vector<CallTrace> traces = from.traces.sample();
  into.traces.insert(into.traces.end(), traces.begin(), traces.end());
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.mismatched += from.mismatched;
  into.traces_dropped += from.traces_dropped;
}

// Closes the latency window of one kind: p99 over both callers' samples.
void close_window(std::vector<Caller>& callers, KindTally Caller::*kind,
                  KindResult& into) {
  std::vector<double> window;
  for (Caller& c : callers) {
    const std::vector<double> sample = (c.*kind).window_us.sample();
    window.insert(window.end(), sample.begin(), sample.end());
    (c.*kind).window_us.clear();
  }
  into.window_p99_us.push_back(percentile(std::move(window), 0.99));
}

struct Snapshot {
  double cpu_s = 0;
  std::uint64_t wire_bytes = 0;
  LayerCounters client;
  LayerCounters server;
};

Snapshot snapshot(LiveStack& stack) {
  Snapshot s;
  s.cpu_s = process_cpu_s();
  for (std::size_t i = 0; i < kConnections; ++i) {
    const Connection& c = stack.connection(i);
    s.wire_bytes += c.stream->bytes_in + c.stream->bytes_out;
    s.client += LayerCounters::of(c.stub->stats());
  }
  s.server = LayerCounters::of(stack.runtime().stats());
  return s;
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

LoopResult run_closed_loop(LiveStack& stack, const Workload& workload,
                           std::atomic<bool>& tracing,
                           const std::vector<Block>& blocks) {
  std::barrier sync(static_cast<std::ptrdiff_t>(kConnections + 1));
  BlockPlan plan;
  const bool traced_blocks =
      std::any_of(blocks.begin(), blocks.end(),
                  [](const Block& b) { return b.kind == BlockKind::kTraced; });
  std::vector<Caller> callers;
  callers.reserve(kConnections);
  for (std::size_t i = 0; i < kConnections; ++i) {
    callers.emplace_back(static_cast<std::uint32_t>(i), traced_blocks);
  }
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kConnections; ++i) {
    threads.emplace_back([&, i] {
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        sync.arrive_and_wait();
        run_block(callers[i], stack.connection(i), stack.slot(i), workload, plan);
        sync.arrive_and_wait();
      }
    });
  }

  LoopResult result;
  for (const Block& block : blocks) {
    tracing.store(block.kind == BlockKind::kTraced);
    const Snapshot before = snapshot(stack);
    const std::uint64_t start = now_ns();
    plan.kind = block.kind;
    plan.length_us = block.seconds * 1e6;
    plan.end_ns = start + static_cast<std::uint64_t>(block.seconds * 1e9);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    const std::uint64_t end = now_ns();
    const Snapshot after = snapshot(stack);

    BlockResult r;
    r.kind = block.kind;
    r.seconds = static_cast<double>(end - start) / 1e9;
    for (const Caller& c : callers) {
      r.attempted += c.block_attempted;
      r.failed += c.block_failed;
    }
    r.cpu_s = after.cpu_s - before.cpu_s;
    r.wire_bytes = after.wire_bytes - before.wire_bytes;
    r.client = after.client - before.client;
    r.server = after.server - before.server;
    if (block.kind == BlockKind::kWarmup) continue;
    const bool traced = block.kind == BlockKind::kTraced;
    KindResult& kind = traced ? result.traced : result.untraced;
    kind.blocks.push_back(r);
    if (kind.blocks.size() % kWindowBlocks == 0) {
      close_window(callers, traced ? &Caller::traced : &Caller::untraced, kind);
    }
  }
  tracing.store(false);
  for (std::thread& t : threads) t.join();

  for (const Caller& c : callers) {
    merge(result.untraced, c.untraced);
    merge(result.traced, c.traced);
  }
  return result;
}

}  // namespace livebench
