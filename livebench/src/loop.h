// The closed loop: each connection's caller thread sends its next call only
// after the previous one returned and was checked.
//
// A run is a sequence of blocks. All callers start and end each block
// together at a barrier, so no call is in flight when tracing is switched
// on or off, and the counters read between blocks are quiescent.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "stack.h"
#include "trace.h"
#include "workload.h"

namespace livebench {

enum class BlockKind { kWarmup, kUntraced, kTraced };

/// Cost counters of one endpoint (EndpointStats fields the benchmark reads).
struct LayerCounters {
  double marshal_us = 0;
  double unmarshal_us = 0;
  double envelope_us = 0;
  double bytes_copied = 0;
  double segments_written = 0;

  static LayerCounters of(const sbq::EndpointStats& s);
  LayerCounters& operator+=(const LayerCounters& other);
  LayerCounters operator-(const LayerCounters& other) const;
};

/// What one block measured.
struct BlockResult {
  BlockKind kind = BlockKind::kWarmup;
  double seconds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cpu_s = 0;  // process user + system time
  std::uint64_t wire_bytes = 0;
  LayerCounters client;
  LayerCounters server;
};

/// Everything measured in blocks of one kind, pooled.
struct KindResult {
  std::vector<BlockResult> blocks;
  /// Sampled per-call latency; a failed call enters as its block's full
  /// length, so it counts as missing any latency limit.
  std::vector<double> latency_us;
  /// p99 latency of each window of kWindowBlocks consecutive blocks.
  std::vector<double> window_p99_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;  // answered, but not with the expected value
  std::vector<CallTrace> traces;  // sampled
  std::uint64_t traces_dropped = 0;  // server spans missing or out of step
};

struct LoopResult {
  KindResult untraced;
  KindResult traced;
};

/// Blocks of one kind per latency window. With one-second blocks a window
/// holds at least 1,500 calls on every workload, 15 beyond its p99.
inline constexpr std::size_t kWindowBlocks = 5;

/// Nearest-rank percentile of `v`, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

struct Block {
  BlockKind kind;
  double seconds;
};

/// Runs `blocks` on `stack`, flipping `tracing` between blocks.
LoopResult run_closed_loop(LiveStack& stack, const Workload& workload,
                           std::atomic<bool>& tracing,
                           const std::vector<Block>& blocks);

}  // namespace livebench
