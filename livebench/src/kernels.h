// Layer kernels: single-threaded, warmed-up timings of each layer's public
// functions on the workload's own seeded payload, so the isolated cost of a
// codec sits next to its end-to-end effect.
#pragma once

#include <string>
#include <vector>

#include "workload.h"

namespace livebench {

struct KernelTiming {
  std::string name;  // per-layer metric name, e.g. "pbio.encode_us"
  double us = 0;     // median time per invocation
};

/// Times every kernel for about `seconds_each` and returns them in the
/// order the benchmark reports them.
std::vector<KernelTiming> run_kernels(const Workload& workload, double seconds_each);

}  // namespace livebench
