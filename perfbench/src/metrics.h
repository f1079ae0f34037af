// Turns round results into the reported metrics and prints the result line.

#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunSummary {
  uint64_t attempted = 0;
  uint64_t failed_f1 = 0;
  uint64_t failed_f2 = 0;
  std::vector<Metric> end_to_end;
};

RunSummary Summarize(const Workload& workload, const std::vector<RoundResult>& rounds,
                     const std::vector<double>& setup_s);

// Every per-layer metric, in BENCHMARK.json order; a layer the workload
// leaves idle reads 0.
std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const std::vector<RoundResult>& rounds);

// Prints {"correct": true, "attempted", "failed", "metrics"} as one line.
void PrintResult(const RunSummary& summary, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_
