#include "perfbench/src/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "perfbench/src/stats.h"

namespace perfbench {

namespace {

// Per-layer metrics: name and unit, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& LayerCatalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"sim.events_per_op", "events/op"},
      {"sim.host_us_per_event", "us"},
      {"sim.msgs_per_op", "msgs/op"},
      {"sim.wan_kb_per_op", "KiB/op"},
      {"sim.parallel_window_share", "share"},
      {"gdn.http_hop_ms", "ms"},
      {"gdn.bind_share", "share"},
      {"gdn.duplicate_binds", "count"},
      {"gdn.rebinds", "count"},
      {"dns.resolve_ms_p50", "ms"},
      {"dns.resolver_hit_share", "share"},
      {"gls.lookup_ms_p50", "ms"},
      {"gls.hops_per_lookup", "hops"},
      {"gls.cache_hit_share", "share"},
      {"gls.insert_batch_ms_p50", "ms"},
      {"gls.store_evictions_per_op", "1/op"},
      {"gls.store_fault_ins_per_op", "1/op"},
      {"gls.spilled_kb", "KiB"},
      {"gls.register_s", "s"},
      {"gls.split_s", "s"},
      {"gls.total_entries_us", "us"},
      {"dso.bind_ms_p50", "ms"},
      {"dso.invoke_ms_p50", "ms"},
      {"dso.write_ms_p50", "ms"},
      {"dso.invoke_allocs", "allocs"},
      {"gos.replicas_created", "count"},
      {"sec.crypto_ms_per_op", "ms/op"},
      {"sec.handshakes_per_op", "1/op"},
      {"sec.frames_per_verify_batch", "frames"},
      {"net.frames_per_op", "frames/op"},
      {"net.wire_kb_per_op", "KiB/op"},
      {"net.connections_per_op", "1/op"},
      {"net.read_buf_swaps_per_op", "1/op"},
      {"walk.http_hop_share", "share"},
      {"walk.resolve_share", "share"},
      {"walk.lookup_share", "share"},
      {"walk.bind_share", "share"},
      {"walk.invoke_share", "share"},
      {"walk.unbind_share", "share"},
  };
  return catalog;
}

double Required(std::optional<double> value, const char* what) {
  if (!value.has_value()) Fail("%s is undefined for this run", what);
  return *value;
}

// The rounds whose latencies, bytes and allocations are reported: the first
// cycle for deterministic workloads (later rounds repeat it), all otherwise.
std::vector<const RoundResult*> SampleRounds(const Workload& workload,
                                             const std::vector<RoundResult>& rounds) {
  size_t n = workload.deterministic() ? std::min(workload.cycle(), rounds.size())
                                      : rounds.size();
  std::vector<const RoundResult*> sample;
  for (size_t i = 0; i < n; ++i) sample.push_back(&rounds[i]);
  return sample;
}

}  // namespace

RunSummary Summarize(const Workload& workload, const std::vector<RoundResult>& rounds,
                     const std::vector<double>& setup_s) {
  RunSummary summary;
  std::vector<double> rates;
  for (const RoundResult& r : rounds) {
    summary.attempted += r.attempted;
    summary.failed_f1 += r.failed_f1;
    summary.failed_f2 += r.failed_f2;
    if (r.host_s > 0) rates.push_back(static_cast<double>(r.completed) / r.host_s);
  }

  std::vector<double> latencies;
  uint64_t completed = 0;
  double allocs = 0;
  double net_bytes = 0;
  for (const RoundResult* r : SampleRounds(workload, rounds)) {
    latencies.insert(latencies.end(), r->latency_ms.begin(), r->latency_ms.end());
    completed += r->completed;
    allocs += static_cast<double>(r->allocs);
    net_bytes += r->net_bytes;
  }

  // Simulated latencies repeat exactly, so the first cycle's are pooled. Real
  // latencies take each round's percentile and the median over rounds, so a
  // burst of interference from other tenants moves one round, not the run.
  std::optional<double> p50 = Median(latencies);
  std::optional<double> p99 = TailPercentile(latencies, 99);
  if (!workload.deterministic()) {
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (const RoundResult& r : rounds) {
      p50s.push_back(Required(Median(r.latency_ms), "op_ms_p50"));
      p99s.push_back(
          Required(TailPercentile(r.latency_ms, 99), "op_ms_p99 (too few samples)"));
    }
    p50 = Median(p50s);
    p99 = Median(p99s);
  }

  summary.end_to_end = {
      {"setup_s", Required(Median(setup_s), "setup_s"), "s"},
      // The upper quartile of the rounds' throughputs: rounds that other
      // tenants of the host slowed down fall below it.
      {"ops_per_s", Required(Percentile(rates, 75), "ops_per_s"), "ops/s"},
      {"op_ms_p50", Required(p50, "op_ms_p50"), "ms"},
      {"op_ms_p99", Required(p99, "op_ms_p99 (too few samples)"), "ms"},
      {"allocs_per_op", Required(PerOp(allocs, completed), "allocs_per_op"), "allocs/op"},
      {"net_kb_per_op", Required(PerOp(net_bytes / 1024.0, completed), "net_kb_per_op"),
       "KiB/op"},
      {"peak_rss_mb", std::max(PeakRssMb(), ChildrenPeakRssMb()), "MiB"},
  };
  return summary;
}

std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const std::vector<RoundResult>& rounds) {
  std::map<std::string, double> setup = workload.SetupLayers();
  std::vector<const RoundResult*> sample = SampleRounds(workload, rounds);
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerCatalog()) {
    std::vector<double> values;
    for (const RoundResult* r : sample) {
      auto it = r->layer.find(name);
      if (it != r->layer.end()) values.push_back(it->second);
    }
    double value = 0;
    if (!values.empty()) {
      value = *Median(values);
    } else if (auto it = setup.find(name); it != setup.end()) {
      value = it->second;
    }
    out.push_back({name, value, unit});
  }
  return out;
}

void PrintResult(const RunSummary& summary, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              summary.attempted, summary.failed_f1 + summary.failed_f2);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
