// Shared machinery of the GDN benchmark: benchmark-owned input generation,
// host measurement (time, allocations, RSS), in-memory tracing, and the
// Workload interface that main.cc runs.
//
// Inputs come from the benchmark's own generator, never from the program's
// util::Rng, so a change to the program cannot silently change its inputs.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.h"

namespace perfbench {

using globe::Bytes;

// ---------------------------------------------------------------------------
// Input generation

// splitmix64: small, fast, and fully specified here.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential inter-arrival gap with the given mean.
  double Exp(double mean);

 private:
  uint64_t state_;
};

// Deterministic 64-bit mix of two values (sub-seeds, content keys).
uint64_t Mix(uint64_t a, uint64_t b);
uint64_t Mix(uint64_t a, std::string_view s);

// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Gen* gen) const;

 private:
  std::vector<double> cdf_;
};

// The bytes the benchmark writes for (tag, version): a readable header naming
// both, then pseudo-random filler. Downloads are checked byte-for-byte
// against this.
Bytes Content(uint64_t seed, std::string_view tag, uint64_t version, size_t size);

// The version named in a body's header, or -1 if the header is not ours.
int64_t ContentVersion(const Bytes& body, std::string_view tag);

// ---------------------------------------------------------------------------
// Host measurement

// Heap allocations made through operator new in this process so far.
uint64_t Allocations();
double WallSeconds();          // steady clock
double ThreadCpuMicros();      // CPU time of the calling thread
double PeakRssMb();            // this process
double ChildrenPeakRssMb();    // largest waited-for child

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into the program, kept in
// memory and written as Chrome trace-event JSON at exit. Off unless enabled;
// when off, recording is a single branch.

struct Span {
  std::string name;
  std::string cat;      // layer: gdn, dns, gls, dso, sim, net, op
  double start_us = 0;  // virtual (sim) or monotonic (socket) start
  double end_us = 0;
  double cpu_us = 0;    // host CPU of the calling thread inside the span
  int64_t allocs = 0;   // allocation delta inside the span
  uint32_t tid = 0;     // lane in the trace viewer
};

class Tracer {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void Add(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }
  // Writes {"traceEvents": [...]} to `path`; returns false on I/O failure.
  bool WriteChrome(const std::string& path, const std::string& process_name) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

Tracer& Trace();

// Host cost of a synchronous stretch of work (e.g. one drained simulator
// step): CPU and allocations between construction and Stop().
class HostScope {
 public:
  HostScope() : cpu0_(ThreadCpuMicros()), allocs0_(Allocations()) {}
  void Stop() {
    cpu_us = ThreadCpuMicros() - cpu0_;
    allocs = static_cast<int64_t>(Allocations() - allocs0_);
  }
  double cpu_us = 0;
  int64_t allocs = 0;

 private:
  double cpu0_;
  uint64_t allocs0_;
};

// ---------------------------------------------------------------------------
// Rounds and workloads

// What one round of a workload measured. Latencies include failed operations
// at the time they were given up.
struct RoundResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed_f1 = 0;  // ephemeral port wrapped onto a live port
  uint64_t failed_f2 = 0;  // concurrent binds of one package not coalesced
  std::vector<double> latency_ms;
  uint64_t allocs = 0;     // heap allocations in the timed phase
  double net_bytes = 0;    // bytes carried by the transport
  double host_s = 0;       // host wall time of the timed phase
  uint64_t digest = 0;     // hash of every deterministic outcome of the round
  std::map<std::string, double> layer;  // per-layer metric values (traced runs)
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the world and loads its initial state. Timed as setup_s.
  virtual void Setup(uint64_t seed) = 0;
  // Runs round `round` and checks its outputs; a mismatch not attributable
  // to a named fault ends the process through Fail().
  virtual RoundResult RunRound(uint64_t round) = 0;
  // True: every round runs in a child forked from the set-up state, so round
  // r and round r + cycle() start identically and must measure identically.
  // False: rounds run in sequence in this process.
  virtual bool fork_rounds() const = 0;
  // True when latencies, bytes and allocations are functions of the inputs
  // alone (simulated time); they are then taken from the first cycle() rounds.
  virtual bool deterministic() const = 0;
  virtual size_t cycle() const = 0;
  virtual std::string engine() const = 0;
  virtual size_t shards() const { return 1; }
  // Per-layer values measured during setup (merged into the traced output).
  virtual std::map<std::string, double> SetupLayers() const { return {}; }
};

std::unique_ptr<Workload> MakeReleaseCrowd();
std::unique_ptr<Workload> MakeUpdateMix();
std::unique_ptr<Workload> MakeDirectoryStorm();
std::unique_ptr<Workload> MakeLiveLoopback();

// Reports a failed output check on stderr and exits with status 3.
[[noreturn]] void Fail(const char* format, ...) __attribute__((format(printf, 1, 2)));

// FNV-1a accumulation for RoundResult::digest.
inline uint64_t Fold(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}
constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
