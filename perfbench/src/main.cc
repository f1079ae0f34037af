// perfbench: one benchmark for the Globe Distribution Network.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>]
//
// Sets the workload up kSetupRepeats times (setup_s is their median), then
// runs whole rounds until --seconds of host time have passed and at least one
// full cycle of rounds is done. Prints a context line, then as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. End-to-end
// metrics are printed with --trace 0, per-layer metrics with --trace 1.
//
// Exit status: 0 on success, 2 on bad usage, 3 when an output check fails.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<release_crowd|update_mix|directory_storm|live_loopback> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] [--commit <id>]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "release_crowd") return MakeReleaseCrowd();
  if (name == "update_mix") return MakeUpdateMix();
  if (name == "directory_storm") return MakeDirectoryStorm();
  if (name == "live_loopback") return MakeLiveLoopback();
  Usage(("unknown workload " + name).c_str());
}

// ---- Child -> parent transfer of a round's result over a pipe.

void Put(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}
template <typename T>
void PutValue(std::string* out, T value) {
  Put(out, &value, sizeof(value));
}

std::string Encode(const RoundResult& r) {
  std::string out;
  PutValue(&out, r.attempted);
  PutValue(&out, r.completed);
  PutValue(&out, r.failed_f1);
  PutValue(&out, r.failed_f2);
  PutValue(&out, r.allocs);
  PutValue(&out, r.net_bytes);
  PutValue(&out, r.host_s);
  PutValue(&out, r.digest);
  PutValue(&out, static_cast<uint64_t>(r.latency_ms.size()));
  Put(&out, r.latency_ms.data(), r.latency_ms.size() * sizeof(double));
  PutValue(&out, static_cast<uint64_t>(r.layer.size()));
  for (const auto& [name, value] : r.layer) {
    PutValue(&out, static_cast<uint64_t>(name.size()));
    Put(&out, name.data(), name.size());
    PutValue(&out, value);
  }
  return out;
}

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}
  template <typename T>
  T Get() {
    T value{};
    Take(&value, sizeof(value));
    return value;
  }
  void Take(void* dst, size_t size) {
    if (pos_ + size > data_.size()) Fail("truncated round result from child");
    std::memcpy(dst, data_.data() + pos_, size);
    pos_ += size;
  }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

RoundResult Decode(const std::string& data) {
  Reader in(data);
  RoundResult r;
  r.attempted = in.Get<uint64_t>();
  r.completed = in.Get<uint64_t>();
  r.failed_f1 = in.Get<uint64_t>();
  r.failed_f2 = in.Get<uint64_t>();
  r.allocs = in.Get<uint64_t>();
  r.net_bytes = in.Get<double>();
  r.host_s = in.Get<double>();
  r.digest = in.Get<uint64_t>();
  r.latency_ms.resize(in.Get<uint64_t>());
  in.Take(r.latency_ms.data(), r.latency_ms.size() * sizeof(double));
  uint64_t layers = in.Get<uint64_t>();
  for (uint64_t i = 0; i < layers; ++i) {
    std::string name(in.Get<uint64_t>(), '\0');
    in.Take(name.data(), name.size());
    r.layer[name] = in.Get<double>();
  }
  return r;
}

void WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n <= 0) std::_Exit(4);
    done += static_cast<size_t>(n);
  }
}

// Runs `body` in a forked child and returns what it wrote to the pipe. The
// child's non-zero exit status (a failed check) is propagated.
template <typename Body>
std::string InChild(Body body) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) Fail("pipe: %s", std::strerror(errno));
  pid_t pid = fork();
  if (pid < 0) Fail("fork: %s", std::strerror(errno));
  if (pid == 0) {
    close(fds[0]);
    WriteAll(fds[1], body());
    close(fds[1]);
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(0);
  }
  close(fds[1]);
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::exit(WIFEXITED(status) ? WEXITSTATUS(status) : 5);
  }
  return data;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = Make(args.workload);
  if (args.trace) Trace().Enable();

  // ---- Setup, repeated: the first repeats run in children that exit, so the
  // process keeps one world and its process-global state (the ephemeral port
  // counter) is what a single setup leaves.
  std::vector<double> setup_s;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    std::string data = InChild([&] {
      std::unique_ptr<Workload> scratch = Make(args.workload);
      double t0 = WallSeconds();
      scratch->Setup(args.seed);
      double elapsed = WallSeconds() - t0;
      std::string out;
      PutValue(&out, elapsed);
      return out;
    });
    setup_s.push_back(Reader(data).Get<double>());
  }
  double t0 = WallSeconds();
  workload->Setup(args.seed);
  setup_s.push_back(WallSeconds() - t0);

  // ---- Timed phase: whole rounds.
  std::vector<RoundResult> rounds;
  double start = WallSeconds();
  for (uint64_t r = 0;; ++r) {
    if (r >= workload->cycle() && WallSeconds() - start >= args.seconds) break;
    RoundResult result;
    if (workload->fork_rounds()) {
      bool write_trace = args.trace && r == 0 && !args.trace_out.empty();
      result = Decode(InChild([&] {
        RoundResult child = workload->RunRound(r);
        if (write_trace && !Trace().WriteChrome(args.trace_out, args.workload)) {
          Fail("cannot write trace %s", args.trace_out.c_str());
        }
        return Encode(child);
      }));
      if (r >= workload->cycle() && workload->deterministic()) {
        const RoundResult& twin = rounds[r % workload->cycle()];
        if (result.digest != twin.digest || result.allocs != twin.allocs) {
          Fail("round %" PRIu64 " did not repeat round %" PRIu64
               " from the same state (digest %016" PRIx64 " vs %016" PRIx64
               ", allocs %" PRIu64 " vs %" PRIu64 ")",
               r, r % workload->cycle(), result.digest, twin.digest, result.allocs,
               twin.allocs);
        }
      }
    } else {
      result = workload->RunRound(r);
    }
    rounds.push_back(std::move(result));
  }
  if (args.trace && !workload->fork_rounds() && !args.trace_out.empty() &&
      !Trace().WriteChrome(args.trace_out, args.workload)) {
    Fail("cannot write trace %s", args.trace_out.c_str());
  }

  RunSummary summary = Summarize(*workload, rounds, setup_s);
  // ops_per_s is repeated here so a traced run (which prints per-layer
  // metrics only) still shows its throughput: the tracing overhead.
  std::printf(
      "context: {\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"cores\":%u,\"build_type\":\"%s\",\"engine\":\"%s\",\"shards\":%zu,"
      "\"commit\":\"%s\",\"traced\":%s,\"rounds\":%zu,\"cycle\":%zu,"
      "\"timed_s\":%.3f,\"ops_per_s\":%.6g,"
      "\"failures\":{\"F1\":%" PRIu64 ",\"F2\":%" PRIu64 ",\"other\":0}}\n",
      args.workload.c_str(), args.seed, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, workload->engine().c_str(), workload->shards(),
      args.commit.c_str(), args.trace ? "true" : "false", rounds.size(),
      workload->cycle(), WallSeconds() - start, summary.end_to_end[1].value,
      summary.failed_f1, summary.failed_f2);
  PrintResult(summary, args.trace ? LayerMetrics(*workload, rounds) : summary.end_to_end);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
