#include "perfbench/src/bench.h"

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

// ---- Process-wide allocation counter: every operator new in the benchmark
// binary, the program's code included, passes through here.
namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t Gen::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Gen::Exp(double mean) { return -mean * std::log(1.0 - Unit()); }

uint64_t Mix(uint64_t a, uint64_t b) {
  Gen gen(a ^ (b * 0xff51afd7ed558ccdULL));
  gen.Next();
  return gen.Next();
}

uint64_t Mix(uint64_t a, std::string_view s) {
  uint64_t h = kDigestSeed;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix(a, h);
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Gen* gen) const {
  double u = gen->Unit();
  size_t lo = 0;
  size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Bytes Content(uint64_t seed, std::string_view tag, uint64_t version, size_t size) {
  std::string header =
      "perfbench " + std::string(tag) + " v" + std::to_string(version) + "\n";
  Bytes out(header.begin(), header.end());
  if (out.size() > size) size = out.size();
  out.resize(size);
  Gen gen(Mix(Mix(seed, tag), version));
  size_t i = header.size();
  while (i < size) {
    uint64_t word = gen.Next();
    for (int b = 0; b < 8 && i < size; ++b, ++i) {
      out[i] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

int64_t ContentVersion(const Bytes& body, std::string_view tag) {
  std::string prefix = "perfbench " + std::string(tag) + " v";
  if (body.size() < prefix.size() ||
      std::memcmp(body.data(), prefix.data(), prefix.size()) != 0) {
    return -1;
  }
  int64_t version = 0;
  size_t i = prefix.size();
  bool digits = false;
  for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
    version = version * 10 + (body[i] - '0');
    digits = true;
  }
  if (!digits || i >= body.size() || body[i] != '\n') return -1;
  return version;
}

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ChildrenPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Tracer& Trace() {
  static Tracer tracer;
  return tracer;
}

bool Tracer::WriteChrome(const std::string& path, const std::string& process_name) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (const Span& s : spans_) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"cpu_us\":%.3f,\"allocs\":%lld}}",
                 s.name.c_str(), s.cat.c_str(), s.tid, s.start_us,
                 s.end_us - s.start_us, s.cpu_us, static_cast<long long>(s.allocs));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

void Fail(const char* format, ...) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: check failed: ");
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fprintf(stderr, "\n");
  std::fflush(stderr);
  std::_Exit(3);
}

}  // namespace perfbench
