// Tests of the benchmark's statistics against hand-computed values.
//
//   python3 perfbench/run.py --test
//
// Exits 0 when every check holds, 1 otherwise. Checks stay active in every
// build type.

#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "perfbench/src/stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(expr) Check((expr), #expr, __LINE__)

bool Is(std::optional<double> got, double want) {
  return got.has_value() && std::fabs(*got - want) < 1e-12;
}

void NearestRankPercentiles() {
  using perfbench::Percentile;
  // Five samples, unsorted. Ranks: p0 -> 1 (clamped), p30 -> ceil(1.5) = 2,
  // p40 -> exactly 2, p50 -> ceil(2.5) = 3, p100 -> 5.
  std::vector<double> v = {40, 15, 50, 35, 20};
  CHECK(Is(Percentile(v, 0), 15));
  CHECK(Is(Percentile(v, 30), 20));
  CHECK(Is(Percentile(v, 40), 20));
  CHECK(Is(Percentile(v, 50), 35));
  CHECK(Is(Percentile(v, 100), 50));
  // An even count takes the lower middle sample: rank ceil(0.5 * 4) = 2.
  CHECK(Is(perfbench::Median({4, 1, 3, 2}), 2));
  CHECK(Is(perfbench::Median({7}), 7));
  CHECK(!Percentile({}, 50).has_value());
  // 0.99 * 1000 is 989.999... in binary; the rank must still be 990.
  CHECK(perfbench::NearestRank(99, 1000) == 990);
  CHECK(perfbench::NearestRank(99, 999) == 990);
  CHECK(perfbench::NearestRank(50, 3) == 2);
}

void TailNeedsTenBeyond() {
  using perfbench::SamplesBeyond;
  using perfbench::TailPercentile;
  // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  CHECK(SamplesBeyond(99, 1000) == 10);
  CHECK(Is(TailPercentile(thousand, 99), 990));
  // 999 samples: rank ceil(989.01) = 990, only 9 beyond: not reported.
  thousand.pop_back();
  CHECK(SamplesBeyond(99, 999) == 9);
  CHECK(!TailPercentile(thousand, 99).has_value());
  // 1100 samples: rank 1089, 11 beyond; values are 1..1100.
  std::vector<double> more;
  for (int i = 1100; i >= 1; --i) more.push_back(i);
  CHECK(Is(TailPercentile(more, 99), 1089));
  // The median of 39 samples has 19 beyond it and is reported.
  std::vector<double> few(39, 1.0);
  CHECK(Is(TailPercentile(few, 50), 1));
  CHECK(!TailPercentile({}, 99).has_value());
}

void PerOpNormalisation() {
  using perfbench::PerOp;
  using perfbench::Share;
  CHECK(Is(PerOp(1000, 8), 125));
  CHECK(Is(PerOp(3 * 1024.0, 3), 1024));
  CHECK(Is(PerOp(0, 5), 0));
  CHECK(!PerOp(5, 0).has_value());
  CHECK(Is(Share(3, 4), 0.75));
  CHECK(Share(1, 0) == 0);
}

}  // namespace

int main() {
  NearestRankPercentiles();
  TailNeedsTenBeyond();
  PerOpNormalisation();
  if (g_failures != 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
