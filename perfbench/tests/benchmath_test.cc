// Tests of the benchmark's own arithmetic: the tail-percentile rule,
// request outcomes, span self time, and peeled attribution.
//
// Run: ctest --test-dir <build>/perfbench (or the binary directly);
// exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <vector>

#include "benchmath.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT_TRUE(cond)                                            \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                           \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void TailPercentileKeepsRequestedWhenTenBeyond() {
  // 100 samples: p90 is rank 90, leaving exactly 10 beyond.
  const PercentileStat p90 = TailPercentile(OneTo(100), 90.0);
  EXPECT_TRUE(p90.value == 90.0);
  EXPECT_TRUE(p90.percentile == 90.0);
  EXPECT_TRUE(p90.samples == 100);
  EXPECT_TRUE(p90.beyond == 10);
}

void TailPercentileStepsDownToTenBeyond() {
  // 50 samples: p90 (rank 45) leaves 5 beyond; the highest percentile
  // with 10 beyond is rank 40 = p80.
  const PercentileStat tail = TailPercentile(OneTo(50), 90.0);
  EXPECT_TRUE(tail.value == 40.0);
  EXPECT_TRUE(tail.beyond == 10);
  EXPECT_TRUE(std::fabs(tail.percentile - 80.0) < 1e-9);
  EXPECT_TRUE(tail.samples == 50);
  // And no higher rank qualifies: rank 41 leaves only 9.
  EXPECT_TRUE(50 - 41 < kMinBeyond);
}

void TailPercentileFallsBackToMedianWhenTooFew() {
  const PercentileStat tail = TailPercentile(OneTo(7), 90.0);
  EXPECT_TRUE(tail.value == 4.0);
  EXPECT_TRUE(tail.samples == 7);
}

void PercentileIsNearestRankAndOrderFree() {
  const PercentileStat p50 = Percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 50.0);
  EXPECT_TRUE(p50.value == 3.0);
  EXPECT_TRUE(p50.beyond == 2);
  EXPECT_TRUE(Percentile({}, 50.0).samples == 0);
}

void RefusedRequestCountsAsFailedAndBeyondEveryLimit() {
  Outcomes outcomes;
  for (int i = 0; i < 9; ++i) outcomes.Record(1.0, true);
  outcomes.Record(0.5, false);  // refused fast, e.g. ResourceExhausted
  EXPECT_TRUE(outcomes.attempted() == 10);
  EXPECT_TRUE(outcomes.failed() == 1);
  const PercentileStat worst = Percentile(outcomes.latencies(), 100.0);
  EXPECT_TRUE(std::isinf(worst.value));
  // The refusal's own short latency never enters the samples.
  EXPECT_TRUE(Percentile(outcomes.latencies(), 10.0).value == 1.0);
}

void WindowedMedianIgnoresAMinorityOfSlowWindows() {
  // Six 5-second windows of 1 ms requests; two windows run 3x slower.
  std::vector<double> values, times;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 10; ++i) {
      values.push_back(w == 1 || w == 4 ? 3.0 : 1.0);
      times.push_back(w * 5.0 + i * 0.5);
    }
  }
  const PercentileStat windowed = WindowedMedian(values, times, 30.0, 6);
  EXPECT_TRUE(windowed.value == 1.0);
  EXPECT_TRUE(windowed.samples == 60);
  // Empty windows are skipped; a single window is the plain median.
  EXPECT_TRUE(WindowedMedian({4.0, 2.0, 9.0}, {1.0, 2.0, 3.0}, 30.0, 6).value
              == 4.0);
  EXPECT_TRUE(WindowedMedian({4.0, 2.0, 9.0}, {1.0, 2.0, 3.0}, 30.0, 1).value
              == 4.0);
}

void WindowedTailNeedsTenBeyondInEveryWindow() {
  // Three windows of 100 samples 1..100; one window is twice as slow.
  std::vector<double> values, times;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) {
      values.push_back(w == 2 ? 2.0 * i : i);
      times.push_back(w * 10.0 + i * 0.05);
    }
  }
  const PercentileStat tail = WindowedTail(values, times, 30.0, 3, 90.0);
  EXPECT_TRUE(tail.value == 90.0);
  EXPECT_TRUE(tail.percentile == 90.0);
  EXPECT_TRUE(tail.samples == 300);
  EXPECT_TRUE(tail.windows == 3);
  // Too few per window: the whole-run tail rule instead (50 samples,
  // rank 40 leaves 10 beyond).
  std::vector<double> few = OneTo(50), at(50);
  for (size_t i = 0; i < at.size(); ++i) at[i] = static_cast<double>(i);
  const PercentileStat whole = WindowedTail(few, at, 50.0, 5, 90.0);
  EXPECT_TRUE(whole.value == 40.0);
  EXPECT_TRUE(whole.beyond == 10);
  EXPECT_TRUE(whole.windows == 0);
}

void WindowedRateIsTheMedianWindowsRate() {
  // 100 rows a second, except one window that stalls.
  std::vector<double> rows, times;
  for (int s = 0; s < 30; ++s) {
    if (s >= 10 && s < 15) continue;
    rows.push_back(100.0);
    times.push_back(s + 0.5);
  }
  EXPECT_TRUE(WindowedRate(rows, times, 30.0, 6) == 100.0);
  // A sample at the very end of the span lands in the last window.
  EXPECT_TRUE(WindowedRate({60.0}, {30.0}, 30.0, 1) == 2.0);
}

void SelfTimeSubtractsUnionOfChildren() {
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1, 0};
  spans[1] = {"a", 10, 40, 0, 1, 0};
  spans[2] = {"b", 30, 60, 0, 1, 0};   // overlaps a: union is [10, 60)
  spans[3] = {"c", 50, 55, 2, 1, 0};   // grandchild: not root's child
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_TRUE(self[0] == 100 - 50);
  EXPECT_TRUE(self[1] == 30);
  EXPECT_TRUE(self[2] == 30 - 5);
  EXPECT_TRUE(self[3] == 5);
}

void SelfTimeClipsChildrenToParent() {
  std::vector<Span> spans(2);
  spans[0] = {"root", 100, 200, -1, 1, 0};
  spans[1] = {"late", 150, 260, 0, 1, 0};
  EXPECT_TRUE(SelfTimes(spans)[0] == 50);
  EXPECT_TRUE(UnionLength({{0, 10}, {5, 20}, {30, 40}}, 0, 100) == 30);
}

void PeeledSelfTimesAndUnattributedSumToRoot() {
  // Four depths and the stage calls beneath the deepest one.
  const std::vector<int64_t> totals = {1000, 700, 650, 400};
  const Peel peel = PeelLayers(totals, 300);
  EXPECT_TRUE(peel.self.size() == 4);
  EXPECT_TRUE(peel.self[0] == 300);
  EXPECT_TRUE(peel.self[1] == 50);
  EXPECT_TRUE(peel.self[2] == 250);
  EXPECT_TRUE(peel.self[3] == 100);
  EXPECT_TRUE(peel.unattributed == 0);
  int64_t sum = 300 + peel.unattributed;
  for (int64_t s : peel.self) sum += s;
  EXPECT_TRUE(sum == totals[0]);
}

void PeelFloorsNegativeLayersIntoUnattributed() {
  // Depth 2 measured slower than depth 1: its layer floors at 0 and the
  // excess shows as negative unattributed time, never hidden.
  const std::vector<int64_t> totals = {500, 600, 200};
  const Peel peel = PeelLayers(totals, 150);
  EXPECT_TRUE(peel.self[0] == 0);
  EXPECT_TRUE(peel.self[1] == 400);
  EXPECT_TRUE(peel.self[2] == 50);
  EXPECT_TRUE(peel.unattributed == -100);
  int64_t sum = 150 + peel.unattributed;
  for (int64_t s : peel.self) sum += s;
  EXPECT_TRUE(sum == totals[0]);
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TailPercentileKeepsRequestedWhenTenBeyond();
  TailPercentileStepsDownToTenBeyond();
  TailPercentileFallsBackToMedianWhenTooFew();
  PercentileIsNearestRankAndOrderFree();
  RefusedRequestCountsAsFailedAndBeyondEveryLimit();
  WindowedMedianIgnoresAMinorityOfSlowWindows();
  WindowedTailNeedsTenBeyondInEveryWindow();
  WindowedRateIsTheMedianWindowsRate();
  SelfTimeSubtractsUnionOfChildren();
  SelfTimeClipsChildrenToParent();
  PeeledSelfTimesAndUnattributedSumToRoot();
  PeelFloorsNegativeLayersIntoUnattributed();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_math_test: all passed\n");
  return 0;
}
