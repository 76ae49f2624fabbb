#include "benchmath.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p over n samples, clamped to [1, n].
size_t NearestRank(double p, size_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

PercentileStat AtRank(const std::vector<double>& sorted, size_t rank) {
  PercentileStat stat;
  stat.samples = sorted.size();
  stat.value = sorted[rank - 1];
  stat.percentile = 100.0 * static_cast<double>(rank) /
                    static_cast<double>(sorted.size());
  stat.beyond = sorted.size() - rank;
  return stat;
}

}  // namespace

PercentileStat Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return PercentileStat{};
  std::sort(samples.begin(), samples.end());
  PercentileStat stat = AtRank(samples, NearestRank(p, samples.size()));
  stat.percentile = p;
  return stat;
}

PercentileStat TailPercentile(std::vector<double> samples, double requested,
                              size_t min_beyond) {
  const size_t n = samples.size();
  if (n <= min_beyond) return Percentile(std::move(samples), 50.0);
  const size_t wanted = NearestRank(requested, n);
  if (n - wanted >= min_beyond) {
    return Percentile(std::move(samples), requested);
  }
  std::sort(samples.begin(), samples.end());
  return AtRank(samples, n - min_beyond);
}

void Outcomes::Record(double latency_ms, bool ok, double at_s) {
  times_.push_back(at_s);
  if (ok) {
    latencies_.push_back(latency_ms);
  } else {
    latencies_.push_back(std::numeric_limits<double>::infinity());
    ++failed_;
  }
}

namespace {

size_t WindowOf(double time, double span, size_t windows) {
  if (span <= 0.0 || time <= 0.0) return 0;
  const double slot = time / span * static_cast<double>(windows);
  return std::min(windows - 1, static_cast<size_t>(slot));
}

double MedianOf(std::vector<double> values) {
  return Percentile(std::move(values), 50.0).value;
}

std::vector<std::vector<double>> Cut(const std::vector<double>& values,
                                     const std::vector<double>& times,
                                     double span, size_t windows) {
  std::vector<std::vector<double>> cut(std::max<size_t>(1, windows));
  for (size_t i = 0; i < values.size(); ++i) {
    cut[WindowOf(times[i], span, cut.size())].push_back(values[i]);
  }
  return cut;
}

}  // namespace

PercentileStat WindowedMedian(const std::vector<double>& values,
                              const std::vector<double>& times, double span,
                              size_t windows) {
  std::vector<double> medians;
  for (std::vector<double>& window : Cut(values, times, span, windows)) {
    if (!window.empty()) medians.push_back(MedianOf(std::move(window)));
  }
  PercentileStat stat;
  stat.windows = medians.size();
  stat.value = MedianOf(std::move(medians));
  stat.percentile = 50.0;
  stat.samples = values.size();
  return stat;
}

PercentileStat WindowedTail(const std::vector<double>& values,
                            const std::vector<double>& times, double span,
                            size_t windows, double requested) {
  std::vector<double> tails;
  for (std::vector<double>& window : Cut(values, times, span, windows)) {
    if (window.empty()) continue;
    const PercentileStat tail = Percentile(std::move(window), requested);
    if (tail.beyond < kMinBeyond) return TailPercentile(values, requested);
    tails.push_back(tail.value);
  }
  if (tails.empty()) return TailPercentile(values, requested);
  PercentileStat stat;
  stat.windows = tails.size();
  stat.value = MedianOf(std::move(tails));
  stat.percentile = requested;
  stat.samples = values.size();
  stat.beyond = values.size() - static_cast<size_t>(std::ceil(
                                    requested / 100.0 * values.size() - 1e-9));
  return stat;
}

double WindowedRate(const std::vector<double>& amounts,
                    const std::vector<double>& times, double span,
                    size_t windows) {
  windows = std::max<size_t>(1, windows);
  std::vector<double> totals(windows, 0.0);
  for (size_t i = 0; i < amounts.size(); ++i) {
    totals[WindowOf(times[i], span, windows)] += amounts[i];
  }
  const double width = span / static_cast<double>(windows);
  return width > 0.0 ? MedianOf(std::move(totals)) / width : 0.0;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  for (auto& [begin, end] : intervals) {
    begin = std::clamp(begin, lo, hi);
    end = std::clamp(end, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [begin, end] : intervals) {
    const int64_t from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    self[i] = (span.end_ns - span.start_ns) -
              UnionLength(std::move(children[i]), span.start_ns, span.end_ns);
  }
  return self;
}

Peel PeelLayers(const std::vector<int64_t>& depth_totals,
                int64_t stage_total) {
  Peel peel;
  int64_t attributed = stage_total;
  for (size_t d = 0; d < depth_totals.size(); ++d) {
    const int64_t below =
        d + 1 < depth_totals.size() ? depth_totals[d + 1] : stage_total;
    peel.self.push_back(std::max<int64_t>(0, depth_totals[d] - below));
    attributed += peel.self.back();
  }
  const int64_t root = depth_totals.empty() ? stage_total : depth_totals[0];
  peel.unattributed = root - attributed;
  return peel;
}

}  // namespace perfbench
