// The benchmark's own arithmetic, kept apart from privmark so it can be
// tested on its own (tests/benchmath_test.cc):
//
//  - percentiles by nearest rank, with the tail rule: a tail metric
//    reports the highest percentile, at most the one it is named after,
//    that still has at least kMinBeyond samples beyond it;
//  - request outcomes: a failed or refused request counts as failed and
//    as a sample beyond every latency limit (+infinity);
//  - span self time: a span's duration minus the union of its direct
//    children's intervals;
//  - peeling: per-layer self times from the totals of the same request
//    sequence fed at successively deeper layers of the stack.

#ifndef PERFBENCH_BENCHMATH_H_
#define PERFBENCH_BENCHMATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr size_t kMinBeyond = 10;

/// \brief One reported percentile.
struct PercentileStat {
  /// The sample at the percentile's rank (+inf if that request failed).
  double value = 0.0;
  /// The percentile actually reported, in (0, 100].
  double percentile = 0.0;
  /// All samples the percentile was taken over.
  size_t samples = 0;
  /// Samples ranked strictly after the reported one.
  size_t beyond = 0;
  /// Sub-windows the value is the median over; 0 = taken over all
  /// samples at once.
  size_t windows = 0;
};

/// \brief Nearest-rank percentile: the sample of rank ceil(p / 100 * n)
/// in ascending order. Empty input gives samples == 0 and value 0.
PercentileStat Percentile(std::vector<double> samples, double p);

/// \brief Tail rule: the highest percentile <= `requested` with at least
/// `min_beyond` samples beyond it. With n samples that is `requested`
/// when it leaves enough beyond, else rank n - min_beyond. With too few
/// samples for any such percentile it falls back to the median, and the
/// printed sample count shows it.
PercentileStat TailPercentile(std::vector<double> samples, double requested,
                              size_t min_beyond = kMinBeyond);

/// \brief Request outcomes of one class of requests.
class Outcomes {
 public:
  /// Records one request that completed `at_s` seconds into the
  /// measuring window. A request that failed or was refused counts as
  /// failed and as a latency beyond every limit.
  void Record(double latency_ms, bool ok, double at_s = 0.0);

  size_t attempted() const { return latencies_.size(); }
  size_t failed() const { return failed_; }
  const std::vector<double>& latencies() const { return latencies_; }
  const std::vector<double>& times() const { return times_; }

 private:
  std::vector<double> latencies_;
  std::vector<double> times_;
  size_t failed_ = 0;
};

/// \brief Windowed median: [0, span) is cut into `windows` equal
/// sub-windows, each sample falls in the one containing its time, and
/// the result is the median over non-empty sub-windows of each one's
/// median. A slowdown confined to fewer than half of the sub-windows
/// does not move it. `samples` counts all samples.
PercentileStat WindowedMedian(const std::vector<double>& values,
                              const std::vector<double>& times, double span,
                              size_t windows);

/// \brief Windowed tail: when every non-empty sub-window holds enough
/// samples to report the `requested` percentile itself (kMinBeyond
/// beyond it), the median over sub-windows of that percentile; otherwise
/// TailPercentile over all samples. `percentile` tells which was taken:
/// the requested one, or the whole-run fallback's.
PercentileStat WindowedTail(const std::vector<double>& values,
                            const std::vector<double>& times, double span,
                            size_t windows, double requested);

/// \brief Windowed rate: the median over sub-windows (as above, empty
/// ones included) of the amounts that fell in each, per second.
double WindowedRate(const std::vector<double>& amounts,
                    const std::vector<double>& times, double span,
                    size_t windows);

/// \brief One recorded span. `parent` indexes the enclosing span in the
/// same vector, or is -1 for a root.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint32_t lane = 0;
};

/// \brief Length of the union of the intervals, each clipped to
/// [lo, hi].
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi);

/// \brief Self time of every span: its duration minus the part of its
/// interval that its direct children cover.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// \brief Peeled attribution, in nanoseconds. `depth_totals[d]` is the
/// total time of the same request sequence entered at depth d (0 = the
/// outermost layer, the root), and `stage_total` the time of the stage
/// calls made at the deepest depth. Layer d's self time is
/// depth_totals[d] minus the depth below (the deepest depth subtracts
/// `stage_total`), floored at 0.
/// Whatever the floors leave over is `unattributed`, so
/// sum(self) + stage_total + unattributed == depth_totals[0] exactly.
struct Peel {
  std::vector<int64_t> self;
  int64_t unattributed = 0;
};
Peel PeelLayers(const std::vector<int64_t>& depth_totals,
                int64_t stage_total);

}  // namespace perfbench

#endif  // PERFBENCH_BENCHMATH_H_
