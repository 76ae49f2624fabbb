// privmark_perfbench: runs one workload and prints its metrics.
//
//   privmark_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--out-dir <dir>] [--git-rev <rev>]
//                      [--source-sha1 <hex>]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up is
// repeated and its median reported, then the workload's lanes run closed
// loop for --seconds. --trace 1 feeds a fixed prefix of the same script
// at every depth of the stack (stack.h) with spans on, and derives the
// per-layer metrics by peeling. Either way every request's output is
// compared with its in-process reference, and the last stdout line is
// the JSON result. Any failed check exits non-zero.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using privmark::Result;

struct Args {
  std::string workload;
  uint64_t seed = 20050405;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string git_rev = "unknown";
  std::string source_sha1 = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else if (flag == "--source-sha1") {
      args->source_sha1 = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

enum class ReqClass { kIngest, kEpoch, kDetect, kScan };

// What one lane saw during one pass.
struct LaneRun {
  Outcomes ingest, epoch, detect, scan, first_verdict, session;
  uint64_t rows = 0;
  /// Rows per completed request and when it completed, for rows_per_s.
  std::vector<double> row_amounts, row_times;
  size_t epochs = 0;
  int64_t latency_ns = 0;
  /// Outputs that differ from their reference.
  std::vector<std::string> errors;
  /// The first few failed or refused requests, for stderr.
  std::vector<std::string> failures;
  /// Outputs whose reference is computed after the window: the expected
  /// digest's slot, the output's digest, and what it was.
  struct Pending {
    std::shared_ptr<std::string> expected;
    std::string actual;
    std::string what;
  };
  std::vector<Pending> pending;
  std::map<uint64_t, ReqClass> classes;  // request id -> class

  void Merge(const LaneRun& o) {
    for (auto [to, from] :
         {std::pair{&ingest, &o.ingest}, {&epoch, &o.epoch},
          {&detect, &o.detect}, {&scan, &o.scan},
          {&first_verdict, &o.first_verdict}, {&session, &o.session}}) {
      for (size_t i = 0; i < from->latencies().size(); ++i) {
        to->Record(from->latencies()[i], !std::isinf(from->latencies()[i]),
                   from->times()[i]);
      }
    }
    rows += o.rows;
    row_amounts.insert(row_amounts.end(), o.row_amounts.begin(),
                       o.row_amounts.end());
    row_times.insert(row_times.end(), o.row_times.begin(), o.row_times.end());
    epochs += o.epochs;
    latency_ns += o.latency_ns;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
    pending.insert(pending.end(), o.pending.begin(), o.pending.end());
    classes.insert(o.classes.begin(), o.classes.end());
  }

  size_t attempted() const {
    return ingest.attempted() + epoch.attempted() + detect.attempted() +
           scan.attempted() + session.attempted();
  }
  size_t failed() const {
    return ingest.failed() + epoch.failed() + detect.failed() +
           scan.failed() + session.failed();
  }
};

// One pass of a workload through one depth: the stack and its lanes
// (set-up), then the closed-loop run.
class Pass {
 public:
  Pass(const Workload& w, int depth, const std::string& journal_dir)
      : w_(w), depth_(depth) {
    config_ = w.stack;
    if (w.journaled) {
      ::mkdir(journal_dir.c_str(), 0755);
      config_.journal_dir = journal_dir;
    }
  }

  Status Start() {
    PRIVMARK_ASSIGN_OR_RETURN(stack_, MakeStack(depth_, config_));
    for (size_t l = 0; l < w_.lanes.size(); ++l) {
      PRIVMARK_ASSIGN_OR_RETURN(std::unique_ptr<Lane> lane, stack_->NewLane());
      lanes_.push_back(std::move(lane));
    }
    next_id_.assign(lanes_.size(), 0);
    return Status::OK();
  }

  // Untimed: every lane's setup script, then the first steps of lane 0's
  // first body, closing what they opened. Returns what those requests
  // did; their outputs are checked like any other.
  LaneRun WarmUp() {
    LaneRun warm;
    for (size_t l = 0; l < lanes_.size(); ++l) {
      for (const Step& step : w_.lanes[l].setup) {
        Execute(l, step, nullptr, &warm);
      }
    }
    const Script& first = w_.lanes[0].bodies[0];
    std::map<size_t, bool> open;
    for (size_t s = 0; s < std::min<size_t>(12, first.size()); ++s) {
      Execute(0, first[s], nullptr, &warm);
      if (first[s].kind == Step::Kind::kOpen) open[first[s].slot] = true;
      if (first[s].kind == Step::Kind::kClose) open.erase(first[s].slot);
    }
    for (const auto& [slot, unused] : open) {
      Step close;
      close.kind = Step::Kind::kClose;
      close.slot = slot;
      Execute(0, close, nullptr, &warm);
    }
    for (auto& lane : lanes_) lane->ResetCounters();
    return warm;
  }

  // Runs every lane concurrently: bodies (`bodies` of them, or until
  // `seconds` pass and min_epochs closed), then the epilogue.
  LaneRun Run(double seconds, size_t bodies, SpanLog* log) {
    std::vector<LaneRun> runs(lanes_.size());
    std::atomic<size_t> epochs{0};
    const int64_t start = NowNs();
    start_ns_ = start;
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t l = 0; l < lanes_.size(); ++l) {
      threads.emplace_back([&, l] {
        const LaneScript& script = w_.lanes[l];
        LaneRun& run = runs[l];
        for (size_t i = 0;; ++i) {
          if (bodies > 0 ? i >= bodies
                         : NowNs() >= deadline && epochs >= w_.min_epochs) {
            break;
          }
          const size_t before = run.epochs;
          for (const Step& step : script.bodies[i % script.bodies.size()]) {
            Execute(l, step, log, &run);
          }
          epochs += run.epochs - before;
        }
        for (const Step& step : script.epilogue) Execute(l, step, log, &run);
      });
    }
    for (std::thread& t : threads) t.join();
    elapsed_ns_ = NowNs() - start;
    LaneRun merged;
    for (const LaneRun& run : runs) merged.Merge(run);
    return merged;
  }

  int64_t elapsed_ns() const { return elapsed_ns_; }

  Counters counters() const {
    Counters sum;
    for (const auto& lane : lanes_) sum.Add(lane->counters());
    return sum;
  }

 private:
  void Execute(size_t l, const Step& step, SpanLog* log, LaneRun* run) {
    Lane* lane = lanes_[l].get();
    if (step.kind != Step::Kind::kRun) {
      const int64_t t0 = NowNs();
      const Status st =
          step.kind == Step::Kind::kOpen
              ? lane->Open(step.slot,
                           w_.name + "-d" + std::to_string(depth_) + "-l" +
                               std::to_string(l) + "-" +
                               std::to_string(names_++),
                           *step.ward)
              : lane->Close(step.slot);
      run->session.Record(static_cast<double>(NowNs() - t0) / 1e6, st.ok());
      if (!st.ok() && run->failures.size() < 4) {
        run->failures.push_back(st.ToString());
      }
      return;
    }
    const uint64_t id = (static_cast<uint64_t>(l) << 32) | next_id_[l]++;
    TraceCtx ctx;
    ctx.log = log;
    ctx.request = id;
    ctx.lane = static_cast<uint32_t>(l);
    const int64_t t0 = NowNs();
    const OpResult result = lane->Run(step.slot, step.op, ctx);
    const int64_t done = NowNs();
    const int64_t latency = done - t0;
    const double ms = static_cast<double>(latency) / 1e6;
    const double at = static_cast<double>(done - start_ns_) / 1e9;
    const bool ok = result.status.ok();
    run->latency_ns += latency;
    size_t rows = 0;

    ReqClass cls = ReqClass::kIngest;
    switch (step.op.kind) {
      case OpKind::kIngest:
      case OpKind::kFlush:
        cls = result.closed_epoch || step.op.kind == OpKind::kFlush
                  ? ReqClass::kEpoch
                  : ReqClass::kIngest;
        (cls == ReqClass::kEpoch ? run->epoch : run->ingest)
            .Record(ms, ok, at);
        if (ok && result.closed_epoch) ++run->epochs;
        if (ok && w_.rows == RowsCounted::kEmitted) {
          rows = result.emitted.num_rows();
        }
        break;
      case OpKind::kDetect:
        cls = ReqClass::kDetect;
        run->detect.Record(ms, ok, at);
        break;
      case OpKind::kFingerprint:
        cls = ReqClass::kScan;
        run->scan.Record(ms, ok, at);
        run->first_verdict.Record(
            static_cast<double>(result.first_shard_ns) / 1e6,
            ok && result.first_shard_ns >= 0, at);
        break;
    }
    if (ok && w_.rows == RowsCounted::kAudited &&
        (cls == ReqClass::kDetect || cls == ReqClass::kScan)) {
      rows = step.op.table->num_rows();
    }
    if (rows > 0) {
      run->rows += rows;
      run->row_amounts.push_back(static_cast<double>(rows));
      run->row_times.push_back(at);
    }
    run->classes[id] = cls;
    if (!ok) {
      if (run->failures.size() < 4) {
        run->failures.push_back(std::string(OpKindName(step.op.kind)) + ": " +
                                result.status.ToString());
      }
    } else {
      std::string digest = OutputDigest(step.op.kind, result);
      const std::string what = std::string(OpKindName(step.op.kind)) +
                               " output at depth " + std::to_string(depth_);
      if (step.expected->empty()) {
        run->pending.push_back({step.expected, std::move(digest), what});
      } else if (digest != *step.expected) {
        if (run->errors.size() < 8) {
          run->errors.push_back(what +
                                " differs from the in-process reference");
        }
      }
    }
  }

  const Workload& w_;
  const int depth_;
  StackConfig config_;
  std::unique_ptr<Stack> stack_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<size_t> names_{0};
  std::vector<uint64_t> next_id_;  // per lane; each lane thread owns its slot
  int64_t start_ns_ = 0;           // the measuring window's start
  int64_t elapsed_ns_ = 0;
};

// ---- reporting ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count and percentile actually reported
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The window is cut into sub-windows of about this many seconds; medians,
// rates and well-sampled tails are the median over them, so a slowdown of
// the host confined to fewer than half of them does not move a metric.
constexpr double kSubWindowSeconds = 3.0;

size_t SubWindows(double window_s) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(window_s / kSubWindowSeconds)));
}

Metric Median(const std::string& name, const Outcomes& o, double window_s) {
  const size_t windows = SubWindows(window_s);
  const PercentileStat p =
      WindowedMedian(o.latencies(), o.times(), window_s, windows);
  return {name, p.value, "ms",
          "median over " + std::to_string(p.windows) +
              " sub-windows of their p50, " + std::to_string(p.samples) +
              " samples"};
}

Metric Tail(const std::string& name, const Outcomes& o, double window_s) {
  const size_t windows = SubWindows(window_s);
  const PercentileStat p =
      WindowedTail(o.latencies(), o.times(), window_s, windows, 90.0);
  char buf[128];
  if (p.windows > 0) {
    std::snprintf(buf, sizeof(buf),
                  "median over %zu sub-windows of their p%.0f, %zu samples",
                  p.windows, p.percentile, p.samples);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f of %zu samples, %zu beyond",
                  p.percentile, p.samples, p.beyond);
  }
  return {name, p.value, "ms", buf};
}

struct Outcome {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
};

void Report(const Args& args, const Workload& w, const Outcome& outcome,
            const std::vector<Metric>& metrics,
            const std::vector<Metric>& extra) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("provenance: num_cpus=%u compiler=%s build=%s git=%s "
              "source_sha1=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, args.git_rev.c_str(),
              args.source_sha1.c_str());
  for (const auto* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  const Checks& c = w.checks;
  std::printf("checks: %zu epochs k-anonymous; %zu marks checked, %zu "
              "recovered exactly, %zu bits without votes (failures list "
              "bits decided wrong); owner detected on %zu/%zu own copies; "
              "attacked copies attributed %zu/%zu; second-owner copies "
              "attributed to the owner %zu/%zu; decoy detections %zu of %zu "
              "verdicts\n",
              c.epochs_checked, c.marks_checked, c.marks_exact,
              c.undecided_bits, c.owner_detected, c.owner_copies,
              c.attacked_owner_detected, c.attacked_copies,
              c.foreign_owner_detected, c.foreign_copies, c.decoy_detections,
              c.decoy_verdicts);
  for (const std::string& e : outcome.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";

  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string path = args.out_dir + "/result-" + args.workload + "-" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace) + ".txt";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "seed %llu\nnum_cpus %u\ncompiler %s\nbuild %s\ngit %s\n"
                    "source_sha1 %s\n",
                 static_cast<unsigned long long>(args.seed),
                 std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                 PERFBENCH_BUILD_TYPE, args.git_rev.c_str(),
                 args.source_sha1.c_str());
    for (const auto* list : {&metrics, &extra}) {
      for (const Metric& m : *list) {
        std::fprintf(f, "%s %s %s %s\n", m.name.c_str(),
                     FormatNumber(m.value).c_str(), m.unit.c_str(),
                     m.note.c_str());
      }
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
}

// The reference checks, once per run.
void CollectChecks(const Workload& w, Outcome* out) {
  for (const std::string& f : w.checks.failures) out->errors.push_back(f);
  // A sanity bound on the detector's false positives, not a test of its
  // rate: an unmarked key matches >= 16 of 20 mark bits by chance with
  // probability 0.59%, so more than 5% of decoy verdicts (and more than
  // 5 in all) detected means the detector is broken.
  const size_t decoy_limit = std::max<size_t>(
      5, static_cast<size_t>(0.05 *
                             static_cast<double>(w.checks.decoy_verdicts)));
  if (w.checks.decoy_detections > decoy_limit) {
    out->errors.push_back("decoy keys detected on " +
                          std::to_string(w.checks.decoy_detections) + " of " +
                          std::to_string(w.checks.decoy_verdicts) +
                          " verdicts, above " + std::to_string(decoy_limit));
  }
  out->correct = out->errors.empty();
}

// One pass's outputs and request outcomes. Call after the workload's
// deferred references ran.
void AddRun(const LaneRun& run, Outcome* out) {
  for (const std::string& e : run.errors) out->errors.push_back(e);
  size_t late_mismatches = 0;
  for (const LaneRun::Pending& p : run.pending) {
    if (p.expected->empty() || *p.expected != p.actual) {
      if (++late_mismatches <= 8) {
        out->errors.push_back(p.what +
                              " differs from the in-process reference");
      }
    }
  }
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "request failed: %s\n", f.c_str());
  }
  out->attempted += run.attempted();
  out->failed += run.failed();
  out->correct = out->errors.empty();
}

// ---- end-to-end run -----------------------------------------------------

int RunEndToEnd(const Args& args, const std::string& scratch) {
  constexpr int kSetups = 3;
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  std::unique_ptr<Pass> pass;
  LaneRun warm_run;
  for (int rep = 0; rep < kSetups; ++rep) {
    pass.reset();
    w.reset();
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<Workload>> built =
        BuildWorkload(args.workload, args.seed);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    w = std::move(*built);
    pass = std::make_unique<Pass>(*w, w->e2e_depth,
                                  scratch + "/journal-" + std::to_string(rep));
    const Status started = pass->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", started.ToString().c_str());
      return 1;
    }
    LaneRun warm = pass->WarmUp();
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (rep + 1 == kSetups) warm_run = std::move(warm);
  }

  const LaneRun run = pass->Run(args.seconds, 0, nullptr);
  const double window_s = static_cast<double>(pass->elapsed_ns()) / 1e9;
  const double peak_rss_mb = PeakRssMb();
  const Status finished = w->FinishReferences();
  if (!finished.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 finished.ToString().c_str());
    return 1;
  }

  std::vector<Metric> metrics;
  const PercentileStat setup = Percentile(setups, 50.0);
  metrics.push_back({"setup_s", setup.value, "s",
                     "median of " + std::to_string(setup.samples) +
                         " set-ups"});
  metrics.push_back(
      {"rows_per_s",
       WindowedRate(run.row_amounts, run.row_times, window_s,
                    SubWindows(window_s)),
       "1/s",
       "median over " + std::to_string(SubWindows(window_s)) +
           " sub-windows; " + std::to_string(run.rows) + " rows " +
           (w->rows == RowsCounted::kEmitted ? "emitted" : "audited") +
           " in " + FormatNumber(window_s) + " s"});
  metrics.push_back(Median("ingest_p50_ms", run.ingest, window_s));
  metrics.push_back(Tail("ingest_p90_ms", run.ingest, window_s));
  metrics.push_back(Median("epoch_p50_ms", run.epoch, window_s));
  metrics.push_back(Median("detect_p50_ms", run.detect, window_s));
  metrics.push_back(Tail("detect_p90_ms", run.detect, window_s));
  metrics.push_back(Median("scan_p50_ms", run.scan, window_s));
  metrics.push_back(Tail("scan_p90_ms", run.scan, window_s));
  metrics.push_back(
      Median("first_verdict_p50_ms", run.first_verdict, window_s));
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB",
                     "whole process, through the window"});

  Outcome outcome;
  CollectChecks(*w, &outcome);
  AddRun(warm_run, &outcome);
  AddRun(run, &outcome);
  std::vector<Metric> extra;
  extra.push_back({"error_rate",
                   outcome.attempted == 0
                       ? 0.0
                       : static_cast<double>(outcome.failed) /
                             static_cast<double>(outcome.attempted),
                   "ratio",
                   std::to_string(outcome.failed) + " failed of " +
                       std::to_string(outcome.attempted) +
                       " requests (in the result line's own fields)"});
  Report(args, *w, outcome, metrics, extra);
  pass.reset();
  return outcome.correct ? 0 : 1;
}

// ---- traced run ---------------------------------------------------------

struct DepthTrace {
  LaneRun run;
  Counters counters;
  int64_t total = 0;                         // sum of root spans
  std::map<uint64_t, int64_t> per_request;   // request -> root duration
  std::map<uint64_t, int64_t> children;      // request -> children union
  std::map<std::string, int64_t> by_name;    // span name -> summed duration
};

DepthTrace Analyze(int depth, const SpanLog& log, LaneRun run,
                   Counters counters) {
  DepthTrace t;
  t.run = std::move(run);
  t.counters = counters;
  const std::vector<Span> spans = log.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  const std::string root = DepthRootName(depth);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    if (s.parent < 0 && s.name == root) {
      t.total += dur;
      t.per_request[s.request] += dur;
      t.children[s.request] += dur - self[i];
    } else {
      t.by_name[s.name] += dur;
    }
  }
  return t;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

int RunTraced(const Args& args, const std::string& scratch) {
  Result<std::unique_ptr<Workload>> built =
      BuildWorkload(args.workload, args.seed);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  Workload& w = **built;
  const Status finished = w.FinishReferences();
  if (!finished.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 finished.ToString().c_str());
    return 1;
  }
  constexpr size_t kTraceBodies = 1;  // per lane, at every depth
  ::mkdir(args.out_dir.c_str(), 0755);

  Outcome outcome;
  CollectChecks(w, &outcome);
  // Untraced pass at the outermost depth, for the tracing overhead.
  int64_t untraced_ns = 0;
  {
    Pass pass(w, w.trace_depths[0], scratch + "/journal-untraced");
    const Status started = pass.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", started.ToString().c_str());
      return 1;
    }
    AddRun(pass.WarmUp(), &outcome);
    const LaneRun run = pass.Run(args.seconds, kTraceBodies, nullptr);
    untraced_ns = run.latency_ns;
    AddRun(run, &outcome);
  }

  std::map<int, DepthTrace> traces;
  for (int depth : w.trace_depths) {
    SpanLog log;
    Pass pass(w, depth, scratch + "/journal-d" + std::to_string(depth));
    const Status started = pass.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", started.ToString().c_str());
      return 1;
    }
    AddRun(pass.WarmUp(), &outcome);
    LaneRun run = pass.Run(args.seconds, kTraceBodies, &log);
    AddRun(run, &outcome);
    log.WriteJson(args.out_dir + "/trace-" + args.workload + "-" +
                  std::to_string(args.seed) + "-d" + std::to_string(depth) +
                  ".json");
    traces[depth] = Analyze(depth, log, std::move(run), pass.counters());
  }

  // Peel: every depth's total minus the depth below; the deepest program
  // layer (core.session) minus the stage calls made at depth 5.
  const DepthTrace& stages = traces.at(kDepthStages);
  int64_t stage_total = 0;
  for (const auto& [request, covered] : stages.children) {
    stage_total += covered;
  }
  std::vector<int> layers;
  std::vector<int64_t> totals;
  for (int depth : w.trace_depths) {
    if (depth == kDepthStages) continue;
    layers.push_back(depth);
    totals.push_back(traces.at(depth).total);
  }
  const Peel peel = PeelLayers(totals, stage_total);
  auto layer_self = [&](int depth) -> double {
    for (size_t i = 0; i < layers.size(); ++i) {
      if (layers[i] == depth) return Ms(peel.self[i]);
    }
    return 0.0;
  };
  auto stage_ms = [&](const char* name) -> double {
    auto it = stages.by_name.find(name);
    return it == stages.by_name.end() ? 0.0 : Ms(it->second);
  };
  auto depth_ms = [&](int depth, const char* name) -> double {
    auto t = traces.find(depth);
    if (t == traces.end()) return 0.0;
    auto it = t->second.by_name.find(name);
    return it == t->second.by_name.end() ? 0.0 : Ms(it->second);
  };
  auto depth_counters = [&](int depth) -> Counters {
    auto t = traces.find(depth);
    return t == traces.end() ? Counters{} : t->second.counters;
  };
  // core.session self time per request class: depth 4 minus its stages.
  const DepthTrace& session = traces.at(kDepthSession);
  std::map<ReqClass, int64_t> session_self;
  for (const auto& [request, dur] : session.per_request) {
    auto cls = session.run.classes.find(request);
    auto below = stages.children.find(request);
    if (cls == session.run.classes.end()) continue;
    session_self[cls->second] +=
        dur - (below == stages.children.end() ? 0 : below->second);
  }
  auto session_ms = [&](std::initializer_list<ReqClass> classes) {
    int64_t sum = 0;
    for (ReqClass c : classes) sum += session_self[c];
    return Ms(std::max<int64_t>(0, sum));
  };

  const Counters wire = depth_counters(kDepthWire);
  const Counters queue = depth_counters(kDepthQueue);
  const Counters outer = depth_counters(w.trace_depths[0]);
  const Counters& st = stages.counters;
  const double root_ns = static_cast<double>(totals.empty() ? 0 : totals[0]);
  const double traced_ns =
      static_cast<double>(traces.at(w.trace_depths[0]).run.latency_ns);
  const double tally_ms = stage_ms("watermark.tally");

  std::vector<Metric> m;
  auto add = [&m](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit, ""});
  };
  add("service.net_ms", layer_self(kDepthNet), "ms");
  add("service.wire_frames", static_cast<double>(wire.frames), "count");
  add("service.wire_encode_ms", depth_ms(kDepthWire, "wire.encode"), "ms");
  add("service.wire_decode_ms", depth_ms(kDepthWire, "wire.decode"), "ms");
  add("service.wire_bytes_up", static_cast<double>(wire.bytes_up), "bytes");
  add("service.wire_bytes_down", static_cast<double>(wire.bytes_down),
      "bytes");
  add("service.queue_wait_ms", layer_self(kDepthQueue), "ms");
  add("service.threads_granted",
      queue.requests == 0 ? 0.0
                          : static_cast<double>(queue.threads_granted) /
                                static_cast<double>(queue.requests),
      "threads");
  add("service.shed", static_cast<double>(outer.shed), "count");
  add("core.session_ingest_ms", session_ms({ReqClass::kIngest}), "ms");
  add("core.session_flush_ms", session_ms({ReqClass::kEpoch}), "ms");
  add("core.session_detect_ms",
      session_ms({ReqClass::kDetect, ReqClass::kScan}), "ms");
  add("hierarchy.encode_ms", stage_ms("hierarchy.encode"), "ms");
  add("hierarchy.rows_encoded", static_cast<double>(st.rows_encoded), "count");
  add("binning.count_ms", stage_ms("binning.count"), "ms");
  add("binning.select_ms", stage_ms("binning.select"), "ms");
  add("binning.loss_ms", stage_ms("binning.loss"), "ms");
  add("binning.materialize_ms", stage_ms("binning.materialize"), "ms");
  add("binning.candidates_considered",
      static_cast<double>(st.candidates_considered), "count");
  add("binning.keep_ratio",
      st.rows_binned == 0 ? 0.0
                          : static_cast<double>(st.rows_kept) /
                                static_cast<double>(st.rows_binned),
      "ratio");
  add("watermark.mark_ms", stage_ms("watermark.mark"), "ms");
  add("watermark.bandwidth_ms", stage_ms("watermark.bandwidth"), "ms");
  add("watermark.embed_ms", stage_ms("watermark.embed"), "ms");
  add("watermark.rows_marked", static_cast<double>(st.rows_marked), "count");
  add("watermark.index_ms", stage_ms("watermark.index"), "ms");
  add("watermark.tally_ms", tally_ms, "ms");
  add("watermark.tally_ns_per_key_row",
      st.tally_key_rows == 0
          ? 0.0
          : tally_ms * 1e6 / static_cast<double>(st.tally_key_rows),
      "ns");
  add("watermark.detect_ms", stage_ms("watermark.detect"), "ms");
  add("core.journal_append_ms", stage_ms("journal.append"), "ms");
  add("core.journal_sync_ms", stage_ms("journal.sync"), "ms");
  add("core.journal_fsyncs", static_cast<double>(st.fsyncs), "count");
  add("core.journal_bytes_per_row",
      st.rows_ingested == 0 ? 0.0
                            : static_cast<double>(st.journal_bytes) /
                                  static_cast<double>(st.rows_ingested),
      "bytes");
  add("trace.root_ms", Ms(static_cast<int64_t>(root_ns)), "ms");
  add("trace.unattributed_ms", Ms(peel.unattributed), "ms");
  add("trace.overhead_pct",
      untraced_ns == 0
          ? 0.0
          : 100.0 * (traced_ns - static_cast<double>(untraced_ns)) /
                static_cast<double>(untraced_ns),
      "%");

  std::vector<Metric> extra;
  for (int depth : w.trace_depths) {
    const DepthTrace& t = traces.at(depth);
    extra.push_back({std::string("depth") + std::to_string(depth) + "." +
                         DepthRootName(depth) + "_total_ms",
                     Ms(t.total), "ms",
                     std::to_string(t.per_request.size()) + " requests"});
  }
  Report(args, w, outcome, m, extra);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: privmark_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--git-rev <rev>] [--source-sha1 <hex>]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "error: privmark was built with assertions on (NDEBUG unset); "
               "refusing to publish numbers from a non-Release build\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "error: build type %s is not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string scratch = args.out_dir + "/scratch-" + args.workload +
                              "-" + std::to_string(::getpid());
  ::mkdir(scratch.c_str(), 0755);
  const int code = args.trace == 1 ? RunTraced(args, scratch)
                                   : RunEndToEnd(args, scratch);
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  return code;
}
