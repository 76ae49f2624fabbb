// Workload scripts, output digests, and the per-run measurements every
// workload reports.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchmath.h"
#include "stack.h"

namespace perfbench {

/// \brief One step of a lane's script.
struct Step {
  enum class Kind { kOpen, kRun, kClose };
  Kind kind = Kind::kRun;
  size_t slot = 0;
  std::shared_ptr<const privmark::WireOpenRequest> ward;  // kOpen
  Op op;                                   // kRun
  /// kRun: digest of the reference output this request must reproduce.
  /// Shared by every copy of the step; empty until the reference ran
  /// (audit verdicts are computed after the measuring window).
  std::shared_ptr<std::string> expected = std::make_shared<std::string>();
};
using Script = std::vector<Step>;

/// \brief One caller's script: `setup` runs untimed before the window
/// (part of set-up), then bodies are cycled until the measuring window
/// closes, then the epilogue.
struct LaneScript {
  Script setup;
  std::vector<Script> bodies;
  Script epilogue;
};

/// \brief Which rows rows_per_s counts.
enum class RowsCounted { kEmitted, kAudited };

/// \brief Facts about the reference outputs, checked after the run.
struct Checks {
  std::vector<std::string> failures;
  size_t epochs_checked = 0;
  size_t marks_checked = 0;
  size_t marks_exact = 0;
  size_t undecided_bits = 0;
  size_t owner_copies = 0;
  size_t owner_detected = 0;
  size_t decoy_verdicts = 0;
  size_t decoy_detections = 0;
  size_t attacked_copies = 0;
  size_t attacked_owner_detected = 0;
  size_t foreign_copies = 0;
  size_t foreign_owner_detected = 0;

  void Fail(std::string what) { failures.push_back(std::move(what)); }
};

/// \brief A generated workload: configuration, scripts with reference
/// digests, and the checks already run on the reference outputs.
struct Workload {
  std::string name;
  /// Depth the end-to-end run enters, and the depths the traced run
  /// peels, outermost first.
  int e2e_depth = kDepthNet;
  std::vector<int> trace_depths;
  StackConfig stack;
  bool journaled = false;
  std::vector<LaneScript> lanes;
  /// The window stays open until at least this many epochs closed.
  size_t min_epochs = 0;
  RowsCounted rows = RowsCounted::kEmitted;
  std::unique_ptr<privmark::MedicalDataset> ontologies;
  Checks checks;
  /// Reference outputs that are not inputs to any request (detect and
  /// fingerprint verdicts), computed after the window so they do not
  /// count as set-up. Each fills its steps' expected digests and runs
  /// its checks.
  std::vector<std::function<Status()>> deferred;

  /// Runs the deferred references once.
  Status FinishReferences();
};

/// Generates a workload's inputs from `seed` and computes in process the
/// reference outputs the inputs depend on (the rest is deferred).
privmark::Result<std::unique_ptr<Workload>> BuildWorkload(
    const std::string& name, uint64_t seed);

/// The known workload names.
const std::vector<std::string>& WorkloadNames();

/// \brief Digest of a request's output: the emitted table (ingest,
/// flush), the detect reports, or the fingerprint reports, each in its
/// lossless wire encoding.
std::string OutputDigest(OpKind kind, const OpResult& result);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// splitmix64 step: derives independent sub-seeds from the run's seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
