// The privmark stack at five depths, behind one request interface.
//
// A workload is a script of wards (one session's lifetime each) whose
// requests are fed to a Lane — one caller's connection into one depth
// of the stack:
//
//   depth 1  service.net    DaemonClient -> PrivmarkDaemon over loopback
//   depth 2  service.wire   frame + table codec around an in-process
//                           PrivmarkService, the daemon's conversions
//   depth 3  service.queue  PrivmarkService (strand queue + admission)
//   depth 4  core.session   a bare ProtectionSession
//   depth 5  stages         the public stage functions the session
//                           composes (stage_lane.cc)
//
// The end-to-end run feeds one depth untraced; the traced run feeds the
// identical script at every depth in turn, records a root span per
// request at each depth plus spans around every layer call, and checks
// that every depth's outputs are byte-identical to the outermost one.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "metrics/usage_metrics.h"
#include "service/service.h"
#include "service/wire.h"
#include "trace.h"
#include "watermark/key_registry.h"

namespace perfbench {

using privmark::DetectReport;
using privmark::FingerprintReport;
using privmark::KeyRegistry;
using privmark::Status;
using privmark::Table;

enum class OpKind { kIngest, kFlush, kDetect, kFingerprint };

const char* OpKindName(OpKind kind);

/// \brief One request of a ward. Inputs are shared and generated before
/// timing; the registry travels pre-parsed (depths 3-5) and
/// pre-serialized (depths 1-2), as each surface takes it.
struct Op {
  OpKind kind = OpKind::kIngest;
  std::shared_ptr<const Table> table;
  std::shared_ptr<const KeyRegistry> registry;
  std::shared_ptr<const std::string> registry_text;
  /// Streamed fingerprint verdicts (kFingerprint only).
  bool stream = true;
};

/// \brief What one request returned, at any depth.
struct OpResult {
  /// Non-OK when the request failed or was refused (transport failures
  /// included).
  Status status;
  Table emitted;
  bool closed_epoch = false;
  size_t epoch = 0;
  std::vector<DetectReport> reports;
  /// Per epoch: the streamed shards' verdicts concatenated, plus the
  /// terminal report's ranking / keys_detected / collusion.
  std::vector<FingerprintReport> fingerprints;
  /// Send to the first streamed shard, in ns since the request began.
  int64_t first_shard_ns = -1;
  uint64_t threads_granted = 0;
};

/// \brief Counts recorded at the layer boundaries, summed per lane.
struct Counters {
  uint64_t frames = 0;
  uint64_t bytes_up = 0;
  uint64_t bytes_down = 0;
  uint64_t threads_granted = 0;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t rows_ingested = 0;
  uint64_t rows_encoded = 0;
  uint64_t rows_marked = 0;
  uint64_t rows_binned = 0;
  uint64_t rows_kept = 0;
  uint64_t candidates_considered = 0;
  uint64_t fsyncs = 0;
  uint64_t tally_key_rows = 0;
  uint64_t journal_bytes = 0;

  void Add(const Counters& other);
};

/// \brief Settings shared by every lane of one stack.
struct StackConfig {
  /// Owner of the domain hierarchies every session's metrics point at.
  const privmark::MedicalDataset* ontologies = nullptr;
  size_t thread_cap = 1;
  /// Worker width of a bare session's pool (depths 4-5): the grant the
  /// service gives the workload's sessions.
  size_t session_threads = 1;
  /// Journal directory; empty = unjournaled sessions.
  std::string journal_dir;
};

/// \brief The session configuration a daemon builds for an open request
/// (PrivmarkDaemon::ExecuteOpen's mapping), plus the usage metrics the
/// privmark CLI daemon's factory gives it.
privmark::FrameworkConfig FrameworkConfigFor(
    const privmark::WireOpenRequest& open);
privmark::SessionConfig SessionConfigFor(
    const privmark::WireOpenRequest& open);
privmark::Result<privmark::UsageMetrics> MetricsFor(
    const privmark::FrameworkConfig& config,
    const privmark::MedicalDataset& ontologies);

/// \brief Journal file of a session name under `dir` (names are chosen
/// from [A-Za-z0-9._-], which the service keeps as they are).
std::string JournalPath(const std::string& dir, const std::string& name);

/// \brief Counts a closed session's journal bytes and removes the file
/// (a long run must not fill the disk). No-op for an empty `dir`.
void RetireJournal(const std::string& dir, const std::string& name,
                   Counters* counters);

/// \brief One caller's connection into one depth. A lane may hold
/// several open sessions at once, addressed by slot.
class Lane {
 public:
  virtual ~Lane() = default;
  /// Opens a session configured as a daemon client's open request
  /// (every depth derives its FrameworkConfig from it).
  virtual Status Open(size_t slot, const std::string& name,
                      const privmark::WireOpenRequest& ward) = 0;
  /// Runs one request on the slot's session; records a root span at this
  /// depth's boundary and spans around the layer calls beneath it into
  /// `ctx`.
  virtual OpResult Run(size_t slot, const Op& op, const TraceCtx& ctx) = 0;
  virtual Status Close(size_t slot) = 0;
  const Counters& counters() const { return counters_; }
  void ResetCounters() { counters_ = Counters{}; }

 protected:
  Counters counters_;
};

/// \brief One depth's shared server side (a daemon, a service, or
/// nothing), handing out lanes.
class Stack {
 public:
  virtual ~Stack() = default;
  virtual privmark::Result<std::unique_ptr<Lane>> NewLane() = 0;
};

inline constexpr int kDepthNet = 1;
inline constexpr int kDepthWire = 2;
inline constexpr int kDepthQueue = 3;
inline constexpr int kDepthSession = 4;
inline constexpr int kDepthStages = 5;

/// Root span name of each depth ("service.net" ... "stages").
const char* DepthRootName(int depth);

privmark::Result<std::unique_ptr<Stack>> MakeStack(int depth,
                                                   const StackConfig& config);

/// Depth 5, in stage_lane.cc.
std::unique_ptr<Lane> MakeStageLane(const StackConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
