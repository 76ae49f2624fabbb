// The three workloads. Each is generated from the run's seed, and its
// reference outputs are computed in process before timing: every request
// of every script carries the digest of the output it must reproduce,
// and the reference outputs are checked here for privacy and ownership.
//
//  stream_protect  hospital feeds over the daemon: 2 connections, wards of
//                  10k rows (a 2k initial load in 500-row batches, flush,
//                  the rest in 100-row batches), each ending with the
//                  hospital auditing its own copy (kDetect + a streamed
//                  kFingerprint against its key and 7 decoys).
//  audit_scan      an owner publishes seeded row subsets (1k, 2k, 5k,
//                  10k, 20k) of a 20k-row stream and a second owner publishes
//                  its own, then the owner audits suspects — its copies,
//                  attacked copies, the second owner's copies — with
//                  kDetect and a streamed kFingerprint against a 64-key
//                  registry, one request in flight, publishing a fresh
//                  1000-row subset every fifth suspect.
//  drift_rebin     in-process service, joint binning, kRebinOnDrift: 20k
//                  wards in 1000-row batches re-bin at every drift epoch,
//                  each ward ending with an audit of its copy.

#include <algorithm>
#include <thread>
#include <utility>

#include "attack/attacks.h"
#include "common/random.h"
#include "harness.h"
#include "metrics/privacy.h"
#include "watermark/ownership.h"

namespace perfbench {

using privmark::BitVector;
using privmark::MedicalDataSpec;
using privmark::MedicalDataset;
using privmark::NamedKey;
using privmark::Random;
using privmark::Result;
using privmark::WireOpenRequest;

namespace {

constexpr uint64_t kK = 20;

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

std::shared_ptr<const Table> Share(Table table) {
  return std::make_shared<const Table>(std::move(table));
}

Step OpenStep(size_t slot, WireOpenRequest ward) {
  Step step;
  step.kind = Step::Kind::kOpen;
  step.slot = slot;
  step.ward = std::make_shared<const WireOpenRequest>(std::move(ward));
  return step;
}

Step CloseStep(size_t slot) {
  Step step;
  step.kind = Step::Kind::kClose;
  step.slot = slot;
  return step;
}

Step RunStep(size_t slot, OpKind kind, std::shared_ptr<const Table> table) {
  Step step;
  step.slot = slot;
  step.op.kind = kind;
  step.op.table = std::move(table);
  return step;
}

// A registry shared by the scan requests: pre-parsed and pre-serialized.
struct SharedRegistry {
  std::shared_ptr<const KeyRegistry> registry;
  std::shared_ptr<const std::string> text;
};

Result<SharedRegistry> MakeRegistry(const NamedKey& owner, size_t decoys,
                                    Random* rng) {
  KeyRegistry registry;
  PRIVMARK_RETURN_NOT_OK(registry.Add(owner));
  for (size_t i = 0; i < decoys; ++i) {
    PRIVMARK_RETURN_NOT_OK(registry.Add(privmark::GenerateKey(
        "decoy-" + std::to_string(i), owner.key.eta, rng)));
  }
  SharedRegistry shared;
  shared.text = std::make_shared<const std::string>(registry.Serialize());
  shared.registry = std::make_shared<const KeyRegistry>(std::move(registry));
  return shared;
}

Step ScanStep(size_t slot, std::shared_ptr<const Table> suspect,
              const SharedRegistry& registry) {
  Step step = RunStep(slot, OpKind::kFingerprint, std::move(suspect));
  step.op.registry = registry.registry;
  step.op.registry_text = registry.text;
  step.op.stream = true;
  return step;
}

WireOpenRequest OpenFor(const NamedKey& key, const std::string& passphrase,
                        bool joint, uint64_t threads, bool drift,
                        bool auto_epsilon = false) {
  WireOpenRequest open;
  open.k = kK;
  open.enforce_joint = joint;
  open.auto_epsilon = auto_epsilon;
  open.num_threads = threads;
  open.passphrase = passphrase;
  open.k1 = key.key.k1;
  open.k2 = key.key.k2;
  open.eta = key.key.eta;
  open.key_id = key.name;
  open.on_unbinnable = 1;
  open.policy = drift ? 1 : 0;
  open.drift_threshold = 0.5;
  return open;
}

void AppendRows(const Table& from, Table* to) {
  for (size_t r = 0; r < from.num_rows(); ++r) (void)to->AppendRow(from.row(r));
}

Result<Table> Generate(size_t rows, uint64_t seed) {
  MedicalDataSpec spec;
  spec.num_rows = rows;
  spec.seed = seed;
  PRIVMARK_ASSIGN_OR_RETURN(MedicalDataset data,
                            privmark::GenerateMedicalDataset(spec));
  return std::move(data.table);
}

// Protect requests of one stream: `initial` rows in `initial_batch`
// batches, a flush, then the rest in `batch`-row batches (a drift
// session closes epochs on its own along the way), and a closing flush
// when `final_flush`.
void AddProtectSteps(size_t slot, const Table& rows, size_t initial,
                     size_t initial_batch, size_t batch, bool final_flush,
                     Script* script) {
  for (size_t b = 0; b < initial; b += initial_batch) {
    script->push_back(RunStep(
        slot, OpKind::kIngest,
        Share(rows.Slice(b, std::min(initial, b + initial_batch)))));
  }
  script->push_back(RunStep(slot, OpKind::kFlush, nullptr));
  for (size_t b = initial; b < rows.num_rows(); b += batch) {
    script->push_back(RunStep(
        slot, OpKind::kIngest,
        Share(rows.Slice(b, std::min(rows.num_rows(), b + batch)))));
  }
  if (final_flush) script->push_back(RunStep(slot, OpKind::kFlush, nullptr));
}

// An in-process reference stack and its one lane (destroyed lane first).
// It owns the config its stack and lane refer to.
struct Reference {
  StackConfig config;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Lane> lane;
  size_t sessions = 0;

  ~Reference() { lane.reset(); }

  static Result<std::shared_ptr<Reference>> Make(int depth,
                                                 const StackConfig& config) {
    auto ref = std::make_shared<Reference>();
    ref->config = config;
    PRIVMARK_ASSIGN_OR_RETURN(ref->stack, MakeStack(depth, ref->config));
    PRIVMARK_ASSIGN_OR_RETURN(ref->lane, ref->stack->NewLane());
    return ref;
  }

  // Runs script steps, filling every run step's expected digest and
  // collecting its result. Slots are offset by `slot_base`, so scripts
  // that all use slot 0 can stay open side by side.
  Status Run(const Script& steps, size_t slot_base,
             std::vector<OpResult>* results) {
    for (const Step& step : steps) {
      const size_t slot = slot_base + step.slot;
      switch (step.kind) {
        case Step::Kind::kOpen:
          PRIVMARK_RETURN_NOT_OK(lane->Open(
              slot, "reference-" + std::to_string(sessions++), *step.ward));
          break;
        case Step::Kind::kClose:
          PRIVMARK_RETURN_NOT_OK(lane->Close(slot));
          break;
        case Step::Kind::kRun: {
          OpResult result = lane->Run(slot, step.op, TraceCtx{});
          PRIVMARK_RETURN_NOT_OK(result.status);
          *step.expected = OutputDigest(step.op.kind, result);
          results->push_back(std::move(result));
          break;
        }
      }
    }
    return Status::OK();
  }
};

// What one protected stream's reference produced: per-epoch emitted
// tables and the marks its inputs imply.
struct StreamFacts {
  std::vector<Table> epochs;
  std::vector<BitVector> marks;
  Table copy;
};

// Follows a stream's requests and results: emitted rows go to their
// epoch; every epoch's mark is derived from the rows buffered for it
// (Sec. 5.4: the identifier statistic of the epoch's own rows),
// independently of the program's epoch records.
class EpochTracker {
 public:
  explicit EpochTracker(bool drift) : drift_(drift) {}

  Status Observe(const Step& step, const OpResult& result,
                 StreamFacts* facts) {
    if (step.op.kind == OpKind::kIngest && (drift_ || facts->marks.empty())) {
      buffered_.push_back(step.op.table);
    }
    if (result.closed_epoch) {
      Table buffer(privmark::MedicalSchema());
      for (const auto& batch : buffered_) AppendRows(*batch, &buffer);
      buffered_.clear();
      PRIVMARK_ASSIGN_OR_RETURN(size_t ident,
                                buffer.schema().IdentifyingColumn());
      PRIVMARK_ASSIGN_OR_RETURN(double v,
                                privmark::StatisticFromTable(buffer, ident));
      PRIVMARK_ASSIGN_OR_RETURN(
          BitVector mark,
          privmark::DeriveOwnershipMark(v, 20, privmark::HashAlgorithm::kSha1));
      facts->marks.push_back(std::move(mark));
    }
    if (step.op.kind == OpKind::kIngest || step.op.kind == OpKind::kFlush) {
      while (facts->epochs.size() <= result.epoch) {
        facts->epochs.emplace_back(privmark::MedicalSchema());
      }
      AppendRows(result.emitted, &facts->epochs[result.epoch]);
      AppendRows(result.emitted, &facts->copy);
    }
    return Status::OK();
  }

 private:
  const bool drift_;
  std::vector<std::shared_ptr<const Table>> buffered_;
};

void CheckKAnonymity(const std::string& what, const StreamFacts& facts,
                     bool joint, Checks* checks) {
  const std::vector<size_t> qi =
      privmark::MedicalSchema().QuasiIdentifyingColumns();
  for (size_t e = 0; e < facts.epochs.size(); ++e) {
    const Table& epoch = facts.epochs[e];
    if (epoch.num_rows() == 0) continue;
    ++checks->epochs_checked;
    std::vector<std::vector<size_t>> groups;
    if (joint) {
      groups.push_back(qi);
    } else {
      for (size_t c : qi) groups.push_back({c});
    }
    for (const auto& columns : groups) {
      Result<privmark::PrivacyReport> report =
          privmark::EvaluatePrivacy(epoch, columns);
      if (!report.ok() || report->k_anonymity_level < kK) {
        checks->Fail(what + " epoch " + std::to_string(e) +
                     " is not k-anonymous at k=" + std::to_string(kK));
        break;
      }
    }
  }
}

// Every mark bit the detector decided (a non-zero vote margin) on an
// unattacked copy must equal the embedded bit. Bits no selected tuple
// voted on are capacity, not error: an epoch of a few hundred marked
// tuples can leave some of its 20 bits without a vote. They are counted,
// and so are epochs recovered exactly.
void CheckMarks(const std::string& what, const std::vector<BitVector>& marks,
                const OpResult& detect, Checks* checks) {
  if (detect.reports.size() != marks.size()) {
    checks->Fail(what + ": detect returned " +
                 std::to_string(detect.reports.size()) + " epochs, expected " +
                 std::to_string(marks.size()));
    return;
  }
  for (size_t e = 0; e < marks.size(); ++e) {
    const DetectReport& report = detect.reports[e];
    ++checks->marks_checked;
    if (report.recovered == marks[e]) ++checks->marks_exact;
    for (size_t b = 0; b < marks[e].size(); ++b) {
      if (report.vote_margin.at(b) == 0.0) {
        ++checks->undecided_bits;
      } else if (report.recovered.Get(b) != marks[e].Get(b)) {
        checks->Fail(what + " epoch " + std::to_string(e) + " bit " +
                     std::to_string(b) +
                     ": the detector decided it against the embedded mark");
      }
    }
  }
}

// Owner verdicts on one scanned copy; decoys are tallied for every copy.
// Returns how many epochs detected the owner.
size_t TallyVerdicts(const std::string& owner, const OpResult& scan,
                     Checks* checks) {
  size_t owner_epochs = 0;
  for (const FingerprintReport& report : scan.fingerprints) {
    for (const privmark::KeyVerdict& verdict : report.verdicts) {
      if (verdict.key_name == owner) {
        if (verdict.detected) ++owner_epochs;
      } else {
        ++checks->decoy_verdicts;
        if (verdict.detected) ++checks->decoy_detections;
      }
    }
  }
  return owner_epochs;
}

// ---- stream_protect / drift_rebin --------------------------------------

struct ProtectShape {
  size_t lanes;
  size_t wards_per_lane;
  size_t ward_rows;
  size_t initial;
  size_t initial_batch;
  size_t batch;
  bool joint;
  bool drift;
  bool auto_epsilon;
  uint64_t eta;
  uint64_t session_threads;  // the open request's num_threads knob
  size_t decoys;
};

Status BuildProtect(const ProtectShape& shape, uint64_t seed, Workload* w) {
  StackConfig ref_config = w->stack;
  ref_config.session_threads = 1;  // serial replay
  ref_config.journal_dir.clear();
  PRIVMARK_ASSIGN_OR_RETURN(std::shared_ptr<Reference> ref,
                            Reference::Make(kDepthSession, ref_config));
  size_t ward_index = 0;

  w->lanes.resize(shape.lanes);
  for (size_t l = 0; l < shape.lanes; ++l) {
    for (size_t i = 0; i < shape.wards_per_lane; ++i) {
      const uint64_t ward_seed = Mix(seed, 1000 * (l + 1) + i);
      const std::string tag = w->name + "-l" + std::to_string(l) + "-w" +
                              std::to_string(i);
      Random keys(Mix(ward_seed, 1));
      const NamedKey owner =
          privmark::GenerateKey("hospital-" + std::to_string(l) + "-" +
                                    std::to_string(i),
                                shape.eta, &keys);
      PRIVMARK_ASSIGN_OR_RETURN(SharedRegistry registry,
                                MakeRegistry(owner, shape.decoys, &keys));
      PRIVMARK_ASSIGN_OR_RETURN(Table rows,
                                Generate(shape.ward_rows, Mix(ward_seed, 2)));

      Script ward;
      ward.push_back(OpenStep(
          0, OpenFor(owner, tag + "-pass", shape.joint, shape.session_threads,
                     shape.drift, shape.auto_epsilon)));
      AddProtectSteps(0, rows, shape.initial, shape.initial_batch,
                      shape.batch, shape.drift, &ward);

      const size_t slot_base = ward_index++;
      std::vector<OpResult> results;
      PRIVMARK_RETURN_NOT_OK(ref->Run(ward, slot_base, &results));
      StreamFacts facts;
      facts.copy = Table(privmark::MedicalSchema());
      EpochTracker tracker(shape.drift);
      for (size_t s = 1; s < ward.size(); ++s) {
        PRIVMARK_RETURN_NOT_OK(
            tracker.Observe(ward[s], results[s - 1], &facts));
      }

      CheckKAnonymity(tag, facts, shape.joint, &w->checks);

      // The hospital audits the copy it published, then closes the ward.
      auto copy = Share(std::move(facts.copy));
      const Script audit = {RunStep(0, OpKind::kDetect, copy),
                            ScanStep(0, copy, registry), CloseStep(0)};
      ward.insert(ward.end(), audit.begin(), audit.end());
      w->deferred.push_back([w, ref, audit, slot_base, tag,
                             marks = std::move(facts.marks),
                             owner_name = owner.name]() -> Status {
        std::vector<OpResult> verdicts;
        PRIVMARK_RETURN_NOT_OK(ref->Run(audit, slot_base, &verdicts));
        CheckMarks(tag, marks, verdicts[0], &w->checks);
        ++w->checks.owner_copies;
        if (TallyVerdicts(owner_name, verdicts[1], &w->checks) ==
            marks.size()) {
          ++w->checks.owner_detected;
        } else {
          w->checks.Fail(tag + ": owner key not detected in every epoch");
        }
        return Status::OK();
      });
      w->lanes[l].bodies.push_back(std::move(ward));
    }
  }
  return Status::OK();
}

// ---- audit_scan --------------------------------------------------------

Status BuildAudit(uint64_t seed, Workload* w) {
  // Five sizes, one fifth of the suspects each: the median falls inside
  // the 5k class and the 90th percentile inside the 20k class, never on a
  // boundary between two.
  const std::vector<size_t> sizes = {1000, 2000, 5000, 10000, 20000};
  constexpr uint64_t kAuditEta = 10;
  constexpr size_t kPublishSlot = 100;
  Random keys(Mix(seed, 11));
  const NamedKey owner = privmark::GenerateKey("owner", kAuditEta, &keys);
  const NamedKey second =
      privmark::GenerateKey("second-owner", kAuditEta, &keys);
  PRIVMARK_ASSIGN_OR_RETURN(SharedRegistry registry,
                            MakeRegistry(owner, 63, &keys));
  PRIVMARK_ASSIGN_OR_RETURN(Table owner_rows, Generate(20000, Mix(seed, 12)));
  PRIVMARK_ASSIGN_OR_RETURN(Table second_rows, Generate(25000, Mix(seed, 13)));
  const WireOpenRequest owner_ward =
      OpenFor(owner, "owner-pass", false, 0, false, /*auto_epsilon=*/true);
  const WireOpenRequest second_ward =
      OpenFor(second, "second-pass", false, 0, false, /*auto_epsilon=*/true);
  Random pick(Mix(seed, 14));
  auto subset_of_owner = [&](size_t rows) {
    std::vector<size_t> order = pick.Permutation(owner_rows.num_rows());
    order.resize(rows);
    std::sort(order.begin(), order.end());
    Table subset(owner_rows.schema());
    for (size_t r : order) (void)subset.AppendRow(owner_rows.row(r));
    return subset;
  };

  // Set-up: the owner publishes its subsets through the daemon (slots
  // 0..4, 1000-row batches). The second owner's copies, a quarter longer
  // so each can stand in for a same-size copy, are only suspect inputs:
  // they are protected in process.
  LaneScript lane;
  for (size_t i = 0; i < sizes.size(); ++i) {
    lane.setup.push_back(OpenStep(i, owner_ward));
    AddProtectSteps(i, subset_of_owner(sizes[i]), 1000, 1000, 1000, false,
                    &lane.setup);
  }
  Script second_script;
  for (size_t i = 0; i < sizes.size(); ++i) {
    second_script.push_back(OpenStep(i, second_ward));
    AddProtectSteps(i, second_rows.Slice(0, sizes[i] * 5 / 4), 1000, 1000,
                    1000, false, &second_script);
    second_script.push_back(CloseStep(i));
  }

  // Reference: an in-process service.
  PRIVMARK_ASSIGN_OR_RETURN(std::shared_ptr<Reference> ref,
                            Reference::Make(kDepthQueue, w->stack));
  std::vector<StreamFacts> facts(2 * sizes.size());
  for (StreamFacts& f : facts) f.copy = Table(privmark::MedicalSchema());
  for (size_t half = 0; half < 2; ++half) {
    const Script& script = half == 0 ? lane.setup : second_script;
    const size_t base = half * sizes.size();
    std::vector<OpResult> published;
    PRIVMARK_RETURN_NOT_OK(ref->Run(script, base, &published));
    std::vector<EpochTracker> trackers(sizes.size(), EpochTracker(false));
    size_t next = 0;
    for (const Step& step : script) {
      if (step.kind != Step::Kind::kRun) continue;
      PRIVMARK_RETURN_NOT_OK(trackers[step.slot].Observe(
          step, published[next++], &facts[base + step.slot]));
    }
  }
  for (size_t i = 0; i < sizes.size(); ++i) {
    CheckKAnonymity("owner subset " + std::to_string(sizes[i]), facts[i],
                    false, &w->checks);
  }

  // Suspects per owner copy: as published, altered, re-generalized,
  // range-deleted and refilled with the second owner's rows (session
  // detection needs the published row count), and the second owner's
  // copy of the same length.
  enum class Kind { kOwner, kAttacked, kForeign };
  std::vector<Kind> kinds;
  Script audit;
  const std::vector<size_t> qi =
      privmark::MedicalSchema().QuasiIdentifyingColumns();
  PRIVMARK_ASSIGN_OR_RETURN(
      privmark::UsageMetrics metrics,
      MetricsFor(FrameworkConfigFor(owner_ward), *w->ontologies));
  Random attacks(Mix(seed, 15));
  for (size_t i = 0; i < sizes.size(); ++i) {
    const Table& copy = facts[i].copy;
    const Table& foreign = facts[sizes.size() + i].copy;
    const size_t rows = copy.num_rows();
    if (foreign.num_rows() < rows) {
      return Status::InvalidArgument(
          "second owner's copy is shorter than the owner's");
    }
    auto add = [&](Kind kind, Table suspect) {
      auto shared = Share(std::move(suspect));
      audit.push_back(RunStep(i, OpKind::kDetect, shared));
      audit.push_back(ScanStep(i, shared, registry));
      kinds.push_back(kind);
    };
    add(Kind::kOwner, copy.Clone());
    Table altered = copy.Clone();
    PRIVMARK_RETURN_NOT_OK(
        privmark::SubsetAlterationAttack(&altered, qi, 0.1, &attacks).status());
    add(Kind::kAttacked, std::move(altered));
    Table generalized = copy.Clone();
    PRIVMARK_RETURN_NOT_OK(privmark::GeneralizationAttack(
                               &generalized, qi, metrics.maximal, 1)
                               .status());
    add(Kind::kAttacked, std::move(generalized));
    Table deleted = copy.Clone();
    PRIVMARK_RETURN_NOT_OK(
        privmark::SubsetDeletionAttack(&deleted, 0.1, &attacks).status());
    for (size_t r = 0; deleted.num_rows() < rows; ++r) {
      (void)deleted.AppendRow(foreign.row(r));
    }
    add(Kind::kAttacked, std::move(deleted));
    add(Kind::kForeign, foreign.Slice(0, rows));
  }

  // Bodies: the audit requests in three seeded orders. Every fifth
  // suspect the owner also publishes a fresh 1000-row subset (open, ten
  // 100-row batches, flush, close), so the window samples protect
  // requests too, spread across it.
  Random order(Mix(seed, 16));
  const size_t num_suspects = kinds.size();
  for (int b = 0; b < 3; ++b) {
    std::vector<size_t> perm = order.Permutation(num_suspects);
    Script body;
    for (size_t i = 0; i < perm.size(); ++i) {
      if (i % 5 == 0) {
        Script publish;
        publish.push_back(OpenStep(kPublishSlot, owner_ward));
        AddProtectSteps(kPublishSlot, subset_of_owner(1000), 1000, 100, 100,
                        false, &publish);
        publish.push_back(CloseStep(kPublishSlot));
        std::vector<OpResult> results;
        PRIVMARK_RETURN_NOT_OK(ref->Run(publish, 0, &results));
        StreamFacts published;
        published.copy = Table(privmark::MedicalSchema());
        EpochTracker tracker(false);
        for (size_t step = 1; step + 1 < publish.size(); ++step) {
          PRIVMARK_RETURN_NOT_OK(
              tracker.Observe(publish[step], results[step - 1], &published));
        }
        CheckKAnonymity("owner publish", published, false, &w->checks);
        body.insert(body.end(), publish.begin(), publish.end());
      }
      body.push_back(audit[2 * perm[i]]);
      body.push_back(audit[2 * perm[i] + 1]);
    }
    lane.bodies.push_back(std::move(body));
  }
  for (size_t slot = 0; slot < sizes.size(); ++slot) {
    lane.epilogue.push_back(CloseStep(slot));
  }
  w->lanes.push_back(std::move(lane));

  // Reference verdicts, after the window: in-process kDetect and a
  // non-streamed PrivmarkService::DetectFingerprint per suspect (the
  // copies share their expected digests with the streamed steps).
  std::vector<BitVector> owner_marks;
  for (size_t i = 0; i < sizes.size(); ++i) {
    owner_marks.push_back(facts[i].marks.at(0));
  }
  w->deferred.push_back([w, ref, audit, kinds, owner_marks,
                         owner_name = owner.name]() -> Status {
    Script reference = audit;
    for (Step& step : reference) step.op.stream = false;
    std::vector<OpResult> verdicts;
    PRIVMARK_RETURN_NOT_OK(ref->Run(reference, 0, &verdicts));
    for (size_t s = 0; s < kinds.size(); ++s) {
      const OpResult& detect = verdicts[2 * s];
      const OpResult& scan = verdicts[2 * s + 1];
      const size_t owner_epochs = TallyVerdicts(owner_name, scan, &w->checks);
      const std::string what = "suspect " + std::to_string(s);
      switch (kinds[s]) {
        case Kind::kOwner:
          ++w->checks.owner_copies;
          CheckMarks(what, {owner_marks[audit[2 * s].slot]}, detect,
                     &w->checks);
          if (owner_epochs == scan.fingerprints.size()) {
            ++w->checks.owner_detected;
          } else {
            w->checks.Fail(what + ": owner key not detected on its own copy");
          }
          break;
        case Kind::kAttacked:
          ++w->checks.attacked_copies;
          if (owner_epochs == scan.fingerprints.size()) {
            ++w->checks.attacked_owner_detected;
          }
          break;
        case Kind::kForeign:
          ++w->checks.foreign_copies;
          if (owner_epochs > 0) ++w->checks.foreign_owner_detected;
          break;
      }
    }
    return Status::OK();
  });
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"stream_protect",
                                                 "audit_scan", "drift_rebin"};
  return names;
}

Status Workload::FinishReferences() {
  std::vector<std::function<Status()>> tasks = std::move(deferred);
  deferred.clear();
  for (const auto& task : tasks) PRIVMARK_RETURN_NOT_OK(task());
  return Status::OK();
}

Result<std::unique_ptr<Workload>> BuildWorkload(const std::string& name,
                                                uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  MedicalDataSpec spec;
  spec.num_rows = 1;
  PRIVMARK_ASSIGN_OR_RETURN(MedicalDataset ontologies,
                            privmark::GenerateMedicalDataset(spec));
  w->ontologies = std::make_unique<MedicalDataset>(std::move(ontologies));
  w->stack.ontologies = w->ontologies.get();

  if (name == "stream_protect") {
    w->e2e_depth = kDepthNet;
    w->trace_depths = {kDepthNet, kDepthWire, kDepthQueue, kDepthSession,
                       kDepthStages};
    w->stack.thread_cap = 2;
    w->stack.session_threads = 1;
    w->journaled = true;
    ProtectShape shape{2,     3,     10000, 2000, 500, 100,
                       false, false, false, 75,   1,   7};
    PRIVMARK_RETURN_NOT_OK(BuildProtect(shape, seed, w.get()));
  } else if (name == "audit_scan") {
    w->e2e_depth = kDepthNet;
    w->trace_depths = {kDepthNet, kDepthWire, kDepthQueue, kDepthSession,
                       kDepthStages};
    w->stack.thread_cap = HardwareThreads();
    w->stack.session_threads = HardwareThreads();
    w->rows = RowsCounted::kAudited;
    PRIVMARK_RETURN_NOT_OK(BuildAudit(seed, w.get()));
  } else if (name == "drift_rebin") {
    w->e2e_depth = kDepthQueue;
    w->trace_depths = {kDepthQueue, kDepthSession, kDepthStages};
    w->stack.thread_cap = HardwareThreads();
    w->stack.session_threads = HardwareThreads();
    w->journaled = true;
    w->min_epochs = 20;
    ProtectShape shape{1,    2,    20000, 2000, 1000, 1000,
                       true, true, true,  10,   0,    7};
    PRIVMARK_RETURN_NOT_OK(BuildProtect(shape, seed, w.get()));
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
