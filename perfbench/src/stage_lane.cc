// Depth 5 of the peel: the ward's requests replayed through the public
// stage functions ProtectionSession composes, each call wrapped in a
// span named after its layer:
//
//   hierarchy.encode     EncodedView::Leaves
//   binning.count        CountState::Zero / FromView / Merge / Subtract
//   binning.select       MonoAttributeBinCounts, MultiAttributeBin
//   binning.loss         ColumnInfoLossEncoded
//   binning.materialize  MaterializeProtected
//   watermark.mark       StatisticFromTable + DeriveOwnershipMark
//   watermark.bandwidth  HierarchicalWatermarker::EstimateBandwidth
//                        (auto-epsilon's |wmd| estimate)
//   watermark.embed      HierarchicalWatermarker::Embed
//   watermark.detect     HierarchicalWatermarker::Detect
//   watermark.index      BuildDetectIndex
//   watermark.tally      ScanIndexForFingerprintsStreamed (MultiKeyTally
//                        plus verdict assembly)
//   journal.append       SessionJournal::AppendSchema / AppendBatch /
//                        AppendFlushMarker
//   journal.sync         SessionJournal::AppendEpochSealed (one record
//                        and the fsync it ends with)
//
// The glue between those calls — buffering, the frozen epoch's
// established-bin mask, suppression bookkeeping, epoch slicing —
// reproduces session.cc without a public function to call, so it is not
// spanned: the session's own time for it stays in core.session's self
// time (depth 4 minus the stage spans here). The outputs must be
// byte-identical to the session's, which the traced run checks. Only the
// configurations the workloads use are reproduced: per-attribute bins
// under kFreezeBins, joint bins under kRebinOnDrift.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "binning/binning_engine.h"
#include "binning/mono_attribute.h"
#include "binning/multi_attribute.h"
#include "core/journal.h"
#include "core/framework.h"
#include "crypto/aes128.h"
#include "metrics/info_loss.h"
#include "stack.h"
#include "watermark/detect_index.h"
#include "watermark/fingerprint.h"
#include "watermark/ownership.h"

namespace perfbench {

using privmark::BitVector;
using privmark::CountState;
using privmark::DomainHierarchy;
using privmark::EncodedView;
using privmark::EpochRecord;
using privmark::FingerprintShard;
using privmark::FrameworkConfig;
using privmark::GeneralizationSet;
using privmark::HierarchicalWatermarker;
using privmark::NodeId;
using privmark::Result;
using privmark::SessionJournal;
using privmark::ThreadPool;
using privmark::WireFingerprintShard;

namespace {

// One session's state, replayed stage by stage.
class StageSession {
 public:
  StageSession(const StackConfig& config, ThreadPool* pool,
               Counters* counters)
      : config_(config), pool_(pool), counters_(*counters) {}

  Status Open(const std::string& name, const privmark::WireOpenRequest& ward) {
    name_ = name;
    fc_ = FrameworkConfigFor(ward);
    fc_.binning.pool = pool_;
    fc_.watermark.pool = pool_;
    session_ = SessionConfigFor(ward);
    if (fc_.binning.enforce_joint &&
        session_.policy == privmark::RebinPolicy::kFreezeBins) {
      return Status::NotImplemented("stage replay: joint frozen bins");
    }
    PRIVMARK_ASSIGN_OR_RETURN(metrics_, MetricsFor(fc_, *config_.ontologies));
    cipher_.emplace(
        privmark::Aes128::FromPassphrase(fc_.binning.encryption_passphrase));
    schema_.reset();
    live_.reset();
    epochs_.clear();
    rows_ingested_ = 0;
    rows_since_epoch_ = 0;
    journal_.reset();
    schema_journaled_ = false;
    if (!config_.journal_dir.empty()) {
      PRIVMARK_ASSIGN_OR_RETURN(
          journal_,
          SessionJournal::Create(JournalPath(config_.journal_dir, name)));
      PRIVMARK_RETURN_NOT_OK(journal_->AppendConfig(fc_, session_));
      if (!fc_.key_id.empty()) {
        PRIVMARK_RETURN_NOT_OK(journal_->AppendKeyId(fc_.key_id));
      }
    }
    return Status::OK();
  }

  OpResult Run(const Op& op, const TraceCtx& ctx) {
    OpResult out;
    ScopedSpan root(ctx, "stages");
    const TraceCtx in = root.child();
    start_ = NowNs();
    switch (op.kind) {
      case OpKind::kIngest:
        out.status = Ingest(*op.table, in, &out);
        break;
      case OpKind::kFlush:
        out.status = Flush(in, &out);
        break;
      case OpKind::kDetect:
        out.status = Detect(*op.table, in, &out);
        break;
      case OpKind::kFingerprint:
        out.status = Fingerprint(*op.table, *op.registry, in, &out);
        break;
    }
    out.threads_granted = config_.session_threads;
    return out;
  }

  void Close() {
    journal_.reset();
    RetireJournal(config_.journal_dir, name_, &counters_);
  }

 private:
  struct Live {
    size_t index = 0;
    std::vector<GeneralizationSet> ultimate;
    BitVector mark;
    size_t copies = 1;
    size_t basis_rows = 0;
    std::vector<std::vector<char>> established;
  };

  // What the binning agent's RunWithState returns that the session uses.
  struct Binned {
    privmark::Table binned;
    std::vector<GeneralizationSet> ultimate;
    size_t suppressed_rows = 0;
  };

  ThreadPool* pool() const { return pool_; }

  HierarchicalWatermarker Watermarker(
      const std::vector<GeneralizationSet>& ultimate) const {
    return HierarchicalWatermarker(qi_, ident_, metrics_.maximal, ultimate,
                                   fc_.key, fc_.watermark);
  }

  Status InitSchema(const privmark::Schema& schema, const TraceCtx& in) {
    if (schema_.has_value()) return Status::OK();
    PRIVMARK_ASSIGN_OR_RETURN(ident_, schema.IdentifyingColumn());
    qi_ = schema.QuasiIdentifyingColumns();
    trees_.clear();
    for (const GeneralizationSet& gs : metrics_.maximal) {
      trees_.push_back(gs.tree());
    }
    {
      ScopedSpan span(in, "binning.count");
      PRIVMARK_ASSIGN_OR_RETURN(counts_, CountState::Zero(trees_));
    }
    schema_ = schema;
    buffer_ = privmark::Table(schema);
    buffer_view_ = EncodedView();
    return Status::OK();
  }

  Status Ingest(const privmark::Table& batch, const TraceCtx& in,
                OpResult* out) {
    PRIVMARK_RETURN_NOT_OK(InitSchema(batch.schema(), in));
    if (journal_ != nullptr) {
      ScopedSpan span(in, "journal.append");
      if (!schema_journaled_) {
        PRIVMARK_RETURN_NOT_OK(journal_->AppendSchema(*schema_));
        schema_journaled_ = true;
      }
      PRIVMARK_RETURN_NOT_OK(journal_->AppendBatch(batch));
    }
    EncodedView view;
    {
      ScopedSpan span(in, "hierarchy.encode");
      PRIVMARK_ASSIGN_OR_RETURN(
          view, EncodedView::Leaves(batch, qi_, trees_, pool()));
    }
    counters_.rows_encoded += batch.num_rows();
    counters_.rows_ingested += batch.num_rows();
    rows_ingested_ += batch.num_rows();
    out->epoch = epochs_.size();
    if (live_.has_value() &&
        session_.policy == privmark::RebinPolicy::kFreezeBins) {
      return EmitFrozen(batch, view, in, out);
    }
    {
      ScopedSpan span(in, "binning.count");
      PRIVMARK_ASSIGN_OR_RETURN(CountState batch_counts,
                                CountState::FromView(trees_, view, pool()));
      PRIVMARK_RETURN_NOT_OK(counts_.Merge(batch_counts));
    }
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      PRIVMARK_RETURN_NOT_OK(buffer_.AppendRow(batch.row(r)));
    }
    PRIVMARK_RETURN_NOT_OK(buffer_view_.Append(view));
    rows_since_epoch_ += batch.num_rows();
    if (live_.has_value() &&
        session_.policy == privmark::RebinPolicy::kRebinOnDrift &&
        static_cast<double>(rows_since_epoch_) >=
            session_.drift_threshold *
                static_cast<double>(live_->basis_rows)) {
      PRIVMARK_RETURN_NOT_OK(FlushBuffer(in, out));
    }
    return Status::OK();
  }

  Status Flush(const TraceCtx& in, OpResult* out) {
    if (!schema_.has_value()) {
      return Status::InvalidArgument("Flush: nothing ingested");
    }
    if (live_.has_value() && buffer_.num_rows() == 0) {
      return Status::InvalidArgument("Flush: no rows buffered");
    }
    if (journal_ != nullptr) {
      ScopedSpan span(in, "journal.append");
      PRIVMARK_RETURN_NOT_OK(journal_->AppendFlushMarker());
    }
    return FlushBuffer(in, out);
  }

  // BinningAgent::RunWithState over the flush buffer, call by call, at
  // k + `epsilon`.
  Result<Binned> Bin(const TraceCtx& in, size_t epsilon, EncodedView view) {
    const privmark::BinningConfig& config = fc_.binning;
    const privmark::Table& input = buffer_;
    privmark::MonoBinningOptions mono_options = config.mono;
    mono_options.k = config.k + epsilon;

    Binned out;
    std::vector<GeneralizationSet> minimal;
    std::vector<privmark::MonoBinningResult> monos;
    {
      ScopedSpan span(in, "binning.select");
      for (size_t c = 0; c < qi_.size(); ++c) {
        PRIVMARK_ASSIGN_OR_RETURN(
            privmark::MonoBinningResult mono,
            privmark::MonoAttributeBinCounts(metrics_.maximal[c],
                                             counts_.column(c),
                                             mono_options));
        monos.push_back(std::move(mono));
      }
    }
    std::vector<size_t> rows_to_suppress;
    for (size_t c = 0; c < qi_.size(); ++c) {
      if (!monos[c].suppressed_nodes.empty()) {
        const DomainHierarchy& tree = *trees_[c];
        std::vector<char> dropped_leaf(tree.num_nodes(), 0);
        for (NodeId suppressed : monos[c].suppressed_nodes) {
          const auto [begin, end] = tree.LeafSpan(suppressed);
          for (size_t i = begin; i < end; ++i) {
            dropped_leaf[tree.Leaves()[i]] = 1;
          }
        }
        const std::vector<NodeId>& ids = view.column(c).ids();
        for (size_t r = 0; r < ids.size(); ++r) {
          if (dropped_leaf[ids[r]]) rows_to_suppress.push_back(r);
        }
      }
      minimal.push_back(std::move(monos[c].minimal));
    }

    const privmark::Table* working = &input;
    privmark::Table reduced;
    if (!rows_to_suppress.empty()) {
      std::vector<char> keep(input.num_rows(), 1);
      for (size_t r : rows_to_suppress) keep[r] = 0;
      reduced = privmark::Table(input.schema());
      for (size_t r = 0; r < input.num_rows(); ++r) {
        if (keep[r]) PRIVMARK_RETURN_NOT_OK(reduced.AppendRow(input.row(r)));
      }
      out.suppressed_rows = input.num_rows() - reduced.num_rows();
      working = &reduced;
      std::vector<char> removed(input.num_rows(), 0);
      for (size_t r = 0; r < input.num_rows(); ++r) removed[r] = !keep[r];
      PRIVMARK_ASSIGN_OR_RETURN(EncodedView removed_view,
                                view.Filtered(removed));
      CountState adjusted = counts_;
      {
        ScopedSpan span(in, "binning.count");
        PRIVMARK_ASSIGN_OR_RETURN(
            CountState removed_counts,
            CountState::FromView(trees_, removed_view, pool()));
        PRIVMARK_RETURN_NOT_OK(adjusted.Subtract(removed_counts));
      }
      PRIVMARK_ASSIGN_OR_RETURN(view, view.Filtered(keep));
      minimal.clear();
      ScopedSpan span(in, "binning.select");
      for (size_t c = 0; c < qi_.size(); ++c) {
        PRIVMARK_ASSIGN_OR_RETURN(
            privmark::MonoBinningResult mono,
            privmark::MonoAttributeBinCounts(metrics_.maximal[c],
                                             adjusted.column(c),
                                             mono_options));
        minimal.push_back(std::move(mono.minimal));
      }
    }
    {
      ScopedSpan span(in, "binning.loss");
      for (size_t c = 0; c < qi_.size(); ++c) {
        PRIVMARK_ASSIGN_OR_RETURN(
            double loss,
            privmark::ColumnInfoLossEncoded(view.column(c), minimal[c],
                                            pool()));
        (void)loss;
      }
    }
    if (config.enforce_joint) {
      privmark::MultiBinningOptions multi_options = config.multi;
      multi_options.k = config.k + epsilon;
      ScopedSpan span(in, "binning.select");
      PRIVMARK_ASSIGN_OR_RETURN(
          privmark::MultiBinningResult multi,
          privmark::MultiAttributeBin(*working, qi_, minimal,
                                      metrics_.maximal, multi_options, &view,
                                      pool()));
      out.ultimate = std::move(multi.ultimate);
      counters_.candidates_considered += multi.candidates_considered;
    } else {
      out.ultimate = minimal;
    }
    {
      ScopedSpan span(in, "binning.loss");
      for (size_t c = 0; c < qi_.size(); ++c) {
        PRIVMARK_ASSIGN_OR_RETURN(
            double loss,
            privmark::ColumnInfoLossEncoded(view.column(c), out.ultimate[c],
                                            pool()));
        (void)loss;
      }
    }
    ScopedSpan span(in, "binning.materialize");
    const privmark::Aes128 cipher =
        privmark::Aes128::FromPassphrase(config.encryption_passphrase);
    PRIVMARK_ASSIGN_OR_RETURN(
        out.binned,
        privmark::MaterializeProtected(*working, qi_, ident_, out.ultimate,
                                       view, cipher, pool()));
    return out;
  }

  Status FlushBuffer(const TraceCtx& in, OpResult* out) {
    const size_t epoch = epochs_.size();
    double statistic = 0.0;
    BitVector mark;
    {
      ScopedSpan span(in, "watermark.mark");
      PRIVMARK_ASSIGN_OR_RETURN(statistic,
                                privmark::StatisticFromTable(buffer_, ident_));
      PRIVMARK_ASSIGN_OR_RETURN(
          mark, privmark::DeriveOwnershipMark(statistic, fc_.mark_bits,
                                              fc_.watermark.hash));
    }
    const size_t rows_offered = buffer_.num_rows();
    size_t epsilon = fc_.binning.epsilon;
    Binned binned;
    if (!fc_.auto_epsilon) {
      PRIVMARK_ASSIGN_OR_RETURN(binned,
                                Bin(in, epsilon, std::move(buffer_view_)));
    } else {
      // Sec. 6: bin, estimate |wmd| from the watermark's bandwidth, derive
      // the conservative epsilon, re-bin at k + epsilon when it grew.
      PRIVMARK_ASSIGN_OR_RETURN(binned, Bin(in, epsilon, buffer_view_));
      size_t bandwidth = 0;
      {
        ScopedSpan span(in, "watermark.bandwidth");
        PRIVMARK_ASSIGN_OR_RETURN(
            bandwidth,
            Watermarker(binned.ultimate).EstimateBandwidth(binned.binned));
      }
      const size_t copies =
          fc_.copies != 0 ? fc_.copies
                          : std::max<size_t>(1, bandwidth / fc_.mark_bits);
      const size_t wmd_size = copies * fc_.mark_bits;
      size_t needed = 0;
      if (fc_.binning.enforce_joint) {
        PRIVMARK_ASSIGN_OR_RETURN(
            needed,
            privmark::ConservativeEpsilon(binned.binned, qi_, wmd_size));
      } else {
        const size_t per_column = wmd_size / std::max<size_t>(1, qi_.size());
        for (size_t col : qi_) {
          PRIVMARK_ASSIGN_OR_RETURN(
              size_t column_epsilon,
              privmark::ConservativeEpsilon(binned.binned, {col}, per_column));
          needed = std::max(needed, column_epsilon);
        }
      }
      if (needed > epsilon) {
        epsilon = needed;
        PRIVMARK_ASSIGN_OR_RETURN(binned,
                                  Bin(in, epsilon, std::move(buffer_view_)));
      }
    }
    if (session_.policy == privmark::RebinPolicy::kRebinOnDrift &&
        !epochs_.empty() && !fc_.binning.enforce_joint) {
      return Status::NotImplemented("stage replay: per-attribute drift");
    }
    counters_.rows_binned += rows_offered;
    counters_.rows_kept += binned.binned.num_rows();

    privmark::Table watermarked = binned.binned.Clone();
    privmark::EmbedReport embed;
    {
      ScopedSpan span(in, "watermark.embed");
      PRIVMARK_ASSIGN_OR_RETURN(
          embed,
          Watermarker(binned.ultimate).Embed(&watermarked, mark, fc_.copies));
    }
    counters_.rows_marked += embed.tuples_selected;

    EpochRecord record;
    record.epoch = epoch;
    record.ultimate = binned.ultimate;
    record.mark = mark;
    record.identifier_statistic = statistic;
    record.copies = embed.copies;
    record.wmd_size = embed.wmd_size;
    record.rows_emitted = watermarked.num_rows();
    record.rows_suppressed = binned.suppressed_rows;
    record.epsilon_used = epsilon;

    Live live;
    live.index = epoch;
    live.ultimate = binned.ultimate;
    live.mark = mark;
    live.copies = std::max<size_t>(1, record.copies);
    live.basis_rows = rows_ingested_;
    if (session_.policy == privmark::RebinPolicy::kFreezeBins) {
      PRIVMARK_RETURN_NOT_OK(Establish(binned, fc_.binning.k + epsilon, &live));
    }
    live_ = std::move(live);
    epochs_.push_back(record);

    buffer_ = privmark::Table(*schema_);
    buffer_view_ = EncodedView();
    {
      ScopedSpan span(in, "binning.count");
      PRIVMARK_ASSIGN_OR_RETURN(counts_, CountState::Zero(trees_));
    }
    rows_since_epoch_ = 0;
    if (journal_ != nullptr) {
      ScopedSpan span(in, "journal.sync");
      PRIVMARK_RETURN_NOT_OK(journal_->AppendEpochSealed(epochs_.back()));
      ++counters_.fsyncs;
    }
    out->emitted = std::move(watermarked);
    out->closed_epoch = true;
    out->epoch = epoch;
    return Status::OK();
  }

  // Per-attribute established bins of a frozen epoch: nodes whose bin
  // reached k + epsilon rows in the epoch's binned output.
  Status Establish(const Binned& binned, size_t effective_k,
                   Live* live) const {
    live->established.resize(qi_.size());
    for (size_t c = 0; c < qi_.size(); ++c) {
      const DomainHierarchy& tree = *live->ultimate[c].tree();
      std::vector<size_t> node_counts(tree.num_nodes(), 0);
      for (size_t r = 0; r < binned.binned.num_rows(); ++r) {
        PRIVMARK_ASSIGN_OR_RETURN(
            NodeId node, live->ultimate[c].NodeForLabel(
                             binned.binned.at(r, qi_[c]).ToString()));
        ++node_counts[node];
      }
      live->established[c].assign(tree.num_nodes(), 0);
      for (size_t n = 0; n < tree.num_nodes(); ++n) {
        if (node_counts[n] >= effective_k) live->established[c][n] = 1;
      }
    }
    return Status::OK();
  }

  Status EmitFrozen(const privmark::Table& batch, const EncodedView& view,
                    const TraceCtx& in, OpResult* out) {
    const Live& live = *live_;
    std::vector<char> keep(batch.num_rows(), 1);
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < qi_.size(); ++c) {
        PRIVMARK_ASSIGN_OR_RETURN(
            NodeId node, live.ultimate[c].NodeForLeaf(view.column(c).id(r)));
        if (!live.established[c][node]) {
          keep[r] = 0;
          break;
        }
      }
    }
    privmark::Table kept(*schema_);
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (keep[r]) PRIVMARK_RETURN_NOT_OK(kept.AppendRow(batch.row(r)));
    }
    PRIVMARK_ASSIGN_OR_RETURN(EncodedView kept_view, view.Filtered(keep));
    counters_.rows_binned += batch.num_rows();
    counters_.rows_kept += kept.num_rows();
    {
      ScopedSpan span(in, "binning.materialize");
      PRIVMARK_ASSIGN_OR_RETURN(
          out->emitted,
          privmark::MaterializeProtected(kept, qi_, ident_, live.ultimate,
                                         kept_view, *cipher_, pool()));
    }
    {
      ScopedSpan span(in, "watermark.embed");
      PRIVMARK_ASSIGN_OR_RETURN(
          privmark::EmbedReport embed,
          Watermarker(live.ultimate)
              .Embed(&out->emitted, live.mark, live.copies));
      counters_.rows_marked += embed.tuples_selected;
    }
    epochs_[live.index].rows_emitted += out->emitted.num_rows();
    out->epoch = live.index;
    return Status::OK();
  }

  // The table's slice for each epoch, in order; InvalidArgument unless
  // the row counts add up (as the session requires).
  Result<std::vector<privmark::Table>> Segments(
      const privmark::Table& table) const {
    size_t total = 0;
    for (const EpochRecord& rec : epochs_) total += rec.rows_emitted;
    if (table.num_rows() != total) {
      return Status::InvalidArgument("suspect has " +
                                     std::to_string(table.num_rows()) +
                                     " rows, session emitted " +
                                     std::to_string(total));
    }
    std::vector<privmark::Table> segments;
    size_t offset = 0;
    for (const EpochRecord& rec : epochs_) {
      privmark::Table segment(table.schema());
      for (size_t r = offset; r < offset + rec.rows_emitted; ++r) {
        PRIVMARK_RETURN_NOT_OK(segment.AppendRow(table.row(r)));
      }
      offset += rec.rows_emitted;
      segments.push_back(std::move(segment));
    }
    return segments;
  }

  Status Detect(const privmark::Table& table, const TraceCtx& in,
                OpResult* out) {
    PRIVMARK_ASSIGN_OR_RETURN(std::vector<privmark::Table> segments,
                              Segments(table));
    for (size_t e = 0; e < epochs_.size(); ++e) {
      const EpochRecord& rec = epochs_[e];
      const HierarchicalWatermarker watermarker = Watermarker(rec.ultimate);
      ScopedSpan span(in, "watermark.detect");
      PRIVMARK_ASSIGN_OR_RETURN(
          DetectReport report,
          watermarker.Detect(segments[e], rec.mark.size(), rec.wmd_size));
      out->reports.push_back(std::move(report));
    }
    return Status::OK();
  }

  Status Fingerprint(const privmark::Table& table,
                     const KeyRegistry& registry, const TraceCtx& in,
                     OpResult* out) {
    PRIVMARK_ASSIGN_OR_RETURN(std::vector<privmark::Table> segments,
                              Segments(table));
    std::vector<WireFingerprintShard> shards;
    const privmark::FingerprintShardSink sink =
        [&](const FingerprintShard& shard) {
          if (shards.empty()) out->first_shard_ns = NowNs() - start_;
          WireFingerprintShard copy;
          copy.epoch = shard.epoch;
          copy.shard = shard.shard;
          copy.first_key = shard.first_key;
          copy.verdicts = shard.verdicts;
          shards.push_back(std::move(copy));
        };
    for (size_t e = 0; e < epochs_.size(); ++e) {
      const EpochRecord& rec = epochs_[e];
      const HierarchicalWatermarker watermarker = Watermarker(rec.ultimate);
      privmark::FingerprintConfig scan;
      scan.wm_size = rec.mark.size();
      scan.wmd_size = rec.wmd_size;
      scan.expected_mark = rec.mark;
      privmark::DetectIndex index;
      {
        ScopedSpan span(in, "watermark.index");
        PRIVMARK_ASSIGN_OR_RETURN(
            index, privmark::BuildDetectIndex(watermarker, segments[e]));
      }
      std::unique_ptr<ThreadPool> owned;
      ThreadPool* const scan_pool =
          privmark::PoolOrMake(watermarker.options().pool,
                               watermarker.options().num_threads, &owned);
      ScopedSpan span(in, "watermark.tally");
      PRIVMARK_ASSIGN_OR_RETURN(
          FingerprintReport report,
          privmark::ScanIndexForFingerprintsStreamed(
              index, watermarker.options().hash, registry, scan, scan_pool,
              sink, e));
      counters_.tally_key_rows += index.num_rows * registry.size();
      out->fingerprints.push_back(std::move(report));
    }
    // Verdicts as the stream delivered them, plus the reports' tails.
    for (FingerprintReport& report : out->fingerprints) report.verdicts.clear();
    for (const WireFingerprintShard& shard : shards) {
      auto& verdicts = out->fingerprints[shard.epoch].verdicts;
      verdicts.insert(verdicts.end(), shard.verdicts.begin(),
                      shard.verdicts.end());
    }
    return Status::OK();
  }

  const StackConfig& config_;
  ThreadPool* const pool_;
  Counters& counters_;
  std::string name_;
  FrameworkConfig fc_;
  privmark::SessionConfig session_;
  privmark::UsageMetrics metrics_;
  std::optional<privmark::Aes128> cipher_;
  std::unique_ptr<SessionJournal> journal_;
  bool schema_journaled_ = false;

  std::optional<privmark::Schema> schema_;
  size_t ident_ = 0;
  std::vector<size_t> qi_;
  std::vector<const DomainHierarchy*> trees_;
  CountState counts_;
  privmark::Table buffer_;
  EncodedView buffer_view_;
  size_t rows_since_epoch_ = 0;
  size_t rows_ingested_ = 0;
  std::optional<Live> live_;
  std::vector<EpochRecord> epochs_;
  int64_t start_ = 0;
};

class StageLane : public Lane {
 public:
  explicit StageLane(const StackConfig& config)
      : config_(config),
        pool_(privmark::MakeThreadPool(config.session_threads)) {}

  Status Open(size_t slot, const std::string& name,
              const privmark::WireOpenRequest& ward) override {
    auto session =
        std::make_unique<StageSession>(config_, pool_.get(), &counters_);
    PRIVMARK_RETURN_NOT_OK(session->Open(name, ward));
    sessions_[slot] = std::move(session);
    return Status::OK();
  }

  OpResult Run(size_t slot, const Op& op, const TraceCtx& ctx) override {
    OpResult out = sessions_[slot]->Run(op, ctx);
    ++counters_.requests;
    counters_.threads_granted += out.threads_granted;
    return out;
  }

  Status Close(size_t slot) override {
    sessions_[slot]->Close();
    sessions_.erase(slot);
    return Status::OK();
  }

 private:
  const StackConfig& config_;
  std::unique_ptr<ThreadPool> pool_;
  std::map<size_t, std::unique_ptr<StageSession>> sessions_;
};

}  // namespace

std::unique_ptr<Lane> MakeStageLane(const StackConfig& config) {
  return std::make_unique<StageLane>(config);
}

}  // namespace perfbench
