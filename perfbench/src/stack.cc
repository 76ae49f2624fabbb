#include "stack.h"

#include <sys/stat.h>
#include <unistd.h>

#include <map>
#include <optional>
#include <utility>

#include "core/journal.h"
#include "service/client.h"
#include "service/convert.h"
#include "service/daemon.h"

namespace perfbench {

using privmark::DaemonClient;
using privmark::FingerprintShard;
using privmark::FrameworkConfig;
using privmark::PrivmarkDaemon;
using privmark::PrivmarkService;
using privmark::Result;
using privmark::ServiceRequest;
using privmark::ServiceResponse;
using privmark::WireFingerprintShard;
using privmark::WireFrame;
using privmark::WireFrameType;
using privmark::WireRequest;
using privmark::WireResponse;

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kIngest:
      return "ingest";
    case OpKind::kFlush:
      return "flush";
    case OpKind::kDetect:
      return "detect";
    case OpKind::kFingerprint:
      return "fingerprint";
  }
  return "?";
}

const char* DepthRootName(int depth) {
  switch (depth) {
    case kDepthNet:
      return "service.net";
    case kDepthWire:
      return "service.wire";
    case kDepthQueue:
      return "service.queue";
    case kDepthSession:
      return "core.session";
    default:
      return "stages";
  }
}

void Counters::Add(const Counters& o) {
  frames += o.frames;
  bytes_up += o.bytes_up;
  bytes_down += o.bytes_down;
  threads_granted += o.threads_granted;
  requests += o.requests;
  shed += o.shed;
  rows_ingested += o.rows_ingested;
  rows_encoded += o.rows_encoded;
  rows_marked += o.rows_marked;
  rows_binned += o.rows_binned;
  rows_kept += o.rows_kept;
  candidates_considered += o.candidates_considered;
  fsyncs += o.fsyncs;
  tally_key_rows += o.tally_key_rows;
  journal_bytes += o.journal_bytes;
}

FrameworkConfig FrameworkConfigFor(const privmark::WireOpenRequest& open) {
  FrameworkConfig config;
  config.binning.k = static_cast<size_t>(open.k);
  config.binning.enforce_joint = open.enforce_joint;
  config.binning.encryption_passphrase = open.passphrase;
  config.binning.num_threads = static_cast<size_t>(open.num_threads);
  config.binning.mono.on_unbinnable =
      open.on_unbinnable == 1 ? privmark::UnbinnablePolicy::kSuppress
                              : privmark::UnbinnablePolicy::kError;
  config.watermark.num_threads = config.binning.num_threads;
  config.key = privmark::WatermarkKey{open.k1, open.k2, open.eta};
  config.key_id = open.key_id;
  config.auto_epsilon = open.auto_epsilon;
  return config;
}

privmark::SessionConfig SessionConfigFor(
    const privmark::WireOpenRequest& open) {
  privmark::SessionConfig session;
  session.policy = open.policy == 1 ? privmark::RebinPolicy::kRebinOnDrift
                                    : privmark::RebinPolicy::kFreezeBins;
  session.drift_threshold = open.drift_threshold;
  return session;
}

Result<privmark::UsageMetrics> MetricsFor(
    const FrameworkConfig& config, const privmark::MedicalDataset& ontologies) {
  if (config.binning.enforce_joint) {
    return privmark::UnconstrainedMetrics(ontologies.trees());
  }
  return privmark::MetricsFromDepthCuts(ontologies.trees(), {2, 1, 2, 1, 1});
}

std::string JournalPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".wal";
}

void RetireJournal(const std::string& dir, const std::string& name,
                   Counters* counters) {
  if (dir.empty()) return;
  const std::string path = JournalPath(dir, name);
  struct stat info {};
  if (::stat(path.c_str(), &info) == 0) {
    counters->journal_bytes += static_cast<uint64_t>(info.st_size);
  }
  ::unlink(path.c_str());
}

namespace {

WireRequest ToWire(const Op& op, const std::string& session) {
  WireRequest request;
  request.session = session;
  switch (op.kind) {
    case OpKind::kIngest:
      request.type = WireFrameType::kIngest;
      request.table = op.table->Clone();
      break;
    case OpKind::kFlush:
      request.type = WireFrameType::kFlush;
      break;
    case OpKind::kDetect:
      request.type = WireFrameType::kDetect;
      request.table = op.table->Clone();
      break;
    case OpKind::kFingerprint:
      request.type = WireFrameType::kFingerprint;
      request.table = op.table->Clone();
      request.registry_text = *op.registry_text;
      request.stream = op.stream;
      break;
  }
  return request;
}

ServiceRequest ToService(const Op& op, const std::string& session) {
  ServiceRequest request;
  request.session = session;
  switch (op.kind) {
    case OpKind::kIngest:
      request.kind = privmark::RequestKind::kProtectBatch;
      request.table = op.table->Clone();
      break;
    case OpKind::kFlush:
      request.kind = privmark::RequestKind::kFlush;
      break;
    case OpKind::kDetect:
      request.kind = privmark::RequestKind::kDetect;
      request.table = op.table->Clone();
      break;
    case OpKind::kFingerprint:
      request.kind = privmark::RequestKind::kDetectFingerprint;
      request.table = op.table->Clone();
      request.registry = op.registry;
      break;
  }
  return request;
}

// Per-epoch reports rebuilt from streamed shard verdicts plus the
// terminal reports' ranking / keys_detected / collusion.
std::vector<FingerprintReport> Reassemble(
    const std::vector<WireFingerprintShard>& shards,
    const std::vector<FingerprintReport>& terminal) {
  std::vector<FingerprintReport> reports(terminal.size());
  for (size_t e = 0; e < terminal.size(); ++e) {
    reports[e].ranking = terminal[e].ranking;
    reports[e].keys_detected = terminal[e].keys_detected;
    reports[e].collusion = terminal[e].collusion;
  }
  for (const WireFingerprintShard& shard : shards) {
    if (shard.epoch >= reports.size()) continue;
    auto& verdicts = reports[shard.epoch].verdicts;
    verdicts.insert(verdicts.end(), shard.verdicts.begin(),
                    shard.verdicts.end());
  }
  return reports;
}

void FromWire(WireResponse response,
              const std::vector<WireFingerprintShard>& shards, bool streamed,
              OpResult* out) {
  out->status = response.status;
  out->threads_granted = response.threads_granted;
  if (!response.status.ok()) return;
  switch (response.kind) {
    case WireFrameType::kIngest:
      out->emitted = std::move(response.ingest.emitted);
      out->closed_epoch = response.ingest.flushed;
      out->epoch = response.ingest.epoch;
      break;
    case WireFrameType::kFlush:
      out->emitted = std::move(response.flush.emitted);
      out->closed_epoch = true;
      out->epoch = response.flush.epoch;
      break;
    case WireFrameType::kDetect:
      out->reports = std::move(response.reports);
      break;
    case WireFrameType::kFingerprint:
      out->fingerprints = streamed ? Reassemble(shards, response.fingerprints)
                                   : std::move(response.fingerprints);
      break;
    default:
      break;
  }
}

void FromService(Result<ServiceResponse> result,
                 const std::vector<WireFingerprintShard>& shards,
                 bool streamed, OpResult* out) {
  if (!result.ok()) {
    out->status = result.status();
    return;
  }
  ServiceResponse& response = *result;
  out->threads_granted = response.threads_granted;
  switch (response.kind) {
    case privmark::RequestKind::kProtectBatch:
      out->emitted = std::move(response.ingest.emitted);
      out->closed_epoch = response.ingest.flushed;
      out->epoch = response.ingest.epoch;
      break;
    case privmark::RequestKind::kFlush:
      out->emitted = std::move(response.epoch.outcome.watermarked);
      out->closed_epoch = true;
      out->epoch = response.epoch.epoch;
      break;
    case privmark::RequestKind::kDetect:
      out->reports = std::move(response.reports);
      break;
    case privmark::RequestKind::kDetectFingerprint:
      out->fingerprints = streamed ? Reassemble(shards, response.fingerprints)
                                   : std::move(response.fingerprints);
      break;
    default:
      break;
  }
}

WireFingerprintShard CopyShard(const FingerprintShard& shard) {
  WireFingerprintShard copy;
  copy.epoch = shard.epoch;
  copy.shard = shard.shard;
  copy.first_key = shard.first_key;
  copy.verdicts = shard.verdicts;
  return copy;
}

void CountResult(const OpResult& result, Counters* counters) {
  ++counters->requests;
  counters->threads_granted += result.threads_granted;
  if (result.status.code() == privmark::StatusCode::kResourceExhausted) {
    ++counters->shed;
  }
}

privmark::ServiceConfig ServiceConfigFor(const StackConfig& config) {
  privmark::ServiceConfig service;
  service.thread_cap = config.thread_cap;
  service.journal_dir = config.journal_dir;
  return service;
}

Status CloseInService(PrivmarkService* service,
                      std::map<size_t, std::string>* sessions, size_t slot,
                      const StackConfig& config, Counters* counters) {
  const std::string name = (*sessions)[slot];
  sessions->erase(slot);
  PRIVMARK_ASSIGN_OR_RETURN(ServiceResponse closed,
                            service->CloseSession(name).get());
  (void)closed;
  RetireJournal(config.journal_dir, name, counters);
  return Status::OK();
}

Status OpenInService(PrivmarkService* service, const std::string& name,
                     const privmark::WireOpenRequest& ward,
                     const privmark::MedicalDataset& ontologies) {
  const FrameworkConfig config = FrameworkConfigFor(ward);
  PRIVMARK_ASSIGN_OR_RETURN(privmark::UsageMetrics metrics,
                            MetricsFor(config, ontologies));
  return service->OpenSession(name, std::move(metrics), config,
                              SessionConfigFor(ward));
}

// ---- depth 1: DaemonClient -> PrivmarkDaemon over loopback ------------

class DaemonLane : public Lane {
 public:
  DaemonLane(const StackConfig& config, uint16_t port)
      : config_(config), port_(port), client_(privmark::MedicalSchema()) {}

  Status Connect() { return client_.Connect("127.0.0.1", port_); }

  Status Open(size_t slot, const std::string& name,
              const privmark::WireOpenRequest& ward) override {
    sessions_[slot] = name;
    WireRequest request;
    request.type = WireFrameType::kOpen;
    request.session = name;
    request.open = ward;
    request.open.session = name;
    PRIVMARK_ASSIGN_OR_RETURN(WireResponse response, client_.Call(request));
    return response.status;
  }

  OpResult Run(size_t slot, const Op& op, const TraceCtx& ctx) override {
    const WireRequest request = ToWire(op, sessions_[slot]);
    OpResult out;
    std::vector<WireFingerprintShard> shards;
    std::optional<Result<WireResponse>> response;
    {
      ScopedSpan root(ctx, "service.net");
      const int64_t start = NowNs();
      Result<DaemonClient::PendingCall> pending = client_.CallAsync(request);
      if (!pending.ok()) {
        out.status = pending.status();
        CountResult(out, &counters_);
        return out;
      }
      ++counters_.frames;
      if (request.stream) {
        WireFingerprintShard shard;
        for (;;) {
          Result<bool> more = pending->NextShard(&shard);
          if (!more.ok()) {
            response.emplace(more.status());
            break;
          }
          if (!*more) break;
          if (shards.empty()) out.first_shard_ns = NowNs() - start;
          ++counters_.frames;
          shards.push_back(std::move(shard));
        }
      }
      if (!response.has_value()) response.emplace(pending->Wait());
      ++counters_.frames;
    }
    if (!response->ok()) {
      out.status = response->status();
    } else {
      FromWire(*std::move(*response), shards, request.stream, &out);
    }
    CountResult(out, &counters_);
    return out;
  }

  Status Close(size_t slot) override {
    WireRequest request;
    request.type = WireFrameType::kClose;
    request.session = sessions_[slot];
    PRIVMARK_ASSIGN_OR_RETURN(WireResponse response, client_.Call(request));
    RetireJournal(config_.journal_dir, sessions_[slot], &counters_);
    sessions_.erase(slot);
    return response.status;
  }

 private:
  const StackConfig& config_;
  const uint16_t port_;
  DaemonClient client_;
  std::map<size_t, std::string> sessions_;
};

class DaemonStack : public Stack {
 public:
  explicit DaemonStack(const StackConfig& config)
      : config_(config), daemon_(DaemonConfigFor(config)) {}
  ~DaemonStack() override { daemon_.Shutdown(); }

  Status Start() { return daemon_.Start(0); }

  Result<std::unique_ptr<Lane>> NewLane() override {
    auto lane = std::make_unique<DaemonLane>(config_, daemon_.port());
    PRIVMARK_RETURN_NOT_OK(lane->Connect());
    return std::unique_ptr<Lane>(std::move(lane));
  }

 private:
  static privmark::DaemonConfig DaemonConfigFor(const StackConfig& config) {
    privmark::DaemonConfig daemon;
    daemon.service = ServiceConfigFor(config);
    daemon.schema = privmark::MedicalSchema();
    const privmark::MedicalDataset* ontologies = config.ontologies;
    daemon.metrics_for_config = [ontologies](const FrameworkConfig& fc) {
      return MetricsFor(fc, *ontologies);
    };
    return daemon;
  }

  const StackConfig& config_;
  PrivmarkDaemon daemon_;
};

// ---- depth 2: frame + table codec around an in-process service --------

class WireLane : public Lane {
 public:
  WireLane(const StackConfig& config, PrivmarkService* service)
      : config_(config),
        service_(service),
        request_decoder_(privmark::MedicalSchema()),
        response_decoder_(privmark::MedicalSchema()) {}

  Status Open(size_t slot, const std::string& name,
              const privmark::WireOpenRequest& ward) override {
    sessions_[slot] = name;
    return OpenInService(service_, name, ward, *config_.ontologies);
  }

  OpResult Run(size_t slot, const Op& op, const TraceCtx& ctx) override {
    const WireRequest request = ToWire(op, sessions_[slot]);
    OpResult out;
    Result<WireResponse> back = Run(request, ctx, &out);
    if (!back.ok()) {
      out.status = back.status();
    } else {
      FromWire(*std::move(back), shards_, request.stream, &out);
    }
    shards_.clear();
    CountResult(out, &counters_);
    return out;
  }

  Status Close(size_t slot) override {
    return CloseInService(service_, &sessions_, slot, config_, &counters_);
  }

 private:
  // One frame's trip through the codec, as the sender encodes it and the
  // receiver decodes it.
  Result<std::string> SendFrame(WireFrame frame, uint64_t* bytes) {
    PRIVMARK_ASSIGN_OR_RETURN(
        std::string wire,
        privmark::EncodeWireFrame(frame, privmark::kWireProtocolV2));
    *bytes += wire.size();
    ++counters_.frames;
    return wire;
  }
  static Result<WireFrame> ReceiveFrame(const std::string& wire) {
    PRIVMARK_ASSIGN_OR_RETURN(
        size_t body, privmark::WireFrameBodyLength(wire.data(),
                                                   privmark::kWireProtocolV2));
    return privmark::DecodeWireFrameBody(
        wire.data(), wire.data() + privmark::kWireFrameHeaderBytes, body,
        privmark::kWireProtocolV2);
  }

  Result<WireResponse> Run(const WireRequest& request, const TraceCtx& ctx,
                           OpResult* out) {
    ScopedSpan root(ctx, "service.wire");
    const TraceCtx in = root.child();
    const int64_t start = NowNs();
    const uint64_t id = next_id_++;

    std::string up;
    {
      ScopedSpan span(in, "wire.encode");
      WireFrame frame;
      frame.type = request.type;
      frame.request_id = id;
      frame.streamed = request.stream;
      frame.payload =
          privmark::EncodeWireRequest(request, &request_encoder_);
      PRIVMARK_ASSIGN_OR_RETURN(
          up, SendFrame(std::move(frame), &counters_.bytes_up));
    }
    ServiceRequest service_request;
    WireFrameType type;
    {
      ScopedSpan span(in, "wire.decode");
      PRIVMARK_ASSIGN_OR_RETURN(WireFrame frame, ReceiveFrame(up));
      type = frame.type;
      PRIVMARK_ASSIGN_OR_RETURN(
          WireRequest decoded,
          privmark::DecodeWireRequest(frame.type, frame.payload,
                                      &request_decoder_));
      PRIVMARK_ASSIGN_OR_RETURN(service_request,
                                privmark::ToServiceRequest(decoded));
    }
    TraceCtx strand_ctx = in;
    Status shard_status = Status::OK();
    if (request.stream) {
      // Runs on the strand thread, as the daemon's partial writes do.
      service_request.fingerprint_sink = [&](const FingerprintShard& shard) {
        if (!shard_status.ok()) return;
        std::string wire;
        {
          ScopedSpan span(strand_ctx, "wire.encode");
          WireFrame frame;
          frame.type = WireFrameType::kPartial;
          frame.request_id = id;
          frame.final_frame = false;
          frame.streamed = true;
          frame.payload = privmark::EncodeWireFingerprintShard(shard);
          Result<std::string> sent =
              SendFrame(std::move(frame), &counters_.bytes_down);
          if (!sent.ok()) {
            shard_status = sent.status();
            return;
          }
          wire = *std::move(sent);
        }
        ScopedSpan span(strand_ctx, "wire.decode");
        Result<WireFrame> frame = ReceiveFrame(wire);
        Result<WireFingerprintShard> decoded =
            frame.ok() ? privmark::DecodeWireFingerprintShard(frame->payload)
                       : Result<WireFingerprintShard>(frame.status());
        if (!decoded.ok()) {
          shard_status = decoded.status();
          return;
        }
        if (shards_.empty()) out->first_shard_ns = NowNs() - start;
        shards_.push_back(*std::move(decoded));
      };
    }
    std::optional<Result<ServiceResponse>> result;
    {
      ScopedSpan span(in, "service.call");
      strand_ctx = span.child();
      result.emplace(service_->Submit(std::move(service_request)).get());
    }
    PRIVMARK_RETURN_NOT_OK(shard_status);
    std::string down;
    {
      ScopedSpan span(in, "wire.encode");
      WireResponse response =
          privmark::ToWireResponse(type, std::move(*result));
      WireFrame frame;
      frame.type = WireFrameType::kResponse;
      frame.request_id = id;
      frame.streamed = request.stream;
      frame.payload =
          request.stream
              ? privmark::EncodeWireResponseStreamedTails(response)
              : privmark::EncodeWireResponse(response, &response_encoder_);
      PRIVMARK_ASSIGN_OR_RETURN(
          down, SendFrame(std::move(frame), &counters_.bytes_down));
    }
    ScopedSpan span(in, "wire.decode");
    PRIVMARK_ASSIGN_OR_RETURN(WireFrame frame, ReceiveFrame(down));
    return request.stream
               ? privmark::DecodeWireResponseStreamedTails(frame.payload)
               : privmark::DecodeWireResponse(frame.payload,
                                              &response_decoder_);
  }

  const StackConfig& config_;
  PrivmarkService* service_;
  std::map<size_t, std::string> sessions_;
  uint64_t next_id_ = 1;
  privmark::WireTableEncoder request_encoder_;
  privmark::WireTableDecoder request_decoder_;
  privmark::WireTableEncoder response_encoder_;
  privmark::WireTableDecoder response_decoder_;
  std::vector<WireFingerprintShard> shards_;
};

// ---- depth 3: the in-process service ----------------------------------

class ServiceLane : public Lane {
 public:
  ServiceLane(const StackConfig& config, PrivmarkService* service)
      : config_(config), service_(service) {}

  Status Open(size_t slot, const std::string& name,
              const privmark::WireOpenRequest& ward) override {
    sessions_[slot] = name;
    return OpenInService(service_, name, ward, *config_.ontologies);
  }

  OpResult Run(size_t slot, const Op& op, const TraceCtx& ctx) override {
    ServiceRequest request = ToService(op, sessions_[slot]);
    OpResult out;
    std::vector<WireFingerprintShard> shards;
    int64_t start = 0;
    if (op.kind == OpKind::kFingerprint && op.stream) {
      request.fingerprint_sink = [&](const FingerprintShard& shard) {
        if (shards.empty()) out.first_shard_ns = NowNs() - start;
        shards.push_back(CopyShard(shard));
      };
    }
    std::optional<Result<ServiceResponse>> result;
    {
      ScopedSpan root(ctx, "service.queue");
      start = NowNs();
      result.emplace(service_->Submit(std::move(request)).get());
    }
    FromService(std::move(*result), shards, op.stream, &out);
    CountResult(out, &counters_);
    return out;
  }

  Status Close(size_t slot) override {
    return CloseInService(service_, &sessions_, slot, config_, &counters_);
  }

 private:
  const StackConfig& config_;
  PrivmarkService* service_;
  std::map<size_t, std::string> sessions_;
};

class ServiceStack : public Stack {
 public:
  ServiceStack(const StackConfig& config, int depth)
      : config_(config), depth_(depth), service_(ServiceConfigFor(config)) {}

  Result<std::unique_ptr<Lane>> NewLane() override {
    if (depth_ == kDepthWire) {
      return std::unique_ptr<Lane>(new WireLane(config_, &service_));
    }
    return std::unique_ptr<Lane>(new ServiceLane(config_, &service_));
  }

 private:
  const StackConfig& config_;
  const int depth_;
  PrivmarkService service_;
};

// ---- depth 4: a bare ProtectionSession --------------------------------

class SessionLane : public Lane {
 public:
  explicit SessionLane(const StackConfig& config)
      : config_(config),
        pool_(privmark::MakeThreadPool(config.session_threads)) {}

  Status Open(size_t slot, const std::string& name,
              const privmark::WireOpenRequest& ward) override {
    Slot& s = slots_[slot];
    s.name = name;
    FrameworkConfig config = FrameworkConfigFor(ward);
    config.binning.pool = pool_.get();
    config.watermark.pool = pool_.get();
    PRIVMARK_ASSIGN_OR_RETURN(privmark::UsageMetrics metrics,
                              MetricsFor(config, *config_.ontologies));
    s.session = std::make_unique<privmark::ProtectionSession>(
        std::move(metrics), config, SessionConfigFor(ward));
    if (!config_.journal_dir.empty()) {
      PRIVMARK_ASSIGN_OR_RETURN(
          std::unique_ptr<privmark::SessionJournal> journal,
          privmark::SessionJournal::Create(
              JournalPath(config_.journal_dir, name)));
      PRIVMARK_RETURN_NOT_OK(s.session->AttachJournal(std::move(journal)));
    }
    return Status::OK();
  }

  OpResult Run(size_t slot, const Op& op, const TraceCtx& ctx) override {
    privmark::ProtectionSession* session = slots_[slot].session.get();
    OpResult out;
    std::vector<WireFingerprintShard> shards;
    int64_t start = 0;
    ScopedSpan root(ctx, "core.session");
    start = NowNs();
    switch (op.kind) {
      case OpKind::kIngest: {
        Result<privmark::IngestResult> r = session->Ingest(*op.table);
        if (!r.ok()) {
          out.status = r.status();
          break;
        }
        out.emitted = std::move(r->emitted);
        out.closed_epoch = r->flushed;
        out.epoch = r->epoch;
        break;
      }
      case OpKind::kFlush: {
        Result<privmark::EpochOutput> r = session->Flush();
        if (!r.ok()) {
          out.status = r.status();
          break;
        }
        out.emitted = std::move(r->outcome.watermarked);
        out.closed_epoch = true;
        out.epoch = r->epoch;
        break;
      }
      case OpKind::kDetect: {
        Result<std::vector<DetectReport>> r =
            session->DetectAcrossEpochs(*op.table);
        if (!r.ok()) {
          out.status = r.status();
          break;
        }
        out.reports = *std::move(r);
        break;
      }
      case OpKind::kFingerprint: {
        Result<std::vector<FingerprintReport>> r =
            session->FingerprintAcrossEpochsStreamed(
                *op.table, *op.registry, [&](const FingerprintShard& shard) {
                  if (shards.empty()) out.first_shard_ns = NowNs() - start;
                  shards.push_back(CopyShard(shard));
                });
        if (!r.ok()) {
          out.status = r.status();
          break;
        }
        out.fingerprints = Reassemble(shards, *r);
        break;
      }
    }
    out.threads_granted = config_.session_threads;
    CountResult(out, &counters_);
    return out;
  }

  Status Close(size_t slot) override {
    const std::string name = slots_[slot].name;
    slots_.erase(slot);
    RetireJournal(config_.journal_dir, name, &counters_);
    return Status::OK();
  }

 private:
  struct Slot {
    std::string name;
    std::unique_ptr<privmark::ProtectionSession> session;
  };

  const StackConfig& config_;
  std::unique_ptr<privmark::ThreadPool> pool_;
  std::map<size_t, Slot> slots_;
};

class BareStack : public Stack {
 public:
  BareStack(const StackConfig& config, int depth)
      : config_(config), depth_(depth) {}

  Result<std::unique_ptr<Lane>> NewLane() override {
    if (depth_ == kDepthStages) return MakeStageLane(config_);
    return std::unique_ptr<Lane>(new SessionLane(config_));
  }

 private:
  const StackConfig& config_;
  const int depth_;
};

}  // namespace

Result<std::unique_ptr<Stack>> MakeStack(int depth, const StackConfig& config) {
  switch (depth) {
    case kDepthNet: {
      auto stack = std::make_unique<DaemonStack>(config);
      PRIVMARK_RETURN_NOT_OK(stack->Start());
      return std::unique_ptr<Stack>(std::move(stack));
    }
    case kDepthWire:
    case kDepthQueue:
      return std::unique_ptr<Stack>(new ServiceStack(config, depth));
    case kDepthSession:
    case kDepthStages:
      return std::unique_ptr<Stack>(new BareStack(config, depth));
    default:
      return Status::InvalidArgument("no stack depth " +
                                     std::to_string(depth));
  }
}

}  // namespace perfbench
