#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t request,
                       uint32_t lane) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.lane = lane;
  std::lock_guard<std::mutex> lock(mu_);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.lane,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const TraceCtx& ctx, const char* name) : ctx_(ctx) {
  if (ctx_.log != nullptr) {
    id_ = ctx_.log->Begin(name, ctx_.parent, ctx_.request, ctx_.lane);
  }
}

ScopedSpan::~ScopedSpan() {
  if (ctx_.log != nullptr) ctx_.log->End(id_);
}

TraceCtx ScopedSpan::child() const {
  TraceCtx nested = ctx_;
  if (ctx_.log != nullptr) nested.parent = id_;
  return nested;
}

}  // namespace perfbench
