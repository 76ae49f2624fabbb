// In-memory span recording for the traced run. Spans are appended under
// a mutex (strand threads record the streamed-shard codec spans while
// the caller waits), kept in memory, and written out once at the end.
// A null SpanLog records nothing, so untraced runs pay one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "benchmath.h"

namespace perfbench {

int64_t NowNs();

class SpanLog {
 public:
  /// Opens a span and returns its index (the parent of nested spans).
  int64_t Begin(const char* name, int64_t parent, uint64_t request,
                uint32_t lane);
  void End(int64_t id);

  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, one
  /// thread row per lane, request and parent in args).
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief Where a layer call's spans go: the log (null = untraced), the
/// enclosing span, and the request and lane they belong to.
struct TraceCtx {
  SpanLog* log = nullptr;
  int64_t parent = -1;
  uint64_t request = 0;
  uint32_t lane = 0;
};

/// \brief RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(const TraceCtx& ctx, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Context for spans nested inside this one.
  TraceCtx child() const;

 private:
  TraceCtx ctx_;
  int64_t id_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
