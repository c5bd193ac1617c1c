// Shared helpers of the lqbench program: clock, percentiles, hashing and the
// in-memory span log used by traced runs.
#ifndef LQBENCH_COMMON_H_
#define LQBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lqdb/relational/relation.h"

namespace lqbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Linear-interpolated percentile (`q` in [0, 100]) of unsorted samples;
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// A tail percentile with the sample count behind it: `beyond` samples lie
/// strictly above `value`.
struct Tail {
  double value = 0;
  int percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(const std::vector<double>& samples, int percentile);

uint64_t Fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ull);

/// Order-independent digest of a relation (arity, size and a commutative
/// sum of mixed per-tuple hashes), so two answers compare without sorting.
uint64_t AnswerHash(const lqdb::Relation& rel);

/// One traced call: `parent` is an index into the same log (or -1), and
/// every span of one request carries that request's id.
struct Span {
  const char* name;
  int32_t parent;
  uint32_t request;
  int64_t start_ns;
  int64_t end_ns;
};

/// Append-only span log owned by one thread. A null log disables tracing:
/// `ScopedSpan` then records nothing, which is the untraced run.
class SpanLog {
 public:
  int32_t Begin(const char* name, int32_t parent, uint32_t request) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

/// Runs `f(span_id)` inside a span of `log` (which must be non-null) and
/// returns the span's duration in ns.
template <typename F>
int64_t TimeSpan(SpanLog* log, const char* name, int32_t parent,
                 uint32_t request, F&& f) {
  const int32_t id = log->Begin(name, parent, request);
  f(id);
  log->End(id);
  const Span& s = log->spans()[static_cast<size_t>(id)];
  return s.end_ns - s.start_ns;
}

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent, uint32_t request)
      : log_(log), id_(log ? log->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace lqbench

#endif  // LQBENCH_COMMON_H_
