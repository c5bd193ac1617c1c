// The traced run's outside decomposition of a query: each module's public
// functions called from here, one span per call, plus the breakdown table.
#ifndef LQBENCH_TRACE_H_
#define LQBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "run.h"
#include "workload.h"

namespace lqbench {

/// One breakdown table row.
struct LayerRow {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

struct Decomposition {
  std::map<std::string, double> metrics;
  size_t queries = 0;
  size_t wrong = 0;
  std::vector<std::string> examples;
  /// Lines naming what the per-layer figures say about the known anomalies.
  std::vector<std::string> readings;
  int64_t answer_ns = 0;
  /// Rows for the replica sweep's steps, which are timed with bare clock
  /// reads rather than spans; the `cwdb.enumerate` row takes their time
  /// off the walk span's self time.
  std::map<std::string, LayerRow> sweep_rows;
};

/// Decomposes the queries `texts` (in order, at least `min_queries` and then
/// until `budget_s` is spent) on a fresh copy of the world: parse, bind,
/// compile, reduce, the exact engine's answer with and without the memo,
/// the batched reference, parallel-exact at 1 and 4 threads, and a replica
/// of the compiled Theorem 1 sweep that times enumeration, memo signatures,
/// image builds and plan execution per mapping. Every engine answer and the
/// replica's must agree; a replica whose counts differ from the engine's is
/// reported in `readings`, not failed. Also times a result-cache hit on the
/// live service.
Decomposition Decompose(const Workload& w, Live* live,
                        const std::vector<int32_t>& texts, size_t min_queries,
                        double budget_s, SpanLog* log,
                        std::atomic<uint32_t>* next_request);

/// Prints layer, calls and self time over every span in `logs` plus the
/// rows `extra` (added to the span rows of the same name), and each layer's
/// share of `answer_ns` when it is positive.
void PrintBreakdown(const std::vector<const SpanLog*>& logs, int64_t answer_ns,
                    const std::map<std::string, LayerRow>& extra, FILE* out);

/// Mean duration in µs of the spans called `name`; 0 when there are none.
double MeanSpanUs(const std::vector<const SpanLog*>& logs, const char* name);

/// Cost of recording one span (begin + end), measured on a scratch log.
double SpanCostNs();

/// Writes every span as CSV (log, id, parent, request, name, start, end).
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace lqbench

#endif  // LQBENCH_TRACE_H_
