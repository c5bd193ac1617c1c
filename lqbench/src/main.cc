// lqbench: end-to-end and per-layer benchmark of lqdb's served query path.
//
//   lqbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer ones, print the breakdown table and
// write every span to DIR. The last stdout line is one JSON object.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.h"
#include "run.h"
#include "trace.h"
#include "workload.h"

namespace lqbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

// The tail percentile of reads and updates. Not p99: on service-mix about
// a fifth of the reads miss the result cache, so p90 is a typical miss,
// while p99 is the few reads stuck behind a writer, which on a host with
// CPU steal moved by a third between runs. p90 leaves more than ten
// samples beyond it on every workload at the run lengths used.
constexpr int kTailPct = 90;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_build/lqbench-out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && have_seed &&
         a->seconds > 0;
}

struct Metric {
  double value;
  const char* unit;
};

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Per-layer metric names carry their unit: *_ms, *_us and *_us_per_<x>,
// *_per_s, speedups and ratios; the rest are counts.
const char* UnitOf(const std::string& name) {
  auto has = [&](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (has("_ms")) return "ms";
  if (has("_us")) return "us";
  if (has("_per_s")) return "1/s";
  if (has("speedup")) return "x";
  if (has("ratio") || has("coverage") || has("overhead") ||
      has("cpu_per_wall")) {
    return "ratio";
  }
  return "count";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lqbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  Workload w;
  std::string error;
  if (!MakeWorkload(args.workload, args.seed, &w, &error)) {
    std::fprintf(stderr, "lqbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("lqbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("world: constants=%zu facts=%zu canonical_mappings=%llu "
              "clients=%d texts=%zu\n",
              w.constants, w.facts, static_cast<unsigned long long>(w.mappings),
              w.clients, w.texts.size());
  std::printf("inputs: world_digest=%016llx ops_digest=%016llx\n",
              static_cast<unsigned long long>(w.world_digest),
              static_cast<unsigned long long>(w.ops_digest));
  std::fflush(stdout);

  // Set-up, several times; the last one serves the timed phase.
  SpanLog setup_log;
  SpanLog* slog = args.trace ? &setup_log : nullptr;
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  Live live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Live attempt;
    int64_t load_ns = 0;
    const int64_t t0 = NowNs();
    if (!SetUp(w, slog, &attempt, &load_ns, &error)) {
      std::fprintf(stderr, "lqbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    load_ms.push_back(NsToMs(load_ns));
    if (rep + 1 == kSetupReps) live = std::move(attempt);
  }

  std::atomic<uint32_t> next_request{1};
  std::vector<SpanLog> client_logs(args.trace ? w.clients : 0);
  const TimedResult timed = RunTimed(w, &live, args.seconds,
                                     args.trace ? &client_logs : nullptr,
                                     &next_request);

  // Latencies of the timed phase's successful reads and updates.
  size_t attempted = 0, failed = 0, refused = 0;
  std::vector<double> read_ms, update_ms;
  for (const auto& recs : timed.records) {
    for (const OpRecord& r : recs) {
      ++attempted;
      if (!r.ok) {
        ++failed;
        if (r.refused) ++refused;
        continue;
      }
      (r.text >= 0 ? read_ms : update_ms).push_back(r.ms);
    }
  }

  Decomposition dec;
  SpanLog dec_log;
  if (args.trace) {
    // The run's own texts in the order it read them (one template round
    // first); the service-mix pool in Zipf rank order.
    std::vector<int32_t> sample;
    if (w.distinct_texts) {
      for (const OpRecord& r : timed.records[0]) {
        if (r.text >= 0) sample.push_back(r.text);
      }
    } else {
      for (size_t t = 0; t < w.texts.size(); ++t) {
        sample.push_back(static_cast<int32_t>(t));
      }
    }
    dec = Decompose(w, &live, sample, 3, args.seconds / 4, &dec_log,
                    &next_request);
    attempted += dec.queries;
  }

  const CheckResult check = CheckAnswers(w, timed, live.initial_state);
  const size_t wrong = check.wrong + dec.wrong;
  const size_t bad = failed + wrong;
  const bool correct = bad == 0 && check.checked > 0;

  const Tail qtail = TailOf(read_ms, kTailPct);
  const Tail utail = TailOf(update_ms, kTailPct);
  const double qps = static_cast<double>(read_ms.size()) / timed.wall_s;
  const double cpu_ms_per_read =
      timed.cpu_s * 1e3 /
      static_cast<double>(std::max<size_t>(1, read_ms.size()));
  // Throughput and the median read and update latencies are printed but
  // are not end-to-end metrics: on service-mix they are mostly waiting (the
  // pool's thread wake-ups, which on a virtual machine go through the
  // hypervisor, and updates waiting for the other session's read). On a
  // 4-core virtual machine they moved with the host's load by 0.17-0.44 of
  // their median between runs, CPU time per read and the p90 read (a
  // result-cache miss) by 0.04-0.10.
  std::printf("timed: %.3f s wall, %zu reads (%.3f/s), %zu updates, "
              "%zu failed (%zu refused), cpu/wall %.3f\n",
              timed.wall_s, read_ms.size(), qps, update_ms.size(), failed,
              refused, timed.cpu_s / timed.wall_s);
  for (const auto& [name, samples, t] :
       {std::make_tuple("read", &read_ms, qtail),
        std::make_tuple("update", &update_ms, utail)}) {
    if (samples->empty()) continue;
    std::printf("%s latency: p50 %.6f ms, p%d %.6f ms (%zu samples, %zu "
                "beyond%s)\n",
                name, Median(*samples), t.percentile, t.value, t.samples,
                t.beyond, t.beyond < 10 ? "; WARNING: fewer than 10" : "");
  }
  std::printf("check: %zu reads against %zu batched-exact references, "
              "%zu wrong, %.2f s\n",
              check.checked, check.references, check.wrong, check.seconds);
  for (const std::string& e : check.examples) {
    std::printf("  %s\n", e.c_str());
  }
  for (const std::string& e : dec.examples) std::printf("  %s\n", e.c_str());
  std::printf("failed_frac = %.6f\n",
              attempted == 0 ? 1.0
                             : static_cast<double>(bad) /
                                   static_cast<double>(attempted));

  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["cpu_ms_per_read"] = {cpu_ms_per_read, "ms"};
    metrics["query_tail_ms"] = {qtail.value, "ms"};
    metrics["ok_frac"] = {
        attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(bad) /
                                   static_cast<double>(attempted),
        "ratio"};
    metrics["peak_rss_mb"] = {timed.peak_rss_mb, "MiB"};
  } else {
    std::vector<const SpanLog*> loop_logs;
    size_t loop_spans = 0;
    for (const SpanLog& l : client_logs) {
      loop_logs.push_back(&l);
      loop_spans += l.spans().size();
    }
    const lqdb::ServiceStats& b = timed.before;
    const lqdb::ServiceStats& a = timed.after;
    const double span_ns = SpanCostNs();
    std::map<std::string, double> layer = dec.metrics;
    layer["io.load_ms"] = Median(load_ms);
    layer["service.prepare_us"] = MeanSpanUs(loop_logs, "service.prepare");
    layer["service.prepare_hit_ratio"] =
        Ratio(a.cache_hits - b.cache_hits, a.prepares - b.prepares);
    layer["service.result_hit_ratio"] =
        Ratio(a.result_hits - b.result_hits,
              (a.result_hits + a.result_misses) -
                  (b.result_hits + b.result_misses));
    layer["service.invalidations"] =
        static_cast<double>(a.result_invalidations - b.result_invalidations);
    layer["service.update_us"] = MeanSpanUs(loop_logs, "service.update");
    layer["process.cpu_per_wall"] = timed.cpu_s / timed.wall_s;
    layer["trace.queries_per_s"] = qps;
    layer["trace.overhead"] = static_cast<double>(loop_spans) * span_ns /
                              (timed.wall_s * 1e9 * w.clients);

    std::vector<const SpanLog*> served = {&setup_log};
    for (const SpanLog* l : loop_logs) served.push_back(l);
    std::printf("\nset-up and timed phase at the service boundary:\n");
    PrintBreakdown(served, 0, {}, stdout);
    std::printf("\noutside decomposition of %zu queries (%%answer: share of "
                "the exact engine's %.3f ms):\n",
                dec.queries, NsToMs(dec.answer_ns));
    PrintBreakdown({&dec_log}, dec.answer_ns, dec.sweep_rows, stdout);
    for (const std::string& r : dec.readings) std::printf("%s\n", r.c_str());
    std::printf("tracing overhead: %zu spans in the timed phase at %.1f ns "
                "each = %.4f%% of client time; compare trace.queries_per_s "
                "with the reads per second of an untraced run\n",
                loop_spans, span_ns, 100.0 * layer["trace.overhead"]);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/spans-" + w.name + "-" +
                             std::to_string(args.seed) + ".csv";
    served.push_back(&dec_log);
    if (WriteSpans(path, served)) {
      std::printf("spans written to %s\n", path.c_str());
    }
    for (const auto& [name, value] : layer) {
      metrics[name] = {value, UnitOf(name)};
    }
  }
  for (const auto& [name, m] : metrics) {
    std::printf("%-32s %16.6f %s\n", name.c_str(), m.value, m.unit);
  }
  PrintJson(correct, attempted, bad, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lqbench

int main(int argc, char** argv) { return lqbench::Main(argc, argv); }
