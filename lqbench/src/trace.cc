#include "trace.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "lqdb/cwdb/mapping.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/eval/kernel_memo.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "lqdb/ra/semijoin.h"

namespace lqbench {

namespace {

using lqdb::BoundQuery;
using lqdb::CwDatabase;
using lqdb::Relation;
using lqdb::Result;
using lqdb::Status;

/// Totals of the replica sweep for one query.
struct SweepTotals {
  uint64_t examined = 0;
  uint64_t images = 0;
  uint64_t image_rows = 0;
  uint64_t root_rows = 0;
  uint64_t row_hits = 0;
  uint64_t skipped = 0;
  int64_t context_ns = 0;
  int64_t enumerate_ns = 0;  // whole walk, children and timers included
  int64_t signature_ns = 0;
  int64_t image_ns = 0;
  int64_t execute_ns = 0;

  SweepTotals& operator+=(const SweepTotals& o) {
    examined += o.examined;
    images += o.images;
    image_rows += o.image_rows;
    root_rows += o.root_rows;
    row_hits += o.row_hits;
    skipped += o.skipped;
    context_ns += o.context_ns;
    enumerate_ns += o.enumerate_ns;
    signature_ns += o.signature_ns;
    image_ns += o.image_ns;
    execute_ns += o.execute_ns;
    return *this;
  }
};

/// The compiled Theorem 1 certain-answer sweep with the kernel memo on, as
/// the default `exact` engine runs it, assembled from the modules' public
/// functions so each step can be timed: every mapping costs a memo
/// signature and lookup; every mapping the memo cannot fully serve also
/// builds its image and executes the semijoin-reduced plan with the missing
/// candidates bound. The walk is one span; the steps inside it are timed
/// with bare clock reads, whose cost `MeasureTimerCost` gives, because a
/// span per step would add more to the walk than some steps take.
Result<Relation> ReplicaSweep(const CwDatabase& db, const BoundQuery& bound,
                              const lqdb::ReducedPlan& red, SpanLog* log,
                              int32_t parent, uint32_t request,
                              SweepTotals* t) {
  const size_t arity = bound.arity();
  std::vector<lqdb::Tuple> alive = lqdb::AllCandidateTuples(
      arity, static_cast<lqdb::ConstId>(db.num_constants()));
  lqdb::PhysicalDatabase image(&db.vocab());
  lqdb::RaExecutor exec(&image);
  lqdb::KernelMemo memo(true);
  std::optional<lqdb::KernelSignatureContext> ctx;
  t->context_ns = TimeSpan(log, "memo.context", parent, request, [&](int32_t) {
    ctx.emplace(db, bound.constants());
  });
  const std::vector<lqdb::PredId> preds = db.PredicatesWithFacts();
  lqdb::KernelSignatureScratch sig;
  std::vector<lqdb::Value> rows;
  std::vector<uint32_t> miss;
  std::vector<lqdb::Value> cand;
  std::vector<char> verdicts;
  Status error;

  auto timed = [](int64_t* acc, auto&& f) {
    const int64_t t0 = NowNs();
    f();
    *acc += NowNs() - t0;
  };
  t->enumerate_ns = TimeSpan(log, "cwdb.enumerate", parent, request,
                             [&](int32_t) {
    lqdb::ForEachCanonicalMapping(db, [&](const lqdb::ConstMapping& h) {
      ++t->examined;
      const size_t count = alive.size();
      verdicts.assign(count, 0);
      miss.clear();
      uint32_t sig_id = 0;
      timed(&t->signature_ns, [&] {
        ctx->SignatureOf(h, &sig);
        sig_id = memo.InternSignature(sig.sig);
        rows.resize(count * arity);
        for (size_t k = 0; k < count; ++k) {
          lqdb::Value* row = rows.data() + k * arity;
          for (size_t i = 0; i < arity; ++i) {
            row[i] = sig.relabel[h[alive[k][i]]];
          }
          const int v = memo.LookupRow(sig_id, row, arity);
          if (v < 0) {
            miss.push_back(static_cast<uint32_t>(k));
          } else {
            verdicts[k] = static_cast<char>(v);
          }
        }
      });
      t->row_hits += count - miss.size();
      if (miss.empty()) {
        ++t->skipped;
      } else {
        ++t->images;
        timed(&t->image_ns, [&] { lqdb::ApplyMappingInto(db, h, &image); });
        for (lqdb::PredId p : preds) {
          if (image.HasRelation(p)) t->image_rows += image.relation(p).size();
        }
        timed(&t->execute_ns, [&] {
          cand.resize(miss.size() * arity);
          for (size_t j = 0; j < miss.size(); ++j) {
            for (size_t i = 0; i < arity; ++i) {
              cand[j * arity + i] = h[alive[miss[j]][i]];
            }
          }
          if (red.param != nullptr) {
            exec.BindParam(red.param.get(), cand.data(), miss.size());
          }
          Result<const lqdb::RaTableView*> table = exec.ExecuteView(red.plan);
          if (!table.ok()) {
            error = table.status();
            return;
          }
          t->root_rows += (*table)->rows.size();
          for (size_t j = 0; j < miss.size(); ++j) {
            const bool v = (*table)->rows.Contains(cand.data() + j * arity);
            verdicts[miss[j]] = static_cast<char>(v);
            memo.InsertRow(sig_id, rows.data() + miss[j] * arity, arity, v);
          }
        });
        if (!error.ok()) return false;
      }
      size_t kept = 0;
      for (size_t k = 0; k < count; ++k) {
        if (!verdicts[k]) continue;
        if (kept != k) alive[kept] = std::move(alive[k]);
        ++kept;
      }
      alive.resize(kept);
      return !alive.empty();
    });
  });
  if (!error.ok()) return error;
  Relation answer(static_cast<int>(arity));
  for (lqdb::Tuple& tuple : alive) answer.Insert(std::move(tuple));
  return answer;
}

/// What timing one replica step with two bare clock reads costs:
/// `inside_ns` is what an empty step reads, `outside_ns` what it adds to
/// the enclosing walk beyond that.
struct TimerCost {
  double inside_ns = 0;
  double outside_ns = 0;
};

TimerCost MeasureTimerCost() {
  constexpr int kSteps = 200000;
  int64_t inside = 0;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSteps; ++i) {
    const int64_t s = NowNs();
    inside += NowNs() - s;
  }
  const int64_t total = NowNs() - t0;
  return {static_cast<double>(inside) / kSteps,
          static_cast<double>(total - inside) / kSteps};
}

/// The replica's step times with the timers' own cost taken out: each
/// step less the clock read inside it, the walk's self time (enumeration)
/// less the clock reads around the steps.
struct NetTimes {
  int64_t walk_ns = 0;
  int64_t signature_ns = 0;
  int64_t image_ns = 0;
  int64_t execute_ns = 0;
  int64_t timers_ns = 0;
  uint64_t steps = 0;
};

NetTimes Net(const SweepTotals& t, const TimerCost& c) {
  auto less = [](int64_t ns, double cost, uint64_t n) {
    return std::max<int64_t>(
        0, ns - std::llround(cost * static_cast<double>(n)));
  };
  NetTimes n;
  n.steps = t.examined + 2 * t.images;  // signature; image and execute
  n.signature_ns = less(t.signature_ns, c.inside_ns, t.examined);
  n.image_ns = less(t.image_ns, c.inside_ns, t.images);
  n.execute_ns = less(t.execute_ns, c.inside_ns, t.images);
  n.timers_ns = std::llround((c.inside_ns + c.outside_ns) *
                             static_cast<double>(n.steps));
  n.walk_ns = std::max<int64_t>(0, t.enumerate_ns - n.signature_ns -
                                       n.image_ns - n.execute_ns -
                                       n.timers_ns);
  return n;
}

Result<std::unique_ptr<lqdb::QueryEngine>> MakeEngine(const char* name,
                                                      CwDatabase* db,
                                                      bool memo, int threads) {
  lqdb::EngineOptions options;
  options.exact.memo = memo;
  options.threads = threads;
  return lqdb::EngineRegistry::Global().Create(name, db, options);
}

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

}  // namespace

Decomposition Decompose(const Workload& w, Live* live,
                        const std::vector<int32_t>& texts, size_t min_queries,
                        double budget_s, SpanLog* log,
                        std::atomic<uint32_t>* next_request) {
  Decomposition d;
  auto fail = [&](const std::string& what) {
    ++d.wrong;
    if (d.examples.size() < 5) d.examples.push_back(what);
  };
  std::string error;
  std::unique_ptr<CwDatabase> db =
      WorldInState(w, live->initial_state, live->initial_state, &error);
  if (db == nullptr) {
    fail("decomposition world: " + error);
    return d;
  }
  auto exact = MakeEngine("exact", db.get(), true, 0);
  auto exact_nomemo = MakeEngine("exact", db.get(), false, 0);
  auto batched = MakeEngine("batched-exact", db.get(), false, 0);
  auto par1 = MakeEngine("parallel-exact", db.get(), true, 1);
  auto par4 = MakeEngine("parallel-exact", db.get(), true, 4);
  for (auto* e : {&exact, &exact_nomemo, &batched, &par1, &par4}) {
    if (!e->ok()) {
      fail("engine: " + e->status().ToString());
      return d;
    }
  }
  lqdb::RaCardinalities stats;
  stats.domain_size = static_cast<double>(db->num_constants());
  stats.relation_sizes.assign(db->vocab().num_predicates(), 0.0);
  for (lqdb::PredId p : db->PredicatesWithFacts()) {
    stats.relation_sizes[p] = static_cast<double>(db->facts(p).size());
  }
  stats.dp_join_cap = lqdb::ExactOptions{}.ra_dp_join_cap;
  const double mappings = static_cast<double>(w.mappings);
  const TimerCost timer = MeasureTimerCost();

  int64_t parse_ns = 0, bind_ns = 0, compile_ns = 0, reduce_ns = 0;
  int64_t nomemo_ns = 0, batched_ns = 0, par1_ns = 0, par4_ns = 0;
  int64_t hit_ns = 0, covered_ns = 0;
  double plan_nodes = 0;
  uint64_t engine_examined = 0, engine_skipped = 0;
  uint64_t engine_row_hits = 0, engine_row_misses = 0;
  size_t hit_samples = 0, parallel_samples = 0, stale_sweeps = 0;
  SweepTotals sum;

  std::vector<std::unique_ptr<lqdb::Query>> queries;
  std::vector<std::unique_ptr<BoundQuery>> bounds;
  const int64_t t_start = NowNs();
  for (int32_t text_id : texts) {
    if (d.queries >= min_queries &&
        static_cast<double>(NowNs() - t_start) / 1e9 > budget_s) {
      break;
    }
    const std::string& text = w.texts[static_cast<size_t>(text_id)];
    const uint32_t request = next_request->fetch_add(1);
    const int32_t root = log->Begin("decompose", -1, request);

    // Queries and bindings stay alive for the whole decomposition: the
    // exact engine caches semijoin reductions by plan address, so a freed
    // plan whose address is reused would be served a stale reduction.
    queries.push_back(nullptr);
    bounds.push_back(nullptr);
    std::unique_ptr<lqdb::Query>& query = queries.back();
    std::unique_ptr<BoundQuery>& bound = bounds.back();
    Status status;
    parse_ns += TimeSpan(log, "logic.parse", root, request, [&](int32_t) {
      Result<lqdb::Query> q = lqdb::ParseQuery(db->mutable_vocab(), text);
      if (q.ok()) {
        query = std::make_unique<lqdb::Query>(std::move(*q));
      } else {
        status = q.status();
      }
    });
    if (query) {
      bind_ns += TimeSpan(log, "eval.bind", root, request, [&](int32_t) {
        Result<BoundQuery> b = BoundQuery::Bind(*query);
        if (b.ok()) {
          bound = std::make_unique<BoundQuery>(std::move(*b));
        } else {
          status = b.status();
        }
      });
    }
    if (bound) {
      compile_ns += TimeSpan(log, "ra.compile", root, request, [&](int32_t) {
        status = bound->CompileRaPlan(db->vocab(), &stats);
      });
    }
    if (!bound || bound->ra_plan() == nullptr) {
      fail("decomposition cannot compile: " + text + " (" +
           status.ToString() + ")");
      log->End(root);
      continue;
    }
    plan_nodes += static_cast<double>(bound->ra_plan()->NumUniqueNodes());
    lqdb::ReducedPlan red;
    reduce_ns += TimeSpan(log, "ra.reduce", root, request, [&](int32_t) {
      Result<lqdb::ReducedPlan> r = lqdb::SemijoinReduce(bound->ra_plan());
      if (r.ok()) {
        red = std::move(*r);
      } else {
        red.plan = bound->ra_plan();
      }
    });

    Result<Relation> answer = Status::Internal("not run");
    const int64_t answer_ns =
        TimeSpan(log, "exact.answer", root, request,
                 [&](int32_t) { answer = (*exact)->AnswerBound(*bound); });
    if (!answer.ok()) {
      fail("exact: " + answer.status().ToString() + " on " + text);
      log->End(root);
      continue;
    }
    d.answer_ns += answer_ns;
    const uint64_t examined = (*exact)->last_mappings_examined();
    const lqdb::KernelMemoCounters memo = (*exact)->last_memo_counters();
    engine_examined += examined;
    engine_skipped += memo.images_skipped;
    engine_row_hits += memo.row_hits;
    engine_row_misses += memo.row_misses;

    auto agree = [&](const char* who, const Result<Relation>& r) {
      if (!r.ok() || !(*r == *answer)) {
        fail(std::string(who) + " disagrees on " + text);
      }
    };
    Result<Relation> other = Status::Internal("not run");
    nomemo_ns += TimeSpan(log, "exact.answer_nomemo", root, request,
                          [&](int32_t) {
                            other = (*exact_nomemo)->AnswerBound(*bound);
                          });
    agree("exact (memo off)", other);
    batched_ns += TimeSpan(log, "batched.answer", root, request, [&](int32_t) {
      other = (*batched)->Answer(*query);
    });
    agree("batched-exact", other);
    if (parallel_samples < min_queries) {
      ++parallel_samples;
      par1_ns += TimeSpan(log, "parallel.answer_1t", root, request,
                          [&](int32_t) { other = (*par1)->Answer(*query); });
      agree("parallel-exact (1 thread)", other);
      par4_ns += TimeSpan(log, "parallel.answer_4t", root, request,
                          [&](int32_t) { other = (*par4)->Answer(*query); });
      agree("parallel-exact (4 threads)", other);
    }

    SweepTotals t;
    TimeSpan(log, "exact.sweep", root, request, [&](int32_t sweep) {
      other = ReplicaSweep(*db, *bound, red, log, sweep, request, &t);
    });
    agree("replica sweep", other);
    // Counts that differ mean the engine no longer sweeps as the replica
    // does (a new memo policy, say): the replica's unit costs then describe
    // it less well, which trace.coverage shows. Its answers still agree, so
    // this is reported, not failed.
    if (t.examined != examined || t.skipped != memo.images_skipped ||
        t.row_hits != memo.row_hits) {
      if (++stale_sweeps <= 3) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "replica vs engine: examined %llu vs %llu, images "
                      "skipped %llu vs %llu, row hits %llu vs %llu",
                      static_cast<unsigned long long>(t.examined),
                      static_cast<unsigned long long>(examined),
                      static_cast<unsigned long long>(t.skipped),
                      static_cast<unsigned long long>(memo.images_skipped),
                      static_cast<unsigned long long>(t.row_hits),
                      static_cast<unsigned long long>(memo.row_hits));
        d.readings.push_back(buf + (" on " + text));
      }
    }
    // Unit costs from the replica times the engine's own counts.
    const NetTimes net = Net(t, timer);
    const double per_mapping =
        t.examined == 0 ? 0
                        : static_cast<double>(net.walk_ns + net.signature_ns) /
                              static_cast<double>(t.examined);
    const double per_image =
        t.images == 0 ? 0
                      : static_cast<double>(net.image_ns + net.execute_ns) /
                            static_cast<double>(t.images);
    covered_ns += t.context_ns +
                  static_cast<int64_t>(
                      per_mapping * static_cast<double>(examined) +
                      per_image *
                          static_cast<double>(examined - memo.images_skipped));
    sum += t;

    // A result-cache hit on the live service: the first execution may
    // miss (an update can have invalidated the entry), the second cannot.
    lqdb::Session* session = live->sessions[0].get();
    Result<lqdb::PreparedInfo> info = session->Prepare(text);
    if (info.ok()) {
      bool refused = false;
      TimeSpan(log, "service.execute", root, request, [&](int32_t) {
        other = ExecuteHandle(session, info->handle, &refused);
      });
      const int64_t ns =
          TimeSpan(log, "service.execute_hit", root, request, [&](int32_t) {
            other = ExecuteHandle(session, info->handle, &refused);
          });
      if (session->last_trace().cached) {
        hit_ns += ns;
        ++hit_samples;
      }
    }
    log->End(root);
    ++d.queries;
  }

  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double q = static_cast<double>(d.queries);
  const double examined_all = static_cast<double>(sum.examined);
  const double images_all = static_cast<double>(sum.images);
  const NetTimes net = Net(sum, timer);
  auto& m = d.metrics;
  m["logic.parse_us"] = per(NsToUs(parse_ns), q);
  m["eval.bind_us"] = per(NsToUs(bind_ns), q);
  m["ra.compile_us"] = per(NsToUs(compile_ns), q);
  m["ra.plan_nodes"] = per(plan_nodes, q);
  m["ra.reduce_us"] = per(NsToUs(reduce_ns), q);
  m["exact.answer_ms"] = per(NsToMs(d.answer_ns), q);
  m["exact.answer_nomemo_ms"] = per(NsToMs(nomemo_ns), q);
  m["batched.answer_ms"] = per(NsToMs(batched_ns), q);
  m["exact.parallel_speedup"] =
      per(static_cast<double>(par1_ns), static_cast<double>(par4_ns));
  m["cwdb.mappings"] = mappings;
  m["exact.early_exit_ratio"] =
      per(static_cast<double>(engine_examined), q * mappings);
  m["cwdb.enumerate_us_per_mapping"] =
      per(NsToUs(net.walk_ns), examined_all);
  m["memo.signature_us_per_mapping"] =
      per(NsToUs(net.signature_ns), examined_all);
  m["memo.row_hit_ratio"] =
      per(static_cast<double>(engine_row_hits),
          static_cast<double>(engine_row_hits + engine_row_misses));
  m["memo.images_skipped_ratio"] =
      per(static_cast<double>(engine_skipped),
          static_cast<double>(engine_examined));
  m["cwdb.image_us_per_mapping"] = per(NsToUs(net.image_ns), images_all);
  m["cwdb.image_rows"] = per(static_cast<double>(sum.image_rows), images_all);
  m["ra.execute_us_per_image"] = per(NsToUs(net.execute_ns), images_all);
  m["ra.rows_per_image"] = per(static_cast<double>(sum.root_rows), images_all);
  m["service.execute_hit_us"] =
      per(NsToUs(hit_ns), static_cast<double>(hit_samples));
  m["trace.coverage"] =
      per(static_cast<double>(covered_ns), static_cast<double>(d.answer_ns));

  const double answer_ms = m["exact.answer_ms"];
  d.readings.push_back(Fmt(
      "memo: exact %.2f ms with the kernel memo, %.2f ms without; row hit "
      "ratio %.3f",
      answer_ms, m["exact.answer_nomemo_ms"], m["memo.row_hit_ratio"]));
  d.readings.push_back(Fmt(
      "parallel-exact: %.2f ms at 1 thread, %.2f ms at 4 threads "
      "(speedup %.2fx)",
      per(NsToMs(par1_ns), static_cast<double>(parallel_samples)),
      per(NsToMs(par4_ns), static_cast<double>(parallel_samples)),
      m["exact.parallel_speedup"]));
  d.readings.push_back(Fmt(
      "compiled vs batched: exact (RA) %.2f ms, batched-exact (memo off) "
      "%.2f ms, ratio %.2f",
      answer_ms, m["batched.answer_ms"],
      per(answer_ms, m["batched.answer_ms"])));
  d.readings.push_back(Fmt(
      "coverage: replica unit costs x engine counts explain %.1f%% of the "
      "exact answer time over %.0f queries",
      100.0 * m["trace.coverage"], q));
  if (stale_sweeps > 0) {
    d.readings.push_back(Fmt(
        "replica sweep STALE: its counts differ from the engine's on %.0f of "
        "%.0f queries, so its unit costs may not describe the engine's sweep",
        static_cast<double>(stale_sweeps), q));
  }
  d.readings.push_back(Fmt(
      "replica step timers: %.1f ns inside and %.1f ns outside each of %.0f "
      "steps, taken out of the step and walk times",
      timer.inside_ns, timer.outside_ns, static_cast<double>(net.steps)));

  // The replica's steps, timed without spans, as breakdown rows; the walk
  // span keeps only its own (enumeration) time.
  d.sweep_rows["memo.signature"] = {sum.examined, net.signature_ns};
  d.sweep_rows["cwdb.image"] = {sum.images, net.image_ns};
  d.sweep_rows["ra.execute"] = {sum.images, net.execute_ns};
  d.sweep_rows["trace.timers"] = {net.steps, net.timers_ns};
  d.sweep_rows["cwdb.enumerate"] = {0, net.walk_ns - sum.enumerate_ns};
  return d;
}

void PrintBreakdown(const std::vector<const SpanLog*>& logs, int64_t answer_ns,
                    const std::map<std::string, LayerRow>& extra, FILE* out) {
  std::map<std::string, LayerRow> rows = extra;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerRow& r = rows[spans[i].name];
      ++r.calls;
      r.self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
    }
  }
  std::fprintf(out, "%-24s %10s %12s %12s %10s\n", "layer", "calls",
               "self_ms", "self_us/call", answer_ns > 0 ? "%answer" : "");
  for (const auto& [name, r] : rows) {
    std::fprintf(out, "%-24s %10llu %12.3f %12.3f", name.c_str(),
                 static_cast<unsigned long long>(r.calls), NsToMs(r.self_ns),
                 r.calls == 0 ? 0.0
                              : NsToUs(r.self_ns) /
                                    static_cast<double>(r.calls));
    if (answer_ns > 0) {
      std::fprintf(out, " %10.2f", 100.0 * static_cast<double>(r.self_ns) /
                                       static_cast<double>(answer_ns));
    }
    std::fprintf(out, "\n");
  }
}

double MeanSpanUs(const std::vector<const SpanLog*>& logs, const char* name) {
  int64_t ns = 0;
  uint64_t n = 0;
  const std::string want = name;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (want == s.name) {
        ns += s.end_ns - s.start_ns;
        ++n;
      }
    }
  }
  return n == 0 ? 0 : NsToUs(ns) / static_cast<double>(n);
}

double SpanCostNs() {
  constexpr int kSpans = 200000;
  SpanLog scratch;
  scratch.Reserve(kSpans);
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&scratch, "calibrate", -1, 0);
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "log,id,parent,request,name,start_ns,end_ns\n");
  for (size_t l = 0; l < logs.size(); ++l) {
    const std::vector<Span>& spans = logs[l]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%u,%s,%lld,%lld\n", l, i, s.parent,
                   s.request, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace lqbench
