#include "lqdb/exact/exact.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "lqdb/exact/brute.h"
#include "lqdb/logic/printer.h"
#include "lqdb/ra/executor.h"
#include "lqdb/util/annotations.h"

namespace lqdb {

Status ValidateExactCandidate(const CwDatabase& lb, const Query& query,
                              const Tuple& candidate) {
  if (candidate.size() != query.arity()) {
    return Status::InvalidArgument("candidate arity does not match query");
  }
  for (Value v : candidate) {
    if (v >= lb.num_constants()) {
      return Status::InvalidArgument("candidate references unknown constant");
    }
  }
  return Status::OK();
}

std::vector<Tuple> AllCandidateTuples(size_t arity, ConstId n) {
  // A positive arity over an empty constant set has no tuples; without this
  // guard the odometer below would emit bogus rows that index past the end
  // of every mapping `h`.
  if (n == 0 && arity > 0) return {};
  std::vector<Tuple> out;
  Tuple t(arity, 0);
  while (true) {
    out.push_back(t);
    size_t pos = 0;
    while (pos < arity && ++t[pos] == n) {
      t[pos] = 0;
      ++pos;
    }
    if (pos == arity) break;
  }
  return out;
}

RaCardinalities JoinStatsFor(const CwDatabase& lb, size_t dp_join_cap) {
  RaCardinalities stats;
  stats.domain_size = static_cast<double>(lb.num_constants());
  stats.relation_sizes.assign(lb.vocab().num_predicates(), 0.0);
  for (PredId p : lb.PredicatesWithFacts()) {
    stats.relation_sizes[p] = static_cast<double>(lb.facts(p).size());
  }
  stats.dp_join_cap = dp_join_cap;
  return stats;
}

namespace {

/// The work-stealing scheduler's tuning: the space is pre-split into about
/// `threads * kRangesPerThread` ranges, and a worker walks at most
/// `kStealChunk` mappings of a range before donating the rest, so a skewed
/// range never serializes more than that on one worker.
constexpr size_t kRangesPerThread = 8;
constexpr uint64_t kStealChunk = 64;

Status BudgetExceeded(uint64_t max_mappings) {
  return Status::ResourceExhausted("exceeded max_mappings = " +
                                   std::to_string(max_mappings));
}

/// One worker's per-image check: its own kernel memo table first — when
/// every open candidate's verdict is already known the image is never
/// built — then the image of `h` and one checker call over the misses
/// only, whose verdicts are recorded in the table. The image is
/// `MappingImage`'s relabeling `hr` of `h`, so the checked rows are mapped
/// through `hr`; the memo keys are taken from `h` itself. A null `ctx`
/// turns the memo off: no signature, no table.
class ImageCheck {
 public:
  ImageCheck(const CwDatabase& lb, const BoundQuery& bound,
             const ReducedPlan* plan, const EvalOptions& eval,
             const KernelSignatureContext* ctx, size_t memo_entries)
      : bound_(bound),
        plan_(plan),
        image_(lb, bound.predicates()),
        eval_(&image_.db(), eval),
        exec_(&image_.db()),
        ctx_(ctx),
        memo_(ctx != nullptr, memo_entries) {}

  // `eval_` and `exec_` hold the address of `image_.db()`.
  ImageCheck(const ImageCheck&) = delete;
  ImageCheck& operator=(const ImageCheck&) = delete;

  /// Sets `verdicts()[k]` to the truth of `candidates[open[k]]` in the
  /// image of `h`. A memo-served verdict is as good as a computed one: the
  /// image it came from is isomorphic to this one.
  Status Run(const ConstMapping& h, const std::vector<Tuple>& candidates,
             const std::vector<uint32_t>& open) {
    const size_t arity = bound_.arity();
    const size_t count = open.size();
    verdicts_.resize(count);
    miss_.clear();
    uint32_t sig_id = 0;
    if (ctx_ != nullptr) {
      ctx_->SignatureOf(h, &sig_);
      sig_id = memo_.InternSignature(sig_.sig);
      keys_.resize(count * arity);
      for (size_t k = 0; k < count; ++k) {
        const Tuple& c = candidates[open[k]];
        Value* key = keys_.data() + k * arity;
        for (size_t i = 0; i < arity; ++i) key[i] = sig_.relabel[h[c[i]]];
        const int verdict = memo_.LookupRow(sig_id, key, arity);
        if (verdict < 0) {
          miss_.push_back(static_cast<uint32_t>(k));
        } else {
          verdicts_[k] = static_cast<char>(verdict);
        }
      }
      memo_.CountLookups(count - miss_.size(), miss_.size());
      if (miss_.empty()) {
        memo_.CountImageSkipped();
        return Status::OK();
      }
    } else {
      miss_.resize(count);
      std::iota(miss_.begin(), miss_.end(), 0u);
    }

    LQDB_RETURN_IF_ERROR(image_.Build(h));
    const ConstMapping& hr = image_.relabeled();
    const size_t misses = miss_.size();
    rows_.resize(misses * arity);
    for (size_t j = 0; j < misses; ++j) {
      const Tuple& c = candidates[open[miss_[j]]];
      for (size_t i = 0; i < arity; ++i) rows_[j * arity + i] = hr[c[i]];
    }
    LQDB_RETURN_IF_ERROR(CheckMisses(misses));
    for (size_t j = 0; j < misses; ++j) {
      const uint32_t k = miss_[j];
      const bool verdict = miss_verdicts_[j] != 0;
      verdicts_[k] = static_cast<char>(verdict);
      if (ctx_ != nullptr) {
        memo_.InsertRow(sig_id, keys_.data() + k * arity, arity, verdict);
      }
    }
    return Status::OK();
  }

  const std::vector<char>& verdicts() const { return verdicts_; }
  KernelMemoCounters memo_counters() const { return memo_.counters(); }

 private:
  /// The checker: `rows_` holds `count` mapped candidates; fills
  /// `miss_verdicts_` with their membership in `Q(image_.db())`.
  Status CheckMisses(size_t count) {
    if (plan_ == nullptr) {
      return eval_.SatisfiesBatch(bound_, rows_.data(), count,
                                  &miss_verdicts_);
    }
    // Binding only the misses is sound: the semijoin contract guarantees
    // membership answers for exactly the rows in the parameter set.
    if (plan_->param != nullptr) {
      exec_.BindParam(plan_->param.get(), rows_.data(), count);
    }
    LQDB_ASSIGN_OR_RETURN(const RaTableView* table,
                          exec_.ExecuteView(plan_->plan));
    const size_t arity = bound_.arity();
    miss_verdicts_.resize(count);
    for (size_t j = 0; j < count; ++j) {
      miss_verdicts_[j] =
          static_cast<char>(table->rows.Contains(rows_.data() + j * arity));
    }
    return Status::OK();
  }

  const BoundQuery& bound_;
  const ReducedPlan* plan_;  // null: the batched evaluator
  MappingImage image_;
  Evaluator eval_;
  RaExecutor exec_;
  const KernelSignatureContext* ctx_;  // null with the memo off
  KernelMemo memo_;
  KernelSignatureScratch sig_;
  std::vector<Value> keys_;      // memo-relabeled rows, count × arity
  std::vector<uint32_t> miss_;   // positions in `open` the memo missed
  std::vector<Value> rows_;      // mapped rows of the misses
  std::vector<char> miss_verdicts_;
  std::vector<char> verdicts_;   // per open candidate, set by Run
};

/// Query identity for the plan cache: head order + printed body.
std::string CacheKey(const Vocabulary& vocab, const Query& query) {
  std::string key = "(";
  for (size_t i = 0; i < query.head().size(); ++i) {
    if (i > 0) key += ", ";
    key += vocab.VariableName(query.head()[i]);
  }
  key += ") . ";
  key += PrintFormula(vocab, query.body());
  return key;
}

}  // namespace

/// The scheduler of one sweep: the cooperative stop flag, the global
/// mapping budget and the first error, plus — with a pool — the shared
/// range queue. Without a pool the calling thread walks the whole space as
/// worker 0, in enumeration order. With one, the queue is seeded by
/// `SplitCanonicalMappingSpace`; a worker takes the largest remaining range
/// (the shallowest RGS prefix covers the most partitions), walks at most
/// `kStealChunk` mappings of it with `ForEachCanonicalMappingChunk`, and
/// pushes the unvisited remainder back for idle workers. Idle workers block
/// on the queue's condition variable; the fan-out ends when the queue is
/// empty with no worker mid-chunk, or when the stop flag rises.
class ExactEvaluator::Walk {
 public:
  /// `spent` mappings of the budget were examined before the walk.
  Walk(const CwDatabase* lb, ThreadPool* pool, bool brute,
       uint64_t max_mappings, uint64_t spent)
      : lb_(lb),
        pool_(pool),
        brute_(brute),
        max_mappings_(max_mappings),
        worker_ranges_(pool == nullptr ? 1 : pool->num_threads(), 0),
        examined_(spent) {
    if (pool != nullptr) {
      queue_ = SplitCanonicalMappingSpace(
          *lb, worker_ranges_.size() * kRangesPerThread);
    }
  }

  /// Runs `per_mapping(worker, h)` over every mapping of the space;
  /// `per_mapping` returns false to abort the whole walk (after calling
  /// `Stop()` or `RecordError()` so other workers stand down). Blocks until
  /// all workers finish.
  template <typename PerMapping>
  void Run(const PerMapping& per_mapping) {
    if (pool_ != nullptr) {
      pool_->FanOut([this, &per_mapping](int w) { Worker(w, per_mapping); });
      return;
    }
    const MappingVisitor visit = [this, &per_mapping](const ConstMapping& h) {
      return Visit(0, h, per_mapping);
    };
    if (brute_) {
      ForEachMapping(*lb_, visit);
    } else {
      ForEachCanonicalMapping(*lb_, visit);
    }
    worker_ranges_[0] = 1;
  }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    // Empty critical section: a waiter either sees the flag before
    // sleeping or is woken by the notify below (no lost wakeup).
    { MutexLock lock(queue_mu_); }
    queue_cv_.NotifyAll();
  }
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  void RecordError(Status error) {
    {
      MutexLock lock(mu_);
      if (error_.ok()) error_ = std::move(error);
    }
    Stop();
  }

  /// Valid after Run() returned: the fan-out's join is the happens-before
  /// edge that makes this lock-free read safe, which the static analysis
  /// cannot see — hence the exemption.
  const Status& error() const NO_THREAD_SAFETY_ANALYSIS { return error_; }
  uint64_t examined() const {
    return examined_.load(std::memory_order_relaxed);
  }
  const std::vector<uint64_t>& worker_ranges() const {
    return worker_ranges_;
  }

 private:
  /// One mapping of worker `index`: the stop flag and the budget first.
  /// Only a mapping that passes the gate is counted, so `examined()` never
  /// exceeds the budget, however many workers race for its last slot.
  template <typename PerMapping>
  bool Visit(int index, const ConstMapping& h, const PerMapping& per_mapping) {
    if (stopped()) return false;
    uint64_t seen = examined_.load(std::memory_order_relaxed);
    do {
      if (seen >= max_mappings_) {
        RecordError(BudgetExceeded(max_mappings_));
        return false;
      }
    } while (!examined_.compare_exchange_weak(seen, seen + 1,
                                              std::memory_order_relaxed));
    return per_mapping(index, h);
  }

  template <typename PerMapping>
  void Worker(int index, const PerMapping& per_mapping) {
    std::vector<MappingRange> remainder;
    MutexLock lock(queue_mu_);
    while (true) {
      while (!stopped() && queue_.empty() && walking_ != 0) {
        queue_cv_.Wait(queue_mu_, lock);
      }
      if (stopped() || queue_.empty()) break;  // done or nothing left

      size_t best = 0;
      for (size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].rgs.size() < queue_[best].rgs.size()) best = i;
      }
      MappingRange range = std::move(queue_[best]);
      queue_[best] = std::move(queue_.back());
      queue_.pop_back();
      ++walking_;
      lock.Unlock();

      remainder.clear();
      ForEachCanonicalMappingChunk(
          *lb_, range, kStealChunk,
          [&](const ConstMapping& h) { return Visit(index, h, per_mapping); },
          &remainder);
      ++worker_ranges_[index];

      lock.Lock();
      --walking_;
      if (stopped()) break;
      if (!remainder.empty()) {
        for (MappingRange& r : remainder) queue_.push_back(std::move(r));
        queue_cv_.NotifyAll();
      } else if (queue_.empty() && walking_ == 0) {
        queue_cv_.NotifyAll();  // wake idlers so they can exit
      }
    }
  }

  const CwDatabase* lb_;
  ThreadPool* pool_;  // null: one worker, on the calling thread
  const bool brute_;  // every mapping rather than the canonical ones
  const uint64_t max_mappings_;
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::vector<MappingRange> queue_ GUARDED_BY(queue_mu_);
  size_t walking_ GUARDED_BY(queue_mu_) = 0;  // workers currently mid-chunk
  /// Indexed per worker, each slot written by exactly one worker — no
  /// guard needed (readers wait for the fan-out's join).
  std::vector<uint64_t> worker_ranges_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> examined_;
  Mutex mu_;
  Status error_ GUARDED_BY(mu_);
};

ExactEvaluator::ExactEvaluator(const CwDatabase* lb, ExactOptions options,
                               ExactSweep sweep, int threads)
    : lb_(lb), options_(options), sweep_(sweep) {
  const int workers = sweep == ExactSweep::kBrute ? 1
                      : threads > 0              ? threads
                                                 : ThreadPool::DefaultThreads();
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
}

Result<BoundQuery> ExactEvaluator::Prepare(const Query& query) {
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(query));
  if (sweep_ == ExactSweep::kBatched) return bound;
  // The join-order cap shapes the compiled plan, so it is part of the
  // cache identity — changing the knob must not serve plans ordered under
  // the old cap.
  const std::string key = CacheKey(lb_->vocab(), query) +
                          "#cap=" + std::to_string(options_.ra_dp_join_cap);
  auto it = plan_cache_.find(key);
  if (it == plan_cache_.end()) {
    const RaCardinalities stats =
        JoinStatsFor(*lb_, options_.ra_dp_join_cap);
    // A failed compile leaves ra_plan() null → the batched checker.
    (void)bound.CompileRaPlan(lb_->vocab(), &stats);
    // A plan that failed validation is a compiler bug: report it and keep
    // it out of the cache.
    if (bound.ra_status().code() == StatusCode::kInternal) return bound;
    plan_cache_.emplace(key, bound.ra_compilation());
  } else if (it->second.plan != nullptr) {
    bound.set_ra_compilation(it->second);
  } else {
    bound.set_ra_uncompilable(
        Status::Unimplemented("query is cached as uncompilable"));
  }
  return bound;
}

Status ExactEvaluator::Sweep(const BoundQuery& bound,
                             const std::vector<Tuple>& candidates,
                             bool possible, uint64_t spent,
                             std::vector<char>* decided,
                             ConstMapping* decisive) {
  if (bound.ra_status().code() == StatusCode::kInternal) {
    return bound.ra_status();
  }
  last_mappings_ = spent;
  last_memo_ = {};
  last_worker_ranges_.assign(threads(), 0);
  decided->clear();
  if (candidates.empty()) return Status::OK();  // nothing to decide
  if (sweep_ == ExactSweep::kBrute) {
    const uint64_t n = lb_->num_constants();
    if (SaturatingPower(n, n) > options_.max_mappings) {
      return Status::ResourceExhausted(
          "|C|^|C| exceeds max_mappings; use the canonical enumeration");
    }
  }
  const ReducedPlan* plan =
      sweep_ != ExactSweep::kBatched && bound.ra_plan() != nullptr
          ? &bound.ra_reduced()
          : nullptr;
  ReducedPlan reduced;
  if (plan != nullptr && plan->plan == nullptr) {  // a route's whole body
    reduced = ReduceRaPlan(bound.ra_plan());
    plan = &reduced;
  }
  last_used_ra_ = plan != nullptr;
  // The kernel memo: one verdict table per worker, living for this call
  // only — cross-call reuse is the service layer's result cache, which also
  // knows when the database changed. The workers share the immutable
  // signature context and split the row cap. The zero-hit rule
  // (eval/kernel_memo.h): when every unpinned constant is alone in its
  // class, a canonical sweep can never hit, so it runs without the memo.
  std::optional<KernelSignatureContext> ctx;
  if (options_.memo) {
    ctx.emplace(*lb_, bound.constants());
    if (sweep_ != ExactSweep::kBrute && ctx->all_singletons()) ctx.reset();
  }
  // `open[i]` is 1 while candidate i is undecided; `remaining` counts them
  // so the last decision stops every worker. A mapping decides candidate i
  // when its verdict equals `possible`.
  const size_t n = candidates.size();
  std::unique_ptr<std::atomic<uint8_t>[]> open(new std::atomic<uint8_t>[n]);
  for (size_t i = 0; i < n; ++i) open[i].store(1, std::memory_order_relaxed);
  std::atomic<size_t> remaining{n};
  const int workers = threads();
  std::vector<std::unique_ptr<ImageCheck>> checks;
  // Each worker's open candidates as of its previous mapping; refiltered
  // by the flags per mapping, so a visit costs O(open), not O(candidates).
  std::vector<std::vector<uint32_t>> snapshots(workers);
  for (int w = 0; w < workers; ++w) {
    checks.push_back(std::make_unique<ImageCheck>(
        *lb_, bound, plan, options_.eval, ctx ? &*ctx : nullptr,
        KernelMemo::kDefaultMaxEntries / workers));
    snapshots[w].resize(n);
    std::iota(snapshots[w].begin(), snapshots[w].end(), 0u);
  }
  Walk walk(lb_, pool_.get(), sweep_ == ExactSweep::kBrute,
            options_.max_mappings, spent);
  walk.Run([&](int w, const ConstMapping& h) {
    std::vector<uint32_t>& snapshot = snapshots[w];
    size_t kept = 0;
    for (uint32_t i : snapshot) {
      if (open[i].load(std::memory_order_relaxed) != 0) snapshot[kept++] = i;
    }
    snapshot.resize(kept);
    if (snapshot.empty()) {  // raced with the last decision
      walk.Stop();
      return false;
    }
    Status s = checks[w]->Run(h, candidates, snapshot);
    if (!s.ok()) {
      walk.RecordError(std::move(s));
      return false;
    }
    const std::vector<char>& verdicts = checks[w]->verdicts();
    kept = 0;
    for (size_t k = 0; k < snapshot.size(); ++k) {
      const uint32_t i = snapshot[k];
      if ((verdicts[k] != 0) != possible) {
        snapshot[kept++] = i;
        continue;
      }
      if (open[i].exchange(0, std::memory_order_relaxed) != 1) continue;
      // Exactly one worker flips a candidate's flag, so with a single
      // candidate exactly one worker writes `decisive`.
      if (decisive != nullptr) *decisive = h;
      if (remaining.fetch_sub(1, std::memory_order_relaxed) == 1) {
        walk.Stop();  // every candidate decided — nothing left to learn
        return false;
      }
    }
    snapshot.resize(kept);
    return true;
  });
  last_mappings_ = walk.examined();
  last_worker_ranges_ = walk.worker_ranges();
  for (const auto& check : checks) last_memo_ += check->memo_counters();
  decided->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*decided)[i] = open[i].load(std::memory_order_relaxed) == 0;
  }
  // A fully decided candidate set is final and order-independent, so it
  // wins over a budget error raised by a worker still mid-chunk when the
  // last candidate fell.
  return remaining.load() == 0 ? Status::OK() : walk.error();
}

const PositiveRoute* ExactEvaluator::RouteFor(const BoundQuery& bound,
                                              bool possible) const {
  // `batched-exact` and `brute` are the unconditional references. Possible
  // answers would need the dual route (not certain for a positive ¬Q).
  if (possible || sweep_ != ExactSweep::kExact) return nullptr;
  return bound.route().get();
}

Status ExactEvaluator::AnswerPositive(const BoundQuery& bound,
                                      const PositiveRoute& route,
                                      std::vector<Tuple>* rows) {
  last_mappings_ = 0;
  last_memo_ = {};
  last_worker_ranges_.assign(threads(), 0);
  last_used_ra_ = true;
  if (options_.max_mappings == 0) return BudgetExceeded(0);
  // Ph₁ is the image of the identity, which respects every uniqueness
  // axiom; it counts as the call's first mapping.
  last_mappings_ = 1;
  MappingImage ph1(*lb_, bound.predicates());
  LQDB_RETURN_IF_ERROR(ph1.Build(IdentityMapping(lb_->num_constants())));
  RaExecutor exec(&ph1.db());
  LQDB_ASSIGN_OR_RETURN(const RaTableView* table,
                        exec.ExecuteView(route.positive));
  const size_t arity = bound.arity();
  rows->clear();
  rows->reserve(table->rows.size());
  for (size_t i = 0; i < table->rows.size(); ++i) {
    const Value* row = table->rows.row(i);
    rows->emplace_back(row, row + arity);
  }
  return Status::OK();
}

Result<Relation> ExactEvaluator::AnswerIn(const Query& query,
                                          const BoundQuery* bound,
                                          bool possible) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  std::optional<BoundQuery> prepared;
  if (bound == nullptr ||
      (sweep_ != ExactSweep::kBatched && !bound->ra_attempted())) {
    LQDB_ASSIGN_OR_RETURN(prepared, Prepare(query));
    bound = &*prepared;
  }
  Relation answer(static_cast<int>(bound->arity()));
  std::vector<Tuple> candidates;
  const BoundQuery* swept = bound;
  uint64_t spent = 0;
  if (const PositiveRoute* route = RouteFor(*bound, possible)) {
    // Theorem 13: the positive part's certain answer is its answer on Ph₁,
    // and those rows are the only candidates left for the residual.
    LQDB_RETURN_IF_ERROR(AnswerPositive(*bound, *route, &candidates));
    if (!route->residual) {
      for (Tuple& t : candidates) answer.Insert(std::move(t));
      return answer;
    }
    swept = &*route->residual;
    spent = 1;
  } else {
    candidates = AllCandidateTuples(
        bound->arity(), static_cast<ConstId>(lb_->num_constants()));
  }
  std::vector<char> decided;
  LQDB_RETURN_IF_ERROR(
      Sweep(*swept, candidates, possible, spent, &decided, nullptr));
  // Certain answer = never falsified; possible answer = witnessed once.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if ((decided[i] != 0) == possible) answer.Insert(candidates[i]);
  }
  return answer;
}

Result<bool> ExactEvaluator::ContainsIn(
    const Query& query, const Tuple& candidate, bool possible,
    std::optional<Counterexample>* decisive) {
  LQDB_RETURN_IF_ERROR(lb_->Validate());
  LQDB_RETURN_IF_ERROR(ValidateExactCandidate(*lb_, query, candidate));
  if (decisive != nullptr) decisive->reset();
  LQDB_ASSIGN_OR_RETURN(BoundQuery bound, Prepare(query));
  const BoundQuery* swept = &bound;
  uint64_t spent = 0;
  if (const PositiveRoute* route = RouteFor(bound, possible)) {
    std::vector<Tuple> rows;
    LQDB_RETURN_IF_ERROR(AnswerPositive(bound, *route, &rows));
    if (std::find(rows.begin(), rows.end(), candidate) == rows.end()) {
      // Ph₁ falsifies a conjunct, so the identity is the counterexample.
      if (decisive != nullptr) {
        *decisive = Counterexample{IdentityMapping(lb_->num_constants())};
      }
      return false;
    }
    if (!route->residual) return true;
    swept = &*route->residual;
    spent = 1;
  }
  std::vector<char> decided;
  ConstMapping h;
  LQDB_RETURN_IF_ERROR(Sweep(*swept, {candidate}, possible, spent, &decided,
                             decisive != nullptr ? &h : nullptr));
  if (decided[0] && decisive != nullptr) *decisive = Counterexample{h};
  return (decided[0] != 0) == possible;
}

Result<Relation> ExactEvaluator::Answer(const Query& query) {
  return AnswerIn(query, nullptr, /*possible=*/false);
}

Result<Relation> ExactEvaluator::AnswerBound(const BoundQuery& bound) {
  return AnswerIn(bound.query(), &bound, /*possible=*/false);
}

Result<Relation> ExactEvaluator::PossibleAnswer(const Query& query) {
  return AnswerIn(query, nullptr, /*possible=*/true);
}

Result<Relation> ExactEvaluator::PossibleAnswerBound(const BoundQuery& bound) {
  return AnswerIn(bound.query(), &bound, /*possible=*/true);
}

Result<bool> ExactEvaluator::Contains(
    const Query& query, const Tuple& candidate,
    std::optional<Counterexample>* counterexample) {
  return ContainsIn(query, candidate, /*possible=*/false, counterexample);
}

Result<bool> ExactEvaluator::IsPossible(
    const Query& query, const Tuple& candidate,
    std::optional<Counterexample>* witness) {
  return ContainsIn(query, candidate, /*possible=*/true, witness);
}

}  // namespace lqdb
