#ifndef LQDB_EXACT_EXACT_H_
#define LQDB_EXACT_EXACT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/eval/kernel_memo.h"
#include "lqdb/logic/query.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/relational/relation.h"
#include "lqdb/util/result.h"
#include "lqdb/util/thread_pool.h"

namespace lqdb {

struct ExactOptions {
  /// Abort with `ResourceExhausted` after examining this many mappings —
  /// the co-NP enumeration is exponential in the number of unknown values
  /// (Theorem 5), so callers opt into how much work a query may burn; the
  /// `brute` sweep refuses up front when `|C|^|C|` exceeds it. Theorem
  /// 13's route (see `ExactEvaluator`) counts its run on Ph₁ as the first
  /// examined mapping, so a positive body needs a budget of one and a
  /// budget of zero refuses it; the residual's sweep gets the rest. With
  /// more than one worker the budget is accounted globally across workers
  /// and `last_mappings_examined()` never exceeds it; an answer fully
  /// decided within it is returned even when another worker hit the limit
  /// meanwhile (the decision is final and order-independent).
  uint64_t max_mappings = 10'000'000;
  /// Join-order enumeration cap for the compiled RA path (see
  /// `RaCardinalities::dp_join_cap`): conjunctions up to this many positive
  /// conjuncts get DP ordering, larger ones the greedy pass; 0 disables
  /// the DP. Shell knob: `set join_cap <n>`.
  size_t ra_dp_join_cap = 10;
  /// Kernel-class verdict memoization (eval/kernel_memo.h): per-mapping
  /// signatures over the query-relevant constants let signature-equivalent
  /// images share candidate verdicts within one worker of one call,
  /// skipping the image build entirely on a full hit. Each worker owns its
  /// table. A canonical sweep whose unpinned constants are all singleton
  /// classes can never hit (the zero-hit rule), so it runs without the
  /// memo whatever this says. Answers are bit-identical either way (pinned
  /// by the differential suite); the toggle exists for A/B runs (`set memo
  /// on|off` in the shell).
  bool memo = true;
  EvalOptions eval;
};

/// Upper bound on a Theorem 1 sweep's worker count; the registry and the
/// shell reject larger counts before any thread exists.
constexpr int kMaxSweepThreads = 256;

/// Checks that `candidate` has the query's arity and only references
/// constants of `lb` — the entry validation of every Theorem 1 call.
Status ValidateExactCandidate(const CwDatabase& lb, const Query& query,
                              const Tuple& candidate);

/// All tuples over the constants `[0, n)` of the given arity, in odometer
/// order — the candidate space the Theorem 1 sweep prunes (one shared
/// definition so every scheduler enumerates identically).
/// Arity 0 yields the single empty tuple (the Boolean candidate); a
/// positive arity over zero constants yields the empty space.
std::vector<Tuple> AllCandidateTuples(size_t arity, ConstId n);

/// Join-ordering statistics for compiling a query against `lb`: image
/// relations are h-images of the fact sets and the image domain is `h(C)`,
/// so the fact counts and `|C|` upper-bound (and under the identity
/// mapping, equal) the per-image cardinalities the plan will see.
RaCardinalities JoinStatsFor(const CwDatabase& lb, size_t dp_join_cap);

/// A witness that a tuple is *not* in `Q(LB)`: a mapping `h` respecting the
/// uniqueness axioms with `h(c) ∉ Q(h(Ph₁(LB)))` — i.e. a model of `T`
/// falsifying `φ(c)` (Theorem 1). This is the NP certificate from the
/// Theorem 5(1) upper-bound proof. `IsPossible` reports its dual, a model
/// satisfying `φ(c)`, in the same shape.
struct Counterexample {
  ConstMapping h;
};

/// The sweep's mapping source and per-image checker (the scheduler is the
/// evaluator's worker count).
enum class ExactSweep {
  /// Canonical mappings, compiled plan (registry `exact`, `ra-exact`,
  /// `parallel-exact`).
  kExact,
  /// Canonical mappings, batched Tarskian check (`batched-exact`).
  kBatched,
  /// Every `h : C → C`, compiled plan (`brute`): the literal Theorem 1
  /// quantification, exponentially redundant; exists to cross-validate the
  /// canonical enumeration and to quantify its win (bench E7). Refuses up
  /// front when `|C|^|C|` exceeds `max_mappings`, and always runs on one
  /// worker — only the canonical space splits into ranges.
  kBrute,
};

/// Exact query evaluation over a CW logical database via the Theorem 1
/// characterization:
///
///   c ∈ Q(LB)  iff  h(c) ∈ Q(h(Ph₁(LB))) for every h : C → C
///                   that respects the uniqueness axioms,
///
/// and its dual, the possible answer, with ∃h in place of ∀h. Every entry
/// point runs one sweep over the mappings in one of two modes: a mapping
/// whose verdict on a candidate equals "possible" (true in possible mode,
/// false in certain mode) decides that candidate — certain mode drops it,
/// possible mode promotes it — and the sweep ends once every candidate is
/// decided. `Contains` and `IsPossible` are the one-candidate case; the
/// deciding mapping is their counterexample or witness.
///
/// Theorem 13's route: in certain mode (`Answer`, `AnswerBound`,
/// `Contains`) the `kExact` sweep takes the binding's `PositiveRoute` when
/// it has one. The positive conjuncts' plan runs once on Ph₁, the image of
/// the identity mapping; by Theorem 13 its rows are exactly their certain
/// answer, and they become the candidate set. Only the residual conjuncts
/// are swept over them, and a positive body is answered with no sweep at
/// all. A `Contains` candidate that fails on Ph₁ gets the identity as its
/// counterexample. `kBatched` and `kBrute` keep the unconditional sweep as
/// the references, and possible mode sweeps the whole body (its dual route,
/// through a positive `¬Q`, is future work).
///
/// `ExactSweep` fixes two of the sweep's parameters:
///
///   - mapping source: one representative per kernel partition
///     (`ForEachCanonicalMapping`), or every mapping (`ForEachMapping`);
///   - per-image checker: the binding's semijoin-reduced relational-algebra
///     plan, executed by `RaExecutor` with the open candidates bound to its
///     parameter, or the batched `Evaluator::SatisfiesBatch` — the latter
///     for `kBatched` and for queries outside the compilable first-order
///     fragment (second-order quantification). Each worker's images hold
///     only the relations the swept query reads (`MappingImage`'s read
///     set). Both checkers sit behind one kernel
///     memo front end (eval/kernel_memo.h): each worker owns a verdict
///     table, and a canonical sweep whose unpinned constants are all
///     singleton classes builds none, since no lookup there could hit.
///
/// The worker count fixes the third, the scheduler, which cannot change an
/// answer: a candidate's final state is a property of the mapping space,
/// not of the visiting order. One worker walks the space on the calling
/// thread in enumeration order, so the counterexample, witness and
/// `last_mappings_examined()` are deterministic. More workers steal ranges
/// of the canonical space from one another (`Walk` in exact.cc), each with
/// its own memo table; answers stay bit-identical, while the reported
/// mapping, the memo counters and, under early exit, the mapping count may
/// vary between runs.
///
/// Compiled plans are cached per evaluator, keyed by query identity (the
/// printed head + body and the join-order cap), so repeated calls reuse
/// the compiled tree; a binding that already carries a compilation outcome
/// (a prepared statement from the service layer, `ra_attempted()`) is used
/// as-is.
class ExactEvaluator {
 public:
  /// `threads` is the sweep's worker count: 1 walks on the calling thread,
  /// 0 means `ThreadPool::DefaultThreads()`, and a worker pool is built
  /// only for more than one. `kBrute` ignores it and runs on one worker.
  /// Callers must keep it at most `kMaxSweepThreads`.
  explicit ExactEvaluator(const CwDatabase* lb, ExactOptions options = {},
                          ExactSweep sweep = ExactSweep::kExact,
                          int threads = 1);

  /// The answer `Q(LB)` — a relation over the constant symbols `C`
  /// (§2.1: logical answers are tuples of constants, not domain values).
  Result<Relation> Answer(const Query& query);

  /// As `Answer`, over a query that was already bound — the
  /// prepared-statement path. The binding (and the query it borrows) must
  /// outlive the call; it is only read, so concurrent sessions may share
  /// one.
  Result<Relation> AnswerBound(const BoundQuery& bound);

  /// Membership of one candidate tuple of constants; fills `*counterexample`
  /// (when non-null) if the answer is negative.
  Result<bool> Contains(const Query& query, const Tuple& candidate,
                        std::optional<Counterexample>* counterexample =
                            nullptr);

  /// The dual of `Answer` (an extension beyond the paper): tuples that hold
  /// in *at least one* model of the theory — `{c : T ∪ {φ(c)} is finitely
  /// satisfiable}`. Certain ⊆ possible; the gap between the two relations
  /// is exactly the information lost to the unknown values.
  Result<Relation> PossibleAnswer(const Query& query);

  /// `PossibleAnswer` over a pre-bound query (see `AnswerBound`).
  Result<Relation> PossibleAnswerBound(const BoundQuery& bound);

  /// Membership in the possible answer, with an optional witnessing
  /// mapping (the model where the tuple holds).
  Result<bool> IsPossible(const Query& query, const Tuple& candidate,
                          std::optional<Counterexample>* witness = nullptr);

  /// Mappings examined by the most recent call (summed across workers).
  uint64_t last_mappings_examined() const { return last_mappings_; }

  /// Kernel-memo counters of the most recent call, summed over the workers'
  /// tables (zeros with the memo off or under the zero-hit rule).
  const KernelMemoCounters& last_memo_counters() const { return last_memo_; }

  /// Whether the most recent call checked images with a compiled plan (as
  /// opposed to the batched evaluator).
  bool last_used_ra() const { return last_used_ra_; }

  /// Ranges retired per worker by the most recent call, indexed by worker
  /// (one worker retires the whole space as one range). Under early exit
  /// some workers may legitimately retire zero.
  const std::vector<uint64_t>& last_worker_ranges() const {
    return last_worker_ranges_;
  }

  /// Worker count of the sweep.
  int threads() const { return pool_ ? pool_->num_threads() : 1; }

  /// Number of distinct queries whose compilation outcome is cached.
  size_t plan_cache_size() const { return plan_cache_.size(); }

 private:
  class Walk;

  /// Binds `query` and settles its checker: from the plan cache on a hit,
  /// compiling (and caching the outcome) on a miss.
  Result<BoundQuery> Prepare(const Query& query);
  /// `bound` may be null (bind `query` here) or lack a compilation outcome
  /// (compile it here, unless the checker is batched).
  Result<Relation> AnswerIn(const Query& query, const BoundQuery* bound,
                            bool possible);
  Result<bool> ContainsIn(const Query& query, const Tuple& candidate,
                          bool possible,
                          std::optional<Counterexample>* decisive);

  /// The one Theorem 1 sweep: sets `(*decided)[i]` for every candidate
  /// some mapping decides (see the class comment), and `*decisive` to the
  /// deciding mapping when `candidates` is a single tuple.
  /// `spent` mappings of the budget were examined before the sweep.
  Status Sweep(const BoundQuery& bound, const std::vector<Tuple>& candidates,
               bool possible, uint64_t spent, std::vector<char>* decided,
               ConstMapping* decisive);

  /// Theorem 13's route when this call takes it: certain mode of the
  /// `kExact` sweep over a binding that carries one; null otherwise.
  const PositiveRoute* RouteFor(const BoundQuery& bound, bool possible) const;
  /// Sets `*rows` to the answer of `route.positive` on Ph₁, counting it as
  /// one examined mapping.
  Status AnswerPositive(const BoundQuery& bound, const PositiveRoute& route,
                        std::vector<Tuple>* rows);

  const CwDatabase* lb_;
  ExactOptions options_;
  ExactSweep sweep_;
  std::unique_ptr<ThreadPool> pool_;  // null: one worker
  uint64_t last_mappings_ = 0;
  KernelMemoCounters last_memo_;
  bool last_used_ra_ = false;
  std::vector<uint64_t> last_worker_ranges_;
  /// Query identity → its compilation; a null plan = uncompilable.
  std::map<std::string, RaCompilation> plan_cache_;
};

}  // namespace lqdb

#endif  // LQDB_EXACT_EXACT_H_
