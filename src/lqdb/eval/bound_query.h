#ifndef LQDB_EVAL_BOUND_QUERY_H_
#define LQDB_EVAL_BOUND_QUERY_H_

#include <memory>
#include <optional>
#include <vector>

#include "lqdb/logic/query.h"
#include "lqdb/ra/plan.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/util/result.h"

namespace lqdb {

class RaCompiler;        // ra/compiler.h
struct RaCardinalities;  // ra/compiler.h
struct PositiveRoute;    // below

/// What `BoundQuery::CompileRaPlan` derives from a query. It borrows nothing
/// from the binding, so a cache can seed another binding of the same query
/// identity with it (`BoundQuery::set_ra_compilation`).
struct RaCompilation {
  /// The compiled plan; null when compilation has not run or failed.
  PlanPtr plan;
  /// The semijoin-reduced form of `plan`, when kept (see
  /// `BoundQuery::ra_reduced`).
  ReducedPlan reduced;
  /// Theorem 13's route (see `BoundQuery::route`); null when there is none.
  std::shared_ptr<const PositiveRoute> route;
};

/// A query pre-resolved for repeated evaluation. `Evaluator::SatisfiesWith`
/// redoes three pieces of work on every call that depend only on the query,
/// not on the database state: computing the body's free variables, walking
/// the body for the constants whose interpretation must be checked, and
/// walking it again for second-order quantifiers. The Theorem 1 engines
/// call the evaluator once per candidate per canonical mapping, so that
/// per-call overhead dominates their inner loop. Binding the query once
/// hoists all of it, and `Evaluator::SatisfiesBatch` then sweeps a whole
/// candidate set against one image database with the residual per-candidate
/// cost reduced to writing head values into the evaluator's flat
/// environment and walking the formula.
///
/// Borrows the query; the query must outlive the binding.
class BoundQuery {
 public:
  /// Pre-resolves `query`. Fails on a null body or a free variable of the
  /// body missing from the head — impossible for a `Query::Make`-validated
  /// query, but checked here because the batched path skips the per-call
  /// free-variable check.
  static Result<BoundQuery> Bind(const Query& query);

  const Query& query() const { return *query_; }
  const std::vector<VarId>& head() const { return query_->head(); }
  size_t arity() const { return query_->arity(); }

  /// Constants mentioned anywhere in the body (cached `ConstantsOf`).
  const std::vector<ConstId>& constants() const { return constants_; }

  /// Predicates bound by a second-order quantifier somewhere in the body;
  /// empty for first-order queries, letting the evaluator skip the
  /// feasibility walk entirely.
  const std::vector<PredId>& so_predicates() const { return so_predicates_; }

  /// Predicates occurring as atoms anywhere in the body, sorted — the
  /// query's read set. An update to any other relation cannot change this
  /// query's answer (second-order quantified relation variables range over
  /// all extensions regardless of the stored facts), which is what lets the
  /// service's result cache invalidate by intersection with the updated
  /// relations.
  const std::vector<PredId>& predicates() const { return predicates_; }

  /// Compiles the query to a relational-algebra plan over `vocab` (see
  /// `RaCompiler`) together with its semijoin reduction (see
  /// `SemijoinReduce`) or, when the body has a positive conjunct, Theorem
  /// 13's route (see `route()`), caching the outcome in the binding: later
  /// calls return the first status without recompiling. On failure —
  /// `Unimplemented` for second-order bodies — `ra_plan()` stays null, and
  /// callers fall back to the batched evaluator path. Debug builds also run
  /// the static plan validator (ra/validate.h) on every plan; a plan that
  /// fails it is a compiler bug, reported as `Internal` with no plan kept.
  /// `stats` (optional) drives the compiler's join ordering.
  Status CompileRaPlan(const Vocabulary& vocab,
                       const RaCardinalities* stats = nullptr);

  /// Seeds the plan slots from an external cache; `compilation` must have
  /// come from `CompileRaPlan` on a binding of the same query identity.
  void set_ra_compilation(RaCompilation compilation);

  /// Marks the query as known non-compilable without paying for a compile
  /// (the cached-failure twin of `set_ra_compilation`).
  void set_ra_uncompilable(Status why);

  /// Everything `CompileRaPlan` recorded, for an external cache.
  const RaCompilation& ra_compilation() const { return ra_; }

  /// The compiled plan; null when compilation has not run or failed.
  const PlanPtr& ra_plan() const { return ra_.plan; }

  /// The semijoin-reduced form of `ra_plan()` that the Theorem 1 sweep
  /// runs with the open candidates bound to `param`. A null `param`
  /// (arity-0 plan, or the reduction failed) means "run `plan` unreduced".
  /// Owned by the binding, so it lives exactly as long as the plan it
  /// was derived from. A binding with a route keeps none (null `plan`):
  /// only the sweeps that skip the route run its whole body, and they
  /// reduce `ra_plan()` per call with `ReduceRaPlan`, which keeps prepared
  /// statements as small as before the route.
  const ReducedPlan& ra_reduced() const { return ra_.reduced; }

  /// Theorem 13's route of the certain answer, compiled with the plan when
  /// the body has a positive first-order conjunct (`SplitPositiveConjuncts`);
  /// null otherwise. For a body with both parts, `ra_plan()` is the join of
  /// the parts' plans. Immutable and shared by every binding seeded from
  /// the same compilation.
  const std::shared_ptr<const PositiveRoute>& route() const {
    return ra_.route;
  }

  /// Whether a compilation outcome (success or cached failure) is recorded;
  /// a prepared statement with `ra_attempted()` carries everything the
  /// compiled sweep needs, so it can skip its own plan-cache lookup.
  bool ra_attempted() const { return ra_attempted_; }

  /// The recorded compilation outcome (OK when a plan is present).
  const Status& ra_status() const { return ra_status_; }

 private:
  explicit BoundQuery(const Query* query) : query_(query) {}

  /// The work of `CompileRaPlan`.
  Result<RaCompilation> Compile(const Vocabulary& vocab,
                                const RaCardinalities* stats,
                                RaCompiler* compiler) const;

  const Query* query_;
  std::vector<ConstId> constants_;
  std::vector<PredId> so_predicates_;
  std::vector<PredId> predicates_;
  RaCompilation ra_;
  bool ra_attempted_ = false;
  Status ra_status_;
};

/// `SemijoinReduce(plan)`, or `plan` unreduced (a null param) when the
/// reduction does not apply.
ReducedPlan ReduceRaPlan(const PlanPtr& plan);

/// The two parts of Theorem 13's route: the certain answer of the body is
/// the answer of its positive conjuncts on `Ph₁(LB)`, intersected with the
/// certain answer of the residual conjuncts, so only the residual needs the
/// Theorem 1 sweep. Pinned on the heap: `residual` borrows
/// `residual_query`.
struct PositiveRoute {
  PositiveRoute() = default;
  PositiveRoute(const PositiveRoute&) = delete;
  PositiveRoute& operator=(const PositiveRoute&) = delete;

  /// The positive conjuncts as a plan over the full head, run unreduced on
  /// `Ph₁`; for a positive body, the body's own plan.
  PlanPtr positive;
  /// The other conjuncts as a query over the same head, bound and compiled
  /// for the sweep; both empty for a positive body.
  std::optional<Query> residual_query;
  std::optional<BoundQuery> residual;
};

}  // namespace lqdb

#endif  // LQDB_EVAL_BOUND_QUERY_H_
