#include "lqdb/eval/bound_query.h"

#include <algorithm>
#include <set>
#include <utility>

#include "lqdb/logic/classify.h"
#include "lqdb/logic/formula.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/validate.h"

namespace lqdb {

namespace {

void CollectSoPredicates(const FormulaPtr& f, std::set<PredId>* out) {
  if (f->is_second_order_quantifier()) out->insert(f->pred());
  for (const auto& c : f->children()) CollectSoPredicates(c, out);
}

void CollectAtomPredicates(const FormulaPtr& f, std::set<PredId>* out) {
  if (f->kind() == FormulaKind::kAtom) out->insert(f->pred());
  for (const auto& c : f->children()) CollectAtomPredicates(c, out);
}

/// Debug builds statically validate every plan shape an engine is about to
/// execute; a finding is a compiler bug, reported as `Internal`. The
/// differential suite additionally validates every plan of its instance
/// pool in all build modes.
Status ValidateInDebug(const Vocabulary& vocab, const PlanPtr& plan,
                       const Plan* param) {
#ifndef NDEBUG
  PlanValidateOptions vopts;
  vopts.vocab = &vocab;
  vopts.param = param;
  const Status verdict = ValidatePlan(plan, vopts);
  if (!verdict.ok()) {
    return Status::Internal("compiled plan failed static validation: " +
                            verdict.message());
  }
#else
  (void)vocab;
  (void)plan;
  (void)param;
#endif
  return Status::OK();
}

}  // namespace

Result<BoundQuery> BoundQuery::Bind(const Query& query) {
  if (query.body() == nullptr) {
    return Status::InvalidArgument("null formula");
  }
  for (VarId v : FreeVariables(query.body())) {
    if (std::find(query.head().begin(), query.head().end(), v) ==
        query.head().end()) {
      return Status::InvalidArgument(
          "free variable of the query body is not in the head");
    }
  }
  BoundQuery bound(&query);
  const std::set<ConstId> constants = ConstantsOf(query.body());
  bound.constants_.assign(constants.begin(), constants.end());
  std::set<PredId> so_preds;
  CollectSoPredicates(query.body(), &so_preds);
  bound.so_predicates_.assign(so_preds.begin(), so_preds.end());
  std::set<PredId> preds;
  CollectAtomPredicates(query.body(), &preds);
  bound.predicates_.assign(preds.begin(), preds.end());
  return bound;
}

ReducedPlan ReduceRaPlan(const PlanPtr& plan) {
  Result<ReducedPlan> reduced = SemijoinReduce(plan);
  if (reduced.ok()) return std::move(reduced).value();
  ReducedPlan unreduced;
  unreduced.plan = plan;  // a null param: the sweep runs the plan as is
  return unreduced;
}

Status BoundQuery::CompileRaPlan(const Vocabulary& vocab,
                                 const RaCardinalities* stats) {
  if (ra_attempted_) return ra_status_;
  ra_attempted_ = true;
  RaCompiler compiler(&vocab, stats == nullptr ? RaCardinalities() : *stats);
  Result<RaCompilation> compiled = Compile(vocab, stats, &compiler);
  if (compiled.ok()) {
    ra_ = std::move(compiled).value();
    ra_status_ = Status::OK();
  } else {
    ra_status_ = compiled.status();
  }
  return ra_status_;
}

Result<RaCompilation> BoundQuery::Compile(const Vocabulary& vocab,
                                          const RaCardinalities* stats,
                                          RaCompiler* compiler) const {
  RaCompilation out;
  const ConjunctSplit split = SplitPositiveConjuncts(query_->body());
  if (split.positive == nullptr) {
    LQDB_ASSIGN_OR_RETURN(out.plan, compiler->Compile(*query_));
    out.reduced = ReduceRaPlan(out.plan);
    LQDB_RETURN_IF_ERROR(ValidateInDebug(vocab, out.plan, nullptr));
    LQDB_RETURN_IF_ERROR(ValidateInDebug(vocab, out.reduced.plan,
                                         out.reduced.param.get()));
    return out;
  }
  auto route = std::make_shared<PositiveRoute>();
  if (split.residual == nullptr) {
    LQDB_ASSIGN_OR_RETURN(out.plan, compiler->Compile(*query_));
    route->positive = out.plan;
  } else {
    // Both parts keep the full head, so the positive part's rows are
    // candidates of the residual as they stand, and the join of the two
    // plans (same schema) is the plan of the whole body.
    LQDB_ASSIGN_OR_RETURN(const Query positive,
                          Query::Make(head(), split.positive));
    LQDB_ASSIGN_OR_RETURN(route->positive, compiler->Compile(positive));
    LQDB_RETURN_IF_ERROR(ValidateInDebug(vocab, route->positive, nullptr));
    LQDB_ASSIGN_OR_RETURN(Query residual, Query::Make(head(), split.residual));
    route->residual_query.emplace(std::move(residual));
    LQDB_ASSIGN_OR_RETURN(BoundQuery bound, Bind(*route->residual_query));
    route->residual.emplace(std::move(bound));
    LQDB_RETURN_IF_ERROR(route->residual->CompileRaPlan(vocab, stats));
    LQDB_ASSIGN_OR_RETURN(
        out.plan, Plan::Join(route->positive, route->residual->ra_plan()));
  }
  LQDB_RETURN_IF_ERROR(ValidateInDebug(vocab, out.plan, nullptr));
#ifndef NDEBUG
  const ReducedPlan reduced = ReduceRaPlan(out.plan);
  LQDB_RETURN_IF_ERROR(
      ValidateInDebug(vocab, reduced.plan, reduced.param.get()));
#endif
  out.route = std::move(route);
  return out;
}

void BoundQuery::set_ra_compilation(RaCompilation compilation) {
  ra_ = std::move(compilation);
  ra_attempted_ = true;
  ra_status_ = Status::OK();
}

void BoundQuery::set_ra_uncompilable(Status why) {
  ra_ = {};
  ra_attempted_ = true;
  ra_status_ = std::move(why);
}

}  // namespace lqdb
