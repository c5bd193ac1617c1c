#include "lqdb/eval/bound_query.h"

#include <algorithm>
#include <set>
#include <utility>

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

Status BoundQuery::CompileRaPlan(const Vocabulary& vocab,
                                 const RaCardinalities* stats) {
  if (ra_attempted_) return ra_status_;
  ra_attempted_ = true;
  RaCompiler compiler(&vocab, stats == nullptr ? RaCardinalities() : *stats);
  Result<PlanPtr> plan = compiler.Compile(*query_);
  if (!plan.ok()) {
    ra_status_ = plan.status();
    return ra_status_;
  }
  ReducedPlan reduced;
  Result<ReducedPlan> red = SemijoinReduce(*plan);
  if (red.ok()) {
    reduced = std::move(red).value();
  } else {
    reduced.plan = *plan;  // null param → the sweep runs the plan unreduced
  }
#ifndef NDEBUG
  // Debug builds statically validate every plan shape the Theorem 1 sweep
  // is about to execute; the differential suite additionally validates
  // every plan of its instance pool in all build modes.
  PlanValidateOptions vopts;
  vopts.vocab = &vocab;
  Status verdict = ValidatePlan(*plan, vopts);
  if (verdict.ok()) {
    vopts.param = reduced.param.get();
    verdict = ValidatePlan(reduced.plan, vopts);
  }
  if (!verdict.ok()) {
    ra_status_ = Status::Internal("compiled plan failed static validation: " +
                                  verdict.message());
    return ra_status_;
  }
#endif
  set_ra_plan(std::move(plan).value(), std::move(reduced));
  return ra_status_;
}

void BoundQuery::set_ra_plan(PlanPtr plan, ReducedPlan reduced) {
  ra_plan_ = std::move(plan);
  ra_reduced_ = std::move(reduced);
  ra_attempted_ = true;
  ra_status_ = Status::OK();
}

void BoundQuery::set_ra_uncompilable(Status why) {
  ra_plan_ = nullptr;
  ra_reduced_ = {};
  ra_attempted_ = true;
  ra_status_ = std::move(why);
}

}  // namespace lqdb
