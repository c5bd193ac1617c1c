#ifndef LQDB_RA_PRUNE_H_
#define LQDB_RA_PRUNE_H_

#include "lqdb/ra/plan.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Required-columns pushdown: drops every column at the lowest node above
/// which nothing reads it, so an ∃-bound variable is projected away as soon
/// as its last join has used it rather than at the quantifier's `Project`.
/// The compiler keeps each bound variable until the quantifier; a chain
/// `∃y∃z. R(x,y) ∧ R(y,z) ∧ P(z)` therefore joins all of `[x, y, z]`
/// before projecting, while the pushed plan is
/// `π_x(R(x,y) ⋈ π_y(P(z) ⋈ R(y,z)))` — the plan the ∃-scoped rewrite
/// `∃y. R(x,y) ∧ ∃z. (R(y,z) ∧ P(z))` compiles to.
///
/// The pass walks the plan top-down and gives each node the set of
/// attributes its ancestors read:
///   - a `Project` passes its own (narrowed) attributes down;
///   - a join child gets the parent's set restricted to its schema, plus
///     the join keys;
///   - an anti/semijoin's left child gets the parent's set plus the keys,
///     its right child only the keys;
///   - both union branches get the parent's set.
/// Wherever a rewritten node still carries more columns than its parent
/// reads, a `Project` is inserted above it (and merges with a `Project`
/// below, see `Plan::Project`). A node nobody reads a column of is projected
/// to arity 0, never dropped: the domain scan of a vacuous `∃v` still
/// empties the result over an empty domain.
///
/// Rewrites are memoized per (node, required set), so DAG sharing survives
/// wherever the shared node is read the same way. The root keeps its schema
/// and column order.
Result<PlanPtr> PruneColumns(const PlanPtr& root);

}  // namespace lqdb

#endif  // LQDB_RA_PRUNE_H_
