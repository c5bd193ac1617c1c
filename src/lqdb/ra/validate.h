#ifndef LQDB_RA_VALIDATE_H_
#define LQDB_RA_VALIDATE_H_

#include "lqdb/ra/plan.h"
#include "lqdb/util/result.h"

namespace lqdb {

/// Options for `ValidatePlan`.
struct PlanValidateOptions {
  /// When set, enables the checks that need the vocabulary (scan predicate
  /// existence and arity, constant-id bounds) and names nodes in
  /// diagnostics; without it those checks are skipped and diagnostics fall
  /// back to operator-kind labels.
  const Vocabulary* vocab = nullptr;

  /// The parameter node the plan is expected to contain (the candidate
  /// relation a semijoin reduction binds at execution time). Null means
  /// the plan must contain no `kParam` node at all; non-null means every
  /// `kParam` occurrence must be this exact node — `RaExecutor::BindParam`
  /// keys bindings by node identity, so a second distinct param node would
  /// silently execute empty.
  const Plan* param = nullptr;

  /// Upper bound on distinct nodes in the DAG; 0 disables the check.
  /// Callers derive it from the source formula's size: the compiler shares
  /// desugared subtrees, so a blow-up past any reasonable multiple of the
  /// formula signals the duplicated-subtree regression of PR 6.
  size_t max_unique_nodes = 0;
};

/// Statically checks a compiled RA plan DAG against the invariants the
/// compiler and the semijoin reduction promise, returning `OK` or an
/// `InvalidArgument`/`Internal` diagnostic naming the offending node:
///
///  1. **Schema well-formedness per node.** Every node's stored output
///     schema is recomputed bottom-up from its children and must match:
///     scans list their distinct column variables in first-occurrence
///     order, joins the union of their children's attributes, projections
///     a distinct subset of the child's, unions carry equal attribute
///     sets, and anti/semijoins keep exactly the left schema. A dangling
///     attribute — a column that no child produces — is caught here.
///     A projection directly over a projection is rejected too:
///     `Plan::Project` collapses the pair, so only a mutated or
///     hand-assembled node can carry one.
///  2. **Anti/semijoin child compatibility.** The right child's attributes
///     must be a subset of the left's: both operators filter the left
///     relation on the shared columns, and the compiler always pads the
///     left side to the negated/filtering subformula's free variables
///     first, so a right-only attribute means the plan was built wrong
///     (the filter would silently project it away).
///  3. **Never-cross-product.** Within every maximal join tree, a join of
///     two attribute-disjoint subplans is legal only when one side is a
///     union of *complete* connected components of the tree's operand
///     connectivity graph (operands adjacent iff their schemas share an
///     attribute). Both join orderers produce exactly that shape —
///     DP crosses whole components, greedy crosses the accumulated
///     components with one operand of a fresh one — while the historical
///     bug (joining two disconnected operands that a third operand would
///     have connected) splits a component across the cross join.
///  4. **Param binding sites.** A `kParam` node may appear only as the
///     (possibly projected) right child of a `kSemiJoin` reachable from
///     the root through edges the semijoin reduction is allowed to push a
///     candidate filter along: join, union and project children, and the
///     LEFT child of anti/semijoins. In particular a param under an
///     anti-join's right child is rejected — filtering the negated side
///     by the surviving candidates changes answers.
///  5. **Acyclicity and sharing bounds.** The node graph must be a DAG
///     (shared subplans are expected; cycles would hang the executor),
///     and `max_unique_nodes`, when set, bounds the DAG's size.
///
/// Cost is linear in the number of distinct nodes (each node's local check
/// and each join tree's component analysis run once), so debug builds run
/// it on every compiled and every reduced plan.
Status ValidatePlan(const PlanPtr& root,
                    const PlanValidateOptions& options = {});

}  // namespace lqdb

#endif  // LQDB_RA_VALIDATE_H_
