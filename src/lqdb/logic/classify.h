#ifndef LQDB_LOGIC_CLASSIFY_H_
#define LQDB_LOGIC_CLASSIFY_H_

#include "lqdb/logic/formula.h"
#include "lqdb/logic/query.h"

namespace lqdb {

/// True iff `f` is *positive*: every atomic subformula (atom or equality) is
/// governed by an even number of negations, counting the implicit negations
/// introduced by `->` antecedents and by `<->`. Equivalently, the NNF of `f`
/// contains no negation. Theorem 13 of the paper: the approximation
/// algorithm is complete for positive queries.
bool IsPositive(const FormulaPtr& f);

/// True iff the query body is positive.
bool IsPositive(const Query& query);

/// The split of a body's top-level conjuncts behind the Theorem 13 route of
/// the exact engine. `positive` conjoins the positive first-order conjuncts:
/// for them Theorem 13 makes the certain answer `Q(Ph₁(LB))`, one
/// evaluation. `residual` conjoins the rest, which still needs the Theorem 1
/// sweep. Certain answers distribute over ∧, so the certain answer of the
/// body is the intersection of the two parts' certain answers. Either part
/// is null when no conjunct falls on its side; a body that is not a
/// conjunction is its own single conjunct.
struct ConjunctSplit {
  FormulaPtr positive;
  FormulaPtr residual;
};

/// Splits `body` as described at `ConjunctSplit`, keeping each side's
/// conjuncts in their order in `body`.
ConjunctSplit SplitPositiveConjuncts(const FormulaPtr& body);

/// Shape of a quantifier prefix.
struct PrefixShape {
  /// Everything below the analyzed prefix is free of the analyzed kind of
  /// quantifier (first-order for `ClassifyFoPrefix`, second-order for
  /// `ClassifySoPrefix`).
  bool prenex = false;
  /// Number of alternating quantifier blocks in the prefix (0 when there is
  /// no quantifier of the analyzed kind).
  int blocks = 0;
  /// True when the first block is existential (meaningless if blocks == 0).
  bool starts_existential = false;
};

/// Analyzes the leading first-order quantifier prefix of `f`.
PrefixShape ClassifyFoPrefix(const FormulaPtr& f);

/// Analyzes the leading second-order quantifier prefix of `f`.
PrefixShape ClassifySoPrefix(const FormulaPtr& f);

/// True iff `f` is a prenex first-order formula in Σₖ^E — at most `k`
/// alternating quantifier blocks starting existentially (paper §4,
/// Theorems 6–7). Formulas with fewer blocks qualify.
bool InSigmaFoK(const FormulaPtr& f, int k);

/// True iff `f` is in Σ¹ₖ — a leading second-order prefix of at most `k`
/// alternating blocks starting existentially over a first-order matrix
/// (paper §4, Theorems 8–9).
bool InSigmaSoK(const FormulaPtr& f, int k);

}  // namespace lqdb

#endif  // LQDB_LOGIC_CLASSIFY_H_
