#include "lqdb/logic/classify.h"

#include <cassert>
#include <vector>

namespace lqdb {

namespace {

/// Returns true when every atomic subformula of `f` appears only positively,
/// given that `f` itself sits under `positive` polarity. For `<->` (which
/// exposes both polarities of both sides) the children must be positive
/// under both polarities, which only holds for atom-free subformulas.
bool Positive(const FormulaPtr& f, bool positive) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return true;
    case FormulaKind::kEquals:
    case FormulaKind::kAtom:
      return positive;
    case FormulaKind::kNot:
      return Positive(f->child(), !positive);
    case FormulaKind::kImplies:
      return Positive(f->child(0), !positive) && Positive(f->child(1), positive);
    case FormulaKind::kIff:
      return Positive(f->child(0), true) && Positive(f->child(0), false) &&
             Positive(f->child(1), true) && Positive(f->child(1), false);
    default:
      for (const auto& c : f->children()) {
        if (!Positive(c, positive)) return false;
      }
      return true;
  }
}

bool HasFoQuantifier(const FormulaPtr& f) {
  if (f->kind() == FormulaKind::kExists || f->kind() == FormulaKind::kForall) {
    return true;
  }
  for (const auto& c : f->children()) {
    if (HasFoQuantifier(c)) return true;
  }
  return false;
}

bool HasSoQuantifier(const FormulaPtr& f) {
  if (f->is_second_order_quantifier()) return true;
  for (const auto& c : f->children()) {
    if (HasSoQuantifier(c)) return true;
  }
  return false;
}

}  // namespace

bool IsPositive(const FormulaPtr& f) { return Positive(f, true); }

bool IsPositive(const Query& query) { return IsPositive(query.body()); }

ConjunctSplit SplitPositiveConjuncts(const FormulaPtr& body) {
  std::vector<FormulaPtr> conjuncts = {body};
  if (body->kind() == FormulaKind::kAnd) conjuncts = body->children();
  std::vector<FormulaPtr> positive;
  std::vector<FormulaPtr> residual;
  for (const FormulaPtr& c : conjuncts) {
    // Second-order quantifiers are left to the sweep: Theorem 13 is about
    // first-order queries.
    (IsPositive(c) && IsFirstOrder(c) ? positive : residual).push_back(c);
  }
  ConjunctSplit split;
  if (!positive.empty()) split.positive = Formula::And(std::move(positive));
  if (!residual.empty()) split.residual = Formula::And(std::move(residual));
  return split;
}

PrefixShape ClassifyFoPrefix(const FormulaPtr& f) {
  PrefixShape shape;
  const Formula* cur = f.get();
  bool first = true;
  bool last_existential = false;
  while (cur->kind() == FormulaKind::kExists ||
         cur->kind() == FormulaKind::kForall) {
    bool existential = cur->kind() == FormulaKind::kExists;
    if (first) {
      shape.starts_existential = existential;
      shape.blocks = 1;
      first = false;
    } else if (existential != last_existential) {
      ++shape.blocks;
    }
    last_existential = existential;
    cur = cur->child().get();
  }
  // The matrix must be quantifier-free for prenex shape.
  FormulaPtr matrix(f, cur);  // aliasing: shares ownership with f
  shape.prenex = !HasFoQuantifier(matrix);
  return shape;
}

PrefixShape ClassifySoPrefix(const FormulaPtr& f) {
  PrefixShape shape;
  const Formula* cur = f.get();
  bool first = true;
  bool last_existential = false;
  while (cur->is_second_order_quantifier()) {
    bool existential = cur->kind() == FormulaKind::kExistsPred;
    if (first) {
      shape.starts_existential = existential;
      shape.blocks = 1;
      first = false;
    } else if (existential != last_existential) {
      ++shape.blocks;
    }
    last_existential = existential;
    cur = cur->child().get();
  }
  FormulaPtr matrix(f, cur);  // aliasing: shares ownership with f
  shape.prenex = !HasSoQuantifier(matrix);
  return shape;
}

bool InSigmaFoK(const FormulaPtr& f, int k) {
  if (!IsFirstOrder(f)) return false;
  PrefixShape shape = ClassifyFoPrefix(f);
  if (!shape.prenex) return false;
  if (shape.blocks == 0) return true;
  if (shape.blocks > k) return false;
  // With exactly k blocks the prefix must start existentially; with fewer
  // blocks either polarity embeds into Σₖ.
  return shape.blocks < k || shape.starts_existential;
}

bool InSigmaSoK(const FormulaPtr& f, int k) {
  PrefixShape shape = ClassifySoPrefix(f);
  if (!shape.prenex) return false;  // SO quantifiers under the prefix
  if (shape.blocks == 0) return true;
  if (shape.blocks > k) return false;
  return shape.blocks < k || shape.starts_existential;
}

}  // namespace lqdb
