#ifndef LQDB_TESTS_TESTING_H_
#define LQDB_TESTS_TESTING_H_

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/logic/builder.h"
#include "lqdb/logic/formula.h"
#include "lqdb/logic/query.h"
#include "lqdb/relational/database.h"
#include "lqdb/util/rng.h"

namespace lqdb {
namespace testing {

/// Asserts a Result and unwraps it.
#define LQDB_TEST_CONCAT_INNER(a, b) a##b
#define LQDB_TEST_CONCAT(a, b) LQDB_TEST_CONCAT_INNER(a, b)
#define ASSERT_OK_AND_ASSIGN(lhs, expr) \
  ASSERT_OK_AND_ASSIGN_IMPL(LQDB_TEST_CONCAT(_result_, __LINE__), lhs, expr)
#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)  \
  auto tmp = (expr);                               \
  ASSERT_TRUE(tmp.ok()) << tmp.status();           \
  lhs = std::move(tmp).value()

#define EXPECT_OK(expr)                              \
  do {                                               \
    auto _s = (expr);                                \
    EXPECT_TRUE(_s.ok()) << _s.ToString();           \
  } while (false)

#define ASSERT_OK(expr)                              \
  do {                                               \
    auto _s = (expr);                                \
    ASSERT_TRUE(_s.ok()) << _s.ToString();           \
  } while (false)

/// Parameters for random CW database generation.
struct RandomDbParams {
  int num_known = 4;
  int num_unknown = 2;
  int num_unary_preds = 1;
  int num_binary_preds = 1;
  int num_facts = 6;
  /// Probability that an (unknown, other) pair gets an explicit axiom.
  double explicit_distinct_p = 0.3;
};

/// Builds a random CW logical database. Deterministic in `seed`.
inline std::unique_ptr<CwDatabase> RandomCwDatabase(uint64_t seed,
                                                    const RandomDbParams& p) {
  Rng rng(seed);
  auto lb = std::make_unique<CwDatabase>();
  std::vector<ConstId> consts;
  for (int i = 0; i < p.num_known; ++i) {
    consts.push_back(lb->AddKnownConstant("K" + std::to_string(i)));
  }
  for (int i = 0; i < p.num_unknown; ++i) {
    consts.push_back(lb->AddUnknownConstant("U" + std::to_string(i)));
  }
  std::vector<PredId> preds;
  for (int i = 0; i < p.num_unary_preds; ++i) {
    preds.push_back(lb->AddPredicate("P" + std::to_string(i), 1).value());
  }
  for (int i = 0; i < p.num_binary_preds; ++i) {
    preds.push_back(lb->AddPredicate("R" + std::to_string(i), 2).value());
  }
  for (int i = 0; i < p.num_facts && !preds.empty(); ++i) {
    PredId pred = preds[rng.Below(preds.size())];
    Tuple t;
    for (int j = 0; j < lb->vocab().PredicateArity(pred); ++j) {
      t.push_back(consts[rng.Below(consts.size())]);
    }
    Status s = lb->AddFact(pred, std::move(t));
    (void)s;
  }
  // Random explicit uniqueness axioms touching unknown constants.
  for (ConstId a = 0; a < consts.size(); ++a) {
    for (ConstId b = a + 1; b < consts.size(); ++b) {
      if (lb->IsKnown(a) && lb->IsKnown(b)) continue;
      if (rng.Chance(p.explicit_distinct_p)) {
        Status s = lb->AddDistinct(a, b);
        (void)s;
      }
    }
  }
  return lb;
}

/// Parameters for random first-order formula generation.
struct RandomFormulaParams {
  int max_depth = 4;
  /// Variables the formula may use freely (they become the query head).
  std::vector<std::string> free_vars = {"hx", "hy"};
  bool allow_negation = true;
};

/// Builds a random first-order formula over the schema predicates of
/// `vocab` with free variables drawn from `p.free_vars`.
inline FormulaPtr RandomFormula(Rng* rng, Vocabulary* vocab,
                                const RandomFormulaParams& p, int depth = 0,
                                std::vector<std::string>* scope = nullptr) {
  FormulaBuilder b(vocab);
  std::vector<std::string> local_scope;
  if (scope == nullptr) {
    local_scope = p.free_vars;
    scope = &local_scope;
  }
  auto random_term = [&]() -> Term {
    // Prefer variables in scope, sometimes a constant.
    if (!scope->empty() && rng->Chance(0.7)) {
      return b.V((*scope)[rng->Below(scope->size())]);
    }
    size_t n = vocab->num_constants();
    if (n == 0) return b.V((*scope)[rng->Below(scope->size())]);
    return Term::Constant(static_cast<ConstId>(rng->Below(n)));
  };
  auto random_atom = [&]() -> FormulaPtr {
    std::vector<PredId> preds = vocab->SchemaPredicates();
    if (preds.empty() || rng->Chance(0.25)) {
      return b.Eq(random_term(), random_term());
    }
    PredId pred = preds[rng->Below(preds.size())];
    TermList args;
    for (int i = 0; i < vocab->PredicateArity(pred); ++i) {
      args.push_back(random_term());
    }
    return Formula::Atom(pred, std::move(args));
  };
  if (depth >= p.max_depth) return random_atom();
  // Negation, implication and iff all introduce negative polarity, so they
  // are only generated when negation is allowed (positive-query tests rely
  // on this).
  switch (rng->Below(p.allow_negation ? 8 : 5)) {
    case 0:
      return random_atom();
    case 1:
      return Formula::And(RandomFormula(rng, vocab, p, depth + 1, scope),
                          RandomFormula(rng, vocab, p, depth + 1, scope));
    case 2:
      return Formula::Or(RandomFormula(rng, vocab, p, depth + 1, scope),
                         RandomFormula(rng, vocab, p, depth + 1, scope));
    case 3: {
      std::string v = "q" + std::to_string(depth) + "_" +
                      std::to_string(rng->Below(1000));
      scope->push_back(v);
      FormulaPtr body = RandomFormula(rng, vocab, p, depth + 1, scope);
      scope->pop_back();
      return b.Exists(v, std::move(body));
    }
    case 4: {
      std::string v = "q" + std::to_string(depth) + "_" +
                      std::to_string(rng->Below(1000));
      scope->push_back(v);
      FormulaPtr body = RandomFormula(rng, vocab, p, depth + 1, scope);
      scope->pop_back();
      return b.Forall(v, std::move(body));
    }
    case 5:
      return Formula::Implies(RandomFormula(rng, vocab, p, depth + 1, scope),
                              RandomFormula(rng, vocab, p, depth + 1, scope));
    case 6:
      return Formula::Iff(RandomFormula(rng, vocab, p, depth + 1, scope),
                          RandomFormula(rng, vocab, p, depth + 1, scope));
    default:
      return Formula::Not(RandomFormula(rng, vocab, p, depth + 1, scope));
  }
}

/// Slurps a file into a string (for the examples/data and tests/data
/// fixtures).
inline std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Extracts the `# query: ...` comment lines of a `.lqdb` data file — the
/// convention shared by tests/io_roundtrip_test.cc and tests/shell_test.cc
/// for embedding a world's interesting queries next to its facts.
inline std::vector<std::string> EmbeddedQueries(const std::string& text) {
  std::vector<std::string> queries;
  std::istringstream in(text);
  std::string line;
  const std::string prefix = "# query:";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    size_t start = line.find_first_not_of(' ', prefix.size());
    if (start != std::string::npos) queries.push_back(line.substr(start));
  }
  return queries;
}

/// Builds a random query whose head is `p.free_vars`.
inline Query RandomQuery(uint64_t seed, Vocabulary* vocab,
                         const RandomFormulaParams& p) {
  Rng rng(seed);
  FormulaPtr body = RandomFormula(&rng, vocab, p);
  std::vector<VarId> head;
  for (const std::string& v : p.free_vars) {
    head.push_back(vocab->AddVariable(v));
  }
  return Query::Make(head, std::move(body)).value();
}

/// Builds a random ∃-chain query `(head) . ∃b1 ... ∃bk. A1 ∧ ... ∧ An`
/// over 3–5 atoms of the schema predicates of `vocab` (which must include
/// a binary one), the shape whose bound columns the compiler's
/// required-columns pass drops early. Consecutive binary atoms share a
/// variable; on top of that the chain may repeat a variable inside one
/// atom (`R(v, v)`), close a cycle back to an earlier variable, negate a
/// conjunct over a bound variable (whose column must survive until its
/// anti-join), and quantify a vacuous variable (whose domain scan must
/// survive, so an empty domain still falsifies the ∃). A second head
/// variable, when given, ends the chain. Deterministic in `seed`.
inline Query RandomExistsChain(uint64_t seed, Vocabulary* vocab,
                               const std::vector<std::string>& head) {
  Rng rng(seed);
  FormulaBuilder b(vocab);
  std::vector<PredId> unary;
  std::vector<PredId> binary;
  for (PredId pred : vocab->SchemaPredicates()) {
    if (vocab->PredicateArity(pred) == 1) unary.push_back(pred);
    if (vocab->PredicateArity(pred) == 2) binary.push_back(pred);
  }
  auto atom = [&](const std::vector<PredId>& preds,
                  std::vector<std::string> vars) {
    TermList args;
    for (const std::string& v : vars) args.push_back(b.V(v));
    return Formula::Atom(preds[rng.Below(preds.size())], std::move(args));
  };
  std::vector<std::string> used = {head[0]};
  std::vector<std::string> bound;
  std::vector<FormulaPtr> conjuncts;
  std::string prev = head[0];
  const int atoms = 3 + static_cast<int>(rng.Below(3));
  const bool ends_at_second_head = head.size() > 1;
  for (int i = 0; i < atoms; ++i) {
    const bool last = i + 1 == atoms;
    if (!(last && ends_at_second_head) && !unary.empty() && rng.Chance(0.3)) {
      conjuncts.push_back(atom(unary, {used[rng.Below(used.size())]}));
      continue;
    }
    std::string next;
    if (last && ends_at_second_head) {
      next = head[1];
    } else if (rng.Chance(0.15)) {
      next = prev;  // R(v, v)
    } else if (rng.Chance(0.2)) {
      next = used[rng.Below(used.size())];  // close a cycle
    } else {
      next = "c" + std::to_string(bound.size());
      bound.push_back(next);
    }
    if (std::find(used.begin(), used.end(), next) == used.end()) {
      used.push_back(next);
    }
    conjuncts.push_back(rng.Chance(0.5) ? atom(binary, {prev, next})
                                        : atom(binary, {next, prev}));
    prev = next;
  }
  if (!bound.empty() && rng.Chance(0.5)) {
    const std::string& v = bound[rng.Below(bound.size())];
    conjuncts.push_back(b.Not(
        unary.empty() || rng.Chance(0.5)
            ? atom(binary, {v, used[rng.Below(used.size())]})
            : atom(unary, {v})));
  }
  FormulaPtr body = conjuncts.size() == 1 ? conjuncts[0]
                                          : b.And(std::move(conjuncts));
  if (rng.Chance(0.3)) body = b.Exists("vac", std::move(body));
  for (const std::string& v : bound) body = b.Exists(v, std::move(body));
  std::vector<VarId> head_ids;
  for (const std::string& v : head) head_ids.push_back(vocab->AddVariable(v));
  return Query::Make(head_ids, std::move(body)).value();
}

}  // namespace testing
}  // namespace lqdb

#endif  // LQDB_TESTS_TESTING_H_
