#ifndef LQDB_TESTS_DIFFERENTIAL_GENERATOR_H_
#define LQDB_TESTS_DIFFERENTIAL_GENERATOR_H_

#include <memory>
#include <string>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/logic/query.h"

namespace lqdb {
namespace testing {

/// Shape of a random differential-testing instance. Profiles trade instance
/// size against the exponential cost of the brute-force oracle, and carve
/// out the structured corners the paper's theorems single out (fully
/// specified databases, positive queries).
enum class InstanceProfile {
  /// 3 constants, one unary predicate, shallow query — small enough for the
  /// model-enumeration oracle.
  kTiny,
  /// 5 constants (2 unknown), unary+binary predicates, depth-3 query with
  /// one head variable.
  kSmall,
  /// 5 constants (2 unknown), two binary predicates, depth-3 query with a
  /// binary head — stresses joins and arity-2 answers.
  kBinary,
  /// No unknown constants: every engine must agree exactly (Theorem 12).
  kFullySpecified,
  /// Negation-free query over a database with unknowns: the approximation
  /// must be complete, not merely sound (Theorem 13).
  kPositive,
  /// A skewed canonical-mapping space: the known constants come first, so
  /// their forced pairwise-distinct blocks pin a single RGS prefix chain
  /// and the entire Bell mass of the trailing unknowns hangs under one
  /// giant kernel-class subtree — the adversarial shape for static range
  /// partitioning, exercising the parallel engine's work stealing.
  kSkewed,
  /// A generated large-world scenario (`lqdb/gen/scenario.h`): an order of
  /// magnitude more constants and facts than the toy profiles, with few
  /// unknowns so the canonical-mapping count stays CI-safe, and a fixed
  /// join-heavy query pool instead of random formulas — the regime where
  /// the compiled RA engine's join ordering and semijoin reduction carry
  /// the per-image work.
  kLarge,
  /// 5 constants (2 unknown), one unary and two binary predicates, and an
  /// ∃-chain query over 3–5 atoms (`RandomExistsChain` in tests/testing.h)
  /// with a unary or binary head: the shape whose bound columns the
  /// compiler's required-columns pass drops early, with negated conjuncts
  /// on bound variables, vacuous quantifiers and repeated variables.
  kExistsChain,
  /// 5 constants (2 unknown), one unary and one binary predicate, and the
  /// bodies that split for Theorem 13's route of `exact`, cycling with the
  /// seed: a positive part ∧ two guards `hx != c`; a positive part ∧
  /// negated atoms; a positive part ∧ a ∀-implication; a positive body; and
  /// a residual-only body (guards ∧ a negated atom). The positive part is a
  /// random negation-free formula; heads alternate between `(hx)` and
  /// `(hx, hy)` every five seeds.
  kGuarded,
};

const char* ProfileName(InstanceProfile profile);

/// One generated instance: a CW logical database plus a query over its
/// vocabulary. Deterministic in (seed, profile).
struct DifferentialInstance {
  DifferentialInstance(uint64_t seed, InstanceProfile profile,
                       std::unique_ptr<CwDatabase> db, Query query)
      : seed(seed),
        profile(profile),
        db(std::move(db)),
        query(std::move(query)) {}

  uint64_t seed;
  InstanceProfile profile;
  std::unique_ptr<CwDatabase> db;
  Query query;
};

/// Builds the instance for `(seed, profile)`. Always returns a usable
/// instance; generation itself cannot fail.
DifferentialInstance MakeInstance(uint64_t seed, InstanceProfile profile);

/// A self-contained reproduction report: the seed and profile (enough to
/// regenerate the instance), plus the serialized database and the printed
/// query so a failure can be replayed in the shell without recompiling.
std::string Describe(const DifferentialInstance& instance);

}  // namespace testing
}  // namespace lqdb

#endif  // LQDB_TESTS_DIFFERENTIAL_GENERATOR_H_
