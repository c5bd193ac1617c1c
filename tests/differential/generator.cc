#include "tests/differential/generator.h"

#include <sstream>
#include <string>
#include <vector>

#include "lqdb/gen/scenario.h"
#include "lqdb/io/text_format.h"
#include "lqdb/logic/builder.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/query.h"
#include "tests/testing.h"

namespace lqdb {
namespace testing {
namespace {

RandomDbParams DbParamsFor(InstanceProfile profile) {
  RandomDbParams p;
  switch (profile) {
    case InstanceProfile::kTiny:
      p.num_known = 2;
      p.num_unknown = 1;
      p.num_unary_preds = 1;
      p.num_binary_preds = 0;
      p.num_facts = 3;
      break;
    case InstanceProfile::kSmall:
      p.num_known = 3;
      p.num_unknown = 2;
      p.num_unary_preds = 1;
      p.num_binary_preds = 1;
      p.num_facts = 6;
      break;
    case InstanceProfile::kBinary:
      p.num_known = 3;
      p.num_unknown = 2;
      p.num_unary_preds = 0;
      p.num_binary_preds = 2;
      p.num_facts = 8;
      break;
    case InstanceProfile::kFullySpecified:
      p.num_known = 4;
      p.num_unknown = 0;
      p.num_unary_preds = 1;
      p.num_binary_preds = 1;
      p.num_facts = 7;
      break;
    case InstanceProfile::kPositive:
      p.num_known = 3;
      p.num_unknown = 2;
      p.num_unary_preds = 1;
      p.num_binary_preds = 1;
      p.num_facts = 6;
      break;
    case InstanceProfile::kSkewed:
      // Knowns first (RandomCwDatabase interns them before the unknowns)
      // pin the RGS prefix; five trailing unknowns hang hundreds of
      // partitions under that single chain.
      p.num_known = 3;
      p.num_unknown = 5;
      p.num_unary_preds = 1;
      p.num_binary_preds = 1;
      p.num_facts = 6;
      p.explicit_distinct_p = 0.1;
      break;
    case InstanceProfile::kLarge:
      break;  // handled by ScenarioParamsForLarge, not RandomDbParams
    case InstanceProfile::kExistsChain:
      p.num_known = 3;
      p.num_unknown = 2;
      p.num_unary_preds = 1;
      p.num_binary_preds = 2;
      p.num_facts = 8;
      break;
    case InstanceProfile::kGuarded:
      p.num_known = 3;
      p.num_unknown = 2;
      p.num_unary_preds = 1;
      p.num_binary_preds = 1;
      p.num_facts = 8;
      break;
  }
  return p;
}

/// kLarge sizing: ~18 constants and ~200 facts (an order of magnitude over
/// the toy profiles) with only 2 unknowns, so the canonical-mapping count
/// stays in the hundreds and the suite remains CI-safe under ASan/TSan
/// while the per-image relational work dominates.
ScenarioParams ScenarioParamsForLarge() {
  ScenarioParams p;
  p.num_known = 16;
  p.num_unknown = 2;
  p.num_unary = 2;
  p.num_binary = 2;
  p.facts_per_relation = 48;
  p.unknown_ref_rate = 0.15;
  p.distinct_pair_rate = 0.1;
  return p;
}

RandomFormulaParams FormulaParamsFor(InstanceProfile profile) {
  RandomFormulaParams p;
  switch (profile) {
    case InstanceProfile::kTiny:
      p.max_depth = 2;
      p.free_vars = {"hx"};
      break;
    case InstanceProfile::kSmall:
    case InstanceProfile::kFullySpecified:
      p.max_depth = 3;
      p.free_vars = {"hx"};
      break;
    case InstanceProfile::kBinary:
      p.max_depth = 3;
      p.free_vars = {"hx", "hy"};
      break;
    case InstanceProfile::kPositive:
      p.max_depth = 3;
      p.free_vars = {"hx"};
      p.allow_negation = false;
      break;
    case InstanceProfile::kSkewed:
      p.max_depth = 3;
      p.free_vars = {"hx"};
      break;
    case InstanceProfile::kLarge:
    case InstanceProfile::kExistsChain:
    case InstanceProfile::kGuarded:
      break;  // fixed query shapes, not random formulas
  }
  return p;
}

/// A kGuarded query (see the profile's comment) over the `P0`/`R0` schema.
Query GuardedQuery(uint64_t seed, uint64_t query_seed, Vocabulary* vocab) {
  Rng rng(query_seed);
  FormulaBuilder b(vocab);
  const std::vector<std::string> head =
      seed / 5 % 2 == 0 ? std::vector<std::string>{"hx"}
                        : std::vector<std::string>{"hx", "hy"};
  const Term x = b.V("hx");
  const Term last = b.V(head.back());
  auto constant = [&] {
    return Term::Constant(
        static_cast<ConstId>(rng.Below(vocab->num_constants())));
  };
  auto guards = [&] {
    return b.And({b.Neq(x, constant()), b.Neq(x, constant())});
  };
  RandomFormulaParams params;
  params.max_depth = 2;
  params.free_vars = head;
  params.allow_negation = false;
  const FormulaPtr positive = RandomFormula(&rng, vocab, params);
  FormulaPtr body;
  switch (seed % 5) {
    case 0:
      body = b.And({positive, guards()});
      break;
    case 1:
      body = b.And({positive, b.Not(b.Atom("P0", {x})),
                    b.Not(b.Atom("R0", {constant(), last}))});
      break;
    case 2:
      body = b.And({positive,
                    b.Forall("gy", b.Implies(b.Atom("R0", {x, b.V("gy")}),
                                             b.Atom("P0", {b.V("gy")})))});
      break;
    case 3:
      body = positive;
      break;
    default:
      body = b.And({guards(), b.Not(b.Atom("R0", {x, last}))});
      break;
  }
  std::vector<VarId> head_ids;
  for (const std::string& v : head) head_ids.push_back(vocab->AddVariable(v));
  return Query::Make(std::move(head_ids), std::move(body)).value();
}

}  // namespace

const char* ProfileName(InstanceProfile profile) {
  switch (profile) {
    case InstanceProfile::kTiny:
      return "tiny";
    case InstanceProfile::kSmall:
      return "small";
    case InstanceProfile::kBinary:
      return "binary";
    case InstanceProfile::kFullySpecified:
      return "fully_specified";
    case InstanceProfile::kPositive:
      return "positive";
    case InstanceProfile::kSkewed:
      return "skewed";
    case InstanceProfile::kLarge:
      return "large";
    case InstanceProfile::kExistsChain:
      return "exists_chain";
    case InstanceProfile::kGuarded:
      return "guarded";
  }
  return "unknown";
}

DifferentialInstance MakeInstance(uint64_t seed, InstanceProfile profile) {
  if (profile == InstanceProfile::kLarge) {
    const ScenarioParams params = ScenarioParamsForLarge();
    std::unique_ptr<CwDatabase> db = MakeScenario(seed, params);
    const std::vector<std::string> pool = ScenarioQueryPool(params);
    // Cycle the fixed pool so every query shape is hit within a handful of
    // seeds while the database still varies per seed.
    Query query =
        ParseQuery(db->mutable_vocab(), pool[seed % pool.size()]).value();
    return DifferentialInstance(seed, profile, std::move(db),
                                std::move(query));
  }
  std::unique_ptr<CwDatabase> db = RandomCwDatabase(seed, DbParamsFor(profile));
  // Decorrelate the query stream from the database stream so instances with
  // equal seeds but different profiles do not share query structure.
  const uint64_t query_seed =
      seed * 2654435761ull + 101ull * static_cast<uint64_t>(profile);
  if (profile == InstanceProfile::kExistsChain) {
    // Alternate unary and binary heads.
    const std::vector<std::string> head =
        seed % 2 == 0 ? std::vector<std::string>{"hx"}
                      : std::vector<std::string>{"hx", "hy"};
    Query query = RandomExistsChain(query_seed, db->mutable_vocab(), head);
    return DifferentialInstance(seed, profile, std::move(db),
                                std::move(query));
  }
  if (profile == InstanceProfile::kGuarded) {
    Query query = GuardedQuery(seed, query_seed, db->mutable_vocab());
    return DifferentialInstance(seed, profile, std::move(db),
                                std::move(query));
  }
  Query query =
      RandomQuery(query_seed, db->mutable_vocab(), FormulaParamsFor(profile));
  return DifferentialInstance(seed, profile, std::move(db), std::move(query));
}

std::string Describe(const DifferentialInstance& instance) {
  std::ostringstream out;
  out << "reproducing seed: " << instance.seed << " (profile "
      << ProfileName(instance.profile) << ")\n"
      << "database:\n"
      << SerializeCwDatabase(*instance.db) << "query: "
      << PrintQuery(instance.db->vocab(), instance.query)
      << (IsPositive(instance.query) ? "  [positive]" : "") << "\n";
  return out.str();
}

}  // namespace testing
}  // namespace lqdb
