/// Differential testing of the query engines against each other:
///
///   - the `brute` engine: the literal Theorem 1 definition, enumerating
///     *every* mapping h : C → C — slow but definitionally correct, so it
///     serves as the oracle;
///   - `ExactEvaluator` with its other sweeps (`exact`/`ra-exact`,
///     `batched-exact`, `parallel-exact`): Theorem 1 with canonical-mapping
///     enumeration, compiled or batched per-image checks, one worker or
///     work stealing over several — must agree with brute and with each
///     other on every instance;
///   - `ApproxEvaluator` (approx/): the §5 polynomial approximation — must
///     be sound (⊆ exact) always, and complete on fully specified databases
///     (Theorem 12) and positive queries (Theorem 13).
///
/// Every test sweeps seeded random instances from tests/differential/
/// generator.h; any failure prints the reproducing seed plus the serialized
/// database and query, so it can be replayed without recompiling.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lqdb/approx/approx.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/eval/kernel_memo.h"
#include "lqdb/exact/brute.h"
#include "lqdb/exact/exact.h"
#include "lqdb/io/text_format.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/ra/validate.h"
#include "lqdb/relational/relation.h"
#include "lqdb/service/service.h"
#include "tests/differential/generator.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

using testing::Describe;
using testing::DifferentialInstance;
using testing::InstanceProfile;
using testing::MakeInstance;

/// A registry engine over `db` — the way every other caller gets one — with
/// the kernel memo on or off. The budget admits brute's full `|C|^|C|`
/// space up to `|C| = 8` (8^8 ≈ 16.8M mappings, above the 10M default).
std::unique_ptr<QueryEngine> MakeEngine(const char* name, CwDatabase* db,
                                        int threads = 0, bool memo = true) {
  EngineOptions options;
  options.threads = threads;
  options.exact.memo = memo;
  options.exact.max_mappings = 50'000'000;
  return EngineRegistry::Global().Create(name, db, options).value();
}

/// The serial sweep with the batched Tarskian checker: the reference the
/// compiled and parallel sweeps are compared against.
ExactEvaluator Batched(const CwDatabase* db, bool memo = true) {
  ExactOptions options;
  options.memo = memo;
  return ExactEvaluator(db, options, ExactSweep::kBatched);
}

std::string AnswerDiff(const CwDatabase& db, const char* lhs_name,
                       const Relation& lhs, const char* rhs_name,
                       const Relation& rhs) {
  auto render = [&](const Relation& r) {
    std::string out = "{";
    bool first = true;
    for (const Tuple& t : r.SortedTuples()) {
      if (!first) out += ", ";
      first = false;
      out += "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        out += db.vocab().ConstantName(t[i]);
      }
      out += ")";
    }
    return out + "}";
  };
  return std::string(lhs_name) + " = " + render(lhs) + "\n" + rhs_name +
         " = " + render(rhs);
}

/// Exact vs. brute: the canonical-mapping enumeration must compute exactly
/// the same certain answer as the unoptimized all-mappings definition, and
/// the certain answer must be contained in the possible answer.
void CheckBruteVsExact(const DifferentialInstance& instance) {
  SCOPED_TRACE(Describe(instance));
  ASSERT_OK_AND_ASSIGN(Relation brute_answer,
                       MakeEngine("brute", instance.db.get())
                           ->Answer(instance.query));

  ExactEvaluator exact(instance.db.get());
  ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
  EXPECT_EQ(brute_answer, exact_answer)
      << AnswerDiff(*instance.db, "brute", brute_answer, "exact",
                    exact_answer);

  ASSERT_OK_AND_ASSIGN(Relation possible,
                       exact.PossibleAnswer(instance.query));
  EXPECT_TRUE(exact_answer.IsSubsetOf(possible))
      << AnswerDiff(*instance.db, "certain", exact_answer, "possible",
                    possible);
}

TEST(DifferentialTest, BruteAgreesWithExact) {
  const InstanceProfile profiles[] = {InstanceProfile::kTiny,
                                      InstanceProfile::kSmall,
                                      InstanceProfile::kBinary};
  for (InstanceProfile profile : profiles) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      CheckBruteVsExact(MakeInstance(seed, profile));
    }
  }
}

/// Soundness of the approximation (Theorem 11) under every engine
/// configuration, plus cross-configuration agreement: all four configs
/// compute the same mathematical object A(Q, LB) = Q̂(Ph₂(LB)), so their
/// answers must be identical, not merely each sound.
TEST(DifferentialTest, ApproxIsSoundAndConfigurationsAgree) {
  struct Config {
    const char* name;
    AlphaMode alpha;
    ApproxEngine engine;
    bool materialize_ne;
  };
  const Config configs[] = {
      {"virtual/evaluator", AlphaMode::kVirtual, ApproxEngine::kEvaluator,
       false},
      {"virtual/evaluator/materialized-NE", AlphaMode::kVirtual,
       ApproxEngine::kEvaluator, true},
      {"syntactic/evaluator", AlphaMode::kSyntactic, ApproxEngine::kEvaluator,
       true},
      {"virtual/ra", AlphaMode::kVirtual, ApproxEngine::kRelationalAlgebra,
       false},
  };
  const InstanceProfile profiles[] = {InstanceProfile::kSmall,
                                      InstanceProfile::kBinary};
  for (InstanceProfile profile : profiles) {
    for (uint64_t seed = 0; seed < 30; ++seed) {
      // The exact answer depends only on (seed, profile); compute it once
      // on its own copy of the instance. Constant ids are deterministic in
      // the seed, so the relation is comparable across instance copies.
      Relation exact_answer(0);
      {
        DifferentialInstance instance = MakeInstance(seed, profile);
        SCOPED_TRACE(Describe(instance));
        ExactEvaluator exact(instance.db.get());
        ASSERT_OK_AND_ASSIGN(exact_answer, exact.Answer(instance.query));
      }

      std::vector<Relation> answers;
      for (const Config& config : configs) {
        // A fresh deterministic copy of the instance per config: building an
        // ApproxEvaluator extends the database vocabulary (NE, α), so
        // configs must not share one database.
        DifferentialInstance instance = MakeInstance(seed, profile);
        SCOPED_TRACE(Describe(instance));
        SCOPED_TRACE(std::string("config: ") + config.name);

        ApproxOptions options;
        options.alpha_mode = config.alpha;
        options.engine = config.engine;
        options.materialize_ne = config.materialize_ne;
        ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                             ApproxEvaluator::Make(instance.db.get(),
                                                   options));
        ASSERT_OK_AND_ASSIGN(Relation approx_answer,
                             approx->Answer(instance.query));

        EXPECT_TRUE(approx_answer.IsSubsetOf(exact_answer))
            << "approximation is unsound\n"
            << AnswerDiff(*instance.db, "approx", approx_answer, "exact",
                          exact_answer);
        if (!answers.empty()) {
          EXPECT_EQ(approx_answer, answers.front())
              << "configs disagree: " << configs[0].name << " vs "
              << config.name << "\n"
              << AnswerDiff(*instance.db, configs[0].name, answers.front(),
                            config.name, approx_answer);
        }
        answers.push_back(std::move(approx_answer));
      }
    }
  }
}

/// Theorem 12: on a fully specified database all three engines coincide.
TEST(DifferentialTest, FullySpecifiedAllEnginesCoincide) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kFullySpecified);
    SCOPED_TRACE(Describe(instance));
    ASSERT_TRUE(instance.db->IsFullySpecified());

    ASSERT_OK_AND_ASSIGN(Relation brute_answer,
                         MakeEngine("brute", instance.db.get())
                             ->Answer(instance.query));

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    EXPECT_EQ(brute_answer, exact_answer)
        << AnswerDiff(*instance.db, "brute", brute_answer, "exact",
                      exact_answer);

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(instance.db.get(), {}));
    ASSERT_OK_AND_ASSIGN(Relation approx_answer,
                         approx->Answer(instance.query));
    EXPECT_EQ(approx_answer, exact_answer)
        << "approximation incomplete on a fully specified database\n"
        << AnswerDiff(*instance.db, "approx", approx_answer, "exact",
                      exact_answer);
  }
}

/// Theorem 13: for positive queries the approximation is complete even with
/// unknown constants present.
TEST(DifferentialTest, PositiveQueriesAreComplete) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kPositive);
    SCOPED_TRACE(Describe(instance));
    ASSERT_TRUE(IsPositive(instance.query));

    ASSERT_OK_AND_ASSIGN(Relation brute_answer,
                         MakeEngine("brute", instance.db.get())
                             ->Answer(instance.query));

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    EXPECT_EQ(brute_answer, exact_answer)
        << AnswerDiff(*instance.db, "brute", brute_answer, "exact",
                      exact_answer);

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ApproxEvaluator> approx,
                         ApproxEvaluator::Make(instance.db.get(), {}));
    ASSERT_OK_AND_ASSIGN(Relation approx_answer,
                         approx->Answer(instance.query));
    EXPECT_EQ(approx_answer, exact_answer)
        << "approximation incomplete on a positive query\n"
        << AnswerDiff(*instance.db, "approx", approx_answer, "exact",
                      exact_answer);
  }
}

/// The parallel-engine agreement dimension: `parallel-exact` (compiled
/// checks under the work-stealing scheduler) at 1, 2 and 4 threads must
/// compute exactly the same certain and possible answers as the serial
/// batched sweep on *every* instance the suite generates — the same 298
/// (profile, seed) pairs the other dimensions sweep, so a
/// partition-splitting or coordination bug cannot hide in a corner the
/// serial tests cover but the parallel ones skip.
TEST(DifferentialTest, ParallelExactAgreesOnAllInstances) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  // Mirrors the instance sets of the other tests in this file:
  // 3×40 (brute-vs-exact) + 2×30 (approx configs) + 40 + 40 + 8 + 30
  // (∃-chains) = 298.
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
      {InstanceProfile::kExistsChain, 30},
  };
  uint64_t instances = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactEvaluator exact = Batched(instance.db.get());
      ASSERT_OK_AND_ASSIGN(Relation exact_answer,
                           exact.Answer(instance.query));
      ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                           exact.PossibleAnswer(instance.query));

      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::unique_ptr<QueryEngine> parallel =
            MakeEngine("parallel-exact", instance.db.get(), threads);
        ASSERT_OK_AND_ASSIGN(Relation parallel_answer,
                             parallel->Answer(instance.query));
        EXPECT_EQ(parallel_answer, exact_answer)
            << AnswerDiff(*instance.db, "parallel", parallel_answer,
                          "exact", exact_answer);

        ASSERT_OK_AND_ASSIGN(Relation parallel_possible,
                             parallel->PossibleAnswer(instance.query));
        EXPECT_EQ(parallel_possible, exact_possible)
            << AnswerDiff(*instance.db, "parallel", parallel_possible,
                          "exact", exact_possible);
      }
    }
  }
  EXPECT_EQ(instances, 298u);
}

/// The work-stealing dimension: the skewed profile hangs the whole
/// canonical-mapping mass under one giant kernel-class subtree (the known
/// constants pin a single RGS prefix chain), the adversarial shape for the
/// parallel engine's scheduler. With 8 workers stealing from one subtree —
/// lots of remainder donation — the parallel answers must still be
/// bit-identical to the serial sweep's on every instance.
TEST(DifferentialTest, SkewedProfileParallelAgreesOnAllInstances) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kSkewed);
    SCOPED_TRACE(Describe(instance));

    ExactEvaluator exact = Batched(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                         exact.PossibleAnswer(instance.query));

    std::unique_ptr<QueryEngine> parallel =
        MakeEngine("parallel-exact", instance.db.get(), 8);
    ASSERT_OK_AND_ASSIGN(Relation parallel_answer,
                         parallel->Answer(instance.query));
    EXPECT_EQ(parallel_answer, exact_answer)
        << AnswerDiff(*instance.db, "parallel", parallel_answer, "exact",
                      exact_answer);
    ASSERT_OK_AND_ASSIGN(Relation parallel_possible,
                         parallel->PossibleAnswer(instance.query));
    EXPECT_EQ(parallel_possible, exact_possible)
        << AnswerDiff(*instance.db, "parallel", parallel_possible, "exact",
                      exact_possible);
  }
}

/// The compiled-plan dimension: `exact` (and its alias `ra-exact`) replaces
/// the per-image batched evaluator with a cached relational-algebra plan
/// (hash joins, anti-joins for negation, shared subplans for `↔`/`→`/`∀`),
/// so the whole compiler + executor stack must reproduce the batched
/// sweep's answers bit-for-bit on every instance the suite generates — the
/// same 298 (profile, seed) pairs the other dimensions sweep. The generator
/// emits first-order formulas only, so every instance exercises the
/// compiled path rather than the second-order fallback.
TEST(DifferentialTest, RaExactAgreesOnAllInstances) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
      {InstanceProfile::kExistsChain, 30},
  };
  uint64_t instances = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactEvaluator exact = Batched(instance.db.get());
      ASSERT_OK_AND_ASSIGN(Relation exact_answer,
                           exact.Answer(instance.query));
      ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                           exact.PossibleAnswer(instance.query));

      for (const char* name : {"exact", "ra-exact"}) {
        SCOPED_TRACE(name);
        std::unique_ptr<QueryEngine> ra = MakeEngine(name, instance.db.get());
        ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
        EXPECT_EQ(ra_answer, exact_answer)
            << AnswerDiff(*instance.db, name, ra_answer, "batched",
                          exact_answer);

        ASSERT_OK_AND_ASSIGN(Relation ra_possible,
                             ra->PossibleAnswer(instance.query));
        EXPECT_EQ(ra_possible, exact_possible)
            << AnswerDiff(*instance.db, name, ra_possible, "batched",
                          exact_possible);
      }
    }
  }
  EXPECT_EQ(instances, 298u);
}

/// The compiled sweep on the skewed profile: the known constants pin a long RGS
/// prefix chain, so the canonical enumeration visits many near-identical
/// images — exactly the case the cached plan is supposed to accelerate
/// without changing a single answer.
TEST(DifferentialTest, SkewedProfileRaExactAgreesOnAllInstances) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kSkewed);
    SCOPED_TRACE(Describe(instance));

    ExactEvaluator exact = Batched(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                         exact.PossibleAnswer(instance.query));

    std::unique_ptr<QueryEngine> ra = MakeEngine("exact", instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
    EXPECT_EQ(ra_answer, exact_answer)
        << AnswerDiff(*instance.db, "ra-exact", ra_answer, "exact",
                      exact_answer);
    ASSERT_OK_AND_ASSIGN(Relation ra_possible,
                         ra->PossibleAnswer(instance.query));
    EXPECT_EQ(ra_possible, exact_possible)
        << AnswerDiff(*instance.db, "ra-exact", ra_possible, "exact",
                      exact_possible);
  }
}

/// The compiled sweep on the generated large-world profile: an order of magnitude
/// more constants and facts than the toy profiles (lqdb/gen/scenario.h),
/// with a fixed join-heavy query pool — the regime the compiled engine's
/// join-order DP and semijoin reduction actually target, so agreement here
/// covers plan shapes (multi-join chains, binary heads, guarded universals
/// over large relations) the random toy formulas rarely produce. Few
/// unknowns keep the mapping count in the hundreds, so the sweep stays
/// CI-safe under the sanitizers; six seeds cycle through every pool query.
TEST(DifferentialTest, LargeProfileRaExactAgreesOnAllInstances) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kLarge);
    SCOPED_TRACE(Describe(instance));

    ExactEvaluator exact = Batched(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation exact_answer, exact.Answer(instance.query));
    ASSERT_OK_AND_ASSIGN(Relation exact_possible,
                         exact.PossibleAnswer(instance.query));

    std::unique_ptr<QueryEngine> ra = MakeEngine("exact", instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation ra_answer, ra->Answer(instance.query));
    EXPECT_EQ(ra_answer, exact_answer)
        << AnswerDiff(*instance.db, "ra-exact", ra_answer, "exact",
                      exact_answer);
    ASSERT_OK_AND_ASSIGN(Relation ra_possible,
                         ra->PossibleAnswer(instance.query));
    EXPECT_EQ(ra_possible, exact_possible)
        << AnswerDiff(*instance.db, "ra-exact", ra_possible, "exact",
                      exact_possible);
  }
}

/// The static-validation dimension: every query of the full differential
/// corpus — the 298-instance pool plus the skewed, large and guarded
/// profiles — compiles to a plan that passes `ValidatePlan` with zero
/// findings, and so does its semijoin-reduced form (validated against the
/// reduction's param node), and so do the plans of its Theorem 13 route.
/// This is the standing guarantee behind running the validator on every
/// compiled plan in debug builds: the gate only helps if the honest
/// compiler output never trips it.
TEST(DifferentialTest, CompiledPlansValidateOnAllInstances) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
      {InstanceProfile::kExistsChain, 30},
      {InstanceProfile::kSkewed, 20}, {InstanceProfile::kLarge, 6},
      {InstanceProfile::kGuarded, 40},
  };
  uint64_t instances = 0;
  uint64_t routes = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(instance.query));
      ASSERT_OK(bound.CompileRaPlan(instance.db->vocab()));
      if (const PositiveRoute* route = bound.route().get()) {
        ++routes;
        PlanValidateOptions route_opts;
        route_opts.vocab = &instance.db->vocab();
        EXPECT_OK(ValidatePlan(route->positive, route_opts));
        if (route->residual) {
          EXPECT_OK(ValidatePlan(route->residual->ra_plan(), route_opts));
          const ReducedPlan& residual = route->residual->ra_reduced();
          route_opts.param = residual.param.get();
          EXPECT_OK(ValidatePlan(residual.plan, route_opts));
        }
      }

      RaCompiler compiler(&instance.db->vocab());
      ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(instance.query));
      PlanValidateOptions opts;
      opts.vocab = &instance.db->vocab();
      EXPECT_OK(ValidatePlan(plan, opts));

      ASSERT_OK_AND_ASSIGN(ReducedPlan reduced, SemijoinReduce(plan));
      opts.param = reduced.param.get();
      EXPECT_OK(ValidatePlan(reduced.plan, opts));
    }
  }
  EXPECT_EQ(instances, 364u);
  EXPECT_GT(routes, 0u);
}

/// The multi-session dimension: K = 8 concurrent service sessions — mixed
/// engines, including the mutating approximation and the parallel engine —
/// each replaying the same prepared statement through the shared cache,
/// must produce answers bit-identical to a sequential replay of the exact
/// same call sequence on a fresh copy of the instance. Constant ids are
/// deterministic in (seed, profile), so the relations are comparable
/// across instance copies. Runs under TSan in CI, where it also serves as
/// the data-race probe for the service's locking discipline.
TEST(DifferentialTest, ConcurrentSessionsMatchSequentialReplay) {
  struct SessionSpec {
    const char* engine;
    int threads;
  };
  const SessionSpec specs[] = {
      {"exact", 1},          {"ra-exact", 1}, {"parallel-exact", 2},
      {"brute", 1},          {"exact", 1},    {"ra-exact", 1},
      {"parallel-exact", 2}, {"approx", 1},
  };
  constexpr size_t kSessions = sizeof(specs) / sizeof(specs[0]);
  constexpr int kRounds = 3;

  // One session's Prepare + Execute (async, through the shared pool, in
  // the concurrent phase; synchronous in the replay — same code path
  // underneath, so the answers must not differ).
  auto run_async = [](Session& session, const std::string& text,
                      bool possible) -> Result<Relation> {
    auto info = session.Prepare(text);
    if (!info.ok()) return info.status();
    auto async = session.ExecuteAsync(info->handle, possible);
    if (!async.ok()) return async.status();
    return async->result.get();
  };
  auto run_sync = [](Session& session, const std::string& text,
                     bool possible) -> Result<Relation> {
    auto info = session.Prepare(text);
    if (!info.ok()) return info.status();
    return possible ? session.ExecutePossible(info->handle)
                    : session.Execute(info->handle);
  };
  auto open = [](Service& service, const SessionSpec& spec) {
    SessionOptions options;
    options.engine = spec.engine;
    options.engine_options.threads = spec.threads;
    options.max_in_flight = 2;
    return service.OpenSession(std::move(options)).value();
  };

  const InstanceProfile profiles[] = {InstanceProfile::kTiny,
                                      InstanceProfile::kSmall,
                                      InstanceProfile::kBinary};
  for (InstanceProfile profile : profiles) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      DifferentialInstance instance = MakeInstance(seed, profile);
      SCOPED_TRACE(Describe(instance));
      const std::string text =
          PrintQuery(instance.db->vocab(), instance.query);

      // Concurrent phase: one thread per session against one service.
      std::vector<std::vector<Result<Relation>>> concurrent(kSessions);
      {
        Service service(instance.db.get());
        std::vector<std::shared_ptr<Session>> sessions;
        for (size_t i = 0; i < kSessions; ++i) {
          sessions.push_back(open(service, specs[i]));
        }
        std::vector<std::thread> threads;
        for (size_t i = 0; i < kSessions; ++i) {
          threads.emplace_back([&, i] {
            for (int round = 0; round < kRounds; ++round) {
              concurrent[i].push_back(
                  run_async(*sessions[i], text, /*possible=*/false));
              if (sessions[i]->capabilities().supports_possible) {
                concurrent[i].push_back(
                    run_async(*sessions[i], text, /*possible=*/true));
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
      }

      // Sequential replay: fresh instance copy, fresh service, the same
      // call sequence one session at a time.
      DifferentialInstance replay = MakeInstance(seed, profile);
      Service service(replay.db.get());
      for (size_t i = 0; i < kSessions; ++i) {
        SCOPED_TRACE(std::string("session ") + std::to_string(i) + " (" +
                     specs[i].engine + ")");
        std::shared_ptr<Session> session = open(service, specs[i]);
        std::vector<Result<Relation>> expected;
        for (int round = 0; round < kRounds; ++round) {
          expected.push_back(run_sync(*session, text, /*possible=*/false));
          if (session->capabilities().supports_possible) {
            expected.push_back(run_sync(*session, text, /*possible=*/true));
          }
        }
        ASSERT_EQ(concurrent[i].size(), expected.size());
        for (size_t j = 0; j < expected.size(); ++j) {
          SCOPED_TRACE(std::string("call ") + std::to_string(j));
          ASSERT_EQ(concurrent[i][j].ok(), expected[j].ok())
              << "concurrent: " << concurrent[i][j].status().ToString()
              << "\nsequential: " << expected[j].status().ToString();
          if (!expected[j].ok()) {
            EXPECT_EQ(concurrent[i][j].status().code(),
                      expected[j].status().code());
            continue;
          }
          EXPECT_EQ(concurrent[i][j].value(), expected[j].value())
              << AnswerDiff(*replay.db, "concurrent",
                            concurrent[i][j].value(), "sequential",
                            expected[j].value());
        }
      }
    }
  }
}

/// The (profile, seed count) pairs of the memo dimensions: the same 298
/// instances the other dimensions sweep, plus 40 of the guarded profile,
/// whose bodies split for Theorem 13's route of `exact`.
struct MemoSweep {
  InstanceProfile profile;
  uint64_t seeds;
};
constexpr MemoSweep kMemoSweeps[] = {
    {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
    {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
    {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
    {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
    {InstanceProfile::kExistsChain, 30}, {InstanceProfile::kGuarded, 40},
};

/// The zero-hit rule's premise (eval/kernel_memo.h) over the memo corpus:
/// whenever the signature context reports every unpinned constant alone in
/// its class, the canonical mappings' signatures are pairwise distinct, so
/// a canonical sweep there could never hit. Both sides of the rule occur.
TEST(DifferentialTest, AllSingletonContextsGiveDistinctSignatures) {
  uint64_t all_singleton = 0;
  uint64_t shared_class = 0;
  for (const MemoSweep& sweep : kMemoSweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));
      ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(instance.query));
      const KernelSignatureContext ctx(*instance.db, bound.constants());
      if (!ctx.all_singletons()) {
        ++shared_class;
        continue;
      }
      ++all_singleton;
      std::set<std::string> signatures;
      uint64_t mappings = 0;
      KernelSignatureScratch scratch;
      ForEachCanonicalMapping(*instance.db, [&](const ConstMapping& h) {
        ++mappings;
        ctx.SignatureOf(h, &scratch);
        signatures.insert(scratch.sig);
        return true;
      });
      EXPECT_EQ(signatures.size(), mappings);
    }
  }
  EXPECT_GT(all_singleton, 0u);
  EXPECT_GT(shared_class, 0u);
}

/// The memoization dimension: every Theorem 1 registry engine, with the
/// kernel memo on (the default) and off, must produce answers bit-identical
/// to the memo-off batched sweep on every instance of `kMemoSweeps`, and
/// `parallel-exact` at 1, 2, 4 and 8 workers, each with its own table. The
/// certain answers of `exact` and `parallel-exact` take Theorem 13's route
/// wherever the body has a positive conjunct, so this is also the check of
/// the route against `brute` and `batched-exact`, which always sweep. An
/// unsound signature (one that identifies non-isomorphic images) would
/// surface here as a wrong reused verdict; see kernel_memo.h for the
/// counterexample that killed the naive block-size signature. The sweep
/// also asserts the memo actually engaged (hits accumulated somewhere), so
/// the comparison can never silently degenerate into memo-off vs memo-off.
TEST(DifferentialTest, MemoizedAgreesOnAllInstances) {
  uint64_t instances = 0;
  uint64_t total_hits = 0;
  for (const MemoSweep& sweep : kMemoSweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactEvaluator baseline = Batched(instance.db.get(), /*memo=*/false);
      ASSERT_OK_AND_ASSIGN(Relation baseline_answer,
                           baseline.Answer(instance.query));
      ASSERT_OK_AND_ASSIGN(Relation baseline_possible,
                           baseline.PossibleAnswer(instance.query));
      EXPECT_EQ(baseline.last_memo_counters().row_hits, 0u);

      // Brute enumerates every mapping (not just canonical representatives),
      // so its sweep is exponentially redundant — the memo's best case and
      // the harshest consistency check, since most verdicts are reused.
      for (const char* name :
           {"brute", "exact", "batched-exact", "parallel-exact"}) {
        const bool threaded = std::string(name) == "parallel-exact";
        for (int threads : threaded ? std::vector<int>{1, 2, 4, 8}
                                    : std::vector<int>{1}) {
          for (bool memo : {false, true}) {
            SCOPED_TRACE(std::string(name) + "/" + std::to_string(threads) +
                         (memo ? " memo" : " no-memo"));
            std::unique_ptr<QueryEngine> engine =
                MakeEngine(name, instance.db.get(), threads, memo);
            ASSERT_OK_AND_ASSIGN(Relation answer,
                                 engine->Answer(instance.query));
            EXPECT_EQ(answer, baseline_answer)
                << AnswerDiff(*instance.db, name, answer, "baseline",
                              baseline_answer);
            total_hits += engine->last_memo_counters().row_hits;
            if (!engine->capabilities().supports_possible) continue;
            ASSERT_OK_AND_ASSIGN(Relation possible,
                                 engine->PossibleAnswer(instance.query));
            EXPECT_EQ(possible, baseline_possible)
                << AnswerDiff(*instance.db, name, possible, "baseline",
                              baseline_possible);
          }
        }
      }
    }
  }
  EXPECT_EQ(instances, 338u);
  EXPECT_GT(total_hits, 0u);
}

/// Memo agreement on the adversarial profiles: kSkewed hangs the mapping
/// mass under one kernel-class subtree (many signature-equivalent
/// mappings — maximal reuse), kLarge runs the generated scenario worlds
/// where an unsound interchangeability class would have room to hide.
/// Brute is excluded: its full mapping space is intractable here.
TEST(DifferentialTest, MemoizedAgreesOnAdversarialProfiles) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kSkewed, 20},
      {InstanceProfile::kLarge, 6},
  };
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      DifferentialInstance instance = MakeInstance(seed, sweep.profile);
      SCOPED_TRACE(Describe(instance));

      ExactEvaluator baseline = Batched(instance.db.get(), /*memo=*/false);
      ASSERT_OK_AND_ASSIGN(Relation baseline_answer,
                           baseline.Answer(instance.query));

      // `parallel-exact` runs the skewed worlds at 1, 2, 4 and 8 workers,
      // each worker with its own table.
      for (const char* name : {"batched-exact", "exact", "parallel-exact"}) {
        const bool threaded = std::string(name) == "parallel-exact";
        if (threaded && sweep.profile != InstanceProfile::kSkewed) continue;
        for (int threads : threaded ? std::vector<int>{1, 2, 4, 8}
                                    : std::vector<int>{1}) {
          SCOPED_TRACE(std::string(name) + "/" + std::to_string(threads));
          std::unique_ptr<QueryEngine> engine =
              MakeEngine(name, instance.db.get(), threads);
          ASSERT_OK_AND_ASSIGN(Relation answer,
                               engine->Answer(instance.query));
          EXPECT_EQ(answer, baseline_answer)
              << AnswerDiff(*instance.db, name, answer, "no-memo",
                            baseline_answer);
        }
      }
    }
  }
}

/// The guarded profile reaches every route of `exact`'s certain answer: a
/// positive body answered on Ph₁ alone, in exactly one examined mapping; a
/// positive part with a swept residual; and no positive part at all. Each
/// route's answer equals `batched-exact`'s, which always sweeps.
TEST(DifferentialTest, GuardedProfileTakesEveryRoute) {
  uint64_t positive = 0;
  uint64_t mixed = 0;
  uint64_t residual_only = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    DifferentialInstance instance =
        MakeInstance(seed, InstanceProfile::kGuarded);
    SCOPED_TRACE(Describe(instance));
    ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(instance.query));
    ASSERT_OK(bound.CompileRaPlan(instance.db->vocab()));
    const PositiveRoute* route = bound.route().get();
    const ConjunctSplit split = SplitPositiveConjuncts(instance.query.body());
    ASSERT_EQ(route != nullptr, split.positive != nullptr);
    ASSERT_EQ(route != nullptr && !route->residual, split.residual == nullptr);

    ExactEvaluator exact(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation answer, exact.Answer(instance.query));
    ExactEvaluator batched = Batched(instance.db.get());
    ASSERT_OK_AND_ASSIGN(Relation reference, batched.Answer(instance.query));
    EXPECT_EQ(answer, reference)
        << AnswerDiff(*instance.db, "exact", answer, "batched", reference);
    if (route == nullptr) {
      ++residual_only;
    } else if (!route->residual) {
      ++positive;
      EXPECT_EQ(exact.last_mappings_examined(), 1u);
    } else {
      ++mixed;
      EXPECT_GE(exact.last_mappings_examined(), 1u);
    }
  }
  EXPECT_GT(positive, 0u);
  EXPECT_GT(mixed, 0u);
  EXPECT_GT(residual_only, 0u);
}

/// Theorem 1 with every image rebuilt from scratch: each canonical mapping
/// `h`, its image by `ApplyMapping`, and `Evaluator::Answer` on that image;
/// candidate `c` holds in the image iff `h(c)` is in the image's answer.
/// Shares nothing with `ExactEvaluator` beyond the enumeration. Returns the
/// certain and the possible answer.
Result<std::pair<Relation, Relation>> FullRebuildAnswers(const CwDatabase& db,
                                                         const Query& query) {
  const std::vector<Tuple> candidates = AllCandidateTuples(
      query.arity(), static_cast<ConstId>(db.num_constants()));
  std::vector<char> always(candidates.size(), 1);
  std::vector<char> ever(candidates.size(), 0);
  Status error;
  ForEachCanonicalMapping(db, [&](const ConstMapping& h) {
    const PhysicalDatabase image = ApplyMapping(db, h);
    Result<Relation> holds = Evaluator(&image).Answer(query);
    if (!holds.ok()) {
      error = holds.status();
      return false;
    }
    for (size_t k = 0; k < candidates.size(); ++k) {
      Tuple mapped;
      for (ConstId c : candidates[k]) mapped.push_back(h[c]);
      const bool in = holds->Contains(mapped);
      always[k] = always[k] && in;
      ever[k] = ever[k] || in;
    }
    return true;
  });
  if (!error.ok()) return error;
  const int arity = static_cast<int>(query.arity());
  std::pair<Relation, Relation> answers(Relation{arity}, Relation{arity});
  for (size_t k = 0; k < candidates.size(); ++k) {
    if (always[k]) answers.first.Insert(candidates[k]);
    if (ever[k]) answers.second.Insert(candidates[k]);
  }
  return answers;
}

/// The round-trip dimension. Every registry engine builds its images with
/// the same incremental builder (`MappingImage`), so comparing the engines
/// with one another cannot catch a bug in it. Here every corpus instance
/// is round-tripped through the text format, which declares the unknowns
/// first: they get the lowest ids, so the builder's labels are not the
/// identity. Every Theorem 1 engine, with the memo on and off, must then
/// match the full-rebuild reference above, certain and possible answers
/// alike; brute runs on the 298-instance pool.
TEST(DifferentialTest, RoundTrippedWorldsMatchFullRebuildReference) {
  struct Sweep {
    InstanceProfile profile;
    uint64_t seeds;
  };
  const Sweep sweeps[] = {
      {InstanceProfile::kTiny, 40},   {InstanceProfile::kSmall, 40},
      {InstanceProfile::kBinary, 40}, {InstanceProfile::kSmall, 30},
      {InstanceProfile::kBinary, 30}, {InstanceProfile::kFullySpecified, 40},
      {InstanceProfile::kPositive, 40}, {InstanceProfile::kTiny, 8},
      {InstanceProfile::kExistsChain, 30},
      {InstanceProfile::kSkewed, 20}, {InstanceProfile::kLarge, 6},
      {InstanceProfile::kGuarded, 40},
  };
  uint64_t instances = 0;
  uint64_t relabeled = 0;
  for (const Sweep& sweep : sweeps) {
    for (uint64_t seed = 0; seed < sweep.seeds; ++seed) {
      ++instances;
      DifferentialInstance original = MakeInstance(seed, sweep.profile);
      ASSERT_OK_AND_ASSIGN(
          std::unique_ptr<CwDatabase> db,
          ParseCwDatabase(SerializeCwDatabase(*original.db)));
      ASSERT_OK_AND_ASSIGN(
          Query query,
          ParseQuery(db->mutable_vocab(),
                     PrintQuery(original.db->vocab(), original.query)));
      DifferentialInstance instance(seed, sweep.profile, std::move(db),
                                    std::move(query));
      SCOPED_TRACE(Describe(instance));
      if (!instance.db->IsKnown(0)) ++relabeled;

      ASSERT_OK_AND_ASSIGN(const auto reference,
                           FullRebuildAnswers(*instance.db, instance.query));
      // Brute's |C|^|C| space is intractable on the adversarial profiles
      // (as in MemoizedAgreesOnAdversarialProfiles).
      const bool adversarial = sweep.profile == InstanceProfile::kSkewed ||
                               sweep.profile == InstanceProfile::kLarge;
      for (const char* name :
           {"brute", "exact", "batched-exact", "parallel-exact"}) {
        for (bool memo : {false, true}) {
          if (std::string(name) == "brute" && adversarial) continue;
          SCOPED_TRACE(std::string(name) + (memo ? " memo" : " no-memo"));
          std::unique_ptr<QueryEngine> engine =
              MakeEngine(name, instance.db.get(), /*threads=*/4, memo);
          ASSERT_OK_AND_ASSIGN(Relation answer,
                               engine->Answer(instance.query));
          EXPECT_EQ(answer, reference.first)
              << AnswerDiff(*instance.db, name, answer, "reference",
                            reference.first);
          if (!engine->capabilities().supports_possible) continue;
          ASSERT_OK_AND_ASSIGN(Relation possible,
                               engine->PossibleAnswer(instance.query));
          EXPECT_EQ(possible, reference.second)
              << AnswerDiff(*instance.db, name, possible, "reference",
                            reference.second);
        }
      }
    }
  }
  EXPECT_EQ(instances, 364u);
  EXPECT_GT(relabeled, instances / 2);
}

/// First-principles cross-check on tiny instances: membership according to
/// `ExactEvaluator` must match `ModelEnumerationContains`, which decides
/// `T ⊨_f φ(c)` straight from the §2.1 definition by enumerating every
/// finite interpretation — completely independent of the Theorem 1
/// machinery shared by brute and exact.
TEST(DifferentialTest, ModelEnumerationSpotCheck) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    DifferentialInstance instance = MakeInstance(seed, InstanceProfile::kTiny);
    SCOPED_TRACE(Describe(instance));
    ExactEvaluator exact(instance.db.get());
    const ConstId n = static_cast<ConstId>(instance.db->num_constants());
    for (ConstId c = 0; c < n; ++c) {
      Tuple candidate = {c};
      ASSERT_OK_AND_ASSIGN(bool exact_in,
                           exact.Contains(instance.query, candidate));
      ASSERT_OK_AND_ASSIGN(
          bool model_in,
          ModelEnumerationContains(instance.db.get(), instance.query,
                                   candidate));
      EXPECT_EQ(exact_in, model_in)
          << "candidate " << instance.db->vocab().ConstantName(c)
          << ": exact says " << exact_in << ", model enumeration says "
          << model_in;
    }
  }
}

}  // namespace
}  // namespace lqdb
