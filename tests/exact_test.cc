#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "lqdb/cwdb/mapping.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/brute.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "testing.h"

namespace lqdb {
namespace {

using testing::RandomCwDatabase;
using testing::RandomDbParams;
using testing::RandomFormulaParams;
using testing::RandomQuery;

/// §2.2's running example: TEACHES(Socrates, Plato) with an unknown
/// identity (a null) thrown in.
class ExactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(lb_.AddFact("TEACHES", {"Socrates", "Plato"}));
    unknown_ = lb_.AddUnknownConstant("Mystery");
  }

  Result<bool> Holds(const std::string& text) {
    auto q = ParseQuery(lb_.mutable_vocab(), text);
    if (!q.ok()) return q.status();
    ExactEvaluator exact(&lb_);
    return exact.Contains(q.value(), {});
  }

  CwDatabase lb_;
  ConstId unknown_;
};

TEST_F(ExactTest, PositiveFactsAreCertain) {
  ASSERT_OK_AND_ASSIGN(bool yes, Holds("TEACHES(Socrates, Plato)"));
  EXPECT_TRUE(yes);
  ASSERT_OK_AND_ASSIGN(bool no, Holds("TEACHES(Plato, Socrates)"));
  EXPECT_FALSE(no);
}

TEST_F(ExactTest, NegationOfKnownDistinctConstantsIsCertain) {
  ASSERT_OK_AND_ASSIGN(bool yes, Holds("Socrates != Plato"));
  EXPECT_TRUE(yes);
}

TEST_F(ExactTest, UnknownIdentityIsUncertainBothWays) {
  // Mystery may or may not be Socrates: neither the equality nor the
  // inequality is certain.
  ASSERT_OK_AND_ASSIGN(bool eq, Holds("Mystery = Socrates"));
  EXPECT_FALSE(eq);
  ASSERT_OK_AND_ASSIGN(bool neq, Holds("Mystery != Socrates"));
  EXPECT_FALSE(neq);
  // But Mystery is certainly *something* in the closed world.
  ASSERT_OK_AND_ASSIGN(
      bool closure,
      Holds("Mystery = Socrates | Mystery = Plato | Mystery = Mystery"));
  EXPECT_TRUE(closure);
}

TEST_F(ExactTest, NegatedAtomOverUnknownIsUncertain) {
  // TEACHES(Mystery, Plato) is not certain (Mystery might not be
  // Socrates), and ¬TEACHES(Mystery, Plato) is not certain either
  // (Mystery might be Socrates).
  ASSERT_OK_AND_ASSIGN(bool pos, Holds("TEACHES(Mystery, Plato)"));
  EXPECT_FALSE(pos);
  ASSERT_OK_AND_ASSIGN(bool neg, Holds("!TEACHES(Mystery, Plato)"));
  EXPECT_FALSE(neg);
}

TEST_F(ExactTest, ExplicitDistinctnessResolvesNegation) {
  ASSERT_OK(lb_.AddDistinct("Mystery", "Socrates"));
  ASSERT_OK_AND_ASSIGN(bool neg, Holds("!TEACHES(Mystery, Plato)"));
  EXPECT_TRUE(neg);
}

TEST_F(ExactTest, AnswerReturnsConstantTuples) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb_.mutable_vocab(), "(x) . TEACHES(Socrates, x)"));
  ExactEvaluator exact(&lb_);
  ASSERT_OK_AND_ASSIGN(Relation answer, exact.Answer(q));
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains({lb_.vocab().FindConstant("Plato")}));
}

TEST_F(ExactTest, CounterexampleIsAValidCertificate) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(lb_.mutable_vocab(), "TEACHES(Mystery, Plato)"));
  ExactEvaluator exact(&lb_);
  std::optional<Counterexample> cex;
  ASSERT_OK_AND_ASSIGN(bool in, exact.Contains(q, {}, &cex));
  EXPECT_FALSE(in);
  ASSERT_TRUE(cex.has_value());
  // The certificate must respect the axioms and falsify the sentence.
  EXPECT_TRUE(RespectsUniqueness(lb_, cex->h));
  PhysicalDatabase image = ApplyMapping(lb_, cex->h);
  Evaluator eval(&image);
  ASSERT_OK_AND_ASSIGN(bool sat, eval.Satisfies(q.body()));
  EXPECT_FALSE(sat);
}

TEST_F(ExactTest, MappingBudgetIsEnforced) {
  for (int i = 0; i < 6; ++i) {
    lb_.AddUnknownConstant("u" + std::to_string(i));
  }
  // A certain sentence that is not positive: its positive conjunct is
  // answered on Ph₁, the first mapping of the budget, and the residual
  // `Socrates != Plato` is swept until the budget runs out.
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb_.mutable_vocab(),
                          "TEACHES(Socrates, Plato) & Socrates != Plato"));
  ExactOptions options;
  options.max_mappings = 10;
  ExactEvaluator exact(&lb_, options);
  EXPECT_EQ(exact.Contains(q, {}).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(exact.last_mappings_examined(), 10u);
}

// Theorem 13: a positive body's certain answer is its answer on Ph₁, the
// image of the identity, so `exact` examines that one mapping, and the
// budget counts it.
TEST_F(ExactTest, PositiveBodyIsAnsweredOnPh1InOneMapping) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb_.mutable_vocab(), "(x) . TEACHES(x, Plato)"));
  const ConstId socrates = lb_.vocab().FindConstant("Socrates");
  ExactEvaluator exact(&lb_);
  ASSERT_OK_AND_ASSIGN(Relation answer, exact.Answer(q));
  EXPECT_EQ(answer.SortedTuples(), std::vector<Tuple>{{socrates}});
  EXPECT_EQ(exact.last_mappings_examined(), 1u);
  ASSERT_OK_AND_ASSIGN(bool in, exact.Contains(q, {socrates}));
  EXPECT_TRUE(in);
  EXPECT_EQ(exact.last_mappings_examined(), 1u);

  // The references keep the unconditional sweep, with the same answer.
  ExactEvaluator batched(&lb_, {}, ExactSweep::kBatched);
  ASSERT_OK_AND_ASSIGN(Relation reference, batched.Answer(q));
  EXPECT_EQ(reference, answer);
  EXPECT_EQ(batched.last_mappings_examined(), CountCanonicalMappings(lb_));

  ExactOptions none;
  none.max_mappings = 0;
  ExactEvaluator broke(&lb_, none);
  EXPECT_EQ(broke.Answer(q).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(broke.last_mappings_examined(), 0u);
}

// A candidate that fails the positive part on Ph₁ has the identity as its
// counterexample; one that fails only the residual gets the sweep's. Either
// respects the uniqueness axioms and falsifies the query on its image.
TEST_F(ExactTest, RoutedContainsReportsAValidCounterexample) {
  ASSERT_OK(lb_.AddDistinct(lb_.vocab().FindConstant("Plato"), unknown_));
  const ConstId socrates = lb_.vocab().FindConstant("Socrates");
  const ConstId plato = lb_.vocab().FindConstant("Plato");
  struct Case {
    const char* text;
    ConstId candidate;
    bool identity;  // whether Ph₁ already falsifies it
  };
  const Case cases[] = {
      {"(x) . TEACHES(x, Plato)", plato, true},
      {"(x) . TEACHES(x, Plato) & x != Mystery", plato, true},
      {"(x) . TEACHES(x, Plato) & x != Mystery", socrates, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.text) + " at " +
                 lb_.vocab().ConstantName(c.candidate));
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb_.mutable_vocab(), c.text));
    ExactEvaluator exact(&lb_);
    std::optional<Counterexample> cex;
    ASSERT_OK_AND_ASSIGN(bool in, exact.Contains(q, {c.candidate}, &cex));
    EXPECT_FALSE(in);
    ASSERT_TRUE(cex.has_value());
    EXPECT_EQ(cex->h == IdentityMapping(lb_.num_constants()), c.identity);
    EXPECT_EQ(exact.last_mappings_examined() == 1, c.identity);
    EXPECT_TRUE(RespectsUniqueness(lb_, cex->h));
    PhysicalDatabase image = ApplyMapping(lb_, cex->h);
    ASSERT_OK_AND_ASSIGN(Relation holds, Evaluator(&image).Answer(q));
    EXPECT_FALSE(holds.Contains({cex->h[c.candidate]}));
  }
}

TEST_F(ExactTest, CandidateValidation) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb_.mutable_vocab(), "(x) . TEACHES(x, Plato)"));
  ExactEvaluator exact(&lb_);
  EXPECT_FALSE(exact.Contains(q, {}).ok());          // arity mismatch
  EXPECT_FALSE(exact.Contains(q, {9999}).ok());      // unknown constant
}

/// Corollary 2: for fully specified databases, Q(LB) = Q(Ph₁(LB)).
TEST(Corollary2Test, FullySpecifiedMatchesPh1) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    RandomDbParams params;
    params.num_known = 4;
    params.num_unknown = 0;  // fully specified
    auto lb = RandomCwDatabase(seed, params);
    ASSERT_TRUE(lb->IsFullySpecified());

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed * 7 + 1, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation logical, exact.Answer(q));

    PhysicalDatabase ph1 = MakePh1(*lb);
    Evaluator eval(&ph1);
    ASSERT_OK_AND_ASSIGN(Relation physical, eval.Answer(q));

    EXPECT_EQ(logical, physical)
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

/// The canonical (partition-based) evaluator agrees with literally
/// quantifying over all |C|^|C| mappings.
TEST(ExactVsBruteTest, PartitionCanonicalizationIsSound) {
  for (uint64_t seed = 0; seed < 18; ++seed) {
    RandomDbParams params;
    params.num_known = 2;
    params.num_unknown = 2;
    params.num_facts = 4;
    auto lb = RandomCwDatabase(seed, params);

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed * 13 + 5, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation canonical, exact.Answer(q));

    ExactEvaluator brute(lb.get(), {}, ExactSweep::kBrute);
    ASSERT_OK_AND_ASSIGN(Relation brute_answer, brute.Answer(q));

    EXPECT_EQ(canonical, brute_answer)
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

/// Strongest cross-check: Theorem 1 evaluation agrees with deciding
/// T ⊨_f φ(c) straight from the definition by enumerating every finite
/// interpretation over subsets of C.
TEST(ExactVsModelEnumerationTest, AgreesOnTinyDatabases) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    RandomDbParams params;
    params.num_known = 2;
    params.num_unknown = 1;
    params.num_unary_preds = 1;
    params.num_binary_preds = 0;  // keep the model space tractable
    params.num_facts = 2;
    auto lb = RandomCwDatabase(seed, params);

    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 2;
    Query q = RandomQuery(seed * 3 + 2, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    for (ConstId c = 0; c < lb->num_constants(); ++c) {
      ASSERT_OK_AND_ASSIGN(bool via_thm1, exact.Contains(q, {c}));
      ASSERT_OK_AND_ASSIGN(bool via_models,
                           ModelEnumerationContains(lb.get(), q, {c}));
      EXPECT_EQ(via_thm1, via_models)
          << "seed " << seed << " c " << lb->vocab().ConstantName(c)
          << " query " << PrintQuery(lb->vocab(), q);
    }
  }
}

TEST(PossibleAnswerTest, CertainIsContainedInPossible) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomDbParams params;
    params.num_known = 3;
    params.num_unknown = 2;
    auto lb = RandomCwDatabase(seed, params);
    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed * 19 + 11, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation certain, exact.Answer(q));
    ASSERT_OK_AND_ASSIGN(Relation possible, exact.PossibleAnswer(q));
    EXPECT_TRUE(certain.IsSubsetOf(possible))
        << "seed " << seed << " query " << PrintQuery(lb->vocab(), q);
  }
}

TEST(PossibleAnswerTest, SuspectsStory) {
  CwDatabase lb;
  ConstId jack = lb.AddUnknownConstant("Jack");
  ConstId disraeli = lb.AddKnownConstant("Disraeli");
  ConstId victoria = lb.AddKnownConstant("Victoria");
  PredId murderer = lb.AddPredicate("MURDERER", 1).value();
  ASSERT_OK(lb.AddFact(murderer, {jack}));
  ASSERT_OK(lb.AddDistinct(jack, victoria));

  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(),
                                           "(x) . MURDERER(x)"));
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(Relation certain, exact.Answer(q));
  ASSERT_OK_AND_ASSIGN(Relation possible, exact.PossibleAnswer(q));

  // Certainly the murderer: only Jack. Possibly: Jack or Disraeli — but
  // never the Queen.
  EXPECT_EQ(certain.size(), 1u);
  EXPECT_TRUE(certain.Contains({jack}));
  EXPECT_EQ(possible.size(), 2u);
  EXPECT_TRUE(possible.Contains({jack}));
  EXPECT_TRUE(possible.Contains({disraeli}));
  EXPECT_FALSE(possible.Contains({victoria}));
}

TEST(PossibleAnswerTest, WitnessIsAValidModel) {
  CwDatabase lb;
  ConstId jack = lb.AddUnknownConstant("Jack");
  ConstId bob = lb.AddKnownConstant("Bob");
  PredId m = lb.AddPredicate("M", 1).value();
  ASSERT_OK(lb.AddFact(m, {jack}));

  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(), "M(Bob)"));
  ExactEvaluator exact(&lb);
  std::optional<Counterexample> witness;
  ASSERT_OK_AND_ASSIGN(bool possible, exact.IsPossible(q, {}, &witness));
  EXPECT_TRUE(possible);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(RespectsUniqueness(lb, witness->h));
  EXPECT_EQ(witness->h[bob], witness->h[jack]);  // the merge that did it
  PhysicalDatabase image = ApplyMapping(lb, witness->h);
  Evaluator eval(&image);
  ASSERT_OK_AND_ASSIGN(bool sat, eval.Satisfies(q.body()));
  EXPECT_TRUE(sat);
}

TEST(PossibleAnswerTest, ContradictionsAreImpossible) {
  CwDatabase lb;
  lb.AddKnownConstant("A");
  lb.AddUnknownConstant("U");
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(),
                                           "exists x. x != x"));
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(bool possible, exact.IsPossible(q, {}));
  EXPECT_FALSE(possible);
}

TEST(PossibleAnswerTest, FullySpecifiedCollapsesPossibleToCertain) {
  for (uint64_t seed = 30; seed < 36; ++seed) {
    RandomDbParams params;
    params.num_known = 4;
    params.num_unknown = 0;
    auto lb = RandomCwDatabase(seed, params);
    RandomFormulaParams fparams;
    fparams.free_vars = {"hx"};
    fparams.max_depth = 3;
    Query q = RandomQuery(seed, lb->mutable_vocab(), fparams);

    ExactEvaluator exact(lb.get());
    ASSERT_OK_AND_ASSIGN(Relation certain, exact.Answer(q));
    ASSERT_OK_AND_ASSIGN(Relation possible, exact.PossibleAnswer(q));
    EXPECT_EQ(certain, possible) << "seed " << seed;
  }
}

TEST(ExactSecondOrderTest, EvaluatesSoQueries) {
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  lb.AddKnownConstant("B");
  // ∃S with S = P pointwise: certainly true.
  ASSERT_OK_AND_ASSIGN(
      Query q1,
      ParseQuery(lb.mutable_vocab(),
                 "exists2 S/1. forall x. S(x) <-> P(x)"));
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(bool yes, exact.Contains(q1, {}));
  EXPECT_TRUE(yes);
  // ∀S: S contains A — certainly false.
  ASSERT_OK_AND_ASSIGN(
      Query q2, ParseQuery(lb.mutable_vocab(), "forall2 S/1. S(A)"));
  ASSERT_OK_AND_ASSIGN(bool no, exact.Contains(q2, {}));
  EXPECT_FALSE(no);
}

TEST(ExactEdgeCaseTest, EmptyDatabaseIsRejected) {
  CwDatabase lb;
  Vocabulary* vocab = lb.mutable_vocab();
  auto q = ParseQuery(vocab, "true");
  ASSERT_TRUE(q.ok());
  ExactEvaluator exact(&lb);
  EXPECT_EQ(exact.Contains(q.value(), {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExactEdgeCaseTest, TautologyAndContradiction) {
  CwDatabase lb;
  lb.AddUnknownConstant("U");
  lb.AddKnownConstant("A");
  Vocabulary* vocab = lb.mutable_vocab();
  ExactEvaluator exact(&lb);

  ASSERT_OK_AND_ASSIGN(Query taut, ParseQuery(vocab, "forall x. x = x"));
  ASSERT_OK_AND_ASSIGN(bool yes, exact.Contains(taut, {}));
  EXPECT_TRUE(yes);

  ASSERT_OK_AND_ASSIGN(Query contra, ParseQuery(vocab, "exists x. x != x"));
  ASSERT_OK_AND_ASSIGN(bool no, exact.Contains(contra, {}));
  EXPECT_FALSE(no);
}

TEST(ExactEdgeCaseTest, QueryMayIntroduceFreshConstants) {
  // A constant first mentioned by a query extends C with unknown identity:
  // the exact evaluator treats it like any other null.
  CwDatabase lb;
  ASSERT_OK(lb.AddFact("P", {"A"}));
  ExactEvaluator exact(&lb);
  Vocabulary* vocab = lb.mutable_vocab();

  ASSERT_OK_AND_ASSIGN(Query q1, ParseQuery(vocab, "Zeus = Zeus"));
  ASSERT_OK_AND_ASSIGN(bool trivially, exact.Contains(q1, {}));
  EXPECT_TRUE(trivially);

  // Zeus might be A, so neither P(Zeus) nor !P(Zeus) is certain.
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(vocab, "P(Zeus)"));
  ASSERT_OK_AND_ASSIGN(bool pos, exact.Contains(q2, {}));
  EXPECT_FALSE(pos);
  ASSERT_OK_AND_ASSIGN(Query q3, ParseQuery(vocab, "!P(Zeus)"));
  ASSERT_OK_AND_ASSIGN(bool neg, exact.Contains(q3, {}));
  EXPECT_FALSE(neg);
}

TEST(ExactEdgeCaseTest, DomainClosureIsCertain) {
  // The hidden domain-closure axiom: everything equals some constant.
  CwDatabase lb;
  lb.AddKnownConstant("A");
  lb.AddUnknownConstant("U");
  Vocabulary* vocab = lb.mutable_vocab();
  ExactEvaluator exact(&lb);
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery(vocab, "forall x. x = A | x = U"));
  ASSERT_OK_AND_ASSIGN(bool yes, exact.Contains(q, {}));
  EXPECT_TRUE(yes);
}

TEST(CandidateSpaceTest, ZeroConstantsYieldEmptySpaceForPositiveArity) {
  // Regression: the odometer used to emit rows over an empty constant set,
  // and the per-mapping sweep then indexed past the end of `h`.
  EXPECT_TRUE(AllCandidateTuples(1, 0).empty());
  EXPECT_TRUE(AllCandidateTuples(3, 0).empty());
  // Boolean queries keep their single empty-tuple candidate.
  EXPECT_EQ(AllCandidateTuples(0, 0), std::vector<Tuple>{Tuple{}});
  EXPECT_EQ(AllCandidateTuples(0, 4), std::vector<Tuple>{Tuple{}});
  // The nonempty odometer is unchanged.
  EXPECT_EQ(AllCandidateTuples(2, 3).size(), 9u);
}

TEST(CandidateSpaceTest, ConstantFreeDatabaseFailsCleanlyOnAllEngines) {
  // A schema with no constants cannot model anything (domains are
  // nonempty); every Theorem 1 engine must surface that as a clean
  // FailedPrecondition from Answer, PossibleAnswer and Contains instead of
  // reading out of bounds.
  CwDatabase lb;
  ASSERT_OK(lb.AddPredicate("P", 1).status());
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(vocab, "(x) . P(x)"));
  ASSERT_OK_AND_ASSIGN(Query boolean, ParseQuery(vocab, "true"));

  // The compiled sweeps check the precondition before compiling: the
  // plan's cardinality stats and the enumeration both assume a nonempty `C`.
  for (ExactSweep sweep :
       {ExactSweep::kExact, ExactSweep::kBatched, ExactSweep::kBrute}) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(sweep)) + " threads=" +
                   std::to_string(threads));
      ExactEvaluator exact(&lb, {}, sweep, threads);
      EXPECT_EQ(exact.Answer(q).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(exact.PossibleAnswer(q).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(exact.Contains(boolean, {}).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(exact.IsPossible(boolean, {}).status().code(),
                StatusCode::kFailedPrecondition);
    }
  }
}

/// The first mapping, in the enumeration order of `ForEachMapping` (brute)
/// or `ForEachCanonicalMapping`, that decides `candidate` — falsifies it,
/// or satisfies it when `possible` — found by evaluating every image from
/// scratch, plus its 1-based position (0 when no mapping decides) and the
/// number of mappings in the space.
struct FirstDeciding {
  uint64_t position = 0;
  ConstMapping h;
  uint64_t total = 0;
};

FirstDeciding FindFirstDeciding(const CwDatabase& lb, const Query& query,
                                const Tuple& candidate, bool possible,
                                bool brute) {
  FirstDeciding out;
  const MappingVisitor visit = [&](const ConstMapping& h) {
    ++out.total;
    if (out.position != 0) return true;
    const PhysicalDatabase image = ApplyMapping(lb, h);
    Result<Relation> holds = Evaluator(&image).Answer(query);
    EXPECT_OK(holds.status());
    Tuple mapped;
    for (ConstId c : candidate) mapped.push_back(h[c]);
    if (holds.ok() && holds->Contains(mapped) == possible) {
      out.position = out.total;
      out.h = h;
    }
    return true;
  };
  if (brute) {
    ForEachMapping(lb, visit);
  } else {
    ForEachCanonicalMapping(lb, visit);
  }
  return out;
}

TEST(ExactSweepOrderTest, OneWorkerDecidesAtTheFirstDecidingMapping) {
  // One worker walks the space in enumeration order, so `Contains` reports
  // the first falsifying mapping and `IsPossible` the first satisfying one,
  // and `last_mappings_examined()` is that mapping's position — for every
  // mapping source and checker. Each random body φ is asked as
  // `hx = hx -> φ`, which holds exactly where φ does but is not positive,
  // so `exact` sweeps it rather than answering on Ph₁ (Theorem 13).
  RandomDbParams db_params;
  db_params.num_known = 3;  // 5^5 mappings keep the brute space small
  RandomFormulaParams q_params;
  q_params.free_vars = {"hx"};
  uint64_t decided_late = 0;
  uint64_t memo_budget_legs = 0;  // budget legs with the memo on / off
  uint64_t no_memo_budget_legs = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto lb = RandomCwDatabase(seed, db_params);
    const Query random =
        RandomQuery(seed * 31 + 7, lb->mutable_vocab(), q_params);
    const VarId hx = random.head()[0];
    ASSERT_OK_AND_ASSIGN(
        Query query,
        Query::Make(random.head(),
                    Formula::Implies(Formula::Equals(Term::Variable(hx),
                                                     Term::Variable(hx)),
                                     random.body())));
    ASSERT_OK_AND_ASSIGN(BoundQuery bound, BoundQuery::Bind(query));
    ASSERT_EQ(SplitPositiveConjuncts(query.body()).positive, nullptr);
    // The zero-hit rule: a canonical sweep over a world whose unpinned
    // constants are all singleton classes runs without the memo.
    const bool all_singletons =
        KernelSignatureContext(*lb, bound.constants()).all_singletons();
    const std::vector<Tuple> candidates = AllCandidateTuples(
        query.arity(), static_cast<ConstId>(lb->num_constants()));
    for (ExactSweep sweep :
         {ExactSweep::kExact, ExactSweep::kBatched, ExactSweep::kBrute}) {
      const bool brute = sweep == ExactSweep::kBrute;
      ExactEvaluator exact(lb.get(), {}, sweep);
      ASSERT_EQ(exact.threads(), 1);
      for (const Tuple& candidate : candidates) {
        for (bool possible : {false, true}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " sweep=" +
                       std::to_string(static_cast<int>(sweep)) +
                       " candidate=" + std::to_string(candidate[0]) +
                       (possible ? " possible" : " certain"));
          const FirstDeciding first =
              FindFirstDeciding(*lb, query, candidate, possible, brute);
          std::optional<Counterexample> decisive;
          ASSERT_OK_AND_ASSIGN(
              bool holds, possible
                              ? exact.IsPossible(query, candidate, &decisive)
                              : exact.Contains(query, candidate, &decisive));
          if (first.position == 0) {
            EXPECT_EQ(holds, !possible);
            EXPECT_FALSE(decisive.has_value());
            EXPECT_EQ(exact.last_mappings_examined(), first.total);
            continue;
          }
          EXPECT_EQ(holds, possible);
          ASSERT_TRUE(decisive.has_value());
          EXPECT_EQ(decisive->h, first.h);
          EXPECT_EQ(exact.last_mappings_examined(), first.position);
          if (first.position == 1) continue;
          ++decided_late;

          // A budget one short of the deciding mapping runs out after
          // exactly that many checked mappings: with one open candidate,
          // each checked mapping is one memo lookup, unless the zero-hit
          // rule turned the memo off. Brute refuses such a budget up
          // front, below `|C|^|C|`, and checks none.
          ExactOptions tight;
          tight.max_mappings = first.position - 1;
          ExactEvaluator short_budget(lb.get(), tight, sweep);
          Result<bool> exhausted =
              possible ? short_budget.IsPossible(query, candidate)
                       : short_budget.Contains(query, candidate);
          EXPECT_EQ(exhausted.status().code(),
                    StatusCode::kResourceExhausted);
          const KernelMemoCounters& memo = short_budget.last_memo_counters();
          const bool memo_on = !brute && !all_singletons;
          EXPECT_EQ(memo.row_hits + memo.row_misses,
                    memo_on ? tight.max_mappings : 0);
          if (!brute) ++(memo_on ? memo_budget_legs : no_memo_budget_legs);
          // Only mappings that passed the budget gate are reported.
          EXPECT_EQ(short_budget.last_mappings_examined(),
                    brute ? 0 : tight.max_mappings);
          if (brute) continue;

          // Four workers race for the budget's last slots; the report
          // still never exceeds it, whether or not another worker's range
          // decided the candidate first.
          ExactEvaluator racing(lb.get(), tight, sweep, /*threads=*/4);
          Result<bool> raced = possible ? racing.IsPossible(query, candidate)
                                        : racing.Contains(query, candidate);
          if (raced.ok()) {
            EXPECT_EQ(raced.value(), possible);
          } else {
            EXPECT_EQ(raced.status().code(), StatusCode::kResourceExhausted);
          }
          EXPECT_LE(racing.last_mappings_examined(), tight.max_mappings);
        }
      }
    }
  }
  // The corpus must exercise decisions past the first mapping, and both
  // sides of the zero-hit rule.
  EXPECT_GT(decided_late, 0u);
  EXPECT_GT(memo_budget_legs, 0u);
  EXPECT_GT(no_memo_budget_legs, 0u);
}

TEST(SaturatingPowerTest, ComputesExactIntegerPowers) {
  EXPECT_EQ(SaturatingPower(0, 0), 1u);   // the one empty mapping
  EXPECT_EQ(SaturatingPower(0, 3), 0u);
  EXPECT_EQ(SaturatingPower(7, 0), 1u);
  EXPECT_EQ(SaturatingPower(3, 4), 81u);
  // 15^15 is not representable in a double's 53-bit mantissa — the exact
  // integer is what the brute-force budget gate must compare against.
  EXPECT_EQ(SaturatingPower(15, 15), 437893890380859375ull);
  EXPECT_EQ(SaturatingPower(2, 63), 1ull << 63);
}

TEST(SaturatingPowerTest, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(SaturatingPower(2, 64), UINT64_MAX);
  EXPECT_EQ(SaturatingPower(1000000, 20), UINT64_MAX);
  EXPECT_EQ(SaturatingPower(UINT64_MAX, 2), UINT64_MAX);
}

TEST(SaturatingPowerTest, BruteBudgetGateIsExactAtTheThreshold) {
  // 3 constants → exactly 27 mappings. A budget of 27 must pass and 26
  // must trip, for Contains and Answer alike — the gate the double-based
  // std::pow check got wrong near the threshold.
  CwDatabase lb;
  for (int i = 0; i < 3; ++i) {
    lb.AddUnknownConstant("U" + std::to_string(i));
  }
  PredId p = lb.AddPredicate("P", 1).value();
  ASSERT_OK(lb.AddFact(p, {0}));
  Vocabulary* vocab = lb.mutable_vocab();
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(vocab, "(x) . P(x)"));

  ExactOptions exact_budget;
  exact_budget.max_mappings = 27;
  ExactEvaluator roomy(&lb, exact_budget, ExactSweep::kBrute);
  EXPECT_OK(roomy.Answer(q).status());
  EXPECT_OK(roomy.Contains(q, {0}).status());

  ExactOptions tight_budget;
  tight_budget.max_mappings = 26;
  ExactEvaluator tight(&lb, tight_budget, ExactSweep::kBrute);
  EXPECT_EQ(tight.Answer(q).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(tight.Contains(q, {0}).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace lqdb
