#include "lqdb/ra/validate.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/gen/scenario.h"
#include "lqdb/logic/parser.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/plan.h"
#include "lqdb/ra/semijoin.h"
#include "testing.h"

namespace lqdb {

/// Test-only backdoor (friend of `Plan`): the factories refuse to build
/// malformed nodes, so the corruption tests mutate well-formed ones after
/// construction to prove the validator rejects the shapes independently.
struct PlanTestPeer {
  static void SetSchema(const PlanPtr& plan, std::vector<VarId> schema) {
    const_cast<Plan*>(plan.get())->schema_ = std::move(schema);
  }
  static void SetChild(const PlanPtr& plan, size_t index, PlanPtr child) {
    const_cast<Plan*>(plan.get())->children_[index] = std::move(child);
  }
};

namespace {

using testing::RandomFormulaParams;
using testing::RandomQuery;

class RaValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = vocab_.AddVariable("x");
    y_ = vocab_.AddVariable("y");
    z_ = vocab_.AddVariable("z");
    p_ = vocab_.AddPredicate("P", 1).value();
    q_ = vocab_.AddPredicate("Q", 1).value();
    r_ = vocab_.AddPredicate("R", 2).value();
  }

  PlanPtr ScanP(VarId v) {
    return Plan::Scan(vocab_, p_, {Term::Variable(v)}).value();
  }
  PlanPtr ScanQ(VarId v) {
    return Plan::Scan(vocab_, q_, {Term::Variable(v)}).value();
  }
  PlanPtr ScanR(VarId a, VarId b) {
    return Plan::Scan(vocab_, r_, {Term::Variable(a), Term::Variable(b)})
        .value();
  }

  PlanValidateOptions Opts() {
    PlanValidateOptions opts;
    opts.vocab = &vocab_;
    return opts;
  }

  Vocabulary vocab_;
  VarId x_, y_, z_;
  PredId p_, q_, r_;
};

TEST_F(RaValidateTest, WellFormedPlansValidateClean) {
  EXPECT_OK(ValidatePlan(ScanP(x_), Opts()));
  ASSERT_OK_AND_ASSIGN(PlanPtr join, Plan::Join(ScanP(x_), ScanR(x_, y_)));
  EXPECT_OK(ValidatePlan(join, Opts()));
  ASSERT_OK_AND_ASSIGN(PlanPtr proj, Plan::Project(join, {y_}));
  EXPECT_OK(ValidatePlan(proj, Opts()));
  ASSERT_OK_AND_ASSIGN(PlanPtr anti, Plan::AntiJoin(join, ScanQ(y_)));
  EXPECT_OK(ValidatePlan(anti, Opts()));
}

TEST_F(RaValidateTest, NullPlanRejected) {
  const Status s = ValidatePlan(nullptr, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("null plan"), std::string::npos) << s.ToString();
}

TEST_F(RaValidateTest, DanglingProjectedAttributeRejected) {
  // Project(P(x), {x}) is legal; corrupt it to project z, which the child
  // never produces.
  ASSERT_OK_AND_ASSIGN(PlanPtr proj, Plan::Project(ScanP(x_), {x_}));
  PlanTestPeer::SetSchema(proj, {z_});
  const Status s = ValidatePlan(proj, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("is dangling"), std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, CorruptedJoinSchemaRejected) {
  ASSERT_OK_AND_ASSIGN(PlanPtr join, Plan::Join(ScanP(x_), ScanR(x_, y_)));
  PlanTestPeer::SetSchema(join, {x_});  // drops y
  const Status s = ValidatePlan(join, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("union of its children's"), std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, SemiJoinDanglingRightAttributeRejected) {
  // SemiJoin(P(x), Q(x)) is fine; swap the right child for R(x, y), whose
  // y the left never produces — the filter would silently ignore it.
  ASSERT_OK_AND_ASSIGN(PlanPtr semi, Plan::SemiJoin(ScanP(x_), ScanQ(x_)));
  PlanTestPeer::SetChild(semi, 1, ScanR(x_, y_));
  const Status s = ValidatePlan(semi, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dangling"), std::string::npos) << s.ToString();
}

TEST_F(RaValidateTest, LegalCrossProductOfDisjointComponentsAccepted) {
  // P(x) × Q(y) with nothing connecting x and y: both sides are complete
  // singleton components, so the cross product is unavoidable and legal.
  ASSERT_OK_AND_ASSIGN(PlanPtr cross, Plan::Join(ScanP(x_), ScanQ(y_)));
  EXPECT_OK(ValidatePlan(cross, Opts()));
}

TEST_F(RaValidateTest, AvoidableCrossProductRejected) {
  // (P(x) × Q(y)) ⋈ R(x, y): R connects x and y into one component, so
  // the inner attribute-disjoint join splits that component — the
  // historical join-orderer regression shape.
  ASSERT_OK_AND_ASSIGN(PlanPtr inner, Plan::Join(ScanP(x_), ScanQ(y_)));
  ASSERT_OK_AND_ASSIGN(PlanPtr root, Plan::Join(inner, ScanR(x_, y_)));
  const Status s = ValidatePlan(root, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("avoidable cross product"), std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, GreedyShapedCrossProductAccepted) {
  // (P(x) ⋈ R(x, y)) × Q(z): the left side is the complete {P, R}
  // component, the right a fresh singleton — exactly what the greedy
  // orderer emits, and unavoidable.
  ASSERT_OK_AND_ASSIGN(PlanPtr left, Plan::Join(ScanP(x_), ScanR(x_, y_)));
  ASSERT_OK_AND_ASSIGN(PlanPtr root, Plan::Join(left, ScanQ(z_)));
  EXPECT_OK(ValidatePlan(root, Opts()));
}

TEST_F(RaValidateTest, ParamAtSemiJoinFilterPositionAccepted) {
  ASSERT_OK_AND_ASSIGN(PlanPtr param, Plan::Param({x_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr semi, Plan::SemiJoin(ScanP(x_), param));
  PlanValidateOptions opts = Opts();
  opts.param = param.get();
  EXPECT_OK(ValidatePlan(semi, opts));
}

TEST_F(RaValidateTest, UnexpectedParamRejected) {
  ASSERT_OK_AND_ASSIGN(PlanPtr param, Plan::Param({x_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr semi, Plan::SemiJoin(ScanP(x_), param));
  // Options without a param: the plan must bind nothing.
  const Status s = ValidatePlan(semi, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unexpected param relation"), std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, ForeignParamIdentityRejected) {
  // Bindings are keyed by node identity, so a structurally identical but
  // distinct param node would execute empty.
  ASSERT_OK_AND_ASSIGN(PlanPtr param, Plan::Param({x_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr other, Plan::Param({x_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr semi, Plan::SemiJoin(ScanP(x_), param));
  PlanValidateOptions opts = Opts();
  opts.param = other.get();
  const Status s = ValidatePlan(semi, opts);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("keyed by node identity"), std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, ParamUnderAntiJoinRightRejected) {
  // AntiJoin(P(x), SemiJoin(Q(x), param)): filtering the negated side by
  // the surviving candidate set changes answers, so the reduction must
  // never push the param there.
  ASSERT_OK_AND_ASSIGN(PlanPtr param, Plan::Param({x_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr semi, Plan::SemiJoin(ScanQ(x_), param));
  ASSERT_OK_AND_ASSIGN(PlanPtr anti, Plan::AntiJoin(ScanP(x_), semi));
  PlanValidateOptions opts = Opts();
  opts.param = param.get();
  const Status s = ValidatePlan(anti, opts);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("non-monotone"), std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, ExpectedParamMissingRejected) {
  ASSERT_OK_AND_ASSIGN(PlanPtr param, Plan::Param({x_}));
  PlanValidateOptions opts = Opts();
  opts.param = param.get();
  const Status s = ValidatePlan(ScanP(x_), opts);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("contains none"), std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, SharingBoundRejectsOversizedDag) {
  ASSERT_OK_AND_ASSIGN(PlanPtr join, Plan::Join(ScanP(x_), ScanR(x_, y_)));
  PlanValidateOptions opts = Opts();
  opts.max_unique_nodes = 2;  // the DAG has 3 distinct nodes
  const Status s = ValidatePlan(join, opts);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("sharing bound"), std::string::npos)
      << s.ToString();
  opts.max_unique_nodes = 3;
  EXPECT_OK(ValidatePlan(join, opts));
}

TEST_F(RaValidateTest, ProjectOverProjectRejected) {
  // The factory collapses π_x ∘ π_{x,y} into one projection ...
  ASSERT_OK_AND_ASSIGN(PlanPtr inner, Plan::Project(ScanR(x_, y_), {x_, y_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr outer, Plan::Project(inner, {x_}));
  EXPECT_EQ(outer->child()->kind(), PlanKind::kScan);
  EXPECT_OK(ValidatePlan(outer, Opts()));
  // ... so a nested pair can only be assembled by hand, and is a finding.
  PlanTestPeer::SetChild(outer, 0, inner);
  const Status s = ValidatePlan(outer, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("projection directly over a projection"),
            std::string::npos)
      << s.ToString();
}

TEST_F(RaValidateTest, CycleInPlanGraphRejected) {
  // Tie a projection's child back to itself through the backdoor. The
  // shared_ptr cycle is broken again below so the test does not leak.
  ASSERT_OK_AND_ASSIGN(PlanPtr proj, Plan::Project(ScanP(x_), {x_}));
  PlanTestPeer::SetChild(proj, 0, proj);
  const Status s = ValidatePlan(proj, Opts());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("cycle"), std::string::npos) << s.ToString();
  PlanTestPeer::SetChild(proj, 0, ScanP(x_));
}

TEST_F(RaValidateTest, SharedSubplanIsNotACycle) {
  // The compiler shares compiled children between branches (↔, ∀); a
  // diamond must validate clean.
  PlanPtr shared = ScanR(x_, y_);
  ASSERT_OK_AND_ASSIGN(PlanPtr a, Plan::Project(shared, {x_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr b, Plan::Project(shared, {x_}));
  ASSERT_OK_AND_ASSIGN(PlanPtr u, Plan::Union(a, b));
  EXPECT_OK(ValidatePlan(u, Opts()));
}

/// Compiles `query` over `vocab`, validates the compiled plan, then
/// semijoin-reduces it and validates the reduced plan against its param.
void ExpectCompilesAndValidates(const Vocabulary& vocab, const Query& query,
                                const std::string& context) {
  RaCompiler compiler(&vocab);
  auto plan = compiler.Compile(query);
  ASSERT_TRUE(plan.ok()) << context << ": " << plan.status().ToString();
  PlanValidateOptions opts;
  opts.vocab = &vocab;
  const Status compiled_verdict = ValidatePlan(plan.value(), opts);
  EXPECT_TRUE(compiled_verdict.ok())
      << context << ": " << compiled_verdict.ToString();

  auto reduced = SemijoinReduce(plan.value());
  ASSERT_TRUE(reduced.ok()) << context << ": " << reduced.status().ToString();
  opts.param = reduced.value().param.get();
  const Status reduced_verdict = ValidatePlan(reduced.value().plan, opts);
  EXPECT_TRUE(reduced_verdict.ok())
      << context << ": " << reduced_verdict.ToString();
}

TEST(RaValidateCorpusTest, ScenarioQueryPoolValidatesClean) {
  const ScenarioParams params;  // default E10 shape
  std::unique_ptr<CwDatabase> db = MakeScenario(/*seed=*/7, params);
  const std::vector<std::string> pool = ScenarioQueryPool(params);
  ASSERT_FALSE(pool.empty());
  for (const std::string& text : pool) {
    auto query = ParseQuery(db->mutable_vocab(), text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    ExpectCompilesAndValidates(db->vocab(), query.value(), text);
  }
}

TEST(RaValidateCorpusTest, RandomFormulasValidateClean) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Vocabulary vocab;
    vocab.AddConstant("A");
    vocab.AddConstant("B");
    vocab.AddConstant("C");
    ASSERT_OK_AND_ASSIGN(PredId p, vocab.AddPredicate("P", 1));
    ASSERT_OK_AND_ASSIGN(PredId r, vocab.AddPredicate("R", 2));
    (void)p;
    (void)r;
    RandomFormulaParams params;
    params.max_depth = 5;
    Query query = RandomQuery(seed, &vocab, params);
    ExpectCompilesAndValidates(vocab, query,
                               "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace lqdb
