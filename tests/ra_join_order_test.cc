// Join ordering and semijoin reduction: plan-shape freedoms that must
// never change results.
//
// The compiler is free to pick any join order (DP below the cap, greedy
// above it) and the Theorem 1 engines are free to run the semijoin-reduced
// form of a plan — both are pure optimizations, so this file pins:
//   - every enumerated order of a conjunction produces identical rows,
//     under both the DP and the greedy orderer, regardless of the written
//     conjunct order and of how the statistics skew;
//   - the DP never inserts a cross product when a connected order exists;
//   - the semijoin-reduced plan bound to a candidate set computes exactly
//     `original ∩ candidates`, including under quantifiers that shadow a
//     head variable (where pushdown must stop);
//   - the required-columns pass drops a bound column at its last join.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "lqdb/exact/exact.h"
#include "lqdb/gen/scenario.h"
#include "lqdb/logic/builder.h"
#include "lqdb/logic/parser.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "lqdb/ra/plan.h"
#include "lqdb/ra/semijoin.h"
#include "lqdb/util/rng.h"
#include "testing.h"

namespace lqdb {
namespace {

using testing::RandomFormula;
using testing::RandomFormulaParams;

class RaJoinOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = vocab_.AddConstant("A");
    b_ = vocab_.AddConstant("B");
    c_ = vocab_.AddConstant("C");
    d_ = vocab_.AddConstant("D");
    p_ = vocab_.AddPredicate("P", 1).value();
    r_ = vocab_.AddPredicate("R", 2).value();
    s_ = vocab_.AddPredicate("S", 2).value();
    db_ = std::make_unique<PhysicalDatabase>(&vocab_);
    db_->InterpretConstantsAsThemselves();
    ASSERT_OK(db_->AddTuple(p_, {a_}));
    ASSERT_OK(db_->AddTuple(p_, {d_}));
    ASSERT_OK(db_->AddTuple(r_, {a_, b_}));
    ASSERT_OK(db_->AddTuple(r_, {b_, c_}));
    ASSERT_OK(db_->AddTuple(r_, {c_, d_}));
    ASSERT_OK(db_->AddTuple(r_, {d_, d_}));
    ASSERT_OK(db_->AddTuple(s_, {b_, c_}));
    ASSERT_OK(db_->AddTuple(s_, {c_, a_}));
    ASSERT_OK(db_->AddTuple(s_, {d_, b_}));
  }

  Query Parse(const std::string& text) {
    auto q = ParseQuery(&vocab_, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return std::move(q).value();
  }

  /// Compiles under the given cap and skew, executes, returns the rows.
  RaTable CompileAndRun(const Query& query, size_t dp_cap,
                        double r_size_estimate) {
    RaCardinalities stats;
    stats.dp_join_cap = dp_cap;
    stats.domain_size = 4.0;
    stats.relation_sizes.assign(vocab_.num_predicates(), 4.0);
    stats.relation_sizes[p_] = 2.0;
    stats.relation_sizes[r_] = r_size_estimate;
    RaCompiler compiler(&vocab_, stats);
    auto plan = compiler.Compile(query);
    EXPECT_TRUE(plan.ok()) << plan.status();
    RaExecutor exec(db_.get());
    auto table = exec.Execute(plan.value());
    EXPECT_TRUE(table.ok()) << table.status();
    return std::move(table).value();
  }

  Vocabulary vocab_;
  ConstId a_, b_, c_, d_;
  PredId p_, r_, s_;
  std::unique_ptr<PhysicalDatabase> db_;
};

/// Every written order of a 4-conjunct connected conjunction — compiled
/// through the DP orderer and through the greedy fallback, under opposing
/// cardinality skews — yields the same rows.
TEST_F(RaJoinOrderTest, AllConjunctOrdersProduceIdenticalResults) {
  std::vector<std::string> conjuncts = {"R(x, y)", "S(y, z)", "R(z, w)",
                                        "P(w)"};
  std::sort(conjuncts.begin(), conjuncts.end());
  Relation reference(0);
  bool have_reference = false;
  do {
    std::string text = "(x, y, z, w) . " + conjuncts[0];
    for (size_t i = 1; i < conjuncts.size(); ++i) text += " & " + conjuncts[i];
    Query query = Parse(text);
    // cap 0 = greedy; cap 10 = DPsub. Opposing skews steer each orderer
    // toward different trees — none of which may change the rows.
    for (size_t cap : {size_t{0}, size_t{10}}) {
      for (double r_est : {1.0, 64.0}) {
        RaTable t = CompileAndRun(query, cap, r_est);
        if (!have_reference) {
          reference = std::move(t.rel);
          have_reference = true;
          EXPECT_GT(reference.size(), 0u);
          continue;
        }
        EXPECT_EQ(t.rel, reference)
            << "order \"" << text << "\" cap=" << cap << " r_est=" << r_est;
      }
    }
  } while (std::next_permutation(conjuncts.begin(), conjuncts.end()));
}

/// Random conjunctions (connected or not): the DP and the greedy pass must
/// agree row-for-row, including when components force cross products.
TEST_F(RaJoinOrderTest, DpAndGreedyAgreeOnRandomConjunctions) {
  const char* atoms[] = {"P(x)",    "P(y)",    "R(x, y)", "R(y, z)",
                         "S(z, w)", "S(w, x)", "R(x, x)", "S(y, w)"};
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const size_t n = 4 + rng.Below(3);  // 4–6 conjuncts
    std::string text = "(x, y, z, w) . ";
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) text += " & ";
      text += atoms[rng.Below(8)];
    }
    Query query = Parse(text);
    RaTable dp = CompileAndRun(query, /*dp_cap=*/10, /*r_est=*/8.0);
    RaTable greedy = CompileAndRun(query, /*dp_cap=*/0, /*r_est=*/8.0);
    EXPECT_EQ(dp.rel, greedy.rel) << "query: " << text;
  }
}

/// Walks the join nodes of `plan`, checking every kJoin's children share
/// at least one attribute.
void ExpectNoCrossProducts(const PlanPtr& plan, const std::string& context) {
  switch (plan->kind()) {
    case PlanKind::kJoin: {
      bool shared = false;
      for (VarId v : plan->left()->schema()) {
        for (VarId w : plan->right()->schema()) shared |= (v == w);
      }
      EXPECT_TRUE(shared) << "cross product in " << context;
      ExpectNoCrossProducts(plan->left(), context);
      ExpectNoCrossProducts(plan->right(), context);
      break;
    }
    case PlanKind::kUnion:
    case PlanKind::kAntiJoin:
    case PlanKind::kSemiJoin:
      ExpectNoCrossProducts(plan->left(), context);
      ExpectNoCrossProducts(plan->right(), context);
      break;
    case PlanKind::kProject:
      ExpectNoCrossProducts(plan->child(), context);
      break;
    default:
      break;  // leaves
  }
}

/// Regression: whenever the conjunction graph is connected, the DP must
/// find a plan with no cross product — under any statistics skew (a buggy
/// cost model once preferred a cross product of two tiny relations over a
/// connected join).
TEST_F(RaJoinOrderTest, DpNeverPicksCrossProductWhenConnectedOrderExists) {
  const char* texts[] = {
      "(x, y, z, w) . R(x, y) & S(y, z) & R(z, w)",
      "(x, y, z, w) . R(x, y) & S(y, z) & R(z, w) & P(w)",
      "(x, y, z, w) . P(x) & R(x, y) & S(y, z) & R(z, w) & P(w)",
  };
  for (const char* text : texts) {
    Query query = Parse(text);
    for (double r_est : {1.0, 4.0, 256.0}) {
      RaCardinalities stats;
      stats.relation_sizes.assign(vocab_.num_predicates(), 4.0);
      stats.relation_sizes[p_] = 1.0;  // tiny ends tempt a cross product
      stats.relation_sizes[r_] = r_est;
      RaCompiler compiler(&vocab_, stats);
      ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(query));
      ASSERT_FALSE(compiler.join_order_log().empty());
      EXPECT_TRUE(compiler.join_order_log().back().used_dp);
      ExpectNoCrossProducts(plan, std::string(text) +
                                      " (r_est=" + std::to_string(r_est) +
                                      ")");
    }
  }
}

/// The semijoin-reduced plan with the candidate set bound must compute
/// exactly `original ∩ candidates`, on random formulas covering the whole
/// operator alphabet (joins, unions, anti-joins, projections, complements).
TEST_F(RaJoinOrderTest, SemijoinReductionMatchesOriginalIntersection) {
  RandomFormulaParams params;
  params.max_depth = 3;
  params.free_vars = {"hx"};
  const std::vector<std::vector<Value>> candidate_sets = {
      {}, {a_}, {b_, d_}, {a_, b_, c_, d_}};
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    FormulaPtr body = RandomFormula(&rng, &vocab_, params);
    ASSERT_OK_AND_ASSIGN(
        Query query, Query::Make({vocab_.AddVariable("hx")}, std::move(body)));
    RaCompiler compiler(&vocab_);
    ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(query));
    RaExecutor exec(db_.get());
    ASSERT_OK_AND_ASSIGN(RaTable original, exec.Execute(plan));

    ASSERT_OK_AND_ASSIGN(ReducedPlan red, SemijoinReduce(plan));
    ASSERT_NE(red.param, nullptr);
    for (const std::vector<Value>& cands : candidate_sets) {
      exec.BindParam(red.param.get(), cands.data(), cands.size());
      ASSERT_OK_AND_ASSIGN(const RaTableView* view,
                           exec.ExecuteView(red.plan));
      Relation expected(1);
      for (Value v : cands) {
        if (original.rel.Contains({v})) expected.Insert({v});
      }
      EXPECT_EQ(view->rows.ToRelation(), expected)
          << "seed " << seed << ", " << cands.size() << " candidates";
    }
  }
}

/// The shadowing regression in isolation: `(hx) . P(hx) & ∃hx. R(hx, hx)`
/// re-binds the head variable under the quantifier, so the pushdown must
/// stop at that projection — the inner R scan ranges over *all* rows, not
/// just candidate ones.
TEST_F(RaJoinOrderTest, SemijoinReductionHandlesShadowedHeadVariable) {
  FormulaBuilder b(&vocab_);
  FormulaPtr body = b.And({b.Atom("P", {b.V("hx")}),
                           b.Exists("hx", b.Atom("R", {b.V("hx"), b.V("hx")}))});
  ASSERT_OK_AND_ASSIGN(
      Query query, Query::Make({vocab_.AddVariable("hx")}, std::move(body)));
  RaCompiler compiler(&vocab_);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(query));
  RaExecutor exec(db_.get());
  ASSERT_OK_AND_ASSIGN(RaTable original, exec.Execute(plan));
  // R(d, d) holds, so the inner ∃ is true and P decides: {A, D}.
  EXPECT_TRUE(original.rel.Contains({a_}));
  EXPECT_TRUE(original.rel.Contains({d_}));

  ASSERT_OK_AND_ASSIGN(ReducedPlan red, SemijoinReduce(plan));
  const std::vector<Value> cands = {a_, b_};
  exec.BindParam(red.param.get(), cands.data(), cands.size());
  ASSERT_OK_AND_ASSIGN(const RaTableView* view, exec.ExecuteView(red.plan));
  Relation expected(1);
  expected.Insert({a_});  // {A, D} ∩ {A, B}
  EXPECT_EQ(view->rows.ToRelation(), expected);
}

size_t WidestNode(const PlanPtr& plan) {
  size_t widest = plan->schema().size();
  for (const PlanPtr& c : plan->children()) {
    widest = std::max(widest, WidestNode(c));
  }
  return widest;
}

/// Required-columns pushdown on the two-hop chain, under join-heavy-like
/// statistics (34 constants, a 229-row R, a 34-row P): z is projected away
/// right after its last join, so no node carries all of [x, y, z] and the
/// plan is the one the ∃-scoped rewrite compiles to,
/// `π_x(R(x,y) ⋈ π_y(P(z) ⋈ R(y,z)))`, up to the order of the top join's
/// operands: the rewrite's join order sees π_y, estimated at most 34 rows
/// (the domain) against R's 229, and puts it first, while the chain's DP
/// orders the three scans before the pass inserts π_y.
TEST_F(RaJoinOrderTest, TwoHopChainDropsEachBoundColumnAtItsLastJoin) {
  RaCardinalities stats;
  stats.domain_size = 34.0;
  stats.relation_sizes.assign(vocab_.num_predicates(), 229.0);
  stats.relation_sizes[p_] = 34.0;
  const Query chain =
      Parse("(x) . exists y. exists z. R(x, y) & R(y, z) & P(z)");
  const Query scoped =
      Parse("(x) . exists y. R(x, y) & (exists z. R(y, z) & P(z))");
  RaCompiler compiler(&vocab_, stats);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(chain));
  ASSERT_OK_AND_ASSIGN(PlanPtr scoped_plan, compiler.Compile(scoped));
  const std::string inner =
      "    Project -> [y]\n"
      "      Join -> [z, y]\n"
      "        Scan P(z) -> [z]\n"
      "        Scan R(y, z) -> [y, z]\n";
  const std::string outer = "    Scan R(x, y) -> [x, y]\n";
  EXPECT_EQ(plan->ToString(vocab_),
            "Project -> [x]\n  Join -> [x, y]\n" + outer + inner);
  EXPECT_EQ(scoped_plan->ToString(vocab_),
            "Project -> [x]\n  Join -> [y, x]\n" + inner + outer);

  const VarId y = vocab_.AddVariable("y");
  ASSERT_EQ(plan->kind(), PlanKind::kProject);
  const PlanPtr& join = plan->child();
  ASSERT_EQ(join->kind(), PlanKind::kJoin);
  bool projects_y = false;
  for (const PlanPtr& side : join->children()) {
    projects_y |= side->kind() == PlanKind::kProject &&
                  side->schema() == std::vector<VarId>{y};
  }
  EXPECT_TRUE(projects_y) << plan->ToString(vocab_);
  EXPECT_LE(WidestNode(plan), 2u) << plan->ToString(vocab_);

  RaExecutor exec(db_.get());
  ASSERT_OK_AND_ASSIGN(RaTable rows, exec.Execute(plan));
  // Two R-hops end in P's d from b (via c), c and d (via d); none reach a.
  Relation expected(1);
  expected.Insert({b_});
  expected.Insert({c_});
  expected.Insert({d_});
  EXPECT_EQ(rows.rel, expected);
}

/// Boolean queries have nothing to filter by: the reduction is the
/// identity with a null param, and the plan still executes unchanged.
TEST_F(RaJoinOrderTest, SemijoinReductionIsIdentityOnBooleanQueries) {
  Query query = Parse("() . exists x. exists y. R(x, y) & P(y)");
  RaCompiler compiler(&vocab_);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(query));
  ASSERT_OK_AND_ASSIGN(ReducedPlan red, SemijoinReduce(plan));
  EXPECT_EQ(red.param, nullptr);
  EXPECT_EQ(red.plan, plan);
}

/// A projection holds at most every tuple over the domain. On the E10
/// large world (34 constants, 229 R0 facts) the two-hop chain projects
/// `R0(y, z) ⋈ P0(z)` to `[y]`: the child is estimated above 34 rows, the
/// one-column projection at most 34.
TEST(RaEstimateTest, ProjectionIsCappedByTheDomain) {
  ScenarioParams params;
  params.num_known = 32;
  params.num_unknown = 2;
  params.facts_per_relation = 256;
  std::unique_ptr<CwDatabase> lb = MakeScenario(/*seed=*/7, params);
  ASSERT_OK_AND_ASSIGN(
      Query chain,
      ParseQuery(lb->mutable_vocab(),
                 "(x) . exists y. exists z. R0(x, y) & R0(y, z) & P0(z)"));
  const RaCardinalities stats = JoinStatsFor(*lb, /*dp_join_cap=*/10);
  ASSERT_EQ(stats.domain_size, 34.0);
  RaCompiler compiler(&lb->vocab(), stats);
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, compiler.Compile(chain));

  std::vector<PlanPtr> projections;
  std::vector<PlanPtr> stack = {plan};
  while (!stack.empty()) {
    PlanPtr node = stack.back();
    stack.pop_back();
    if (node->kind() == PlanKind::kProject && node->schema().size() == 1 &&
        node != plan) {
      projections.push_back(node);
    }
    for (const PlanPtr& c : node->children()) stack.push_back(c);
  }
  ASSERT_FALSE(projections.empty()) << plan->ToString(lb->vocab());
  bool capped = false;
  for (const PlanPtr& p : projections) {
    EXPECT_LE(compiler.EstimatePlan(p), 34.0) << compiler.AnnotatePlan(plan);
    capped |= compiler.EstimatePlan(p->child()) > 34.0;
  }
  EXPECT_TRUE(capped) << compiler.AnnotatePlan(plan);
  // Arity 0 holds at most the one empty tuple.
  ASSERT_OK_AND_ASSIGN(
      Query boolean,
      ParseQuery(lb->mutable_vocab(), "() . exists x. exists y. R0(x, y)"));
  ASSERT_OK_AND_ASSIGN(PlanPtr boolean_plan, compiler.Compile(boolean));
  EXPECT_LE(compiler.EstimatePlan(boolean_plan), 1.0)
      << compiler.AnnotatePlan(boolean_plan);
}

}  // namespace
}  // namespace lqdb
