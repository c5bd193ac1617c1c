#include <gtest/gtest.h>

#include "lqdb/logic/builder.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/formula.h"
#include "lqdb/logic/nnf.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/printer.h"
#include "lqdb/logic/query.h"
#include "lqdb/logic/substitute.h"
#include "lqdb/logic/vocabulary.h"
#include "lqdb/util/rng.h"
#include "testing.h"

namespace lqdb {
namespace {

using testing::RandomFormula;
using testing::RandomFormulaParams;

TEST(VocabularyTest, ConstantsAndPredicates) {
  Vocabulary v;
  ConstId a = v.AddConstant("Alice");
  EXPECT_EQ(v.AddConstant("Alice"), a);
  EXPECT_EQ(v.ConstantName(a), "Alice");
  EXPECT_EQ(v.FindConstant("Bob"), Vocabulary::kNotFound);

  auto p = v.AddPredicate("Knows", 2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(v.PredicateArity(p.value()), 2);
  EXPECT_FALSE(v.IsAuxiliary(p.value()));

  auto clash = v.AddPredicate("Knows", 3);
  EXPECT_EQ(clash.status().code(), StatusCode::kAlreadyExists);

  auto same = v.AddPredicate("Knows", 2);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value(), p.value());
}

TEST(VocabularyTest, AuxiliaryUpgradeToSchema) {
  Vocabulary v;
  auto aux = v.AddAuxiliaryPredicate("NE", 2);
  ASSERT_TRUE(aux.ok());
  EXPECT_TRUE(v.IsAuxiliary(aux.value()));
  auto schema = v.AddPredicate("NE", 2);
  ASSERT_TRUE(schema.ok());
  EXPECT_FALSE(v.IsAuxiliary(schema.value()));
  // Schema predicates never downgrade back to auxiliary.
  auto again = v.AddAuxiliaryPredicate("NE", 2);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(v.IsAuxiliary(again.value()));
}

TEST(VocabularyTest, FreshVariableAvoidsCollisions) {
  Vocabulary v;
  VarId x = v.AddVariable("x");
  VarId f1 = v.FreshVariable("x");
  VarId f2 = v.FreshVariable("x");
  EXPECT_NE(f1, x);
  EXPECT_NE(f2, x);
  EXPECT_NE(f1, f2);
}

TEST(VocabularyTest, SchemaPredicatesExcludeAuxiliary) {
  Vocabulary v;
  PredId p = v.AddPredicate("P", 1).value();
  v.AddAuxiliaryPredicate("H", 2).value();
  PredId q = v.AddPredicate("Q", 0).value();
  EXPECT_EQ(v.SchemaPredicates(), (std::vector<PredId>{p, q}));
}

TEST(FormulaTest, AndFlattensAndCollapses) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr p = b.Atom("P", {b.V("x")});
  FormulaPtr q = b.Atom("Q", {b.V("x")});
  FormulaPtr r = b.Atom("R", {b.V("x")});

  FormulaPtr nested = Formula::And(Formula::And(p, q), r);
  EXPECT_EQ(nested->kind(), FormulaKind::kAnd);
  EXPECT_EQ(nested->num_children(), 3u);

  EXPECT_EQ(Formula::And({})->kind(), FormulaKind::kTrue);
  EXPECT_EQ(Formula::And({p})->kind(), FormulaKind::kAtom);
  EXPECT_EQ(Formula::Or({})->kind(), FormulaKind::kFalse);
  // True units are dropped from conjunctions.
  EXPECT_EQ(Formula::And(Formula::True(), p)->kind(), FormulaKind::kAtom);
}

TEST(FormulaTest, FreeVariables) {
  Vocabulary v;
  FormulaBuilder b(&v);
  // exists y. R(x, y) & P(z)
  FormulaPtr f = b.Exists(
      "y", b.And({b.Atom("R", {b.V("x"), b.V("y")}),
                  b.Atom("P", {b.V("z")})}));
  std::set<VarId> free = FreeVariables(f);
  EXPECT_EQ(free.size(), 2u);
  EXPECT_TRUE(free.count(v.FindVariable("x")));
  EXPECT_TRUE(free.count(v.FindVariable("z")));
  EXPECT_FALSE(free.count(v.FindVariable("y")));
}

TEST(FormulaTest, FreeVariablesRespectShadowing) {
  Vocabulary v;
  FormulaBuilder b(&v);
  // P(x) & exists x. Q(x) — the outer x is free, the inner bound.
  FormulaPtr f = b.And({b.Atom("P", {b.V("x")}),
                        b.Exists("x", b.Atom("Q", {b.V("x")}))});
  std::set<VarId> free = FreeVariables(f);
  EXPECT_EQ(free.size(), 1u);
  EXPECT_TRUE(free.count(v.FindVariable("x")));
}

TEST(FormulaTest, FreePredicatesExcludeSoBound) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr f = b.ExistsPred("S", 1, b.And({b.Atom("S", {b.V("x")}),
                                             b.Atom("P", {b.V("x")})}));
  std::set<PredId> free = FreePredicates(f);
  EXPECT_EQ(free.size(), 1u);
  EXPECT_TRUE(free.count(v.FindPredicate("P")));
}

TEST(FormulaTest, ConstantsOf) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr f = b.And({b.Atom("P", {b.C("A")}),
                        b.Eq(b.V("x"), b.C("B"))});
  std::set<ConstId> consts = ConstantsOf(f);
  EXPECT_EQ(consts.size(), 2u);
}

TEST(FormulaTest, StructuralEquality) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr f1 = b.Forall("x", b.Atom("P", {b.V("x")}));
  FormulaPtr f2 = b.Forall("x", b.Atom("P", {b.V("x")}));
  FormulaPtr f3 = b.Forall("y", b.Atom("P", {b.V("y")}));
  EXPECT_TRUE(StructurallyEqual(f1, f2));
  EXPECT_FALSE(StructurallyEqual(f1, f3));  // not up to renaming
}

TEST(PrinterTest, RendersConnectivesWithMinimalParens) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr f =
      b.Implies(b.Or({b.Atom("P", {b.V("x")}),
                      b.And({b.Atom("Q", {b.V("x")}),
                             b.Atom("S", {b.V("x")})})}),
                b.Atom("T", {b.V("x")}));
  EXPECT_EQ(PrintFormula(v, f), "P(x) | Q(x) & S(x) -> T(x)");
}

TEST(PrinterTest, RendersQuantifierRuns) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr f = b.Forall({"x", "y"}, b.Atom("R", {b.V("x"), b.V("y")}));
  EXPECT_EQ(PrintFormula(v, f), "forall x y. R(x, y)");
}

TEST(PrinterTest, RendersNegatedEqualityAsNeq) {
  Vocabulary v;
  FormulaBuilder b(&v);
  EXPECT_EQ(PrintFormula(v, b.Neq(b.V("x"), b.V("y"))), "x != y");
}

TEST(ParserTest, ParsesAtomsAndTermsWithCaseHeuristic) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, ParseFormula(&v, "Teaches(Socrates, x)"));
  ASSERT_EQ(f->kind(), FormulaKind::kAtom);
  EXPECT_TRUE(f->terms()[0].is_constant());
  EXPECT_TRUE(f->terms()[1].is_variable());
}

TEST(ParserTest, DeclaredConstantBeatsCaseHeuristic) {
  Vocabulary v;
  v.AddConstant("socrates");  // lowercase but a declared constant
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, ParseFormula(&v, "P(socrates)"));
  EXPECT_TRUE(f->terms()[0].is_constant());
}

TEST(ParserTest, PrecedenceMatchesPrinter) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(
      FormulaPtr f, ParseFormula(&v, "P(x) & Q(x) | S(x) -> T(x)"));
  // Parsed as ((P&Q) | S) -> T.
  ASSERT_EQ(f->kind(), FormulaKind::kImplies);
  EXPECT_EQ(f->child(0)->kind(), FormulaKind::kOr);
}

TEST(ParserTest, QuantifiersExtendRight) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f,
                       ParseFormula(&v, "exists x. P(x) & Q(x)"));
  ASSERT_EQ(f->kind(), FormulaKind::kExists);
  EXPECT_EQ(f->child()->kind(), FormulaKind::kAnd);
}

TEST(ParserTest, SecondOrderQuantifier) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(
      FormulaPtr f, ParseFormula(&v, "exists2 S/1. forall x. S(x) -> P(x)"));
  ASSERT_EQ(f->kind(), FormulaKind::kExistsPred);
  EXPECT_EQ(v.PredicateArity(f->pred()), 1);
  EXPECT_TRUE(v.IsAuxiliary(f->pred()));
}

TEST(ParserTest, NeqSugar) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, ParseFormula(&v, "x != y"));
  ASSERT_EQ(f->kind(), FormulaKind::kNot);
  EXPECT_EQ(f->child()->kind(), FormulaKind::kEquals);
}

TEST(ParserTest, RejectsGarbage) {
  Vocabulary v;
  EXPECT_FALSE(ParseFormula(&v, "P(x").ok());
  EXPECT_FALSE(ParseFormula(&v, "P(x) &&& Q(x)").ok());
  EXPECT_FALSE(ParseFormula(&v, "forall . P(x)").ok());
  EXPECT_FALSE(ParseFormula(&v, "x =").ok());
  EXPECT_FALSE(ParseFormula(&v, "").ok());
  EXPECT_FALSE(ParseFormula(&v, "P(x) Q(x)").ok());
}

TEST(ParserTest, RejectsQuantifiedConstant) {
  Vocabulary v;
  v.AddConstant("Socrates");
  EXPECT_FALSE(ParseFormula(&v, "exists Socrates. P(Socrates)").ok());
}

TEST(ParserTest, SecondOrderArityOverflowReturnsStatus) {
  // std::stoi used to throw here (the library is exception-free); the
  // strict parse turns an out-of-range arity into an InvalidArgument.
  Vocabulary v;
  auto f = ParseFormula(&v, "exists2 S/99999999999999999999. forall x. S(x)");
  ASSERT_FALSE(f.ok());
  EXPECT_NE(f.status().message().find("arity out of range"),
            std::string::npos)
      << f.status();
}

TEST(ParserTest, ParsesQueriesWithHeads) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(&v, "(x, y) . exists z. R(x, z) & R(z, y)"));
  EXPECT_EQ(q.arity(), 2u);
  EXPECT_FALSE(q.is_boolean());
}

TEST(ParserTest, BareSentenceIsBooleanQuery) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(&v, "forall x. P(x)"));
  EXPECT_TRUE(q.is_boolean());
}

TEST(ParserTest, RejectsQueryMissingHeadVariable) {
  Vocabulary v;
  EXPECT_FALSE(ParseQuery(&v, "(x) . R(x, y)").ok());
}

TEST(ParserTest, ParenthesizedFormulaIsNotAHead) {
  Vocabulary v;
  v.AddConstant("A");
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(&v, "(P(A) -> P(A)) & true"));
  EXPECT_TRUE(q.is_boolean());
}

TEST(ParserPrinterTest, RoundTripsRandomFormulas) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Vocabulary v;
    v.AddConstant("A");
    v.AddConstant("B");
    v.AddPredicate("P0", 1).value();
    v.AddPredicate("R0", 2).value();
    Rng rng(seed);
    RandomFormulaParams params;
    FormulaPtr f = RandomFormula(&rng, &v, params);
    std::string printed = PrintFormula(v, f);
    auto reparsed = ParseFormula(&v, printed);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << printed << " -> "
        << reparsed.status();
    EXPECT_EQ(PrintFormula(v, reparsed.value()), printed)
        << "seed " << seed;
  }
}

TEST(NnfTest, EliminatesImplications) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, ParseFormula(&v, "P(x) -> Q(x)"));
  FormulaPtr nnf = ToNnf(f);
  EXPECT_TRUE(IsNnf(nnf));
  EXPECT_EQ(PrintFormula(v, nnf), "!P(x) | Q(x)");
}

TEST(NnfTest, PushesNegationThroughQuantifiers) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f,
                       ParseFormula(&v, "!(forall x. exists y. R(x, y))"));
  FormulaPtr nnf = ToNnf(f);
  EXPECT_TRUE(IsNnf(nnf));
  EXPECT_EQ(PrintFormula(v, nnf), "exists x. forall y. !R(x, y)");
}

TEST(NnfTest, DoubleNegationCancels) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, ParseFormula(&v, "!!P(x)"));
  EXPECT_EQ(PrintFormula(v, ToNnf(f)), "P(x)");
}

TEST(NnfTest, SecondOrderQuantifiersFlip) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f,
                       ParseFormula(&v, "!(exists2 S/1. forall x. S(x))"));
  FormulaPtr nnf = ToNnf(f);
  ASSERT_EQ(nnf->kind(), FormulaKind::kForallPred);
  EXPECT_EQ(nnf->child()->kind(), FormulaKind::kExists);
}

TEST(NnfTest, IsNnfDetectsViolations) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr imp, ParseFormula(&v, "P(x) -> Q(x)"));
  EXPECT_FALSE(IsNnf(imp));
  ASSERT_OK_AND_ASSIGN(FormulaPtr notand, ParseFormula(&v, "!(P(x) & Q(x))"));
  EXPECT_FALSE(IsNnf(notand));
  ASSERT_OK_AND_ASSIGN(FormulaPtr lit, ParseFormula(&v, "!P(x) & x != y"));
  EXPECT_TRUE(IsNnf(lit));
}

TEST(SubstituteTest, ReplacesFreeOccurrences) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr f = b.And({b.Atom("P", {b.V("x")}),
                        b.Exists("x", b.Atom("Q", {b.V("x")}))});
  Substitution subst{{v.FindVariable("x"), b.C("A")}};
  FormulaPtr g = Substitute(&v, f, subst);
  EXPECT_EQ(PrintFormula(v, g), "P(A) & exists x. Q(x)");
}

TEST(SubstituteTest, AvoidsCapture) {
  Vocabulary v;
  FormulaBuilder b(&v);
  // exists y. R(x, y); substituting x := y must rename the bound y.
  FormulaPtr f = b.Exists("y", b.Atom("R", {b.V("x"), b.V("y")}));
  Substitution subst{{v.FindVariable("x"), b.V("y")}};
  FormulaPtr g = Substitute(&v, f, subst);
  ASSERT_EQ(g->kind(), FormulaKind::kExists);
  // The substituted occurrence must be the *free* y, not the bound one.
  const FormulaPtr& atom = g->child();
  EXPECT_EQ(atom->terms()[0].var(), v.FindVariable("y"));
  EXPECT_NE(atom->terms()[1].var(), v.FindVariable("y"));
  EXPECT_EQ(atom->terms()[1].var(), g->var());
}

TEST(SubstituteTest, SimultaneousSwap) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr f = b.Atom("R", {b.V("x"), b.V("y")});
  Substitution subst{{v.FindVariable("x"), b.V("y")},
                     {v.FindVariable("y"), b.V("x")}};
  FormulaPtr g = Substitute(&v, f, subst);
  EXPECT_EQ(PrintFormula(v, g), "R(y, x)");
}

TEST(ClassifyTest, PositiveFormulas) {
  Vocabulary v;
  auto is_pos = [&v](const std::string& s) {
    return IsPositive(ParseFormula(&v, s).value());
  };
  EXPECT_TRUE(is_pos("P(x) & Q(x)"));
  EXPECT_TRUE(is_pos("exists x. P(x) | x = y"));
  EXPECT_TRUE(is_pos("!!P(x)"));
  EXPECT_FALSE(is_pos("!P(x)"));
  EXPECT_FALSE(is_pos("x != y"));
  EXPECT_FALSE(is_pos("P(x) -> Q(x)"));  // antecedent is negative
  EXPECT_TRUE(is_pos("forall x. true"));
}

TEST(ClassifyTest, SplitPositiveConjuncts) {
  Vocabulary v;
  ASSERT_TRUE(v.AddPredicate("P", 1).ok());
  ASSERT_TRUE(v.AddPredicate("Q", 1).ok());
  ASSERT_TRUE(v.AddPredicate("R", 2).ok());
  // Each side printed, or "-" when it is empty.
  auto split = [&v](const std::string& s) {
    const ConjunctSplit parts =
        SplitPositiveConjuncts(ParseFormula(&v, s).value());
    auto print = [&v](const FormulaPtr& f) {
      return f == nullptr ? std::string("-") : PrintFormula(v, f);
    };
    return print(parts.positive) + " | " + print(parts.residual);
  };
  EXPECT_EQ(split("P(x) & !Q(x)"), "P(x) | !Q(x)");
  // Each side keeps its conjuncts in body order.
  EXPECT_EQ(split("!Q(x) & P(x) & x != c & R(x, y)"),
            "P(x) & R(x, y) | !Q(x) & x != c");
  // `->` and `<->` antecedents are negative, so those conjuncts are swept.
  EXPECT_EQ(split("(P(x) -> Q(x)) & R(x, y)"), "R(x, y) | P(x) -> Q(x)");
  EXPECT_EQ(split("(P(x) <-> Q(x)) & P(x)"), "P(x) | P(x) <-> Q(x)");
  EXPECT_EQ(split("(forall y. R(x, y) -> P(y)) & exists y. R(x, y)"),
            "exists y. R(x, y) | forall y. R(x, y) -> P(y)");
  // An atom-free antecedent and a double negation are positive.
  EXPECT_EQ(split("(true -> P(x)) & !!Q(x)"), "(true -> P(x)) & !!Q(x) | -");
  // A body that is not a conjunction is its own single conjunct.
  EXPECT_EQ(split("P(x) | Q(x)"), "P(x) | Q(x) | -");
  EXPECT_EQ(split("!P(x)"), "- | !P(x)");
  EXPECT_EQ(split("!(P(x) & Q(x))"), "- | !(P(x) & Q(x))");
  // Second-order conjuncts stay in the residual, even positive ones.
  EXPECT_EQ(split("(exists2 S/1. S(x)) & P(x)"),
            "P(x) | exists2 S/1. S(x)");
}

TEST(ClassifyTest, FoPrefix) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(
      FormulaPtr sigma2,
      ParseFormula(&v, "exists x y. forall z. R(x, z) & R(y, z)"));
  PrefixShape shape = ClassifyFoPrefix(sigma2);
  EXPECT_TRUE(shape.prenex);
  EXPECT_EQ(shape.blocks, 2);
  EXPECT_TRUE(shape.starts_existential);
  EXPECT_TRUE(InSigmaFoK(sigma2, 2));
  EXPECT_FALSE(InSigmaFoK(sigma2, 1));
  EXPECT_TRUE(InSigmaFoK(sigma2, 3));

  ASSERT_OK_AND_ASSIGN(FormulaPtr pi1, ParseFormula(&v, "forall x. P(x)"));
  EXPECT_FALSE(InSigmaFoK(pi1, 1));  // starts universal with exactly k blocks
  EXPECT_TRUE(InSigmaFoK(pi1, 2));   // embeds with fewer blocks

  ASSERT_OK_AND_ASSIGN(FormulaPtr nonprenex,
                       ParseFormula(&v, "exists x. P(x) & exists y. Q(y)"));
  EXPECT_FALSE(ClassifyFoPrefix(nonprenex).prenex);
}

TEST(ClassifyTest, SoPrefix) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(
      FormulaPtr f,
      ParseFormula(&v, "exists2 S/1. forall2 T/1. forall x. S(x) | T(x)"));
  PrefixShape shape = ClassifySoPrefix(f);
  EXPECT_TRUE(shape.prenex);
  EXPECT_EQ(shape.blocks, 2);
  EXPECT_TRUE(shape.starts_existential);
  EXPECT_TRUE(InSigmaSoK(f, 2));
  EXPECT_FALSE(InSigmaSoK(f, 1));
}

TEST(QueryTest, ValidatesHead) {
  Vocabulary v;
  FormulaBuilder b(&v);
  FormulaPtr body = b.Atom("P", {b.V("x")});
  VarId x = v.FindVariable("x");
  EXPECT_TRUE(Query::Make({x}, body).ok());
  EXPECT_FALSE(Query::Make({}, body).ok());          // free var not in head
  EXPECT_FALSE(Query::Make({x, x}, body).ok());      // duplicate head var
  VarId y = v.AddVariable("y");
  EXPECT_TRUE(Query::Make({x, y}, body).ok());       // superset heads allowed
}

TEST(QueryTest, PrintRoundTrip) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(&v, "(x, y) . exists z. R(x, z) & R(z, y)"));
  std::string printed = PrintQuery(v, q);
  ASSERT_OK_AND_ASSIGN(Query q2, ParseQuery(&v, printed));
  EXPECT_EQ(PrintQuery(v, q2), printed);
}

TEST(FormulaSizeTest, CountsNodes) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr f, ParseFormula(&v, "P(x) & Q(x)"));
  EXPECT_EQ(FormulaSize(f), 3u);
}

TEST(IsFirstOrderTest, DetectsSoQuantifiers) {
  Vocabulary v;
  ASSERT_OK_AND_ASSIGN(FormulaPtr fo, ParseFormula(&v, "forall x. P(x)"));
  EXPECT_TRUE(IsFirstOrder(fo));
  ASSERT_OK_AND_ASSIGN(FormulaPtr so,
                       ParseFormula(&v, "forall x. exists2 S/1. S(x)"));
  EXPECT_FALSE(IsFirstOrder(so));
}

}  // namespace
}  // namespace lqdb
