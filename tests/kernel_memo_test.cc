// Unit tests for the kernel-class signature machinery and the per-worker
// verdict table (src/lqdb/eval/kernel_memo.h). The differential suite pins
// memo-on ≡ memo-off end to end; these tests pin the *reasons* it is sound,
// in particular the counterexample that rules out the naive
// "query-constant restriction + block sizes" signature.
#include "lqdb/eval/kernel_memo.h"

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/exact/exact.h"
#include "lqdb/gen/scenario.h"
#include "lqdb/logic/parser.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

// Facts P(c), Q(d) and a spare constant e. The partitions {c,d},{e} and
// {c,e},{d} agree on block sizes and on the (empty) restriction to query
// constants, yet the first merges c into a Q-fact's constant and the second
// into a bare one — the images are not isomorphic, so a signature that
// identified them would serve wrong verdicts. Interchangeability classes
// keep them apart: neither (c d) nor (c e) nor (d e) preserves the facts.
TEST(KernelSignature, NaiveBlockSizeSignatureWouldBeUnsound) {
  CwDatabase lb;
  const ConstId c = lb.AddKnownConstant("c");
  const ConstId d = lb.AddKnownConstant("d");
  const ConstId e = lb.AddKnownConstant("e");
  ASSERT_OK_AND_ASSIGN(PredId p, lb.AddPredicate("P", 1));
  ASSERT_OK_AND_ASSIGN(PredId q, lb.AddPredicate("Q", 1));
  ASSERT_OK(lb.AddFact(p, Tuple{c}));
  ASSERT_OK(lb.AddFact(q, Tuple{d}));

  const KernelSignatureContext ctx(lb, /*pinned=*/{});
  EXPECT_EQ(ctx.num_classes(), 3u);  // no two constants interchangeable

  KernelSignatureScratch s1, s2;
  ctx.SignatureOf(ConstMapping{c, c, e}, &s1);  // merge {c,d}, keep {e}
  ctx.SignatureOf(ConstMapping{c, d, c}, &s2);  // merge {c,e}, keep {d}
  EXPECT_NE(s1.sig, s2.sig);
}

// With facts P(c), P(d), the transposition (c d) fixes the fact set, and
// the spare constants e, f appear in no fact: classes {c,d} and {e,f}.
// Merging one P-constant with one spare yields isomorphic images whichever
// representatives are chosen, so the signatures must coincide.
TEST(KernelSignature, InterchangeableConstantsShareSignatures) {
  CwDatabase lb;
  const ConstId c = lb.AddKnownConstant("c");
  const ConstId d = lb.AddKnownConstant("d");
  const ConstId e = lb.AddKnownConstant("e");
  const ConstId f = lb.AddKnownConstant("f");
  ASSERT_OK_AND_ASSIGN(PredId p, lb.AddPredicate("P", 1));
  ASSERT_OK(lb.AddFact(p, Tuple{c}));
  ASSERT_OK(lb.AddFact(p, Tuple{d}));

  const KernelSignatureContext ctx(lb, /*pinned=*/{});
  EXPECT_EQ(ctx.num_classes(), 2u);

  KernelSignatureScratch s1, s2;
  ctx.SignatureOf(ConstMapping{c, d, c, f}, &s1);  // merge {c,e}
  ctx.SignatureOf(ConstMapping{c, d, e, d}, &s2);  // merge {d,f}
  EXPECT_EQ(s1.sig, s2.sig);

  // The identity and the fully split mapping trivially agree too.
  ctx.SignatureOf(ConstMapping{c, d, e, f}, &s1);
  ctx.SignatureOf(ConstMapping{c, d, e, f}, &s2);
  EXPECT_EQ(s1.sig, s2.sig);
}

// A pinned (query-mentioned) constant carries its identity: merging the
// spare into pinned c is not the same as merging it into interchangeable d.
TEST(KernelSignature, PinnedConstantsKeepTheirIdentity) {
  CwDatabase lb;
  const ConstId c = lb.AddKnownConstant("c");
  const ConstId d = lb.AddKnownConstant("d");
  const ConstId e = lb.AddKnownConstant("e");
  ASSERT_OK_AND_ASSIGN(PredId p, lb.AddPredicate("P", 1));
  ASSERT_OK(lb.AddFact(p, Tuple{c}));
  ASSERT_OK(lb.AddFact(p, Tuple{d}));

  // Unpinned, c ~ d and the two merges would be signature-equal...
  const KernelSignatureContext unpinned(lb, /*pinned=*/{});
  KernelSignatureScratch s1, s2;
  unpinned.SignatureOf(ConstMapping{c, d, c}, &s1);  // merge {c,e}
  unpinned.SignatureOf(ConstMapping{c, d, d}, &s2);  // merge {d,e}
  EXPECT_EQ(s1.sig, s2.sig);

  // ...but pinning c (the query mentions it) must split them apart.
  const KernelSignatureContext pinned(lb, /*pinned=*/{c});
  EXPECT_LT(pinned.code_of(c), 0);
  pinned.SignatureOf(ConstMapping{c, d, c}, &s1);
  pinned.SignatureOf(ConstMapping{c, d, d}, &s2);
  EXPECT_NE(s1.sig, s2.sig);
}

// Constants appearing in no fact always collapse into one class — the
// source of the memo's compression on sparse databases.
TEST(KernelSignature, FactFreeConstantsFormOneClass) {
  CwDatabase lb;
  for (int i = 0; i < 5; ++i) {
    lb.AddKnownConstant("k" + std::to_string(i));
  }
  ASSERT_OK_AND_ASSIGN(PredId p, lb.AddPredicate("P", 1));
  (void)p;  // declared but empty: still no facts
  const KernelSignatureContext ctx(lb, /*pinned=*/{});
  EXPECT_EQ(ctx.num_classes(), 1u);
}

// Relabeling maps an image value to the rank of its block in the canonical
// block order, so equal rows under equivalent mappings compare equal.
TEST(KernelSignature, RelabelIsConsistentAcrossEquivalentMappings) {
  CwDatabase lb;
  const ConstId c = lb.AddKnownConstant("c");
  const ConstId d = lb.AddKnownConstant("d");
  const ConstId e = lb.AddKnownConstant("e");
  const ConstId f = lb.AddKnownConstant("f");
  ASSERT_OK_AND_ASSIGN(PredId p, lb.AddPredicate("P", 1));
  ASSERT_OK(lb.AddFact(p, Tuple{c}));
  ASSERT_OK(lb.AddFact(p, Tuple{d}));

  const KernelSignatureContext ctx(lb, /*pinned=*/{});
  KernelSignatureScratch s1, s2;
  ctx.SignatureOf(ConstMapping{c, d, c, f}, &s1);  // e joins c's block
  ctx.SignatureOf(ConstMapping{c, d, e, d}, &s2);  // f joins d's block
  ASSERT_EQ(s1.sig, s2.sig);
  // The P-constant merged with a spare: same block rank either way.
  EXPECT_EQ(s1.relabel[c], s2.relabel[d]);
  // The untouched P-constant likewise.
  EXPECT_EQ(s1.relabel[d], s2.relabel[c]);
  // And the surviving spare.
  EXPECT_EQ(s1.relabel[f], s2.relabel[e]);
}

TEST(KernelMemo, RoundTripAndFirstWriterWins) {
  KernelMemo memo(/*enabled=*/true);
  const uint32_t sig = memo.InternSignature("sig-a");
  EXPECT_EQ(memo.InternSignature("sig-a"), sig);
  EXPECT_NE(memo.InternSignature("sig-b"), sig);

  const Value row[2] = {3, 5};
  EXPECT_EQ(memo.LookupRow(sig, row, 2), -1);
  memo.InsertRow(sig, row, 2, true);
  EXPECT_EQ(memo.LookupRow(sig, row, 2), 1);
  memo.InsertRow(sig, row, 2, false);  // duplicate: dropped
  EXPECT_EQ(memo.LookupRow(sig, row, 2), 1);

  // Same row under another signature is a distinct key.
  EXPECT_EQ(memo.LookupRow(sig + 1, row, 2), -1);
  memo.InsertRow(sig + 1, row, 2, false);
  EXPECT_EQ(memo.LookupRow(sig + 1, row, 2), 0);

  EXPECT_EQ(memo.counters().signatures, 2u);
}

TEST(KernelMemo, SaturatesAtMaxEntries) {
  KernelMemo memo(/*enabled=*/true, /*max_entries=*/4);
  const uint32_t sig = memo.InternSignature("sig");
  for (Value v = 0; v < 8; ++v) {
    const Value row[1] = {v};
    memo.InsertRow(sig, row, 1, true);
  }
  int stored = 0;
  for (Value v = 0; v < 8; ++v) {
    const Value row[1] = {v};
    if (memo.LookupRow(sig, row, 1) != -1) ++stored;
  }
  EXPECT_EQ(stored, 4);
}

// A table grown far past its first index (64 slots) still finds every
// row it recorded, and only those; a capped table records exactly its cap.
TEST(KernelMemo, GrownTableFindsEveryRowAndRespectsTheCap) {
  constexpr Value kRows = 5000;
  KernelMemo grown(/*enabled=*/true);
  KernelMemo capped(/*enabled=*/true, /*max_entries=*/1000);
  KernelMemo off(/*enabled=*/false);
  for (KernelMemo* memo : {&grown, &capped, &off}) {
    const uint32_t a = memo->InternSignature("sig-a");
    const uint32_t b = memo->InternSignature("sig-b");
    for (Value v = 0; v < kRows; ++v) {
      const Value row[2] = {v % 71, v / 71};
      memo->InsertRow(v % 2 == 0 ? a : b, row, 2, v % 3 == 0);
    }
  }

  size_t capped_found = 0;
  for (Value v = 0; v < kRows; ++v) {
    const Value row[2] = {v % 71, v / 71};
    const uint32_t sig = v % 2 == 0 ? 0 : 1;
    EXPECT_EQ(grown.LookupRow(sig, row, 2), v % 3 == 0 ? 1 : 0) << v;
    // Under the other signature the row was never recorded.
    EXPECT_EQ(grown.LookupRow(1 - sig, row, 2), -1) << v;
    const int verdict = capped.LookupRow(sig, row, 2);
    if (verdict != -1) {
      EXPECT_EQ(verdict, v % 3 == 0 ? 1 : 0) << v;
      ++capped_found;
    }
    EXPECT_EQ(off.LookupRow(sig, row, 2), -1) << v;
  }
  EXPECT_EQ(capped_found, 1000u);
  // A row of another arity is another key.
  const Value one[1] = {0};
  EXPECT_EQ(grown.LookupRow(0, one, 1), -1);
}

/// The memo counters of one sweep with the memo on, after checking its
/// answer against the same sweep with the memo off.
KernelMemoCounters SweepCounters(CwDatabase* lb, const Query& q,
                                 ExactSweep sweep, int threads = 1) {
  ExactOptions off;
  off.memo = false;
  ExactEvaluator memo_on(lb, ExactOptions{}, sweep, threads);
  ExactEvaluator memo_off(lb, off, sweep, threads);
  Result<Relation> with_memo = memo_on.Answer(q);
  Result<Relation> without_memo = memo_off.Answer(q);
  EXPECT_TRUE(with_memo.ok() && without_memo.ok());
  if (with_memo.ok() && without_memo.ok()) {
    EXPECT_EQ(*with_memo, *without_memo);
  }
  EXPECT_EQ(memo_off.last_memo_counters().row_misses, 0u);
  return memo_on.last_memo_counters();
}

bool AllSingletons(const CwDatabase& lb, const Query& q) {
  Result<BoundQuery> bound = BoundQuery::Bind(q);
  EXPECT_TRUE(bound.ok());
  return KernelSignatureContext(lb, bound->constants()).all_singletons();
}

// The zero-hit rule on the binary-head chain over 12 constants: a world
// whose constants are all singleton classes sweeps without the memo; the
// same world with two spare constants (which share a class: they appear in
// no fact) sweeps with it. Answers match the memo-off sweep either way. The
// chain carries a negated conjunct: a positive body is answered on Ph₁
// alone (Theorem 13) and would not reach the memo.
TEST(KernelMemo, SweepTrafficFollowsTheZeroHitRule) {
  ScenarioParams params;
  params.num_known = 10;
  params.facts_per_relation = 24;
  const std::string chain =
      "(x, w) . exists y. exists z. R0(x, y) & R1(y, z) & R0(z, w) & "
      "!R1(z, y)";
  for (bool spares : {false, true}) {
    SCOPED_TRACE(spares ? "with spare constants" : "scenario world");
    std::unique_ptr<CwDatabase> lb = MakeScenario(/*seed=*/3, params);
    if (spares) {
      lb->AddKnownConstant("spare0");
      lb->AddKnownConstant("spare1");
    }
    ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb->mutable_vocab(), chain));
    ASSERT_EQ(AllSingletons(*lb, q), !spares);
    for (ExactSweep sweep : {ExactSweep::kExact, ExactSweep::kBatched}) {
      for (int threads : {1, 4}) {
        const KernelMemoCounters memo =
            SweepCounters(lb.get(), q, sweep, threads);
        if (spares) {
          EXPECT_GT(memo.row_misses, 0u);
          EXPECT_GT(memo.signatures, 0u);
        } else {
          EXPECT_EQ(memo.row_hits + memo.row_misses, 0u);
          EXPECT_EQ(memo.signatures, 0u);
        }
      }
    }
  }
}

// The E10 large world (34 constants, 34 singleton classes): `exact` makes
// no memo traffic at all, serial or parallel, and answers as without it.
TEST(KernelMemo, LargeScenarioWorldSweepsWithoutTheMemo) {
  ScenarioParams params;
  params.num_known = 32;
  params.num_unknown = 2;
  params.facts_per_relation = 256;
  std::unique_ptr<CwDatabase> lb = MakeScenario(/*seed=*/7, params);
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb->mutable_vocab(),
                                           "(x) . forall y. R0(x, y) -> "
                                           "P0(y)"));
  ASSERT_TRUE(AllSingletons(*lb, q));
  for (int threads : {1, 4}) {
    const KernelMemoCounters memo =
        SweepCounters(lb.get(), q, ExactSweep::kExact, threads);
    EXPECT_EQ(memo.row_hits + memo.row_misses + memo.images_skipped +
                  memo.signatures,
              0u);
  }
}

// The rule is a property of the canonical sweep: `brute` visits every
// mapping of a partition, so on an all-singleton world it still hits.
TEST(KernelMemo, BruteStillHitsOnAnAllSingletonWorld) {
  CwDatabase lb;
  const ConstId c = lb.AddKnownConstant("c");
  const ConstId d = lb.AddKnownConstant("d");
  lb.AddUnknownConstant("u");
  ASSERT_OK_AND_ASSIGN(PredId p, lb.AddPredicate("P", 1));
  ASSERT_OK_AND_ASSIGN(PredId r, lb.AddPredicate("R", 2));
  ASSERT_OK(lb.AddFact(p, Tuple{c}));
  ASSERT_OK(lb.AddFact(r, Tuple{c, d}));
  ASSERT_OK_AND_ASSIGN(Query q, ParseQuery(lb.mutable_vocab(), "(x) . P(x)"));
  ASSERT_TRUE(AllSingletons(lb, q));
  EXPECT_GT(SweepCounters(&lb, q, ExactSweep::kBrute).row_hits, 0u);
  EXPECT_EQ(SweepCounters(&lb, q, ExactSweep::kExact).row_misses, 0u);
}

TEST(KernelMemo, DisabledTableIsInert) {
  KernelMemo memo(/*enabled=*/false);
  EXPECT_FALSE(memo.enabled());
  const Value row[1] = {7};
  memo.InsertRow(0, row, 1, true);
  EXPECT_EQ(memo.LookupRow(0, row, 1), -1);
}

}  // namespace
}  // namespace lqdb
