// Unit tests for the kernel-class signature machinery and the concurrent
// verdict table (src/lqdb/eval/kernel_memo.h). The differential suite pins
// memo-on ≡ memo-off end to end; these tests pin the *reasons* it is sound,
// in particular the counterexample that rules out the naive
// "query-constant restriction + block sizes" signature.
#include "lqdb/eval/kernel_memo.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
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

// Concurrent readers and writers over a small key space; runs under the CI
// TSan job. Verdicts are a function of the key, so any interleaving must
// read either "absent" or the one correct verdict.
TEST(KernelMemo, ConcurrentLookupsAndInsertsAgree) {
  KernelMemo memo(/*enabled=*/true);
  const uint32_t sig = memo.InternSignature("sig");
  constexpr int kThreads = 4;
  constexpr Value kKeys = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memo, sig, t]() {
      for (int round = 0; round < 200; ++round) {
        for (Value v = 0; v < kKeys; ++v) {
          const Value row[2] = {v, static_cast<Value>(v + 1)};
          const int got = memo.LookupRow(sig, row, 2);
          const int want = (v % 2 == 0) ? 1 : 0;
          if (got != -1 && got != want) {
            ADD_FAILURE() << "key " << v << " read verdict " << got;
            return;
          }
          if ((round + t) % 3 == 0) {
            memo.InsertRow(sig, row, 2, v % 2 == 0);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (Value v = 0; v < kKeys; ++v) {
    const Value row[2] = {v, static_cast<Value>(v + 1)};
    EXPECT_EQ(memo.LookupRow(sig, row, 2), (v % 2 == 0) ? 1 : 0);
  }
}

// A sweep sizes its table from the candidate count: 34 candidates (the
// unary-head lqbench worlds) keep the minimum table, the 1,156 candidates
// of the E10 large binary-head chain get 2^19 buckets (about two rows per
// chain instead of sixty), and the cap is the entry cap.
TEST(KernelMemo, BucketCountFollowsTheCandidateCount) {
  EXPECT_EQ(KernelMemo::BucketsFor(0), KernelMemo::kMinBuckets);
  EXPECT_EQ(KernelMemo::BucketsFor(34), KernelMemo::kMinBuckets);
  EXPECT_EQ(KernelMemo::BucketsFor(1156), size_t{1} << 19);
  EXPECT_EQ(KernelMemo::BucketsFor(size_t{1} << 40),
            KernelMemo::kDefaultMaxEntries);
  EXPECT_EQ(KernelMemo(true, KernelMemo::kDefaultMaxEntries, 3000)
                .num_buckets(),
            size_t{4096});
  EXPECT_EQ(KernelMemo(false, KernelMemo::kDefaultMaxEntries, 3000)
                .num_buckets(),
            size_t{1});

  // The bucket count changes chain lengths, never a verdict.
  KernelMemo small(true, KernelMemo::kDefaultMaxEntries, 1);
  KernelMemo large(true, KernelMemo::kDefaultMaxEntries,
                   KernelMemo::BucketsFor(1156));
  const uint32_t sig = small.InternSignature("sig");
  ASSERT_EQ(large.InternSignature("sig"), sig);
  for (Value v = 0; v < 500; ++v) {
    const Value row[2] = {v, static_cast<Value>(v * 7 % 13)};
    if (v % 3 != 0) {
      small.InsertRow(sig, row, 2, v % 2 == 0);
      large.InsertRow(sig, row, 2, v % 2 == 0);
    }
  }
  for (Value v = 0; v < 500; ++v) {
    const Value row[2] = {v, static_cast<Value>(v * 7 % 13)};
    EXPECT_EQ(small.LookupRow(sig, row, 2), large.LookupRow(sig, row, 2));
    EXPECT_EQ(large.LookupRow(sig, row, 2),
              v % 3 == 0 ? -1 : (v % 2 == 0 ? 1 : 0));
  }

  // End to end: a binary head over 12 constants sweeps 144 candidates, a
  // table above the minimum; the answers match the memo-off sweep.
  ScenarioParams params;
  params.num_known = 10;
  params.facts_per_relation = 24;
  std::unique_ptr<CwDatabase> lb = MakeScenario(/*seed=*/3, params);
  ASSERT_GT(KernelMemo::BucketsFor(lb->num_constants() * lb->num_constants()),
            KernelMemo::kMinBuckets);
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery(lb->mutable_vocab(),
                          "(x, w) . exists y. exists z. R0(x, y) & R1(y, z) "
                          "& R0(z, w)"));
  ExactOptions on;
  ExactOptions off;
  off.memo = false;
  ExactEvaluator memo_on(lb.get(), on);
  ExactEvaluator memo_off(lb.get(), off);
  ASSERT_OK_AND_ASSIGN(Relation with_memo, memo_on.Answer(q));
  ASSERT_OK_AND_ASSIGN(Relation without_memo, memo_off.Answer(q));
  EXPECT_EQ(with_memo, without_memo);
  EXPECT_GT(memo_on.last_memo_counters().row_misses, 0u);
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
