/// Exhaustive equivalence tests for the splittable restricted-growth-string
/// enumerator: over *all* databases with |C| ≤ 6 (every known/unknown split)
/// and assorted explicit uniqueness-axiom sets, the union of the split
/// ranges must visit exactly the canonical representatives of the
/// sequential walk — set-equal and count-equal, with pairwise-disjoint
/// ranges. This is the invariant the parallel exact engine rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/logic/parser.h"
#include "lqdb/util/rng.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

/// A database with `known` known and `unknown` unknown constants plus a
/// seeded random set of explicit uniqueness axioms (seed 0 = none).
std::unique_ptr<CwDatabase> MakeDb(int known, int unknown, uint64_t seed) {
  auto lb = std::make_unique<CwDatabase>();
  for (int i = 0; i < unknown; ++i) {
    lb->AddUnknownConstant("U" + std::to_string(i));
  }
  for (int i = 0; i < known; ++i) {
    lb->AddKnownConstant("K" + std::to_string(i));
  }
  if (seed != 0) {
    Rng rng(seed);
    const ConstId n = static_cast<ConstId>(lb->num_constants());
    for (ConstId a = 0; a < n; ++a) {
      for (ConstId b = a + 1; b < n; ++b) {
        if (lb->IsKnown(a) && lb->IsKnown(b)) continue;  // already implicit
        if (rng.Chance(0.35)) {
          Status s = lb->AddDistinct(a, b);
          (void)s;
        }
      }
    }
  }
  return lb;
}

std::set<ConstMapping> CollectSequential(const CwDatabase& lb,
                                         uint64_t* count) {
  std::set<ConstMapping> seen;
  *count = ForEachCanonicalMapping(lb, [&](const ConstMapping& h) {
    EXPECT_TRUE(seen.insert(h).second) << "sequential walk repeated a "
                                          "canonical representative";
    return true;
  });
  return seen;
}

/// Core check: for every requested split granularity, the ranges jointly
/// visit the sequential set exactly once.
void CheckSplitsCoverSequential(const CwDatabase& lb) {
  uint64_t sequential_count = 0;
  const std::set<ConstMapping> sequential =
      CollectSequential(lb, &sequential_count);
  EXPECT_EQ(sequential.size(), sequential_count);
  EXPECT_EQ(sequential_count, CountCanonicalMappings(lb));

  for (size_t min_ranges : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                            size_t{8}, size_t{16}, size_t{64}}) {
    const std::vector<MappingRange> ranges =
        SplitCanonicalMappingSpace(lb, min_ranges);
    ASSERT_FALSE(ranges.empty());
    if (min_ranges == 1) EXPECT_EQ(ranges.size(), 1u);

    std::set<ConstMapping> visited;
    uint64_t total = 0;
    for (const MappingRange& range : ranges) {
      total += ForEachCanonicalMappingInRange(
          lb, range, [&](const ConstMapping& h) {
            EXPECT_TRUE(RespectsUniqueness(lb, h));
            EXPECT_TRUE(visited.insert(h).second)
                << "ranges overlap (min_ranges=" << min_ranges << ")";
            return true;
          });
    }
    EXPECT_EQ(total, sequential_count) << "min_ranges=" << min_ranges;
    EXPECT_EQ(visited, sequential) << "min_ranges=" << min_ranges;
  }
}

TEST(MappingEnumeratorTest, SplitsCoverAllDatabasesUpTo6Constants) {
  for (int n = 1; n <= 6; ++n) {
    for (int unknown = 0; unknown <= n; ++unknown) {
      for (uint64_t seed : {uint64_t{0}, uint64_t{7}, uint64_t{41}}) {
        auto lb = MakeDb(n - unknown, unknown, seed);
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " unknown=" + std::to_string(unknown) +
                     " seed=" + std::to_string(seed));
        CheckSplitsCoverSequential(*lb);
      }
    }
  }
}

TEST(MappingEnumeratorTest, AllUnknownCountsAreBellNumbers) {
  // With no uniqueness axioms the NE-avoiding partitions are all set
  // partitions: B(1..6) = 1, 2, 5, 15, 52, 203.
  const uint64_t bell[] = {1, 2, 5, 15, 52, 203};
  for (int n = 1; n <= 6; ++n) {
    auto lb = MakeDb(0, n, /*seed=*/0);
    EXPECT_EQ(CountCanonicalMappings(*lb), bell[n - 1]) << "n=" << n;
  }
}

TEST(MappingEnumeratorTest, FullySpecifiedHasOnlyIdentity) {
  // All-known constants are pairwise distinct: the identity partition is
  // the only NE-avoiding one, and no split can manufacture more ranges
  // than partitions.
  auto lb = MakeDb(5, 0, /*seed=*/0);
  EXPECT_EQ(CountCanonicalMappings(*lb), 1u);
  const std::vector<MappingRange> ranges =
      SplitCanonicalMappingSpace(*lb, 16);
  uint64_t total = 0;
  for (const MappingRange& range : ranges) {
    total += ForEachCanonicalMappingInRange(
        *lb, range, [&](const ConstMapping& h) {
          EXPECT_EQ(h, IdentityMapping(lb->num_constants()));
          return true;
        });
  }
  EXPECT_EQ(total, 1u);
}

TEST(MappingEnumeratorTest, RangeWalkHonorsVisitorStop) {
  auto lb = MakeDb(0, 5, /*seed=*/0);  // 52 partitions
  const std::vector<MappingRange> ranges =
      SplitCanonicalMappingSpace(*lb, 4);
  ASSERT_GE(ranges.size(), 4u);
  // Stop after the first visit of the first range: the returned count is
  // the number visited, not the range size.
  uint64_t visited = ForEachCanonicalMappingInRange(
      *lb, ranges[0], [&](const ConstMapping&) { return false; });
  EXPECT_EQ(visited, 1u);
}

TEST(MappingEnumeratorTest, SplitIsDeterministic) {
  auto lb = MakeDb(2, 3, /*seed=*/7);
  const auto a = SplitCanonicalMappingSpace(*lb, 8);
  const auto b = SplitCanonicalMappingSpace(*lb, 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].rgs, b[i].rgs);
}

TEST(MappingEnumeratorTest, ChunkedWalkCoversSpaceForAnyBudget) {
  // Repeatedly walking a work-list of ranges with a tiny budget and pushing
  // the donated remainders back must reconstruct the full space exactly
  // once — the invariant the parallel engine's work-stealing queue rests
  // on, for every budget and every database shape.
  for (int n = 1; n <= 6; ++n) {
    for (int unknown : {n / 2, n}) {
      for (uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
        auto lb = MakeDb(n - unknown, unknown, seed);
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " unknown=" + std::to_string(unknown) +
                     " seed=" + std::to_string(seed));
        uint64_t sequential_count = 0;
        const std::set<ConstMapping> sequential =
            CollectSequential(*lb, &sequential_count);
        for (uint64_t budget : {uint64_t{1}, uint64_t{2}, uint64_t{3},
                                uint64_t{7}, uint64_t{1000}}) {
          std::vector<MappingRange> work = {MappingRange{}};
          std::set<ConstMapping> visited;
          uint64_t total = 0;
          while (!work.empty()) {
            MappingRange range = std::move(work.back());
            work.pop_back();
            std::vector<MappingRange> remainder;
            total += ForEachCanonicalMappingChunk(
                *lb, range, budget,
                [&](const ConstMapping& h) {
                  EXPECT_TRUE(visited.insert(h).second)
                      << "chunked walk repeated a representative (budget="
                      << budget << ")";
                  return true;
                },
                &remainder);
            for (MappingRange& r : remainder) work.push_back(std::move(r));
          }
          EXPECT_EQ(total, sequential_count) << "budget=" << budget;
          EXPECT_EQ(visited, sequential) << "budget=" << budget;
        }
      }
    }
  }
}

TEST(MappingEnumeratorTest, ChunkBudgetBoundsTheVisitCount) {
  auto lb = MakeDb(0, 5, /*seed=*/0);  // 52 partitions
  std::vector<MappingRange> remainder;
  uint64_t visited = ForEachCanonicalMappingChunk(
      *lb, MappingRange{}, /*budget=*/10,
      [](const ConstMapping&) { return true; }, &remainder);
  EXPECT_EQ(visited, 10u);
  ASSERT_FALSE(remainder.empty());
  // The donated remainder covers exactly the other 42.
  uint64_t rest = 0;
  for (const MappingRange& range : remainder) {
    rest += ForEachCanonicalMappingInRange(
        *lb, range, [](const ConstMapping&) { return true; });
  }
  EXPECT_EQ(rest, 42u);
}

TEST(MappingEnumeratorTest, ChunkVisitorStopDiscardsRemainder) {
  // An early exit abandons the whole enumeration: nothing may be donated.
  auto lb = MakeDb(0, 4, /*seed=*/0);
  std::vector<MappingRange> remainder;
  uint64_t visited = ForEachCanonicalMappingChunk(
      *lb, MappingRange{}, /*budget=*/0,
      [](const ConstMapping&) { return false; }, &remainder);
  EXPECT_EQ(visited, 1u);
  EXPECT_TRUE(remainder.empty());
}

TEST(MappingEnumeratorTest, ApplyMappingIntoMatchesApplyMapping) {
  // Scratch reuse must produce byte-identical image databases even when
  // the scratch previously held a *different* mapping's image (stale
  // relations/domain must not leak through).
  auto lb = MakeDb(2, 3, /*seed=*/41);
  PredId p = lb->AddPredicate("P", 1).value();
  PredId r = lb->AddPredicate("R", 2).value();
  ASSERT_OK(lb->AddFact(p, {0}));
  ASSERT_OK(lb->AddFact(r, {1, 3}));
  ASSERT_OK(lb->AddFact(r, {2, 2}));

  PhysicalDatabase scratch(&lb->vocab());
  ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
    PhysicalDatabase fresh = ApplyMapping(*lb, h);
    ApplyMappingInto(*lb, h, &scratch);
    EXPECT_EQ(fresh.domain(), scratch.domain());
    for (ConstId c = 0; c < lb->num_constants(); ++c) {
      EXPECT_EQ(fresh.ConstantValue(c), scratch.ConstantValue(c));
    }
    for (PredId pred : {p, r}) {
      EXPECT_EQ(fresh.relation(pred), scratch.relation(pred))
          << "pred " << pred;
    }
    return true;
  });
}

/// Two unknowns `u0, u1` and three knowns `k0, k1, k2`, declared unknowns
/// first (the order the text format loads) or knowns first, with `u0 ≠ u1`
/// and facts over both kinds. `R(u0, k1)` under `u0 → k0` equals the fixed
/// fact `R(k0, k1)`.
std::unique_ptr<CwDatabase> MakeFactWorld(bool unknowns_first) {
  auto lb = std::make_unique<CwDatabase>();
  auto unknowns = [&] {
    lb->AddUnknownConstant("u0");
    lb->AddUnknownConstant("u1");
  };
  auto knowns = [&] {
    for (const char* k : {"k0", "k1", "k2"}) lb->AddKnownConstant(k);
  };
  if (unknowns_first) {
    unknowns();
    knowns();
  } else {
    knowns();
    unknowns();
  }
  EXPECT_OK(lb->AddDistinct("u0", "u1"));
  EXPECT_TRUE(lb->AddPredicate("P", 1).ok());
  EXPECT_TRUE(lb->AddPredicate("R", 2).ok());
  for (const std::vector<std::string_view>& fact :
       std::vector<std::vector<std::string_view>>{
           {"P", "u0"}, {"P", "k0"}, {"R", "k0", "k1"}, {"R", "u0", "k1"},
           {"R", "k1", "k2"}, {"R", "u1", "u0"}, {"R", "u1", "u1"},
           {"R", "k2", "u1"}}) {
    EXPECT_OK(lb->AddFact(fact[0], {fact.begin() + 1, fact.end()}));
  }
  return lb;
}

/// Checks that the builder's image is `ApplyMapping(lb, h)` up to the
/// bijection from the blocks of `h` to the labels of `image.relabeled()`:
/// the same domain, constants and relations once every label is mapped
/// back to the value `h` gives its block. Also checks that the labels are
/// block members and that every known constant labels itself. With a read
/// set (`reads` non-null) only those relations are compared; every other
/// relation of the image must be empty.
void ExpectIsomorphicImage(const CwDatabase& lb, const ConstMapping& h,
                           const MappingImage& image,
                           const std::vector<PredId>* reads = nullptr) {
  const ConstMapping& hr = image.relabeled();
  ASSERT_EQ(hr.size(), h.size());
  std::map<Value, Value> back;     // label → h-value
  std::map<Value, Value> forward;  // h-value → label
  for (ConstId c = 0; c < h.size(); ++c) {
    EXPECT_EQ(back.emplace(hr[c], h[c]).first->second, h[c]);
    EXPECT_EQ(forward.emplace(h[c], hr[c]).first->second, hr[c]);
    EXPECT_EQ(h[hr[c]], h[c]) << "label is not a block member";
    if (lb.IsKnown(c)) EXPECT_EQ(hr[c], c) << "known constant relabeled";
  }

  const PhysicalDatabase ref = ApplyMapping(lb, h);
  const PhysicalDatabase& got = image.db();
  ASSERT_EQ(got.domain_size(), ref.domain_size());
  for (Value v : got.domain()) EXPECT_TRUE(ref.InDomain(back.at(v)));
  for (ConstId c = 0; c < h.size(); ++c) {
    EXPECT_EQ(back.at(got.ConstantValue(c)), ref.ConstantValue(c));
  }
  for (PredId pred = 0; pred < lb.vocab().num_predicates(); ++pred) {
    const Relation& rel = got.relation(pred);
    if (reads != nullptr &&
        std::find(reads->begin(), reads->end(), pred) == reads->end()) {
      EXPECT_TRUE(rel.empty()) << "pred " << pred << " is not read";
      continue;
    }
    Relation mapped(rel.arity());
    for (const Tuple& t : rel.tuples()) {
      Tuple u(t.size());
      for (size_t i = 0; i < t.size(); ++i) u[i] = back.at(t[i]);
      mapped.Insert(std::move(u));
    }
    EXPECT_EQ(rel.size(), mapped.size());
    EXPECT_EQ(mapped, ref.relation(pred)) << "pred " << pred;
  }
}

TEST(MappingImageTest, IsomorphicToApplyMappingOnEveryMapping) {
  for (bool unknowns_first : {true, false}) {
    SCOPED_TRACE(unknowns_first ? "unknowns first" : "knowns first");
    auto lb = MakeFactWorld(unknowns_first);
    // One builder per enumeration, reused across all of its mappings.
    MappingImage canonical(*lb);
    uint64_t count = ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
      EXPECT_OK(canonical.Build(h));
      ExpectIsomorphicImage(*lb, h, canonical);
      return true;
    });
    EXPECT_GT(count, 1u);
    MappingImage brute(*lb);
    count = ForEachMapping(*lb, [&](const ConstMapping& h) {
      EXPECT_OK(brute.Build(h));
      ExpectIsomorphicImage(*lb, h, brute);
      return true;
    });
    EXPECT_GT(count, 1u);
  }
}

TEST(MappingImageTest, ReadSetImageIsTheFullImageRestrictedToIt) {
  for (bool unknowns_first : {true, false}) {
    SCOPED_TRACE(unknowns_first ? "unknowns first" : "knowns first");
    auto lb = MakeFactWorld(unknowns_first);
    const PredId p = lb->vocab().FindPredicate("P");
    const PredId r = lb->vocab().FindPredicate("R");
    for (const std::vector<PredId>& reads :
         {std::vector<PredId>{}, std::vector<PredId>{p},
          std::vector<PredId>{r}, std::vector<PredId>{std::min(p, r),
                                                      std::max(p, r)}}) {
      SCOPED_TRACE("reads " + std::to_string(reads.size()) + " relations");
      MappingImage image(*lb, reads);
      uint64_t count = ForEachMapping(*lb, [&](const ConstMapping& h) {
        EXPECT_OK(image.Build(h));
        ExpectIsomorphicImage(*lb, h, image, &reads);
        return true;
      });
      EXPECT_GT(count, 1u);
    }
  }
}

TEST(MappingImageTest, VolatileRowEqualToFixedRowSurvivesTheErase) {
  auto lb = MakeFactWorld(/*unknowns_first=*/true);
  const ConstId u0 = lb->vocab().FindConstant("u0");
  const ConstId k0 = lb->vocab().FindConstant("k0");
  const ConstId k1 = lb->vocab().FindConstant("k1");
  const PredId r = lb->vocab().FindPredicate("R");
  ConstMapping merged = IdentityMapping(lb->num_constants());
  merged[k0] = u0;  // the block {u0, k0}, labeled k0
  MappingImage image(*lb);
  ASSERT_OK(image.Build(merged));
  EXPECT_EQ(image.relabeled()[u0], k0);
  // Back to the identity: the erase of the previous build's rows must keep
  // the stored R(k0, k1), which the merged image also produced from
  // R(u0, k1).
  ASSERT_OK(image.Build(IdentityMapping(lb->num_constants())));
  EXPECT_TRUE(image.db().relation(r).Contains({k0, k1}));
  EXPECT_TRUE(image.db().relation(r).Contains({u0, k1}));
  ExpectIsomorphicImage(*lb, IdentityMapping(lb->num_constants()), image);
}

TEST(MappingImageTest, ReuseAfterASkippedImage) {
  // The sweep skips the build when the memo serves every verdict; the next
  // build starts from the last image actually built.
  auto lb = MakeFactWorld(/*unknowns_first=*/true);
  std::vector<ConstMapping> mappings;
  ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
    mappings.push_back(h);
    return true;
  });
  ASSERT_GE(mappings.size(), 3u);
  MappingImage image(*lb);
  for (size_t i = 0; i < mappings.size(); i += 2) {
    ASSERT_OK(image.Build(mappings[i]));
    ExpectIsomorphicImage(*lb, mappings[i], image);
  }
}

TEST(MappingImageTest, UnknownQueryConstantEvaluatesThroughTheLabels) {
  // A query constant is interpreted by the image's constant assignment,
  // which the builder sets to the labels: answers mapped back through the
  // bijection match the full rebuild's.
  for (bool unknowns_first : {true, false}) {
    SCOPED_TRACE(unknowns_first ? "unknowns first" : "knowns first");
    auto lb = MakeFactWorld(unknowns_first);
    ASSERT_OK_AND_ASSIGN(
        Query q, ParseQuery(lb->mutable_vocab(), "(x) . R(x, u0) | P(u1)"));
    MappingImage image(*lb);
    ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
      EXPECT_OK(image.Build(h));
      std::map<Value, Value> back;
      for (ConstId c = 0; c < h.size(); ++c) back[image.relabeled()[c]] = h[c];
      const PhysicalDatabase ref_db = ApplyMapping(*lb, h);
      Result<Relation> ref = Evaluator(&ref_db).Answer(q);
      Result<Relation> got = Evaluator(&image.db()).Answer(q);
      EXPECT_OK(ref.status());
      EXPECT_OK(got.status());
      if (!ref.ok() || !got.ok()) return false;
      Relation mapped(1);
      for (const Tuple& t : got->tuples()) mapped.Insert({back.at(t[0])});
      EXPECT_EQ(mapped, *ref);
      return true;
    });
  }
}

TEST(MappingImageTest, MergingTwoKnownConstantsFailsClosed) {
  auto lb = MakeFactWorld(/*unknowns_first=*/true);
  const ConstId k0 = lb->vocab().FindConstant("k0");
  const ConstId k1 = lb->vocab().FindConstant("k1");
  ConstMapping bad = IdentityMapping(lb->num_constants());
  bad[k1] = k0;
  ASSERT_FALSE(RespectsUniqueness(*lb, bad));
  MappingImage image(*lb);
  ASSERT_OK(image.Build(IdentityMapping(lb->num_constants())));
  EXPECT_EQ(image.Build(bad).code(), StatusCode::kInternal);
  // So does a mapping that is not a map C → C.
  bad = IdentityMapping(lb->num_constants());
  bad.back() = static_cast<ConstId>(lb->num_constants());
  EXPECT_EQ(image.Build(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(image.Build(IdentityMapping(2)).code(),
            StatusCode::kInvalidArgument);
  // The failed builds left the previous image in place.
  ExpectIsomorphicImage(*lb, IdentityMapping(lb->num_constants()), image);
}

}  // namespace
}  // namespace lqdb
