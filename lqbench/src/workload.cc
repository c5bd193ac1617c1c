#include "workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/io/text_format.h"
#include "lqdb/util/rng.h"

namespace lqbench {

namespace {

using lqdb::Rng;
using lqdb::ScenarioParams;

// Query bodies over the head variable x. join-heavy texts add
// `!(x = ka) & !(x = kb)` for a pair of known constants, which makes every
// text of a run distinct (so the result cache never serves one) while
// leaving the per-image work of the body nearly unchanged.
constexpr const char* kGuardedForall = "(forall y. R0(x, y) -> P0(y))";
constexpr const char* kTwoHop =
    "(exists y. exists z. R0(x, y) & R0(y, z) & P0(z))";
constexpr const char* kFiveConjunct =
    "(exists y. exists z. P0(x) & R0(x, y) & R1(y, z) & P1(z) & R0(z, x))";

// World seeds: the E10 large-world seed for join-heavy and the E11
// sparse-world seed for service-mix.
constexpr uint64_t kJoinWorldSeed = 7;
constexpr uint64_t kMixWorldSeed = 29;

// Operations pre-generated per service-mix client. A client that reaches
// the end wraps around; at the rates measured on a 4-core host a 60 s run
// uses about half of them.
constexpr size_t kMixStreamOps = size_t{1} << 16;
constexpr double kMixUpdateRate = 0.05;
constexpr double kMixZipfS = 1.0;

std::string Known(int i) { return "k" + std::to_string(i); }

/// join-heavy: each round runs the templates in `pattern` order, each text
/// with the next pair of distinct known constants from that template's
/// seeded shuffle, so the template mix is identical in every run and no
/// text repeats.
void DistinctTextStream(const std::vector<std::string>& bodies,
                        const std::vector<size_t>& pattern, int num_known,
                        Rng* rng, Workload* w) {
  std::vector<std::vector<std::pair<int, int>>> pairs(bodies.size());
  for (auto& list : pairs) {
    for (int a = 0; a < num_known; ++a) {
      for (int b = a + 1; b < num_known; ++b) list.emplace_back(a, b);
    }
    for (size_t i = list.size(); i > 1; --i) {
      std::swap(list[i - 1], list[rng->Below(i)]);
    }
  }
  std::vector<size_t> next(bodies.size(), 0);
  std::vector<Op> stream;
  for (bool more = true; more;) {
    for (size_t t : pattern) {
      if (next[t] == pairs[t].size()) {
        more = false;
        break;
      }
      const auto [a, b] = pairs[t][next[t]++];
      stream.push_back({static_cast<int32_t>(w->texts.size()), -1});
      w->texts.push_back("(x) . " + bodies[t] + " & !(x = " + Known(a) +
                         ") & !(x = " + Known(b) + ")");
    }
  }
  w->streams.push_back(std::move(stream));
  for (const std::string& body : bodies) {
    w->warm_texts.push_back("(x) . " + body);
  }
}

/// Service-mix: a fixed pool whose Zipf rank order alternates between
/// queries reading the toggled relations (P1, R1) and queries that do not,
/// so an update invalidates about half of the hot set in every run.
void MixStreams(int clients, uint64_t seed, Workload* w) {
  const std::vector<std::string> bodies = {
      "P0(x)",
      "P1(x)",
      "(exists y. R0(x, y))",
      "(exists y. R1(x, y))",
      "(forall y. R0(x, y) -> P0(y))",
      "(forall y. R1(x, y) -> P1(y))",
  };
  for (int c = 0; c < 4; ++c) {
    for (const std::string& body : bodies) {
      w->texts.push_back("(x) . " + body + " & !(x = " + Known(c) + ")");
    }
  }
  w->warm_texts = w->texts;

  std::vector<double> cdf;
  double total = 0;
  for (size_t r = 0; r < w->texts.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kMixZipfS);
    cdf.push_back(total);
  }
  for (int c = 0; c < clients; ++c) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(c) + 1);
    std::vector<Op> stream;
    stream.reserve(kMixStreamOps);
    for (size_t i = 0; i < kMixStreamOps; ++i) {
      if (rng.Chance(kMixUpdateRate)) {
        stream.push_back(
            {-1, static_cast<int32_t>(rng.Below(w->toggles.size()))});
        continue;
      }
      const double u = rng.NextDouble() * total;
      const size_t r = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      stream.push_back({static_cast<int32_t>(std::min(r, cdf.size() - 1)),
                        -1});
    }
    w->streams.push_back(std::move(stream));
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w,
                  std::string* error) {
  w->name = name;
  ScenarioParams& p = w->params;
  Rng rng(seed ^ 0x5bd1e995ull);
  uint64_t world_seed = 0;
  if (name == "join-heavy") {
    world_seed = kJoinWorldSeed;
    // Heavy images, few mappings: per-image RA execution and image build
    // carry nearly all of the work.
    p.num_known = 32;
    p.num_unknown = 2;
    p.facts_per_relation = 256;
  } else if (name == "service-mix") {
    // The E11 sparse world: millisecond misses, so the service's caches,
    // its reader/writer lock and the async pool dominate.
    world_seed = kMixWorldSeed;
    p.num_known = 32;
    p.num_unknown = 2;
    p.facts_per_relation = 8;
    p.unknown_ref_rate = 0.15;
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }

  std::unique_ptr<lqdb::CwDatabase> world = lqdb::MakeScenario(world_seed, p);
  w->world_text = lqdb::SerializeCwDatabase(*world);
  w->constants = world->num_constants();
  w->facts = world->NumFacts();
  w->mappings = lqdb::CountCanonicalMappings(*world);

  if (name == "join-heavy") {
    w->clients = 1;
    w->distinct_texts = true;
    // Twice as many two-hop texts as either neighbour in cost, so the
    // median read falls inside one template's latencies instead of on the
    // border between two.
    DistinctTextStream({kGuardedForall, kTwoHop, kFiveConjunct}, {0, 1, 2, 1},
                       p.num_known, &rng, w);
  } else {
    // Two sessions keep the reader/writer lock contended while leaving
    // half of a 4-core host's cores to the service's pool and the host;
    // with four, update latency moved by up to 0.30 of its median between
    // runs.
    w->clients = 2;
    w->toggles = {{"P1", {"k0"}}, {"R1", {"k0", "k1"}}};
    MixStreams(w->clients, seed, w);
  }

  w->world_digest = Fnv1a(w->world_text);
  uint64_t h = Fnv1a(name);
  for (const std::vector<Op>& stream : w->streams) {
    for (const Op& op : stream) {
      if (op.text >= 0) {
        h = Fnv1a(w->texts[static_cast<size_t>(op.text)], h);
      } else {
        const Toggle& t = w->toggles[static_cast<size_t>(op.toggle)];
        h = Fnv1a("!" + t.pred, h);
        for (const std::string& n : t.names) h = Fnv1a(n, h);
      }
    }
    h = Fnv1a("|", h);
  }
  w->ops_digest = h;
  return true;
}

}  // namespace lqbench
