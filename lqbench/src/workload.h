// The benchmark workloads: their worlds, query texts and per-client
// operation streams, all generated from the workload seed.
#ifndef LQBENCH_WORKLOAD_H_
#define LQBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lqdb/gen/scenario.h"

namespace lqbench {

/// A single-fact update the clients flip between asserted and retracted.
struct Toggle {
  std::string pred;
  std::vector<std::string> names;
};

/// One client operation: a read of `texts[text]`, or (text < 0) a flip of
/// `toggles[toggle]`.
struct Op {
  int32_t text = -1;
  int32_t toggle = -1;
};

struct Workload {
  std::string name;
  lqdb::ScenarioParams params;
  /// Closed-loop clients, one session and one thread each.
  int clients = 1;
  /// join-heavy: every text is distinct, and a client that runs out of
  /// texts stops rather than repeat one.
  bool distinct_texts = false;
  /// The serialized world; every set-up loads it through the text format.
  std::string world_text;
  size_t constants = 0;
  size_t facts = 0;
  uint64_t mappings = 0;
  std::vector<std::string> texts;
  /// Prepared and executed by the set-up's warm pass; none is timed.
  std::vector<std::string> warm_texts;
  std::vector<std::vector<Op>> streams;
  std::vector<Toggle> toggles;
  uint64_t world_digest = 0;
  uint64_t ops_digest = 0;
};

/// Builds workload `name`: a fixed world per workload (so that a run's
/// figures do not depend on which world a seed drew) and operation streams
/// from `seed`. False (with `*error`) for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out,
                  std::string* error);

}  // namespace lqbench

#endif  // LQBENCH_WORKLOAD_H_
