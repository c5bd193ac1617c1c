// Set-up, the timed closed-loop phase and the answer check of one benchmark
// run.
#ifndef LQBENCH_RUN_H_
#define LQBENCH_RUN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/service/service.h"
#include "workload.h"

namespace lqbench {

/// A loaded world served by a service, one session per client.
struct Live {
  std::unique_ptr<lqdb::CwDatabase> db;
  std::unique_ptr<lqdb::Service> service;
  std::vector<std::shared_ptr<lqdb::Session>> sessions;
  /// Bit t set: the fact of `toggles[t]` is present in the loaded world.
  uint32_t initial_state = 0;
};

/// Loads the world through the text format, opens the service and the
/// client sessions and runs the warm pass. `*load_ns` gets the load time.
bool SetUp(const Workload& w, SpanLog* log, Live* live, int64_t* load_ns,
           std::string* error);

/// Executes a prepared read on `session` through the service's pool
/// (ExecuteAsync → get), as the shell does. Sets `*refused` when the
/// session turned the execution away.
lqdb::Result<lqdb::Relation> ExecuteHandle(lqdb::Session* session,
                                           lqdb::PreparedHandle handle,
                                           bool* refused);

/// One operation as the client saw it (`text` < 0: an update). Versions
/// bracket a read with `Service::db_version()` so the check can tell which
/// states it may have seen.
struct OpRecord {
  int32_t text = -1;
  bool ok = false;
  bool refused = false;
  double ms = 0;
  uint64_t answer = 0;
  uint64_t v0 = 0;
  uint64_t v1 = 0;
};

struct TimedResult {
  std::vector<std::vector<OpRecord>> records;  // per client
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  /// Toggle-state bits of every database version the phase produced.
  std::vector<uint32_t> version_state;
  lqdb::ServiceStats before;
  lqdb::ServiceStats after;
};

/// Runs every client's stream for `seconds` (closed loop: each client sends
/// its next operation when the previous one has completed). `logs`, when
/// non-null, holds one span log per client.
TimedResult RunTimed(const Workload& w, Live* live, double seconds,
                     std::vector<SpanLog>* logs,
                     std::atomic<uint32_t>* next_request);

struct CheckResult {
  size_t checked = 0;
  size_t wrong = 0;
  size_t references = 0;
  double seconds = 0;
  std::vector<std::string> examples;
};

/// Recomputes every distinct (text, database state) of the timed phase with
/// `batched-exact`, memo off, each state on a fresh copy of the world, and
/// compares every successful read with the reference of any state its
/// version bracket allows.
CheckResult CheckAnswers(const Workload& w, const TimedResult& timed,
                         uint32_t initial_state);

/// Fresh copy of the world with toggle state `state` (bits relative to the
/// loaded world, whose state is `initial_state`).
std::unique_ptr<lqdb::CwDatabase> WorldInState(const Workload& w,
                                               uint32_t initial_state,
                                               uint32_t state,
                                               std::string* error);

}  // namespace lqbench

#endif  // LQBENCH_RUN_H_
