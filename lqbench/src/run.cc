#include "run.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "lqdb/engine/engine.h"
#include "lqdb/io/text_format.h"
#include "lqdb/logic/parser.h"

namespace lqbench {

namespace {

using lqdb::CwDatabase;
using lqdb::Relation;
using lqdb::Result;
using lqdb::Status;

constexpr uint32_t kUnknownState = UINT32_MAX;

bool ToggleTuple(const CwDatabase& db, const Toggle& t, lqdb::PredId* pred,
                 lqdb::Tuple* tuple) {
  *pred = db.vocab().FindPredicate(t.pred);
  if (*pred == lqdb::Vocabulary::kNotFound) return false;
  tuple->clear();
  for (const std::string& n : t.names) {
    const lqdb::ConstId c = db.vocab().FindConstant(n);
    if (c == lqdb::Vocabulary::kNotFound) return false;
    tuple->push_back(c);
  }
  return true;
}

Result<Relation> ServeQuery(lqdb::Session* session, const std::string& text,
                            SpanLog* log, int32_t parent, uint32_t request,
                            bool* refused) {
  Result<lqdb::PreparedInfo> info = Status::Internal("not prepared");
  {
    ScopedSpan span(log, "service.prepare", parent, request);
    info = session->Prepare(text);
  }
  if (!info.ok()) return info.status();
  ScopedSpan span(log, "service.execute", parent, request);
  return ExecuteHandle(session, info->handle, refused);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set size of this process in MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

Result<Relation> ExecuteHandle(lqdb::Session* session,
                               lqdb::PreparedHandle handle, bool* refused) {
  Result<lqdb::AsyncExecution> exec = session->ExecuteAsync(handle);
  if (!exec.ok()) {
    *refused = exec.status().code() == lqdb::StatusCode::kResourceExhausted;
    return exec.status();
  }
  return exec->result.get();
}

bool SetUp(const Workload& w, SpanLog* log, Live* live, int64_t* load_ns,
           std::string* error) {
  {
    const int64_t t0 = NowNs();
    ScopedSpan span(log, "io.load", -1, 0);
    Result<std::unique_ptr<CwDatabase>> db =
        lqdb::ParseCwDatabase(w.world_text);
    if (!db.ok()) {
      *error = "load: " + db.status().ToString();
      return false;
    }
    live->db = std::move(*db);
    *load_ns = NowNs() - t0;
  }
  live->initial_state = 0;
  for (size_t t = 0; t < w.toggles.size(); ++t) {
    lqdb::PredId pred = 0;
    lqdb::Tuple tuple;
    if (!ToggleTuple(*live->db, w.toggles[t], &pred, &tuple)) {
      *error = "toggle fact names an unknown symbol";
      return false;
    }
    if (live->db->facts(pred).Contains(tuple)) live->initial_state |= 1u << t;
  }
  live->service = std::make_unique<lqdb::Service>(live->db.get());
  for (int c = 0; c < w.clients; ++c) {
    Result<std::shared_ptr<lqdb::Session>> s = live->service->OpenSession();
    if (!s.ok()) {
      *error = "open session: " + s.status().ToString();
      return false;
    }
    live->sessions.push_back(std::move(*s));
  }
  // Warm pass: every session builds its engine and the pool's threads run
  // before anything is timed.
  for (size_t i = 0; i < w.warm_texts.size(); ++i) {
    bool refused = false;
    lqdb::Session* session = live->sessions[i % live->sessions.size()].get();
    Result<Relation> r =
        ServeQuery(session, w.warm_texts[i], log, -1, 0, &refused);
    if (!r.ok()) {
      *error = "warm pass: " + r.status().ToString();
      return false;
    }
  }
  return true;
}

TimedResult RunTimed(const Workload& w, Live* live, double seconds,
                     std::vector<SpanLog>* logs,
                     std::atomic<uint32_t>* next_request) {
  TimedResult out;
  out.records.resize(static_cast<size_t>(w.clients));
  lqdb::Service& service = *live->service;

  std::mutex update_mu;  // orders flips so each version maps to one state
  uint32_t state = live->initial_state;
  const uint64_t start_version = service.db_version();
  out.version_state.assign(start_version + 1, kUnknownState);
  out.version_state[start_version] = state;

  out.before = service.stats();
  const double cpu0 = CpuSeconds();
  const int64_t t_start = NowNs();
  const int64_t deadline = t_start + static_cast<int64_t>(seconds * 1e9);

  auto client = [&](int c) {
    lqdb::Session* session = live->sessions[static_cast<size_t>(c)].get();
    const std::vector<Op>& stream = w.streams[static_cast<size_t>(c)];
    std::vector<OpRecord>& recs = out.records[static_cast<size_t>(c)];
    recs.reserve(1 << 16);
    SpanLog* log = logs != nullptr ? &(*logs)[static_cast<size_t>(c)] : nullptr;
    for (size_t i = 0; NowNs() < deadline; ++i) {
      // join-heavy never repeats a text within a run.
      if (w.distinct_texts && i >= stream.size()) break;
      const Op& op = stream[i % stream.size()];
      OpRecord r;
      r.text = op.text;
      const uint32_t request = next_request->fetch_add(1);
      if (op.text < 0) {
        const Toggle& t = w.toggles[static_cast<size_t>(op.toggle)];
        const uint32_t bit = 1u << op.toggle;
        const int64_t t0 = NowNs();
        {
          ScopedSpan root(log, "client.update", -1, request);
          std::lock_guard<std::mutex> lock(update_mu);
          Status st;
          {
            ScopedSpan span(log, "service.update", root.id(), request);
            st = (state & bit) ? service.Retract(t.pred, t.names)
                               : service.Assert(t.pred, t.names);
          }
          r.ok = st.ok();
          if (st.ok()) {
            state ^= bit;
            const uint64_t v = service.db_version();
            if (v >= out.version_state.size()) {
              out.version_state.resize(v + 1, kUnknownState);
            }
            out.version_state[v] = state;
          }
        }
        r.ms = NsToMs(NowNs() - t0);
      } else {
        r.v0 = service.db_version();
        Result<Relation> answer = Status::Internal("not run");
        const int64_t t0 = NowNs();
        {
          ScopedSpan root(log, "client.query", -1, request);
          answer = ServeQuery(session, w.texts[static_cast<size_t>(op.text)],
                              log, root.id(), request, &r.refused);
        }
        r.ms = NsToMs(NowNs() - t0);
        r.v1 = service.db_version();
        r.ok = answer.ok();
        if (answer.ok()) r.answer = AnswerHash(*answer);
      }
      recs.push_back(r);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  out.wall_s = static_cast<double>(NowNs() - t_start) / 1e9;
  out.cpu_s = CpuSeconds() - cpu0;
  out.peak_rss_mb = PeakRssMb();
  out.after = service.stats();
  return out;
}

std::unique_ptr<CwDatabase> WorldInState(const Workload& w,
                                         uint32_t initial_state,
                                         uint32_t state, std::string* error) {
  Result<std::unique_ptr<CwDatabase>> db = lqdb::ParseCwDatabase(w.world_text);
  if (!db.ok()) {
    *error = db.status().ToString();
    return nullptr;
  }
  for (size_t t = 0; t < w.toggles.size(); ++t) {
    if ((((state ^ initial_state) >> t) & 1u) == 0) continue;
    const bool want = ((state >> t) & 1u) != 0;
    lqdb::PredId pred = 0;
    lqdb::Tuple tuple;
    if (!ToggleTuple(**db, w.toggles[t], &pred, &tuple)) {
      *error = "toggle fact names an unknown symbol";
      return nullptr;
    }
    const Status st = want ? (*db)->AddFact(pred, tuple)
                           : (*db)->RemoveFact(pred, tuple);
    if (!st.ok()) {
      *error = st.ToString();
      return nullptr;
    }
  }
  return std::move(*db);
}

CheckResult CheckAnswers(const Workload& w, const TimedResult& timed,
                         uint32_t initial_state) {
  const int64_t t0 = NowNs();
  CheckResult out;
  auto state_of = [&](uint64_t v) {
    return v < timed.version_state.size() ? timed.version_state[v]
                                          : kUnknownState;
  };

  // Distinct (state, text) pairs any successful read may be judged against.
  // A reference is absent when the reference engine itself failed.
  std::map<std::pair<uint32_t, int32_t>, std::optional<uint64_t>> refs;
  for (const auto& recs : timed.records) {
    for (const OpRecord& r : recs) {
      if (r.text < 0 || !r.ok) continue;
      for (uint64_t v = r.v0; v <= r.v1; ++v) {
        const uint32_t s = state_of(v);
        if (s != kUnknownState) refs[{s, r.text}] = std::nullopt;
      }
    }
  }

  std::map<uint32_t, std::vector<std::pair<uint32_t, int32_t>>> by_state;
  for (const auto& [key, unused] : refs) by_state[key.first].push_back(key);

  const unsigned workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (const auto& [state, keys] : by_state) {
    std::string error;
    std::unique_ptr<CwDatabase> db =
        WorldInState(w, initial_state, state, &error);
    if (db == nullptr) {
      out.examples.push_back("reference world: " + error);
      continue;
    }
    // Parsing interns into the vocabulary, so it runs before the workers.
    std::vector<std::optional<lqdb::Query>> queries;
    for (const auto& key : keys) {
      Result<lqdb::Query> q = lqdb::ParseQuery(
          db->mutable_vocab(), w.texts[static_cast<size_t>(key.second)]);
      queries.push_back(q.ok() ? std::optional<lqdb::Query>(std::move(*q))
                               : std::nullopt);
    }
    lqdb::EngineOptions options;
    options.exact.memo = false;
    std::vector<std::unique_ptr<lqdb::QueryEngine>> engines;
    for (unsigned i = 0; i < workers; ++i) {
      Result<std::unique_ptr<lqdb::QueryEngine>> e =
          lqdb::EngineRegistry::Global().Create("batched-exact", db.get(),
                                                options);
      if (!e.ok()) {
        out.examples.push_back("reference engine: " + e.status().ToString());
        return out;
      }
      engines.push_back(std::move(*e));
    }
    std::vector<uint64_t> hashes(keys.size(), 0);
    std::vector<char> oks(keys.size(), 0);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < workers; ++i) {
      threads.emplace_back([&, i] {
        for (size_t j = next.fetch_add(1); j < keys.size();
             j = next.fetch_add(1)) {
          if (!queries[j].has_value()) continue;
          Result<Relation> a = engines[i]->Answer(*queries[j]);
          if (a.ok()) {
            hashes[j] = AnswerHash(*a);
            oks[j] = 1;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t j = 0; j < keys.size(); ++j) {
      if (oks[j]) refs[keys[j]] = hashes[j];
    }
  }
  out.references = refs.size();

  for (const auto& recs : timed.records) {
    for (const OpRecord& r : recs) {
      if (r.text < 0 || !r.ok) continue;
      ++out.checked;
      bool match = false;
      for (uint64_t v = r.v0; v <= r.v1 && !match; ++v) {
        auto it = refs.find({state_of(v), r.text});
        match = it != refs.end() && it->second == r.answer;
      }
      if (!match) {
        ++out.wrong;
        if (out.examples.size() < 5) {
          out.examples.push_back("answer differs from reference: " +
                                 w.texts[static_cast<size_t>(r.text)]);
        }
      }
    }
  }
  out.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return out;
}

}  // namespace lqbench
