// The builtin engine adapters: thin QueryEngine shims over the concrete
// evaluators, so every evaluation strategy in the library is reachable
// through one string-keyed API (shell, benches, differential harness).
#include <string>
#include <utility>

#include "lqdb/cwdb/ph.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/exact.h"

namespace lqdb {
namespace {

/// Common name/capability plumbing for the adapters below.
class EngineBase : public QueryEngine {
 public:
  EngineBase(std::string name, EngineCapabilities capabilities)
      : name_(std::move(name)), capabilities_(capabilities) {}

  const std::string& name() const override { return name_; }
  const EngineCapabilities& capabilities() const override {
    return capabilities_;
  }

 private:
  std::string name_;
  EngineCapabilities capabilities_;
};

/// The one Theorem 1 adapter behind every exact registry name; the name
/// only picks the sweep's parameters (`ExactSweep`).
class TheoremOneEngine : public EngineBase {
 public:
  TheoremOneEngine(std::string name, EngineCapabilities caps,
                   const CwDatabase* lb, const ExactOptions& options,
                   ExactSweep sweep, int threads)
      : EngineBase(std::move(name), caps),
        impl_(lb, options, sweep, threads) {}

  Result<Relation> Answer(const Query& query) override {
    return impl_.Answer(query);
  }
  Result<Relation> AnswerBound(const BoundQuery& bound) override {
    return impl_.AnswerBound(bound);
  }
  Result<bool> Contains(const Query& query, const Tuple& candidate) override {
    return impl_.Contains(query, candidate);
  }
  Result<Relation> PossibleAnswer(const Query& query) override {
    if (!capabilities().supports_possible) {
      return QueryEngine::PossibleAnswer(query);
    }
    return impl_.PossibleAnswer(query);
  }
  Result<Relation> PossibleAnswerBound(const BoundQuery& bound) override {
    if (!capabilities().supports_possible) {
      return QueryEngine::PossibleAnswerBound(bound);
    }
    return impl_.PossibleAnswerBound(bound);
  }
  uint64_t last_mappings_examined() const override {
    return impl_.last_mappings_examined();
  }
  KernelMemoCounters last_memo_counters() const override {
    return impl_.last_memo_counters();
  }

 private:
  ExactEvaluator impl_;
};

class ApproxQueryEngine : public EngineBase {
 public:
  ApproxQueryEngine(std::string name, EngineCapabilities caps,
                    std::unique_ptr<ApproxEvaluator> impl)
      : EngineBase(std::move(name), caps), impl_(std::move(impl)) {}

  Result<Relation> Answer(const Query& query) override {
    return impl_->Answer(query);
  }
  Result<bool> Contains(const Query& query, const Tuple& candidate) override {
    return impl_->Contains(query, candidate);
  }

 private:
  std::unique_ptr<ApproxEvaluator> impl_;
};

/// Naive evaluation over `Ph₁(LB)`: treats every null as a distinct fresh
/// value, so it is neither sound nor complete in the presence of unknowns —
/// registered as the baseline the paper's §1 example warns about. `Ph₁` is
/// rebuilt per call so constants interned after engine creation (e.g. while
/// parsing the query) are interpreted.
class PhysicalEngine : public EngineBase {
 public:
  PhysicalEngine(std::string name, EngineCapabilities caps,
                 const CwDatabase* lb, const EvalOptions& options)
      : EngineBase(std::move(name), caps), lb_(lb), options_(options) {}

  Result<Relation> Answer(const Query& query) override {
    PhysicalDatabase ph1 = MakePh1(*lb_);
    Evaluator eval(&ph1, options_);
    return eval.Answer(query);
  }

  Result<bool> Contains(const Query& query, const Tuple& candidate) override {
    if (candidate.size() != query.arity()) {
      return Status::InvalidArgument("candidate arity does not match query");
    }
    LQDB_ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(query));
    PhysicalDatabase ph1 = MakePh1(*lb_);
    Evaluator eval(&ph1, options_);
    std::vector<char> verdicts;
    LQDB_RETURN_IF_ERROR(
        eval.SatisfiesBatch(bound, candidate.data(), 1, &verdicts));
    return verdicts[0] != 0;
  }

 private:
  const CwDatabase* lb_;
  EvalOptions options_;
};

}  // namespace

void RegisterBuiltinEngines(EngineRegistry* registry) {
  auto must_register = [registry](std::string name, EngineCapabilities caps,
                                  EngineFactory factory) {
    Status s = registry->Register(std::move(name), caps, std::move(factory));
    (void)s;  // only fails on duplicate registration, which is idempotent
  };

  // The Theorem 1 engines. "exact" (and its alias "ra-exact") checks each
  // image with the query's compiled relational-algebra plan — measured
  // 1.5–10x faster than the batched Tarskian sweep on the E10 large-world
  // join rows — and silently takes the batched checker for queries outside
  // the compilable first-order fragment; "batched-exact" keeps the batched
  // checker for benches and ablations. "parallel-exact" is "exact" over
  // `EngineOptions::threads` workers; the others run on one. Brute's
  // possible answer is not part of its registered contract.
  struct TheoremOneName {
    const char* name;
    ExactSweep sweep;
    bool threaded;
    bool supports_possible;
  };
  const TheoremOneName kTheoremOne[] = {
      {"brute", ExactSweep::kBrute, false, false},
      {"exact", ExactSweep::kExact, false, true},
      {"ra-exact", ExactSweep::kExact, false, true},
      {"batched-exact", ExactSweep::kBatched, false, true},
      {"parallel-exact", ExactSweep::kExact, true, true},
  };
  for (const TheoremOneName& entry : kTheoremOne) {
    EngineCapabilities caps;
    caps.sound = true;
    caps.complete = true;
    caps.supports_possible = entry.supports_possible;
    must_register(
        entry.name, caps,
        [caps, entry](CwDatabase* lb, const EngineOptions& options)
            -> Result<std::unique_ptr<QueryEngine>> {
          // Checked before any pool exists: the count becomes OS threads.
          if (options.threads < 0 || options.threads > kMaxSweepThreads) {
            return Status::InvalidArgument(
                "threads must be in [0, " + std::to_string(kMaxSweepThreads) +
                "] (0 = hardware)");
          }
          return std::unique_ptr<QueryEngine>(new TheoremOneEngine(
              entry.name, caps, lb, options.exact, entry.sweep,
              entry.threaded ? options.threads : 1));
        });
  }
  {
    EngineCapabilities caps;
    caps.sound = true;
    caps.polynomial = true;
    caps.mutates_database = true;  // interns NE/α and snapshots Ph₂ in Make
    must_register(
        "approx", caps,
        [caps](CwDatabase* lb, const EngineOptions& options)
            -> Result<std::unique_ptr<QueryEngine>> {
          auto impl = ApproxEvaluator::Make(lb, options.approx);
          if (!impl.ok()) return impl.status();
          return std::unique_ptr<QueryEngine>(
              new ApproxQueryEngine("approx", caps, std::move(impl).value()));
        });
  }
  {
    EngineCapabilities caps;
    caps.polynomial = true;
    must_register(
        "physical", caps,
        [caps](CwDatabase* lb, const EngineOptions& options)
            -> Result<std::unique_ptr<QueryEngine>> {
          return std::unique_ptr<QueryEngine>(new PhysicalEngine(
              "physical", caps, lb, options.exact.eval));
        });
  }
}

}  // namespace lqdb
