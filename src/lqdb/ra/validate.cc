#include "lqdb/ra/validate.h"

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace lqdb {

namespace {

const char* KindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan: return "Scan";
    case PlanKind::kConstTuples: return "Const";
    case PlanKind::kConstCompare: return "ConstCompare";
    case PlanKind::kDomainScan: return "DomainScan";
    case PlanKind::kEqDomain: return "EqDomain";
    case PlanKind::kJoin: return "Join";
    case PlanKind::kAntiJoin: return "AntiJoin";
    case PlanKind::kSemiJoin: return "SemiJoin";
    case PlanKind::kUnion: return "Union";
    case PlanKind::kProject: return "Project";
    case PlanKind::kParam: return "Param";
  }
  return "?";
}

bool SchemasIntersect(const std::vector<VarId>& a,
                      const std::vector<VarId>& b) {
  for (VarId x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

/// The whole validation pass over one plan DAG; see validate.h for the
/// checks. Every phase memoizes per distinct node, so shared subplans are
/// visited once and the pass stays linear in the DAG size.
class Validator {
 public:
  explicit Validator(const PlanValidateOptions& options)
      : options_(options) {}

  Status Run(const PlanPtr& root) {
    LQDB_RETURN_IF_ERROR(CheckNode(root.get()));
    if (options_.max_unique_nodes > 0 &&
        checked_.size() > options_.max_unique_nodes) {
      return Status::InvalidArgument(
          "plan validation: " + std::to_string(checked_.size()) +
          " distinct nodes exceed the sharing bound of " +
          std::to_string(options_.max_unique_nodes) +
          " (duplicated desugar subtrees?)");
    }
    LQDB_RETURN_IF_ERROR(CheckJoinTrees(root.get()));
    LQDB_RETURN_IF_ERROR(CheckParamSites(root.get(), /*pushable=*/true));
    if (options_.param != nullptr && param_seen_ == nullptr) {
      return Status::InvalidArgument(
          "plan validation: expected a param relation but the plan "
          "contains none");
    }
    return Status::OK();
  }

 private:
  std::string Label(const Plan* node) const {
    if (options_.vocab != nullptr) return node->NodeLabel(*options_.vocab);
    return KindName(node->kind());
  }

  Status NodeError(const Plan* node, const std::string& what) const {
    return Status::InvalidArgument("plan validation: " + what + " at node '" +
                                   Label(node) + "'");
  }

  // -- Phase 1: per-node schema/attribute checks, cycle detection --------

  Status CheckNode(const Plan* node) {
    if (node == nullptr) {
      return Status::InvalidArgument("plan validation: null plan node");
    }
    if (checked_.count(node) > 0) return Status::OK();
    if (!on_stack_.insert(node).second) {
      return NodeError(node, "cycle in the plan graph");
    }
    for (const PlanPtr& child : node->children()) {
      LQDB_RETURN_IF_ERROR(CheckNode(child.get()));
    }
    on_stack_.erase(node);
    LQDB_RETURN_IF_ERROR(CheckNodeLocal(node));
    checked_.insert(node);
    return Status::OK();
  }

  Status CheckDistinct(const Plan* node, const std::vector<VarId>& schema) {
    std::set<VarId> seen;
    for (VarId v : schema) {
      if (!seen.insert(v).second) {
        return NodeError(node, "duplicate attribute v" + std::to_string(v) +
                                   " in output schema");
      }
    }
    return Status::OK();
  }

  Status CheckConstant(const Plan* node, ConstId c) {
    if (options_.vocab != nullptr && c >= options_.vocab->num_constants()) {
      return NodeError(node, "constant id " + std::to_string(c) +
                                 " out of vocabulary range");
    }
    return Status::OK();
  }

  Status CheckNodeLocal(const Plan* node) {
    const std::vector<VarId>& schema = node->schema();
    switch (node->kind()) {
      case PlanKind::kScan: {
        if (options_.vocab != nullptr) {
          if (node->pred() >= options_.vocab->num_predicates()) {
            return NodeError(node, "scan of unknown predicate id " +
                                       std::to_string(node->pred()));
          }
          const size_t arity = static_cast<size_t>(
              options_.vocab->PredicateArity(node->pred()));
          if (node->scan_columns().size() != arity) {
            return NodeError(
                node, "scan has " +
                          std::to_string(node->scan_columns().size()) +
                          " columns but the predicate has arity " +
                          std::to_string(arity));
          }
        }
        // The schema must list exactly the distinct column variables in
        // first-occurrence order.
        std::vector<VarId> expect;
        for (const Term& t : node->scan_columns()) {
          if (t.is_constant()) {
            LQDB_RETURN_IF_ERROR(CheckConstant(node, t.constant()));
            continue;
          }
          if (std::find(expect.begin(), expect.end(), t.var()) ==
              expect.end()) {
            expect.push_back(t.var());
          }
        }
        if (schema != expect) {
          return NodeError(node,
                           "scan schema does not match its column variables");
        }
        return Status::OK();
      }
      case PlanKind::kConstTuples: {
        LQDB_RETURN_IF_ERROR(CheckDistinct(node, schema));
        for (const std::vector<ConstId>& row : node->rows()) {
          if (row.size() != schema.size()) {
            return NodeError(node, "literal row width " +
                                       std::to_string(row.size()) +
                                       " differs from schema width " +
                                       std::to_string(schema.size()));
          }
          for (ConstId c : row) LQDB_RETURN_IF_ERROR(CheckConstant(node, c));
        }
        return Status::OK();
      }
      case PlanKind::kConstCompare:
        if (!schema.empty()) {
          return NodeError(node, "constant comparison must have arity 0");
        }
        LQDB_RETURN_IF_ERROR(CheckConstant(node, node->compare_lhs()));
        return CheckConstant(node, node->compare_rhs());
      case PlanKind::kDomainScan:
        if (schema.size() != 1) {
          return NodeError(node, "domain scan must have exactly one attribute");
        }
        return Status::OK();
      case PlanKind::kEqDomain:
        if (schema.size() != 2 || schema[0] == schema[1]) {
          return NodeError(node,
                           "EqDomain needs two distinct attributes");
        }
        return Status::OK();
      case PlanKind::kJoin: {
        // Natural join: left's attributes, then right's new ones in order.
        std::vector<VarId> expect = node->left()->schema();
        for (VarId v : node->right()->schema()) {
          if (std::find(expect.begin(), expect.end(), v) == expect.end()) {
            expect.push_back(v);
          }
        }
        if (schema != expect) {
          return NodeError(
              node, "join schema is not the union of its children's");
        }
        return CheckDistinct(node, schema);
      }
      case PlanKind::kAntiJoin:
      case PlanKind::kSemiJoin: {
        if (schema != node->left()->schema()) {
          return NodeError(node,
                           "anti/semijoin must keep exactly the left schema");
        }
        // Both operators filter the left rows on the shared columns; the
        // compiler pads the left side first, so a right-only attribute is
        // a mis-built plan (it would be silently ignored).
        const std::vector<VarId>& left = node->left()->schema();
        for (VarId v : node->right()->schema()) {
          if (std::find(left.begin(), left.end(), v) == left.end()) {
            return NodeError(node, "right attribute v" + std::to_string(v) +
                                       " is dangling: the left child never "
                                       "produces it");
          }
        }
        return Status::OK();
      }
      case PlanKind::kUnion: {
        const std::vector<VarId>& l = node->left()->schema();
        const std::vector<VarId>& r = node->right()->schema();
        if (std::set<VarId>(l.begin(), l.end()) !=
            std::set<VarId>(r.begin(), r.end())) {
          return NodeError(node,
                           "union children carry different attribute sets");
        }
        if (schema != l) {
          return NodeError(node, "union schema must be its left child's");
        }
        return CheckDistinct(node, schema);
      }
      case PlanKind::kProject: {
        LQDB_RETURN_IF_ERROR(CheckDistinct(node, schema));
        if (node->child()->kind() == PlanKind::kProject) {
          return NodeError(node, "projection directly over a projection "
                                 "(the factory collapses π_a ∘ π_b to π_a)");
        }
        const std::vector<VarId>& child = node->child()->schema();
        for (VarId v : schema) {
          if (std::find(child.begin(), child.end(), v) == child.end()) {
            return NodeError(node, "projected attribute v" +
                                       std::to_string(v) +
                                       " is dangling: the child never "
                                       "produces it");
          }
        }
        return Status::OK();
      }
      case PlanKind::kParam:
        return CheckDistinct(node, schema);
    }
    return NodeError(node, "unknown operator kind");
  }

  // -- Phase 2: never-cross-product within every maximal join tree -------

  /// The flattened operand set of `node` viewed as a join tree: descends
  /// through kJoin children only; every non-join node reached is one
  /// operand (deduplicated by identity for shared subplans).
  const std::vector<const Plan*>& OperandsOf(const Plan* node) {
    auto it = operands_.find(node);
    if (it != operands_.end()) return it->second;
    std::vector<const Plan*> out;
    if (node->kind() != PlanKind::kJoin) {
      out.push_back(node);
    } else {
      for (const Plan* side : {node->left().get(), node->right().get()}) {
        for (const Plan* op : OperandsOf(side)) {
          if (std::find(out.begin(), out.end(), op) == out.end()) {
            out.push_back(op);
          }
        }
      }
    }
    return operands_.emplace(node, std::move(out)).first->second;
  }

  /// Checks every kJoin inside the maximal join tree rooted at `root`
  /// against the operand connectivity components of the *whole* tree.
  Status CheckJoinTree(const Plan* root) {
    const std::vector<const Plan*>& ops = OperandsOf(root);
    // Union-find over operand indices; adjacency = schemas intersect.
    std::vector<size_t> parent(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) parent[i] = i;
    std::function<size_t(size_t)> find = [&](size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t j = i + 1; j < ops.size(); ++j) {
        if (SchemasIntersect(ops[i]->schema(), ops[j]->schema())) {
          parent[find(i)] = find(j);
        }
      }
    }
    std::unordered_map<const Plan*, size_t> comp_of;
    std::vector<size_t> comp_size(ops.size(), 0);
    for (size_t i = 0; i < ops.size(); ++i) {
      comp_of[ops[i]] = find(i);
      ++comp_size[find(i)];
    }

    // A side of a cross join is acceptable iff it is a union of complete
    // components: count, per component, how many of its operands the side
    // holds, and require all-or-nothing.
    auto complete_components = [&](const std::vector<const Plan*>& side) {
      std::unordered_map<size_t, size_t> held;
      for (const Plan* op : side) ++held[comp_of[op]];
      for (const auto& [comp, count] : held) {
        if (count != comp_size[comp]) return false;
      }
      return true;
    };

    // Every join node of this tree, including `root` itself.
    std::vector<const Plan*> stack = {root};
    std::unordered_set<const Plan*> seen;
    while (!stack.empty()) {
      const Plan* node = stack.back();
      stack.pop_back();
      if (node->kind() != PlanKind::kJoin || !seen.insert(node).second) {
        continue;
      }
      stack.push_back(node->left().get());
      stack.push_back(node->right().get());
      if (SchemasIntersect(node->left()->schema(), node->right()->schema())) {
        continue;  // connected join
      }
      // Cross product: legal only between whole components (DP crosses
      // complete components; greedy crosses the accumulated complete
      // components with one operand of a fresh one).
      if (!complete_components(OperandsOf(node->left().get())) &&
          !complete_components(OperandsOf(node->right().get()))) {
        return NodeError(node,
                         "avoidable cross product: a connected group of "
                         "join operands is split across an attribute-"
                         "disjoint join");
      }
    }
    return Status::OK();
  }

  /// Finds maximal join-tree roots: kJoin nodes first reached through a
  /// non-join edge (or the plan root itself).
  Status CheckJoinTrees(const Plan* root) {
    std::vector<const Plan*> stack = {root};
    std::unordered_set<const Plan*> visited;
    while (!stack.empty()) {
      const Plan* node = stack.back();
      stack.pop_back();
      if (!visited.insert(node).second) continue;
      if (node->kind() == PlanKind::kJoin) {
        if (join_roots_checked_.insert(node).second) {
          LQDB_RETURN_IF_ERROR(CheckJoinTree(node));
        }
        // Descend past the whole join tree: operands are the next
        // non-join frontier.
        for (const Plan* op : OperandsOf(node)) stack.push_back(op);
      } else {
        for (const PlanPtr& child : node->children()) {
          stack.push_back(child.get());
        }
      }
    }
    return Status::OK();
  }

  // -- Phase 3: param relations only at monotone reducer sites -----------

  /// Whether `node` is a candidate filter: a `kParam`, possibly under a
  /// chain of projections (the shape `SemijoinReduce` builds). Returns the
  /// underlying param node or null.
  static const Plan* ParamFilterOf(const Plan* node) {
    while (node->kind() == PlanKind::kProject) node = node->child().get();
    return node->kind() == PlanKind::kParam ? node : nullptr;
  }

  Status RecordParamSite(const Plan* site, const Plan* param,
                         bool pushable) {
    if (!pushable) {
      return NodeError(site,
                       "param relation pushed through a non-monotone "
                       "position (e.g. an anti-join's right child): the "
                       "candidate filter would change answers");
    }
    if (options_.param == nullptr) {
      return NodeError(site, "unexpected param relation in a plan that "
                             "should bind no parameters");
    }
    if (param != options_.param) {
      return NodeError(site,
                       "param node differs from the query's candidate "
                       "relation: bindings are keyed by node identity, so "
                       "this table would execute empty");
    }
    param_seen_ = param;
    return Status::OK();
  }

  /// Walks the DAG tracking whether the semijoin reduction is allowed to
  /// have pushed a candidate filter to this position (`pushable`):
  /// join/union/project children and anti/semijoin left children inherit
  /// it, anti-join right children and non-filter semijoin right children
  /// clear it. Params must sit at semijoin-right filter positions with
  /// `pushable` still true.
  Status CheckParamSites(const Plan* node, bool pushable) {
    if (!param_walked_.insert({node, pushable}).second) return Status::OK();
    switch (node->kind()) {
      case PlanKind::kParam:
        // A bare param outside a semijoin-right filter position (the root
        // reducer shape is SemiJoin(plan, param), so this is unreachable
        // in well-formed reduced plans).
        return RecordParamSite(node, node, /*pushable=*/false);
      case PlanKind::kSemiJoin: {
        LQDB_RETURN_IF_ERROR(CheckParamSites(node->left().get(), pushable));
        const Plan* right = node->right().get();
        if (const Plan* param = ParamFilterOf(right)) {
          return RecordParamSite(node, param, pushable);
        }
        return CheckParamSites(right, /*pushable=*/false);
      }
      case PlanKind::kAntiJoin:
        LQDB_RETURN_IF_ERROR(CheckParamSites(node->left().get(), pushable));
        return CheckParamSites(node->right().get(), /*pushable=*/false);
      default:
        for (const PlanPtr& child : node->children()) {
          LQDB_RETURN_IF_ERROR(CheckParamSites(child.get(), pushable));
        }
        return Status::OK();
    }
  }

  const PlanValidateOptions& options_;
  std::unordered_set<const Plan*> checked_;
  std::unordered_set<const Plan*> on_stack_;
  std::unordered_map<const Plan*, std::vector<const Plan*>> operands_;
  std::unordered_set<const Plan*> join_roots_checked_;
  std::set<std::pair<const Plan*, bool>> param_walked_;
  const Plan* param_seen_ = nullptr;
};

}  // namespace

Status ValidatePlan(const PlanPtr& root, const PlanValidateOptions& options) {
  if (root == nullptr) {
    return Status::InvalidArgument("plan validation: null plan");
  }
  Validator validator(options);
  return validator.Run(root);
}

}  // namespace lqdb
