#include "lqdb/ra/prune.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

namespace lqdb {

namespace {

/// A set of attributes, kept sorted.
using AttrSet = std::vector<VarId>;

AttrSet SetOf(const std::vector<VarId>& schema) {
  AttrSet out = schema;
  std::sort(out.begin(), out.end());
  return out;
}

/// The attributes of `schema` that lie in `set`, in schema order.
std::vector<VarId> InSchemaOrder(const std::vector<VarId>& schema,
                                 const AttrSet& set) {
  std::vector<VarId> out;
  for (VarId v : schema) {
    if (std::binary_search(set.begin(), set.end(), v)) out.push_back(v);
  }
  return out;
}

/// The attributes of `schema` that lie in `set`, as a set.
AttrSet Restrict(const std::vector<VarId>& schema, const AttrSet& set) {
  return SetOf(InSchemaOrder(schema, set));
}

AttrSet Union(const AttrSet& a, const AttrSet& b) {
  AttrSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

class Pruner {
 public:
  /// A plan equal to `π_need(node)` whose columns are `need` in the order
  /// of `node`'s schema; `need` must be a subset of that schema.
  Result<PlanPtr> Prune(const PlanPtr& node, const AttrSet& need) {
    const MemoKey key(node.get(), need);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    PlanPtr out = node;
    switch (node->kind()) {
      case PlanKind::kJoin: {
        const PlanPtr& l = node->left();
        const PlanPtr& r = node->right();
        const AttrSet wanted =
            Union(need, Restrict(l->schema(), SetOf(r->schema())));
        LQDB_ASSIGN_OR_RETURN(PlanPtr nl,
                              Prune(l, Restrict(l->schema(), wanted)));
        LQDB_ASSIGN_OR_RETURN(PlanPtr nr,
                              Prune(r, Restrict(r->schema(), wanted)));
        if (nl != l || nr != r) {
          LQDB_ASSIGN_OR_RETURN(out, Plan::Join(std::move(nl), std::move(nr)));
        }
        break;
      }
      case PlanKind::kAntiJoin:
      case PlanKind::kSemiJoin: {
        // The right side is read only on the shared keys; the left side
        // must keep them until the filter has run.
        const PlanPtr& l = node->left();
        const PlanPtr& r = node->right();
        const AttrSet keys = Restrict(r->schema(), SetOf(l->schema()));
        LQDB_ASSIGN_OR_RETURN(
            PlanPtr nl, Prune(l, Restrict(l->schema(), Union(need, keys))));
        LQDB_ASSIGN_OR_RETURN(PlanPtr nr, Prune(r, keys));
        if (nl != l || nr != r) {
          LQDB_ASSIGN_OR_RETURN(
              out, node->kind() == PlanKind::kAntiJoin
                       ? Plan::AntiJoin(std::move(nl), std::move(nr))
                       : Plan::SemiJoin(std::move(nl), std::move(nr)));
        }
        break;
      }
      case PlanKind::kUnion: {
        LQDB_ASSIGN_OR_RETURN(PlanPtr nl, Prune(node->left(), need));
        LQDB_ASSIGN_OR_RETURN(PlanPtr nr, Prune(node->right(), need));
        if (nl != node->left() || nr != node->right()) {
          LQDB_ASSIGN_OR_RETURN(out,
                                Plan::Union(std::move(nl), std::move(nr)));
        }
        break;
      }
      case PlanKind::kProject: {
        std::vector<VarId> attrs = InSchemaOrder(node->schema(), need);
        LQDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(node->child(), need));
        if (child != node->child() || attrs.size() < node->schema().size()) {
          LQDB_ASSIGN_OR_RETURN(
              out, Plan::Project(std::move(child), std::move(attrs)));
        }
        break;
      }
      case PlanKind::kScan:
      case PlanKind::kConstTuples:
      case PlanKind::kConstCompare:
      case PlanKind::kDomainScan:
      case PlanKind::kEqDomain:
      case PlanKind::kParam:
        break;
    }
    if (out->schema().size() > need.size()) {
      LQDB_ASSIGN_OR_RETURN(
          out, Plan::Project(out, InSchemaOrder(out->schema(), need)));
    }
    memo_.emplace(key, out);
    return out;
  }

 private:
  using MemoKey = std::pair<const Plan*, AttrSet>;

  std::map<MemoKey, PlanPtr> memo_;
};

}  // namespace

Result<PlanPtr> PruneColumns(const PlanPtr& root) {
  if (root == nullptr) return Status::InvalidArgument("null plan");
  Pruner pruner;
  return pruner.Prune(root, SetOf(root->schema()));
}

}  // namespace lqdb
