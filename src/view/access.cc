#include "src/view/access.h"

#include <map>
#include <utility>

#include "src/rxpath/naive_eval.h"
#include "src/rxpath/printer.h"

namespace smoqe::view {

namespace {

std::string RenderAnnotation(const std::string& parent,
                             const std::string& child, const Annotation& ann) {
  std::string out = parent + "/" + child + " : ";
  switch (ann.kind) {
    case AnnKind::kAllow:
      out += "Y";
      break;
    case AnnKind::kDeny:
      out += "N";
      break;
    case AnnKind::kCondition:
      out += "[" + rxpath::ToString(*ann.condition) + "]";
      break;
  }
  return out;
}

}  // namespace

/// The per-edge classification rule of region maps: a child's state from
/// its parent's state and the annotation on the (parent, child) edge.
class AccessMap::Classifier {
 public:
  Classifier(const Policy& policy, const xml::Document& doc, AccessMap* map)
      : policy_(policy), names_(*doc.names()), eval_(doc), map_(map) {}

  NodeState Child(const NodeState& cur, const xml::Node* parent,
                  const xml::Node* c) {
    if (c->is_text()) return cur;  // text inherits its parent's status
    const std::string& parent_name = names_.NameOf(parent->label);
    const std::string& child_name = names_.NameOf(c->label);
    const Annotation* ann = policy_.Find(parent_name, child_name);
    if (ann == nullptr) return cur;
    NodeState cs;
    switch (ann->kind) {
      case AnnKind::kAllow:
        cs.visible = true;
        cs.vis_edge = InternEdge(parent_name, child_name, *ann);
        cs.cond_edge = cur.cond_edge;
        break;
      case AnnKind::kDeny:
        cs.visible = false;
        cs.vis_edge = InternEdge(parent_name, child_name, *ann);
        cs.cond_edge = cur.cond_edge;
        break;
      case AnnKind::kCondition: {
        int32_t edge = InternEdge(parent_name, child_name, *ann);
        cs.visible = eval_.QualifierHolds(*ann->condition, c);
        cs.vis_edge = edge;
        cs.cond_edge = edge;
        break;
      }
    }
    return cs;
  }

 private:
  // Rendered-edge interning so every node carries only indexes.
  int32_t InternEdge(const std::string& parent, const std::string& child,
                     const Annotation& ann) {
    auto key = std::make_pair(static_cast<const void*>(&ann), ann.kind);
    auto it = edge_ids_.find(key);
    if (it != edge_ids_.end()) return it->second;
    map_->edges_.push_back(RenderAnnotation(parent, child, ann));
    int32_t id = static_cast<int32_t>(map_->edges_.size()) - 1;
    edge_ids_.emplace(key, id);
    return id;
  }

  const Policy& policy_;
  const xml::NameTable& names_;
  rxpath::NaiveEvaluator eval_;
  AccessMap* map_;
  std::map<std::pair<const void*, AnnKind>, int32_t> edge_ids_;
};

// The whole-document walk keeps its own copy of the classification rule
// rather than sharing Classifier: it is the reference the region maps are
// tested against, so a slip in one shows up as a differential mismatch.
AccessMap AccessMap::Compute(const Policy& policy, const xml::Document& doc) {
  AccessMap map;
  map.nodes_.resize(doc.num_nodes());
  rxpath::NaiveEvaluator eval(doc);
  // Rendered-edge interning so every node carries only indexes.
  std::map<std::pair<const void*, AnnKind>, int32_t> edge_ids;
  auto intern_edge = [&](const std::string& parent, const std::string& child,
                         const Annotation& ann) -> int32_t {
    auto key = std::make_pair(static_cast<const void*>(&ann), ann.kind);
    auto it = edge_ids.find(key);
    if (it != edge_ids.end()) return it->second;
    map.edges_.push_back(RenderAnnotation(parent, child, ann));
    int32_t id = static_cast<int32_t>(map.edges_.size()) - 1;
    edge_ids.emplace(key, id);
    return id;
  };

  const xml::NameTable& names = *doc.names();
  std::vector<const xml::Node*> stack = {doc.root()};
  // Root: visible, no deciding edge — the NodeState defaults.
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    const NodeState& cur = map.nodes_[n->node_id];
    const std::string& parent_name = names.NameOf(n->label);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      NodeState& cs = map.nodes_[c->node_id];
      if (c->is_text()) {
        cs = cur;  // text inherits its parent element's status
        continue;
      }
      const std::string& child_name = names.NameOf(c->label);
      const Annotation* ann = policy.Find(parent_name, child_name);
      if (ann == nullptr) {
        cs = cur;
      } else {
        switch (ann->kind) {
          case AnnKind::kAllow:
            cs.visible = true;
            cs.vis_edge = intern_edge(parent_name, child_name, *ann);
            cs.cond_edge = cur.cond_edge;
            break;
          case AnnKind::kDeny:
            cs.visible = false;
            cs.vis_edge = intern_edge(parent_name, child_name, *ann);
            cs.cond_edge = cur.cond_edge;
            break;
          case AnnKind::kCondition: {
            int32_t edge = intern_edge(parent_name, child_name, *ann);
            cs.visible = eval.QualifierHolds(*ann->condition, c);
            cs.vis_edge = edge;
            cs.cond_edge = edge;
            break;
          }
        }
      }
      stack.push_back(c);
    }
  }
  return map;
}

AccessMap AccessMap::ComputeRegion(
    const Policy& policy, const xml::Document& doc,
    const std::vector<const xml::Node*>& anchors,
    const std::vector<const xml::Node*>& subtrees) {
  AccessMap map;
  map.is_region_ = true;
  Classifier classify(policy, doc, &map);
  std::unordered_map<int32_t, NodeState>& region = map.region_;
  // Classifies `n`'s root path top-down, stopping at the first ancestor
  // an earlier path already classified.
  std::vector<const xml::Node*> chain;
  auto classify_path = [&](const xml::Node* n) {
    chain.clear();
    for (const xml::Node* a = n; a != nullptr && region.count(a->node_id) == 0;
         a = a->parent) {
      chain.push_back(a);
    }
    for (size_t i = chain.size(); i-- > 0;) {
      const xml::Node* a = chain[i];
      const NodeState state =
          a->parent == nullptr
              ? NodeState()
              : classify.Child(region[a->parent->node_id], a->parent, a);
      region[a->node_id] = state;
    }
  };
  for (const xml::Node* a : anchors) classify_path(a);
  std::vector<const xml::Node*> stack;
  for (const xml::Node* t : subtrees) {
    classify_path(t);
    stack.assign(1, t);
    while (!stack.empty()) {
      const xml::Node* n = stack.back();
      stack.pop_back();
      for (const xml::Node* c = n->first_child; c != nullptr;
           c = c->next_sibling) {
        const NodeState state = classify.Child(region[n->node_id], n, c);
        region[c->node_id] = state;
        if (c->is_element()) stack.push_back(c);
      }
    }
  }
  return map;
}

const AccessMap::NodeState& AccessMap::At(int32_t node_id) const {
  if (!is_region_) return nodes_[node_id];
  static const NodeState kOutside{/*visible=*/false, -1, -1};
  auto it = region_.find(node_id);
  return it != region_.end() ? it->second : kOutside;
}

bool AccessMap::Classified(int32_t node_id) const {
  return !is_region_ || region_.count(node_id) > 0;
}

std::string AccessMap::DecidingAnnotation(int32_t node_id) const {
  if (!Classified(node_id)) return "(outside the classified region)";
  int32_t e = At(node_id).vis_edge;
  return e < 0 ? "(visible by default)" : edges_[static_cast<size_t>(e)];
}

std::string AccessMap::ProtectingCondition(int32_t node_id) const {
  int32_t e = At(node_id).cond_edge;
  return e < 0 ? "(unconditional)" : edges_[static_cast<size_t>(e)];
}

bool AccessMap::SubtreeHidden(const xml::Node* n) const {
  std::vector<const xml::Node*> stack = {n};
  while (!stack.empty()) {
    const xml::Node* cur = stack.back();
    stack.pop_back();
    if (!Classified(cur->node_id) || At(cur->node_id).visible) return false;
    for (const xml::Node* c = cur->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  return true;
}

}  // namespace smoqe::view
