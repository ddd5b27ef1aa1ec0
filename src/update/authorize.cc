#include "src/update/authorize.h"

#include <string>

namespace smoqe::update {

namespace {

std::string Describe(const xml::NameTable& names, const xml::Node* n) {
  return "element '" + names.NameOf(n->label) + "' (node " +
         std::to_string(n->node_id) + ")";
}

/// Rejects if any node of the subtree rooted at `t` is hidden or
/// condition-protected (the delete/replace effect region).
Status CheckRemovedSubtree(const view::AccessMap& access,
                           const xml::NameTable& names, const xml::Node* t,
                           const char* op) {
  std::vector<const xml::Node*> stack = {t};
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    if (n->is_element()) {
      if (!access.visible(n->node_id)) {
        return Status::PermissionDenied(
            std::string("update rejected: ") + op + " would remove hidden " +
            Describe(names, n) + ", hidden by annotation '" +
            access.DecidingAnnotation(n->node_id) + "'");
      }
      if (access.condition_protected(n->node_id)) {
        return Status::PermissionDenied(
            std::string("update rejected: ") + op + " would remove " +
            Describe(names, n) + ", which is condition-protected by "
            "annotation '" + access.ProtectingCondition(n->node_id) + "'");
      }
    }
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  return Status::OK();
}

/// Rejects if grafting `frag_root` as a child of an element labeled
/// `graft_parent_label` would create any N- or [q]-annotated edge —
/// the graft edge itself or any edge inside the fragment. Pass
/// `graft_parent_label == kNoName` when there is no graft edge (a root
/// replacement): only the fragment's internal edges are checked.
Status CheckGraftedFragment(const view::Policy& policy,
                            const xml::NameTable& doc_names,
                            xml::NameId graft_parent_label,
                            const xml::Document& fragment, const char* op) {
  const xml::NameTable& fnames = *fragment.names();
  // (parent label name, node) pairs; the graft edge seeds the walk —
  // or, with no graft edge, the fragment root's own children do.
  std::vector<std::pair<const std::string*, const xml::Node*>> stack;
  if (graft_parent_label != xml::kNoName) {
    stack.push_back({&doc_names.NameOf(graft_parent_label), fragment.root()});
  } else {
    const std::string& root_name = fnames.NameOf(fragment.root()->label);
    for (const xml::Node* c = fragment.root()->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) stack.push_back({&root_name, c});
    }
  }
  while (!stack.empty()) {
    auto [parent_name, n] = stack.back();
    stack.pop_back();
    const std::string& child_name = fnames.NameOf(n->label);
    const view::Annotation* ann = policy.Find(*parent_name, child_name);
    if (ann != nullptr && ann->kind != view::AnnKind::kAllow) {
      const bool deny = ann->kind == view::AnnKind::kDeny;
      return Status::PermissionDenied(
          std::string("update rejected: ") + op + " would create " +
          (deny ? "hidden" : "condition-protected") + " element '" +
          child_name + "' under '" + *parent_name + "', edge annotated '" +
          *parent_name + "/" + child_name + " : " +
          (deny ? "N" : "[...]") + "' in the policy");
    }
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) stack.push_back({&child_name, c});
    }
  }
  return Status::OK();
}

}  // namespace

view::AccessMap EffectRegionAccess(const view::Policy& policy,
                                   const xml::Document& doc,
                                   const std::vector<ResolvedEdit>& script) {
  std::vector<const xml::Node*> anchors, subtrees;
  for (const ResolvedEdit& e : script) {
    if (e.target == nullptr) continue;  // AuthorizeScript rejects it
    (e.kind == OpKind::kInsert ? anchors : subtrees).push_back(e.target);
  }
  return view::AccessMap::ComputeRegion(policy, doc, anchors, subtrees);
}

Status AuthorizeScript(const view::Policy& policy,
                       const view::AccessMap& access,
                       const xml::Document& doc,
                       const std::vector<ResolvedEdit>& script) {
  const xml::NameTable& names = *doc.names();
  for (const ResolvedEdit& e : script) {
    const xml::Node* t = e.target;
    if (t == nullptr || !t->is_element()) {
      return Status::InvalidArgument("edit has no element target");
    }
    // The anchor node itself must be unconditionally visible — for
    // inserts that is the parent written under, for removals the subtree
    // root (also covered by the subtree walk; checked here for the
    // sharper "target" wording).
    if (!access.visible(t->node_id)) {
      return Status::PermissionDenied(
          "update rejected: target " + Describe(names, t) +
          " is hidden by annotation '" + access.DecidingAnnotation(t->node_id) +
          "'");
    }
    if (access.condition_protected(t->node_id)) {
      return Status::PermissionDenied(
          "update rejected: target " + Describe(names, t) +
          " is condition-protected by annotation '" +
          access.ProtectingCondition(t->node_id) + "'");
    }
    switch (e.kind) {
      case OpKind::kDelete:
        SMOQE_RETURN_IF_ERROR(
            CheckRemovedSubtree(access, names, t, "delete"));
        break;
      case OpKind::kReplace:
        SMOQE_RETURN_IF_ERROR(
            CheckRemovedSubtree(access, names, t, "replace"));
        // Root replacement has no graft edge, but the fragment's internal
        // edges must still be free of hidden/conditional annotations.
        SMOQE_RETURN_IF_ERROR(CheckGraftedFragment(
            policy, names,
            t->parent != nullptr ? t->parent->label : xml::kNoName,
            *e.fragment, "replace"));
        break;
      case OpKind::kInsert:
        SMOQE_RETURN_IF_ERROR(CheckGraftedFragment(
            policy, names, t->label, *e.fragment, "insert"));
        break;
    }
  }
  return Status::OK();
}

bool ScriptHiddenFrom(const view::Policy& policy,
                      const view::AccessMap& access, const xml::Document& doc,
                      const std::vector<ResolvedEdit>& script) {
  const xml::NameTable& names = *doc.names();
  for (const ResolvedEdit& e : script) {
    if (e.kind != OpKind::kInsert && !access.SubtreeHidden(e.target)) {
      return false;
    }
    if (e.kind == OpKind::kDelete) continue;
    // The grafted fragment must be entirely hidden from this view: with a
    // qualifier-free policy that reduces to "the graft edge or an
    // inherited Deny hides every fragment node". Walk the fragment
    // simulating edge annotations from the graft parent's status.
    const xml::Node* graft_parent =
        e.kind == OpKind::kInsert ? e.target : e.target->parent;
    if (graft_parent == nullptr) return false;  // replacing the root
    const xml::NameTable& fnames = *e.fragment->names();
    struct Item {
      const std::string* parent_name;
      const xml::Node* node;
      bool visible;
    };
    std::vector<Item> stack = {{&names.NameOf(graft_parent->label),
                                e.fragment->root(),
                                access.visible(graft_parent->node_id)}};
    while (!stack.empty()) {
      Item it = stack.back();
      stack.pop_back();
      const std::string& child_name = fnames.NameOf(it.node->label);
      const view::Annotation* ann = policy.Find(*it.parent_name, child_name);
      bool child_visible = it.visible;
      if (ann != nullptr) child_visible = ann->kind == view::AnnKind::kAllow;
      if (child_visible) return false;
      for (const xml::Node* c = it.node->first_child; c != nullptr;
           c = c->next_sibling) {
        if (c->is_element()) stack.push_back({&child_name, c, child_visible});
      }
    }
  }
  return true;
}

}  // namespace smoqe::update
