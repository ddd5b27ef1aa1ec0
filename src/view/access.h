/// \file
/// \brief Per-node accessibility classification of a document under an
/// access-control policy — the node-level companion of the type-level
/// view derivation (derive.h).
///
/// Where DeriveView asks "which *types* does a user group see", AccessMap
/// asks "which *nodes* of this document does it see, and why". The update
/// subsystem uses it, classified over an edit's effect region only
/// (ComputeRegion), for both of its decisions (docs/DESIGN.md §6):
///
///  * authorization — an update posed through a view is rejected whole if
///    its effect region touches a hidden or condition-protected node, and
///    the explain string names the deciding annotation;
///  * view-cache retention — an edit whose whole effect region is hidden
///    from a qualifier-free view cannot change that view's
///    materialization, so its cache survives the document epoch bump.

#ifndef SMOQE_VIEW_ACCESS_H_
#define SMOQE_VIEW_ACCESS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/view/annotation.h"
#include "src/xml/dom.h"

namespace smoqe::view {

/// \brief Accessibility of every live node of one document under one
/// policy, with provenance to the deciding annotation.
///
/// Semantics (matching derive.h): the root is visible; an unannotated
/// edge inherits the parent node's status; Y forces visible (a hidden
/// node's descendants may surface through it); N forces hidden; [q] is
/// visible iff q holds at the node, and marks the node — and everything
/// that inherits through it — *condition-protected*. Text nodes inherit
/// their parent element's status.
class AccessMap {
 public:
  /// Classifies every live node of `doc`. Conditional annotations are
  /// evaluated with the reference evaluator, so Compute is as expensive
  /// as the qualifiers it runs; qualifier-free policies classify in one
  /// cheap tree walk.
  /// The whole-document map is the reference the region maps are tested
  /// against; production code classifies regions only.
  static AccessMap Compute(const Policy& policy, const xml::Document& doc);

  /// Classifies only an edit's effect region: the root path of every node
  /// in `anchors` and of every node in `subtrees`, plus each `subtrees`
  /// node's whole subtree. Same rules and explain strings as Compute on
  /// every classified node, at O(depth) per anchor plus the subtree
  /// sizes. Nodes outside the region read as hidden and unconditional
  /// (writes there are denied; SubtreeHidden answers false).
  static AccessMap ComputeRegion(const Policy& policy,
                                 const xml::Document& doc,
                                 const std::vector<const xml::Node*>& anchors,
                                 const std::vector<const xml::Node*>& subtrees);

  /// The node's annotation-level status under the rules above. Every node
  /// of the view's virtual document V(T) is visible, but not conversely:
  /// a node exposed by its own Y or [q] edge is visible even when a
  /// conditional ancestor hides the only path to it, and then V(T) omits
  /// it (e.g. under the autism policy, a `treatment` with a `medication`
  /// below a patient whose `hospital/patient` qualifier fails).
  /// tests/view_access_test.cc pins both directions.
  bool visible(int32_t node_id) const { return At(node_id).visible; }

  /// Whether the node's exposure depends on a conditional annotation —
  /// its own edge or any edge it inherited through.
  bool condition_protected(int32_t node_id) const {
    return At(node_id).cond_edge >= 0;
  }

  /// Renders the annotation that decided the node's visibility, e.g.
  /// "patient/pname : N", or "(visible by default)" if no annotation
  /// applies on the path.
  std::string DecidingAnnotation(int32_t node_id) const;

  /// Renders the nearest enclosing conditional annotation, e.g.
  /// "hospital/patient : [visit/treatment/medication = 'autism']".
  /// Only meaningful when condition_protected(node_id).
  std::string ProtectingCondition(int32_t node_id) const;

  /// True iff every node of the subtree rooted at `n` is hidden — the
  /// edit-irrelevance test of the view-cache retention rule.
  bool SubtreeHidden(const xml::Node* n) const;

 private:
  struct NodeState {
    bool visible = true;
    int32_t vis_edge = -1;   ///< edges_ index deciding visibility, -1 = default
    int32_t cond_edge = -1;  ///< nearest enclosing conditional edge, -1 = none
  };
  class Classifier;

  const NodeState& At(int32_t node_id) const;
  bool Classified(int32_t node_id) const;

  /// One rendered annotated edge ("parent/child : ann").
  std::vector<std::string> edges_;
  std::vector<NodeState> nodes_;  // by node id; retired ids keep defaults
  /// Region maps: the classified nodes only (`nodes_` stays empty).
  std::unordered_map<int32_t, NodeState> region_;
  bool is_region_ = false;
};

}  // namespace smoqe::view

#endif  // SMOQE_VIEW_ACCESS_H_
