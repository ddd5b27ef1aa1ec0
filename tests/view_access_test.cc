// The contract of view::AccessMap::visible: it is the annotation-level
// status of a node, not membership in the view's virtual document V(T).
// Every node of V(T) is visible, but a node whose own annotation exposes
// it can be visible without being in V(T) — when a conditional ancestor
// hides the path that would lead the view to it.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/view/access.h"
#include "src/view/annotation.h"
#include "src/view/derive.h"
#include "src/view/materialize.h"
#include "src/workload/workloads.h"
#include "src/xml/parser.h"

namespace smoqe::view {
namespace {

// Source ids of the elements V(T) contains.
std::set<int32_t> ViewImage(const ViewDefinition& view,
                            const xml::Document& doc) {
  auto mv = Materialize(view, doc);
  EXPECT_TRUE(mv.ok()) << mv.status().ToString();
  std::set<int32_t> out;
  for (int32_t id = 0; id < mv->document.num_nodes(); ++id) {
    const xml::Node* n = mv->document.node(id);
    if (n != nullptr && n->is_element() && mv->source_node_id[id] >= 0) {
      out.insert(mv->source_node_id[id]);
    }
  }
  return out;
}

TEST(AccessMapContractTest, EveryViewNodeIsVisible) {
  const xml::Dtd dtd = workload::HospitalDtd();
  for (const char* text :
       {workload::kHospitalPolicyResearch, workload::kHospitalPolicyAutism}) {
    auto policy = Policy::Parse(dtd, text);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    auto view = DeriveView(*policy);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      auto doc = workload::GenHospital(seed, 3000);
      ASSERT_TRUE(doc.ok());
      const AccessMap access = AccessMap::Compute(*policy, *doc);
      const std::set<int32_t> image = ViewImage(*view, *doc);
      ASSERT_FALSE(image.empty());
      for (int32_t id : image) {
        EXPECT_TRUE(access.visible(id)) << "seed " << seed << " node " << id;
      }
    }
  }
}

TEST(AccessMapContractTest, VisibleTreatmentOutsideTheAutismView) {
  // The patient fails `hospital/patient : [visit/treatment/medication =
  // 'autism']`, so V(T) holds neither it nor anything below it; its
  // treatment still satisfies its own `visit/treatment : [medication]`.
  const xml::Dtd dtd = workload::HospitalDtd();
  auto policy = Policy::Parse(dtd, workload::kHospitalPolicyAutism);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  auto view = DeriveView(*policy);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto doc = xml::ParseDocument(
      "<hospital><patient><pname>Ann</pname><visit><treatment>"
      "<medication>flu</medication></treatment><date>d1</date></visit>"
      "</patient></hospital>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const xml::Node* patient = doc->root()->first_child;
  const xml::Node* visit = patient->first_child->next_sibling;
  const xml::Node* treatment = visit->first_child;
  ASSERT_EQ(doc->names()->NameOf(treatment->label), "treatment");

  const AccessMap access = AccessMap::Compute(*policy, *doc);
  EXPECT_FALSE(access.visible(patient->node_id));
  EXPECT_FALSE(access.visible(visit->node_id));
  EXPECT_TRUE(access.visible(treatment->node_id));
  EXPECT_TRUE(access.condition_protected(treatment->node_id));
  EXPECT_EQ(access.DecidingAnnotation(treatment->node_id),
            "visit/treatment : [medication]");

  const std::set<int32_t> image = ViewImage(*view, *doc);
  EXPECT_EQ(image.count(treatment->node_id), 0u);
  EXPECT_EQ(image.count(patient->node_id), 0u);
  EXPECT_EQ(image.count(doc->root()->node_id), 1u);
}

}  // namespace
}  // namespace smoqe::view
