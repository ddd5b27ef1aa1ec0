// View-checked update authorization through the Smoqe facade:
// accept/reject semantics with explain strings naming the violated
// annotation, trusted direct updates, epoch-based invalidation of
// text/materialization caches, and retention of provably unaffected
// materializations.

#include <gtest/gtest.h>

#include "src/core/smoqe.h"
#include "src/workload/workloads.h"
#include "tests/test_util.h"

namespace smoqe::core {
namespace {

constexpr char kWard[] =
    "<hospital>"
    "<patient>"
    "<pname>Alice</pname>"
    "<visit><treatment><medication>autism</medication></treatment>"
    "<date>d1</date></visit>"
    "<parent><patient>"
    "<pname>Bob</pname>"
    "<visit><treatment><test>blood</test></treatment><date>d2</date></visit>"
    "</patient></parent>"
    "</patient>"
    "<patient>"
    "<pname>Carol</pname>"
    "<visit><treatment><medication>headache</medication></treatment>"
    "<date>d3</date></visit>"
    "</patient>"
    "</hospital>";

/// Research group: qualifier-free. pname and visit structure hidden,
/// treatments (and tests) surface through the hidden visits.
constexpr char kResearchPolicy[] = R"(
  patient/pname   : N;
  patient/visit   : N;
  visit/treatment : Y;
  treatment/test  : Y;
)";

class UpdateAuthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterDtd("hospital", workload::kHospitalDtd,
                                    "hospital")
                    .ok());
    ASSERT_TRUE(engine_.LoadDocument("ward", kWard).ok());
    ASSERT_TRUE(
        engine_.DefineView("research", "hospital", kResearchPolicy).ok());
    ASSERT_TRUE(engine_
                    .DefineView("autism-group", "hospital",
                                workload::kHospitalPolicyAutism)
                    .ok());
  }

  size_t CountAnswers(const char* query, const QueryOptions& opts = {}) {
    auto r = engine_.Query("ward", query, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->answers_xml.size();
  }

  Smoqe engine_;
};

TEST_F(UpdateAuthTest, DirectUpdateIsTrustedAndRefreshesAllModes) {
  UpdateOptions direct;
  direct.dtd_name = "hospital";
  auto r = engine_.Update("ward", "delete hospital/patient[pname = 'Carol']",
                          direct);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 1u);
  EXPECT_EQ(r->stats.doc_epoch, 1u);
  EXPECT_EQ(r->canonical, "delete hospital/patient[pname = 'Carol']");

  EXPECT_EQ(CountAnswers("//patient"), 2u);  // DOM mode sees the delete
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  EXPECT_EQ(CountAnswers("//patient", stax), 2u);  // text re-serialized
  std::vector<BatchQueryItem> items = {{"//patient", stax},
                                       {"//pname", stax}};
  auto batch = engine_.QueryBatch("ward", items);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)[0].answers_xml.size(), 2u);
  EXPECT_EQ((*batch)[1].answers_xml.size(), 2u);  // Alice + Bob
}

TEST_F(UpdateAuthTest, HiddenRegionDeleteIsRejectedWithExplain) {
  // A research-view user may see every treatment, but deleting a patient
  // would also remove its hidden pname/visit content: rejected whole.
  UpdateOptions opts;
  opts.view = "research";
  const std::string before = *engine_.DocumentXml("ward");
  auto r = engine_.Update("ward", "delete hospital/patient", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  // The explain string names the violated annotation (which hidden node
  // the walk hits first is an implementation detail: pname or visit).
  EXPECT_NE(r.status().message().find("hidden by annotation 'patient/"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find(" : N'"), std::string::npos)
      << r.status().ToString();
  // Rejected updates change nothing.
  EXPECT_EQ(*engine_.DocumentXml("ward"), before);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

TEST_F(UpdateAuthTest, ConditionProtectedTargetIsRejected) {
  // Every patient of the autism view is exposed through the qualifier
  // [visit/treatment/medication = 'autism']; updates under it are unsafe.
  UpdateOptions opts;
  opts.view = "autism-group";
  auto r = engine_.Update("ward", "delete hospital/patient", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(r.status().message().find("condition-protected"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("hospital/patient : ["),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(UpdateAuthTest, InsertCreatingHiddenContentIsRejected) {
  // visit children of patient are hidden from research: writing one would
  // create data the writer cannot read back.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update(
      "ward",
      "insert into hospital/patient "
      "<visit><treatment><test>x</test></treatment><date>d9</date></visit>",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(r.status().message().find("patient/visit : N"), std::string::npos)
      << r.status().ToString();
}

TEST_F(UpdateAuthTest, VisibleRegionReplaceIsAccepted) {
  // The whole effect region — the treatment subtree and the replacement —
  // is unconditionally visible to research users, so the update applies.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update(
      "ward",
      "replace //treatment[medication = 'headache'] "
      "with <treatment><test>mri</test></treatment>",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 1u);
  EXPECT_EQ(r->stats.edits_applied, 1u);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 1u);
  EXPECT_EQ(CountAnswers("//test"), 2u);  // blood + mri
  // The research user sees the effect through the view too.
  QueryOptions vq;
  vq.view = "research";
  EXPECT_EQ(CountAnswers("//treatment/test", vq), 2u);
}

TEST_F(UpdateAuthTest, ViewInsertMustStillFitTheDocumentSchema) {
  // The research view exposes treatment as a child of patient, but the
  // *document* schema has no such edge: authorization passes, the DTD
  // revalidation rejects — and nothing changes.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update(
      "ward", "insert into hospital/patient <treatment><test>x</test>"
              "</treatment>",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

TEST_F(UpdateAuthTest, HiddenTargetSelectsNothingThroughTheView) {
  // Hidden labels do not even resolve through the view (the same "you
  // cannot name what you cannot see" queries get): a successful no-op.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update("ward", "delete //pname", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 0u);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

TEST_F(UpdateAuthTest, SpecDefinedViewsCannotUpdate) {
  constexpr char kSpec[] = R"(
    root hospital;
    dtd {
      <!ELEMENT hospital (patient*)>
      <!ELEMENT patient (treatment*)>
      <!ELEMENT treatment (medication?)>
      <!ELEMENT medication (#PCDATA)>
    }
    sigma hospital/patient = patient;
    sigma patient/treatment = visit/treatment;
    sigma treatment/medication = medication;
  )";
  ASSERT_TRUE(engine_.DefineViewFromSpec("spec-view", kSpec, "hospital").ok());
  UpdateOptions opts;
  opts.view = "spec-view";
  auto r = engine_.Update("ward", "delete //treatment", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(r.status().message(),
            "view 'spec-view' was registered from a specification, not a "
            "policy; updates require a policy-derived view");
  // The refusal comes before any evaluation: a target that names nothing
  // in the view (and would otherwise be a successful no-op) is refused
  // the same way.
  auto none = engine_.Update("ward", "delete //nosuchlabel", opts);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(UpdateAuthTest, ViewUpdateOnForeignDocumentIsInvalid) {
  // A hospital view over an org document: the view does not apply, which
  // is an error rather than an update that selects nothing.
  ASSERT_TRUE(engine_
                  .LoadDocument("org",
                                "<company><division><dname>d</dname>"
                                "</division></company>")
                  .ok());
  UpdateOptions opts;
  opts.view = "research";
  for (bool dry_run : {false, true}) {
    opts.dry_run = dry_run;
    auto r = engine_.Update("org", "delete //treatment", opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(),
              "document root 'company' does not match view root 'hospital'");
  }
  EXPECT_EQ(*engine_.DocumentEpoch("org"), 0u);
}

TEST_F(UpdateAuthTest, EpochInvalidatesAndRetainsMaterializations) {
  // Cache both views at epoch 0.
  auto rv0 = engine_.MaterializeView("ward", "research");
  ASSERT_TRUE(rv0.ok()) << rv0.status().ToString();
  EXPECT_FALSE(rv0->cache_hit);
  EXPECT_TRUE(engine_.MaterializeView("ward", "research")->cache_hit);
  auto av0 = engine_.MaterializeView("ward", "autism-group");
  ASSERT_TRUE(av0.ok());

  // A trusted update that only touches research-hidden data: pname is
  // hidden from research (and so is the replacement), so the research
  // materialization survives; the autism view has qualifiers and must be
  // rebuilt.
  UpdateOptions direct;
  direct.dtd_name = "hospital";
  auto u = engine_.Update(
      "ward",
      "replace hospital/patient/pname[. = 'Carol'] with <pname>Anon</pname>",
      direct);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->stats.view_caches_retained, 1u);
  EXPECT_EQ(u->stats.view_caches_invalidated, 1u);

  auto rv1 = engine_.MaterializeView("ward", "research");
  ASSERT_TRUE(rv1.ok());
  EXPECT_TRUE(rv1->cache_hit);        // retained across the epoch bump
  EXPECT_EQ(rv1->epoch, 1u);
  EXPECT_EQ(rv1->xml, rv0->xml);      // and provably unchanged

  auto av1 = engine_.MaterializeView("ward", "autism-group");
  ASSERT_TRUE(av1.ok());
  EXPECT_FALSE(av1->cache_hit);       // rebuilt at the new epoch

  // A visible-region update invalidates the research cache too.
  auto u2 = engine_.Update(
      "ward",
      "replace //treatment[medication = 'headache'] "
      "with <treatment><test>mri</test></treatment>",
      direct);
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  EXPECT_EQ(u2->stats.view_caches_retained, 0u);
  auto rv2 = engine_.MaterializeView("ward", "research");
  ASSERT_TRUE(rv2.ok());
  EXPECT_FALSE(rv2->cache_hit);
  EXPECT_NE(rv2->xml, rv1->xml);
}

TEST_F(UpdateAuthTest, RootReplaceStillChecksFragmentContent) {
  // A document with nothing hidden from the view (patients without
  // visits), so the removal half of a root replace passes; the
  // replacement fragment smuggles in a visit — hidden from the view —
  // and must still be rejected.
  ASSERT_TRUE(engine_
                  .LoadDocument("empty-ward",
                                "<hospital><patient><pname>A</pname>"
                                "</patient></hospital>")
                  .ok());
  ASSERT_TRUE(engine_
                  .DefineView("no-visits", "hospital",
                              "patient/visit : N;\n")
                  .ok());
  UpdateOptions opts;
  opts.view = "no-visits";
  opts.dtd_name = "hospital";
  auto r = engine_.Update(
      "empty-ward",
      "replace hospital with <hospital><patient><pname>B</pname>"
      "<visit><treatment><test>x</test></treatment><date>d</date></visit>"
      "</patient></hospital>",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(r.status().message().find("patient/visit : N"), std::string::npos)
      << r.status().ToString();
}

TEST_F(UpdateAuthTest, DryRunChangesNothing) {
  UpdateOptions direct;
  direct.dtd_name = "hospital";
  direct.dry_run = true;
  const std::string before = *engine_.DocumentXml("ward");
  auto r = engine_.Update("ward", "delete hospital/patient[pname = 'Carol']",
                          direct);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 1u);
  EXPECT_EQ(*engine_.DocumentXml("ward"), before);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

TEST_F(UpdateAuthTest, DryRunVerdictMatchesRealRun) {
  ASSERT_TRUE(engine_.BuildIndex("ward").ok());
  UpdateOptions research;
  research.view = "research";
  UpdateOptions direct;
  direct.dtd_name = "hospital";
  struct Case {
    const char* stmt;
    const UpdateOptions* opts;
  };
  // Denied, invalid, no-op, then accepted through a view and directly.
  const Case cases[] = {
      {"delete hospital/patient", &research},
      {"delete hospital/patient/pname", &direct},
      {"delete //nosuchlabel", &research},
      {"replace //treatment[medication = 'headache'] with "
       "<treatment><test>mri</test></treatment>",
       &research},
      {"insert into hospital/patient[pname = 'Carol'] "
       "<visit><treatment><medication>flu</medication></treatment>"
       "<date>d9</date></visit>",
       &direct},
  };
  for (const Case& c : cases) {
    UpdateOptions dry = *c.opts;
    dry.dry_run = true;
    const std::string before = *engine_.DocumentXml("ward");
    const uint64_t epoch = *engine_.DocumentEpoch("ward");
    auto d = engine_.Update("ward", c.stmt, dry);
    EXPECT_EQ(*engine_.DocumentXml("ward"), before) << c.stmt;
    EXPECT_EQ(*engine_.DocumentEpoch("ward"), epoch) << c.stmt;
    auto real = engine_.Update("ward", c.stmt, *c.opts);
    ASSERT_EQ(d.status().ToString(), real.status().ToString()) << c.stmt;
    if (real.ok()) {
      EXPECT_EQ(d->stats.targets, real->stats.targets) << c.stmt;
      EXPECT_EQ(d->stats.doc_epoch, epoch) << c.stmt;
    }
  }
  // The two accepted updates applied; the dry runs added no epoch.
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 2u);
}

}  // namespace
}  // namespace smoqe::core
