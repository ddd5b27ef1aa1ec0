#include "src/eval/hype_dom.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/automata/mfa.h"
#include "src/eval/guard_pool.h"
#include "tests/test_util.h"

namespace smoqe::eval {
namespace {

using automata::Mfa;
using testutil::HospitalQueryCorpus;
using testutil::IdsOf;
using testutil::kHospitalDoc;
using testutil::MustDoc;
using testutil::MustQuery;
using testutil::NaiveIds;

std::vector<int32_t> HypeIds(const xml::Document& doc, std::string_view q,
                             const index::TaxIndex* tax = nullptr) {
  auto query = MustQuery(q);
  auto mfa = Mfa::Compile(*query, doc.names());
  EXPECT_TRUE(mfa.ok()) << mfa.status().ToString();
  DomEvalOptions opts;
  opts.tax = tax;
  auto r = EvalHypeDom(*mfa, doc, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return IdsOf(r->answers);
}

// ---------------------------------------------------------------------
// Differential suite: HyPE(DOM) must agree with the reference evaluator
// on every corpus query over the hand-written hospital instance.
// ---------------------------------------------------------------------

class HypeCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HypeCorpusTest, MatchesNaiveOnHandWrittenDoc) {
  xml::Document doc = MustDoc(kHospitalDoc);
  auto query = MustQuery(GetParam());
  EXPECT_EQ(HypeIds(doc, GetParam()), NaiveIds(doc, *query))
      << "query: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Corpus, HypeCorpusTest,
                         ::testing::ValuesIn(testutil::HospitalQueryCorpus()));

// Property test: random generated hospital documents, every corpus query.
class HypeRandomDocTest : public ::testing::TestWithParam<int> {};

TEST_P(HypeRandomDocTest, MatchesNaiveOnGeneratedDocs) {
  xml::Document doc =
      testutil::GenHospital(static_cast<uint64_t>(GetParam()), 400);
  for (const char* q : HospitalQueryCorpus()) {
    auto query = MustQuery(q);
    EXPECT_EQ(HypeIds(doc, q), NaiveIds(doc, *query))
        << "seed " << GetParam() << " query: " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypeRandomDocTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------
// Targeted behaviours
// ---------------------------------------------------------------------

TEST(HypeTest, AttributePredicates) {
  xml::Document doc =
      MustDoc("<r><item id='a'/><item id='b' flag='1'/><item/></r>");
  EXPECT_EQ(HypeIds(doc, "r/item[@id]").size(), 2u);
  EXPECT_EQ(HypeIds(doc, "r/item[@id = 'b']").size(), 1u);
  EXPECT_EQ(HypeIds(doc, "r/item[not(@id)]").size(), 1u);
  EXPECT_EQ(HypeIds(doc, "r[item/@flag = '1']").size(), 1u);
  EXPECT_EQ(HypeIds(doc, "r/item[@missing]").size(), 0u);
}

TEST(HypeTest, AnswersAreDocOrderedAndUnique) {
  xml::Document doc = MustDoc(kHospitalDoc);
  auto ids = HypeIds(doc, "//patient | hospital/patient");
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(HypeTest, StatsReflectSinglePass) {
  xml::Document doc = MustDoc(kHospitalDoc);
  auto query = MustQuery("//patient[visit/treatment/medication = 'autism']");
  auto mfa = Mfa::Compile(*query, doc.names());
  ASSERT_TRUE(mfa.ok());
  auto r = EvalHypeDom(*mfa, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.tree_passes, 1u);
  EXPECT_EQ(r->stats.aux_passes, 1u);
  EXPECT_GT(r->stats.pred_instances, 0u);
  EXPECT_GT(r->stats.cans_entries, 0u);
  EXPECT_EQ(r->stats.answers, 1u);
}

TEST(HypeTest, DeadRunPruningSkipsSubtrees) {
  // Query touching only pname: visiting a visit subtree is unnecessary.
  xml::Document doc = MustDoc(kHospitalDoc);
  auto query = MustQuery("hospital/patient/pname");
  auto mfa = Mfa::Compile(*query, doc.names());
  ASSERT_TRUE(mfa.ok());
  auto r = EvalHypeDom(*mfa, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.subtrees_pruned, 0u);
  EXPECT_GT(r->stats.nodes_pruned, 0u);
  // Visited + pruned accounts for part of the tree; visited < all elements.
  EXPECT_LT(r->stats.nodes_visited,
            static_cast<uint64_t>(doc.num_elements()));
}

TEST(HypeTest, MfaMustShareDocNameTable) {
  xml::Document doc = MustDoc("<a/>");
  auto query = MustQuery("a");
  auto mfa = Mfa::Compile(*query, xml::NameTable::Create());
  ASSERT_TRUE(mfa.ok());
  EXPECT_FALSE(EvalHypeDom(*mfa, doc).ok());
}

TEST(HypeTest, QueryLabelAbsentFromDocument) {
  xml::Document doc = MustDoc("<a><b/></a>");
  EXPECT_TRUE(HypeIds(doc, "a/zzz").empty());
  EXPECT_TRUE(HypeIds(doc, "zzz").empty());
  EXPECT_EQ(HypeIds(doc, "a[not(zzz)]").size(), 1u);
}

TEST(HypeTest, DeeplyNestedDocumentNoRecursionIssues) {
  // 5000-deep chain; the engine and driver are iterative.
  std::string open, close;
  for (int i = 0; i < 5000; ++i) {
    open += "<d>";
    close += "</d>";
  }
  xml::Document doc = MustDoc(open + "<leaf/>" + close);
  EXPECT_EQ(HypeIds(doc, "//leaf").size(), 1u);
}

TEST(HypeTest, TraceRecordsLifecycle) {
  xml::Document doc = MustDoc(kHospitalDoc);
  auto query = MustQuery("//patient[visit]/pname");
  auto mfa = Mfa::Compile(*query, doc.names());
  ASSERT_TRUE(mfa.ok());
  DomEvalOptions opts;
  opts.engine.trace = true;
  auto r = EvalHypeDom(*mfa, doc, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->trace, nullptr);
  bool saw_visit = false, saw_candidate = false, saw_answer = false,
       saw_resolve = false;
  for (const TraceEvent& e : r->trace->events()) {
    switch (e.kind) {
      case TraceEvent::Kind::kVisit:
        saw_visit = true;
        break;
      case TraceEvent::Kind::kCandidate:
        saw_candidate = true;
        break;
      case TraceEvent::Kind::kAnswer:
        saw_answer = true;
        break;
      case TraceEvent::Kind::kInstanceResolve:
        saw_resolve = true;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_visit && saw_candidate && saw_answer && saw_resolve);
  std::string tree = r->trace->RenderTree(doc, r->nodes_by_engine_id);
  EXPECT_NE(tree.find("A"), std::string::npos);
  EXPECT_NE(tree.find("hospital"), std::string::npos);
}

// Cans unit behaviour.
void AddGuard(Cans& cans, int32_t id, const std::vector<InstId>& guard) {
  cans.Add(id, guard.data(), guard.size());
}

TEST(CansTest, DominanceAndSelection) {
  Cans cans;
  std::vector<PredInstance> insts(3);
  insts[0] = {0, 0, true, true};
  insts[1] = {1, 0, true, false};
  insts[2] = {2, 0, true, true};

  AddGuard(cans, 5, {0, 1});   // false (inst 1 false)
  AddGuard(cans, 5, {0});      // true — dominates the previous alternative
  AddGuard(cans, 9, {1});      // false
  AddGuard(cans, 12, {});      // unconditional
  AddGuard(cans, 20, {2});     // true
  AddGuard(cans, 20, {1, 2});  // dominated, ignored

  auto sel = cans.Select(insts);
  EXPECT_EQ(sel, (std::vector<int32_t>{5, 12, 20}));
  EXPECT_EQ(cans.node_count(), 4u);
  EXPECT_EQ(cans.entry_count(), 6u);
  EXPECT_EQ(cans.alternative_count(0), 1u);  // {0} replaced {0, 1}
  EXPECT_EQ(cans.alternative_count(3), 1u);  // {1, 2} never kept
}

TEST(CansTest, UnsatisfiedGuardsDropNode) {
  Cans cans;
  std::vector<PredInstance> insts(1);
  insts[0] = {0, 0, true, false};
  AddGuard(cans, 3, {0});
  EXPECT_TRUE(cans.Select(insts).empty());
}

TEST(CansTest, IncomparableAlternativesAreAllKept) {
  Cans cans;
  std::vector<PredInstance> insts(3);
  insts[0] = {0, 0, true, false};
  insts[1] = {1, 0, true, false};
  insts[2] = {2, 0, true, true};
  AddGuard(cans, 4, {0, 2});
  AddGuard(cans, 4, {1});
  AddGuard(cans, 4, {2});  // dominates {0, 2}, keeps {1}
  EXPECT_EQ(cans.alternative_count(0), 2u);
  AddGuard(cans, 7, {0});
  AddGuard(cans, 7, {1});
  EXPECT_EQ(cans.alternative_count(1), 2u);
  // Node 4 survives through {2}; node 7's alternatives are both false.
  EXPECT_EQ(cans.Select(insts), (std::vector<int32_t>{4}));
  // An unconditional entry clears the rest.
  AddGuard(cans, 9, {0});
  AddGuard(cans, 9, {});
  AddGuard(cans, 9, {1});
  EXPECT_EQ(cans.alternative_count(2), 1u);
  EXPECT_EQ(cans.Select(insts), (std::vector<int32_t>{4, 9}));
}

TEST(WitnessTableTest, DominanceKeepsOnlyMinimalGuards) {
  GuardPool pool;
  const InstId a01[] = {0, 1};
  const InstId a0[] = {0};
  const InstId a2[] = {2};
  const InstId a12[] = {1, 2};
  const GuardRef g01 = pool.Intern(a01, 2);
  const GuardRef g0 = pool.Intern(a0, 1);
  const GuardRef g2 = pool.Intern(a2, 1);
  const GuardRef g12 = pool.Intern(a12, 2);
  auto sorted = [](std::vector<GuardRef> v) {
    std::sort(v.begin(), v.end());
    return v;
  };

  WitnessTable w;
  const int32_t leaf = w.AddLeaves(2);
  w.Add(leaf, g01, pool);
  w.Add(leaf, g0, pool);  // {0} ⊆ {0, 1}: replaces it
  EXPECT_EQ(w.Witnesses(leaf), (std::vector<GuardRef>{g0}));
  w.Add(leaf, g2, pool);   // incomparable: kept beside {0}
  w.Add(leaf, g12, pool);  // {2} ⊆ {1, 2}: dominated, ignored
  w.Add(leaf, g0, pool);   // duplicate, ignored
  EXPECT_EQ(sorted(w.Witnesses(leaf)), sorted({g0, g2}));
  EXPECT_TRUE(w.Witnesses(leaf + 1).empty());  // leaves are independent
  w.Add(leaf + 1, g12, pool);
  w.Add(leaf, GuardPool::kEmpty, pool);  // unconditional: clears the rest
  EXPECT_EQ(w.Witnesses(leaf), (std::vector<GuardRef>{GuardPool::kEmpty}));
  EXPECT_EQ(w.Witnesses(leaf + 1), (std::vector<GuardRef>{g12}));

  // Release evaluates the leaf once and recycles its links: a new leaf
  // reuses them instead of growing the link array.
  const size_t links = w.link_count();
  std::vector<GuardRef> seen;
  EXPECT_FALSE(w.Release(leaf + 1, [&](GuardRef g) {
    seen.push_back(g);
    return false;
  }));
  EXPECT_EQ(seen, (std::vector<GuardRef>{g12}));
  EXPECT_TRUE(
      w.Release(leaf, [](GuardRef g) { return g == GuardPool::kEmpty; }));
  EXPECT_TRUE(w.Witnesses(leaf).empty());
  const int32_t next = w.AddLeaves(1);
  w.Add(next, g01, pool);
  w.Add(next, g2, pool);
  EXPECT_EQ(w.link_count(), links);
  EXPECT_EQ(sorted(w.Witnesses(next)), sorted({g01, g2}));
}

}  // namespace
}  // namespace smoqe::eval
