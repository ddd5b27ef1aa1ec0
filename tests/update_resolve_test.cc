// Differential suite for the update path's two decisions, against the
// reference path they replaced:
//
//  * target resolution — a view target rewritten into an MFA and run by
//    HyPE over the document (with and without TAX) selects exactly the
//    naive evaluation over the materialized view, mapped through its
//    provenance; a direct target compiled as-is selects exactly the naive
//    evaluation over the document;
//  * authorization — the access map of an edit's effect region gives the
//    same verdict and byte-identical explain string as the whole-document
//    AccessMap, and the same view-cache retention decision;
//  * end to end — Smoqe::Update (dry runs and real runs, through every
//    view and directly) matches the reference path's target counts,
//    verdicts, explain strings, resulting documents and retained caches.
//
// Targets are seeded random Regular XPath (rxpath::RandomQuery) over
// generated hospital and org documents; the views are the research,
// clinic, autism, derived and audit hospital policies and the org policy.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/rng.h"
#include "src/core/smoqe.h"
#include "src/eval/hype_dom.h"
#include "src/index/tax.h"
#include "src/rewrite/rewriter.h"
#include "src/rxpath/naive_eval.h"
#include "src/rxpath/printer.h"
#include "src/rxpath/random_query.h"
#include "src/update/applier.h"
#include "src/update/authorize.h"
#include "src/update/update_lang.h"
#include "src/view/access.h"
#include "src/view/derive.h"
#include "src/view/materialize.h"
#include "src/workload/workloads.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace smoqe {
namespace {

/// Every element but patient names is visible (the benchmark writer).
constexpr char kClinicPolicy[] = "patient/pname : N;\n";
/// Genealogy shown only for patients treated for flu; tests hidden.
constexpr char kDerivedPolicy[] =
    "parent/patient : [visit/treatment/medication = 'flu'];\n"
    "treatment/test : N;\n";
/// Y under a conditional ancestor: treatments of autism patients resurface
/// through hidden visits and stay condition-protected.
constexpr char kAuditPolicy[] =
    "hospital/patient : [visit/treatment/medication = 'autism'];\n"
    "patient/visit : N;\n"
    "visit/treatment : Y;\n";

struct Role {
  std::string name;
  const char* policy;
};

/// One schema of the suite: its DTD, roles, generator and the constants
/// random targets and fragments draw from.
struct Schema {
  std::string name;
  const char* dtd_text;
  std::vector<Role> roles;
  std::vector<std::string> labels;
  std::vector<std::string> values;
  /// Fragments for insert/replace, valid and invalid in various places.
  std::vector<std::string> fragments;
  /// Fixed statements mixed into the random ones: edits some view cannot
  /// see, so the retention rule gets exercised.
  std::vector<std::string> pinned;
};

Schema Hospital() {
  return {"hospital",
          workload::kHospitalDtd,
          {{"research", workload::kHospitalPolicyResearch},
           {"clinic", kClinicPolicy},
           {"autism", workload::kHospitalPolicyAutism},
           {"derived", kDerivedPolicy},
           {"audit", kAuditPolicy}},
          {"hospital", "patient", "pname", "visit", "parent", "treatment",
           "test", "medication", "date"},
          {"autism", "flu", "headache", "cold", "blood", "xray", "Alice",
           "Bob"},
          {"<visit><treatment><medication>flu</medication></treatment>"
           "<date>dx</date></visit>",
           "<treatment><test>mri</test></treatment>",
           "<medication>zzz</medication>",
           "<pname>Zed</pname>",
           "<parent><patient><pname>Gran</pname></patient></parent>",
           "<patient><pname>New</pname><visit><treatment><test>blood</test>"
           "</treatment><date>dn</date></visit></patient>"},
          {"replace //pname[. = 'Alice'] with <pname>Zed</pname>",
           "replace hospital/patient/pname with <pname>Ann</pname>",
           "replace //pname[. = 'Zed'] with <pname>Alice</pname>"}};
}

Schema Org() {
  return {"company",
          workload::kOrgDtd,
          {{"org", workload::kOrgPolicy}},
          {"company", "division", "dname", "group", "gname", "employee",
           "ename", "salary", "review"},
          {"ada", "bob", "eng", "ops"},
          {"<employee><ename>new</ename><salary>1</salary></employee>",
           "<salary>2</salary>",
           "<review>ok</review>",
           "<group><gname>g</gname><employee><ename>e</ename>"
           "<salary>3</salary></employee></group>",
           "<division><dname>d</dname></division>"},
          {}};
}

Result<xml::Document> Generate(const Schema& s, uint64_t seed, size_t n) {
  return s.name == "hospital" ? workload::GenHospital(seed, n)
                              : workload::GenOrg(seed, n);
}

xml::Dtd DtdOf(const Schema& s) {
  return s.name == "hospital" ? workload::HospitalDtd() : workload::OrgDtd();
}

/// A random target anchored at the root or at any depth, so that most
/// targets select something.
std::unique_ptr<rxpath::PathExpr> RandomTarget(const Schema& s, uint64_t seed) {
  rxpath::RandomQueryOptions opts;
  opts.labels = s.labels;
  opts.values = s.values;
  opts.max_depth = 4;
  std::unique_ptr<rxpath::PathExpr> anchor =
      seed % 2 == 0 ? rxpath::PathExpr::Label(s.name)
                    : rxpath::PathExpr::Star(rxpath::PathExpr::Wildcard());
  return rxpath::PathExpr::Seq2(std::move(anchor),
                                rxpath::RandomQuery(seed, opts));
}

std::set<int32_t> NaiveThroughView(const view::MaterializedView& mv,
                                   const rxpath::PathExpr& q) {
  rxpath::NaiveEvaluator eval(mv.document);
  std::set<int32_t> out;
  for (const xml::Node* n : eval.Eval(q)) {
    if (mv.source_node_id[n->node_id] >= 0) {
      out.insert(mv.source_node_id[n->node_id]);
    }
  }
  return out;
}

std::set<int32_t> Ids(const std::vector<const xml::Node*>& nodes) {
  std::set<int32_t> out;
  for (const xml::Node* n : nodes) out.insert(n->node_id);
  return out;
}

/// Source ids of the materialized view: the nodes the view exposes.
std::set<int32_t> ProvenanceImage(const view::MaterializedView& mv) {
  std::set<int32_t> out;
  for (int32_t id = 0; id < mv.document.num_nodes(); ++id) {
    const xml::Node* n = mv.document.node(id);
    if (n != nullptr && n->is_element() && mv.source_node_id[id] >= 0) {
      out.insert(mv.source_node_id[id]);
    }
  }
  return out;
}

struct CompiledRole {
  view::Policy policy;
  view::ViewDefinition view;
};

CompiledRole CompileRole(const xml::Dtd& dtd, const Role& role) {
  auto policy = view::Policy::Parse(dtd, role.policy);
  EXPECT_TRUE(policy.ok()) << role.name << ": " << policy.status().ToString();
  auto view = view::DeriveView(*policy);
  EXPECT_TRUE(view.ok()) << role.name << ": " << view.status().ToString();
  return {policy.MoveValue(), view.MoveValue()};
}

TEST(UpdateResolveTest, RewriteResolvedTargetsEqualMaterializationResolved) {
  uint64_t nonempty = 0, checked = 0, visited_plain = 0, visited_tax = 0;
  for (const Schema& s : {Hospital(), Org()}) {
    const xml::Dtd dtd = DtdOf(s);
    for (uint64_t doc_seed = 1; doc_seed <= 3; ++doc_seed) {
      auto doc = Generate(s, doc_seed * 31, 500);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      const index::TaxIndex tax = index::TaxIndex::Build(*doc);
      eval::DomEvalOptions with_tax;
      with_tax.tax = &tax;
      for (const Role& role : s.roles) {
        const CompiledRole cr = CompileRole(dtd, role);
        auto mv = view::Materialize(cr.view, *doc);
        ASSERT_TRUE(mv.ok()) << mv.status().ToString();
        for (uint64_t q = 0; q < 40; ++q) {
          const auto target = RandomTarget(s, doc_seed * 1000 + q);
          const std::string text = rxpath::ToString(*target);
          const std::set<int32_t> want = NaiveThroughView(*mv, *target);
          auto mfa = rewrite::RewriteToMfa(*target, cr.view, doc->names());
          ASSERT_TRUE(mfa.ok()) << text << ": " << mfa.status().ToString();
          auto plain = eval::EvalHypeDom(*mfa, *doc);
          auto pruning = eval::EvalHypeDom(*mfa, *doc, with_tax);
          ASSERT_TRUE(plain.ok() && pruning.ok()) << text;
          EXPECT_EQ(Ids(plain->answers), want)
              << role.name << " seed " << doc_seed << ": " << text;
          EXPECT_EQ(Ids(pruning->answers), want)
              << role.name << " (TAX) seed " << doc_seed << ": " << text;
          nonempty += want.empty() ? 0 : 1;
          visited_plain += plain->stats.nodes_visited;
          visited_tax += pruning->stats.nodes_visited;
          ++checked;
        }
      }
      // Direct targets: compiled as-is, against naive over the document.
      rxpath::NaiveEvaluator naive(*doc);
      for (uint64_t q = 0; q < 40; ++q) {
        const auto target = RandomTarget(s, doc_seed * 7000 + q);
        auto mfa = automata::Mfa::Compile(*target, doc->names());
        ASSERT_TRUE(mfa.ok()) << mfa.status().ToString();
        auto plain = eval::EvalHypeDom(*mfa, *doc);
        auto pruning = eval::EvalHypeDom(*mfa, *doc, with_tax);
        ASSERT_TRUE(plain.ok() && pruning.ok());
        const std::set<int32_t> want = Ids(naive.Eval(*target));
        EXPECT_EQ(Ids(plain->answers), want) << rxpath::ToString(*target);
        EXPECT_EQ(Ids(pruning->answers), want)
            << "(TAX) " << rxpath::ToString(*target);
        visited_plain += plain->stats.nodes_visited;
        visited_tax += pruning->stats.nodes_visited;
      }
    }
  }
  // The corpus must actually select things and exercise the TAX prune.
  EXPECT_GT(nonempty, checked / 4);
  EXPECT_LT(visited_tax, visited_plain);
}

/// Random edit scripts over random element targets: the region map must
/// agree with the whole-document map on everything the update path asks.
TEST(UpdateResolveTest, RegionAuthorizationEqualsWholeDocumentAccessMap) {
  uint64_t denied = 0, accepted = 0, hidden = 0, scripts = 0;
  for (const Schema& s : {Hospital(), Org()}) {
    const xml::Dtd dtd = DtdOf(s);
    std::vector<xml::Document> fragments;
    for (const std::string& f : s.fragments) {
      auto frag = xml::ParseDocument(f);
      ASSERT_TRUE(frag.ok()) << f;
      fragments.push_back(frag.MoveValue());
    }
    for (uint64_t doc_seed = 1; doc_seed <= 3; ++doc_seed) {
      auto doc = Generate(s, doc_seed * 53, 400);
      ASSERT_TRUE(doc.ok());
      std::vector<const xml::Node*> elements;
      for (int32_t id = 0; id < doc->num_nodes(); ++id) {
        if (doc->node(id)->is_element()) elements.push_back(doc->node(id));
      }
      for (const Role& role : s.roles) {
        const CompiledRole cr = CompileRole(dtd, role);
        const view::AccessMap full =
            view::AccessMap::Compute(cr.policy, *doc);
        auto mv = view::Materialize(cr.view, *doc);
        ASSERT_TRUE(mv.ok());
        const std::set<int32_t> exposed = ProvenanceImage(*mv);
        Rng rng(doc_seed * 17 + scripts);
        for (int round = 0; round < 60; ++round, ++scripts) {
          std::vector<update::ResolvedEdit> script;
          const size_t n = 1 + rng.Uniform(3);
          for (size_t i = 0; i < n; ++i) {
            const auto kind = static_cast<update::OpKind>(rng.Uniform(3));
            script.push_back(
                {kind, elements[rng.Uniform(elements.size())],
                 kind == update::OpKind::kDelete
                     ? nullptr
                     : &fragments[rng.Uniform(fragments.size())]});
          }
          const view::AccessMap region =
              update::EffectRegionAccess(cr.policy, *doc, script);
          const Status want =
              update::AuthorizeScript(cr.policy, full, *doc, script);
          const Status got =
              update::AuthorizeScript(cr.policy, region, *doc, script);
          EXPECT_EQ(got.ToString(), want.ToString()) << role.name;
          (want.ok() ? accepted : denied) += 1;
          const bool want_hidden =
              update::ScriptHiddenFrom(cr.policy, full, *doc, script);
          EXPECT_EQ(update::ScriptHiddenFrom(cr.policy, region, *doc, script),
                    want_hidden)
              << role.name;
          hidden += want_hidden ? 1 : 0;
          // Node by node over the classified region: the same statuses
          // and explain strings, and every node the materialized view
          // exposes is visible (an oracle independent of AccessMap; the
          // converse does not hold: a Y or [q] node under a hidden
          // conditional ancestor is visible yet may not surface).
          for (const update::ResolvedEdit& e : script) {
            std::vector<const xml::Node*> nodes;
            for (const xml::Node* a = e.target; a != nullptr; a = a->parent) {
              nodes.push_back(a);
            }
            if (e.kind != update::OpKind::kInsert) {
              std::vector<const xml::Node*> stack = {e.target};
              while (!stack.empty()) {
                const xml::Node* n = stack.back();
                stack.pop_back();
                nodes.push_back(n);
                for (const xml::Node* c = n->first_child; c != nullptr;
                     c = c->next_sibling) {
                  stack.push_back(c);
                }
              }
            }
            for (const xml::Node* v : nodes) {
              const int32_t id = v->node_id;
              ASSERT_EQ(region.visible(id), full.visible(id))
                  << role.name << " node " << id;
              ASSERT_EQ(region.condition_protected(id),
                        full.condition_protected(id))
                  << role.name << " node " << id;
              ASSERT_EQ(region.DecidingAnnotation(id),
                        full.DecidingAnnotation(id));
              if (v->is_element() && exposed.count(id) > 0) {
                ASSERT_TRUE(region.visible(id))
                    << role.name << " node " << id << " ('"
                    << doc->names()->NameOf(v->label) << "')";
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(denied, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(hidden, 0u);
}

/// The reference update path of one engine document, kept in lockstep
/// with the engine: same text, same ids, same applied scripts.
class ReferenceUpdater {
 public:
  ReferenceUpdater(const Schema& s, const std::string& text)
      : dtd_(DtdOf(s)) {
    auto doc = xml::ParseDocument(text);
    EXPECT_TRUE(doc.ok());
    doc_.emplace(doc.MoveValue());
    for (const Role& role : s.roles) {
      roles_.emplace(role.name, CompileRole(dtd_, role));
    }
  }

  struct Outcome {
    Status status;
    size_t targets = 0;
    std::vector<update::ResolvedEdit> script;
    /// Owns the fragment `script` points to; heap-held so the pointer
    /// survives moves of the Outcome.
    std::unique_ptr<update::UpdateStatement> stmt;
  };

  /// What Update(text) through `view` ("" = direct) should answer, with
  /// the script it would apply.
  Outcome Decide(const std::string& text, const std::string& view) {
    Outcome out;
    auto stmt = update::ParseUpdate(text, doc_->names());
    EXPECT_TRUE(stmt.ok()) << text;
    out.stmt =
        std::make_unique<update::UpdateStatement>(stmt.MoveValue());
    std::set<int32_t> targets;
    if (view.empty()) {
      targets = Ids(rxpath::NaiveEvaluator(*doc_).Eval(*out.stmt->target));
    } else {
      auto mv = view::Materialize(roles_.at(view).view, *doc_);
      EXPECT_TRUE(mv.ok());
      targets = NaiveThroughView(*mv, *out.stmt->target);
    }
    out.targets = targets.size();
    if (targets.empty()) return out;
    const xml::Document* fragment =
        out.stmt->fragment.has_value() ? &*out.stmt->fragment : nullptr;
    for (int32_t id : targets) {
      out.script.push_back({out.stmt->kind, doc_->node(id), fragment});
    }
    if (!view.empty()) {
      const view::Policy& policy = roles_.at(view).policy;
      out.status = update::AuthorizeScript(
          policy, view::AccessMap::Compute(policy, *doc_), *doc_, out.script);
      if (!out.status.ok()) return out;
    }
    update::ApplierOptions opts;
    opts.dtd = &dtd_;
    out.status = update::UpdateApplier(&*doc_, opts).Validate(out.script);
    return out;
  }

  /// Names of the roles whose cached materialization survives `script`.
  std::set<std::string> Retained(
      const std::vector<update::ResolvedEdit>& script) {
    std::set<std::string> out;
    for (const auto& [name, cr] : roles_) {
      if (cr.policy.HasConditions()) continue;
      if (update::ScriptHiddenFrom(cr.policy,
                                   view::AccessMap::Compute(cr.policy, *doc_),
                                   *doc_, script)) {
        out.insert(name);
      }
    }
    return out;
  }

  void Apply(const std::vector<update::ResolvedEdit>& script) {
    update::ApplierOptions opts;
    opts.dtd = &dtd_;
    auto applied = update::UpdateApplier(&*doc_, opts).Run(script);
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
  }

  std::string Xml() const { return xml::SerializeDocument(*doc_); }
  std::string ViewXml(const std::string& view) const {
    auto mv = view::Materialize(roles_.at(view).view, *doc_);
    EXPECT_TRUE(mv.ok());
    return xml::SerializeDocument(mv->document);
  }

 private:
  xml::Dtd dtd_;
  std::optional<xml::Document> doc_;
  std::map<std::string, CompiledRole> roles_;
};

TEST(UpdateResolveTest, FacadeUpdatesMatchTheReferencePath) {
  uint64_t accepted = 0, denied = 0, applied = 0, retained = 0;
  for (const Schema& s : {Hospital(), Org()}) {
    for (uint64_t doc_seed = 1; doc_seed <= 2; ++doc_seed) {
      auto gen = Generate(s, doc_seed * 71, 400);
      ASSERT_TRUE(gen.ok());
      const std::string text = xml::SerializeDocument(*gen);
      for (bool indexed : {false, true}) {
        core::Smoqe engine;
        ASSERT_TRUE(engine.RegisterDtd(s.name, s.dtd_text, s.name).ok());
        ASSERT_TRUE(engine.LoadDocument("doc", text).ok());
        if (indexed) {
          ASSERT_TRUE(engine.BuildIndex("doc").ok());
        }
        for (const Role& role : s.roles) {
          ASSERT_TRUE(engine.DefineView(role.name, s.name, role.policy).ok());
        }
        ReferenceUpdater ref(s, text);
        Rng rng(doc_seed * 5 + (indexed ? 1 : 0));
        uint64_t epoch = 0;
        for (int round = 0; round < 200; ++round) {
          const auto target = RandomTarget(s, rng.Next());
          const std::string fragment =
              s.fragments[rng.Uniform(s.fragments.size())];
          std::string stmt;
          switch (s.pinned.empty() ? rng.Uniform(3) : rng.Uniform(4)) {
            case 3:
              stmt = s.pinned[rng.Uniform(s.pinned.size())];
              break;
            case 0:
              stmt = "delete " + rxpath::ToString(*target);
              break;
            case 1:
              stmt = "insert into " + rxpath::ToString(*target) + " " +
                     fragment;
              break;
            default:
              stmt = "replace " + rxpath::ToString(*target) + " with " +
                     fragment;
              break;
          }
          const size_t pick = rng.Uniform(s.roles.size() + 1);
          core::UpdateOptions opts;
          if (pick < s.roles.size()) {
            opts.view = s.roles[pick].name;
          } else {
            opts.dtd_name = s.name;
          }
          const ReferenceUpdater::Outcome want = ref.Decide(stmt, opts.view);

          opts.dry_run = true;
          auto dry = engine.Update("doc", stmt, opts);
          ASSERT_EQ(dry.status().ToString(), want.status.ToString())
              << stmt << " via '" << opts.view << "'";
          ASSERT_EQ(*engine.DocumentEpoch("doc"), epoch);
          if (!want.status.ok()) {
            denied += want.status.code() == StatusCode::kPermissionDenied;
            continue;
          }
          EXPECT_EQ(dry->stats.targets, want.targets) << stmt;
          if (want.targets == 0) continue;
          ++accepted;
          if (rng.Uniform(2) != 0) continue;

          // A real run, with every view cached first: the document and
          // the retained caches must match the reference.
          for (const Role& role : s.roles) {
            ASSERT_TRUE(engine.MaterializeView("doc", role.name).ok());
          }
          const std::set<std::string> keep = ref.Retained(want.script);
          opts.dry_run = false;
          auto real = engine.Update("doc", stmt, opts);
          ASSERT_TRUE(real.ok()) << stmt << ": " << real.status().ToString();
          ref.Apply(want.script);
          ++epoch;
          ++applied;
          EXPECT_EQ(real->stats.targets, want.targets);
          EXPECT_EQ(real->stats.view_caches_retained, keep.size()) << stmt;
          EXPECT_EQ(real->stats.view_caches_invalidated,
                    s.roles.size() - keep.size())
              << stmt;
          retained += keep.size();
          ASSERT_EQ(*engine.DocumentXml("doc"), ref.Xml()) << stmt;
          for (const Role& role : s.roles) {
            auto mv = engine.MaterializeView("doc", role.name);
            ASSERT_TRUE(mv.ok());
            EXPECT_EQ(mv->cache_hit, keep.count(role.name) > 0) << role.name;
            EXPECT_EQ(mv->xml, ref.ViewXml(role.name)) << role.name;
          }
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(denied, 0u);
  EXPECT_GT(applied, 0u);
  EXPECT_GT(retained, 0u);
}

}  // namespace
}  // namespace smoqe
