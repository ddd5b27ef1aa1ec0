// The output oracle: Q(V(T)) by the reference evaluator over the
// materialized view, for every (document state, role, query) a run can
// observe. Answers are compared as the wire returns them: the source
// subtree of every selected node, serialized, in document order.

#include <cstdio>

#include "bench.h"
#include "src/rxpath/naive_eval.h"
#include "src/rxpath/parser.h"
#include "src/view/annotation.h"
#include "src/view/derive.h"
#include "src/view/materialize.h"
#include "src/workload/workloads.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace smoqebench {

using namespace smoqe;

void Digest::Add(const std::string& answer) {
  auto mix = [this](unsigned char c) {
    hash ^= c;
    hash *= 1099511628211ull;
  };
  const uint64_t n = answer.size();
  for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(n >> (8 * i)));
  for (char c : answer) mix(static_cast<unsigned char>(c));
  ++count;
}

namespace {

std::unique_ptr<core::Smoqe> ScratchEngine(const Inputs& in) {
  core::EngineOptions o;
  o.max_threads = 1;
  o.telemetry.enabled = false;
  auto e = std::make_unique<core::Smoqe>(o);
  const Role& w = in.roles[in.writer_role];
  if (!e->RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok() ||
      !e->LoadDocument("ward", in.doc_text).ok() ||
      !e->DefineView(w.name, "hospital", w.policy).ok()) {
    Fail("oracle: scratch engine set-up failed");
  }
  return e;
}

std::string DocXml(core::Smoqe& e) {
  auto x = e.DocumentXml("ward");
  if (!x.ok()) Fail("oracle: DocumentXml: " + x.status().ToString());
  return x.MoveValue();
}

/// Applies one writer cycle to a fresh scratch engine. Returns false when
/// an accepted update selects nothing (the variant is unusable on this
/// document); Fail()s when an outcome contradicts the cycle's design.
bool ApplyCycle(const Inputs& in, const std::vector<UpdateOp>& cycle,
                std::vector<std::string>* states, std::string* targets) {
  auto e = ScratchEngine(in);
  states->assign(3, "");
  (*states)[0] = DocXml(*e);
  core::UpdateOptions uo;
  uo.view = in.roles[in.writer_role].name;
  for (const UpdateOp& op : cycle) {
    auto r = e->Update("ward", op.stmt, uo);
    if (op.expect_accept) {
      if (!r.ok()) {
        Fail("oracle: expected accept, got " + r.status().ToString() +
             " for: " + op.stmt);
      }
      if (r->stats.targets == 0) return false;
      *targets += " " + std::to_string(r->stats.targets);
      std::string xml = DocXml(*e);
      if (op.state_after == 0) {
        if (xml != (*states)[0]) Fail("oracle: cycle did not restore: " + op.stmt);
      } else {
        (*states)[op.state_after] = std::move(xml);
      }
    } else if (r.ok() ||
               r.status().code() != StatusCode::kPermissionDenied) {
      Fail("oracle: expected PermissionDenied, got " +
           (r.ok() ? std::string("OK") : r.status().ToString()) +
           " for: " + op.stmt);
    }
  }
  return true;
}

}  // namespace

Oracle BuildOracle(Inputs* in) {
  Oracle out;
  bool ok = false;
  for (int v = 0; v < 36 && !ok; ++v) {
    std::vector<UpdateOp> cycle = WriterCycleVariant(v);
    std::string targets;
    if (ApplyCycle(*in, cycle, &out.state_xml, &targets)) {
      in->writer_cycle = std::move(cycle);
      ok = true;
      std::printf("# writer cycle: variant %d, targets of the accepted updates:%s\n",
                  v, targets.c_str());
    }
  }
  if (!ok) Fail("oracle: no writer-cycle variant selects nodes on this document");

  xml::Dtd dtd = workload::HospitalDtd();
  // Only rw_mix reads while the document changes; the other workloads
  // read state 0 only (their write probe runs after the reads).
  const int states = in->workload == Workload::kRwMix ? in->num_states : 1;
  out.expected.resize(states);
  uint64_t leaky = 0, view_answers = 0;
  for (int s = 0; s < states; ++s) {
    auto parsed = xml::ParseDocument(out.state_xml[s]);
    if (!parsed.ok()) Fail("oracle: reparse: " + parsed.status().ToString());
    const xml::Document& doc = *parsed;
    out.expected[s].resize(in->roles.size());
    for (size_t r = 0; r < in->roles.size(); ++r) {
      if (in->queries[r].empty()) continue;
      auto policy = view::Policy::Parse(dtd, in->roles[r].policy);
      if (!policy.ok()) Fail("oracle: policy: " + policy.status().ToString());
      auto def = view::DeriveView(*policy);
      if (!def.ok()) Fail("oracle: derive: " + def.status().ToString());
      auto mv = view::Materialize(*def, doc);
      if (!mv.ok()) Fail("oracle: materialize: " + mv.status().ToString());
      for (const std::string& qtext : in->queries[r]) {
        auto q = rxpath::ParseQuery(qtext);
        if (!q.ok()) Fail("oracle: query parse: " + qtext);
        rxpath::NaiveEvaluator naive(mv->document);
        std::vector<std::pair<int32_t, const xml::Node*>> hits;
        for (const xml::Node* n : naive.Eval(**q)) {
          const int32_t src = mv->source_node_id[n->node_id];
          if (src >= 0) hits.emplace_back(src, n);
        }
        // A freshly parsed document numbers nodes in document order.
        std::sort(hits.begin(), hits.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        Digest d;
        for (const auto& [src, vnode] : hits) {
          const std::string source_xml =
              xml::SerializeNode(doc.node(src), *doc.names());
          d.Add(source_xml);
          if (s == 0) {
            ++view_answers;
            if (source_xml != xml::SerializeNode(vnode, *mv->document.names())) {
              ++leaky;
            }
          }
        }
        if (s == 0) out.answers_total += d.count;
        out.expected[s][r].push_back(d);
      }
    }
  }
  // Answers carry the whole source subtree of each selected node, which
  // can include descendants the view hides or restructures. The oracle
  // compares what the wire returns (the selection ≡ Q(V(T)) through
  // provenance); this line keeps the content gap visible without failing
  // the run.
  std::printf("# oracle: %llu reference answers in state 0; %llu differ "
              "from their view's own rendering of the node\n",
              static_cast<unsigned long long>(view_answers),
              static_cast<unsigned long long>(leaky));
  return out;
}

}  // namespace smoqebench
