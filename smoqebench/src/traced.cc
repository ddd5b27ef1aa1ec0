// The traced run (--trace 1). It measures the layers from the benchmark's
// own code, around calls into each module's public functions:
//
//  1. stage-timed set-up: XML parse, TAX build, view derivation;
//  2. two untraced and two traced load phases of the workload's own
//     traffic, alternating (generator lateness; tracing overhead);
//  3. a sample of the workload's requests on a fresh deployment, each
//     sent over the wire (server.roundtrip), through an identical
//     in-process library engine (core.query / core.batch / core.update),
//     and replayed stage by stage on a replica document (ParseQuery,
//     PlanCache::Lookup, RewriteToMfa, EvalHypeDom with TaxIndex,
//     SerializeNode, BatchEvaluator::RunParallel, ParseUpdate,
//     Materialize + NaiveEvaluator, Document::Clone, AccessMap::Compute +
//     AuthorizeScript, UpdateApplier::Run, TaxIndex::RepairAfterEdit).
//     Stages the workload does not exercise get a short fixed sweep of
//     the other request kinds, so every layer metric has a value.
//
// Spans stay in memory and are written as JSON lines at the end.

#include <cmath>
#include <cstdio>
#include <optional>
#include <random>
#include <set>

#include "bench.h"
#include "src/common/thread_pool.h"
#include "src/eval/batch.h"
#include "src/eval/hype_dom.h"
#include "src/index/tax.h"
#include "src/rewrite/rewriter.h"
#include "src/rxpath/naive_eval.h"
#include "src/rxpath/parser.h"
#include "src/rxpath/printer.h"
#include "src/rxpath/type_check.h"
#include "src/update/applier.h"
#include "src/update/authorize.h"
#include "src/update/update_lang.h"
#include "src/view/access.h"
#include "src/view/annotation.h"
#include "src/view/derive.h"
#include "src/view/materialize.h"
#include "src/workload/workloads.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "src/xml/stax.h"

namespace smoqebench {

using namespace smoqe;
namespace wire = smoqe::server;

namespace {

int64_t NsNow() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin)
      .count();
}

/// In-memory span store. Disabled recorders (warm-up passes) keep nothing.
class Recorder {
 public:
  explicit Recorder(std::vector<Span>* out) : out_(out) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  size_t Open(uint64_t request, const char* name, uint64_t parent) {
    if (!enabled_) return SIZE_MAX;
    Span s;
    s.request = request;
    s.id = ++next_id_;
    s.parent = parent;
    s.name = name;
    s.start_ns = NsNow();
    out_->push_back(std::move(s));
    return out_->size() - 1;
  }
  void Close(size_t i) {
    if (i != SIZE_MAX) (*out_)[i].end_ns = NsNow();
  }
  uint64_t IdOf(size_t i) const { return i == SIZE_MAX ? 0 : (*out_)[i].id; }
  void Count(size_t i, const char* key, double v) {
    if (i != SIZE_MAX) (*out_)[i].counts[key] += v;
  }

 private:
  std::vector<Span>* out_;
  bool enabled_ = true;
  uint64_t next_id_ = 1u << 30;  // above the load phases' ids
};

/// RAII span.
class Scope {
 public:
  Scope(Recorder* r, uint64_t request, const char* name, uint64_t parent)
      : r_(r), i_(r->Open(request, name, parent)) {}
  ~Scope() { r_->Close(i_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  uint64_t id() const { return r_->IdOf(i_); }
  void Count(const char* key, double v) { r_->Count(i_, key, v); }

 private:
  Recorder* r_;
  size_t i_;
};

/// One request of the traced sample.
struct Req {
  enum Kind { kQuery, kBatch, kUpdate } kind = kQuery;
  int role = 0;
  std::vector<int> qs;  // query indices (1 for kQuery, kBatchItems for kBatch)
  bool tax = false;
  bool own = true;      // false = sweep request of another kind
};

/// The replica's per-view caches, keyed by document epoch as the
/// facade's view cache is: an update at the epoch of the previous one
/// reuses its materialization and access map.
struct ViewCache {
  std::optional<view::MaterializedView> mv;
  uint64_t mv_epoch = 0;
  std::optional<view::AccessMap> access;
  uint64_t access_epoch = 0;
};

/// The benchmark's replica of the engine state: the same document,
/// index, views, view caches and plan cache, driven stage by stage.
struct Replica {
  std::shared_ptr<xml::NameTable> names = xml::NameTable::Create();
  std::unique_ptr<xml::Dtd> dtd;
  std::unique_ptr<xml::Document> doc;
  std::string text;
  std::optional<index::TaxIndex> tax;
  std::vector<view::Policy> policies;
  std::vector<view::ViewDefinition> views;
  std::vector<ViewCache> view_caches;  // per role
  core::PlanCache cache{kPlanCacheCapacity};
  std::unique_ptr<ThreadPool> pool;
  int state = 0;
};

/// Samples for one metric family.
struct Stats {
  std::map<std::string, std::vector<double>> v;
  void Add(const std::string& k, double x) { v[k].push_back(x); }
  double Med(const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0 : Median(it->second);
  }
  double Mean(const std::string& k) const {
    auto it = v.find(k);
    if (it == v.end() || it->second.empty()) return 0;
    double s = 0;
    for (double x : it->second) s += x;
    return s / static_cast<double>(it->second.size());
  }
};

class Tracer {
 public:
  Tracer(const Inputs& in, const Oracle& oracle, const Sizing& sz)
      : in_(in), oracle_(oracle), sz_(sz), rec_(&spans_) {}

  std::vector<Metric> Run(double seconds, const std::string& span_path,
                               uint64_t* attempted, uint64_t* failed,
                               bool* correct);

 private:
  void TimedSetup();
  void LoadPhases(double seconds);
  void Sample();
  std::vector<Req> MakeStream(size_t warm, size_t traced);
  void Execute(const Req& r, bool traced);
  void ExecQuery(const Req& r, uint64_t id, uint64_t root);
  void ExecBatch(const Req& r, uint64_t id, uint64_t root);
  void ExecUpdate(const Req& r, uint64_t id, uint64_t root);
  Wire& ConnFor(int role);
  void Mismatch(const std::string& what);
  /// Plan lookup + compile-on-miss through the replica's cache; returns
  /// the plan. Probes (rewrite / compile of the same query) are recorded
  /// under `probe` when traced.
  std::shared_ptr<const core::CompiledPlan> Plan(int role, const std::string& text,
                                                 uint64_t id, uint64_t replay,
                                                 uint64_t probe);
  std::vector<Metric> Metrics() const;

  const Inputs& in_;
  const Oracle& oracle_;
  const Sizing& sz_;
  std::vector<Span> spans_;
  Recorder rec_;
  Stats setup_;
  LoadResult untraced_, traced_;
  std::unique_ptr<Deployment> dep_;
  std::unique_ptr<core::Smoqe> lib_;  // the facade-only twin of dep_'s engine
  Replica rep_;
  std::unique_ptr<Wire> conn_;
  int conn_role_ = -1;
  size_t writer_pos_ = 0;
  uint64_t next_request_ = 1u << 29;
  uint64_t attempted_ = 0, failed_ = 0, hits_ = 0, lookups_ = 0;
  std::vector<std::string> errors_;
};

void Tracer::Mismatch(const std::string& what) {
  ++failed_;
  if (errors_.size() < 5) errors_.push_back(what);
}

void Tracer::TimedSetup() {
  xml::Dtd dtd = workload::HospitalDtd();
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t id = next_request_++;
    Scope root(&rec_, id, "setup", 0);
    xml::ParseOptions po;
    po.names = xml::NameTable::Create();
    Clock::time_point t0 = Clock::now();
    std::optional<xml::Document> doc;
    {
      Scope s(&rec_, id, "xml.parse", root.id());
      auto parsed = xml::ParseXml(in_.doc_text, po);
      if (!parsed.ok()) Fail("traced: parse: " + parsed.status().ToString());
      doc.emplace(std::move(parsed->document));
    }
    setup_.Add("xml.parse_ms", MsSince(t0));
    t0 = Clock::now();
    {
      Scope s(&rec_, id, "index.tax_build", root.id());
      index::TaxIndex tax = index::TaxIndex::Build(*doc);
      s.Count("elements", static_cast<double>(tax.num_elements()));
    }
    setup_.Add("index.tax_build_ms", MsSince(t0));
    t0 = Clock::now();
    {
      Scope s(&rec_, id, "view.derive", root.id());
      for (const Role& role : in_.roles) {
        auto p = view::Policy::Parse(dtd, role.policy);
        if (!p.ok() || !view::DeriveView(*p).ok()) Fail("traced: derive " + role.name);
      }
      s.Count("views", static_cast<double>(in_.roles.size()));
    }
    setup_.Add("view.derive_ms", MsSince(t0));
  }
}

void Tracer::LoadPhases(double seconds) {
  double s = 0;
  dep_ = SetUp(in_, sz_, &s);
  RunState rs;
  rs.epoch_state[0] = 0;
  const bool rw = in_.workload == Workload::kRwMix;
  LoadOptions opt;
  opt.seconds = 1;
  opt.writer = rw;
  opt.stream = 11;
  LoadResult warm = RunLoad(in_, oracle_, *dep_, sz_, opt, &rs);
  attempted_ += warm.reads + warm.writes;
  failed_ += warm.failed;
  // Alternate untraced and traced phases so drift hits both alike.
  for (int phase = 0; phase < 4; ++phase) {
    opt.seconds = seconds / 4;
    opt.stream = 12 + static_cast<uint64_t>(phase);
    opt.spans = phase % 2 ? &spans_ : nullptr;
    LoadResult r = RunLoad(in_, oracle_, *dep_, sz_, opt, &rs);
    attempted_ += r.reads + r.writes;
    failed_ += r.failed;
    for (const std::string& e : r.errors) {
      if (errors_.size() < 5) errors_.push_back(e);
    }
    (phase % 2 ? traced_ : untraced_).Merge(r);
  }
  dep_.reset();
}

std::vector<Req> Tracer::MakeStream(size_t warm, size_t traced) {
  std::mt19937_64 rng(in_.seed * 31 + 17);
  std::vector<Req> out;
  const Workload w = in_.workload;
  auto read_role = [&](size_t i) {
    return in_.reader_roles[i % in_.reader_roles.size()];
  };
  auto query = [&](int role) {
    Req r;
    r.kind = Req::kQuery;
    r.role = role;
    r.qs = {static_cast<int>(rng() % in_.queries[role].size())};
    r.tax = rng() & 1;
    return r;
  };
  auto batch = [&](int role) {
    Req r;
    r.kind = Req::kBatch;
    r.role = role;
    for (int i = 0; i < kBatchItems; ++i) {
      r.qs.push_back(static_cast<int>(rng() % in_.queries[role].size()));
    }
    return r;
  };
  Req update;
  update.kind = Req::kUpdate;
  update.role = in_.writer_role;

  for (size_t i = 0; i < warm + traced; ++i) {
    if (w == Workload::kStreamBatch) {
      out.push_back(batch(read_role(i)));
    } else if (i % 3 == 2) {  // rw_mix: one update per two queries
      out.push_back(update);
    } else {
      out.push_back(query(read_role(i)));
    }
  }
  // The sweep: request kinds the workload does not send itself.
  if (w == Workload::kStreamBatch) {
    for (int i = 0; i < 16; ++i) {
      Req r = query(read_role(static_cast<size_t>(i)));
      r.own = false;
      out.push_back(r);
    }
    for (size_t i = 0; i < in_.writer_cycle.size(); ++i) {
      Req r = update;
      r.own = false;
      out.push_back(r);
    }
  } else {
    for (int i = 0; i < 2; ++i) {
      Req r = batch(read_role(static_cast<size_t>(i)));
      r.own = false;
      out.push_back(r);
    }
  }
  return out;
}

Wire& Tracer::ConnFor(int role) {
  if (conn_ == nullptr || conn_role_ != role) {
    conn_.reset();
    conn_ = std::make_unique<Wire>(dep_->server->port(), in_.roles[role].name);
    conn_role_ = role;
  }
  return *conn_;
}

std::shared_ptr<const core::CompiledPlan> Tracer::Plan(int role,
                                                       const std::string& text,
                                                       uint64_t id,
                                                       uint64_t replay,
                                                       uint64_t probe) {
  std::unique_ptr<rxpath::PathExpr> q;
  {
    Scope s(&rec_, id, "rxpath.parse", replay);
    auto parsed = rxpath::ParseQuery(text);
    if (!parsed.ok()) Fail("traced: parse " + text);
    q = parsed.MoveValue();
  }
  const view::ViewDefinition& def = rep_.views[role];
  core::PlanCache::Key key;
  key.view = in_.roles[role].name;
  std::shared_ptr<const core::CompiledPlan> plan;
  {
    Scope s(&rec_, id, "core.plan_lookup", replay);
    key.normalized_query = rxpath::ToString(*q);
    plan = rep_.cache.Lookup(key);
    s.Count("hit", plan != nullptr);
  }
  if (rec_.enabled()) {
    ++lookups_;
    if (plan != nullptr) ++hits_;
  }
  if (plan == nullptr) {
    Scope s(&rec_, id, "core.compile", replay);
    auto compiled = std::make_shared<core::CompiledPlan>();
    rxpath::TypeCheckResult tc =
        rxpath::TypeCheck(*q, def.view_dtd(), {}, /*from_document_node=*/true);
    compiled->unknown_labels.assign(tc.unknown_labels.begin(), tc.unknown_labels.end());
    auto mfa = rewrite::RewriteToMfa(*q, def, rep_.names);
    if (!mfa.ok()) Fail("traced: rewrite " + text);
    compiled->mfa = mfa.MoveValue();
    compiled->normalized_query = key.normalized_query;
    plan = rep_.cache.Insert(key, std::move(compiled));
  }
  if (rec_.enabled()) {
    // Probes: what the rewrite and an untyped compile of this query cost,
    // whether or not the cache spared them (not part of the replay).
    {
      Scope s(&rec_, id, "rewrite.rewrite", probe);
      auto mfa = rewrite::RewriteToMfa(*q, def, rep_.names);
      if (mfa.ok()) s.Count("mfa_states", static_cast<double>(mfa->TotalStates()));
    }
    {
      Scope s(&rec_, id, "automata.compile", probe);
      auto mfa = automata::Mfa::Compile(*q, rep_.names);
      if (mfa.ok()) s.Count("mfa_states", static_cast<double>(mfa->TotalStates()));
    }
  }
  return plan;
}

void Tracer::ExecQuery(const Req& r, uint64_t id, uint64_t root) {
  const std::string& text = in_.queries[r.role][r.qs[0]];
  const Digest& expect = oracle_.expected[rep_.state][r.role][r.qs[0]];
  Digest over_wire, via_lib, replayed;
  {
    wire::QueryRequest req;
    req.doc = "ward";
    req.query = text;
    req.use_tax = r.tax;
    Wire& conn = ConnFor(r.role);
    std::optional<wire::QueryResponse> resp;
    {
      Scope rt(&rec_, id, "server.roundtrip", root);
      wire::RawFrame f = conn.Call(wire::Encode(req));
      rt.Count("response_bytes", static_cast<double>(f.body.size() + 5));
      Scope dec(&rec_, id, "server.decode", rt.id());
      auto d = wire::DecodeQueryResponse(f.body);
      if (d.ok()) resp = d.MoveValue();
    }
    if (!resp || resp->code != wire::WireCode::kOk) {
      Mismatch("traced query failed over the wire: " + text);
      return;
    }
    {
      Scope enc(&rec_, id, "server.encode", root);
      std::string again = wire::Encode(*resp);
      enc.Count("bytes", static_cast<double>(again.size()));
    }
    for (const std::string& a : resp->answers_xml) over_wire.Add(a);
  }
  {
    core::QueryOptions opts;
    opts.view = in_.roles[r.role].name;
    opts.use_tax = r.tax;
    Scope fc(&rec_, id, "core.query", root);
    auto ans = lib_->Query("ward", text, opts);
    if (!ans.ok()) {
      Mismatch("traced query failed in the library: " + text);
      return;
    }
    for (const std::string& a : ans->answers_xml) via_lib.Add(a);
  }
  Scope probe(&rec_, id, "probe", root);
  Scope rp(&rec_, id, "replay", root);
  auto plan = Plan(r.role, text, id, rp.id(), probe.id());
  eval::DomEvalResult res;
  {
    Scope s(&rec_, id, "eval.dom", rp.id());
    eval::DomEvalOptions o;
    if (r.tax) o.tax = &*rep_.tax;
    auto e = eval::EvalHypeDom(plan->mfa, *rep_.doc, o);
    if (!e.ok()) Fail("traced: eval " + text);
    res = e.MoveValue();
    s.Count("nodes_visited", static_cast<double>(res.stats.nodes_visited));
    s.Count("nodes_pruned", static_cast<double>(res.stats.nodes_pruned));
    s.Count("answers", static_cast<double>(res.answers.size()));
    s.Count("tax", r.tax);
  }
  {
    Scope s(&rec_, id, "xml.serialize", rp.id());
    double bytes = 0;
    for (const xml::Node* n : res.answers) {
      std::string x = xml::SerializeNode(n, *rep_.names);
      bytes += static_cast<double>(x.size());
      replayed.Add(x);
    }
    s.Count("bytes", bytes);
  }
  if (!(over_wire == expect) || !(via_lib == expect) || !(replayed == expect)) {
    Mismatch("traced answers differ from the oracle: " + text);
  }
}

void Tracer::ExecBatch(const Req& r, uint64_t id, uint64_t root) {
  std::vector<Digest> over_wire(r.qs.size()), via_lib(r.qs.size()),
      replayed(r.qs.size());
  {
    wire::QueryBatchRequest req;
    req.doc = "ward";
    for (int q : r.qs) {
      wire::BatchItem item;
      item.query = in_.queries[r.role][q];
      item.mode = wire::WireEvalMode::kStax;
      req.items.push_back(std::move(item));
    }
    Wire& conn = ConnFor(r.role);
    std::optional<wire::QueryBatchResponse> resp;
    {
      Scope rt(&rec_, id, "server.roundtrip", root);
      wire::RawFrame f = conn.Call(wire::Encode(req));
      rt.Count("response_bytes", static_cast<double>(f.body.size() + 5));
      Scope dec(&rec_, id, "server.decode", rt.id());
      auto d = wire::DecodeQueryBatchResponse(f.body);
      if (d.ok()) resp = d.MoveValue();
    }
    if (!resp || resp->code != wire::WireCode::kOk || resp->items.size() != r.qs.size()) {
      Mismatch("traced batch failed over the wire");
      return;
    }
    {
      Scope enc(&rec_, id, "server.encode", root);
      std::string again = wire::Encode(*resp);
      enc.Count("bytes", static_cast<double>(again.size()));
    }
    for (size_t i = 0; i < r.qs.size(); ++i) {
      for (const std::string& a : resp->items[i].answers_xml) over_wire[i].Add(a);
    }
  }
  {
    std::vector<core::BatchQueryItem> items;
    for (int q : r.qs) {
      core::BatchQueryItem item;
      item.query = in_.queries[r.role][q];
      item.options.view = in_.roles[r.role].name;
      item.options.mode = core::EvalMode::kStax;
      items.push_back(std::move(item));
    }
    Scope fc(&rec_, id, "core.batch", root);
    auto ans = lib_->QueryBatch("ward", items);
    if (!ans.ok()) {
      Mismatch("traced batch failed in the library");
      return;
    }
    for (size_t i = 0; i < r.qs.size(); ++i) {
      for (const std::string& a : (*ans)[i].answers_xml) via_lib[i].Add(a);
    }
  }
  Scope probe(&rec_, id, "probe", root);
  Scope rp(&rec_, id, "replay", root);
  std::vector<std::shared_ptr<const core::CompiledPlan>> plans;
  for (int q : r.qs) {
    plans.push_back(Plan(r.role, in_.queries[r.role][q], id, rp.id(), probe.id()));
  }
  {
    Scope s(&rec_, id, "eval.stax_batch", rp.id());
    eval::BatchEvaluator batch;
    for (const auto& p : plans) batch.AddPlan(&p->mfa);
    eval::BatchParallelOptions par;
    par.pool = rep_.pool.get();
    auto res = rep_.pool != nullptr ? batch.RunParallel(rep_.text, par)
                                    : batch.Run(rep_.text);
    if (!res.ok()) Fail("traced: batch eval: " + res.status().ToString());
    double cans = 0;
    for (size_t i = 0; i < res->size(); ++i) {
      for (const eval::StaxAnswer& a : (*res)[i].answers) replayed[i].Add(a.xml);
      cans = std::max(cans, static_cast<double>((*res)[i].stats.buffered_bytes));
    }
    s.Count("cans_peak_bytes", cans);
    s.Count("plans", static_cast<double>(plans.size()));
  }
  if (rec_.enabled()) {
    Scope s(&rec_, id, "xml.stax_tokenize", probe.id());
    xml::StaxReader reader(rep_.text);
    double events = 0;
    for (;;) {
      auto ev = reader.Next();
      if (!ev.ok()) Fail("traced: tokenize: " + ev.status().ToString());
      if (*ev == xml::StaxEvent::kEndDocument) break;
      ++events;
    }
    s.Count("events", events);
  }
  for (size_t i = 0; i < r.qs.size(); ++i) {
    const Digest& expect = oracle_.expected[rep_.state][r.role][r.qs[i]];
    if (!(over_wire[i] == expect) || !(via_lib[i] == expect) ||
        !(replayed[i] == expect)) {
      Mismatch("traced batch item differs from the oracle: " +
               in_.queries[r.role][r.qs[i]]);
    }
  }
}

void Tracer::ExecUpdate(const Req& r, uint64_t id, uint64_t root) {
  const UpdateOp& op = in_.writer_cycle[writer_pos_++ % in_.writer_cycle.size()];
  const std::string& view_name = in_.roles[r.role].name;
  bool wire_ok = false, lib_ok = false, replay_ok = false;
  {
    wire::UpdateRequest req;
    req.doc = "ward";
    req.statement = op.stmt;
    Wire& conn = ConnFor(r.role);
    Scope rt(&rec_, id, "server.roundtrip", root);
    wire::RawFrame f = conn.Call(wire::Encode(req));
    Scope dec(&rec_, id, "server.decode", rt.id());
    auto d = wire::DecodeUpdateResponse(f.body);
    wire_ok = d.ok() && d->code == wire::WireCode::kOk;
    if (d.ok() && !wire_ok && d->code != wire::WireCode::kPermissionDenied) {
      Mismatch("traced update failed over the wire: " + d->error);
    }
  }
  {
    core::UpdateOptions uo;
    uo.view = view_name;
    Scope fc(&rec_, id, "core.update", root);
    auto res = lib_->Update("ward", op.stmt, uo);
    lib_ok = res.ok();
  }
  Scope probe(&rec_, id, "probe", root);
  Scope rp(&rec_, id, "replay", root);
  update::UpdateStatement stmt;
  {
    Scope s(&rec_, id, "update.parse", rp.id());
    auto p = update::ParseUpdate(op.stmt, rep_.names);
    if (!p.ok()) Fail("traced: update parse: " + op.stmt);
    stmt = p.MoveValue();
  }
  ViewCache& vc = rep_.view_caches[r.role];
  const uint64_t epoch = rep_.doc->epoch();
  std::set<int32_t> targets;
  {
    Scope s(&rec_, id, "update.resolve", rp.id());
    const bool hit = vc.mv.has_value() && vc.mv_epoch == epoch;
    s.Count("view_cache_hit", hit);
    if (!hit) {
      Scope m(&rec_, id, "view.materialize", s.id());
      auto made = view::Materialize(rep_.views[r.role], *rep_.doc);
      if (!made.ok()) Fail("traced: materialize: " + made.status().ToString());
      vc.mv.emplace(made.MoveValue());
      vc.mv_epoch = epoch;
    }
    const view::MaterializedView* mv = &*vc.mv;
    rxpath::NaiveEvaluator naive(mv->document);
    for (const xml::Node* n : naive.Eval(*stmt.target)) {
      const int32_t src = mv->source_node_id[n->node_id];
      if (src >= 0) targets.insert(src);
    }
    s.Count("targets", static_cast<double>(targets.size()));
  }
  if (!targets.empty()) {
    std::optional<xml::Document> clone;
    {
      Scope s(&rec_, id, "update.clone", rp.id());
      clone.emplace(rep_.doc->Clone());
    }
    const xml::Document* fragment = stmt.fragment ? &*stmt.fragment : nullptr;
    std::vector<update::ResolvedEdit> script;
    for (int32_t t : targets) {
      script.push_back({stmt.kind, clone->mutable_node(t), fragment});
    }
    Status auth;
    {
      Scope s(&rec_, id, "update.authorize", rp.id());
      const bool hit = vc.access.has_value() && vc.access_epoch == epoch;
      s.Count("access_cache_hit", hit);
      if (!hit) {
        Scope a(&rec_, id, "view.access_map", s.id());
        vc.access.emplace(view::AccessMap::Compute(rep_.policies[r.role], *rep_.doc));
        vc.access_epoch = epoch;
      }
      auth = update::AuthorizeScript(rep_.policies[r.role], *vc.access, *clone, script);
    }
    if (auth.ok()) {
      // Dirty parents and retired ids, for the incremental TAX repair.
      std::vector<int32_t> parents, retired;
      for (const update::ResolvedEdit& e : script) {
        if (e.kind == update::OpKind::kInsert) {
          parents.push_back(e.target->node_id);
          continue;
        }
        parents.push_back(e.target->parent->node_id);
        std::vector<const xml::Node*> stack = {e.target};
        while (!stack.empty()) {
          const xml::Node* n = stack.back();
          stack.pop_back();
          retired.push_back(n->node_id);
          for (const xml::Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
            stack.push_back(c);
          }
        }
      }
      update::ApplierOptions ao;
      ao.dtd = rep_.dtd.get();
      {
        Scope s(&rec_, id, "update.validate", probe.id());
        update::UpdateApplier check(&*clone, ao);
        if (!check.Validate(script).ok()) Fail("traced: validate: " + op.stmt);
      }
      std::optional<index::TaxIndex> tax;
      {
        Scope s(&rec_, id, "index.tax_copy", rp.id());
        tax.emplace(*rep_.tax);
      }
      const int32_t first_new_id = clone->num_nodes();  // grafts get ids from here
      {
        Scope s(&rec_, id, "update.apply", rp.id());
        update::UpdateApplier applier(&*clone, ao);
        auto applied = applier.Run(script);
        if (!applied.ok()) Fail("traced: apply: " + applied.status().ToString());
        s.Count("nodes_inserted", static_cast<double>(applied->nodes_inserted));
        s.Count("nodes_deleted", static_cast<double>(applied->nodes_deleted));
      }
      {
        Scope s(&rec_, id, "index.tax_repair", rp.id());
        double sets = 0;
        std::sort(parents.begin(), parents.end());
        parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
        for (size_t i = 0; i < parents.size(); ++i) {
          const xml::Node* p = clone->node(parents[i]);
          std::vector<const xml::Node*> grafted;
          for (const xml::Node* c = p->first_child; c != nullptr; c = c->next_sibling) {
            if (c->node_id >= first_new_id) grafted.push_back(c);
          }
          sets += static_cast<double>(tax->RepairAfterEdit(
              *clone, p, grafted, i == 0 ? retired : std::vector<int32_t>{}));
        }
        s.Count("sets_recomputed", sets);
      }
      {
        Scope s(&rec_, id, "index.tax_verify", probe.id());
        if (!tax->EquivalentTo(index::TaxIndex::Build(*clone))) {
          Mismatch("replayed TAX repair differs from a rebuild: " + op.stmt);
        }
      }
      rep_.doc = std::make_unique<xml::Document>(std::move(*clone));
      rep_.tax = std::move(tax);
      replay_ok = true;
    }
  }
  if (replay_ok) {
    rep_.state = op.state_after;
    rep_.text = xml::SerializeDocument(*rep_.doc);
    if (rep_.text != oracle_.state_xml[rep_.state]) {
      Mismatch("replayed document differs from the oracle state after: " + op.stmt);
    }
  }
  if (wire_ok != op.expect_accept || lib_ok != op.expect_accept ||
      replay_ok != op.expect_accept) {
    Mismatch("traced update outcome differs from its expectation: " + op.stmt);
  }
}

void Tracer::Execute(const Req& r, bool traced) {
  rec_.set_enabled(traced);
  const uint64_t id = next_request_++;
  ++attempted_;
  Scope root(&rec_, id, "request", 0);
  root.Count(r.kind == Req::kQuery ? "query" : r.kind == Req::kBatch ? "batch" : "update", 1);
  root.Count("own", r.own);
  switch (r.kind) {
    case Req::kQuery: ExecQuery(r, id, root.id()); break;
    case Req::kBatch: ExecBatch(r, id, root.id()); break;
    case Req::kUpdate: ExecUpdate(r, id, root.id()); break;
  }
}

void Tracer::Sample() {
  double s = 0;
  dep_ = SetUp(in_, sz_, &s);
  core::EngineOptions eo;
  eo.max_threads = sz_.pool_threads;
  eo.plan_cache_capacity = kPlanCacheCapacity;
  lib_ = std::make_unique<core::Smoqe>(eo);
  Status st = lib_->RegisterDtd("hospital", workload::kHospitalDtd, "hospital");
  if (st.ok()) st = lib_->LoadDocument("ward", in_.doc_text);
  if (st.ok()) st = lib_->BuildIndex("ward");
  for (const Role& role : in_.roles) {
    if (st.ok()) st = lib_->DefineView(role.name, "hospital", role.policy);
  }
  if (!st.ok()) Fail("traced: library engine: " + st.ToString());

  rep_.dtd = std::make_unique<xml::Dtd>(workload::HospitalDtd());
  xml::ParseOptions po;
  po.names = rep_.names;
  auto parsed = xml::ParseDocument(in_.doc_text, po);
  if (!parsed.ok()) Fail("traced: replica parse");
  rep_.doc = std::make_unique<xml::Document>(parsed.MoveValue());
  rep_.text = in_.doc_text;
  rep_.tax.emplace(index::TaxIndex::Build(*rep_.doc));
  for (const Role& role : in_.roles) {
    auto p = view::Policy::Parse(*rep_.dtd, role.policy);
    if (!p.ok()) Fail("traced: policy " + role.name);
    rep_.policies.push_back(p.MoveValue());
  }
  for (const view::Policy& p : rep_.policies) {
    auto d = view::DeriveView(p);
    if (!d.ok()) Fail("traced: derive");
    rep_.views.push_back(d.MoveValue());
  }
  rep_.view_caches.resize(rep_.views.size());
  if (sz_.pool_threads > 1) rep_.pool = std::make_unique<ThreadPool>(sz_.pool_threads);

  // Warm requests fill the three plan caches alike; the traced ones follow.
  const bool batch = in_.workload == Workload::kStreamBatch;
  const size_t warm = batch ? 2 : 12, traced = batch ? 8 : 36;
  std::vector<Req> stream = MakeStream(warm, traced);
  for (size_t i = 0; i < stream.size(); ++i) Execute(stream[i], i >= warm);
  conn_.reset();
  dep_.reset();
}

std::vector<Metric> Tracer::Metrics() const {
  // Per-request sums by stage name, plus the parent of each span.
  struct ReqInfo {
    std::string kind;
    bool own = true;
    std::map<std::string, double> ns;
    std::map<std::string, std::map<std::string, double>> counts;
    double covered = 0;  // direct children of "replay"
  };
  std::map<uint64_t, ReqInfo> reqs;
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans_) by_id[s.id] = &s;
  Stats st;
  for (const Span& s : spans_) {
    if (s.name == "request") {
      ReqInfo& r = reqs[s.request];
      for (const auto& [k, v] : s.counts) {
        if (k == "own") r.own = v > 0;
        else if (v > 0) r.kind = k;
      }
    }
  }
  for (const Span& s : spans_) {
    auto it = reqs.find(s.request);
    if (it == reqs.end()) continue;
    ReqInfo& r = it->second;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    r.ns[s.name] += ns;
    for (const auto& [k, v] : s.counts) r.counts[s.name][k] += v;
    auto p = by_id.find(s.parent);
    if (p != by_id.end() && p->second->name == "replay") r.covered += ns;
    // Per-span samples of the stage metrics.
    const std::map<std::string, double>& c = s.counts;
    auto count = [&](const char* k) {
      auto i = c.find(k);
      return i == c.end() ? 0.0 : i->second;
    };
    if (s.name == "rxpath.parse") st.Add("parse_us", ns / 1e3);
    if (s.name == "rewrite.rewrite") {
      st.Add("rewrite_us", ns / 1e3);
      st.Add("mfa_states", count("mfa_states"));
    }
    if (s.name == "automata.compile") st.Add("compile_us", ns / 1e3);
    if (s.name == "eval.dom") {
      st.Add("dom_us", ns / 1e3);
      const double visited = count("nodes_visited");
      st.Add("nodes_visited", visited);
      if (visited > 0) st.Add("dom_ns_per_node", ns / visited);
      if (count("tax") > 0) {
        st.Add("tax_pruned", count("nodes_pruned"));
        st.Add("tax_seen", visited + count("nodes_pruned"));
      }
    }
    if (s.name == "eval.stax_batch") {
      st.Add("stax_batch_ms", ns / 1e6);
      st.Add("cans_peak_bytes", count("cans_peak_bytes"));
    }
    if (s.name == "xml.stax_tokenize") {
      st.Add("tokenize_ms", ns / 1e6);
      st.Add("events", count("events"));
    }
    if (s.name == "view.materialize") st.Add("materialize_ms", ns / 1e6);
    if (s.name == "view.access_map") st.Add("access_map_ms", ns / 1e6);
    if (s.name == "update.parse") st.Add("update_parse_us", ns / 1e3);
    if (s.name == "update.resolve") st.Add("resolve_ms", ns / 1e6);
    if (s.name == "update.clone") st.Add("clone_ms", ns / 1e6);
    if (s.name == "update.authorize") st.Add("authorize_ms", ns / 1e6);
    if (s.name == "update.validate") st.Add("validate_ms", ns / 1e6);
    if (s.name == "update.apply") st.Add("apply_ms", ns / 1e6);
    if (s.name == "index.tax_repair") {
      st.Add("repair_us", ns / 1e3);
      st.Add("sets", count("sets_recomputed"));
    }
  }
  // Per-request derived samples.
  // Gaps are signed: the replay runs on a replica, not inside the facade,
  // so a request's replayed stages can take longer than its facade call.
  double facade_ns[3] = {0, 0, 0}, gap_ns[3] = {0, 0, 0};
  int requests[3] = {0, 0, 0}, replay_longer[3] = {0, 0, 0};
  const char* kinds[3] = {"query", "batch", "update"};
  double updates = 0, accepted = 0;
  double mv_hits = 0, mv_lookups = 0, access_hits = 0, access_lookups = 0;
  for (const auto& [id, r] : reqs) {
    const char* facade = r.kind == "query" ? "core.query"
                         : r.kind == "batch" ? "core.batch" : "core.update";
    auto f = r.ns.find(facade);
    if (f == r.ns.end()) continue;
    for (int k = 0; k < 3; ++k) {
      if (r.kind == kinds[k]) {
        facade_ns[k] += f->second;
        gap_ns[k] += f->second - r.covered;
        ++requests[k];
        if (r.covered > f->second) ++replay_longer[k];
      }
    }
    if (r.kind == "update") {
      ++updates;
      if (r.ns.count("update.apply")) ++accepted;
      auto c = r.counts.find("update.resolve");
      if (c != r.counts.end()) {
        ++mv_lookups;
        mv_hits += c->second.count("view_cache_hit") ? c->second.at("view_cache_hit") : 0;
      }
      c = r.counts.find("update.authorize");
      if (c != r.counts.end()) {
        ++access_lookups;
        access_hits += c->second.count("access_cache_hit") ? c->second.at("access_cache_hit") : 0;
      }
    }
    if (r.ns.count("xml.serialize")) {  // every DOM query, own or sweep
      st.Add("serialize_us", r.ns.at("xml.serialize") / 1e3);
      st.Add("answer_bytes", r.counts.at("xml.serialize").at("bytes"));
    }
    if (r.kind == "update" || !r.own) continue;
    // The workload's own read requests.
    st.Add("core_us", f->second / 1e3);
    st.Add("core_self_us", (f->second - r.covered) / 1e3);
    auto rt = r.ns.find("server.roundtrip");
    if (rt != r.ns.end()) {
      st.Add("roundtrip_us", rt->second / 1e3);
      st.Add("server_self_us", (rt->second - f->second) / 1e3);
      auto c = r.counts.find("server.roundtrip");
      if (c != r.counts.end()) st.Add("response_bytes", c->second.at("response_bytes"));
    }
    if (r.ns.count("server.encode")) st.Add("encode_us", r.ns.at("server.encode") / 1e3);
    if (r.ns.count("server.decode")) st.Add("decode_us", r.ns.at("server.decode") / 1e3);
  }
  double all_facade = 0, all_gap = 0;
  for (int k = 0; k < 3; ++k) {
    all_facade += facade_ns[k];
    all_gap += gap_ns[k];
    if (facade_ns[k] > 0) {
      std::printf("# coverage %-6s: replayed stages cover %.1f%% of facade time "
                  "(target >= 95%%); replay longer than the facade on %d of %d "
                  "requests\n",
                  kinds[k], 100.0 * (1.0 - gap_ns[k] / facade_ns[k]),
                  replay_longer[k], requests[k]);
    }
  }
  if (mv_lookups > 0) {
    std::printf("# replica view cache (keyed by epoch, as the facade's): "
                "materialization hits %.0f of %.0f, access-map hits %.0f of %.0f\n",
                mv_hits, mv_lookups, access_hits, access_lookups);
  }
  double stax_ns_per_event = 0;
  if (st.Med("events") > 0) stax_ns_per_event = st.Med("stax_batch_ms") * 1e6 / st.Med("events");
  double pruned_frac = 0;
  {
    double pruned = 0, seen = 0;
    for (double x : st.v.count("tax_pruned") ? st.v.at("tax_pruned") : std::vector<double>{}) pruned += x;
    for (double x : st.v.count("tax_seen") ? st.v.at("tax_seen") : std::vector<double>{}) seen += x;
    if (seen > 0) pruned_frac = pruned / seen;
  }
  const double lookups = static_cast<double>(lookups_);
  const double p50_untraced = Median(Latencies(untraced_.reads_t));
  const double overhead =
      p50_untraced > 0
          ? (Median(Latencies(traced_.reads_t)) - p50_untraced) / p50_untraced
          : 0;

  return {
      {"xml.parse_ms", "ms", setup_.Med("xml.parse_ms")},
      {"index.tax_build_ms", "ms", setup_.Med("index.tax_build_ms")},
      {"xml.stax_tokenize_ms", "ms", st.Med("tokenize_ms")},
      {"xml.stax_events", "count", st.Med("events")},
      {"xml.serialize_us", "us", st.Med("serialize_us")},
      {"xml.answer_bytes", "bytes", st.Mean("answer_bytes")},
      {"rxpath.parse_us", "us", st.Med("parse_us")},
      {"rewrite.rewrite_us", "us", st.Med("rewrite_us")},
      {"rewrite.mfa_states", "count", st.Med("mfa_states")},
      {"automata.compile_us", "us", st.Med("compile_us")},
      {"core.plan_hit_ratio", "ratio", lookups > 0 ? static_cast<double>(hits_) / lookups : 0},
      {"view.derive_ms", "ms", setup_.Med("view.derive_ms")},
      {"view.materialize_ms", "ms", st.Med("materialize_ms")},
      {"view.access_map_ms", "ms", st.Med("access_map_ms")},
      {"eval.dom_us", "us", st.Med("dom_us")},
      {"eval.dom_ns_per_node", "ns", st.Med("dom_ns_per_node")},
      {"eval.nodes_visited", "count", st.Med("nodes_visited")},
      {"index.pruned_frac", "ratio", pruned_frac},
      {"eval.stax_batch_ms", "ms", st.Med("stax_batch_ms")},
      {"eval.stax_ns_per_event", "ns", stax_ns_per_event},
      {"eval.cans_peak_bytes", "bytes", st.Med("cans_peak_bytes")},
      {"update.parse_us", "us", st.Med("update_parse_us")},
      {"update.resolve_ms", "ms", st.Med("resolve_ms")},
      {"update.clone_ms", "ms", st.Med("clone_ms")},
      {"update.authorize_ms", "ms", st.Med("authorize_ms")},
      {"update.validate_ms", "ms", st.Med("validate_ms")},
      {"update.apply_ms", "ms", st.Med("apply_ms")},
      {"index.tax_repair_us", "us", st.Med("repair_us")},
      {"index.tax_sets_recomputed", "count", st.Med("sets")},
      {"update.accept_frac", "ratio", updates > 0 ? accepted / updates : 0},
      {"core.query_us", "us", st.Med("core_us")},
      {"core.self_us", "us", st.Med("core_self_us")},
      {"core.unattributed_frac", "ratio", all_facade > 0 ? all_gap / all_facade : 0},
      {"server.roundtrip_us", "us", st.Med("roundtrip_us")},
      {"server.self_us", "us", st.Med("server_self_us")},
      {"server.response_bytes", "bytes", st.Mean("response_bytes")},
      {"server.encode_us", "us", st.Med("encode_us")},
      {"server.decode_us", "us", st.Med("decode_us")},
      {"loadgen.late_p99_ms", "ms", Quantile(untraced_.late_ms, 0.99)},
      {"trace.overhead_frac", "ratio", overhead},
  };
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::vector<Metric> Tracer::Run(double seconds, const std::string& span_path,
                                     uint64_t* attempted, uint64_t* failed,
                                     bool* correct) {
  TimedSetup();
  LoadPhases(seconds);
  Sample();
  std::vector<Metric> metrics = Metrics();

  FILE* f = std::fopen(span_path.c_str(), "w");
  if (f == nullptr) Fail("cannot write span file " + span_path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"request\": %llu, \"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"counts\": {",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), JsonEscape(s.name).c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    bool first = true;
    for (const auto& [k, v] : s.counts) {
      std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", JsonEscape(k).c_str(), v);
      first = false;
    }
    std::fprintf(f, "}}\n");
  }
  std::fclose(f);
  std::printf("# wrote %zu spans to %s\n", spans_.size(), span_path.c_str());
  for (const std::string& e : errors_) std::printf("# error: %s\n", e.c_str());

  *attempted = attempted_;
  *failed = failed_;
  *correct = failed_ == 0;
  return metrics;
}

}  // namespace

std::vector<Metric> RunTraced(const Inputs& in, const Oracle& oracle,
                                   const Sizing& sz, double seconds,
                                   const std::string& span_path,
                                   uint64_t* attempted, uint64_t* failed,
                                   bool* correct) {
  Tracer t(in, oracle, sz);
  return t.Run(seconds, span_path, attempted, failed, correct);
}

}  // namespace smoqebench
