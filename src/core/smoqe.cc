#include "src/core/smoqe.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "src/automata/mfa.h"
#include "src/common/strings.h"
#include "src/eval/batch.h"
#include "src/eval/hype_dom.h"
#include "src/eval/hype_stax.h"
#include "src/index/tax_io.h"
#include "src/rewrite/rewriter.h"
#include "src/rxpath/parser.h"
#include "src/rxpath/printer.h"
#include "src/rxpath/type_check.h"
#include "src/update/applier.h"
#include "src/update/authorize.h"
#include "src/update/update_lang.h"
#include "src/view/derive.h"
#include "src/view/spec_parser.h"
#include "src/xml/dtd_parser.h"
#include "src/xml/generator.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace smoqe::core {

namespace {

/// Stable identity of a view's compiled-plan space: any change to the
/// definition (view DTD or σ) or to the underlying DTD name changes the
/// fingerprint, so stale cache keys can never collide with fresh ones.
uint64_t ViewFingerprint(const view::ViewDefinition& def,
                         const std::string& dtd_name) {
  return Fnv1a64(def.ToString()) ^ (Fnv1a64(dtd_name) * 0x9e3779b97f4a7c15ull);
}

/// Nanoseconds elapsed since `t0` (facade-call latency sampling).
uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// True for statuses that terminate the *request* (fail-closed guard
/// semantics), as opposed to statuses that fail one batch item.
bool IsGuardTermination(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kCancelled;
}

/// The document a batch item targets: the call's for QueryBatch, the
/// item's own for QueryBatchMulti.
const std::string& ItemDoc(const BatchQueryItem&, const std::string& doc) {
  return doc;
}
const std::string& ItemDoc(const DocBatchItem& item, const std::string&) {
  return item.doc;
}

/// The preconditions a query's options place on the pinned snapshot:
/// TAX needs DOM mode (the index addresses materialized nodes) and a
/// built index.
Status CheckTaxPreconditions(const QueryOptions& options,
                             const DocumentSnapshot& snap,
                             const std::string& doc_name) {
  if (!options.use_tax) return Status::OK();
  if (options.mode == EvalMode::kStax) {
    return Status::InvalidArgument(
        "TAX requires DOM mode (the index addresses materialized nodes)");
  }
  if (snap.tax == nullptr) {
    return Status::FailedPrecondition(
        "document '" + doc_name + "' has no TAX index; call BuildIndex");
  }
  return Status::OK();
}

}  // namespace

Smoqe::FacadeMetrics::FacadeMetrics(tel::MetricsRegistry& reg)
    : query{&reg.GetCounter("query.count"), &reg.GetCounter("query.errors"),
            &reg.GetHistogram("query.latency_ns")},
      query_answers(&reg.GetCounter("query.answers")),
      query_epoch_lag(&reg.GetHistogram("query.epoch_lag")),
      batch{&reg.GetCounter("batch.count"), &reg.GetCounter("batch.errors"),
            &reg.GetHistogram("batch.latency_ns")},
      batch_items(&reg.GetCounter("batch.items")),
      batch_plans_per_scan(&reg.GetHistogram("batch.plans_per_scan")),
      batch_chunk_ns(&reg.GetHistogram("batch.chunk_ns")),
      eval_nodes_visited(&reg.GetCounter("eval.nodes_visited")),
      eval_subtrees_pruned(&reg.GetCounter("eval.subtrees_pruned")),
      eval_answers(&reg.GetCounter("eval.answers")),
      update{&reg.GetCounter("update.count"), &reg.GetCounter("update.errors"),
             &reg.GetHistogram("update.latency_ns")},
      update_accepted(&reg.GetCounter("update.accepted")),
      update_rejected(&reg.GetCounter("update.rejected")),
      update_tax_repair_ns(&reg.GetHistogram("update.tax_repair_ns")),
      update_tax_rebuild_ns(&reg.GetHistogram("update.tax_rebuild_ns")),
      update_nodes_inserted(&reg.GetCounter("update.nodes_inserted")),
      update_nodes_deleted(&reg.GetCounter("update.nodes_deleted")),
      guard_deadline_exceeded(&reg.GetCounter("guard.deadline_exceeded")),
      guard_budget_exceeded(&reg.GetCounter("guard.budget_exceeded")),
      guard_admission_rejected(&reg.GetCounter("guard.admission_rejected")),
      guard_cancelled(&reg.GetCounter("guard.cancelled")),
      engine_inflight(&reg.GetGauge("engine.inflight")) {}

/// \brief The request pipeline of every public entry point (see smoqe.h;
/// docs/DESIGN.md §9.3, §11.2). The admission slot is RAII: held from
/// construction to destruction.
class Smoqe::RequestScope {
 public:
  /// The per-op half of the pipeline: trace name and slow-log `op`, the
  /// count / error / latency instruments, and the slow-log identity
  /// (views into storage that outlives the scope).
  struct Desc {
    const char* op;
    OpMetrics FacadeMetrics::*metrics;
    std::string_view doc;
    std::string_view view;
    std::string_view statement;
  };
  /// A trace attribute set at entry, when `set` holds.
  struct Attr {
    const char* key;
    std::string_view value;
    bool set = true;
  };

  RequestScope(Smoqe* engine, const RequestOptions& req, const Desc& desc,
               std::initializer_list<Attr> attrs)
      : engine_(engine), tm_(engine->tm_.get()), req_(req), desc_(desc) {
    const int limit = engine->options_.max_pending_requests;
    if (limit > 0 &&
        engine->inflight_.fetch_add(1, std::memory_order_relaxed) >= limit) {
      engine->inflight_.fetch_sub(1, std::memory_order_relaxed);
      admitted_ = false;
      return;
    }
    if (tm_ != nullptr) tm_->engine_inflight->Add(1);
    guard_ = MakeGuard();
    if (tm_ == nullptr) return;
    t0_ = std::chrono::steady_clock::now();
    trace_ = PickTrace();
    if (trace_ == nullptr) return;
    for (const Attr& a : attrs) {
      if (a.set) trace_->SetAttr(a.key, std::string(a.value));
    }
  }

  ~RequestScope() {
    if (!admitted_) return;
    if (engine_->options_.max_pending_requests > 0) {
      engine_->inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (tm_ != nullptr) tm_->engine_inflight->Add(-1);
  }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// False when the admission gate was full: the call must return
  /// `Busy()` at once, before parsing, locking or touching the catalog.
  bool admitted() const { return admitted_; }
  Status Busy() {
    const int limit = engine_->options_.max_pending_requests;
    Status busy = Status::RejectedBusy("engine is at max_pending_requests (" +
                                       std::to_string(limit) + " in flight)");
    CountGuardOutcome(busy);
    return busy;
  }

  const Guardrail* guard() const { return guard_; }
  tel::Trace* trace() const { return trace_.get(); }
  uint64_t trace_id() const { return trace_ != nullptr ? trace_->id() : 0; }

  /// Closes the call whose outcome is `status`. With telemetry on, `fold`
  /// — the op's outcome fold — folds the result into metrics and audit,
  /// fills the outcome fields of the call's profile, and returns where a
  /// requested profile lands (null: this call returns none).
  template <typename Fold>
  void Finish(const Status& status, Fold fold) {
    if (tm_ == nullptr) return;
    const uint64_t elapsed_ns = ElapsedNs(t0_);
    OpMetrics& m = tm_->*desc_.metrics;
    m.count->Add();
    m.latency_ns->Record(elapsed_ns);
    // A security denial is a decision the update fold records, not an
    // error.
    if (!status.ok() && status.code() != StatusCode::kPermissionDenied) {
      m.errors->Add();
      const char* guard_kind = CountGuardOutcome(status);
      if (trace_ != nullptr && guard_kind != nullptr) {
        trace_->SetAttr("guard", guard_kind);
      }
    }
    tel::Profile p;
    ProfileSlot slot = fold(&p);
    // PROFILE / slow-query capture — on every outcome, so failures are
    // debuggable too (an error's profile carries the stages that ran up
    // to the failure point and empty stats).
    tel::Telemetry& telemetry = *engine_->telemetry_;
    const uint64_t threshold_ns =
        engine_->options_.slow_query_threshold_ms * 1000000ull;
    const bool is_slow =
        telemetry.slow().enabled() && elapsed_ns >= threshold_ns;
    const bool want_profile = req_.profile && slot != nullptr;
    if (is_slow || want_profile) {
      Stamp(&p, elapsed_ns);
      if (want_profile) *slot = std::make_shared<tel::Profile>(p);
      if (is_slow) {
        telemetry.slow().Append(std::move(p), std::string(desc_.view),
                                threshold_ns);
      }
    }
    if (trace_ != nullptr) {
      trace_->SetAttr("status", status.ok() ? "ok" : status.ToString());
      // An external (server-owned) trace is finished by its owner.
      if (req_.trace == nullptr) telemetry.traces().Finish(trace_);
    }
  }

 private:
  /// Resolves RequestOptions against the engine defaults into the
  /// scope's budget + guard. Returns nullptr — the ungoverned fast path —
  /// when no knob is active.
  const Guardrail* MakeGuard() {
    const EngineOptions& o = engine_->options_;
    const uint64_t deadline_ms =
        req_.deadline_ms != 0 ? req_.deadline_ms : o.default_deadline_ms;
    const uint64_t max_bytes = req_.max_memory_bytes != 0
                                   ? req_.max_memory_bytes
                                   : o.default_max_memory_bytes;
    if (deadline_ms == 0 && max_bytes == 0 && req_.cancel == nullptr) {
      return nullptr;  // ungoverned: evaluators take their null-guard fast path
    }
    budget_.Reset(max_bytes);
    guard_storage_ = Guardrail(Deadline::After(deadline_ms), req_.cancel,
                               max_bytes != 0 ? &budget_ : nullptr);
    return &guard_storage_;
  }

  /// The trace this call records into: an external (server-owned) trace
  /// wins, else an explicit trace_id / profile request forces recording
  /// under the caller's id (bypassing sampling), else the sampling knob
  /// decides. Requires telemetry.
  std::shared_ptr<tel::Trace> PickTrace() {
    if (req_.trace != nullptr) return req_.trace;
    tel::Telemetry& telemetry = *engine_->telemetry_;
    if (req_.trace_id != 0 || req_.profile) {
      // An explicit correlation id or a PROFILE request must always
      // record — sampling would make the surface flaky for the caller.
      return telemetry.traces().Begin(desc_.op, req_.trace_id);
    }
    return telemetry.MaybeBeginTrace(desc_.op);
  }

  /// Counts a guard-terminated request into the guard.* counters and
  /// returns the span annotation ("deadline" / "budget" / "admission" /
  /// "cancel"), or nullptr for ordinary errors.
  const char* CountGuardOutcome(const Status& status) {
    switch (status.code()) {
      case StatusCode::kDeadlineExceeded:
        if (tm_ != nullptr) tm_->guard_deadline_exceeded->Add(1);
        return "deadline";
      case StatusCode::kResourceExhausted:
        if (tm_ != nullptr) tm_->guard_budget_exceeded->Add(1);
        return "budget";
      case StatusCode::kRejectedBusy:
        if (tm_ != nullptr) tm_->guard_admission_rejected->Add(1);
        return "admission";
      case StatusCode::kCancelled:
        if (tm_ != nullptr) tm_->guard_cancelled->Add(1);
        return "cancel";
      default:
        return nullptr;
    }
  }

  /// Stamps the call's identity and timing onto its profile. The trace's
  /// span list becomes the stage tree (same indices, so parent links
  /// carry over verbatim) and the guard's tick tally rides along; an
  /// unsampled call (slow-log capture without a trace) has no stages.
  void Stamp(tel::Profile* p, uint64_t total_ns) const {
    p->op = desc_.op;
    p->doc = std::string(desc_.doc);
    p->view = std::string(desc_.view);
    p->statement = std::string(desc_.statement);
    p->total_ns = total_ns;
    if (guard_ != nullptr) p->guard_ticks = guard_->checks();
    if (trace_ == nullptr) return;
    p->trace_id = trace_->id();
    for (const tel::SpanRecord& s : trace_->spans()) {
      const uint64_t ns = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
      p->stages.push_back({s.name, s.parent, ns});
    }
  }

  Smoqe* engine_;
  FacadeMetrics* tm_;  // null when telemetry is off
  const RequestOptions& req_;
  const Desc desc_;
  bool admitted_ = true;
  MemoryBudget budget_;
  Guardrail guard_storage_;
  const Guardrail* guard_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
  std::shared_ptr<tel::Trace> trace_;
};

Smoqe::Smoqe(EngineOptions options)
    : names_(xml::NameTable::Create()),
      options_(options),
      plan_cache_(options.plan_cache_capacity) {
  // A pool only exists when it can actually help: max_threads == 1 (or a
  // 1-core host under the default) keeps the engine bit-for-bit serial.
  const int resolved =
      options_.max_threads > 0
          ? options_.max_threads
          : static_cast<int>(std::thread::hardware_concurrency());
  if (resolved > 1) pool_ = std::make_unique<ThreadPool>(resolved);
  if (options_.telemetry.enabled) {
    telemetry_ = std::make_unique<tel::Telemetry>(options_.telemetry);
    tm_ = std::make_unique<FacadeMetrics>(telemetry_->registry());
    plan_cache_.AttachTelemetry(&telemetry_->registry());
    if (pool_ != nullptr) pool_->AttachTelemetry(&telemetry_->registry());
  }
}

Status Smoqe::RegisterDtd(const std::string& name, std::string_view dtd_text,
                          std::string_view root) {
  SMOQE_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(dtd_text, root));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  bool replaced =
      catalog_.PutDtd(name, std::make_unique<xml::Dtd>(std::move(dtd)));
  if (replaced) {
    // Conservative: every view derived over this DTD recompiles its plans
    // on next use (the views keep their definitions until redefined).
    for (const std::string& view_name : catalog_.ViewNames()) {
      const ViewEntry* view = catalog_.FindView(view_name);
      if (view != nullptr && view->dtd_name == name) {
        plan_cache_.InvalidateView(view_name);
      }
    }
  }
  return Status::OK();
}

Status Smoqe::LoadDocument(const std::string& name,
                           std::string_view xml_text) {
  xml::ParseOptions opts;
  opts.names = names_;
  SMOQE_ASSIGN_OR_RETURN(xml::ParsedDocument parsed,
                         xml::ParseXml(xml_text, opts));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (!parsed.doctype_internal_subset.empty() &&
      catalog_.FindDtd(name) == nullptr) {
    auto dtd = xml::ParseDtd(parsed.doctype_internal_subset,
                             parsed.doctype_name);
    if (dtd.ok()) {
      SMOQE_RETURN_IF_ERROR(
          catalog_.AddDtd(name, std::make_unique<xml::Dtd>(dtd.MoveValue())));
    }
  }
  auto entry = std::make_unique<DocumentEntry>(std::string(xml_text),
                                               std::move(parsed.document));
  return catalog_.AddDocument(name, std::move(entry));
}

Status Smoqe::GenerateDocument(const std::string& name,
                               const std::string& dtd_name, uint64_t seed,
                               size_t target_nodes) {
  xml::GeneratorOptions opts;
  opts.seed = seed;
  opts.target_nodes = target_nodes;
  opts.names = names_;
  // Generate under the *shared* lock — the O(target_nodes) generation
  // and serialization must not stall concurrent readers; only the DTD
  // content has to be pinned against a concurrent RegisterDtd. The
  // unique lock covers just the catalog insert.
  std::optional<xml::Document> doc;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    const xml::Dtd* dtd = catalog_.FindDtd(dtd_name);
    if (dtd == nullptr) {
      return Status::NotFound("DTD '" + dtd_name + "' is not registered");
    }
    SMOQE_ASSIGN_OR_RETURN(xml::Document generated,
                           xml::GenerateDocument(*dtd, opts));
    doc.emplace(std::move(generated));
  }
  std::string text = xml::SerializeDocument(*doc);
  auto entry =
      std::make_unique<DocumentEntry>(std::move(text), std::move(*doc));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  return catalog_.AddDocument(name, std::move(entry));
}

Status Smoqe::DefineView(const std::string& view_name,
                         const std::string& dtd_name,
                         std::string_view policy_text) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  const xml::Dtd* dtd = catalog_.FindDtd(dtd_name);
  if (dtd == nullptr) {
    return Status::NotFound("DTD '" + dtd_name + "' is not registered");
  }
  SMOQE_ASSIGN_OR_RETURN(view::Policy policy,
                         view::Policy::Parse(*dtd, policy_text));
  auto policy_ptr = std::make_unique<view::Policy>(std::move(policy));
  SMOQE_ASSIGN_OR_RETURN(view::ViewDefinition def,
                         view::DeriveView(*policy_ptr));
  auto entry = std::make_unique<ViewEntry>();
  entry->dtd_name = dtd_name;
  entry->policy = std::move(policy_ptr);
  entry->definition = std::move(def);
  entry->fingerprint = ViewFingerprint(entry->definition, dtd_name);
  if (catalog_.PutView(view_name, std::move(entry))) {
    plan_cache_.InvalidateView(view_name);  // redefinition: recompile
  }
  return Status::OK();
}

Status Smoqe::DefineViewFromSpec(const std::string& view_name,
                                 std::string_view spec_text,
                                 const std::string& document_dtd_name) {
  SMOQE_ASSIGN_OR_RETURN(view::ViewDefinition def,
                         view::ParseViewSpecification(spec_text));
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (!document_dtd_name.empty()) {
    const xml::Dtd* dtd = catalog_.FindDtd(document_dtd_name);
    if (dtd == nullptr) {
      return Status::NotFound("DTD '" + document_dtd_name +
                              "' is not registered");
    }
    SMOQE_RETURN_IF_ERROR(view::CheckSpecificationAgainstDtd(def, *dtd));
  }
  auto entry = std::make_unique<ViewEntry>();
  entry->dtd_name = document_dtd_name;
  entry->definition = std::move(def);
  entry->fingerprint = ViewFingerprint(entry->definition, document_dtd_name);
  if (catalog_.PutView(view_name, std::move(entry))) {
    plan_cache_.InvalidateView(view_name);  // redefinition: recompile
  }
  return Status::OK();
}

Result<std::string> Smoqe::ViewSchema(const std::string& view_name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const ViewEntry* view = catalog_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("view '" + view_name + "' is not registered");
  }
  return view->definition.view_dtd().ToString();
}

Result<std::string> Smoqe::ViewSpecification(
    const std::string& view_name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const ViewEntry* view = catalog_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("view '" + view_name + "' is not registered");
  }
  return view->definition.ToString();
}

Status Smoqe::BuildIndex(const std::string& doc_name) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  // Writer path: the successor snapshot shares the tree (and any already
  // serialized text) and differs only in the index.
  std::lock_guard<std::mutex> writer(doc->writer_mu);
  std::shared_ptr<const DocumentSnapshot> base = doc->Acquire();
  auto tax =
      std::make_shared<const index::TaxIndex>(index::TaxIndex::Build(*base->dom));
  doc->Publish(std::make_shared<const DocumentSnapshot>(
      base->dom, std::move(tax), base->text_if_ready()));
  return Status::OK();
}

Status Smoqe::SaveIndex(const std::string& doc_name,
                        const std::string& path) const {
  std::shared_ptr<const DocumentSnapshot> snap;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    const DocumentEntry* doc = catalog_.FindDocument(doc_name);
    if (doc == nullptr) {
      return Status::NotFound("document '" + doc_name + "' is not loaded");
    }
    snap = doc->Acquire();
  }
  if (snap->tax == nullptr) {
    return Status::FailedPrecondition("document '" + doc_name +
                                      "' has no TAX index; call BuildIndex");
  }
  return index::TaxIo::Save(*snap->tax, path);
}

Status Smoqe::LoadIndex(const std::string& doc_name, const std::string& path) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  SMOQE_ASSIGN_OR_RETURN(index::TaxIndex idx, index::TaxIo::Load(path));
  std::lock_guard<std::mutex> writer(doc->writer_mu);
  std::shared_ptr<const DocumentSnapshot> base = doc->Acquire();
  doc->Publish(std::make_shared<const DocumentSnapshot>(
      base->dom, std::make_shared<const index::TaxIndex>(std::move(idx)),
      base->text_if_ready()));
  return Status::OK();
}

Result<Smoqe::PlanUse> Smoqe::GetPlan(std::string_view query_text,
                                      const QueryOptions& options,
                                      tel::Trace* tr) {
  std::unique_ptr<rxpath::PathExpr> query;
  {
    tel::SpanScope span(tr, "parse");
    SMOQE_ASSIGN_OR_RETURN(query, rxpath::ParseQuery(query_text));
  }
  return GetPlan(*query, options, tr);
}

Result<Smoqe::PlanUse> Smoqe::GetPlan(const rxpath::PathExpr& query,
                                      const QueryOptions& options,
                                      tel::Trace* tr) {
  const ViewEntry* view = nullptr;
  PlanCache::Key key;
  key.view = options.view;
  if (!options.view.empty()) {
    view = catalog_.FindView(options.view);
    if (view == nullptr) {
      return Status::NotFound("view '" + options.view +
                              "' is not registered");
    }
    key.view_fingerprint = view->fingerprint;
  }
  // Canonical printer rendering, so surface variants of one query share
  // one cache entry ("//a [b]" ≡ "//a[b]").
  key.normalized_query = rxpath::ToString(query);

  if (!options.bypass_plan_cache) {
    tel::SpanScope span(tr, "cache_lookup");
    if (std::shared_ptr<const CompiledPlan> hit = plan_cache_.Lookup(key)) {
      return PlanUse{std::move(hit), /*cache_hit=*/true};
    }
  }

  // Compile: direct queries compile as-is; view queries are rewritten to
  // an equivalent MFA over the underlying document (never materializing).
  auto compiled = std::make_shared<CompiledPlan>();
  if (view == nullptr) {
    tel::SpanScope span(tr, "compile");
    SMOQE_ASSIGN_OR_RETURN(compiled->mfa,
                           automata::Mfa::Compile(query, names_));
  } else {
    tel::SpanScope span(tr, "rewrite");
    // Query assistance: flag labels that are not part of the schema the
    // user group sees (they can never match — typo or access attempt).
    rxpath::TypeCheckResult tc = rxpath::TypeCheck(
        query, view->definition.view_dtd(), {}, /*from_document_node=*/true);
    compiled->unknown_labels.assign(tc.unknown_labels.begin(),
                                    tc.unknown_labels.end());
    SMOQE_ASSIGN_OR_RETURN(
        compiled->mfa, rewrite::RewriteToMfa(query, view->definition, names_));
  }
  compiled->normalized_query = key.normalized_query;
  std::shared_ptr<const CompiledPlan> plan = std::move(compiled);
  if (!options.bypass_plan_cache) {
    // Adopt whatever the cache keeps: if a concurrent compile of the same
    // key won the race, every caller converges on the winner's plan.
    plan = plan_cache_.Insert(key, std::move(plan));
  }
  return PlanUse{std::move(plan), /*cache_hit=*/false};
}

Result<QueryAnswer> Smoqe::EvalCompiled(const DocumentSnapshot& snap,
                                        const std::string& doc_name,
                                        const PlanUse& pu,
                                        const QueryOptions& options,
                                        const Guardrail* guard,
                                        tel::Trace* tr) {
  const CompiledPlan& plan = *pu.plan;
  QueryAnswer out;
  out.unknown_labels = plan.unknown_labels;
  out.doc_epoch = snap.epoch;
  if (options.explain) out.mfa_dump = plan.mfa.ToString();
  SMOQE_RETURN_IF_ERROR(CheckTaxPreconditions(options, snap, doc_name));

  if (options.mode == EvalMode::kStax) {
    eval::StaxEvalOptions stax_opts;
    stax_opts.engine.trace = options.explain;
    stax_opts.guard = guard;
    // The streaming pass captures answer subtrees as it scans, so
    // evaluation and materialization are one span here.
    tel::SpanScope span(tr, "evaluate");
    SMOQE_ASSIGN_OR_RETURN(eval::StaxEvalResult r,
                           eval::EvalHypeStax(plan.mfa, snap.text(), stax_opts));
    for (auto& a : r.answers) out.answers_xml.push_back(std::move(a.xml));
    out.stats = r.stats;
  } else {
    eval::DomEvalOptions dom_opts;
    dom_opts.engine.trace = options.explain;
    dom_opts.guard = guard;
    if (options.use_tax) dom_opts.tax = snap.tax.get();
    eval::DomEvalResult r;
    {
      tel::SpanScope span(tr, "evaluate");
      SMOQE_ASSIGN_OR_RETURN(r,
                             eval::EvalHypeDom(plan.mfa, *snap.dom, dom_opts));
    }
    {
      tel::SpanScope span(tr, "materialize");
      for (const xml::Node* n : r.answers) {
        out.answers_xml.push_back(xml::SerializeNode(n, *names_));
        out.answer_ids.push_back(n->node_id);
      }
    }
    out.stats = r.stats;
    if (options.explain && r.trace != nullptr) {
      out.trace_tree = r.trace->RenderTree(*snap.dom, r.nodes_by_engine_id);
    }
  }
  out.stats.plan_cache_hits = pu.cache_hit ? 1 : 0;
  out.stats.plan_cache_misses = pu.cache_hit ? 0 : 1;
  return out;
}

void Smoqe::FoldEvalStats(const EvalStats& stats) {
  tm_->eval_nodes_visited->Add(stats.nodes_visited);
  tm_->eval_subtrees_pruned->Add(stats.subtrees_pruned);
  tm_->eval_answers->Add(stats.answers);
}

void Smoqe::AppendAudit(tel::AuditKind kind, const std::string& doc_name,
                        const std::string& view_name,
                        std::string_view statement, uint64_t doc_epoch,
                        uint64_t trace_id, std::string explain) {
  tel::AuditRecord rec;
  rec.kind = kind;
  rec.view = view_name;
  rec.doc = doc_name;
  rec.doc_epoch = doc_epoch;
  rec.statement = std::string(statement);
  // A query rewrite is always allowed: the rewrite itself is the
  // enforcement.
  rec.allowed = kind != tel::AuditKind::kUpdateReject;
  rec.explain = std::move(explain);
  rec.trace_id = trace_id;
  telemetry_->audit().Append(std::move(rec));
}

Result<QueryAnswer> Smoqe::QueryImpl(const std::string& doc_name,
                                     std::string_view query_text,
                                     const QueryOptions& options,
                                     const Guardrail* guard, tel::Trace* tr,
                                     bool want_canonical) {
  // Entry check: a deadline that arrived expired (or a pre-cancelled
  // token) fails before any parsing or locking.
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  std::shared_ptr<const DocumentSnapshot> snap;
  PlanUse plan;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    DocumentEntry* doc = catalog_.FindDocument(doc_name);
    if (doc == nullptr) {
      return Status::NotFound("document '" + doc_name + "' is not loaded");
    }
    SMOQE_ASSIGN_OR_RETURN(plan, GetPlan(query_text, options, tr));
    snap = doc->Acquire();
  }
  // No lock held during evaluation: the snapshot is pinned, the plan is
  // immutable and shared.
  Result<QueryAnswer> out =
      EvalCompiled(*snap, doc_name, plan, options, guard, tr);
  if (out.ok() && want_canonical) {
    out->canonical_query = plan.plan->normalized_query;
  }
  return out;
}

Result<QueryAnswer> Smoqe::Query(const std::string& doc_name,
                                 std::string_view query_text,
                                 const QueryOptions& options,
                                 const RequestOptions& req) {
  RequestScope scope(
      this, req,
      {"query", &FacadeMetrics::query, doc_name, options.view, query_text},
      {{"doc", doc_name},
       {"query", query_text},
       {"view", options.view, !options.view.empty()},
       {"mode", options.mode == EvalMode::kStax ? "stax" : "dom"}});
  if (!scope.admitted()) return scope.Busy();
  // The canonical rendering rides with a PROFILE, which only an engine
  // with telemetry builds.
  Result<QueryAnswer> result =
      QueryImpl(doc_name, query_text, options, scope.guard(), scope.trace(),
                req.profile && telemetry_ != nullptr);
  scope.Finish(result.status(), [&](tel::Profile* p) -> ProfileSlot {
    if (!result.ok()) return nullptr;
    QueryAnswer& a = *result;
    a.trace_id = scope.trace_id();
    tm_->query_answers->Add(a.answers_xml.size());
    FoldEvalStats(a.stats);
    // Epoch lag: how far the published document moved past the snapshot
    // this query answered from (0 = answered the newest epoch).
    Result<uint64_t> cur = DocumentEpoch(doc_name);
    if (cur.ok() && *cur >= a.doc_epoch) {
      tm_->query_epoch_lag->Record(*cur - a.doc_epoch);
    }
    if (!options.view.empty()) {
      AppendAudit(tel::AuditKind::kQueryRewrite, doc_name, options.view,
                  query_text, a.doc_epoch, a.trace_id);
    }
    p->plan_cache_hit = a.stats.plan_cache_hits > 0;
    p->doc_epoch = a.doc_epoch;
    p->canonical_query = a.canonical_query;
    p->stats = a.stats;
    return &a.profile;
  });
  return result;
}

std::vector<size_t> Smoqe::CompileBatchItems(
    const DocumentSnapshot& snap, const std::string& doc_name,
    const std::vector<BatchQueryItem>& items, const std::vector<size_t>& ids,
    std::vector<PlanUse>* plans, std::vector<QueryAnswer>* out) {
  std::vector<size_t> sel;
  sel.reserve(items.size());
  plans->resize(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    Result<PlanUse> plan = GetPlan(items[i].query, items[i].options, nullptr);
    Status st = plan.ok()
                    ? CheckTaxPreconditions(items[i].options, snap, doc_name)
                    : plan.status();
    if (!st.ok()) {
      (*out)[ids[i]].status =
          st.WithContext("batch item " + std::to_string(ids[i]));
      continue;
    }
    (*plans)[i] = std::move(*plan);
    sel.push_back(i);
  }
  return sel;
}

Status Smoqe::EvalBatchOnSnapshot(const DocumentSnapshot& snap,
                                  const std::string& doc_name,
                                  const std::vector<BatchQueryItem>& items,
                                  const std::vector<PlanUse>& plans,
                                  const std::vector<size_t>& sel,
                                  const std::vector<size_t>& error_ids,
                                  const Guardrail* guard,
                                  std::vector<QueryAnswer>* out,
                                  tel::Trace* tr) {
  std::vector<size_t> stax_items;
  std::vector<size_t> dom_items;
  for (size_t i : sel) {
    (items[i].options.mode == EvalMode::kStax ? stax_items : dom_items)
        .push_back(i);
  }

  // All streaming items share one forward scan of the document text; with
  // a pool, per-plan advancement fans out behind the shared tokenizer.
  if (!stax_items.empty()) {
    eval::BatchStaxOptions batch_opts;
    batch_opts.guard = guard;
    eval::BatchEvaluator batch(batch_opts);
    for (size_t i : stax_items) {
      eval::EngineOptions engine;
      engine.trace = items[i].options.explain;
      batch.AddPlan(&plans[i].plan->mfa, engine);
    }
    // Items that hit the same cached plan share one engine on the scan.
    if (tm_ != nullptr) {
      tm_->batch_plans_per_scan->Record(batch.engine_count());
    }
    tel::SpanScope span(tr, "evaluate.stax_scan");
    Result<std::vector<eval::StaxEvalResult>> results_or =
        [&]() -> Result<std::vector<eval::StaxEvalResult>> {
      if (ParallelEnabled()) {
        eval::BatchParallelOptions par;
        par.pool = pool_.get();
        par.chunk_events = options_.stax_chunk_events;
        par.chunk_ns = tm_ != nullptr ? tm_->batch_chunk_ns : nullptr;
        return batch.RunParallel(snap.text(), par);
      }
      return batch.Run(snap.text());
    }();
    SMOQE_RETURN_IF_ERROR(results_or.status());
    std::vector<eval::StaxEvalResult>& results = *results_or;
    for (size_t j = 0; j < stax_items.size(); ++j) {
      const size_t i = stax_items[j];
      QueryAnswer& a = (*out)[i];
      a.unknown_labels = plans[i].plan->unknown_labels;
      a.doc_epoch = snap.epoch;
      if (items[i].options.explain) a.mfa_dump = plans[i].plan->mfa.ToString();
      for (auto& ans : results[j].answers) {
        a.answers_xml.push_back(std::move(ans.xml));
      }
      a.stats = results[j].stats;  // batch_plans set by the evaluator
      a.stats.plan_cache_hits = plans[i].cache_hit ? 1 : 0;
      a.stats.plan_cache_misses = plans[i].cache_hit ? 0 : 1;
    }
  }

  // DOM-mode items evaluate per item — the tree is already amortized
  // across them, and TAX/trace address materialized nodes. Items are
  // independent, so they fan out across the pool.
  if (!dom_items.empty()) {
    tel::SpanScope dom_span(tr, "evaluate.dom_items");
    std::vector<Status> statuses(dom_items.size(), Status::OK());
    auto eval_one = [&](size_t j) {
      const size_t i = dom_items[j];
      // Per-item child spans come from EvalCompiled (evaluate /
      // materialize), parented under the shared dom_items span; workers
      // append concurrently, which Trace supports.
      tel::SpanScope item_span(tr, "item", dom_span.index());
      auto answer =
          EvalCompiled(snap, doc_name, plans[i], items[i].options, guard, tr);
      if (answer.ok()) {
        (*out)[i] = std::move(*answer);
      } else {
        statuses[j] = answer.status();
      }
    };
    if (ParallelEnabled() && dom_items.size() > 1) {
      pool_->ParallelFor(dom_items.size(), eval_one);
    } else {
      for (size_t j = 0; j < dom_items.size(); ++j) eval_one(j);
    }
    for (size_t j = 0; j < dom_items.size(); ++j) {
      if (!statuses[j].ok()) {
        const size_t i = dom_items[j];
        Status st = statuses[j].WithContext(
            "batch item " + std::to_string(error_ids[i]));
        // A tripped request guardrail fails the whole call (fail-closed,
        // no partial answer); anything else fails just this item.
        if (IsGuardTermination(statuses[j])) return st;
        (*out)[i].status = std::move(st);
      }
    }
  }
  return Status::OK();
}

Result<std::vector<QueryAnswer>> Smoqe::QueryBatchImpl(
    const std::string& doc_name, const std::vector<BatchQueryItem>& items,
    const Guardrail* guard, tel::Trace* tr) {
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  std::shared_ptr<const DocumentSnapshot> snap;
  std::vector<PlanUse> plans;
  std::vector<QueryAnswer> out(items.size());
  std::vector<size_t> sel;  // items that compiled; the rest failed locally
  std::vector<size_t> ids(items.size());
  for (size_t i = 0; i < items.size(); ++i) ids[i] = i;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    DocumentEntry* doc = catalog_.FindDocument(doc_name);
    if (doc == nullptr) {
      return Status::NotFound("document '" + doc_name + "' is not loaded");
    }
    snap = doc->Acquire();
    // Resolve plans and evaluation preconditions per item. An item that
    // fails here (unknown view, parse error, TAX-mode conflict) fails
    // *only itself*: its status lands in out[i].status and it is left
    // out of the evaluation selection; the siblings still run.
    tel::SpanScope span(tr, "compile_items");
    sel = CompileBatchItems(*snap, doc_name, items, ids, &plans, &out);
  }
  SMOQE_RETURN_IF_ERROR(EvalBatchOnSnapshot(*snap, doc_name, items, plans, sel,
                                            ids, guard, &out, tr));
  return out;
}

Result<std::vector<QueryAnswer>> Smoqe::QueryBatch(
    const std::string& doc_name, const std::vector<BatchQueryItem>& items,
    const RequestOptions& req) {
  const std::string count = std::to_string(items.size());
  const std::string statement = count + " items";
  RequestScope scope(
      this, req,
      {"query_batch", &FacadeMetrics::batch, doc_name, "", statement},
      {{"doc", doc_name}, {"items", count}});
  if (!scope.admitted()) return scope.Busy();
  Result<std::vector<QueryAnswer>> result =
      QueryBatchImpl(doc_name, items, scope.guard(), scope.trace());
  scope.Finish(result.status(), [&](tel::Profile* p) {
    return FoldBatch(doc_name, items, scope.trace_id(), &result, p);
  });
  return result;
}

template <typename Item>
Smoqe::ProfileSlot Smoqe::FoldBatch(
    const std::string& doc_name, const std::vector<Item>& items,
    uint64_t trace_id, Result<std::vector<QueryAnswer>>* result,
    tel::Profile* p) {
  tm_->batch_items->Add(items.size());
  if (!result->ok()) return nullptr;
  std::vector<QueryAnswer>& answers = **result;
  // Batch-level stats are the MergeFrom fold of the per-item stats
  // (identical under serial and parallel execution — asserted in the
  // concurrency suite); only the fold touches the registry. Items that
  // failed locally contribute nothing — no stats, no audit record.
  EvalStats& agg = p->stats;
  size_t ok_items = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    QueryAnswer& a = answers[i];
    a.trace_id = trace_id;
    if (!a.status.ok()) {
      tm_->query.errors->Add();
      continue;
    }
    agg.MergeFrom(a.stats);
    if (ok_items++ == 0) p->doc_epoch = a.doc_epoch;
    if (!items[i].options.view.empty()) {
      AppendAudit(tel::AuditKind::kQueryRewrite, ItemDoc(items[i], doc_name),
                  items[i].options.view, items[i].query, a.doc_epoch,
                  a.trace_id);
    }
  }
  FoldEvalStats(agg);
  tm_->query_answers->Add(agg.answers);
  // One batch-level profile (per-item breakdowns would need per-item
  // traces); it rides on the FIRST item's answer when requested.
  p->plan_cache_hit = agg.plan_cache_misses == 0 && agg.plan_cache_hits > 0;
  return answers.empty() ? nullptr : &answers.front().profile;
}

Result<std::vector<QueryAnswer>> Smoqe::QueryBatchMultiImpl(
    const std::vector<DocBatchItem>& items, const Guardrail* guard,
    tel::Trace* tr) {
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  // Group items by document (first-appearance order) and pin one snapshot
  // per document, so each group is internally a QueryBatch.
  struct Group {
    std::string doc_name;
    std::shared_ptr<const DocumentSnapshot> snap;
    std::vector<BatchQueryItem> items;
    std::vector<size_t> original;  // index into the caller's vector
    std::vector<PlanUse> plans;    // parallel to items
    std::vector<size_t> sel;       // group positions that compiled
  };
  std::vector<Group> groups;
  std::map<std::string, size_t> group_of;
  std::vector<QueryAnswer> out(items.size());
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    for (size_t i = 0; i < items.size(); ++i) {
      auto [it, inserted] = group_of.emplace(items[i].doc, groups.size());
      if (inserted) {
        DocumentEntry* doc = catalog_.FindDocument(items[i].doc);
        if (doc == nullptr) {
          return Status::NotFound("document '" + items[i].doc +
                                  "' is not loaded")
              .WithContext("batch item " + std::to_string(i));
        }
        groups.push_back(
            Group{items[i].doc, doc->Acquire(), {}, {}, {}, {}});
      }
      Group& g = groups[it->second];
      g.items.push_back(BatchQueryItem{items[i].query, items[i].options});
      g.original.push_back(i);
    }
    // QueryBatch's compile step per group: a bad item fails only itself
    // (status in the caller's slot), an unknown document failed the call
    // above.
    for (Group& g : groups) {
      g.sel = CompileBatchItems(*g.snap, g.doc_name, g.items, g.original,
                                &g.plans, &out);
    }
  }

  std::vector<Status> statuses(groups.size(), Status::OK());
  auto eval_group = [&](size_t gi) {
    Group& g = groups[gi];
    std::vector<QueryAnswer> group_out(g.items.size());
    Status s = EvalBatchOnSnapshot(*g.snap, g.doc_name, g.items, g.plans,
                                   g.sel, g.original, guard, &group_out, tr);
    if (!s.ok()) {
      statuses[gi] = std::move(s);
      return;
    }
    for (size_t j : g.sel) {
      out[g.original[j]] = std::move(group_out[j]);
    }
  };
  // Independent documents evaluate concurrently; within a group the usual
  // QueryBatch parallelism applies (nested ParallelFor is deadlock-free —
  // the pool's fork/join helps while waiting).
  if (ParallelEnabled() && groups.size() > 1) {
    pool_->ParallelFor(groups.size(), eval_group);
  } else {
    for (size_t gi = 0; gi < groups.size(); ++gi) eval_group(gi);
  }
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (!statuses[gi].ok()) {
      return statuses[gi].WithContext("document '" + groups[gi].doc_name +
                                      "'");
    }
  }
  return out;
}

Result<std::vector<QueryAnswer>> Smoqe::QueryBatchMulti(
    const std::vector<DocBatchItem>& items, const RequestOptions& req) {
  const std::string count = std::to_string(items.size());
  const std::string statement = count + " items";
  RequestScope scope(
      this, req,
      {"query_batch_multi", &FacadeMetrics::batch, "", "", statement},
      {{"items", count}});
  if (!scope.admitted()) return scope.Busy();
  Result<std::vector<QueryAnswer>> result =
      QueryBatchMultiImpl(items, scope.guard(), scope.trace());
  scope.Finish(result.status(), [&](tel::Profile* p) {
    return FoldBatch(std::string(), items, scope.trace_id(), &result, p);
  });
  return result;
}

Result<MaterializedViewAnswer> Smoqe::MaterializeView(
    const std::string& doc_name, const std::string& view_name) {
  DocumentEntry* doc = nullptr;
  const ViewEntry* view = nullptr;
  std::shared_ptr<const DocumentSnapshot> snap;
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  view = catalog_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("view '" + view_name + "' is not registered");
  }
  snap = doc->Acquire();
  // The per-(document, view) cache over the snapshot's epoch, rebuilt on
  // a fingerprint or epoch mismatch.
  std::lock_guard<std::mutex> caches(doc->caches_mu);
  ViewCacheEntry& cache = doc->view_caches[view_name];
  MaterializedViewAnswer out;
  out.cache_hit = cache.mv.has_value() &&
                  cache.fingerprint == view->fingerprint &&
                  cache.mv_epoch == snap->epoch;
  if (!out.cache_hit) {
    SMOQE_ASSIGN_OR_RETURN(view::MaterializedView mv,
                           view::Materialize(view->definition, *snap->dom));
    cache.fingerprint = view->fingerprint;
    cache.mv_epoch = snap->epoch;
    cache.mv.emplace(std::move(mv));
  }
  out.xml = xml::SerializeDocument(cache.mv->document);
  out.epoch = cache.mv_epoch;
  return out;
}

Result<std::string> Smoqe::DocumentXml(const std::string& doc_name) const {
  std::shared_ptr<const DocumentSnapshot> snap;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    const DocumentEntry* doc = catalog_.FindDocument(doc_name);
    if (doc == nullptr) {
      return Status::NotFound("document '" + doc_name + "' is not loaded");
    }
    snap = doc->Acquire();
  }
  return xml::SerializeDocument(*snap->dom);
}

Result<uint64_t> Smoqe::DocumentEpoch(const std::string& doc_name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  return doc->Acquire()->epoch;
}

Result<UpdateResult> Smoqe::UpdateImpl(const std::string& doc_name,
                                       std::string_view update_text,
                                       const UpdateOptions& options,
                                       const Guardrail* guard,
                                       tel::Trace* tr,
                                       uint64_t* decision_epoch) {
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  DocumentEntry* doc = catalog_.FindDocument(doc_name);
  if (doc == nullptr) {
    return Status::NotFound("document '" + doc_name + "' is not loaded");
  }
  update::UpdateStatement stmt;
  {
    tel::SpanScope span(tr, "parse");
    SMOQE_ASSIGN_OR_RETURN(stmt, update::ParseUpdate(update_text, names_));
  }

  const ViewEntry* view = nullptr;
  if (!options.view.empty()) {
    view = catalog_.FindView(options.view);
    if (view == nullptr) {
      return Status::NotFound("view '" + options.view + "' is not registered");
    }
  }

  // Revalidation schema: explicit name → the view's document DTD → a DTD
  // registered under the document's name → none.
  const xml::Dtd* dtd = nullptr;
  if (!options.dtd_name.empty()) {
    dtd = catalog_.FindDtd(options.dtd_name);
    if (dtd == nullptr) {
      return Status::NotFound("DTD '" + options.dtd_name +
                              "' is not registered");
    }
  } else if (view != nullptr && !view->dtd_name.empty()) {
    dtd = catalog_.FindDtd(view->dtd_name);
  } else {
    dtd = catalog_.FindDtd(doc_name);
  }

  // One writer at a time per document; readers are never blocked — they
  // stay pinned to the base snapshot for as long as they need it.
  std::lock_guard<std::mutex> writer(doc->writer_mu);
  std::shared_ptr<const DocumentSnapshot> base = doc->Acquire();
  *decision_epoch = base->epoch;
  const xml::Document& base_dom = *base->dom;

  // Resolve the target set the way a query is answered (DESIGN.md §6.1):
  // a view target is rewritten into an MFA over the document, a direct
  // one compiled as-is, both through the plan cache, and one HyPE pass
  // over the pinned base (TAX-pruned when indexed) selects it. The
  // answers are document nodes already: no materialization, no
  // provenance map.
  if (view != nullptr) {
    if (view->policy == nullptr) {
      return Status::FailedPrecondition(
          "view '" + options.view +
          "' was registered from a specification, not a policy; updates "
          "require a policy-derived view");
    }
    // The rewritten MFA would simply select nothing under a foreign root;
    // a view over another document type is a caller error.
    const std::string& root_name =
        base_dom.names()->NameOf(base_dom.root()->label);
    if (root_name != view->definition.root()) {
      return Status::InvalidArgument("document root '" + root_name +
                                     "' does not match view root '" +
                                     view->definition.root() + "'");
    }
  }
  QueryOptions plan_opts;
  plan_opts.view = options.view;
  SMOQE_ASSIGN_OR_RETURN(PlanUse plan, GetPlan(*stmt.target, plan_opts, tr));
  std::set<int32_t> target_ids;
  {
    tel::SpanScope span(tr, "resolve");
    eval::DomEvalOptions dom_opts;
    dom_opts.guard = guard;
    dom_opts.tax = base->tax.get();
    SMOQE_ASSIGN_OR_RETURN(
        eval::DomEvalResult r,
        eval::EvalHypeDom(plan.plan->mfa, base_dom, dom_opts));
    for (const xml::Node* n : r.answers) target_ids.insert(n->node_id);
  }

  UpdateResult out;
  out.canonical = update::ToString(stmt);
  out.stats.targets = target_ids.size();
  out.stats.doc_epoch = base->epoch;
  if (target_ids.empty()) return out;  // nothing selected: a successful no-op

  // The script addresses the pinned base: authorization, dry-run
  // validation and the retention test only read it, so a rejected or
  // dry-run update copies nothing.
  const xml::Document* fragment =
      stmt.fragment.has_value() ? &*stmt.fragment : nullptr;
  std::vector<update::ResolvedEdit> script;
  for (int32_t id : target_ids) {
    script.push_back(
        update::ResolvedEdit{stmt.kind, base_dom.node(id), fragment});
  }

  // Authorize (view updates only), then validate — both before any
  // mutation, so a rejected or invalid update leaves everything intact.
  // Only the effect region is classified (DESIGN.md §6.2).
  if (view != nullptr) {
    tel::SpanScope span(tr, "authorize");
    const view::AccessMap access =
        update::EffectRegionAccess(*view->policy, base_dom, script);
    SMOQE_RETURN_IF_ERROR(
        update::AuthorizeScript(*view->policy, access, base_dom, script));
  }

  update::ApplierOptions apply_opts;
  apply_opts.dtd = dtd;
  apply_opts.rebuild_tax = options.rebuild_tax;
  apply_opts.guard = guard;
  if (options.dry_run) {
    tel::SpanScope span(tr, "validate");
    SMOQE_RETURN_IF_ERROR(
        update::UpdateApplier(&base_dom, apply_opts).Validate(script));
    return out;  // nothing was copied or published
  }

  // View-cache retention (DESIGN.md §6.5): decide per *fresh* cached view
  // BEFORE mutating — the test walks subtrees the update removes. A cache
  // survives iff its policy is qualifier-free and the whole effect region
  // is hidden from that view; everything else goes stale via the epoch.
  std::vector<std::string> retain;
  {
    std::lock_guard<std::mutex> caches(doc->caches_mu);
    for (const auto& [name, cache] : doc->view_caches) {
      if (!cache.mv.has_value() || cache.mv_epoch != base->epoch) continue;
      const ViewEntry* v = catalog_.FindView(name);
      if (v == nullptr || v->fingerprint != cache.fingerprint ||
          v->policy == nullptr || v->policy->HasConditions()) {
        continue;
      }
      const view::AccessMap access =
          update::EffectRegionAccess(*v->policy, base_dom, script);
      if (update::ScriptHiddenFrom(*v->policy, access, base_dom, script)) {
        retain.push_back(name);
      }
    }
  }

  // Accepted: copy-on-write from here on. The clone is the update's
  // largest allocation, so a request out of time or budget stops first.
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  // Every mutation runs against a private clone; the published snapshot
  // is untouched until the final Publish. Ids, orders and the epoch
  // survive the clone, so the script moves over by id.
  xml::Document clone = [&] {
    tel::SpanScope span(tr, "clone");
    return base_dom.Clone();
  }();
  // Post-clone growth (fragment grafts) charges the request budget; the
  // clone itself is the document's standing footprint, not request-owned.
  if (guard != nullptr) clone.set_memory_budget(guard->budget());
  for (update::ResolvedEdit& e : script) {
    e.target = clone.node(e.target->node_id);
  }
  std::optional<index::TaxIndex> tax_copy;
  if (base->tax != nullptr) {
    tel::SpanScope span(tr, "tax_copy");
    tax_copy.emplace(*base->tax);
  }
  apply_opts.tax = tax_copy.has_value() ? &*tax_copy : nullptr;
  update::UpdateApplier applier(&clone, apply_opts);

  update::ApplyStats applied;
  {
    tel::SpanScope span(tr, "apply");
    const auto apply_t0 = std::chrono::steady_clock::now();
    SMOQE_ASSIGN_OR_RETURN(applied, applier.Run(script));
    if (tm_ != nullptr) {
      // The repair-vs-rebuild split (DESIGN.md §6.4) is the metric that
      // tells whether incremental TAX maintenance pays off in practice.
      const int64_t apply_ns = ElapsedNs(apply_t0);
      if (applied.tax_rebuilt) {
        tm_->update_tax_rebuild_ns->Record(apply_ns);
      } else {
        tm_->update_tax_repair_ns->Record(apply_ns);
      }
    }
  }
  out.stats.edits_applied = applied.edits_applied;
  out.stats.edits_dropped = applied.edits_dropped;
  out.stats.nodes_inserted = applied.nodes_inserted;
  out.stats.nodes_deleted = applied.nodes_deleted;
  out.stats.tax_sets_recomputed = applied.tax_sets_recomputed;
  out.stats.tax_rebuilt = applied.tax_rebuilt ? 1 : 0;
  const uint64_t new_epoch = clone.epoch();
  out.stats.doc_epoch = new_epoch;

  // Last guard check *before Publish* — the fail-closed point. A trip
  // here (deadline landing mid-apply, budget blown by a graft) discards
  // the mutated clone and the shadow TAX copy; the published snapshot
  // chain, caches and epoch are untouched.
  if (guard != nullptr) SMOQE_RETURN_IF_ERROR(guard->Check());
  clone.set_memory_budget(nullptr);  // the budget dies with this request

  // Publish the successor snapshot. Readers that acquired the base keep
  // it alive until they finish; the base tree is then freed by refcount.
  tel::SpanScope publish_span(tr, "publish");
  std::shared_ptr<const index::TaxIndex> new_tax;
  if (tax_copy.has_value()) {
    new_tax = std::make_shared<const index::TaxIndex>(std::move(*tax_copy));
  }
  doc->Publish(std::make_shared<const DocumentSnapshot>(
      std::make_shared<const xml::Document>(std::move(clone)),
      std::move(new_tax), nullptr));

  // Epoch bookkeeping of the derived caches: retained materializations
  // jump to the new epoch; everything else is now stale and rebuilds on
  // next use.
  {
    std::lock_guard<std::mutex> caches(doc->caches_mu);
    for (const std::string& name : retain) {
      doc->view_caches[name].mv_epoch = new_epoch;
    }
    for (const auto& [name, cache] : doc->view_caches) {
      if (!cache.mv.has_value()) continue;
      if (cache.mv_epoch == new_epoch) {
        ++out.stats.view_caches_retained;
      } else if (cache.mv_epoch == base->epoch) {
        ++out.stats.view_caches_invalidated;
      }
    }
  }
  return out;
}

Result<UpdateResult> Smoqe::Update(const std::string& doc_name,
                                   std::string_view update_text,
                                   const UpdateOptions& options,
                                   const RequestOptions& req) {
  RequestScope scope(
      this, req,
      {"update", &FacadeMetrics::update, doc_name, options.view, update_text},
      {{"doc", doc_name},
       {"view", options.view, !options.view.empty()},
       {"dry_run", "true", options.dry_run}});
  if (!scope.admitted()) return scope.Busy();
  uint64_t decision_epoch = 0;
  Result<UpdateResult> result =
      UpdateImpl(doc_name, update_text, options, scope.guard(), scope.trace(),
                 &decision_epoch);
  // Guard terminations are left to the scope by design: a deadline /
  // budget / cancel trip is a resource outcome, not a security decision,
  // so it counts as an error and an audit record is deliberately NOT
  // written (docs/QUERY_LANGUAGE.md "Updates"). Updates never return a
  // profile.
  scope.Finish(result.status(), [&](tel::Profile* p) -> ProfileSlot {
    if (result.ok()) {
      tm_->update_accepted->Add(1);
      tm_->update_nodes_inserted->Add(result->stats.nodes_inserted);
      tm_->update_nodes_deleted->Add(result->stats.nodes_deleted);
      if (!options.view.empty()) {
        AppendAudit(tel::AuditKind::kUpdateAccept, doc_name, options.view,
                    update_text, result->stats.doc_epoch, scope.trace_id());
      }
      p->doc_epoch = result->stats.doc_epoch;
      p->canonical_query = result->canonical;
    } else if (result.status().code() == StatusCode::kPermissionDenied) {
      // Every security denial leaves exactly one audit record carrying
      // the evaluator's explain string verbatim (tested differentially
      // against the returned Status in tests/telemetry_facade_test.cc),
      // stamped with the epoch of the snapshot the decision read.
      tm_->update_rejected->Add(1);
      AppendAudit(tel::AuditKind::kUpdateReject, doc_name, options.view,
                  update_text, decision_epoch, scope.trace_id(),
                  result.status().message());
    }
    return nullptr;
  });
  return result;
}

std::string Smoqe::DumpMetrics(tel::DumpFormat format) const {
  if (telemetry_ == nullptr) {
    return format == tel::DumpFormat::kJson ? "{}\n" : "";
  }
  tel::MetricsRegistry& reg = telemetry_->registry();
  // Pull-time gauges: cheap process-wide facts sampled at dump time
  // rather than maintained on the hot path.
  reg.GetGauge("snapshot.live").Set(DocumentSnapshot::LiveCount());
  reg.GetGauge("snapshot.created").Set(DocumentSnapshot::CreatedCount());
  reg.GetGauge("audit.total")
      .Set(static_cast<int64_t>(telemetry_->audit().total()));
  reg.GetGauge("audit.dropped")
      .Set(static_cast<int64_t>(telemetry_->audit().dropped()));
  reg.GetGauge("trace.finished")
      .Set(static_cast<int64_t>(telemetry_->traces().finished_count()));
  reg.GetGauge("slowlog.total")
      .Set(static_cast<int64_t>(telemetry_->slow().total()));
  reg.GetGauge("slowlog.dropped")
      .Set(static_cast<int64_t>(telemetry_->slow().dropped()));
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    for (const std::string& name : catalog_.DocumentNames()) {
      const DocumentEntry* doc = catalog_.FindDocument(name);
      if (doc == nullptr) continue;
      reg.GetGauge("doc.epoch." + name)
          .Set(static_cast<int64_t>(doc->Acquire()->epoch));
    }
  }
  return reg.Render(format);
}

std::string Smoqe::DumpSlowQueries() const {
  if (telemetry_ == nullptr) return "[]\n";
  return telemetry_->slow().RenderJson();
}

std::vector<std::string> Smoqe::DocumentNames() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return catalog_.DocumentNames();
}

std::vector<std::string> Smoqe::ViewNames() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return catalog_.ViewNames();
}

}  // namespace smoqe::core
