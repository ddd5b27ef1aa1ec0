// The facade's request pipeline, pinned per entry point and outcome:
// {Query, QueryBatch, QueryBatchMulti, Update} × {ok, ok + PROFILE,
// item-local error, whole-call error, authorization denial, pre-cancelled
// token, telemetry off}. Each row asserts the exact metric deltas, the
// admission gauge, the audit records, the slow-log entry, the trace's
// name / attributes and where a requested profile lands — everything the
// shared RequestScope owns, so no entry point can drift from the others.
//
// Deterministic by construction: a serial engine, slow-log threshold 0
// (every call is captured), a pre-cancelled token instead of a racing
// one, and no timing or scheduling assumptions.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/core/smoqe.h"
#include "tests/test_util.h"

namespace smoqe::core {
namespace {

namespace tel = ::smoqe::telemetry;

constexpr char kNursePolicy[] =
    "patient/pname   : N;\n"
    "patient/visit   : N;\n"
    "visit/treatment : Y;\n"
    "treatment/test  : Y;\n";

constexpr char kNurseQuery[] = "//treatment";
constexpr char kDirectQuery[] = "//pname";
constexpr char kAcceptedUpdate[] =
    "replace //treatment[medication = 'headache'] with "
    "<treatment><medication>x</medication></treatment>";
constexpr char kDeniedUpdate[] = "delete hospital/patient";
/// Applied directly during setup, so every row starts at epoch 1 and an
/// epoch read at the wrong moment cannot pass for the right one by luck.
constexpr char kSetupUpdate[] =
    "insert into hospital/patient "
    "<visit><treatment><medication>setup</medication></treatment>"
    "<date>d0</date></visit>";

enum class Op { kQuery, kBatch, kBatchMulti, kUpdate };

enum class Outcome {
  kOk,            // everything succeeds
  kProfile,       // kOk with RequestOptions::profile set
  kItemError,     // one batch item fails on its own terms
  kCallError,     // unknown document: the whole call fails
  kDenied,        // the view update is rejected by authorization
  kCancelled,     // a pre-cancelled CancelToken
  kTelemetryOff,  // kOk, profile requested, on an engine without telemetry
};

/// Where a requested profile lands.
enum class ProfileAt { kNowhere, kAnswer, kFirstAnswer };

/// Delta sentinel: "equals the figure derived from the call's own result"
/// (answer counts, EvalStats, update node counts).
constexpr int64_t kDerived = -1;

struct ExpectedAudit {
  tel::AuditKind kind;
  const char* view;
  const char* doc;
  const char* statement;
  bool allowed;
};

struct Row {
  const char* name;
  Op op;
  Outcome outcome;
  StatusCode code;
  /// Deltas of the watched metrics ("name" = counter, "name#count" =
  /// histogram sample count); every unlisted one must not move.
  std::map<std::string, int64_t> deltas;
  std::vector<ExpectedAudit> audit;
  const char* guard_attr;  // trace "guard" attribute; nullptr = absent
  ProfileAt profile;
};

// Failure messages name the row instead of dumping its bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

const std::vector<std::string>& WatchedCounters() {
  static const std::vector<std::string> names = {
      "query.count",           "query.errors",
      "query.answers",         "batch.count",
      "batch.errors",          "batch.items",
      "update.count",          "update.accepted",
      "update.rejected",       "update.errors",
      "update.nodes_inserted", "update.nodes_deleted",
      "guard.deadline_exceeded", "guard.budget_exceeded",
      "guard.admission_rejected", "guard.cancelled",
      "eval.nodes_visited",    "eval.subtrees_pruned",
      "eval.answers"};
  return names;
}

const std::vector<std::string>& WatchedHistograms() {
  static const std::vector<std::string> names = {
      "query.latency_ns",     "query.epoch_lag",      "batch.latency_ns",
      "batch.plans_per_scan", "update.latency_ns",    "update.tax_repair_ns",
      "update.tax_rebuild_ns"};
  return names;
}

std::map<std::string, uint64_t> SnapshotMetrics(tel::MetricsRegistry& reg) {
  std::map<std::string, uint64_t> out;
  for (const std::string& n : WatchedCounters()) {
    out[n] = reg.GetCounter(n).Value();
  }
  for (const std::string& n : WatchedHistograms()) {
    out[n + "#count"] = reg.GetHistogram(n).Count();
  }
  return out;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuery: return "query";
    case Op::kBatch: return "query_batch";
    case Op::kBatchMulti: return "query_batch_multi";
    case Op::kUpdate: return "update";
  }
  return "";
}

/// Trace attribute keys each entry point sets at entry (the nurse view is
/// always named, so "view" is present where the op records it).
std::set<std::string> EntryAttrKeys(Op op) {
  switch (op) {
    case Op::kQuery: return {"doc", "query", "view", "mode"};
    case Op::kBatch: return {"doc", "items"};
    case Op::kBatchMulti: return {"items"};
    case Op::kUpdate: return {"doc", "view"};
  }
  return {};
}

QueryOptions Nurse(EvalMode mode = EvalMode::kDom) {
  QueryOptions o;
  o.view = "nurses";
  o.mode = mode;
  return o;
}

std::vector<BatchQueryItem> BatchItems(Outcome outcome) {
  std::vector<BatchQueryItem> items;
  items.push_back({kNurseQuery, Nurse(EvalMode::kStax)});
  if (outcome == Outcome::kItemError) items.push_back({"//patient[", {}});
  items.push_back({kDirectQuery, {}});
  return items;
}

std::vector<DocBatchItem> MultiItems(Outcome outcome) {
  std::vector<DocBatchItem> items;
  items.push_back({"ward", kNurseQuery, Nurse(EvalMode::kStax)});
  if (outcome == Outcome::kItemError) {
    QueryOptions ghost;
    ghost.view = "ghosts";  // never registered
    items.push_back({"ward", kNurseQuery, ghost});
  }
  items.push_back({outcome == Outcome::kCallError ? "nosuch" : "ward2",
                   kDirectQuery, {}});
  return items;
}

/// What one call returned, flattened across the entry points' types.
struct Call {
  Status status = Status::OK();
  std::vector<QueryAnswer> answers;  // Query → one; batches → per item
  UpdateResult update;
  std::string doc;        // slow-log / trace identity of the call
  std::string view;
  std::string statement;
};

Call RunCall(Smoqe& engine, Op op, Outcome outcome) {
  CancelToken cancel;
  cancel.Cancel();
  RequestOptions req;
  if (outcome == Outcome::kCancelled) req.cancel = &cancel;
  req.profile =
      outcome == Outcome::kProfile || outcome == Outcome::kTelemetryOff;
  const std::string doc = outcome == Outcome::kCallError ? "nosuch" : "ward";
  Call call;
  switch (op) {
    case Op::kQuery: {
      auto r = engine.Query(doc, kNurseQuery, Nurse(), req);
      call.status = r.status();
      if (r.ok()) call.answers.push_back(std::move(*r));
      call.doc = doc;
      call.view = "nurses";
      call.statement = kNurseQuery;
      break;
    }
    case Op::kBatch: {
      const std::vector<BatchQueryItem> items = BatchItems(outcome);
      auto r = engine.QueryBatch(doc, items, req);
      call.status = r.status();
      if (r.ok()) call.answers = std::move(*r);
      call.doc = doc;
      call.statement = std::to_string(items.size()) + " items";
      break;
    }
    case Op::kBatchMulti: {
      const std::vector<DocBatchItem> items = MultiItems(outcome);
      auto r = engine.QueryBatchMulti(items, req);
      call.status = r.status();
      if (r.ok()) call.answers = std::move(*r);
      call.statement = std::to_string(items.size()) + " items";
      break;
    }
    case Op::kUpdate: {
      UpdateOptions up;
      up.view = "nurses";
      const char* stmt =
          outcome == Outcome::kDenied ? kDeniedUpdate : kAcceptedUpdate;
      auto r = engine.Update(doc, stmt, up, req);
      call.status = r.status();
      if (r.ok()) call.update = std::move(*r);
      call.doc = doc;
      call.view = "nurses";
      call.statement = stmt;
      break;
    }
  }
  return call;
}

void SetupEngine(Smoqe* engine) {
  ASSERT_TRUE(engine
                  ->RegisterDtd("hospital", testutil::kHospitalDtd, "hospital")
                  .ok());
  ASSERT_TRUE(engine->LoadDocument("ward", testutil::kHospitalDoc).ok());
  ASSERT_TRUE(engine->LoadDocument("ward2", testutil::kHospitalDoc).ok());
  ASSERT_TRUE(engine->DefineView("nurses", "hospital", kNursePolicy).ok());
  ASSERT_TRUE(engine->Update("ward", kSetupUpdate).ok());
  auto epoch = engine->DocumentEpoch("ward");
  ASSERT_TRUE(epoch.ok());
  ASSERT_EQ(*epoch, 1u);
}

/// The figures a kDerived delta must equal, from the call's own result.
std::map<std::string, uint64_t> Derived(const Call& call) {
  std::map<std::string, uint64_t> d;
  for (const QueryAnswer& a : call.answers) {
    if (!a.status.ok()) continue;
    d["query.answers"] += a.answers_xml.size();
    d["eval.answers"] += a.stats.answers;
    d["eval.nodes_visited"] += a.stats.nodes_visited;
    d["eval.subtrees_pruned"] += a.stats.subtrees_pruned;
  }
  d["update.nodes_inserted"] = call.update.stats.nodes_inserted;
  d["update.nodes_deleted"] = call.update.stats.nodes_deleted;
  return d;
}

const ExpectedAudit kNurseQueryAudit{tel::AuditKind::kQueryRewrite, "nurses",
                                     "ward", kNurseQuery, true};

std::vector<Row> Rows() {
  const StatusCode kOk = StatusCode::kOk;
  const StatusCode kNotFound = StatusCode::kNotFound;
  const StatusCode kCancelledCode = StatusCode::kCancelled;
  const std::map<std::string, int64_t> query_ok = {
      {"query.count", 1},          {"query.latency_ns#count", 1},
      {"query.epoch_lag#count", 1}, {"query.answers", kDerived},
      {"eval.answers", kDerived},  {"eval.nodes_visited", kDerived},
      {"eval.subtrees_pruned", kDerived}};
  const std::map<std::string, int64_t> query_fail = {
      {"query.count", 1}, {"query.errors", 1}, {"query.latency_ns#count", 1}};
  std::map<std::string, int64_t> query_cancel = query_fail;
  query_cancel["guard.cancelled"] = 1;

  auto batch_ok = [](int64_t items, int64_t item_errors) {
    std::map<std::string, int64_t> d = {
        {"batch.count", 1},
        {"batch.items", items},
        {"batch.latency_ns#count", 1},
        {"batch.plans_per_scan#count", 1},
        {"query.answers", kDerived},
        {"eval.answers", kDerived},
        {"eval.nodes_visited", kDerived},
        {"eval.subtrees_pruned", kDerived}};
    if (item_errors > 0) d["query.errors"] = item_errors;
    return d;
  };
  auto batch_fail = [](int64_t items, bool cancelled) {
    std::map<std::string, int64_t> d = {{"batch.count", 1},
                                        {"batch.items", items},
                                        {"batch.errors", 1},
                                        {"batch.latency_ns#count", 1}};
    if (cancelled) d["guard.cancelled"] = 1;
    return d;
  };

  const std::map<std::string, int64_t> update_ok = {
      {"update.count", 1},
      {"update.accepted", 1},
      {"update.latency_ns#count", 1},
      {"update.tax_repair_ns#count", 1},
      {"update.nodes_inserted", kDerived},
      {"update.nodes_deleted", kDerived}};
  const std::map<std::string, int64_t> update_fail = {
      {"update.count", 1},
      {"update.errors", 1},
      {"update.latency_ns#count", 1}};
  std::map<std::string, int64_t> update_cancel = update_fail;
  update_cancel["guard.cancelled"] = 1;

  const ExpectedAudit accept{tel::AuditKind::kUpdateAccept, "nurses", "ward",
                             kAcceptedUpdate, true};
  const ExpectedAudit reject{tel::AuditKind::kUpdateReject, "nurses", "ward",
                             kDeniedUpdate, false};
  using O = Outcome;
  using P = ProfileAt;
  return {
      {"Query_Ok", Op::kQuery, O::kOk, kOk, query_ok, {kNurseQueryAudit},
       nullptr, P::kNowhere},
      {"Query_Profile", Op::kQuery, O::kProfile, kOk, query_ok,
       {kNurseQueryAudit}, nullptr, P::kAnswer},
      {"Query_CallError", Op::kQuery, O::kCallError, kNotFound, query_fail, {},
       nullptr, P::kNowhere},
      {"Query_Cancelled", Op::kQuery, O::kCancelled, kCancelledCode,
       query_cancel, {}, "cancel", P::kNowhere},
      {"Query_TelemetryOff", Op::kQuery, O::kTelemetryOff, kOk, {}, {},
       nullptr, P::kNowhere},

      {"Batch_Ok", Op::kBatch, O::kOk, kOk, batch_ok(2, 0),
       {kNurseQueryAudit}, nullptr, P::kNowhere},
      {"Batch_Profile", Op::kBatch, O::kProfile, kOk, batch_ok(2, 0),
       {kNurseQueryAudit}, nullptr, P::kFirstAnswer},
      {"Batch_ItemError", Op::kBatch, O::kItemError, kOk, batch_ok(3, 1),
       {kNurseQueryAudit}, nullptr, P::kNowhere},
      {"Batch_CallError", Op::kBatch, O::kCallError, kNotFound,
       batch_fail(2, false), {}, nullptr, P::kNowhere},
      {"Batch_Cancelled", Op::kBatch, O::kCancelled, kCancelledCode,
       batch_fail(2, true), {}, "cancel", P::kNowhere},
      {"Batch_TelemetryOff", Op::kBatch, O::kTelemetryOff, kOk, {}, {},
       nullptr, P::kNowhere},

      {"BatchMulti_Ok", Op::kBatchMulti, O::kOk, kOk, batch_ok(2, 0),
       {kNurseQueryAudit}, nullptr, P::kNowhere},
      // Shares QueryBatch's fold, so its batch profile rides on the
      // first answer too.
      {"BatchMulti_Profile", Op::kBatchMulti, O::kProfile, kOk,
       batch_ok(2, 0), {kNurseQueryAudit}, nullptr, P::kFirstAnswer},
      {"BatchMulti_ItemError", Op::kBatchMulti, O::kItemError, kOk,
       batch_ok(3, 1), {kNurseQueryAudit}, nullptr, P::kNowhere},
      {"BatchMulti_CallError", Op::kBatchMulti, O::kCallError, kNotFound,
       batch_fail(2, false), {}, nullptr, P::kNowhere},
      {"BatchMulti_Cancelled", Op::kBatchMulti, O::kCancelled, kCancelledCode,
       batch_fail(2, true), {}, "cancel", P::kNowhere},
      {"BatchMulti_TelemetryOff", Op::kBatchMulti, O::kTelemetryOff, kOk, {},
       {}, nullptr, P::kNowhere},

      {"Update_Ok", Op::kUpdate, O::kOk, kOk, update_ok, {accept}, nullptr,
       P::kNowhere},
      // Updates never profile: the request is honoured only by forcing
      // the trace; the profile exists solely as the slow-log entry.
      {"Update_Profile", Op::kUpdate, O::kProfile, kOk, update_ok, {accept},
       nullptr, P::kNowhere},
      {"Update_Denied", Op::kUpdate, O::kDenied, StatusCode::kPermissionDenied,
       {{"update.count", 1},
        {"update.rejected", 1},
        {"update.latency_ns#count", 1}},
       {reject}, nullptr, P::kNowhere},
      {"Update_CallError", Op::kUpdate, O::kCallError, kNotFound, update_fail,
       {}, nullptr, P::kNowhere},
      {"Update_Cancelled", Op::kUpdate, O::kCancelled, kCancelledCode,
       update_cancel, {}, "cancel", P::kNowhere},
      {"Update_TelemetryOff", Op::kUpdate, O::kTelemetryOff, kOk, {}, {},
       nullptr, P::kNowhere},
  };
}

class RequestPipeline : public ::testing::TestWithParam<Row> {};

TEST_P(RequestPipeline, ObservableEffectsMatchTheRow) {
  const Row& row = GetParam();
  EngineOptions options;
  options.max_threads = 1;
  options.slow_query_threshold_ms = 0;  // capture every call
  options.telemetry.enabled = row.outcome != Outcome::kTelemetryOff;
  Smoqe engine(options);
  SetupEngine(&engine);
  if (HasFatalFailure()) return;

  tel::Telemetry* telemetry = engine.telemetry();
  if (row.outcome == Outcome::kTelemetryOff) {
    // The fast path: no registry, no trace, no profile, same answers.
    ASSERT_EQ(telemetry, nullptr);
    const Call call = RunCall(engine, row.op, row.outcome);
    ASSERT_TRUE(call.status.ok()) << call.status.ToString();
    for (const QueryAnswer& a : call.answers) {
      EXPECT_TRUE(a.status.ok()) << a.status.ToString();
      EXPECT_EQ(a.trace_id, 0u);
      EXPECT_EQ(a.profile, nullptr);
    }
    if (row.op != Op::kUpdate) {
      EXPECT_FALSE(call.answers.empty());
    }
    EXPECT_EQ(engine.DumpSlowQueries(), "[]\n");
    return;
  }
  ASSERT_NE(telemetry, nullptr);
  tel::MetricsRegistry& reg = telemetry->registry();
  const auto before = SnapshotMetrics(reg);
  const uint64_t audit_before = telemetry->audit().total();
  const uint64_t slow_before = telemetry->slow().total();
  const uint64_t traces_before = telemetry->traces().finished_count();
  const uint64_t epoch_before = *engine.DocumentEpoch("ward");

  const Call call = RunCall(engine, row.op, row.outcome);
  ASSERT_EQ(call.status.code(), row.code) << call.status.ToString();

  // --- Metrics: exact deltas, derived ones from the result itself.
  const auto after = SnapshotMetrics(reg);
  const auto derived = Derived(call);
  for (const auto& [name, value] : after) {
    const uint64_t delta = value - before.at(name);
    auto it = row.deltas.find(name);
    if (it == row.deltas.end()) {
      EXPECT_EQ(delta, 0u) << name;
    } else if (it->second == kDerived) {
      EXPECT_EQ(delta, derived.count(name) ? derived.at(name) : 0) << name;
    } else {
      EXPECT_EQ(delta, static_cast<uint64_t>(it->second)) << name;
    }
  }
  for (const auto& [name, value] : row.deltas) {
    EXPECT_TRUE(after.count(name)) << "row names unwatched metric " << name;
  }
  if (call.status.ok() && row.op != Op::kUpdate) {
    EXPECT_GT(derived.at("query.answers"), 0u) << "vacuous answer check";
  }
  EXPECT_EQ(reg.GetGauge("engine.inflight").Value(), 0);

  // --- Trace: one finished trace of the op's name; its attributes.
  ASSERT_EQ(telemetry->traces().finished_count(), traces_before + 1);
  const auto recent = telemetry->traces().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  const tel::Trace& trace = *recent[0];
  EXPECT_EQ(trace.name(), OpName(row.op));
  std::map<std::string, std::string> attrs;
  for (const auto& [k, v] : trace.attrs()) attrs[k] = v;
  std::set<std::string> keys = EntryAttrKeys(row.op);
  keys.insert("status");
  if (row.guard_attr != nullptr) keys.insert("guard");
  std::set<std::string> got_keys;
  for (const auto& [k, v] : attrs) got_keys.insert(k);
  EXPECT_EQ(got_keys, keys);
  EXPECT_EQ(attrs["status"],
            call.status.ok() ? "ok" : call.status.ToString());
  if (row.guard_attr != nullptr) {
    EXPECT_EQ(attrs["guard"], row.guard_attr);
  }
  for (const QueryAnswer& a : call.answers) EXPECT_EQ(a.trace_id, trace.id());

  // --- Audit: exactly the expected records, in order.
  tel::AuditFilter since;
  since.min_seq = audit_before + 1;
  const std::vector<tel::AuditRecord> records =
      telemetry->audit().Query(since);
  ASSERT_EQ(records.size(), row.audit.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const tel::AuditRecord& rec = records[i];
    const ExpectedAudit& want = row.audit[i];
    SCOPED_TRACE("audit record " + std::to_string(i));
    EXPECT_EQ(rec.kind, want.kind);
    EXPECT_EQ(rec.view, want.view);
    EXPECT_EQ(rec.doc, want.doc);
    EXPECT_EQ(rec.statement, want.statement);
    EXPECT_EQ(rec.allowed, want.allowed);
    EXPECT_EQ(rec.trace_id, trace.id());
    switch (rec.kind) {
      case tel::AuditKind::kQueryRewrite:
        EXPECT_EQ(rec.explain, "");
        ASSERT_FALSE(call.answers.empty());
        EXPECT_EQ(rec.doc_epoch, call.answers[0].doc_epoch);
        break;
      case tel::AuditKind::kUpdateAccept:
        EXPECT_EQ(rec.explain, "");
        EXPECT_EQ(rec.doc_epoch, call.update.stats.doc_epoch);
        EXPECT_EQ(rec.doc_epoch, epoch_before + 1);
        break;
      case tel::AuditKind::kUpdateReject:
        // The denial's explain verbatim, and the epoch of the snapshot
        // the authorization decision read — not a later one.
        EXPECT_EQ(rec.explain, call.status.message());
        EXPECT_EQ(rec.doc_epoch, epoch_before);
        break;
    }
  }

  // --- Slow log (threshold 0): one entry with the call's identity.
  ASSERT_EQ(telemetry->slow().total(), slow_before + 1);
  const auto entries = telemetry->slow().Entries();
  ASSERT_FALSE(entries.empty());
  const tel::SlowQueryEntry& slow = entries.back();
  EXPECT_EQ(slow.profile.op, OpName(row.op));
  EXPECT_EQ(slow.profile.doc, call.doc);
  EXPECT_EQ(slow.profile.view, call.view);
  EXPECT_EQ(slow.profile.statement, call.statement);
  EXPECT_EQ(slow.role, call.view);
  EXPECT_EQ(slow.profile.trace_id, trace.id());

  // --- PROFILE: lands exactly where the row says, nowhere else.
  for (size_t i = 0; i < call.answers.size(); ++i) {
    const bool here = (row.profile == ProfileAt::kAnswer ||
                       row.profile == ProfileAt::kFirstAnswer) &&
                      i == 0;
    SCOPED_TRACE("answer " + std::to_string(i));
    if (!here) {
      EXPECT_EQ(call.answers[i].profile, nullptr);
      continue;
    }
    ASSERT_NE(call.answers[i].profile, nullptr);
    const tel::Profile& p = *call.answers[i].profile;
    EXPECT_EQ(p.op, OpName(row.op));
    EXPECT_EQ(p.doc, call.doc);
    EXPECT_EQ(p.view, call.view);
    EXPECT_EQ(p.statement, call.statement);
    EXPECT_EQ(p.trace_id, trace.id());
    EXPECT_EQ(p.doc_epoch, call.answers[0].doc_epoch);
    EXPECT_EQ(p.total_ns, slow.profile.total_ns);
    if (row.op == Op::kQuery) {
      EXPECT_FALSE(p.canonical_query.empty());
      EXPECT_EQ(p.stats.answers, call.answers[0].stats.answers);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEntryPoints, RequestPipeline, ::testing::ValuesIn(Rows()),
    [](const ::testing::TestParamInfo<Row>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace smoqe::core
