#include "src/eval/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "src/common/strings.h"
#include "src/eval/engine.h"
#include "src/xml/stax.h"

namespace smoqe::eval {

namespace {

/// Attribute view over one start element's attributes — the reader's
/// current attrs() (Run) or a slice of a chunk's (RunParallel). Names
/// match by view compare against the interned name.
class SliceAttrs : public AttrProvider {
 public:
  SliceAttrs(const xml::StaxAttr* begin, const xml::StaxAttr* end,
             const xml::NameTable& names)
      : begin_(begin), end_(end), names_(names) {}

  std::optional<std::string_view> Find(xml::NameId name) const override {
    if (begin_ == end_) return std::nullopt;
    const std::string_view want = names_.NameOf(name);
    for (const xml::StaxAttr* a = begin_; a != end_; ++a) {
      if (a->name == want) return a->value;
    }
    return std::nullopt;
  }

 private:
  const xml::StaxAttr* begin_;
  const xml::StaxAttr* end_;
  const xml::NameTable& names_;
};

/// An in-flight subtree capture, keyed by the driver's document pre-order
/// node id. One capture per staged element regardless of how many plans
/// staged it — the serialized bytes are demultiplexed at FinishDocument.
struct Capture {
  int32_t node_id;
  int open_depth;  ///< reader depth at which the capture started
  std::string buffer;
};

/// \brief The shared answer-capture state machine, factored out so the
/// serial scan (Run) and the parallel merge (RunParallel) produce
/// byte-identical captures by construction.
///
/// Start tags are held open ("<name a=\"v\"" without the '>') and closed
/// lazily, so empty elements serialize as "<name/>" exactly like the DOM
/// serializer (captures and SerializeNode must agree byte-for-byte).
class CaptureStream {
 public:
  /// `staged` says some plan put this element in its Cans at Enter.
  void StartElement(std::string_view name,
                    const xml::StaxAttr* attrs_begin,
                    const xml::StaxAttr* attrs_end, int depth,
                    int32_t node_id, bool staged) {
    if (captures_.empty() && !staged) return;
    if (tag_open_) {
      for (Capture& c : captures_) c.buffer += '>';
      tag_open_ = false;
    }
    open_tag_.clear();
    open_tag_ += '<';
    open_tag_ += name;
    for (const xml::StaxAttr* a = attrs_begin; a != attrs_end; ++a) {
      open_tag_ += ' ';
      open_tag_ += a->name;
      open_tag_ += "=\"";
      AppendXmlEscaped(a->value, &open_tag_);
      open_tag_ += '"';
    }
    for (Capture& c : captures_) c.buffer += open_tag_;
    if (staged) {
      Capture c;
      c.node_id = node_id;
      c.open_depth = depth;
      c.buffer = open_tag_;
      captures_.push_back(std::move(c));
    }
    appended_ += open_tag_.size() * captures_.size();
    tag_open_ = true;  // captures_ is non-empty here by construction
  }

  void Text(std::string_view raw) {
    if (captures_.empty()) return;
    if (tag_open_) {
      for (Capture& c : captures_) c.buffer += '>';
      tag_open_ = false;
    }
    escaped_.clear();
    AppendXmlEscaped(raw, &escaped_);
    for (Capture& c : captures_) c.buffer += escaped_;
    appended_ += escaped_.size() * captures_.size();
  }

  void EndElement(std::string_view name, int depth) {
    if (tag_open_) {
      // The closing element is empty: finish it as a self-closing tag.
      for (Capture& c : captures_) c.buffer += "/>";
      tag_open_ = false;
    } else {
      for (Capture& c : captures_) {
        c.buffer += "</";
        c.buffer += name;
        c.buffer += '>';
      }
      appended_ += (name.size() + 3) * captures_.size();
    }
    size_t buffered = 0;
    for (const Capture& c : captures_) buffered += c.buffer.size();
    peak_buffered_ = std::max(peak_buffered_, buffered);
    if (!captures_.empty() && captures_.back().open_depth == depth + 1) {
      finished_.emplace(captures_.back().node_id,
                        std::move(captures_.back().buffer));
      captures_.pop_back();
    }
  }

  const std::map<int32_t, std::string>& finished() const { return finished_; }
  size_t peak_buffered() const { return peak_buffered_; }
  /// Monotone total of capture bytes written; drivers charge the delta
  /// since their last guard tick into the request MemoryBudget.
  uint64_t appended() const { return appended_; }

 private:
  std::vector<Capture> captures_;
  std::map<int32_t, std::string> finished_;
  size_t peak_buffered_ = 0;
  uint64_t appended_ = 0;
  bool tag_open_ = false;  // captures have an unclosed start tag pending
  std::string open_tag_;   // scratch; reused across start events
  std::string escaped_;    // scratch; reused across text events
};

/// Per-engine evaluation state — one per distinct plan of the batch: the
/// engine (runs, guards, frames) plus the skip window and the engine-id →
/// document-node map used to demultiplex shared captures back into
/// per-plan answers.
/// Confinement (DESIGN.md §7): under RunParallel each PlanState is
/// advanced by exactly one claimer per chunk; the driver thread reads
/// `staged_events` only after the chunk's join.
struct PlanState {
  PlanState(const automata::Mfa& mfa, const EngineOptions& engine_options)
      : engine(mfa, engine_options) {}

  HypeEngine engine;
  /// Reader depth of the element whose subtree this plan is skipping
  /// (dead-run / TAX pruning), or -1 when the plan is live. While
  /// skipping, the plan receives no events except direct text of the
  /// skipped element itself when `skip_needs_text` is set.
  int skip_depth = -1;
  bool skip_needs_text = false;
  /// (engine id, driver node id) of each element this plan staged as a
  /// candidate, in ascending order (candidates are discovered at Enter).
  /// Plans skip independently, so the two numberings drift apart per
  /// plan; only candidates are recorded, keeping streaming memory
  /// O(candidates) — not O(document) — like the captures themselves.
  std::vector<std::pair<int32_t, int32_t>> candidate_nodes;
  /// Chunk-local indexes of start events this plan staged (parallel
  /// driver only; cleared per chunk, read by the driver after the join).
  std::vector<uint32_t> staged_events;
};

/// One decoded event of a tokenizer chunk.
struct TokEvent {
  xml::StaxEvent kind;
  int depth;
  xml::NameId label = xml::kNoName;  ///< start elements
  int32_t node_id = -1;              ///< start elements
  uint32_t attr_begin = 0;           ///< start elements: [begin, end) into
  uint32_t attr_end = 0;             ///<   TokChunk::attrs
  std::string_view str;  ///< start/end: element name; text: decoded text
};

/// A chunk of decoded, interned events — the unit of fork/join work the
/// parallel scan hands to the engines. Events and attributes view the
/// document text, which outlives the batch; only text the reader had to
/// decode lives in `decoded`, because the reader reuses its scratch on
/// the next `Next()` while workers still read this chunk. Buffers are
/// reused across refills.
struct TokChunk {
  std::vector<TokEvent> events;
  std::vector<xml::StaxAttr> attrs;
  /// Copies of decoded strings; a deque, so views into earlier copies
  /// stay valid as it grows.
  std::deque<std::string> decoded;

  /// `v` (a string of the reader's current event) as a view that lives
  /// as long as this chunk's contents.
  std::string_view Keep(const xml::StaxReader& reader, std::string_view v) {
    return reader.Borrowed(v) ? v : decoded.emplace_back(v);
  }

  void Clear() {
    events.clear();
    attrs.clear();
    decoded.clear();
  }
};

/// Decodes up to `max_events` events into `out` (cleared first). Start
/// labels are interned here, on the driver thread — workers only ever
/// read the name table. Returns true once kEndDocument was consumed, or
/// the guard's status once `ticker` finds it tripped.
Result<bool> FillChunk(xml::StaxReader& reader, xml::NameCache& labels,
                       int32_t* next_node_id, size_t max_events,
                       GuardTicker* ticker, TokChunk* out) {
  out->Clear();
  while (out->events.size() < max_events) {
    if (ticker->Due()) SMOQE_RETURN_IF_ERROR(ticker->Now());
    SMOQE_ASSIGN_OR_RETURN(xml::StaxEvent ev, reader.Next());
    switch (ev) {
      case xml::StaxEvent::kStartDocument:
        continue;
      case xml::StaxEvent::kEndDocument:
        return true;
      case xml::StaxEvent::kStartElement: {
        TokEvent e;
        e.kind = ev;
        e.depth = reader.depth();
        e.label = labels.Intern(reader.name());
        e.node_id = (*next_node_id)++;
        e.attr_begin = static_cast<uint32_t>(out->attrs.size());
        for (const xml::StaxAttr& a : reader.attrs()) {
          out->attrs.push_back({a.name, out->Keep(reader, a.value)});
        }
        e.attr_end = static_cast<uint32_t>(out->attrs.size());
        e.str = reader.name();
        out->events.push_back(e);
        break;
      }
      case xml::StaxEvent::kEndElement: {
        TokEvent e;
        e.kind = ev;
        e.depth = reader.depth();
        e.str = reader.name();
        out->events.push_back(e);
        break;
      }
      case xml::StaxEvent::kCharacters: {
        TokEvent e;
        e.kind = ev;
        e.depth = reader.depth();
        e.str = out->Keep(reader, reader.text());
        out->events.push_back(e);
        break;
      }
    }
  }
  return false;
}

/// Advances one plan through a whole chunk — the same per-plan logic the
/// serial scan applies per event, so the engine sees an identical
/// Enter/Text/Leave sequence. Stops early, mid-chunk, with the guard's
/// status once `ticker` finds it tripped; the engine is then unusable.
Status AdvancePlanOverChunk(PlanState& ps, const TokChunk& chunk,
                            const xml::NameTable& names,
                            GuardTicker* ticker) {
  ps.staged_events.clear();
  for (uint32_t i = 0; i < chunk.events.size(); ++i) {
    if (ticker->Due()) SMOQE_RETURN_IF_ERROR(ticker->Now());
    const TokEvent& ev = chunk.events[i];
    switch (ev.kind) {
      case xml::StaxEvent::kStartElement: {
        if (ps.skip_depth >= 0) {
          ps.engine.mutable_stats()->nodes_pruned += 1;
          break;
        }
        SliceAttrs attrs(chunk.attrs.data() + ev.attr_begin,
                         chunk.attrs.data() + ev.attr_end, names);
        size_t candidates_before = ps.engine.cans().node_count();
        int32_t engine_id = ps.engine.next_id();
        HypeEngine::EnterResult r = ps.engine.Enter(ev.label, attrs);
        if (ps.engine.cans().node_count() > candidates_before) {
          ps.staged_events.push_back(i);
          ps.candidate_nodes.emplace_back(engine_id, ev.node_id);
        }
        if (r.can_skip_subtree) {
          ps.skip_depth = ev.depth;
          ps.skip_needs_text = r.needs_direct_text;
        }
        break;
      }
      case xml::StaxEvent::kCharacters: {
        if (ps.skip_depth >= 0) {
          if (ps.skip_needs_text && ev.depth == ps.skip_depth) {
            ps.engine.Text(ev.str);
          }
        } else {
          ps.engine.Text(ev.str);
        }
        break;
      }
      case xml::StaxEvent::kEndElement: {
        if (ps.skip_depth >= 0) {
          if (ev.depth == ps.skip_depth - 1) {
            ps.engine.Leave();  // the Leave matching the skip root's Enter
            ps.skip_depth = -1;
          }
        } else {
          ps.engine.Leave();
        }
        break;
      }
      case xml::StaxEvent::kStartDocument:
      case xml::StaxEvent::kEndDocument:
        break;  // never stored in chunks
    }
  }
  return Status::OK();
}

/// Demultiplexes each engine's answer ids into serialized answers via its
/// candidate map and the shared finished-capture table, then hands every
/// registered plan the result of its engine (`engine_of[k]`).
Result<std::vector<StaxEvalResult>> AssembleResults(
    std::vector<std::unique_ptr<PlanState>>& states, const CaptureStream& cap,
    const std::vector<size_t>& engine_of) {
  std::vector<StaxEvalResult> per_engine(states.size());
  for (size_t e = 0; e < states.size(); ++e) {
    PlanState& ps = *states[e];
    const std::vector<int32_t>& ids = ps.engine.FinishDocument();
    StaxEvalResult& out = per_engine[e];
    for (int32_t id : ids) {
      // Answers are candidates, so the binary search always lands.
      auto cand = std::lower_bound(ps.candidate_nodes.begin(),
                                   ps.candidate_nodes.end(),
                                   std::make_pair(id, INT32_MIN));
      auto it = cand == ps.candidate_nodes.end() || cand->first != id
                    ? cap.finished().end()
                    : cap.finished().find(cand->second);
      if (it == cap.finished().end()) {
        return Status::Internal("engine " + std::to_string(e) + " answer " +
                                std::to_string(id) + " was never captured");
      }
      out.answers.push_back(StaxAnswer{id, it->second});
    }
    out.stats = ps.engine.stats();
    // The capture footprint is shared by the whole batch; every plan
    // reports the pass-wide peak.
    out.stats.buffered_bytes = cap.peak_buffered();
    out.stats.batch_plans = states.size();
  }
  // A plan's last user takes its engine's result; earlier ones copy it.
  std::vector<size_t> last_user(states.size());
  for (size_t k = 0; k < engine_of.size(); ++k) last_user[engine_of[k]] = k;
  std::vector<StaxEvalResult> results(engine_of.size());
  for (size_t k = 0; k < engine_of.size(); ++k) {
    const size_t e = engine_of[k];
    results[k] = last_user[e] == k ? std::move(per_engine[e]) : per_engine[e];
  }
  return results;
}

}  // namespace

BatchEvaluator::BatchEvaluator(BatchStaxOptions options)
    : options_(options) {}

int BatchEvaluator::AddPlan(const automata::Mfa* mfa,
                            const EngineOptions& engine) {
  size_t e = 0;
  while (e < engines_.size() &&
         !(engines_[e].mfa == mfa && engines_[e].engine == engine)) {
    ++e;
  }
  if (e == engines_.size()) engines_.push_back(Plan{mfa, engine});
  engine_of_.push_back(e);
  return static_cast<int>(engine_of_.size()) - 1;
}

Status BatchEvaluator::CheckNameTables() const {
  for (const Plan& p : engines_) {
    if (p.mfa->names() != engines_[0].mfa->names()) {
      return Status::InvalidArgument(
          "batch plans must share one name table (compile every query "
          "against the same corpus)");
    }
  }
  return Status::OK();
}

Result<std::vector<StaxEvalResult>> BatchEvaluator::Run(
    std::string_view xml) const {
  if (engines_.empty()) return std::vector<StaxEvalResult>{};
  SMOQE_RETURN_IF_ERROR(CheckNameTables());
  xml::NameTable* names = engines_[0].mfa->names().get();

  xml::StaxOptions stax_options;
  stax_options.skip_whitespace_text = options_.skip_whitespace_text;
  xml::StaxReader reader(xml, stax_options);
  xml::NameCache labels(names);

  std::vector<std::unique_ptr<PlanState>> states;
  states.reserve(engines_.size());
  for (const Plan& p : engines_) {
    states.push_back(std::make_unique<PlanState>(*p.mfa, p.engine));
  }
  size_t live_plans = states.size();  // plans not currently skipping

  CaptureStream cap;
  int32_t next_node_id = 0;
  GuardTicker ticker(options_.guard);
  uint64_t charged_capture = 0;

  while (true) {
    if (ticker.Due()) {
      uint64_t bytes = cap.appended() - charged_capture;
      charged_capture = cap.appended();
      for (auto& ps : states) bytes += ps->engine.TakeAllocBytes();
      options_.guard->ChargeBytes(bytes);
      SMOQE_RETURN_IF_ERROR(ticker.Now());
    }
    SMOQE_ASSIGN_OR_RETURN(xml::StaxEvent ev, reader.Next());
    const int depth = reader.depth();

    switch (ev) {
      case xml::StaxEvent::kStartDocument:
        continue;
      case xml::StaxEvent::kStartElement: {
        const int32_t node_id = next_node_id++;
        const xml::StaxAttr* attrs_begin = reader.attrs().data();
        const xml::StaxAttr* attrs_end = attrs_begin + reader.attrs().size();
        bool stage_capture = false;
        if (live_plans > 0) {
          // Shared per-event work: one intern, one attribute view.
          xml::NameId label = labels.Intern(reader.name());
          SliceAttrs attrs(attrs_begin, attrs_end, *names);
          for (auto& ps : states) {
            if (ps->skip_depth >= 0) {
              ps->engine.mutable_stats()->nodes_pruned += 1;
              continue;
            }
            size_t candidates_before = ps->engine.cans().node_count();
            int32_t engine_id = ps->engine.next_id();
            HypeEngine::EnterResult r = ps->engine.Enter(label, attrs);
            if (ps->engine.cans().node_count() > candidates_before) {
              stage_capture = true;
              ps->candidate_nodes.emplace_back(engine_id, node_id);
            }
            if (r.can_skip_subtree) {
              ps->skip_depth = depth;
              ps->skip_needs_text = r.needs_direct_text;
              --live_plans;
            }
          }
        } else {
          for (auto& ps : states) {
            ps->engine.mutable_stats()->nodes_pruned += 1;
          }
        }
        cap.StartElement(reader.name(), attrs_begin, attrs_end, depth, node_id,
                         stage_capture);
        break;
      }
      case xml::StaxEvent::kCharacters: {
        for (auto& ps : states) {
          if (ps->skip_depth >= 0) {
            if (ps->skip_needs_text && depth == ps->skip_depth) {
              ps->engine.Text(reader.text());
            }
          } else {
            ps->engine.Text(reader.text());
          }
        }
        cap.Text(reader.text());
        break;
      }
      case xml::StaxEvent::kEndElement: {
        cap.EndElement(reader.name(), depth);
        for (auto& ps : states) {
          if (ps->skip_depth >= 0) {
            if (depth == ps->skip_depth - 1) {
              ps->engine.Leave();  // the Leave matching the skip root's Enter
              ps->skip_depth = -1;
              ++live_plans;
            }
          } else {
            ps->engine.Leave();
          }
        }
        break;
      }
      case xml::StaxEvent::kEndDocument:
        SMOQE_RETURN_IF_ERROR(ticker.Now());
        return AssembleResults(states, cap, engine_of_);
    }
  }
}

Result<std::vector<StaxEvalResult>> BatchEvaluator::RunParallel(
    std::string_view xml, const BatchParallelOptions& par) const {
  ThreadPool& pool = par.pool != nullptr ? *par.pool : ThreadPool::Shared();
  // Workers advance engines while the caller tokenizes, so parallelism
  // needs at least one worker and two distinct plans to group.
  const size_t workers = static_cast<size_t>(pool.thread_count()) - 1;
  if (workers == 0 || engines_.size() < 2) return Run(xml);
  SMOQE_RETURN_IF_ERROR(CheckNameTables());
  xml::NameTable* names = engines_[0].mfa->names().get();

  std::vector<std::unique_ptr<PlanState>> states;
  states.reserve(engines_.size());
  for (const Plan& p : engines_) {
    states.push_back(std::make_unique<PlanState>(*p.mfa, p.engine));
  }

  // Pool tasks per chunk: one per worker, at most one per engine.
  const size_t tasks = std::min(workers, states.size());

  xml::StaxOptions stax_options;
  stax_options.skip_whitespace_text = options_.skip_whitespace_text;
  xml::StaxReader reader(xml, stax_options);
  xml::NameCache labels(names);

  const size_t chunk_events = par.chunk_events == 0 ? 4096 : par.chunk_events;
  TokChunk cur, next;
  int32_t next_node_id = 0;
  GuardTicker tok_ticker(options_.guard);
  SMOQE_ASSIGN_OR_RETURN(
      bool eof, FillChunk(reader, labels, &next_node_id, chunk_events,
                          &tok_ticker, &cur));

  CaptureStream cap;
  std::vector<uint8_t> staged;
  std::vector<Status> claim_status(tasks + 1, Status::OK());  // + driver
  uint64_t charged_capture = 0;
  while (!cur.events.empty()) {
    const auto chunk_t0 = par.chunk_ns != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point();
    // Fork: the tasks advance every engine through `cur`, claiming
    // engines from a shared counter so a costly engine does not hold
    // back a fixed stripe… A claimer ticks the guard as it goes and,
    // once it trips, stops: the whole batch unwinds after the join, so
    // a half-advanced engine is never read, and detection latency is the
    // ticker period, as in the serial scan.
    std::atomic<size_t> next_engine{0};
    auto advance_claimed = [&](size_t slot) {
      GuardTicker ticker(options_.guard);
      for (size_t k = next_engine.fetch_add(1); k < states.size();
           k = next_engine.fetch_add(1)) {
        claim_status[slot] =
            AdvancePlanOverChunk(*states[k], cur, *names, &ticker);
        if (!claim_status[slot].ok()) return;
      }
    };
    Latch join(tasks);
    for (size_t t = 0; t < tasks; ++t) {
      pool.Submit([&, t] {
        advance_claimed(t);
        join.CountDown();
      });
    }
    // …while the caller tokenizes the next chunk behind the same reader,
    // then claims engines too.
    Status tok_status = Status::OK();
    if (!eof) {
      auto r = FillChunk(reader, labels, &next_node_id, chunk_events,
                         &tok_ticker, &next);
      if (r.ok()) {
        eof = *r;
      } else {
        tok_status = r.status();
      }
    } else {
      next.Clear();
    }
    advance_claimed(tasks);
    // Help-while-waiting: on a saturated pool (nested batches via
    // QueryBatchMulti) the chunk tasks may be queued behind workers that
    // are themselves waiting on their own chunks — the driver claims
    // them itself rather than deadlock.
    pool.HelpWhileWaiting(join);
    if (!tok_status.ok()) return tok_status;
    for (const Status& st : claim_status) SMOQE_RETURN_IF_ERROR(st);

    // Join: merge the engines' staging reports, then replay the shared
    // capture stream for this chunk on the driver thread.
    staged.assign(cur.events.size(), 0);
    for (auto& ps : states) {
      for (uint32_t i : ps->staged_events) staged[i] = 1;
    }
    for (uint32_t i = 0; i < cur.events.size(); ++i) {
      const TokEvent& ev = cur.events[i];
      switch (ev.kind) {
        case xml::StaxEvent::kStartElement:
          cap.StartElement(ev.str,
                           cur.attrs.data() + ev.attr_begin,
                           cur.attrs.data() + ev.attr_end, ev.depth,
                           ev.node_id, staged[i] != 0);
          break;
        case xml::StaxEvent::kCharacters:
          cap.Text(ev.str);
          break;
        case xml::StaxEvent::kEndElement:
          cap.EndElement(ev.str, ev.depth);
          break;
        case xml::StaxEvent::kStartDocument:
        case xml::StaxEvent::kEndDocument:
          break;
      }
    }
    if (par.chunk_ns != nullptr) {
      par.chunk_ns->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - chunk_t0)
              .count()));
    }
    // Per-chunk guard tick on the driver thread — the workers have
    // joined, so the engines' allocation counters are safe to drain. A
    // chunk bounds deadline-detection latency to a few thousand events.
    if (options_.guard != nullptr) {
      uint64_t bytes = cap.appended() - charged_capture;
      charged_capture = cap.appended();
      for (auto& ps : states) bytes += ps->engine.TakeAllocBytes();
      options_.guard->ChargeBytes(bytes);
      SMOQE_RETURN_IF_ERROR(options_.guard->Check());
    }
    std::swap(cur, next);
  }

  // Final Cans selection per plan is independent — fan it out too.
  pool.ParallelFor(states.size(),
                   [&](size_t k) { states[k]->engine.FinishDocument(); });
  return AssembleResults(states, cap, engine_of_);
}

EvalStats BatchEvaluator::AggregateStats(
    const std::vector<StaxEvalResult>& results) {
  EvalStats total;
  for (const StaxEvalResult& r : results) total.MergeFrom(r.stats);
  return total;
}

Result<std::vector<StaxEvalResult>> EvalHypeStaxBatch(
    const std::vector<const automata::Mfa*>& plans, std::string_view xml,
    const BatchStaxOptions& options, const EngineOptions& engine) {
  BatchEvaluator batch(options);
  for (const automata::Mfa* mfa : plans) batch.AddPlan(mfa, engine);
  return batch.Run(xml);
}

}  // namespace smoqe::eval
