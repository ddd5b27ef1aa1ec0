#include "src/eval/hype_dom.h"

#include <algorithm>

namespace smoqe::eval {

namespace {

class DomAttrs : public AttrProvider {
 public:
  explicit DomAttrs(const xml::Node* node) : node_(node) {}
  std::optional<std::string_view> Find(xml::NameId name) const override {
    const char* v = node_->FindAttr(name);
    if (v == nullptr) return std::nullopt;
    return std::string_view(v);
  }

 private:
  const xml::Node* node_;
};

}  // namespace

Result<DomEvalResult> EvalHypeDom(const automata::Mfa& mfa,
                                  const xml::Document& doc,
                                  const DomEvalOptions& options) {
  if (mfa.names() != doc.names()) {
    return Status::InvalidArgument(
        "MFA and document must share one name table");
  }
  HypeEngine engine(mfa, options.engine);
  DomEvalResult result;

  // Iterative DFS. nullptr entries are Leave markers for the enclosing
  // element; text nodes become Text events.
  GuardTicker ticker(options.guard);
  std::vector<const xml::Node*> stack;
  stack.push_back(doc.root());
  while (!stack.empty()) {
    if (ticker.Due()) {
      options.guard->ChargeBytes(engine.TakeAllocBytes());
      Status guard_st = ticker.Now();
      if (!guard_st.ok()) return guard_st;
    }
    const xml::Node* node = stack.back();
    stack.pop_back();
    if (node == nullptr) {
      engine.Leave();
      continue;
    }
    if (node->is_text()) {
      engine.Text(node->text);
      continue;
    }
    DomAttrs attrs(node);
    const DynamicBitset* types =
        options.tax != nullptr ? options.tax->DescendantTypes(node->node_id)
                               : nullptr;
    HypeEngine::EnterResult r = engine.Enter(node->label, attrs, types);
    result.nodes_by_engine_id.push_back(node);
    if (r.can_skip_subtree) {
      if (r.needs_direct_text) {
        engine.Text(xml::Document::DirectText(node));
      }
      engine.Leave();
      engine.mutable_stats()->nodes_pruned += static_cast<uint64_t>(
          node->subtree_end - node->order - 1);
      continue;
    }
    stack.push_back(nullptr);
    // Children in reverse so the leftmost is processed first.
    size_t mark = stack.size();
    for (const xml::Node* c = node->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
    std::reverse(stack.begin() + static_cast<ptrdiff_t>(mark), stack.end());
  }

  const std::vector<int32_t>& ids = engine.FinishDocument();
  result.answers.reserve(ids.size());
  for (int32_t id : ids) {
    result.answers.push_back(result.nodes_by_engine_id[id]);
  }
  result.stats = engine.stats();
  if (engine.trace() != nullptr) {
    result.trace = std::make_unique<TraceLog>(*engine.trace());
  }
  return result;
}

}  // namespace smoqe::eval
