#include "src/eval/cans.h"

#include <algorithm>
#include <cassert>

#include "src/eval/guard_pool.h"

namespace smoqe::eval {

void WitnessTable::Add(int32_t leaf, GuardRef guard, const GuardPool& pool) {
  int32_t& head = heads_[static_cast<size_t>(leaf)];
  for (int32_t w = head; w >= 0; w = links_[static_cast<size_t>(w)].next) {
    if (pool.IsSubset(links_[static_cast<size_t>(w)].guard, guard)) return;
  }
  // Unlink (and recycle) the witnesses the new guard dominates.
  for (int32_t* at = &head; *at >= 0;) {
    Link& l = links_[static_cast<size_t>(*at)];
    if (pool.IsSubset(guard, l.guard)) {
      const int32_t dropped = *at;
      *at = l.next;
      l.next = free_;
      free_ = dropped;
    } else {
      at = &l.next;
    }
  }
  int32_t w = free_;
  if (w >= 0) {
    free_ = links_[static_cast<size_t>(w)].next;
  } else {
    w = static_cast<int32_t>(links_.size());
    links_.emplace_back();  // `head` indexes heads_, so it stays valid
  }
  links_[static_cast<size_t>(w)] = Link{guard, head};
  head = w;
}

std::vector<GuardRef> WitnessTable::Witnesses(int32_t leaf) const {
  std::vector<GuardRef> out;
  for (int32_t w = heads_[static_cast<size_t>(leaf)]; w >= 0;
       w = links_[static_cast<size_t>(w)].next) {
    out.push_back(links_[static_cast<size_t>(w)].guard);
  }
  return out;
}

namespace {

/// a[0..na) ⊆ b[0..nb) over sorted ids.
bool IsSubset(const InstId* a, size_t na, const InstId* b, size_t nb) {
  return na <= nb && std::includes(b, b + nb, a, a + na);
}

}  // namespace

void Cans::Add(int32_t id, const InstId* guard, size_t len) {
  ++entries_;
  if (nodes_.empty() || nodes_.back().id != id) {
    // Entries for one node are contiguous (all added when it is entered),
    // so the newest node's span is always the tail of ids_.
    assert(nodes_.empty() || nodes_.back().id < id);
    const auto at = static_cast<uint32_t>(ids_.size());
    nodes_.push_back(Node{id, at, at});
  }
  Node& n = nodes_.back();
  // Weaker guards dominate; an unconditional entry clears the rest.
  for (uint32_t p = n.begin; p < n.end; p = Next(p)) {
    if (IsSubset(AltData(p), AltSize(p), guard, len)) return;
  }
  uint32_t kept = n.begin;
  for (uint32_t p = n.begin; p < n.end;) {
    const uint32_t next = Next(p);
    if (!IsSubset(guard, len, AltData(p), AltSize(p))) {
      if (kept != p) {
        std::copy(ids_.begin() + p, ids_.begin() + next, ids_.begin() + kept);
      }
      kept += next - p;
    }
    p = next;
  }
  ids_.resize(kept);
  ids_.push_back(static_cast<InstId>(len));
  ids_.insert(ids_.end(), guard, guard + len);
  n.end = static_cast<uint32_t>(ids_.size());
}

size_t Cans::alternative_count(size_t k) const {
  size_t count = 0;
  for (uint32_t p = nodes_[k].begin; p < nodes_[k].end; p = Next(p)) {
    ++count;
  }
  return count;
}

std::vector<int32_t> Cans::Select(
    const std::vector<PredInstance>& instances) const {
  std::vector<int32_t> out;
  for (const Node& n : nodes_) {
    for (uint32_t p = n.begin; p < n.end; p = Next(p)) {
      const InstId* g = AltData(p);
      const bool all = std::all_of(g, g + AltSize(p), [&](InstId i) {
        const PredInstance& inst = instances[static_cast<size_t>(i)];
        assert(inst.resolved);
        return inst.value;
      });
      if (all) {
        out.push_back(n.id);
        break;
      }
    }
  }
  return out;
}

}  // namespace smoqe::eval
