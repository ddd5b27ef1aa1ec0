/// \file
/// \brief Cans — the candidate-answer store — plus the guard, witness and
/// predicate-instance records that HyPE's single pass resolves against
/// (docs/DESIGN.md §3.2). All of it is flat engine-owned storage: a
/// handful of arrays per traversal, not one heap block per instance or
/// per candidate.

#ifndef SMOQE_EVAL_CANS_H_
#define SMOQE_EVAL_CANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/automata/nfa.h"

namespace smoqe::eval {

/// Index of a predicate instance in an engine run.
using InstId = int32_t;

/// Handle of a guard set interned in the engine's GuardPool (32-bit;
/// 0 = the empty, unconditional guard). Valid for one document traversal.
/// A guard is a sorted conjunction of predicate-instance ids.
using GuardRef = int32_t;

class GuardPool;

/// One predicate instantiated at one anchor node during the traversal.
struct PredInstance {
  automata::PredId pred = -1;
  int32_t anchor = -1;  ///< engine (element pre-order) id of the anchor
  bool resolved = false;
  bool value = false;
  /// Witness list of leaf position 0 of the predicate in the engine's
  /// WitnessTable; leaf i's list is `leaf_base + i`.
  int32_t leaf_base = -1;
};

/// \brief Conditional witnesses of every predicate-instance leaf of one
/// traversal: a leaf is true iff some witness guard is fully true at
/// resolution time.
///
/// Flat storage: one head per leaf, plus one array of links chaining each
/// leaf's witnesses. Links released at resolution go on a free list and
/// are reused by later instances, so the link array stays as small as the
/// witness lists that are open at once.
class WitnessTable {
 public:
  /// One witness of one leaf.
  struct Link {
    GuardRef guard;
    int32_t next;  ///< next link of the same leaf, or -1
  };

  /// Appends `n` empty leaf lists; returns the index of the first.
  int32_t AddLeaves(size_t n) {
    const auto base = static_cast<int32_t>(heads_.size());
    heads_.resize(heads_.size() + n, -1);
    return base;
  }

  /// Records `guard` as a witness of `leaf` unless an existing witness is
  /// a subset of it (dominates it); witnesses that `guard` dominates are
  /// dropped.
  void Add(int32_t leaf, GuardRef guard, const GuardPool& pool);

  /// Resolves `leaf`: returns whether `all_true(g)` holds for some
  /// witness guard g, and frees the leaf's links for reuse.
  template <typename AllTrue>
  bool Release(int32_t leaf, AllTrue&& all_true) {
    bool value = false;
    int32_t w = heads_[static_cast<size_t>(leaf)];
    heads_[static_cast<size_t>(leaf)] = -1;
    while (w >= 0) {
      Link& l = links_[static_cast<size_t>(w)];
      if (!value && all_true(l.guard)) value = true;
      const int32_t next = l.next;
      l.next = free_;
      free_ = w;
      w = next;
    }
    return value;
  }

  /// The witness guards currently recorded for `leaf` (any order).
  std::vector<GuardRef> Witnesses(int32_t leaf) const;

  /// Size of the link array, free links included (its high-water mark).
  size_t link_count() const { return links_.size(); }

 private:
  std::vector<int32_t> heads_;  ///< per leaf: first link, or -1
  std::vector<Link> links_;
  int32_t free_ = -1;  ///< head of the released-link list
};

/// \brief Cans — the candidate-answer store of HyPE (paper §3, Evaluator).
///
/// During the single document traversal, nodes reached in an accepting
/// selection state are appended together with the guard (set of pending
/// predicate instances) of the run that reached them. After the traversal
/// — when every instance has resolved — one pass over Cans selects the
/// nodes with a fully-true guard alternative. Entries are appended at node
/// entry, so they are already in document order.
///
/// Storage is one id array: each node owns a `[begin, end)` span of it
/// holding its alternatives back to back, each as a length followed by
/// that many sorted instance ids.
class Cans {
 public:
  /// Stages node `id` under the guard `guard[0..len)` (sorted, duplicate-
  /// free). Consecutive calls for the same node maintain a dominance-
  /// pruned alternative list (an empty guard makes the node unconditional
  /// and drops the other alternatives).
  void Add(int32_t id, const InstId* guard, size_t len);

  /// Number of staged candidate entries (Σ alternatives).
  size_t entry_count() const { return entries_; }
  /// Number of distinct candidate nodes.
  size_t node_count() const { return nodes_.size(); }
  /// Alternatives currently kept for the candidate at position `k`.
  size_t alternative_count(size_t k) const;

  /// The single post-traversal pass: returns ids (document order) whose
  /// guard alternatives contain one with every instance resolved true.
  std::vector<int32_t> Select(const std::vector<PredInstance>& instances) const;

 private:
  /// The alternative stored at position `p` of ids_, and the position
  /// of the one after it.
  size_t AltSize(uint32_t p) const { return static_cast<size_t>(ids_[p]); }
  const InstId* AltData(uint32_t p) const { return ids_.data() + p + 1; }
  uint32_t Next(uint32_t p) const {
    return p + 1 + static_cast<uint32_t>(AltSize(p));
  }

  struct Node {
    int32_t id;
    uint32_t begin;  ///< [begin, end) of ids_: the node's alternatives
    uint32_t end;
  };
  std::vector<Node> nodes_;
  std::vector<InstId> ids_;
  size_t entries_ = 0;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_CANS_H_
