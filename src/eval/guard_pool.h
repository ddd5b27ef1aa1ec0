/// \file
/// \brief Hash-consed pool of guard sets (arena-backed storage, 32-bit
/// handles) — the per-traversal conjunction store of the engine's runs
/// (docs/DESIGN.md §3.4).

#ifndef SMOQE_EVAL_GUARD_POOL_H_
#define SMOQE_EVAL_GUARD_POOL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/arena.h"
#include "src/eval/cans.h"

namespace smoqe::eval {

/// \brief Hash-consed pool of guard sets (sorted InstId conjunctions).
///
/// The HyPE hot path merges guards on every (run, transition) step; storing
/// them as per-run `std::vector`s means one heap allocation per merge. The
/// pool interns each distinct set once — elements live in an arena, handles
/// (`GuardRef`) are 32-bit, and identical merges hit the existing entry —
/// so runs, pending-text checks and witnesses carry a plain int:
///
///  * equality of two interned guards is a handle compare;
///  * subset / dominance tests run over the interned sorted storage;
///  * `kEmpty` (ref 0) is the unconditional guard.
///
/// Lifetime: entries are valid until `Reset()`, which the owning engine
/// calls per document (instances ids — the set elements — are only
/// meaningful within one traversal anyway). See docs/DESIGN.md §3.4.
///
/// With `intern = false` (the E10 ablation baseline) every merge appends a
/// fresh entry with no table lookup, reproducing the allocation-per-merge
/// behaviour of the un-interned engine; content-based Equal/IsSubset keep
/// the semantics identical. One deliberate deviation: the pre-interning
/// engine freed a guard vector with its run, while baseline entries stay
/// until Reset(). The ablation models allocation cost, not lifetime; the
/// retained footprint stays small (non-empty guards are rare — the empty
/// guard is never copied) and `entry_count()` keeps it observable.
class GuardPool {
 public:
  static constexpr GuardRef kEmpty = 0;

  explicit GuardPool(bool intern = true) : intern_(intern) { Reset(); }

  /// Drops every entry (except the canonical empty set) and recycles the
  /// backing memory. Outstanding GuardRefs become invalid.
  void Reset() {
    arena_ = std::make_unique<Arena>();
    heap_sets_.clear();
    entries_.clear();
    entries_.push_back(Entry{nullptr, 0, kHashSeed});
    buckets_.assign(kMinBuckets, -1);
    buckets_[kHashSeed & (kMinBuckets - 1)] = 0;
    hits_ = 0;
    misses_ = 0;
  }

  /// Interns the sorted, duplicate-free set `data[0..len)`.
  GuardRef Intern(const InstId* data, size_t len) {
    if (len == 0) return kEmpty;
    return InternHashed(data, len, Hash(data, len));
  }

  /// Returns base ∪ {extra}. When `extra` already belongs to `base` the
  /// handle is returned unchanged (no lookup, no copy).
  GuardRef Merge(GuardRef base, InstId extra) {
    const Entry& e = entries_[static_cast<size_t>(base)];
    const InstId* lo = std::lower_bound(e.data, e.data + e.len, extra);
    if (lo != e.data + e.len && *lo == extra) return base;
    scratch_.clear();
    scratch_.reserve(e.len + 1);
    scratch_.insert(scratch_.end(), e.data, lo);
    scratch_.push_back(extra);
    scratch_.insert(scratch_.end(), lo, e.data + e.len);
    return InternHashed(scratch_.data(), scratch_.size(),
                        Hash(scratch_.data(), scratch_.size()));
  }

  /// Appends a fresh copy of `g`'s storage and returns its handle. This is
  /// the ablation baseline for run advancement: the pre-interning engine
  /// copied the guard vector every time a run crossed a transition, so
  /// with interning off the engine routes copies through here to keep that
  /// cost observable. The empty guard is never copied (an empty vector
  /// copy did not allocate either).
  GuardRef CopyFresh(GuardRef g) {
    const Entry& e = entries_[static_cast<size_t>(g)];
    if (e.len == 0) return kEmpty;
    ++misses_;
    return Append(e.data, e.len, e.hash);
  }

  const InstId* data(GuardRef g) const {
    return entries_[static_cast<size_t>(g)].data;
  }
  size_t size(GuardRef g) const {
    return entries_[static_cast<size_t>(g)].len;
  }

  bool Equal(GuardRef a, GuardRef b) const {
    if (a == b) return true;
    if (intern_) return false;  // interned: one handle per distinct set
    const Entry& ea = entries_[static_cast<size_t>(a)];
    const Entry& eb = entries_[static_cast<size_t>(b)];
    return ea.len == eb.len && ea.hash == eb.hash &&
           std::equal(ea.data, ea.data + ea.len, eb.data);
  }

  /// a ⊆ b over the interned sorted storage.
  bool IsSubset(GuardRef a, GuardRef b) const {
    if (a == b || a == kEmpty) return true;
    const Entry& ea = entries_[static_cast<size_t>(a)];
    const Entry& eb = entries_[static_cast<size_t>(b)];
    if (ea.len > eb.len) return false;
    return std::includes(eb.data, eb.data + eb.len, ea.data,
                         ea.data + ea.len);
  }

  /// Number of non-empty pool entries (with interning on: distinct
  /// non-empty guard sets seen, so entry_count() == misses()). The
  /// canonical empty sentinel is not counted.
  size_t entry_count() const { return entries_.size() - 1; }
  /// Intern calls answered by an existing entry / forced to allocate.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t bytes_used() const { return arena_->bytes_used(); }

 private:
  struct Entry {
    const InstId* data;
    uint32_t len;
    uint32_t hash;
  };

  static constexpr size_t kMinBuckets = 64;
  static constexpr uint32_t kHashSeed = 0x811c9dc5u;

  static uint32_t Hash(const InstId* data, size_t len) {
    uint32_t h = kHashSeed;
    for (size_t i = 0; i < len; ++i) {
      h ^= static_cast<uint32_t>(data[i]);
      h *= 0x01000193u;  // FNV-1a over the element stream
    }
    return h;
  }

  GuardRef InternHashed(const InstId* data, size_t len, uint32_t hash) {
    if (intern_) {
      size_t mask = buckets_.size() - 1;
      size_t slot = hash & mask;
      while (buckets_[slot] >= 0) {
        const Entry& e = entries_[static_cast<size_t>(buckets_[slot])];
        if (e.hash == hash && e.len == len &&
            std::equal(e.data, e.data + e.len, data)) {
          ++hits_;
          return buckets_[slot];
        }
        slot = (slot + 1) & mask;
      }
      ++misses_;
      GuardRef ref = Append(data, len, hash);
      buckets_[slot] = ref;
      if (entries_.size() * 2 > buckets_.size()) Rehash();
      return ref;
    }
    ++misses_;
    return Append(data, len, hash);
  }

  GuardRef Append(const InstId* data, size_t len, uint32_t hash) {
    InstId* stored;
    if (intern_) {
      // Interned sets are few (one per distinct guard) and live for the
      // whole document: bump-allocate.
      stored = static_cast<InstId*>(
          arena_->Allocate(len * sizeof(InstId), alignof(InstId)));
    } else {
      // Ablation baseline: the un-interned engine kept each guard in its
      // own heap vector, paying one allocation per copy/merge — reproduce
      // that cost (individual heap blocks, not the arena).
      heap_sets_.push_back(std::make_unique<InstId[]>(len));
      stored = heap_sets_.back().get();
    }
    std::memcpy(stored, data, len * sizeof(InstId));
    entries_.push_back(Entry{stored, static_cast<uint32_t>(len), hash});
    return static_cast<GuardRef>(entries_.size()) - 1;
  }

  void Rehash() {
    buckets_.assign(buckets_.size() * 2, -1);
    size_t mask = buckets_.size() - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t slot = entries_[i].hash & mask;
      while (buckets_[slot] >= 0) slot = (slot + 1) & mask;
      buckets_[slot] = static_cast<GuardRef>(i);
    }
  }

  bool intern_;
  std::unique_ptr<Arena> arena_;
  std::vector<std::unique_ptr<InstId[]>> heap_sets_;
  std::vector<Entry> entries_;
  std::vector<GuardRef> buckets_;
  std::vector<InstId> scratch_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_GUARD_POOL_H_
