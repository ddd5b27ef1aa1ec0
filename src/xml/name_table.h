#ifndef SMOQE_XML_NAME_TABLE_H_
#define SMOQE_XML_NAME_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace smoqe::xml {

/// Interned identifier for an element/attribute name. Negative values are
/// sentinels (kNoName); valid ids index into NameTable.
using NameId = int32_t;

inline constexpr NameId kNoName = -1;

/// \brief Bidirectional string ↔ id interning table.
///
/// One table is typically shared by every document, DTD, automaton and index
/// inside an engine so that label comparisons are integer compares. Interning
/// a name that is already present returns the existing id, so sharing a table
/// across documents is safe and cheap.
///
/// Thread safety (docs/DESIGN.md §7): the table is append-only. Intern and
/// Lookup serialize on an internal mutex; NameOf is lock-free — strings
/// live in geometrically growing chunks that are allocated once and never
/// moved, so a published id resolves without touching the index. This is
/// what lets parallel QueryBatch workers serialize answers and test
/// attributes (both NameOf-heavy) while a concurrent compile interns new
/// query labels.
class NameTable {
 public:
  NameTable() = default;
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  /// Returns the id for `name`, interning it if new. Thread-safe.
  NameId Intern(std::string_view name);

  /// Returns the id for `name` or kNoName if it was never interned.
  /// Thread-safe.
  NameId Lookup(std::string_view name) const;

  /// Returns the name for a valid id. Lock-free; safe to call concurrently
  /// with Intern (an id can only be observed after its string is in place).
  const std::string& NameOf(NameId id) const {
    const size_t idx = static_cast<size_t>(id);
    const int c = ChunkOf(idx);
    return chunks_[c].load(std::memory_order_acquire)[idx - ChunkBase(c)];
  }

  /// Number of distinct names interned so far.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Convenience: a freshly allocated shared table.
  static std::shared_ptr<NameTable> Create() {
    return std::make_shared<NameTable>();
  }

 private:
  /// Chunk c holds kFirstChunk·2^c entries starting at kFirstChunk·(2^c−1);
  /// 32 chunks cover ~2^40 names.
  static constexpr size_t kFirstChunk = 256;
  static constexpr int kMaxChunks = 32;

  static int ChunkOf(size_t idx) {
    return 63 - __builtin_clzll(idx / kFirstChunk + 1);
  }
  static size_t ChunkBase(int c) { return kFirstChunk * ((1ull << c) - 1); }
  static size_t ChunkCapacity(int c) { return kFirstChunk << c; }

  mutable std::mutex mu_;
  /// Guarded by mu_. Keys view into the chunk-resident strings (stable).
  std::unordered_map<std::string_view, NameId> index_;
  /// Each slot is set exactly once (under mu_), then never changes; the
  /// arrays themselves are append-only.
  std::atomic<std::string*> chunks_[kMaxChunks] = {};
  std::unique_ptr<std::string[]> chunk_owner_[kMaxChunks];
  std::atomic<size_t> size_{0};
};

/// \brief Per-scan memo in front of a shared NameTable.
///
/// A tokenizer pass meets a handful of distinct names over and over, and
/// NameTable::Intern takes the table's mutex on every call — the one lock
/// that concurrent batch scans and document loads all share. A scan that
/// interns through a NameCache takes that mutex once per *distinct* name;
/// every other lookup is a probe of a private open-addressing table whose
/// keys view the NameTable's own strings (stable for its lifetime), so
/// the cache copies no name and allocates only when it grows.
///
/// Not thread-safe: one cache per scanning thread. The table must outlive
/// the cache.
class NameCache {
 public:
  explicit NameCache(NameTable* table)
      : table_(table), slots_(kInitialSlots) {}

  /// Same id as `table->Intern(name)`.
  NameId Intern(std::string_view name) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(name) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNoName) return Insert(name);
      if (s.key == name) return s.id;
    }
  }

 private:
  static constexpr size_t kInitialSlots = 64;  // power of two

  struct Slot {
    std::string_view key;
    NameId id = kNoName;
  };

  static size_t Hash(std::string_view name) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }

  NameId Insert(std::string_view name);
  /// Stores `slot` in the first free slot of its probe run.
  void Place(const Slot& slot);

  NameTable* table_;
  std::vector<Slot> slots_;
  size_t used_ = 0;
};

}  // namespace smoqe::xml

#endif  // SMOQE_XML_NAME_TABLE_H_
