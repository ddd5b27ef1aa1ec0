#ifndef SMOQE_COMMON_ARENA_H_
#define SMOQE_COMMON_ARENA_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/common/guardrail.h"

namespace smoqe {

/// \brief Bump allocator for DOM nodes and interned strings.
///
/// Allocations live until the arena is destroyed; nothing is individually
/// freed. Objects allocated here must be trivially destructible (the arena
/// never runs destructors) — DOM nodes satisfy this by storing text as
/// offsets into the arena-owned character data.
///
/// A `map_large_blocks` arena maps blocks of kMapBytes and up from the OS
/// directly instead of taking them from malloc. That suits the
/// copy-on-write successors `Document::Clone` builds: each is freed whole
/// when its last reader, often on another thread, drops the snapshot, and
/// mapped blocks then go back to the OS at once instead of lingering in a
/// per-thread malloc arena; the never-touched tail of the last block costs
/// no memory either. Other arenas keep malloc blocks, which a process
/// that builds documents repeatedly reuses without fresh page faults.
class Arena {
 public:
  static constexpr size_t kMapBytes = size_t{1} << 17;

  Arena() = default;
  explicit Arena(bool map_large_blocks) : map_large_(map_large_blocks) {}
  ~Arena() {
    for (const auto& [data, size] : mapped_) munmap(data, size);
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `size` bytes aligned to `align`.
  void* Allocate(size_t size, size_t align = alignof(std::max_align_t)) {
    size_t pos = (pos_ + align - 1) & ~(align - 1);
    if (pos + size > cap_) {
      Grow(size + align);
      pos = (pos_ + align - 1) & ~(align - 1);
    }
    void* p = cur_ + pos;
    pos_ = pos + size;
    bytes_used_ += size;
    return p;
  }

  /// Allocates and default-constructs a T.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Allocate(sizeof(T), alignof(T));
    return new (p) T(std::forward<Args>(args)...);
  }

  /// Copies `data[0..len)` into the arena and returns the stable pointer.
  const char* CopyString(const char* data, size_t len) {
    char* p = static_cast<char*>(Allocate(len + 1, 1));
    for (size_t i = 0; i < len; ++i) p[i] = data[i];
    p[len] = '\0';
    return p;
  }

  /// Total bytes handed out (excludes block slack).
  size_t bytes_used() const { return bytes_used_; }
  /// Total bytes reserved from the system.
  size_t bytes_reserved() const { return bytes_reserved_; }

  /// Charges every future block reservation against `budget` (nullptr
  /// detaches). The arena cannot fail an allocation mid-bump, so an
  /// over-budget Grow marks the budget exceeded and the owning request
  /// unwinds at its next guard check — the fail-closed contract lives at
  /// the request layer, not here.
  void set_budget(MemoryBudget* budget) { budget_ = budget; }

 private:
  void Grow(size_t min_size) {
    size_t block = next_block_;
    if (block < min_size) block = min_size;
    next_block_ = block * 2;
    if (map_large_ && block >= kMapBytes) {
      mapped_.reserve(mapped_.size() + 1);  // no throw once mapped
      void* p = mmap(nullptr, block, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      mapped_.emplace_back(p, block);
      cur_ = static_cast<char*>(p);
    } else {
      blocks_.emplace_back(new char[block]);
      cur_ = blocks_.back().get();
    }
    cap_ = block;
    pos_ = 0;
    bytes_reserved_ += block;
    if (budget_ != nullptr) budget_->Charge(block);
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<std::pair<void*, size_t>> mapped_;  // munmapped on destruction
  char* cur_ = nullptr;
  size_t pos_ = 0;
  size_t cap_ = 0;
  size_t next_block_ = 1 << 12;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  MemoryBudget* budget_ = nullptr;
  bool map_large_ = false;
};

}  // namespace smoqe

#endif  // SMOQE_COMMON_ARENA_H_
