#include "src/xml/name_table.h"

namespace smoqe::xml {

NameId NameTable::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const size_t idx = size_.load(std::memory_order_relaxed);
  const int c = ChunkOf(idx);
  if (chunks_[c].load(std::memory_order_relaxed) == nullptr) {
    chunk_owner_[c] = std::make_unique<std::string[]>(ChunkCapacity(c));
    chunks_[c].store(chunk_owner_[c].get(), std::memory_order_release);
  }
  std::string* slot =
      chunks_[c].load(std::memory_order_relaxed) + (idx - ChunkBase(c));
  *slot = std::string(name);
  // The string object never moves (chunks are fixed arrays), so views into
  // it — the index key — stay valid even for SSO-resident names.
  NameId id = static_cast<NameId>(idx);
  index_.emplace(std::string_view(*slot), id);
  size_.store(idx + 1, std::memory_order_release);
  return id;
}

NameId NameTable::Lookup(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  return it == index_.end() ? kNoName : it->second;
}

NameId NameCache::Insert(std::string_view name) {
  const NameId id = table_->Intern(name);
  // Keep the load factor at most 1/2 so probe runs stay short.
  if (2 * (used_ + 1) > slots_.size()) {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.id != kNoName) Place(s);
    }
  }
  Place(Slot{std::string_view(table_->NameOf(id)), id});
  ++used_;
  return id;
}

void NameCache::Place(const Slot& slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = Hash(slot.key) & mask;
  while (slots_[i].id != kNoName) i = (i + 1) & mask;
  slots_[i] = slot;
}

}  // namespace smoqe::xml
