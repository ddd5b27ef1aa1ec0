#include "src/common/guardrail.h"

namespace smoqe {
namespace fault {

FaultInjector& FaultInjector::Instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::Site* FaultInjector::Find(std::string_view site) const {
  const int n = num_sites_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    if (sites_[i].name == site) return &sites_[i];
  }
  return nullptr;
}

void FaultInjector::Arm(const std::string& site, uint64_t k) {
  Site* s = Find(site);
  if (s == nullptr) {
    const int n = num_sites_.load(std::memory_order_relaxed);
    if (n >= kMaxSites) return;  // test misconfiguration; fail open
    sites_[n].name = site;
    s = &sites_[n];
    num_sites_.store(n + 1, std::memory_order_release);
  }
  s->hits.store(0, std::memory_order_relaxed);
  const uint64_t was = s->fire_at.exchange(k, std::memory_order_relaxed);
  armed_sites_.fetch_add((k != 0) - (was != 0), std::memory_order_relaxed);
}

void FaultInjector::ArmSeeded(const std::string& site, uint64_t seed,
                              uint64_t max_k) {
  // splitmix64 over (site hash ^ seed): cheap, well-mixed, reproducible.
  uint64_t x = std::hash<std::string>{}(site) ^ seed;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  Arm(site, max_k == 0 ? 1 : 1 + x % max_k);
}

void FaultInjector::Reset() {
  const int n = num_sites_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    sites_[i].hits.store(0, std::memory_order_relaxed);
    sites_[i].fire_at.store(0, std::memory_order_relaxed);
  }
  armed_sites_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::At(std::string_view site) {
  Site* s = Find(site);
  if (s == nullptr) return false;
  const uint64_t hit = s->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  return hit == s->fire_at.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::Hits(std::string_view site) const {
  const Site* s = Find(site);
  return s == nullptr ? 0 : s->hits.load(std::memory_order_relaxed);
}

}  // namespace fault
}  // namespace smoqe
