#ifndef SMOQE_COMMON_GUARDRAIL_H_
#define SMOQE_COMMON_GUARDRAIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace smoqe {

/// \file
/// Per-request resource governance (DESIGN.md §9): a steady-clock
/// `Deadline`, a caller-owned `CancelToken`, a `MemoryBudget` charged by
/// the arena and by run/capture allocations, and the `Guardrail` bundle
/// the evaluator drivers poll cooperatively. A separate process-wide
/// `FaultInjector` lets tests force deterministic failures at named
/// sites; it compiles to a no-op under `-DSMOQE_FAULT_INJECTION=OFF`.

namespace fault {

/// Process-wide deterministic fault injector. Tests arm a named site
/// ("stax.read", "update.apply", …) to fire on its k-th hit; the k-th
/// call of `At(site)` then returns true exactly once. Sites are string
/// literals compared by content, so callers need no registration. Hits
/// are counted while at least one site is armed; while none is, a check
/// is one relaxed atomic load (the tokenizer checks once per event).
///
/// Thread-safe: hit counters are atomic, and Arm/Reset are test-side
/// setup calls (not raced against evaluation in practice, but safe).
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Arms `site` to fire on its `k`-th hit (1-based). Re-arming
  /// replaces the previous trigger and zeroes the hit count.
  void Arm(const std::string& site, uint64_t k);

  /// Derives k deterministically from (site, seed) in [1, max_k] —
  /// lets matrix tests sweep seeds without hand-picking hit counts.
  void ArmSeeded(const std::string& site, uint64_t seed, uint64_t max_k);

  /// Disarms every site and zeroes all counters.
  void Reset();

  /// Counts a hit at `site`; true iff this is the armed k-th hit.
  bool At(std::string_view site);

  /// Total hits recorded at `site` since the last Reset/Arm.
  uint64_t Hits(std::string_view site) const;

  /// True iff some site is armed — the fast-path gate of fault::At.
  static bool AnyArmed() {
    return armed_sites_.load(std::memory_order_relaxed) != 0;
  }

 private:
  FaultInjector() = default;
  struct Site;
  Site* Find(std::string_view site) const;

  static constexpr int kMaxSites = 16;
  struct Site {
    std::string name;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fire_at{0};  // 0 = disarmed
  };
  mutable std::atomic<int> num_sites_{0};
  mutable Site sites_[kMaxSites];
  /// Sites whose fire_at is non-zero.
  static inline std::atomic<int> armed_sites_{0};
};

#ifdef SMOQE_FAULT_INJECTION
/// True iff the named site is armed and this is its k-th hit. In
/// production builds (-DSMOQE_FAULT_INJECTION=OFF) this is a constant
/// false the compiler deletes along with the surrounding branch.
/// While no site is armed this is one relaxed load and builds nothing.
inline bool At(const char* site) {
  return FaultInjector::AnyArmed() && FaultInjector::Instance().At(site);
}
#else
inline constexpr bool At(const char*) { return false; }
#endif

}  // namespace fault

/// Absolute point in time after which a request must stop. Steady clock,
/// so wall-clock adjustments cannot extend or shorten a request.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// The default deadline never expires.
  Deadline() : at_(Clock::time_point::max()) {}

  /// A deadline `ms` milliseconds from now; `ms == 0` means no deadline.
  static Deadline After(uint64_t ms) {
    Deadline d;
    // Saturate: a deadline past ~10 years is indistinguishable from
    // unlimited, and u64 garbage (e.g. a hostile wire value) must not
    // overflow the clock's signed nanosecond representation.
    constexpr uint64_t kMaxMs = 10ull * 365 * 24 * 3600 * 1000;
    if (ms != 0 && ms <= kMaxMs) {
      d.at_ = Clock::now() + std::chrono::milliseconds(ms);
    }
    return d;
  }

  bool unlimited() const { return at_ == Clock::time_point::max(); }

  /// One clock read; ~20ns. Callers amortize via GuardTicker.
  bool Expired() const { return !unlimited() && Clock::now() >= at_; }

  Clock::time_point at() const { return at_; }

 private:
  Clock::time_point at_;
};

/// Caller-owned cooperative cancellation flag. The requester keeps the
/// token and calls `Cancel()` from any thread; the evaluator polls
/// `cancelled()` at its event loop. Relaxed ordering is enough — the
/// flag carries no payload, and the unwind path synchronizes via the
/// Status return.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-request memory ceiling. Charged from several threads at once in
/// parallel batch evaluation, hence the atomics; `Charge` is the only
/// hot operation. Once exceeded the budget stays exceeded — a request
/// over budget unwinds, it does not recover by freeing.
class MemoryBudget {
 public:
  /// `limit == 0` means unlimited (accounting still runs).
  explicit MemoryBudget(uint64_t limit = 0) : limit_(limit) {}

  /// Adds `bytes` to the running total. Returns false — permanently
  /// marking the budget exceeded — once the total passes the limit.
  bool Charge(uint64_t bytes) {
    uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limit_ != 0 && now > limit_) {
      exceeded_.store(true, std::memory_order_relaxed);
      return false;
    }
    return !exceeded_.load(std::memory_order_relaxed);
  }

  bool exceeded() const {
    return exceeded_.load(std::memory_order_relaxed);
  }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t limit() const { return limit_; }

  /// Fault-injection hook: trips the budget as if an allocation failed.
  void ForceExceed() { exceeded_.store(true, std::memory_order_relaxed); }

  /// Re-targets the budget for a new request (facade setup, before any
  /// concurrent charging starts — not thread-safe against Charge).
  void Reset(uint64_t limit) {
    limit_ = limit;
    used_.store(0, std::memory_order_relaxed);
    exceeded_.store(false, std::memory_order_relaxed);
  }

 private:
  uint64_t limit_;
  std::atomic<uint64_t> used_{0};
  std::atomic<bool> exceeded_{false};
};

/// The per-request bundle threaded through the execution stack. Stack
/// allocated in the facade; evaluator drivers receive a `const
/// Guardrail*` (null = ungoverned, e.g. internal target resolution) and
/// poll `Check()` via a GuardTicker.
///
/// Fail-closed contract: a non-OK `Check()` unwinds the whole request
/// with that status — never a partial answer — and `Update` aborts
/// before `Publish` so the snapshot chain is untouched.
class Guardrail {
 public:
  Guardrail() = default;
  Guardrail(Deadline deadline, const CancelToken* cancel, MemoryBudget* budget)
      : deadline_(deadline), cancel_(cancel), budget_(budget) {}

  // Copying re-targets a guard at a new request (the facade reuses one
  // stack slot per call); the tick tally belongs to the request, so it
  // restarts at zero rather than following the configuration.
  Guardrail(const Guardrail& o)
      : deadline_(o.deadline_), cancel_(o.cancel_), budget_(o.budget_) {}
  Guardrail& operator=(const Guardrail& o) {
    deadline_ = o.deadline_;
    cancel_ = o.cancel_;
    budget_ = o.budget_;
    checks_.store(0, std::memory_order_relaxed);
    return *this;
  }

  /// Full check (one clock read when a deadline is set). Order matters
  /// for determinism in tests: cancellation, then budget, then deadline.
  Status Check() const {
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::Cancelled("request cancelled");
    }
    if (budget_ != nullptr && budget_->exceeded()) {
      return Status::ResourceExhausted(
          "memory budget exceeded (" + std::to_string(budget_->used()) +
          " bytes charged, limit " + std::to_string(budget_->limit()) + ")");
    }
    if (deadline_.Expired()) {
      return Status::DeadlineExceeded("request deadline expired");
    }
    return Status::OK();
  }

  /// Charges the budget without failing; the next Check() reports the
  /// overflow. Null-safe so drivers can charge unconditionally. The
  /// "engine.alloc" fault site models an allocation failure during run
  /// expansion: it trips the budget exactly as a real overflow would.
  void ChargeBytes(uint64_t bytes) const {
    if (budget_ == nullptr) return;
    if (fault::At("engine.alloc")) budget_->ForceExceed();
    if (bytes != 0) budget_->Charge(bytes);
  }

  const Deadline& deadline() const { return deadline_; }
  MemoryBudget* budget() const { return budget_; }

  /// How many times Check() ran for this request — the "guard ticks"
  /// figure a PROFILE reports, proving the amortized polling actually
  /// polled (GuardTicker makes this ~events/256, not ~events).
  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }

 private:
  Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  MemoryBudget* budget_ = nullptr;
  // Counted in const Check(): the guardrail is logically immutable, the
  // tally is observability. Relaxed — it is read after the request ends.
  mutable std::atomic<uint64_t> checks_{0};
};

/// Amortizes Guardrail::Check over an event loop: a null-guard fast
/// path plus a countdown so the clock is read once every `period`
/// events (~256 by default: at ~10M events/s that is one clock read
/// every ~25µs, keeping overhead well under the 2% budget while
/// bounding deadline-detection latency far below the +20ms slack).
class GuardTicker {
 public:
  explicit GuardTicker(const Guardrail* guard, uint32_t period = 256)
      : guard_(guard), period_(period), left_(period) {}

  /// Returns non-OK when the guard has tripped; call at every loop
  /// iteration. Cheap: a pointer test and a decrement on the fast path.
  Status Tick() {
    if (!Due()) return Status::OK();
    return guard_->Check();
  }

  /// Counts one event; true every `period`-th event (and never for a
  /// null guard). Lets drivers amortize budget flushes under the same
  /// countdown as the clock read:
  ///   if (ticker.Due()) { guard->ChargeBytes(...); RETURN_IF(ticker.Now()) }
  bool Due() {
    if (guard_ == nullptr) return false;
    if (--left_ != 0) return false;
    left_ = period_;
    return true;
  }

  /// Immediate (non-amortized) check; use at phase boundaries.
  Status Now() const {
    return guard_ == nullptr ? Status::OK() : guard_->Check();
  }

  const Guardrail* guard() const { return guard_; }

 private:
  const Guardrail* guard_;
  uint32_t period_;
  uint32_t left_;
};

}  // namespace smoqe

#endif  // SMOQE_COMMON_GUARDRAIL_H_
