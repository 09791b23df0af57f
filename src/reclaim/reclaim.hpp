// Safe memory reclamation for lock-free structures (DESIGN.md §11).
//
// One API over hazard pointers:
//
//   reclaim::Domain<P>  — owns the reclamation state for one structure:
//                         hazard slots, per-processor limbo lists, and the
//                         retire/scan machinery (hazard.hpp).
//   reclaim::Guard<P>   — RAII critical section that manages the caller's
//                         hazard slots (peek/promote/clear) and clears the
//                         ones it used on exit. retire() hands a node to the
//                         domain; its deleter runs once no reader can hold
//                         a reference.
//
// Protocol contract: a node must be unreachable from the structure's shared
// words *before* retire() is called, and readers must reach nodes only
// through Guard::protect / protect_value hand-over-hand chains.
//
// Everything is templated on Platform, so the same code runs natively and
// under the simulator with its declared memory orders visible to the race
// detector (DESIGN.md §10); the seq_cst handshake lives in hazard.hpp and
// is argued there and in the §8.2 table.
#pragma once

#include "common/types.hpp"
#include "platform/platform.hpp"
#include "reclaim/hazard.hpp"

namespace fpq::reclaim {

/// RAII reader section. Construct inside a P::run (uses P::self()); one
/// live Guard per processor per domain at a time.
template <Platform P>
class Guard {
  template <class T>
  using Shared = typename P::template Shared<T>;

 public:
  explicit Guard(Domain<P>& d) : d_(d), self_(P::self()) {}
  ~Guard() {
    for (u32 s = 0; used_ >> s; ++s)
      if ((used_ >> s) & 1) d_.clear(self_, s);
  }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  /// Peek `src` and protect the pointer it holds via `slot`; returns the
  /// validated word (tag bits included).
  u64 protect(u32 slot, const Shared<u64>& src) {
    used_ |= u64{1} << slot;
    return d_.protect(self_, slot, src);
  }

  /// Promote an already-protected word into `slot` (no validation).
  void protect_value(u32 slot, u64 w) {
    used_ |= u64{1} << slot;
    d_.protect_value(self_, slot, w);
  }

  void clear(u32 slot) {
    used_ &= ~(u64{1} << slot);
    d_.clear(self_, slot);
  }

  void retire(void* p, void (*deleter)(void*)) { d_.retire(self_, p, deleter); }
  template <class T>
  void retire(T* p) {
    retire(p, [](void* q) { delete static_cast<T*>(q); });
  }

 private:
  Domain<P>& d_;
  ProcId self_;
  u64 used_ = 0; // slots touched by this guard, cleared on exit
};

} // namespace fpq::reclaim
