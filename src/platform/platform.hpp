// The Platform policy: the contract every concurrent algorithm in this
// library is written against. Two implementations exist —
//
//   * SimPlatform    (platform/sim.hpp)    — the paper's evaluation vehicle:
//     a simulated Alewife-like ccNUMA; latencies are modeled cycles.
//   * NativePlatform (platform/native.hpp) — std::atomic + std::thread;
//     latencies are steady_clock nanoseconds.
//
// A Platform P provides:
//
//   P::Shared<T>   — a single shared word (T trivially copyable, <= 8 bytes,
//                    equality comparable) with the explicitly-ordered API
//                    below.
//   P::run(nprocs, fn, seed)  — execute fn(ProcId) on nprocs processors.
//   P::self() / P::nprocs()   — processor identity within a run.
//   P::now()                  — monotone per-processor clock.
//   P::delay(cycles)          — local work, no memory traffic.
//   P::relax()                — one spin-loop iteration's politeness hint
//                               (cpu pause instruction; never yields).
//   P::pause()                — spin-loop hint that may escalate: after a
//                               processor has paused many times in a row the
//                               native backend yields the OS thread.
//   P::spin_until(word, pred) — repeatedly read `word` (acquire) until
//                               pred(value); the simulator parks the fiber
//                               until the word is written, like spinning on
//                               a cached line; the native backend relaxes,
//                               then yields between probes.
//   P::rnd(bound) / P::flip() — deterministic per-processor randomness.
//   P::kSimulated             — constexpr bool.
//   P::try_alloc(bytes)       — raw storage for a structure node, or
//                               nullptr on exhaustion. Algorithms that
//                               allocate on their hot paths must go through
//                               this (placement-new into it) and unwind
//                               cleanly on nullptr — the simulator injects
//                               failures here (sim/faults.hpp kAllocFail)
//                               and counts outstanding blocks, which is how
//                               the leak/double-free checks in the fault
//                               battery see every allocation.
//   P::dealloc(p, bytes)      — returns try_alloc storage (after destroying
//                               the object placed in it). nullptr is a
//                               no-op; `bytes` must match the allocation.
//   P::heartbeat()            — liveness pulse, called by harnesses between
//                               queue operations. Native: no-op. Sim: feeds
//                               the fault plan's per-processor watchdog, so
//                               a fiber stuck *inside* one operation
//                               (behind a crashed lock holder) is detected
//                               as wedged instead of hanging the run.
//   P::note_lock_acquire(lock, trylock) / P::note_lock_release(lock)
//                             — lock-lifecycle hints emitted by the sync
//                               layer (mcs_lock, ttas_lock). The native
//                               backend ignores them; the simulator feeds
//                               them to the lock-order deadlock checker
//                               when race detection is on (DESIGN.md §10).
//                               `trylock` marks non-blocking acquisitions,
//                               which join the held set but add no
//                               lock-order edges (a trylock cannot block,
//                               so it cannot close a deadlock cycle).
//
// ## Memory-ordering contract
//
// Shared data may only be reached through P::Shared<T>; everything else an
// algorithm touches must be processor-local or immutable after
// construction (Core Guidelines CP.2/CP.3).
//
// Shared<T> exposes C++ memory orders explicitly; the unsuffixed
// operations remain sequentially consistent, so un-annotated code keeps
// its pre-contract meaning:
//
//   T    load()                    — seq_cst
//   T    load_acquire()
//   T    load_relaxed()
//   void store(T)                  — seq_cst
//   void store_release(T)
//   void store_relaxed(T)
//   T    exchange(T, MemOrder = kSeqCst)
//   bool compare_exchange(T& expected, T desired)          — seq_cst
//   bool compare_exchange(T& expected, T desired,
//                         MemOrder success, MemOrder failure)
//   T    fetch_add(T, MemOrder = kSeqCst)   (integral T only)
//   T    fetch_sub(T, MemOrder = kSeqCst)   (integral T only)
//
// The orders are *annotations of intent with teeth on both backends*: the
// native backend maps them 1:1 onto std::atomic orders, while the
// simulator executes every access sequentially consistently — its
// fibers interleave at access granularity under a global clock, so relaxed
// annotations cannot weaken it. An algorithm is therefore correct iff it
// is correct on the *native* mapping. Three checks enforce that: the TSan
// gate (`ctest -L native` on a -DFPQ_SANITIZE=thread build) and
// tests/test_memory_order.cpp validate the native mapping, and the
// simulator's happens-before race detector (src/sim/race_detector.hpp,
// `ctest -L race`) checks that the *declared* orders alone establish the
// happens-before edges each protocol needs — it derives HB only from the
// annotations, so a relaxed store whose visibility silently leans on the
// simulator's sequential consistency is reported as a race. DESIGN.md §8
// records the per-primitive contract; §10 the detector's HB model.
#pragma once

#include <concepts>
#include <cstddef>
#include <type_traits>

#include "common/memorder.hpp"
#include "common/types.hpp"

namespace fpq {

template <class T>
concept SharedWord = std::is_trivially_copyable_v<T> && sizeof(T) <= 8 &&
                     std::equality_comparable<T>;

template <class P>
concept Platform = requires(typename P::template Shared<u64>& w, u64& e) {
  { P::kSimulated } -> std::convertible_to<bool>;
  { w.load() } -> std::same_as<u64>;
  { w.load_acquire() } -> std::same_as<u64>;
  { w.load_relaxed() } -> std::same_as<u64>;
  w.store(u64{});
  w.store_release(u64{});
  w.store_relaxed(u64{});
  { w.exchange(u64{}, MemOrder::kAcqRel) } -> std::same_as<u64>;
  { w.compare_exchange(e, u64{}) } -> std::same_as<bool>;
  { w.compare_exchange(e, u64{}, MemOrder::kAcqRel, MemOrder::kRelaxed) } -> std::same_as<bool>;
  { w.fetch_add(u64{}, MemOrder::kAcqRel) } -> std::same_as<u64>;
  { w.fetch_sub(u64{}, MemOrder::kAcqRel) } -> std::same_as<u64>;
  P::note_lock_acquire(static_cast<const void*>(nullptr), bool{});
  P::note_lock_release(static_cast<const void*>(nullptr));
  { P::try_alloc(std::size_t{}) } -> std::same_as<void*>;
  P::dealloc(static_cast<void*>(nullptr), std::size_t{});
  P::heartbeat();
};

} // namespace fpq
