// NativePlatform: the Platform policy over std::atomic and std::thread.
// Used for correctness testing under real concurrency and for the native
// workloads of the repository benchmark (perfbench/); the paper-scale
// experiments use SimPlatform.
//
// This backend gives the memory-ordering contract its teeth: MemOrder
// annotations map 1:1 onto std::atomic orders, so the TSan gate and the
// litmus tests in tests/test_memory_order.cpp check the declared orders.
#pragma once

#include <atomic>
#include <functional>
#include <new>
#include <thread>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "platform/platform.hpp"

namespace fpq {

/// MemOrder -> std::memory_order.
constexpr std::memory_order to_std_order(MemOrder o) {
  switch (o) {
    case MemOrder::kRelaxed: return std::memory_order_relaxed;
    case MemOrder::kAcquire: return std::memory_order_acquire;
    case MemOrder::kRelease: return std::memory_order_release;
    case MemOrder::kAcqRel: return std::memory_order_acq_rel;
    case MemOrder::kSeqCst: return std::memory_order_seq_cst;
  }
  return std::memory_order_seq_cst;
}

/// CAS failure orders may not be release-flavored; clamp to the legal load
/// order so callers can pass the success order's natural weakening.
constexpr std::memory_order to_std_failure_order(MemOrder o) {
  switch (o) {
    case MemOrder::kRelease: return std::memory_order_relaxed;
    case MemOrder::kAcqRel: return std::memory_order_acquire;
    default: return to_std_order(o);
  }
}

template <SharedWord T>
class NativeShared {
 public:
  NativeShared() : v_{} {}
  explicit NativeShared(T v) : v_(v) {}
  NativeShared(const NativeShared&) = delete;
  NativeShared& operator=(const NativeShared&) = delete;

  T load() const { return v_.load(std::memory_order_seq_cst); }
  T load_acquire() const { return v_.load(to_std_order(MemOrder::kAcquire)); }
  T load_relaxed() const { return v_.load(to_std_order(MemOrder::kRelaxed)); }

  void store(T v) { v_.store(v, std::memory_order_seq_cst); }
  void store_release(T v) { v_.store(v, to_std_order(MemOrder::kRelease)); }
  void store_relaxed(T v) { v_.store(v, to_std_order(MemOrder::kRelaxed)); }

  T exchange(T nv, MemOrder o = MemOrder::kSeqCst) { return v_.exchange(nv, to_std_order(o)); }

  bool compare_exchange(T& expected, T desired) {
    return v_.compare_exchange_strong(expected, desired, std::memory_order_seq_cst);
  }
  bool compare_exchange(T& expected, T desired, MemOrder success, MemOrder failure) {
    return v_.compare_exchange_strong(expected, desired, to_std_order(success),
                                      to_std_failure_order(failure));
  }

  T fetch_add(T d, MemOrder o = MemOrder::kSeqCst)
    requires std::integral<T>
  {
    return v_.fetch_add(d, to_std_order(o));
  }
  T fetch_sub(T d, MemOrder o = MemOrder::kSeqCst)
    requires std::integral<T>
  {
    return v_.fetch_sub(d, to_std_order(o));
  }

 private:
  std::atomic<T> v_;
};

struct NativePlatform {
  template <class T>
  using Shared = NativeShared<T>;

  static constexpr bool kSimulated = false;

  /// Contention policy for spin loops (pause/spin_until): a spinner relaxes
  /// the core for kRelaxSpins consecutive iterations, then yields the OS
  /// thread once (the right call on oversubscribed machines, where the lock
  /// holder needs the core) and starts over.
  static constexpr u32 kRelaxSpins = 64;

  /// Runs fn(ProcId) on `nprocs` OS threads, started together behind a
  /// barrier. Rethrows the first exception a worker threw.
  static void run(u32 nprocs, const std::function<void(ProcId)>& fn, u64 seed = 1);

  static ProcId self();
  static u32 nprocs();
  /// steady_clock nanoseconds; the unit benchmarks report for this backend.
  static Cycles now();
  /// Local work: an abstract-work spin of `c` iterations.
  static void delay(Cycles c);

  /// One polite spin iteration: the cpu's pause/yield instruction. Never
  /// gives up the OS thread.
  static void relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

  /// Spin hint with escalation: cpu-relax for the first kRelaxSpins calls
  /// in a row, then yield once and start over. Spin loops that know
  /// their own iteration count should prefer spin_until.
  static void pause();

  static u64 rnd(u64 bound);
  static bool flip();

  /// Lock-lifecycle hints exist for the simulator's lock-order checker;
  /// native execution has nothing to record (TSan sees the real locks).
  static void note_lock_acquire(const void*, bool) {}
  static void note_lock_release(const void*) {}

  /// Node storage (platform.hpp contract). Plain nothrow heap: the sanitizer
  /// builds are the native leak/double-free oracle, so no counting here.
  static void* try_alloc(std::size_t bytes) { return ::operator new(bytes, std::nothrow); }
  static void dealloc(void* p, std::size_t) {
    ::operator delete(p); // contract-lint: allow(naked-reclaim) platform allocator
  }

  /// Liveness pulse: the fault watchdog is a simulator concept.
  static void heartbeat() {}

  /// Binds the calling thread to a processor id without run() — for
  /// embedding in external thread pools. Pair with release().
  static void adopt(ProcId id, u32 nprocs, u64 seed = 1);
  static void release();

  /// Acquire-spins on `w` until pred holds. Relaxes for kRelaxSpins
  /// probes, then yields between probes.
  template <SharedWord T, class Pred>
  static T spin_until(const Shared<T>& w, Pred pred) {
    u32 spins = 0;
    for (;;) {
      T v = w.load_acquire();
      if (pred(v)) return v;
      if (++spins <= kRelaxSpins)
        relax();
      else
        std::this_thread::yield();
    }
  }
};

static_assert(Platform<NativePlatform>);

} // namespace fpq
