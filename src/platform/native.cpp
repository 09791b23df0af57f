#include "platform/native.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace fpq {

namespace {

struct NativeCtx {
  ProcId id = ~0u;
  u32 nprocs = 0;
  Xorshift rng{0};
  u32 pause_streak = 0;
};

thread_local NativeCtx g_ctx;
} // namespace

void NativePlatform::pause() {
  if (++g_ctx.pause_streak <= kRelaxSpins) {
    relax();
    return;
  }
  g_ctx.pause_streak = 0;
  std::this_thread::yield();
}

void NativePlatform::run(u32 nprocs, const std::function<void(ProcId)>& fn, u64 seed) {
  FPQ_ASSERT(nprocs >= 1);
  std::atomic<u32> ready{0};
  std::atomic<bool> go{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&](ProcId id) {
    g_ctx.id = id;
    g_ctx.nprocs = nprocs;
    g_ctx.rng = Xorshift(seed * 0x100000001b3ull + id);
    g_ctx.pause_streak = 0;
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    try {
      fn(id);
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    g_ctx.id = ~0u;
  };

  std::vector<std::thread> threads;
  threads.reserve(nprocs);
  for (u32 i = 0; i < nprocs; ++i) threads.emplace_back(worker, i);
  while (ready.load(std::memory_order_acquire) != nprocs) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

ProcId NativePlatform::self() {
  FPQ_ASSERT_MSG(g_ctx.id != ~0u, "NativePlatform used outside run()");
  return g_ctx.id;
}

u32 NativePlatform::nprocs() { return g_ctx.nprocs; }

Cycles NativePlatform::now() {
  return static_cast<Cycles>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void NativePlatform::delay(Cycles c) {
  // Abstract work units: opaque arithmetic the optimizer can't elide.
  volatile u64 sink = 0;
  for (Cycles i = 0; i < c; ++i) sink = sink + i;
}

void NativePlatform::adopt(ProcId id, u32 nprocs, u64 seed) {
  g_ctx.id = id;
  g_ctx.nprocs = nprocs;
  g_ctx.rng = Xorshift(seed * 0x100000001b3ull + id);
  g_ctx.pause_streak = 0;
}

void NativePlatform::release() { g_ctx.id = ~0u; }

u64 NativePlatform::rnd(u64 bound) { return g_ctx.rng.below(bound); }

bool NativePlatform::flip() { return g_ctx.rng.flip(); }

} // namespace fpq
