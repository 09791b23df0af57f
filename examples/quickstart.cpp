// Quickstart: create a bounded-range priority queue, drive it from a few
// threads on the native backend, and drain it.
//
//   $ ./build/examples/quickstart
//
// The library's public API is three pieces:
//   * PqParams        — the queue's shape (priority range, processor bound);
//   * make_priority_queue<Platform>(Algorithm, params) — type-erased factory
//     over the nine algorithms (the paper's seven, a lock-free skip
//     list, and the sharded composite over lock-free skip lists);
//   * Platform::run(nprocs, fn) — execute fn(proc_id) on every processor
//     (std::threads natively, simulated processors under SimPlatform).
#include <atomic>
#include <cstdio>

#include "core/fpq.hpp"

using namespace fpq;

int main() {
  constexpr u32 kThreads = 4;
  constexpr u32 kPriorities = 16;

  PqParams params;
  params.npriorities = kPriorities; // priorities 0..15, smaller = more urgent
  params.maxprocs = kThreads;

  // FunnelTree is the paper's scalable choice; swap in any Algorithm::k*
  // (kSimpleLinear is the best pick at very low concurrency).
  auto pq = make_priority_queue<NativePlatform>(Algorithm::kFunnelTree, params);

  std::atomic<u64> handled{0};
  NativePlatform::run(kThreads, [&](ProcId id) {
    // Every thread inserts a burst of work items, then drains whatever is
    // most urgent.
    for (u32 i = 0; i < 1000; ++i) {
      const Prio prio = static_cast<Prio>(NativePlatform::rnd(kPriorities));
      const Item task_id = (static_cast<u64>(id) << 32) | i;
      if (!pq->insert(prio, task_id)) {
        std::fprintf(stderr, "queue full!\n");
        return;
      }
      if (NativePlatform::flip()) {
        if (auto task = pq->delete_min()) {
          handled.fetch_add(1);
        }
      }
    }
  });

  // Drain the leftovers; delete_min returns entries in priority order now
  // that the queue is quiescent.
  u64 drained = 0;
  Prio last = 0;
  bool sorted = true;
  NativePlatform::run(1, [&](ProcId) {
    while (auto e = pq->delete_min()) {
      sorted = sorted && e->prio >= last;
      last = e->prio;
      ++drained;
    }
  });

  std::printf("handled %llu tasks concurrently, drained %llu at the end (%s)\n",
              static_cast<unsigned long long>(handled.load()),
              static_cast<unsigned long long>(drained),
              sorted ? "in priority order" : "OUT OF ORDER — bug!");
  std::printf("total = %llu (expected %u)\n",
              static_cast<unsigned long long>(handled.load() + drained),
              kThreads * 1000);
  return sorted && handled.load() + drained == kThreads * 1000 ? 0 : 1;
}
