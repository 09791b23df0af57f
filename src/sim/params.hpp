// Timing and topology parameters of the simulated multiprocessor.
//
// The machine modeled is a distributed-shared-memory ccNUMA in the style of
// the MIT Alewife, which the paper targeted through the Proteus simulator:
// processor/memory nodes on a 2-D mesh, a directory-based invalidation
// protocol, and memory modules that serve one request at a time (the
// serialization that produces hot spots, Pfister & Norton '85).
//
// Absolute constants are calibration knobs, not claims: the reproduction
// compares curve *shapes* against the paper, and the tests pin down the
// qualitative properties (hits are cheap, hot modules queue, invalidations
// scale with sharers) rather than specific cycle counts.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace fpq::sim {

/// How the engine picks the next fiber to run (see Engine). The default
/// reproduces the paper's measurement conditions; the other policies
/// deliberately distort time to reach interleavings the smallest-clock
/// order can never produce (schedule exploration, src/verify/stress.hpp).
enum class SchedulePolicy : u8 {
  /// Run the runnable fiber with the smallest local clock (measurement
  /// mode; shared effects apply in nondecreasing simulated time).
  kSmallestClock,
  /// Smallest-clock order, but any scheduling decision may instead push
  /// the chosen fiber back by a random delay. Uniform perturbation: every
  /// fiber is a candidate for preemption at every scheduling point.
  kRandomPreempt,
  /// Adversarial: the *leader* (the unique smallest-clock fiber) is
  /// probabilistically held back behind the second-place fiber, keeping
  /// operations maximally overlapped — the "delay the front-runner"
  /// heuristic that concentrates rare reorderings.
  kDelayLeader,
  /// Systematic: the schedule is dictated by a sim::Explorer
  /// (sim/explore.hpp) that re-executes the scenario under every
  /// DPOR-non-redundant interleaving. Unlike the randomized policies above
  /// this is not a perturbation of smallest-clock order — the engine hands
  /// every scheduling decision to the explorer (Engine::set_explorer).
  kExhaustive,
};

constexpr std::string_view to_string(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kSmallestClock: return "smallest-clock";
    case SchedulePolicy::kRandomPreempt: return "random-preempt";
    case SchedulePolicy::kDelayLeader: return "delay-leader";
    case SchedulePolicy::kExhaustive: return "exhaustive";
  }
  return "?";
}

/// Schedule-exploration knobs; inert at the defaults (policy =
/// kSmallestClock, access_jitter = 0), so existing tests and benchmarks
/// are untouched. Perturbations draw from a dedicated scheduler RNG, so
/// enabling them never shifts the per-processor workload RNG streams.
struct SchedParams {
  SchedulePolicy policy = SchedulePolicy::kSmallestClock;
  /// Probability (per 1000) that a perturbing policy acts on a decision.
  u32 perturb_permille = 250;
  /// Injected scheduling delays are uniform in [1, max_delay].
  Cycles max_delay = 256;
  /// When nonzero, every shared-memory access is charged an extra uniform
  /// [0, access_jitter) cycles before it issues — randomizes arrival order
  /// at the memory modules independently of the policy.
  Cycles access_jitter = 0;
};

struct MachineParams {
  /// Cost of a load/store that hits in the processor's cache.
  Cycles t_hit = 2;
  /// Memory-module service time for a clean miss.
  Cycles t_mem = 30;
  /// Module occupancy: the module is busy this long per request; concurrent
  /// requests to one module queue behind each other. This is the hot-spot
  /// mechanism. Calibrated so the reference algorithms reproduce the
  /// paper's qualitative curves (see EXPERIMENTS.md, "Calibration").
  Cycles t_occ = 25;
  /// Fixed network cost of entering/leaving the interconnect (one way).
  Cycles t_net_base = 4;
  /// Per-mesh-hop network cost (one way).
  Cycles t_hop = 1;
  /// Extra service time when the line is dirty in another processor's cache
  /// (three-hop fetch).
  Cycles t_dirty_fetch = 30;
  /// Fixed cost of issuing invalidations from the directory.
  Cycles t_inv_base = 8;
  /// Additional cost per invalidated sharer.
  Cycles t_inv_per_sharer = 2;
  /// Cost of a processor-local pause (spin-loop hint).
  Cycles t_pause = 4;

  /// Stack size for each simulated processor's fiber. This is address space
  /// reserved per fiber (sim/fiber.hpp); only the pages a fiber touches
  /// become resident.
  std::size_t fiber_stack_bytes = 128 * 1024;

  /// Schedule-exploration settings (default: plain smallest-clock order).
  SchedParams sched;

  /// Attach the happens-before race detector + lock-order checker
  /// (sim/race_detector.hpp) to the run. Off by default: detection tracks a
  /// vector clock per fiber and epochs per word, which costs memory and
  /// time the measurement runs must not pay. Timing is unaffected either
  /// way — the detector observes accesses, it never delays them.
  bool race_detect = false;
};

/// Hard cap baked into the inline sharer bitsets.
inline constexpr u32 kMaxSimProcs = 1024;

} // namespace fpq::sim
