// The simulation engine: P simulated processors (fibers) scheduled in
// global-time order over the MemoryModel. Algorithms never talk to the
// engine directly — they go through SimPlatform (src/platform/sim.hpp),
// whose Shared<T> words report each access here.
//
// Execution model
//   * The runnable fiber with the smallest local clock runs next, so shared
//     effects are applied in nondecreasing simulated time and runs are
//     deterministic for a fixed seed. MachineParams::sched selects an
//     alternative SchedulePolicy (random preemption, delay-the-leader,
//     per-access jitter) that deliberately distorts time to explore
//     interleavings the smallest-clock order never reaches; perturbed runs
//     stay deterministic per seed because the perturbation stream is its
//     own seeded RNG.
//   * A data operation linearizes at issue: the fiber performs the host
//     memory operation, then calls on_access(), which charges the modeled
//     latency (possibly including module queueing) and yields if the access
//     was not a cache hit.
//   * spin_until parks the fiber on the word's directory line; any write or
//     RMW to the word wakes it. A per-line version counter closes the race
//     between observing a stale value and registering as a waiter.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/memorder.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/faults.hpp"
#include "sim/fiber.hpp"
#include "sim/memory.hpp"
#include "sim/params.hpp"
#include "sim/race_detector.hpp"

namespace fpq::sim {

class Explorer;

struct ProcStats {
  Cycles clock = 0; // final local time
  u64 accesses = 0;
};

class Engine {
 public:
  Engine(u32 nprocs, MachineParams params = {}, u64 seed = 1);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `body(proc_id)` on every simulated processor to completion.
  /// Rethrows the first exception thrown inside a fiber. May be called
  /// multiple times; clocks continue from where the previous run left off.
  void run(const std::function<void(ProcId)>& body);

  /// The engine currently executing a fiber on this host thread, or nullptr
  /// when called from setup/teardown code.
  static Engine* current();

  /// True when the calling code is executing inside a simulated processor.
  bool in_fiber() const { return running_ != kNoProc; }

  // ---- Called from inside fibers (and tolerated outside for setup code).
  ProcId self() const;
  u32 nprocs() const { return static_cast<u32>(procs_.size()); }
  Cycles now() const;
  Xorshift& rng();
  /// `order` is the access's *declared* memory order — timing ignores it,
  /// but the race detector (MachineParams::race_detect) derives the
  /// happens-before graph from it. `rmw_applied` is false for a failed
  /// CAS, which reads at its failure order but writes nothing.
  void on_access(const void* addr, AccessKind kind,
                 MemOrder order = MemOrder::kSeqCst, bool rmw_applied = true);
  void delay(Cycles c);
  void pause();
  u64 line_version(const void* addr) { return memory_.line_version(addr); }
  /// Blocks the calling fiber until a write touches `addr`, unless the
  /// line's version already moved past `observed_version`.
  void wait_on(const void* addr, u64 observed_version);

  const MemStats& mem_stats() const { return memory_.stats(); }
  MemoryModel& memory() { return memory_; }
  const std::vector<ProcStats>& proc_stats() const { return stats_; }
  const MachineParams& params() const { return memory_.params(); }

  /// The attached race detector, or nullptr when MachineParams::race_detect
  /// is off. Lives as long as the engine; query after run() returns.
  RaceDetector* race_detector() { return detector_.get(); }

  /// Hands every scheduling decision to a DPOR explorer (sim/explore.hpp):
  /// the runq/perturbation machinery is bypassed, every Shared access
  /// yields (hit elision off — each access is a choice point), access
  /// jitter is ignored, and delay() advances the clock without yielding
  /// (timing is not a schedule under systematic exploration). Must be
  /// called between runs; mutually exclusive with fault plans. The
  /// explorer must outlive every run; pass nullptr to detach.
  void set_explorer(Explorer* ex);
  Explorer* explorer() const { return explorer_; }

  /// Lock-lifecycle hints from the sync layer (via Platform::note_lock_*);
  /// no-ops unless the race detector is attached and a fiber is running.
  void note_lock_acquire(const void* lock, bool trylock);
  void note_lock_release(const void* lock);

  // ---- Fault injection (sim/faults.hpp).

  /// Installs (or, with an empty plan, removes) a fault plan. Resets all
  /// fault state: processors killed by a previous plan come back to life.
  /// Must be called between runs. With a plan active, a run that ends with
  /// processors parked forever *returns* (outcomes in fault_report())
  /// instead of tripping the deadlock assertion.
  void set_fault_plan(FaultPlan plan);
  bool fault_plan_active() const { return faults_ != nullptr; }
  /// Per-processor outcome of the most recent run(); meaningful only while
  /// a plan is active.
  const FaultReport& fault_report() const { return fault_report_; }
  /// Liveness pulse: resets the calling processor's watchdog counter. The
  /// harness calls this between queue operations; a processor that spends
  /// FaultPlan::watchdog_budget accesses inside one operation is wedged.
  void heartbeat();
  /// Consulted by SimShared::compare_exchange before the data effect; true
  /// means this CAS must fail spuriously (see FaultKind::kCasFail).
  bool inject_cas_failure();
  /// Consulted by SimPlatform::try_alloc; true means return nullptr.
  bool inject_alloc_failure();

 private:
  struct Proc {
    Cycles clock = 0;
    Fiber fiber;
    Xorshift rng{0};
    bool blocked = false;
    const void* wait_addr = nullptr; // diagnostic: word waited on
  };

  void schedule(ProcId p);
  /// Suspends the running fiber. Outside exploration a fiber that is not
  /// parked is requeued and hands off directly to the next pick.
  void yield_running();
  /// Pops the run queue up to the next fiber to run, applying the
  /// SchedulePolicy; kNoProc when the queue is empty.
  ProcId pick_next();
  /// Applies the configured SchedulePolicy to the fiber about to run.
  /// Returns true when the fiber was delayed and requeued instead (the
  /// scheduler must pick again).
  bool perturb(ProcId p);

  MemoryModel memory_;
  std::vector<Proc> procs_;
  std::vector<ProcStats> stats_;
  ProcId running_ = kNoProc;
  Fiber::Context sched_ctx_; // the run loop, on the host thread's stack
  u64 seq_ = 0; // tie-breaker for equal clocks (keeps ordering deterministic)
  using QEntry = std::tuple<Cycles, u64, ProcId>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> runq_;
  MachineParams params_;
  bool running_run_ = false;
  /// Dedicated stream for schedule perturbation so the policies never
  /// shift the per-processor workload RNGs: a run under kSmallestClock is
  /// byte-identical to one built before policies existed.
  Xorshift sched_rng_{0};
  /// Happens-before race detector (params.race_detect); observes accesses
  /// without perturbing their timing.
  std::unique_ptr<RaceDetector> detector_;
  /// DPOR schedule explorer (set_explorer); null = normal scheduling.
  Explorer* explorer_ = nullptr;
  /// Fault-injection decision core (set_fault_plan); null = no plan.
  std::unique_ptr<FaultEngine> faults_;
  /// Per-proc outcome, persistent across runs while a plan is active:
  /// kCrashed/kStalledForever/kWedged processors are never restarted.
  std::vector<ProcOutcome> outcomes_;
  std::vector<u64> since_heartbeat_;
  FaultReport fault_report_;
  /// True while a plan is active: this processor must never run again.
  bool perm_down(ProcId p) const {
    const ProcOutcome o = outcomes_[p];
    return o == ProcOutcome::kCrashed || o == ProcOutcome::kStalledForever ||
           o == ProcOutcome::kWedged;
  }
  /// Parks the running fiber forever with the given outcome (never returns
  /// control to the caller's fiber within this run).
  void take_down(ProcOutcome o);
};

} // namespace fpq::sim
