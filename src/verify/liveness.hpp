// Empirical progress-guarantee classification (DESIGN.md §12).
//
// A LivenessSpec pins one deterministic scenario: an algorithm, a fault
// plan that permanently downs one or more processors (sim/faults.hpp), and
// a per-processor heartbeat watchdog. The runner drives a mixed workload,
// lets the plan fire, and reads the engine's FaultReport:
//
//   * a queue behaves LOCK-FREE under the plan when every surviving
//     processor still completes its full quota of operations;
//   * a queue behaves BLOCKING when some survivor ends the run detected as
//     blocked — parked on a dead processor's lock (kBlocked) or wedged by
//     the watchdog while actively spinning (kWedged). Detection, not
//     hanging, is the point: the watchdog guarantees the run terminates,
//     so a blocking queue under a hostile plan costs a classification, not
//     a hung test binary.
//
// run_liveness_battery sweeps every registry algorithm across a small set
// of crash and stall plans and checks the observed class against the
// declared one (registry::progress_guarantee): a declared-lock-free queue
// must survive *every* plan; a declared-blocking queue must never hang
// (already structural) and its blocked survivors must all be detected.
// format_liveness_table renders the per-queue guarantee table the fault CI
// job publishes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sim/faults.hpp"
#include "platform/sim.hpp"

namespace fpq::verify {

struct LivenessSpec {
  Algorithm algo = Algorithm::kSingleLock;
  u64 seed = 1;
  u32 nprocs = 4;
  u32 ops_per_proc = 32;
  u32 npriorities = 2; // few priorities: survivors must share the victim's locks
  u32 insert_percent = 60;
  /// The plan is expected to permanently down at least one processor
  /// (crash or stall-forever events); casfail/allocfail events are legal
  /// but do not change the classification universe.
  sim::FaultPlan faults;
  /// Heartbeat budget (accesses between op boundaries). Always on: this is
  /// what turns "survivor spins forever on a dead lock holder" into a
  /// detected kWedged instead of a hung test. Must comfortably exceed the
  /// access count of the longest legitimate single operation.
  u64 watchdog = 20000;
};

struct LivenessResult {
  LivenessSpec spec;
  sim::FaultReport report;
  /// Operations each processor finished in the mixed phase.
  std::vector<u64> completed;
  /// Processors the plan never targeted with a crash/stall event...
  u32 survivors = 0;
  /// ...split into: finished their full quota,
  u32 survivors_completed = 0;
  /// ...and detected as blocked (parked or watchdog-wedged).
  u32 survivors_blocked = 0;
  /// kLockFree iff every survivor completed; kBlocking otherwise.
  ProgressGuarantee observed = ProgressGuarantee::kBlocking;
};

/// Runs one scenario. Always terminates (watchdog); after the run the
/// downed processors' reclamation state is adopted by a survivor so the
/// queue tears down cleanly.
LivenessResult run_liveness(const LivenessSpec& spec);

/// One row of the progress-guarantee table: an algorithm's declared class
/// against its behavior across the battery's plans.
struct LivenessRow {
  Algorithm algo = Algorithm::kSingleLock;
  ProgressGuarantee declared = ProgressGuarantee::kBlocking;
  /// Every survivor of every plan completed its quota.
  bool all_survivors_completed = false;
  /// Some plan produced a detected-blocked survivor.
  bool observed_blocking = false;
  /// Declared-lock-free queues must have all_survivors_completed; for
  /// declared-blocking queues termination-with-detection is the property
  /// (structural here), so they pass either way.
  bool ok = false;
};

struct LivenessBatteryOptions {
  std::vector<Algorithm> algorithms; // empty = all nine
  u64 seed = 1;
  u32 nprocs = 4;
  u32 ops_per_proc = 32;
};

/// Sweeps algorithms x {crash, stall-forever} x victim ordinals.
std::vector<LivenessRow> run_liveness_battery(const LivenessBatteryOptions& opt,
                                              std::ostream* progress = nullptr);

/// Renders the guarantee table (one row per algorithm, declared vs
/// observed, verdict) for test logs and the fault CI job's artifact.
std::string format_liveness_table(const std::vector<LivenessRow>& rows);

} // namespace fpq::verify
