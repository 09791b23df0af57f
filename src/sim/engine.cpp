#include "sim/engine.hpp"

#include <cstdio>

#include "sim/explore.hpp"

namespace fpq::sim {

namespace {
thread_local Engine* g_current = nullptr;
}

Engine* Engine::current() { return g_current; }

Engine::Engine(u32 nprocs, MachineParams params, u64 seed)
    : memory_(nprocs, params), procs_(nprocs), stats_(nprocs), params_(params),
      sched_rng_(seed ^ 0xa5a5a5a5a5a5a5a5ull) {
  for (u32 i = 0; i < nprocs; ++i) procs_[i].rng = Xorshift(seed * 0x100000001b3ull + i);
  if (params.race_detect) detector_ = std::make_unique<RaceDetector>(nprocs, seed);
}

Engine::~Engine() {
  if (g_current == this) g_current = nullptr;
}

ProcId Engine::self() const {
  FPQ_ASSERT_MSG(running_ != kNoProc, "self() called outside a simulated processor");
  return running_;
}

Cycles Engine::now() const {
  return running_ == kNoProc ? 0 : procs_[running_].clock;
}

Xorshift& Engine::rng() { return procs_[self()].rng; }

void Engine::schedule(ProcId p) {
  if (explorer_ != nullptr) return; // the explorer's run loop scans enabledness
  runq_.emplace(procs_[p].clock, seq_++, p);
}

void Engine::yield_running() {
  FPQ_ASSERT(running_ != kNoProc);
  Proc& p = procs_[running_];
  if (explorer_ != nullptr || p.blocked) {
    // The explorer picks in its own loop, and a parked fiber has no queue
    // entry: both go back to the run loop.
    p.fiber.yield_out();
    return;
  }
  // Requeue and pick exactly as the run loop would, but here, and switch
  // straight to the choice: one switch instead of two, none if it is us.
  schedule(running_);
  const ProcId next = pick_next();
  if (next == running_) return;
  running_ = next;
  p.fiber.hand_off(procs_[next].fiber);
}

ProcId Engine::pick_next() {
  while (!runq_.empty()) {
    auto [clk, sq, pid] = runq_.top();
    runq_.pop();
    Proc& p = procs_[pid];
    if (p.fiber.done() || p.blocked) continue; // defensively drop stale entries
    // Every clock change is immediately followed by a fresh queue entry
    // and blocked processors have no entry, so entries are never stale.
    FPQ_ASSERT_MSG(clk == p.clock, "scheduler entry out of date");
    (void)sq;
    if (perturb(pid)) continue; // policy delayed the fiber; pick again
    return pid;
  }
  return kNoProc;
}

bool Engine::perturb(ProcId pid) {
  const SchedParams& s = params_.sched;
  if (s.policy == SchedulePolicy::kSmallestClock) return false;
  if (runq_.empty()) return false; // sole runnable fiber: delaying it is a no-op
  // Clamped below certainty: a policy that perturbs *every* decision would
  // requeue forever without running anything.
  const u64 permille = s.perturb_permille < 1000 ? s.perturb_permille : 999;
  if (sched_rng_.below(1000) >= permille) return false;
  Proc& p = procs_[pid];
  switch (s.policy) {
    case SchedulePolicy::kRandomPreempt:
      p.clock += 1 + sched_rng_.below(s.max_delay);
      break;
    case SchedulePolicy::kDelayLeader: {
      // Hold the front-runner behind the second-place fiber so their
      // operations overlap instead of the leader racing ahead.
      const Cycles runner_up = std::get<0>(runq_.top());
      p.clock = runner_up + 1 + sched_rng_.below(s.max_delay);
      break;
    }
    case SchedulePolicy::kSmallestClock: return false; // unreachable
    case SchedulePolicy::kExhaustive: return false;    // explorer runs its own loop
  }
  schedule(pid);
  return true;
}

void Engine::on_access(const void* addr, AccessKind kind, MemOrder order,
                       bool rmw_applied) {
  if (g_current != this || running_ == kNoProc) return; // setup/teardown code
  Proc& p = procs_[running_];
  // Schedule exploration: jitter the issue time of every shared access so
  // arrival order at the modules (and thus RMW winners) is randomized.
  // Systematic exploration owns the schedule outright, so jitter is off.
  if (params_.sched.access_jitter > 0 && explorer_ == nullptr)
    p.clock += sched_rng_.below(params_.sched.access_jitter);
  AccessResult r = memory_.access(running_, addr, kind, p.clock);
  p.clock = r.completion;
  ++stats_[running_].accesses;
  if (detector_)
    detector_->on_access(running_, r.word_key, kind, order, rmw_applied, p.clock);
  for (ProcId w : r.woken) {
    Proc& wp = procs_[w];
    FPQ_ASSERT(wp.blocked);
    wp.blocked = false;
    wp.clock = std::max(wp.clock, r.completion);
    schedule(w);
  }
  if (explorer_ != nullptr) {
    // Every access is a choice point: report the visible event and yield
    // unconditionally (hit elision would hide schedule points).
    explorer_->on_event(running_, r.word_key, kind, rmw_applied);
    yield_running();
    return;
  }
  // Fault consultation happens on *every* access, hits included — the
  // hit-elision below never runs for a faulted access, so a victim spinning
  // on a cached line still reaches its crash/stall/wedge ordinal.
  if (faults_) {
    const u64 ordinal = stats_[running_].accesses - 1; // index this access got
    if (faults_->plan().watchdog_budget != 0 &&
        ++since_heartbeat_[running_] > faults_->plan().watchdog_budget) {
      take_down(ProcOutcome::kWedged);
      return;
    }
    const FaultEngine::Decision d = faults_->on_access(running_, ordinal);
    if (d.action == FaultEngine::Action::kCrash) {
      take_down(ProcOutcome::kCrashed);
      return;
    }
    if (d.action == FaultEngine::Action::kStallForever) {
      take_down(ProcOutcome::kStalledForever);
      return;
    }
    if (d.stall > 0) {
      p.clock += d.stall;
      yield_running(); // requeued at the post-stall clock; resumes here
      return;
    }
  }
  // Hits are cheap and invisible to other processors; skipping the yield on
  // them keeps host time proportional to *misses*, which is what the model
  // charges for anyway.
  if (!r.hit) yield_running();
}

void Engine::take_down(ProcOutcome o) {
  FPQ_ASSERT(running_ != kNoProc);
  outcomes_[running_] = o;
  // Parked with no waiter registration: nothing ever wakes it, the run loop
  // drops its queue entries, and run() skips restarting it while the plan
  // stays active. The fiber's stack is reclaimed un-unwound at the next
  // run (fail-stop: destructors do not run, locks stay held).
  procs_[running_].blocked = true;
  yield_running();
  FPQ_ASSERT_MSG(false, "a downed fiber was rescheduled");
}

void Engine::set_explorer(Explorer* ex) {
  FPQ_ASSERT_MSG(!running_run_, "set_explorer during a run");
  FPQ_ASSERT_MSG(ex == nullptr || faults_ == nullptr,
                 "exhaustive exploration is incompatible with fault plans");
  explorer_ = ex;
}

void Engine::set_fault_plan(FaultPlan plan) {
  FPQ_ASSERT_MSG(!running_run_, "set_fault_plan during a run");
  FPQ_ASSERT_MSG(plan.empty() || explorer_ == nullptr,
                 "fault plans are incompatible with exhaustive exploration");
  if (plan.empty()) {
    faults_.reset();
    outcomes_.clear();
    since_heartbeat_.clear();
    fault_report_.outcomes.clear();
    return;
  }
  faults_ = std::make_unique<FaultEngine>(std::move(plan));
  outcomes_.assign(nprocs(), ProcOutcome::kCompleted);
  since_heartbeat_.assign(nprocs(), 0);
  fault_report_.outcomes.clear();
}

void Engine::heartbeat() {
  if (faults_ && running_ != kNoProc) since_heartbeat_[running_] = 0;
}

bool Engine::inject_cas_failure() {
  if (!faults_ || running_ == kNoProc) return false;
  // Pre-increment: the index this access is *about to* get in on_access.
  return faults_->fail_cas(running_, stats_[running_].accesses);
}

bool Engine::inject_alloc_failure() {
  if (!faults_ || running_ == kNoProc) return false;
  return faults_->fail_alloc(running_);
}

void Engine::note_lock_acquire(const void* lock, bool trylock) {
  if (detector_ && running_ != kNoProc)
    detector_->on_lock_acquire(running_, lock, trylock, procs_[running_].clock);
}

void Engine::note_lock_release(const void* lock) {
  if (detector_ && running_ != kNoProc) detector_->on_lock_release(running_, lock);
}

void Engine::delay(Cycles c) {
  if (g_current != this || running_ == kNoProc) return;
  procs_[running_].clock += c;
  // Under systematic exploration a pure delay is not a visible event: a
  // yield here would create eventless choice points (state-space blowup
  // with zero discriminating power). Every spin loop in the codebase
  // re-reads shared state, so slices stay bounded without it.
  if (explorer_ == nullptr) yield_running();
}

void Engine::pause() { delay(params_.t_pause); }

void Engine::wait_on(const void* addr, u64 observed_version) {
  FPQ_ASSERT_MSG(running_ != kNoProc, "wait_on outside a simulated processor");
  if (memory_.line_version(addr) != observed_version) {
    // A write landed between the caller's read and this call; don't block,
    // let the caller re-check.
    return;
  }
  Proc& p = procs_[running_];
  memory_.add_waiter(addr, running_);
  p.blocked = true;
  p.wait_addr = addr;
  yield_running();
  p.wait_addr = nullptr;
  FPQ_ASSERT(!p.blocked);
}

void Engine::run(const std::function<void(ProcId)>& body) {
  FPQ_ASSERT_MSG(!running_run_, "Engine::run is not reentrant");
  running_run_ = true;
  // Successive runs are separated by a real host-thread join: an all-fiber
  // HB barrier, or the drain phase would race against the mixed phase.
  if (detector_) detector_->on_barrier();
  Engine* prev = g_current;
  g_current = this;

  const u32 n = nprocs();
  // Fresh fibers each run; clocks persist across runs so a second run sees
  // contention-consistent timestamps.
  std::vector<Proc> fresh(n);
  for (u32 i = 0; i < n; ++i) {
    fresh[i].clock = procs_[i].clock;
    fresh[i].rng = procs_[i].rng;
  }
  procs_ = std::move(fresh);

  u32 live = 0;
  for (u32 i = 0; i < n; ++i) {
    if (faults_ && perm_down(i)) continue; // a downed processor stays down
    if (faults_) outcomes_[i] = ProcOutcome::kCompleted;
    procs_[i].fiber.start([this, &body, i] { body(i); }, params_.fiber_stack_bytes);
    schedule(i);
    ++live;
  }
  std::exception_ptr first_error;
  if (explorer_ != nullptr) {
    // Systematic mode: the explorer dictates every decision. The clock
    // order is irrelevant (and deliberately violated); what matters is the
    // exact enabled set at every choice point.
    std::vector<ProcId> enabled;
    for (;;) {
      enabled.clear();
      for (u32 i = 0; i < n; ++i)
        if (!procs_[i].fiber.done() && !procs_[i].blocked) enabled.push_back(i);
      if (enabled.empty()) break;
      const ProcId pid = explorer_->pick(enabled);
      FPQ_ASSERT_MSG(pid < n && !procs_[pid].fiber.done() && !procs_[pid].blocked,
                     "explorer picked a processor that is not enabled");
      Proc& p = procs_[pid];
      running_ = pid;
      p.fiber.switch_in(sched_ctx_);
      running_ = kNoProc;
      if (p.fiber.done()) {
        --live;
        if (p.fiber.error() && !first_error) first_error = p.fiber.error();
        stats_[pid].clock = p.clock;
      }
    }
  } else {
    for (ProcId pid = pick_next(); pid != kNoProc; pid = pick_next()) {
      running_ = pid;
      procs_[pid].fiber.switch_in(sched_ctx_);
      // Fibers hand off among themselves (yield_running), so the one that
      // came back is running_, and it finished or parked.
      const ProcId back = running_;
      running_ = kNoProc;
      Proc& p = procs_[back];
      FPQ_ASSERT(p.fiber.done() || p.blocked);
      if (p.fiber.done()) {
        --live;
        if (p.fiber.error() && !first_error) first_error = p.fiber.error();
        stats_[back].clock = p.clock;
      }
    }
  }
  running_run_ = false;
  g_current = prev;

  if (explorer_ != nullptr && live > 0 && !first_error) {
    // Nothing enabled with fibers still parked: a real deadlock schedule.
    // Record it as a counterexample instead of aborting — the harness
    // reports it like any other oracle violation. Stale spin-waiter
    // registrations must not leak into a subsequent run.
    explorer_->note_deadlock();
    memory_.clear_waiters();
  }
  if (live > 0 && !first_error && !faults_ && explorer_ == nullptr) {
    std::fprintf(stderr, "funnelpq sim: deadlock — %u processor(s) blocked forever\n",
                 live);
    for (u32 i = 0; i < n; ++i) {
      if (!procs_[i].fiber.done())
        std::fprintf(stderr, "  proc %u blocked=%d clock=%llu wait_addr=%p\n", i,
                     procs_[i].blocked ? 1 : 0,
                     static_cast<unsigned long long>(procs_[i].clock),
                     procs_[i].wait_addr);
    }
    FPQ_ASSERT_MSG(false, "simulated deadlock: all runnable fibers exhausted");
  }
  if (faults_) {
    // A faulted run ending with parked fibers is a *result*, not a bug:
    // classify the stragglers and report instead of asserting. Processors
    // the plan took down already carry their outcome; anything else still
    // parked was waiting on one of them.
    for (u32 i = 0; i < n; ++i) {
      if (!procs_[i].fiber.done() && outcomes_[i] == ProcOutcome::kCompleted)
        outcomes_[i] = ProcOutcome::kBlocked;
    }
    fault_report_.outcomes = outcomes_;
    // Drop stale spin-waiter registrations: a later run's write to the same
    // word must not "wake" a fiber that no longer exists.
    memory_.clear_waiters();
  }
  // A fiber still parked (taken down, or waiting on one that was) is never
  // resumed: the next run starts fresh fibers.
  for (Proc& p : procs_) p.fiber.abandon();
  for (u32 i = 0; i < n; ++i) stats_[i].clock = procs_[i].clock;
  if (first_error) std::rethrow_exception(first_error);
}

} // namespace fpq::sim
