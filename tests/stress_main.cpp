// fpq_stress: the standing correctness gate. Sweeps every queue algorithm
// across schedule policies x seeds under the Appendix-B checkers, printing
// a minimized, replayable counterexample on failure.
//
//   fpq_stress                                  # default bounded budget
//   fpq_stress --algos=FunnelTree --seeds=128   # focused, deeper sweep
//   fpq_stress --replay "algo=... policy=... seed=..."   # reproduce a dump
//
// Exit status: 0 clean, 1 counterexample found, 2 usage error. Registered
// with ctest under the `stress` label (one entry per algorithm).
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "verify/liveness.hpp"
#include "verify/stress.hpp"

namespace {

// FPQ_ASSERT aborts the process; scenarios are deterministic, so knowing
// which spec was in flight is enough to replay the abort. Kept in a plain
// buffer and written with write(2) — both async-signal-safe.
char g_current_spec[512];

void on_abort(int) {
  if (g_current_spec[0] != '\0') {
    const char* head = "\nfpq_stress: aborted while running scenario; replay with:\n  --replay \"";
    (void)!write(STDERR_FILENO, head, std::strlen(head));
    (void)!write(STDERR_FILENO, g_current_spec, std::strlen(g_current_spec));
    (void)!write(STDERR_FILENO, "\"\n", 2);
  }
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

void remember_spec(const fpq::verify::StressSpec& spec) {
  const std::string line = fpq::verify::to_line(spec);
  std::strncpy(g_current_spec, line.c_str(), sizeof(g_current_spec) - 1);
  g_current_spec[sizeof(g_current_spec) - 1] = '\0';
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

// Workload flags: each is an alias of one replay-line key (stress.hpp),
// set through the same parser as --replay. The CLI's --policy is the
// Sharded access mode; the schedule policy is --policies/--schedule.
struct SpecFlag {
  const char* flag;
  const char* key;
};
constexpr SpecFlag kSpecFlags[] = {
    {"--seed-base", "seed"},    {"--procs", "procs"},       {"--ops", "ops"},
    {"--nprio", "nprio"},       {"--insert-pct", "ins"},    {"--jitter", "jitter"},
    {"--batch", "batch"},       {"--funnel", "funnel"},     {"--shards", "shards"},
    {"--sample-c", "c"},        {"--policy", "mode"},       {"--faults", "faults"},
    {"--watchdog", "watchdog"}, {"--max-execs", "max_execs"},
    {"--preempt-bound", "preempt_bound"},
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --algos=A,B,...      algorithms (display names; default: all nine)\n"
      << "  --policies=p,...     smallest-clock | random-preempt | delay-leader |\n"
      << "                       exhaustive (DPOR model checking, DESIGN.md §15)\n"
      << "  --schedule=NAME      shorthand: append one policy (e.g. exhaustive)\n"
      << "  --preempt-bound=N    exhaustive only: max preemptions per execution\n"
      << "                       (0 = unbounded, full DPOR; default 0)\n"
      << "  --max-execs=N        exhaustive only: execution budget per scenario\n"
      << "                       (0 = unbounded; default 2^20)\n"
      << "  --seeds=N            seeds per (algorithm, policy) combination (default 32)\n"
      << "  --seed-base=N        first seed (default 1)\n"
      << "  --procs=N --ops=N --nprio=N --insert-pct=N --jitter=N   workload shape\n"
      << "  --batch=N            group ops into insert_batch/delete_min_batch calls\n"
      << "  --funnel=exchange|aggregate   funnel collision protocol (DESIGN.md §13)\n"
      << "  --shards=K           sub-queue count for the Sharded composite (0=auto)\n"
      << "  --sample-c=N         delete-min sample width; 0 or >=K scans every shard\n"
      << "  --policy=direct|delegate|adaptive   Sharded access-mode policy\n"
      << "  --race-detect        attach the happens-before race detector and the\n"
      << "                       lock-order checker to every scenario (DESIGN.md §10)\n"
      << "  --faults=PLAN        inject a fault plan into every scenario, e.g.\n"
      << "                       crash@p1a500 or stall@p0a200n1000,casfail@p2a50n8\n"
      << "  --watchdog=N         per-processor heartbeat budget (accesses between op\n"
      << "                       boundaries) before a spinner is declared wedged\n"
      << "  --liveness           run the progress-guarantee battery instead of the\n"
      << "                       checker sweep: crash/stall plans against every\n"
      << "                       algorithm, declared-vs-observed table (DESIGN.md §12)\n"
      << "  --max-failures=N     stop after N minimized counterexamples (default 1)\n"
      << "  --no-minimize        report the first failure unshrunk\n"
      << "  --quiet              suppress per-combination progress\n"
      << "  --replay \"SPEC\"      rerun one scenario from a counterexample line\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  using namespace fpq::verify;

  std::signal(SIGABRT, on_abort);

  StressSweep sweep;
  StressSpec& base = sweep.base;
  bool quiet = false;
  bool liveness = false;
  // The liveness battery has its own workload defaults (deeper runs so the
  // fault ordinals land mid-operation); only explicit flags override them.
  bool procs_set = false, ops_set = false;
  std::string replay_line;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    auto is = [&](const char* flag) { return eq != std::string::npos && name == flag; };
    const SpecFlag* spec_flag = nullptr;
    for (const SpecFlag& f : kSpecFlags)
      if (is(f.flag)) spec_flag = &f;
    try {
      if (spec_flag != nullptr) {
        set_spec_key(base, spec_flag->key, val);
        procs_set |= name == "--procs";
        ops_set |= name == "--ops";
      } else if (is("--algos")) {
        for (const std::string& algo : split_csv(val))
          sweep.algorithms.push_back(fpq::algorithm_from_string(algo));
      } else if (is("--policies")) {
        for (const std::string& policy : split_csv(val))
          sweep.policies.push_back(policy_from_string(policy));
      } else if (is("--schedule")) {
        sweep.policies.push_back(policy_from_string(val));
      } else if (is("--seeds")) {
        sweep.seeds = static_cast<fpq::u32>(fpq::parse_whole(val, UINT32_MAX));
      } else if (is("--max-failures")) {
        sweep.max_failures = static_cast<fpq::u32>(fpq::parse_whole(val, UINT32_MAX));
      } else if (arg == "--liveness") {
        liveness = true;
      } else if (arg == "--race-detect") {
        set_spec_key(base, "race", "1");
      } else if (arg == "--no-minimize") {
        sweep.minimize_failures = false;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--replay") {
        // Join everything that follows: a quoted spec arrives as one arg,
        // an unquoted paste as several.
        for (++i; i < argc; ++i) {
          if (!replay_line.empty()) replay_line += ' ';
          replay_line += argv[i];
        }
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "bad option " << arg << ": " << e.what() << "\n";
      return usage(argv[0]);
    }
  }

  try {
    validate(base);
    if (sweep.seeds < 1) throw std::invalid_argument("--seeds must be >= 1");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }

  if (liveness) {
    LivenessBatteryOptions lopt;
    lopt.algorithms = sweep.algorithms;
    lopt.seed = base.seed;
    if (procs_set) lopt.nprocs = base.nprocs;
    if (ops_set) lopt.ops_per_proc = base.ops_per_proc;
    const std::vector<LivenessRow> rows =
        run_liveness_battery(lopt, quiet ? nullptr : &std::cout);
    std::cout << format_liveness_table(rows);
    for (const LivenessRow& r : rows)
      if (!r.ok) return 1;
    return 0;
  }

  if (!replay_line.empty()) {
    StressSpec spec;
    try {
      spec = spec_from_line(replay_line);
    } catch (const std::exception& e) {
      std::cerr << "bad replay spec: " << e.what() << "\n";
      return usage(argv[0]);
    }
    remember_spec(spec);
    std::cout << "replaying: " << to_line(spec) << "\n";
    if (spec.policy == fpq::sim::SchedulePolicy::kExhaustive) {
      // Re-exploring is the replay: the exploration order is deterministic,
      // so the failing execution (spec.trace) is reached the same way.
      // Coverage is printed either way so a clean result is qualified.
      ExhaustiveResult r = run_exhaustive(spec);
      std::cout << "coverage: " << fpq::sim::to_string(r.stats) << "\n";
      if (r.failure) {
        std::cout << format_failure(*r.failure);
        return 1;
      }
      std::cout << "scenario passed all checks (fixed already, or a different build?)\n";
      return 0;
    }
    if (auto f = run_scenario(spec)) {
      std::cout << format_failure(*f);
      return 1;
    }
    std::cout << "scenario passed all checks (fixed already, or a different build?)\n";
    return 0;
  }

  sweep.on_scenario = remember_spec;
  std::vector<StressFailure> failures = run_sweep(sweep, quiet ? nullptr : &std::cout);
  if (!failures.empty()) {
    for (const StressFailure& f : failures) std::cerr << format_failure(f);
    return 1;
  }
  if (!quiet) std::cout << "stress: all scenarios clean\n";
  return 0;
}
