#!/usr/bin/env python3
"""Static enforcement of the Platform::Shared memory-ordering contract.

The dynamic half of the contract lives in the simulator's race detector
(src/sim/race_detector.hpp, DESIGN.md §10); this linter is the static
half. It greps the algorithm layers for three contract violations that
are cheap to catch at review time:

  raw-atomic       `std::atomic` outside the platform layer. Algorithms
                   must go through `Platform::Shared` so both backends —
                   and the detector — see every access.

  seq-cst          a sequentially-consistent access (explicit
                   `MemOrder::kSeqCst` or an unsuffixed default like
                   `.load()` / `.store(v)` / 2-arg `compare_exchange`)
                   outside the files enumerated in the DESIGN.md §8.2
                   exemption table. Seq_cst is reserved for
                   store-buffering handshakes that are argued there.

  stale-exemption  a DESIGN.md §8.2 exemption row naming a file that does
                   not exist. Such a row argues for nothing, and it would
                   silently grant seq_cst to any later file at that path.

  unpadded-shared  a contiguous container of `Shared<T>` without the
                   `Padded<>` wrapper (false-sharing audit, §8.4).
                   Deliberately-contiguous arrays (lock-serialized data,
                   bulk-transfer buffers) carry a waiver.

  unpadded-shard   a contiguous container of per-shard descriptor structs
                   (element type named `Shard`/`*Shard*`) without the
                   `Padded<>` wrapper. A shard descriptor bundles that
                   shard's hot words (stash, monitor EWMAs, server lock,
                   request slots); packing descriptors back-to-back makes
                   every neighbour pair false-share, which silently undoes
                   the whole point of sharding (DESIGN.md §14). Plain
                   value types (`ShardConfig`, `ShardStats`,
                   `ShardPolicyKind`) are copied snapshots, not contended
                   state, and are not flagged.

  naked-reclaim    a `delete` / `delete[]` / `free()` expression outside
                   src/reclaim/. Nodes that were ever reachable through a
                   `Shared` pointer must die via `reclaim::Guard::retire`
                   (DESIGN.md §11) — a direct free races with concurrent
                   readers that still hold the pointer. Ownership-clear
                   frees (never-published nodes, quiescent destructor
                   teardown) carry a waiver stating why no reader can
                   exist. Deleted-function declarations (`= delete`) are
                   not flagged.

  schedule-fork-point
                   a concurrency primitive inside the scheduler layer
                   (src/sim/): `std::atomic`, `std::thread`/`std::mutex`,
                   or an instrumented `Shared<>`/`SimShared<>` word. The
                   model checker (DESIGN.md §15) is sound only if every
                   schedulable access flows through Engine::on_access —
                   a raw atomic below that hook is an access the explorer
                   never sees as a fork point (missed dependence edges =
                   unsound pruning), and an instrumented word *inside*
                   the engine would re-enter the hook from the scheduler
                   itself. Host-side state that is provably outside the
                   simulated machine carries a waiver saying so.

  naked-spin       an unbounded loop (`for (;;)`, `while (true)`,
                   `while (1)`) outside src/sync/ whose body shows no
                   escalation or parking token — no Backoff, spin_until /
                   wait_on, P::relax / pause, heartbeat, or TryClock
                   tick. Under the fault model (DESIGN.md §12) such a
                   loop spinning on a dead processor's word monopolizes
                   the simulated core invisibly: the hit-elision rule
                   never yields and the watchdog cannot distinguish it
                   from progress. Genuine lock-free retry loops (each
                   iteration re-reads shared state and one CAS failure
                   implies another processor progressed) carry a waiver
                   saying so.

A line is waived by a trailing comment, or by a comment anywhere in the
contiguous `//` block immediately above it:

    // contract-lint: allow(<rule>) <reason>

Exit status: 0 clean, 1 findings, 2 usage/internal error. Run from the
repository root (CI does) or pass --root. `--self-test` checks the rules
against embedded positive/negative snippets and needs no repository.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable
from pathlib import Path

# Directories scanned for contract violations (relative to the repo root).
SCAN_DIRS = ["src"]
# The platform layer implements the contract and the bench support layer
# measures the raw backend; both legitimately name std::atomic. The sim
# layer (race detector) and common/ (the MemOrder enum itself) reason
# *about* orders, so the seq-cst rule skips them too. src/sim is owned by
# the stricter schedule-fork-point rule instead of raw-atomic: same
# tokens, scheduler-specific argument, one finding per line.
RAW_ATOMIC_EXEMPT_DIRS = ["src/platform", "src/bench_support", "src/sim"]
SEQ_CST_EXEMPT_DIRS = ["src/platform", "src/bench_support", "src/sim", "src/common"]
# The reclamation layer is where deferred frees are implemented; its
# deleters are the one place a real `delete` belongs.
NAKED_RECLAIM_EXEMPT_DIRS = ["src/reclaim"]
# src/sync implements the escalation primitives themselves (Backoff, the
# lock slow paths); the platform/sim layers host the scheduler and the
# native backend's host-side loops, which the fault model does not cover.
NAKED_SPIN_EXEMPT_DIRS = ["src/sync", "src/platform", "src/sim",
                          "src/bench_support", "src/common"]
# The scheduler layer: everything here runs *underneath* the instrumented
# access hook, so concurrency primitives and instrumented words are both
# escapes (see the schedule-fork-point rule in the docstring).
FORK_POINT_DIRS = ["src/sim"]

DESIGN_DOC = "DESIGN.md"
EXEMPTION_SECTION = "### 8.2"

WAIVER_RE = re.compile(r"contract-lint:\s*allow\(([a-z-]+)\)")

RAW_ATOMIC_RE = re.compile(r"\bstd::atomic\b|#\s*include\s*<atomic>")
EXPLICIT_SEQ_CST_RE = re.compile(r"\bMemOrder::kSeqCst\b")
# Unsuffixed Shared operations default to seq_cst (DESIGN.md §8.1):
#   .load()  .store(v)  and RMWs whose argument list names no MemOrder.
DEFAULT_LOAD_RE = re.compile(r"\.load\(\s*\)")
DEFAULT_STORE_RE = re.compile(r"\.store\(")
DEFAULT_RMW_RE = re.compile(r"\.(compare_exchange|fetch_add|fetch_sub|exchange)\(")
# A contiguous container whose element type is Shared<...>; a Padded
# wrapper anywhere on the line waives it (checked separately).
UNPADDED_SHARED_RE = re.compile(
    r"(?:vector|array)<[^;]*\bShared<|\bShared<[^<>;]*>\s*\[\s*\]"
)
# A contiguous container of per-shard descriptors: vector/array element or
# C-style/unique_ptr array whose type name contains `Shard`. Padded<> on
# the line waives it (checked separately); value-snapshot types are
# allowlisted below.
UNPADDED_SHARD_RE = re.compile(
    r"(?:vector|array)<[^;]*?\b(\w*Shard\w*)\b|\b(\w*Shard\w*)(?:<[^<>;]*>)?\s*\[\s*\]?"
)
SHARD_VALUE_TYPES = {"ShardConfig", "ShardStats", "ShardPolicyKind", "kMaxShards"}
# A delete-expression (`delete p`, `delete[] p`) or a C free call. The
# negative lookbehind skips deleted-function declarations (`= delete;`,
# `= delete ;`), which end the statement rather than name an operand.
NAKED_DELETE_RE = re.compile(r"\bdelete\b\s*(?:\[\s*\]\s*)?(?=[A-Za-z_(*:])")
NAKED_FREE_RE = re.compile(r"\b(?:std\s*::\s*)?free\s*\(")
# Concurrency primitives and instrumented words that must not appear in
# the scheduler layer: real atomics/threads escape Engine::on_access (the
# explorer's fork-point source), and Shared<>/SimShared<> words would
# re-enter the hook from inside the engine. `\bShared<` deliberately does
# not match `SimShared<` (no word boundary there) — both alternations are
# listed so either spelling is caught and named in the finding.
FORK_POINT_RE = re.compile(
    r"\bstd\s*::\s*atomic\b|#\s*include\s*<(?:atomic|thread|mutex|condition_variable)>|"
    r"\bstd\s*::\s*(?:jthread|thread|mutex|recursive_mutex|condition_variable\w*)\b|"
    r"\bSimShared<|\bShared<"
)
# An unbounded loop head; the body is then searched for escalation tokens.
NAKED_SPIN_HEAD_RE = re.compile(
    r"\bfor\s*\(\s*;\s*;\s*\)|\bwhile\s*\(\s*(?:true|1)\s*\)"
)
# Anything that makes an unbounded loop visible to the fault model: backoff
# escalation (Backoff members or .spin()), the engine's parking facility
# (spin_until/wait_on), an explicit pause/relax, a liveness heartbeat, or a
# TryClock budget charge.
SPIN_ESCALATION_RE = re.compile(
    r"Backoff|backoff|spin_until|wait_on|\brelax\(|\bpause\(|\.spin\(|"
    r"heartbeat\(|tick\(|tick_backoff\("
)


def parse_exemptions(design_path: Path) -> set[str]:
    """Files allowed to use seq_cst: the §8.2 table rows `| `path` | ... |`."""
    try:
        text = design_path.read_text(encoding="utf-8")
    except OSError as e:
        sys.exit(f"contract_lint: cannot read {design_path}: {e}")
    start = text.find(EXEMPTION_SECTION)
    if start < 0:
        sys.exit(f"contract_lint: {design_path} has no '{EXEMPTION_SECTION}' section")
    next_heading = text.find("\n### ", start + 1)
    section = text[start : next_heading if next_heading > 0 else len(text)]
    return set(re.findall(r"^\|\s*`([^`]+)`\s*\|", section, flags=re.MULTILINE))


def spin_body(lines: list[str], idx: int) -> str:
    """The loop body starting at the loop head on lines[idx]: joined code
    (comments stripped) until the body's braces balance, or the single
    following statement for an unbraced loop. Bounded lookahead."""
    depth = 0
    opened = False
    out: list[str] = []
    j = idx
    while j < len(lines) and j - idx < 200:
        code = lines[j].split("//", 1)[0]
        out.append(code)
        for ch in code:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
        if opened and depth <= 0:
            break
        if not opened and j > idx and code.strip():
            break  # unbraced single-statement body
        j += 1
    return "\n".join(out)


def waived(rule: str, lines: list[str], idx: int) -> bool:
    """Trailing waiver on the line itself, or anywhere in the contiguous
    comment block immediately above it (multi-line waiver comments)."""
    if 0 <= idx < len(lines):
        m = WAIVER_RE.search(lines[idx])
        if m and m.group(1) == rule:
            return True
    look = idx - 1
    while look >= 0 and lines[look].lstrip().startswith("//"):
        m = WAIVER_RE.search(lines[look])
        if m and m.group(1) == rule:
            return True
        look -= 1
    return False


def lint_file(rel: str, lines: list[str], seq_cst_exempt_files: set[str]) -> list[str]:
    findings = []

    def finding(idx: int, rule: str, message: str) -> None:
        if not waived(rule, lines, idx):
            findings.append(f"{rel}:{idx + 1}: [{rule}] {message}")

    raw_atomic_scanned = not any(rel.startswith(d + "/") for d in RAW_ATOMIC_EXEMPT_DIRS)
    seq_cst_scanned = (
        not any(rel.startswith(d + "/") for d in SEQ_CST_EXEMPT_DIRS)
        and rel not in seq_cst_exempt_files
    )
    naked_reclaim_scanned = not any(
        rel.startswith(d + "/") for d in NAKED_RECLAIM_EXEMPT_DIRS
    )
    naked_spin_scanned = not any(
        rel.startswith(d + "/") for d in NAKED_SPIN_EXEMPT_DIRS
    )
    fork_point_scanned = any(rel.startswith(d + "/") for d in FORK_POINT_DIRS)

    for idx, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if raw_atomic_scanned and RAW_ATOMIC_RE.search(code):
            finding(idx, "raw-atomic",
                    "std::atomic outside src/platform — use Platform::Shared")
        if seq_cst_scanned:
            if EXPLICIT_SEQ_CST_RE.search(code):
                finding(idx, "seq-cst",
                        "explicit kSeqCst outside the DESIGN.md §8.2 exemption table")
            if DEFAULT_LOAD_RE.search(code) or DEFAULT_STORE_RE.search(code):
                finding(idx, "seq-cst",
                        "unsuffixed load()/store() defaults to seq_cst; "
                        "annotate or add the file to DESIGN.md §8.2")
            else:
                m = DEFAULT_RMW_RE.search(code)
                if m:
                    # The argument list may wrap; join continuation lines
                    # until the parens balance (bounded lookahead).
                    stmt, j = code, idx
                    while (stmt.count("(") > stmt.count(")") and j + 1 < len(lines)
                           and j - idx < 4):
                        j += 1
                        stmt += lines[j].split("//", 1)[0]
                    if "MemOrder" not in stmt[m.end():]:
                        finding(idx, "seq-cst",
                                f"{m.group(1)} without an explicit MemOrder defaults "
                                "to seq_cst; annotate or add the file to DESIGN.md §8.2")
        if "Padded<" not in code and UNPADDED_SHARED_RE.search(code):
            finding(idx, "unpadded-shared",
                    "contiguous Shared<> container without Padded<> "
                    "(false-sharing audit, DESIGN.md §8.4)")
        if "Padded<" not in code:
            m = UNPADDED_SHARD_RE.search(code)
            if m:
                name = m.group(1) or m.group(2)
                if name not in SHARD_VALUE_TYPES:
                    finding(idx, "unpadded-shard",
                            f"contiguous array of per-shard descriptor `{name}` "
                            "without Padded<> — neighbouring shards false-share "
                            "(DESIGN.md §14)")
        if fork_point_scanned:
            m = FORK_POINT_RE.search(code)
            if m:
                finding(idx, "schedule-fork-point",
                        f"`{m.group(0).strip()}` inside the scheduler layer — "
                        "schedulable accesses must route through "
                        "Engine::on_access so the explorer sees the fork point "
                        "(DESIGN.md §15); waive only for host-side state "
                        "provably outside the simulated machine")
        if naked_reclaim_scanned and (NAKED_DELETE_RE.search(code)
                                      or NAKED_FREE_RE.search(code)):
            finding(idx, "naked-reclaim",
                    "naked delete/free outside src/reclaim — Shared-reachable "
                    "nodes must die via reclaim::Guard::retire (DESIGN.md §11); "
                    "waive only with an argument why no concurrent reader exists")
        if naked_spin_scanned and NAKED_SPIN_HEAD_RE.search(code):
            if not SPIN_ESCALATION_RE.search(spin_body(lines, idx)):
                finding(idx, "naked-spin",
                        "unbounded loop with no backoff/park/heartbeat token — "
                        "invisible to the fault watchdog (DESIGN.md §12); route "
                        "it through Backoff/TryClock or waive with a lock-free "
                        "progress argument")
    return findings


def stale_exemptions(exempt: set[str], exists: Callable[[str], bool]) -> list[str]:
    """Exemption rows whose file is gone: each needs deleting from §8.2."""
    return [f"{DESIGN_DOC}: [stale-exemption] §8.2 row names `{rel}`, which does "
            "not exist; delete the row" for rel in sorted(exempt) if not exists(rel)]


def run(root: Path) -> int:
    exempt = parse_exemptions(root / DESIGN_DOC)
    findings = stale_exemptions(exempt, lambda rel: (root / rel).is_file())
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            sys.exit(f"contract_lint: {base} is not a directory (wrong --root?)")
        for path in sorted(base.rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            rel = path.relative_to(root).as_posix()
            lines = path.read_text(encoding="utf-8").splitlines()
            findings.extend(lint_file(rel, lines, exempt))
    for f in findings:
        print(f)
    if findings:
        print(f"contract_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("contract_lint: clean")
    return 0


# ---- Self-test -------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule or None, file path, snippet)
    ("raw-atomic", "src/pq/x.hpp", "std::atomic<int> a;"),
    ("raw-atomic", "src/pq/x.hpp", "#include <atomic>"),
    (None, "src/platform/native.hpp", "std::atomic<int> a;"),
    (None, "src/pq/x.hpp",
     "std::atomic<int> a; // contract-lint: allow(raw-atomic) measurement shim"),
    ("seq-cst", "src/pq/x.hpp", "w.load();"),
    ("seq-cst", "src/pq/x.hpp", "w.store(1);"),
    ("seq-cst", "src/pq/x.hpp", "w.compare_exchange(a, b);"),
    ("seq-cst", "src/pq/x.hpp", "w.fetch_add(1);"),
    ("seq-cst", "src/pq/x.hpp", "MemOrder o = MemOrder::kSeqCst;"),
    (None, "src/pq/x.hpp", "w.load_acquire();"),
    (None, "src/pq/x.hpp", "w.store_relaxed(1);"),
    (None, "src/pq/x.hpp", "w.fetch_add(1, MemOrder::kAcqRel);"),
    (None, "src/pq/x.hpp",
     "w.compare_exchange(a, b, MemOrder::kAcqRel, MemOrder::kRelaxed);"),
    (None, "src/pq/exempt.hpp", "w.load();"),  # via exemption table below
    (None, "src/sim/race_detector.hpp", "MemOrder o = MemOrder::kSeqCst;"),
    ("unpadded-shared", "src/pq/x.hpp",
     "std::vector<typename P::template Shared<u64>> v_;"),
    ("unpadded-shared", "src/pq/x.hpp",
     "std::array<typename P::template Shared<Link*>, kMax> next;"),
    (None, "src/pq/x.hpp",
     "std::vector<Padded<typename P::template Shared<u64>>> v_;"),
    (None, "src/pq/x.hpp",
     "std::unique_ptr<Padded<typename P::template Shared<u64>>[]> slots_;"),
    (None, "src/pq/x.hpp",
     "// waived below\n"
     "std::vector<typename P::template Shared<u64>> v_; "
     "// contract-lint: allow(unpadded-shared) lock-serialized"),
    # Per-shard descriptor arrays must be Padded (DESIGN.md §14).
    ("unpadded-shard", "src/pq/x.hpp", "std::vector<Shard> shards_;"),
    ("unpadded-shard", "src/pq/x.hpp",
     "std::array<ShardMonitor<P>, kMax> monitors_;"),
    ("unpadded-shard", "src/pq/x.hpp", "std::unique_ptr<Shard[]> shards_;"),
    (None, "src/pq/x.hpp", "std::vector<Padded<Shard>> shards_;"),
    (None, "src/pq/x.hpp", "std::unique_ptr<Padded<Shard>[]> shards_;"),
    (None, "src/pq/x.hpp", "std::vector<ShardStats> stats() const;"),
    (None, "src/pq/x.hpp", "ShardConfig shard = {};"),
    (None, "src/pq/x.hpp", "std::array<u32, kMaxShards> widths_;"),
    (None, "src/pq/x.hpp",
     "std::vector<Shard> shards_; "
     "// contract-lint: allow(unpadded-shard) single-threaded test fixture"),
    ("naked-reclaim", "src/pq/x.hpp", "delete cur;"),
    ("naked-reclaim", "src/pq/x.hpp", "delete[] slots;"),
    ("naked-reclaim", "src/pq/x.hpp", "delete static_cast<Node*>(p);"),
    ("naked-reclaim", "src/pq/x.hpp", "free(node);"),
    ("naked-reclaim", "src/pq/x.hpp", "std::free(node);"),
    (None, "src/pq/x.hpp", "Pq(const Pq&) = delete;"),
    (None, "src/pq/x.hpp", "Pq& operator=(const Pq&) = delete;"),
    (None, "src/reclaim/hazard.hpp", "delete static_cast<Node*>(p);"),
    (None, "src/pq/x.hpp",
     "delete cur; // contract-lint: allow(naked-reclaim) quiescent owner teardown"),
    (None, "src/pq/x.hpp", "// delete-min scans the prefix"),
    (None, "src/pq/x.hpp", "g.retire(u); // deferred free"),
    # The scheduler layer must not host concurrency primitives or
    # instrumented words (schedule-fork-point, DESIGN.md §15).
    ("schedule-fork-point", "src/sim/engine.cpp", "std::atomic<u64> ticket_;"),
    ("schedule-fork-point", "src/sim/explore.cpp", "#include <atomic>"),
    ("schedule-fork-point", "src/sim/fiber.cpp", "std::mutex switch_mu_;"),
    ("schedule-fork-point", "src/sim/engine.hpp", "SimShared<u64> epoch_;"),
    ("schedule-fork-point", "src/sim/engine.hpp",
     "typename P::template Shared<u64> mode_;"),
    (None, "src/sim/engine.hpp", "// whose Shared<T> words report each access"),
    (None, "src/platform/sim.hpp", "std::atomic<int> a;"),
    (None, "src/pq/x.hpp", "SimShared<u64> w; // test fixture, not src/sim"),
    (None, "src/sim/engine.cpp",
     "std::atomic<u64> wall_; "
     "// contract-lint: allow(schedule-fork-point) host-side wall clock, "
     "never read by a fiber"),
    ("naked-spin", "src/pq/x.hpp",
     "for (;;) {\n  if (w.load_acquire() == 0) break;\n}"),
    ("naked-spin", "src/funnel/x.hpp",
     "while (true) {\n  v = w.load_acquire();\n}"),
    ("naked-spin", "src/container/x.hpp",
     "while (1)\n  v = w.load_acquire();"),
    (None, "src/pq/x.hpp",
     "for (;;) {\n  if (lock_.try_acquire()) break;\n"
     "  if (!clock.tick_backoff()) return;\n}"),
    (None, "src/pq/x.hpp", "Backoff<P> b;\nfor (;;) {\n  b.spin();\n}"),
    (None, "src/pq/x.hpp", "for (;;) {\n  P::relax();\n}"),
    (None, "src/sync/x.hpp", "for (;;) {\n  v = w.load_acquire();\n}"),
    (None, "src/pq/x.hpp",
     "// contract-lint: allow(naked-spin) lock-free retry: a CAS failure\n"
     "for (;;) {\n  step();\n}"),
    (None, "src/pq/x.hpp", "for (u32 i = 0; i < n; ++i) w.load_acquire();"),
    (None, "src/verify/x.cpp",
     "for (;;) {\n  SimPlatform::heartbeat();\n  if (!pq->delete_min()) break;\n}"),
    # Aggregation-protocol idioms (src/funnel/aggregate.hpp, DESIGN.md §13).
    # The join/close loops are condition-bounded (`while (h != kAggClosed)`
    # is not an unbounded head) and every head-word access carries an
    # explicit order — these shapes must stay clean, and their unsuffixed
    # or backoff-free variants must stay flagged.
    (None, "src/funnel/aggregate.hpp",
     "while (h != kAggClosed) {\n"
     "  self->agg.next.store_relaxed(h);\n"
     "  if (head.compare_exchange(h, reinterpret_cast<u64>(self),\n"
     "                            MemOrder::kAcqRel, MemOrder::kRelaxed))\n"
     "    return true;\n}"),
    (None, "src/funnel/aggregate.hpp",
     "u64 p = head.exchange(kAggClosed, MemOrder::kAcqRel);"),
    ("seq-cst", "src/funnel/aggregate.hpp",
     "u64 p = head.exchange(kAggClosed);"),
    (None, "src/funnel/core.hpp",
     "for (u32 i = 0; i < params_.agg_wait; ++i) P::relax();"),
    (None, "src/funnel/core.hpp",
     "Backoff<P> central_backoff(16, 2048);\n"
     "for (;;) {\n"
     "  i64 val = central_.load_relaxed();\n"
     "  if (central_.compare_exchange(val, nv, MemOrder::kAcqRel,\n"
     "                                MemOrder::kRelaxed))\n"
     "    break;\n"
     "  central_backoff.spin();\n}"),
    ("naked-spin", "src/funnel/core.hpp",
     "for (;;) {\n"
     "  i64 val = central_.load_relaxed();\n"
     "  if (central_.compare_exchange(val, nv, MemOrder::kAcqRel,\n"
     "                                MemOrder::kRelaxed))\n"
     "    break;\n}"),
]


def self_test() -> int:
    exempt = {"src/pq/exempt.hpp"}
    failures = 0
    for want_rule, rel, snippet in SELF_TEST_CASES:
        findings = lint_file(rel, snippet.splitlines(), exempt)
        got = findings[0].split("[")[1].split("]")[0] if findings else None
        if got != want_rule:
            print(f"self-test FAILED: {rel} {snippet!r}: want {want_rule}, got "
                  f"{findings or 'clean'}", file=sys.stderr)
            failures += 1
    # A §8.2 row whose file is gone is flagged; a row whose file exists is not.
    stale = stale_exemptions({"src/pq/exempt.hpp", "src/pq/gone.hpp"},
                             lambda rel: rel == "src/pq/exempt.hpp")
    if len(stale) != 1 or "`src/pq/gone.hpp`" not in stale[0]:
        print(f"self-test FAILED: stale-exemption: want one finding naming "
              f"src/pq/gone.hpp, got {stale or 'clean'}", file=sys.stderr)
        failures += 1
    if failures:
        return 1
    print(f"contract_lint: self-test passed ({len(SELF_TEST_CASES) + 1} cases)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="repository root (default: cwd)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded rule tests and exit")
    args = ap.parse_args()
    return self_test() if args.self_test else run(args.root)


if __name__ == "__main__":
    sys.exit(main())
