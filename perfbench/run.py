"""End-to-end benchmark of the ``repro`` command line, with per-layer time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fluid_matrix_cold --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload

Each workload is one user command (``repro run`` or ``repro matrix``) run
to completion in a fresh interpreter, repeated until ``--seconds`` have
passed (and at least ``MIN_REPS`` times).  With ``--trace 0`` it reports
end-to-end metrics as medians over the repetitions; with ``--trace 1`` it
runs the command three times (untraced, with boundary timers, and under
``cProfile``) and reports per-layer metrics.  Every command's simulated
output is checked against ``perfbench/digests.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
SEEN = WORK / "digests-seen.jsonl"

#: Repetitions per untraced run even when ``--seconds`` is shorter.
MIN_REPS = 3
#: Every child is killed this many seconds after its workload starts, so a
#: hung command fails the run instead of hanging it.
RUN_DEADLINE_S = 170.0
#: Pool size of the matrix workloads (the benchmark machine has 2 cores).
WORKERS = 2

# fig13 is shortened from 500 ms to 50 ms of simulated time (five flows
# staggered 5 ms apart instead of 50 ms) so that one run holds several
# repetitions; convergence takes tens of microseconds, so every plateau of
# the figure is still there.
FIG13_STAGGER_PS = 5_000_000_000
FIG13_SAMPLE_PS = 1_000_000_000
FIG13_SIM_MS = 2 * 5 * FIG13_STAGGER_PS / 1e9
FATTREE_SEEDS = 1        # 4 cells per seed: {expresspass, dctcp} x 2 scales
FLUID_SEEDS = 64         # 16 cells per seed: 4 transports x 4 flow counts


def _seeds(base: int, count: int) -> str:
    return ",".join(str(base + i) for i in range(count))


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI arguments for a seed and a pool size (1 = serial).
    argv: Callable[[int, int], List[str]]
    #: Cells in the matrix (0 for ``repro run``).
    cells: int = 0
    #: Simulated milliseconds (``repro run`` only).
    sim_ms: float = 0.0
    #: Run against a copy of a cache the cold command filled.
    warm: bool = False


def _fig13(seed: int, _parallel: int) -> List[str]:
    return ["run", "fig13", "--json", "--seed", str(seed),
            "--set", f"stagger_ps={FIG13_STAGGER_PS}",
            "--set", f"sample_ps={FIG13_SAMPLE_PS}"]


def _fattree(seed: int, parallel: int) -> List[str]:
    return ["matrix", str(BENCH / "specs" / "fattree_mini.yaml"),
            "--seeds", _seeds(seed, FATTREE_SEEDS),
            "--parallel", str(parallel), "--audit", "--no-cache", "--json"]


def _fluid(seed: int, parallel: int) -> List[str]:
    return ["matrix", str(BENCH / "specs" / "sweep_headline.yaml"),
            "--backend", "fluid", "--seeds", _seeds(seed, FLUID_SEEDS),
            "--parallel", str(parallel), "--json"]


# Why each workload is here (README.md has the full table):
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # One serial packet-level ExpressPass simulation: engine, ports, queues,
    # credit pacing.  Never touches the pool, cache or scenario compiler.
    Workload("fig13_convergence", _fig13, sim_ms=FIG13_SIM_MS),
    # Audited packet-level cells on a 2-worker pool: multi-hop forwarding,
    # a window transport, per-cell topology builds, the audit plane.
    Workload("fattree_matrix_audit", _fattree, cells=4 * FATTREE_SEEDS),
    # Cheap fluid cells into an empty cache: compile, pool dispatch and
    # pickling, and cache writes carry the time.  No packet path.
    Workload("fluid_matrix_cold", _fluid, cells=16 * FLUID_SEEDS),
    # The cold command against a filled cache: reads, import, compile and
    # report with no simulation.  Catches a write-path gain that costs reads.
    # Not gated by BENCHMARK.json: its spread is too wide (README.md).
    Workload("fluid_matrix_warm", _fluid, cells=16 * FLUID_SEEDS, warm=True),
)}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "cli.import_s": "s",
    "scenarios.compile_s": "s",
    "scenarios.report_s": "s",
    "runtime.cache.get_s": "s",
    "runtime.cache.get_calls": "count",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.cache.put_s": "s",
    "runtime.cache.put_calls": "count",
    "runtime.cache.disk_bytes": "bytes",
    "runtime.cell_service_s": "s",
    "runtime.dispatch_s": "s",
    "runtime.pool_efficiency": "ratio",
    "runtime.tasks_retried": "count",
    "runtime.tasks_failed": "count",
    "topology.build_s": "s",
    "topology.builds": "count",
    "sim.engine.events": "count",
    "sim.engine.run_s": "s",
    "sim.engine.ns_per_event": "ns",
    "net.port.tx_done_events": "count",
    "net.port.wake_events": "count",
    "net.switch.receive_events": "count",
    "net.host.receive_events": "count",
    "core.pace_credit_events": "count",
    "sim.fluid.run_s": "s",
    "sim.fluid.cells": "count",
    "trace_overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
}
#: Layers whose exclusive (self) time the cProfile pass reports.
SELF_LAYERS = ("cli", "scenarios", "runtime", "topology", "sim.engine",
               "sim.fluid", "net.port", "net.queues", "net.switch",
               "net.host", "net.packet", "net.link", "core", "transport",
               "net.other", "sim.other", "workloads", "obs", "audit",
               "experiments", "resilience", "tracer", "other")
PER_LAYER.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})


# -- running one command -------------------------------------------------------

@dataclass
class Invocation:
    """One finished child process running the user command."""

    tag: str
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    status: Optional[int] = None
    timed_out: bool = False
    digest: Optional[str] = None
    #: The output's ``meta`` (the full output is not kept).
    meta: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    cache_dir: Optional[Path] = None
    error: Optional[str] = None


def _child_env(cache_dir: Path, marks: Path) -> dict:
    # Ambient REPRO_* knobs (trace, audit, profile, parallel, shards, ...)
    # would change what the command does; only the cache dir is set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_MARKS"] = str(marks)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _strip_volatile(doc):
    """Drop host-time fields (``wall_s``, ``cached``) from a report."""
    if isinstance(doc, dict):
        return {k: _strip_volatile(v) for k, v in doc.items()
                if k not in ("wall_s", "cached")}
    if isinstance(doc, list):
        return [_strip_volatile(v) for v in doc]
    return doc


def output_digest(doc) -> str:
    """SHA-256 of a command's JSON output without its volatile fields."""
    canon = json.dumps(_strip_volatile(doc), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def invoke(argv: List[str], mode: str, run_dir: Path, tag: str,
           deadline: float, seed_cache: Optional[Path] = None) -> Invocation:
    """Run ``repro <argv>`` in a fresh interpreter under ``hook.py``.

    The cache directory starts empty, or as a fresh copy of ``seed_cache``
    whose time counts as set-up.  The copy hard-links the entries: the cache
    never writes a file in place (it writes a temporary file and renames
    it), so no command can change another's entries.
    """
    inv = Invocation(tag=tag)
    cache_dir = inv.cache_dir = run_dir / f"{tag}.cache"
    marks = run_dir / f"{tag}.marks"
    record = run_dir / f"{tag}.json"
    copy_s = 0.0
    if seed_cache is not None:
        t0 = time.monotonic()
        shutil.copytree(seed_cache, cache_dir, copy_function=os.link)
        copy_s = time.monotonic() - t0
    else:
        cache_dir.mkdir()
    # Flush what earlier commands wrote, so its writeback is not timed here.
    os.sync()
    cmd = [sys.executable, str(BENCH / "hook.py"), mode, str(record), "--",
           *argv]
    with open(run_dir / f"{tag}.out", "wb") as out, \
            open(run_dir / f"{tag}.err", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err,
                                env=_child_env(cache_dir, marks),
                                start_new_session=True)
        timed_out = threading.Event()

        def expire():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(max(1.0, deadline - t_spawn), expire)
        timer.start()
        try:
            # A blocking wait: Popen.wait(timeout) polls, which would add
            # up to 50 ms to a measured wall time.
            _pid, wstatus = os.waitpid(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = inv.status = os.waitstatus_to_exitcode(wstatus)
    _kill_group(proc.pid)   # no pool worker outlives its command
    inv.timed_out = timed_out.is_set()
    inv.wall_s = t_exit - t_spawn
    if record.exists():
        inv.record = json.loads(record.read_text())
        inv.peak_rss_mb = inv.record["peak_rss_kib"] / 1024
    if marks.exists():
        stamps = [float(line.split()[1])
                  for line in marks.read_text().splitlines() if line.strip()]
        if stamps:
            inv.setup_s = copy_s + min(stamps) - t_spawn
    if inv.timed_out:
        inv.error = "timed out"
    elif inv.status != 0:
        tail = (run_dir / f"{tag}.err").read_text(errors="replace")[-400:]
        inv.error = f"exit status {inv.status}: {tail.strip()}"
    else:
        try:
            doc = json.loads((run_dir / f"{tag}.out").read_text())
        except ValueError as exc:
            inv.error = f"stdout is not the command's JSON: {exc}"
        else:
            inv.digest = output_digest(doc)
            inv.meta = doc.get("meta", {})
        if mode == "mark" and inv.error is None and not inv.setup_s:
            inv.error = "no call into a simulation or cache entry point"
    return inv


# -- checking outputs ------------------------------------------------------------

class Checker:
    """Compares every output digest with the committed one for the seed.

    Seeds without a committed digest are checked for agreement between the
    run's own commands and recorded in ``.work/digests-seen.jsonl``.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        committed = json.loads(DIGESTS.read_text())
        self.expected = committed.get(workload.name, {}).get(str(seed))
        self.committed = self.expected is not None
        self.failures: List[str] = []
        self.attempted = 0

    def check(self, inv: Invocation, warm: bool = False) -> bool:
        """Count ``inv``; ``warm`` commands must be served from the cache."""
        self.attempted += 1
        problem = inv.error
        if problem is None and self.expected is None:
            self.expected = inv.digest
        if problem is None and inv.digest != self.expected:
            what = "committed" if self.committed else "first command's"
            problem = (f"output digest {inv.digest[:12]} differs from the "
                       f"{what} {self.expected[:12]}")
        if problem is None and warm:
            if inv.meta.get("cached") != inv.meta.get("cells"):
                problem = (f"warm run served {inv.meta.get('cached')} of "
                           f"{inv.meta.get('cells')} cells from the cache")
        if problem is not None:
            self.failures.append(f"{inv.tag}: {problem}")
            return False
        return True

    def record_seen(self) -> None:
        if self.committed or self.expected is None or self.failures:
            return
        WORK.mkdir(exist_ok=True)
        with open(SEEN, "a") as fh:
            fh.write(json.dumps({"workload": self.workload.name,
                                 "seed": self.seed,
                                 "digest": self.expected}) + "\n")


def _fill_cache(workload: Workload, seed: int, run_dir: Path,
                checker: Checker, deadline: float) -> Optional[Path]:
    """Run the cold command once; its cache seeds every warm command."""
    inv = invoke(workload.argv(seed, WORKERS), "mark", run_dir, "fill",
                 deadline)
    return inv.cache_dir if checker.check(inv) else None


# -- the two kinds of run --------------------------------------------------------

def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_untraced(workload: Workload, seed: int, seconds: float,
                 run_dir: Path, checker: Checker, deadline: float) -> dict:
    seed_cache = None
    if workload.warm:
        seed_cache = _fill_cache(workload, seed, run_dir, checker, deadline)
        if seed_cache is None:
            return {}
    invs: List[Invocation] = []
    t_start = time.monotonic()
    while (len(invs) < MIN_REPS or time.monotonic() - t_start < seconds) \
            and time.monotonic() < deadline:
        inv = invoke(workload.argv(seed, WORKERS), "mark", run_dir,
                     f"rep{len(invs)}", deadline, seed_cache)
        checker.check(inv, warm=workload.warm)
        invs.append(inv)
    done = [inv for inv in invs if inv.error is None]
    walls = [inv.wall_s for inv in done]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median([inv.setup_s for inv in done]),
        "peak_rss_mb": _median([inv.peak_rss_mb for inv in done]),
    }
    extra = {"reps": len(done), "wall_min_s": min(walls, default=0.0),
             "wall_max_s": max(walls, default=0.0)}
    if workload.cells:
        extra["cells_per_s"] = _median([workload.cells / w for w in walls])
    if workload.sim_ms:
        extra["sim_ms_per_s"] = _median([workload.sim_ms / w for w in walls])
    return {"metrics": metrics, "extra": extra}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_traced(workload: Workload, seed: int, run_dir: Path,
               checker: Checker, deadline: float) -> dict:
    """Untraced, boundary-timed and profiled commands, in that order.

    The timed and profiled commands are serial (``--parallel 1``) so every
    cell runs in the process being measured.
    """
    seed_cache = None
    if workload.warm:
        seed_cache = _fill_cache(workload, seed, run_dir, checker, deadline)
        if seed_cache is None:
            return {}
    plain = invoke(workload.argv(seed, WORKERS), "mark", run_dir, "untraced",
                   deadline, seed_cache)
    spans = invoke(workload.argv(seed, 1), "spans", run_dir, "spans",
                   deadline, seed_cache)
    prof = invoke(workload.argv(seed, 1), "profile", run_dir, "profile",
                  deadline, seed_cache)
    if not all([checker.check(inv, warm=workload.warm)
                for inv in (plain, spans, prof)]):
        return {}

    sec = spans.record.get("seconds", {})
    calls = spans.record.get("calls", {})
    events = prof.record.get("events", {})
    self_s = prof.record.get("self_s", {})
    cell_s = sec.get("cell", 0.0)
    get_calls = calls.get("cache.get", 0)
    n_events = events.get("sim.engine.events", 0)
    pool_wall = plain.record.get("run_tasks_s", 0.0)
    m = {
        "cli.import_s": spans.record.get("cli_import_s", 0.0),
        "scenarios.compile_s": sec.get("scenarios.compile", 0.0),
        "scenarios.report_s": sec.get("scenarios.report", 0.0),
        "runtime.cache.get_s": sec.get("cache.get", 0.0),
        "runtime.cache.get_calls": get_calls,
        "runtime.cache.hit_ratio":
            calls.get("cache.hit", 0) / get_calls if get_calls else 0.0,
        "runtime.cache.put_s": sec.get("cache.put", 0.0),
        "runtime.cache.put_calls": calls.get("cache.put", 0),
        "runtime.cache.disk_bytes": _dir_bytes(spans.cache_dir),
        "runtime.cell_service_s": cell_s,
        "runtime.dispatch_s": max(0.0, sec.get("runtime.run_tasks", 0.0)
                                  - cell_s - sec.get("cache.get", 0.0)
                                  - sec.get("cache.put", 0.0)),
        "runtime.pool_efficiency":
            cell_s / (WORKERS * pool_wall) if pool_wall and cell_s else 0.0,
        "runtime.tasks_retried": plain.record.get("tasks_retried", 0),
        "runtime.tasks_failed": plain.record.get("tasks_failed", 0),
        "topology.build_s": sec.get("topology", 0.0),
        "topology.builds": calls.get("topology", 0),
        "sim.engine.run_s": sec.get("sim.engine.run", 0.0),
        "sim.engine.ns_per_event":
            sec.get("sim.engine.run", 0.0) / n_events * 1e9
            if n_events else 0.0,
        "sim.fluid.run_s": sec.get("sim.fluid", 0.0),
        "sim.fluid.cells": calls.get("sim.fluid", 0),
        "trace_overhead_ratio": prof.wall_s / spans.wall_s,
    }
    for name in PER_LAYER:
        if name in events:
            m[name] = events[name]
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    profiled_s = prof.record.get("wall_s", 0.0)
    m["trace.attributed_ratio"] = (
        (sum(self_s.values()) - self_s.get("other", 0.0)) / profiled_s
        if profiled_s else 0.0)
    if workload.warm and m["runtime.cache.hit_ratio"] != 1.0:
        checker.failures.append(
            f"traced warm run hit ratio {m['runtime.cache.hit_ratio']:.4f}, "
            f"not 1.0: it recomputed cells")
    return {"metrics": m, "extra": {"reps": 1}}


# -- reporting ------------------------------------------------------------------

def bench_one(workload: Workload, seed: int, seconds: float, trace: bool,
              deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    checker = Checker(workload, seed)
    try:
        if trace:
            out = run_traced(workload, seed, run_dir, checker, deadline)
        else:
            out = run_untraced(workload, seed, seconds, run_dir, checker,
                               deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checker.record_seen()
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in units.items()} if out else {}
    failed = len(checker.failures)
    summary = {"correct": failed == 0 and bool(out),
               "attempted": max(1, checker.attempted), "failed": failed,
               "metrics": metrics}
    _print_human(workload, seed, checker, summary, out.get("extra", {}))
    return summary


def _print_human(workload: Workload, seed: int, checker: Checker,
                 summary: dict, extra: dict) -> None:
    state = ("matches the committed digest" if checker.committed
             else "recorded (no committed digest for this seed)")
    digest = (checker.expected or "none")[:16]
    print(f"{workload.name} seed={seed} commands={summary['attempted']} "
          f"output={digest} {state}")
    for problem in checker.failures:
        print(f"  FAILED {problem}")
    rows = [(name, m["value"], m["unit"])
            for name, m in summary["metrics"].items()]
    if "cells_per_s" in extra:
        rows.append(("cells_per_s", extra["cells_per_s"], "cells/s"))
    if "sim_ms_per_s" in extra:
        rows.append(("sim_ms_per_s", extra["sim_ms_per_s"], "ms/s"))
    rows.append(("failed_ratio",
                 summary["failed"] / summary["attempted"], "share"))
    reps = extra.get("reps", 0)
    for name, value, unit in rows:
        note = ""
        if name == "wall_s" and reps:
            note = (f"  (median of {reps}; min {extra['wall_min_s']:.4f},"
                    f" max {extra['wall_max_s']:.4f})")
        print(f"  {name:<28s} {value:>14.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    t0 = time.monotonic()
    # Bytecode is compiled once up front: users pay that at install time,
    # not on every command.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        results[name] = bench_one(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), deadline)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(f"perfbench: finished in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
