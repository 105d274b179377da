"""Run one ``repro`` CLI command in this process, timing it from outside.

Usage::

    python3 perfbench/hook.py MODE OUT.json -- <repro CLI arguments>

The command runs exactly as ``python -m repro <arguments>`` would: its
stdout and exit status are the CLI's.  Before it starts, this file wraps
public functions of the layers with timers; nothing under ``src/`` is
edited.  What the timers saw is written to ``OUT.json`` when the command
returns.  ``MODE`` picks how much is recorded:

``mark``
    Untraced.  Each process (the CLI's and each forked pool worker) appends
    the ``time.monotonic()`` of its first call into a simulation or cache
    entry point to the file named by ``PERFBENCH_MARKS``, then puts the
    original functions back.  ``run_tasks`` is timed once per call.
``spans``
    Boundary timers around each layer's public functions (see
    ``_install_spans``).  Meant for a serial (``--parallel 1``) command, so
    every cell runs in this process.
``profile``
    ``cProfile`` over the whole process plus ``repro.perf.profile
    .profiled()`` for exact per-callback event counts.  Self time of every
    function is charged to a layer: functions outside ``repro`` (C builtins,
    the standard library) are charged to the layer of the ``repro`` code
    that called them.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict


def _peak_rss_kib() -> int:
    """Largest resident set of this process or any child it reaped, in KiB.

    ``VmHWM`` counts only this process image, not the one it replaced at
    exec, whose peak ``getrusage(RUSAGE_SELF)`` would inherit from the
    benchmark.  Forked pool workers start their own count.
    """
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _finish(path: str, record: dict, pid: int) -> None:
    """Write the record at exit, after the pool's workers were joined."""
    if os.getpid() != pid:
        return   # a forked worker inherited the hook
    record["peak_rss_kib"] = _peak_rss_kib()
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True)


# -- mark mode ----------------------------------------------------------------

def _install_marks(record: dict) -> None:
    """First-entry markers plus a ``run_tasks`` timer.

    The marker wrappers restore the originals in the process that fires
    them, so a cell's hot path runs unwrapped.  Workers forked before the
    parent fired inherit armed wrappers and mark their own first entry.
    """
    from repro.runtime import scheduler
    from repro.runtime.cache import ResultCache
    from repro.runtime.task import TaskSpec
    from repro.sim.engine import Simulator

    marks_path = os.environ["PERFBENCH_MARKS"]
    targets = [(Simulator, "run"), (ResultCache, "get"), (ResultCache, "put"),
               (TaskSpec, "call")]
    originals = [(cls, name, cls.__dict__[name]) for cls, name in targets]

    def fire() -> None:
        stamp = time.monotonic()
        for cls, name, fn in originals:
            setattr(cls, name, fn)
        fd = os.open(marks_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {stamp!r}\n".encode())
        finally:
            os.close(fd)

    for cls, name, fn in originals:
        def marker(*args, _fn=fn, **kwargs):
            fire()
            return _fn(*args, **kwargs)
        setattr(cls, name, functools.wraps(fn)(marker))

    _time_run_tasks(scheduler, record)


def _time_run_tasks(scheduler, record: dict) -> None:
    """Wrap ``run_tasks`` where the matrix layer looks it up."""
    import repro.runtime
    original = scheduler.run_tasks
    record.update(run_tasks_s=0.0, tasks_retried=0, tasks_failed=0)

    @functools.wraps(original)
    def run_tasks(*args, **kwargs):
        t0 = time.perf_counter()
        results = original(*args, **kwargs)
        record["run_tasks_s"] += time.perf_counter() - t0
        for res in results:
            if not res.cached:
                record["tasks_retried"] += max(0, res.attempts - 1)
            if res.error is not None:
                record["tasks_failed"] += 1
        return results

    scheduler.run_tasks = run_tasks
    repro.runtime.run_tasks = run_tasks


# -- spans mode ---------------------------------------------------------------

class _Timers:
    """Per-layer accumulated seconds and call counts.

    A layer that re-enters itself (a builder calling another builder) is
    timed only at its outermost call, so nothing is counted twice.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._depth = defaultdict(int)

    def wrap(self, layer: str, fn, on_result=None):
        timers = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if timers._depth[layer]:
                return fn(*args, **kwargs)
            timers._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                timers.seconds[layer] += time.perf_counter() - t0
                timers.calls[layer] += 1
                timers._depth[layer] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        return timed


_TOPOLOGY_BUILDERS = ("dumbbell", "single_switch", "parking_lot",
                      "multi_bottleneck", "fat_tree", "oversubscribed_clos")


def _install_spans(timers: _Timers, matrix: bool) -> None:
    """Boundary timers on each layer's public functions.

    Must run after ``import repro.cli`` and before the experiment or the
    scenario package is imported: those modules bind topology builders by
    name at import time, so the builders are replaced first.
    """
    import repro.topology
    from repro.topology import fattree, simple
    for name in _TOPOLOGY_BUILDERS:
        timed = timers.wrap("topology", getattr(repro.topology, name))
        for module in (repro.topology, simple, fattree):
            if hasattr(module, name):
                setattr(module, name, timed)

    from repro.runtime.cache import ResultCache
    from repro.runtime.task import TaskSpec
    from repro.sim.engine import Simulator

    Simulator.run = timers.wrap("sim.engine.run", Simulator.run)

    def count_hit(_args, result):
        if result[0]:
            timers.calls["cache.hit"] += 1

    ResultCache.get = timers.wrap("cache.get", ResultCache.get, count_hit)
    ResultCache.put = timers.wrap("cache.put", ResultCache.put)

    call = TaskSpec.call

    def cell_call(spec):
        # Cell service time: the cell runner alone, with no queue wait.
        layers = ["cell"]
        if spec.fn.__module__.startswith("repro.sim.fluid"):
            layers.append("sim.fluid")
        t0 = time.perf_counter()
        try:
            return call(spec)
        finally:
            dt = time.perf_counter() - t0
            for layer in layers:
                timers.seconds[layer] += dt
                timers.calls[layer] += 1

    TaskSpec.call = functools.wraps(call)(cell_call)

    if matrix:
        import repro.scenarios
        from repro.scenarios import matrix as sc_matrix
        from repro.runtime import scheduler
        repro.scenarios.load = timers.wrap("scenarios.compile",
                                           repro.scenarios.load)
        sc_matrix.compile_scenario = timers.wrap(
            "scenarios.compile", sc_matrix.compile_scenario)
        sc_matrix.cell_rows = timers.wrap("scenarios.report",
                                          sc_matrix.cell_rows)
        sc_matrix.build_report = timers.wrap("scenarios.report",
                                             sc_matrix.build_report)
        sc_matrix.run_tasks = timers.wrap("runtime.run_tasks",
                                          scheduler.run_tasks)


# -- profile mode -------------------------------------------------------------

_SRC_MARK = os.sep + os.path.join("repro", "")


def _layer_of_file(filename: str):
    """Layer bucket of a source file, or ``None`` outside ``repro``."""
    idx = filename.rfind(_SRC_MARK)
    if idx < 0 or not filename.endswith(".py"):
        return None
    parts = filename[idx + len(_SRC_MARK):-3].split(os.sep)
    top = parts[0]
    if top == "net":
        name = parts[1] if len(parts) > 1 else ""
        if name in ("port", "queues", "switch", "host", "packet", "link"):
            return f"net.{name}"
        return "net.other"
    if top == "sim":
        sub = parts[1] if len(parts) > 1 else ""
        if sub in ("engine", "calendar"):
            return "sim.engine"
        if sub == "fluid":
            return "sim.fluid"
        return "sim.other"
    if top in ("metrics", "obs"):
        return "obs"
    if top == "perf":
        return "tracer"   # the event-counting hook itself
    if top in ("cli", "__main__"):
        return "cli"
    if top in ("core", "transport", "workloads", "audit", "runtime",
               "scenarios", "topology", "experiments", "resilience"):
        return top
    return "other"


def _self_time_by_layer(stats: dict) -> dict:
    """Charge every profiled function's self time to a layer.

    ``stats`` is ``pstats.Stats.stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (nc, cc, tt, ct)`` splitting the
    self time by caller.  A function outside ``repro`` is charged through
    its callers, recursively, until ``repro`` code is reached.  Call edges
    that close a cycle (the import machinery recurses) are skipped; time
    whose every call chain leaves ``repro`` code out is charged to
    ``other``.
    """
    memo: dict = {}

    def owners(func, seen: frozenset) -> dict:
        """``layer -> share`` (shares sum to 1) of time spent in ``func``."""
        layer = _layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = {c: v for c, v in
                   (stats[func][4] if func in stats else {}).items()
                   if c not in seen}
        weights = {c: v[2] for c, v in callers.items()}
        if not sum(weights.values()):
            weights = {c: v[0] for c, v in callers.items()}
        share: dict = defaultdict(float)
        for caller, weight in weights.items():
            for lay, w in owners(caller, seen | {func}).items():
                share[lay] += w * weight
        total = sum(share.values())
        memo[func] = {lay: w / total for lay, w in share.items()} \
            if total else {}
        return memo[func]

    out: dict = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt:
            for lay, w in (owners(func, frozenset()) or {"other": 1.0}).items():
                out[lay] += tt * w
    return dict(out)


_EVENT_KINDS = {
    "net.port.tx_done_events": ("repro.net.port", "._tx_done"),
    "net.port.wake_events": ("repro.net.port", "._wake"),
    "net.switch.receive_events": ("repro.net.switch", ".receive"),
    "net.host.receive_events": ("repro.net.host", ".receive"),
    "core.pace_credit_events": ("repro.core", "._pace_credit"),
}


def _event_counts(report) -> dict:
    out = {name: 0 for name in _EVENT_KINDS}
    out["sim.engine.events"] = report.events
    for (module, qual), (n, _s, _m) in report.counts.items():
        for name, (mod_prefix, suffix) in _EVENT_KINDS.items():
            if module.startswith(mod_prefix) and qual.endswith(suffix):
                out[name] += n
    return out


# -- entry ---------------------------------------------------------------------

def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[0] not in (
            "mark", "spans", "profile"):
        print("usage: hook.py mark|spans|profile OUT.json -- ARGS...",
              file=sys.stderr)
        return 2
    mode, out_path, cli_argv = argv[0], argv[1], argv[3:]
    record: dict = {"mode": mode}
    # Registered before anything starts a pool: the pool's own exit hook
    # (threading._register_atexit) joins the workers before this runs.
    atexit.register(_finish, out_path, record, os.getpid())
    matrix = bool(cli_argv) and cli_argv[0] == "matrix"

    if mode == "profile":
        import cProfile
        import pstats
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        try:
            import repro.cli
            from repro.perf import profile as perf_profile
            with perf_profile.profiled() as session:
                status = repro.cli.main(cli_argv)
        finally:
            prof.disable()
            wall = time.perf_counter() - t0
        sys.stdout.flush()
        stats = pstats.Stats(prof).stats
        record["wall_s"] = wall
        record["self_s"] = _self_time_by_layer(stats)
        record["events"] = _event_counts(session.report)
        return status

    t0 = time.perf_counter()
    import repro.cli
    record["cli_import_s"] = time.perf_counter() - t0
    timers = None
    if mode == "mark":
        _install_marks(record)
    else:
        timers = _Timers()
        _install_spans(timers, matrix)
    status = repro.cli.main(cli_argv)
    sys.stdout.flush()
    if timers is not None:
        record["seconds"] = dict(timers.seconds)
        record["calls"] = dict(timers.calls)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
