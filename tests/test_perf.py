"""repro.perf: the optimisations must be invisible except in speed.

Determinism is the substrate's core contract, so each hot-path feature —
heap compaction, the Event freelist, the port fast path, the profiler —
is run against the golden-trace scenarios with the feature on and off,
asserting bit-identical payloads and event counts.  A hypothesis-driven
differential oracle does the same for the event core alone, on randomized
dynamic schedule/cancel programs.  Plus regression tests for the structural
properties the features provide (bounded heap growth, event recycling, O(1)
pending).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.perf import profile
from repro.sim import engine
from repro.sim.engine import Simulator
from tests.test_golden_traces import SCENARIOS, build_payload


def _events_processed(name: str) -> int:
    tracers = SCENARIOS[name]()
    sim = next(iter(tracers.values())).port.sim
    return sim.events_processed


# --- determinism: features on == features off --------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_disabling_all_optimisations_is_bit_identical(name, monkeypatch):
    fast = build_payload(name)
    fast_events = _events_processed(name)
    monkeypatch.setattr(perf, "COMPACT_MIN", 0)
    monkeypatch.setattr(perf, "FREELIST_MAX", 0)
    monkeypatch.setattr(perf, "FASTPATH_ENABLED", False)
    slow = build_payload(name)
    assert slow == fast
    assert _events_processed(name) == fast_events


@pytest.mark.parametrize("knob", [
    ("COMPACT_MIN", 0),     # no compaction
    ("COMPACT_MIN", 1),     # compact as aggressively as possible
    ("FREELIST_MAX", 0),    # no event recycling
    ("FASTPATH_ENABLED", False),
])
def test_each_knob_alone_is_bit_identical(knob, monkeypatch):
    name = "dumbbell_expresspass"
    reference = build_payload(name)
    monkeypatch.setattr(perf, *knob)
    assert build_payload(name) == reference


def test_profiler_does_not_perturb_simulation():
    name = "star_cross_expresspass"
    reference = build_payload(name)
    ref_events = _events_processed(name)
    with profile.profiled() as session:
        payload = build_payload(name)
    assert payload == reference
    report = session.report
    # Exact accounting: one fire() per processed event, across both the
    # payload build and the _events_processed rerun... only the first runs
    # inside the session, so compare against one build's count.
    assert report.events == ref_events
    assert report.simulators == 1
    assert sum(n for _, n, _ in report.top_callbacks(limit=10**6)) \
        == report.events


# --- differential oracle: engine knobs on vs off ------------------------------

#: Engine knob settings that must all fire the identical event sequence.
@st.composite
def programs(draw):
    """A deterministic dynamic schedule/cancel program.

    ``init`` seeds the queue; ``spawn[k]`` dictates what the k-th fired
    callback does: how many children to schedule, at what base delay, via
    which scheduling API, and whether to cancel the oldest live handle.
    Small delay scales make same-timestamp ties common.
    """
    scale = draw(st.sampled_from([1, 3, 1000]))
    init = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    spawn = draw(st.lists(
        st.tuples(st.integers(0, 3),        # children per firing
                  st.integers(0, 50),       # child delay base
                  st.booleans()),           # cancel the oldest handle?
        max_size=120))
    return scale, init, spawn


def _run_program(program, max_events=400):
    """Run ``program`` on a fresh simulator; the fired ``(now, tag)`` list."""
    scale, init, spawn = program
    sim = Simulator(seed=0)
    fired = []
    handles = []
    counter = itertools.count()

    def fire(tag):
        fired.append((sim.now, tag))
        k = next(counter)
        if k < len(spawn):
            n_children, base, do_cancel = spawn[k]
            for j in range(n_children):
                delay = (base * (j + 1)) % (60 * scale)
                mode = (k + j) % 3
                if mode == 0:
                    handles.append(sim.schedule(delay, fire, f"{tag}.{j}"))
                elif mode == 1:
                    sim.schedule_unref(delay, fire, f"{tag}.u{j}")
                else:
                    handles.append(
                        sim.schedule_at(sim.now + delay, fire, f"{tag}.a{j}"))
            if do_cancel and handles:
                handles.pop(0).cancel()

    for i, d in enumerate(init):
        handles.append(sim.schedule(d * scale, fire, f"i{i}"))
    sim.run(max_events=max_events)
    return fired


def _run_program_with(program, **knobs):
    """``_run_program`` with the ``repro.perf`` globals in ``knobs`` set.

    ``pytest.MonkeyPatch.context()`` instead of the fixture: hypothesis
    rejects function-scoped fixtures in ``@given`` tests.
    """
    with pytest.MonkeyPatch.context() as mp:
        for knob, value in knobs.items():
            mp.setattr(perf, knob, value)
        return _run_program(program)


@given(programs())
@settings(max_examples=40, deadline=None, database=None)
def test_dynamic_programs_fire_identically(program):
    """Callbacks scheduling more work and deferred cancels: the defaults
    and every optimisation off fire the same ``(now, tag)`` list."""
    assert _run_program(program) == \
        _run_program_with(program, COMPACT_MIN=0, FREELIST_MAX=0)


@given(programs())
@settings(max_examples=25, deadline=None, database=None)
def test_dynamic_programs_fire_identically_under_compaction(program):
    """Same oracle with compaction forced aggressively mid-run."""
    assert _run_program(program) == \
        _run_program_with(program, COMPACT_MIN=2)


def test_same_timestamp_fifo_survives_compaction(monkeypatch):
    """Events tied on the timestamp fire in schedule order even when a
    compaction rebuilds the heap while they are pending."""
    monkeypatch.setattr(perf, "COMPACT_MIN", 2)
    sim = Simulator(seed=0)
    fired = []
    tied_at = 5_000_000
    for i in range(8):
        sim.schedule_at(tied_at, fired.append, i)
    # Cancelling more entries than remain live trips the compaction
    # threshold while the tied batch is still pending.
    decoys = [sim.schedule_at(tied_at + 1, fired.append, 100 + i)
              for i in range(10)]
    for h in decoys:
        h.cancel()
    assert sim._cancelled < 10      # a compaction really reaped entries
    sim.run()
    assert fired == list(range(8))


# --- heap growth under cancellation ------------------------------------------

def test_cancel_storm_keeps_heap_bounded():
    """10^5 schedule+cancel cycles must not grow the heap past the ratio."""
    sim = Simulator(seed=0)
    anchor = sim.schedule(10**9, lambda: None)  # one live event throughout
    for i in range(100_000):
        sim.schedule(1000 + i, lambda: None).cancel()
        # live=1, so the heap may hold at most COMPACT_MIN garbage entries
        # (plus the live anchor) before compaction fires.
        assert len(sim._heap) <= perf.COMPACT_MIN + 1
        assert sim.pending() == 1
    anchor.cancel()
    sim.run()
    assert sim.events_processed == 0
    assert sim.pending() == 0


def test_no_compaction_when_disabled(monkeypatch):
    monkeypatch.setattr(perf, "COMPACT_MIN", 0)
    sim = Simulator(seed=0)
    for i in range(5_000):
        sim.schedule(1000 + i, lambda: None).cancel()
    assert len(sim._heap) == 5_000  # garbage retained, reaped only on run
    assert sim.pending() == 0
    sim.run()
    assert sim.events_processed == 0
    assert len(sim._heap) == 0


def test_compaction_preserves_pop_order(monkeypatch):
    monkeypatch.setattr(perf, "COMPACT_MIN", 8)
    sim = Simulator(seed=0)
    fired = []
    for i in (5, 3, 9, 1, 7, 0, 8, 2, 6, 4):
        sim.schedule(i * 1000, fired.append, i)
    for _ in range(50):  # trigger repeated compactions around the live set
        doomed = [sim.schedule(10**6 + i, lambda: None) for i in range(10)]
        for event in doomed:
            event.cancel()
    sim.run(until=9_000)
    assert fired == sorted(fired)
    assert len(fired) == 10


# --- event freelist -----------------------------------------------------------

def test_unref_events_are_recycled():
    sim = Simulator(seed=0)
    for _ in range(100):
        sim.schedule_unref(100, lambda: None)
    sim.run()
    assert len(sim._freelist) == 100
    before = len(sim._freelist)
    sim.schedule_unref(100, lambda: None)
    assert len(sim._freelist) == before - 1  # popped from the pool
    sim.run()


def test_handle_events_are_never_recycled():
    sim = Simulator(seed=0)
    events = [sim.schedule(100, lambda: None) for _ in range(50)]
    sim.run()
    assert sim._freelist == []
    # A stale cancel on a fired handle must stay a no-op.
    for event in events:
        event.cancel()
    assert sim.pending() == 0


def test_freelist_respects_cap(monkeypatch):
    monkeypatch.setattr(perf, "FREELIST_MAX", 16)
    sim = Simulator(seed=0)
    for _ in range(100):
        sim.schedule_unref(100, lambda: None)
    sim.run()
    assert len(sim._freelist) == 16


# --- profiler internals -------------------------------------------------------

def test_profiler_counts_and_reaps():
    with profile.profiled(sample_every=4) as session:
        sim = Simulator(seed=0)
        for i in range(40):
            sim.schedule(i * 1000, lambda: None)
        for i in range(10):
            sim.schedule(10**6 + i, lambda: None).cancel()
        sim.run()
    report = session.report
    assert report.events == 40
    assert report.reaped == 10
    assert report.samples == 40 // 4
    assert report.as_dict()["events"] == 40
    assert "repro.perf.profile" in report.format()


def test_profiler_report_merges_task_summaries():
    with profile.profiled() as session:
        sim = Simulator(seed=0)
        sim.schedule(100, lambda: None)
        sim.run()
    inner = session.report.as_dict()
    merged = profile.ProfileReport()
    merged.add_summary(inner)
    merged.add_summary(inner)
    assert merged.events == 2 * session.report.events
    assert merged.simulators == 2


def test_sessions_nest_without_double_counting():
    with profile.profiled() as outer:
        sim_a = Simulator(seed=0)
        sim_a.schedule(100, lambda: None)
        with profile.profiled() as inner:
            sim_b = Simulator(seed=1)
            for _ in range(3):
                sim_b.schedule(100, lambda: None)
            sim_b.run()
        sim_a.run()
    assert inner.report.events == 3      # inner claimed sim_b...
    assert outer.report.events == 1      # ...so outer saw only sim_a
    assert engine.on_simulator_created is None  # hook fully unwound


def test_runtime_profile_knob_ships_summaries():
    from repro import runtime
    from repro.runtime.task import TaskSpec

    profile.reset_task_summaries()
    specs = [TaskSpec(_events_processed, {"name": "dumbbell_dctcp"})]
    with runtime.using(parallel=0, cache_enabled=False, profile=True,
                       progress=False):
        results = runtime.run_tasks(specs, name="profiled")
    assert results[0].ok
    summary = results[0].profile
    assert summary is not None and summary["events"] == results[0].value
    assert profile.task_summaries()[0][1] == summary
    profile.reset_task_summaries()
