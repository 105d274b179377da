"""Fluid model internals: pinned output bytes, water-filling call budget.

``tests/golden/fluid_rows.json`` pins the fluid backend's output to the
byte: every :data:`PROTOCOL_DYNAMICS` protocol on every fluid topology at
three scales, Fig 16's join convergence per protocol, and a direct
:class:`FluidNetwork` run whose flows start mid-run (no cell does that, so
only this run covers active-set changes after time zero).  Floats are
written with ``repr`` through :mod:`json`, so any change to the order of
float operations in :meth:`FluidNetwork.step` fails here even when the
agreement tolerances in ``tests/test_fluid.py`` would still pass.

Intentional model changes regenerate the fixture::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_fluid_model.py -q
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.sim.fluid import (
    PROTOCOL_DYNAMICS,
    FluidFlow,
    FluidLink,
    FluidNetwork,
    fluid_join_convergence,
    run_fluid,
)
from repro.sim.units import GBPS, MS, US

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fluid_rows.json"

TOPOLOGIES = [
    ("dumbbell", None),
    ("single_switch", None),
    ("fat_tree", {"k": 4}),
    ("parking_lot", None),
    ("multi_bottleneck", None),
]
FLOW_COUNTS = (2, 3, 8)

#: Control RTT of the staggered run; its later start times fall in
#: distinct RTT steps, so each one changes the active set exactly once.
STAGGER_RTT_PS = 30 * US
#: ``(route, start_ps)``.  Starts that are not RTT multiples activate at
#: the next step; two flows share the 45 us start; the empty route is an
#: unconstrained flow; the last start lies past the run's horizon.
STAGGERED_FLOWS = [
    ((0, 1), 0),
    ((0,), 0),
    ((1, 2), 45 * US),
    ((2,), 45 * US),
    ((), 150 * US),
    ((1,), 300 * US),
    ((2,), 10 * MS),
]
STAGGER_CHECKPOINTS_PS = (100 * US, 200 * US, 400 * US, 1 * MS, 2 * MS)


def _staggered_network(protocol: str) -> FluidNetwork:
    links = [FluidLink(10 * GBPS), FluidLink(10 * GBPS),
             FluidLink(40 * GBPS)]
    flows = [FluidFlow(route=route, start_ps=start)
             for route, start in STAGGERED_FLOWS]
    return FluidNetwork(links, flows, PROTOCOL_DYNAMICS[protocol],
                        rtt_ps=STAGGER_RTT_PS)


def _staggered_run(protocol: str) -> dict:
    net = _staggered_network(protocol)
    samples: list = []
    checkpoints = []
    for until in STAGGER_CHECKPOINTS_PS:
        net.run(until, sample_every_ps=50 * US, samples=samples)
        checkpoints.append({
            "now_ps": net.now_ps,
            "rates_bps": [f.rate_bps for f in net.flows],
            "delivered_bytes": [f.delivered_bytes for f in net.flows],
            "queue_bytes": [link.queue_bytes for link in net.links],
            "max_queue_bytes": [link.max_queue_bytes for link in net.links],
        })
    return {"samples": samples, "checkpoints": checkpoints}


def build_payload() -> dict:
    cells = {}
    for protocol in sorted(PROTOCOL_DYNAMICS):
        for topology, params in TOPOLOGIES:
            for n in FLOW_COUNTS:
                cells[f"{protocol}/{topology}/{n}"] = run_fluid(
                    protocol, n, topology=topology, topo_params=params,
                    warmup_ps=2 * MS, measure_ps=3 * MS)
    return {
        "run_fluid": cells,
        "join_convergence": {p: fluid_join_convergence(p, 10 * GBPS)
                             for p in sorted(PROTOCOL_DYNAMICS)},
        "staggered": {p: _staggered_run(p)
                      for p in sorted(PROTOCOL_DYNAMICS)},
    }


def render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_fluid_rows_match_golden_bytes():
    text = render(build_payload())
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        GOLDEN_PATH.write_text(text)
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; run with REPRO_REGEN_GOLDEN=1")
    golden = GOLDEN_PATH.read_text()
    if text != golden:
        want, got = json.loads(golden), json.loads(text)
        drifted = [f"{section}/{key}"
                   for section in sorted(want)
                   for key in sorted(want[section])
                   if want[section][key] != got.get(section, {}).get(key)]
        pytest.fail("fluid output drifted from golden bytes: "
                    + (", ".join(drifted[:10]) or "formatting only"))


# -- water-filling call budget -----------------------------------------------

@pytest.fixture
def shares_calls(monkeypatch):
    """Count :meth:`FluidNetwork.max_min_shares` calls."""
    calls = []
    original = FluidNetwork.max_min_shares

    def counting(self, active):
        calls.append(list(active))
        return original(self, active)

    monkeypatch.setattr(FluidNetwork, "max_min_shares", counting)
    return calls


@pytest.mark.parametrize("topology,params", TOPOLOGIES)
def test_run_fluid_fills_water_once_per_cell(shares_calls, topology, params):
    run_fluid("expresspass", 8, topology=topology, topo_params=params,
              warmup_ps=2 * MS, measure_ps=3 * MS)
    assert len(shares_calls) == 1


def test_staggered_starts_refill_once_per_distinct_start(shares_calls):
    net = _staggered_network("expresspass")
    horizon = STAGGER_CHECKPOINTS_PS[-1]
    net.run(horizon)
    later = {start for _route, start in STAGGERED_FLOWS
             if 0 < start < horizon}
    assert len(shares_calls) == len(later) + 1
    # Each refill sees the active set grown by exactly the flows whose
    # start the step crossed, in flow-index order.
    assert shares_calls[0] == [0, 1]
    assert shares_calls[-1] == [0, 1, 2, 3, 4, 5]


def test_no_water_filling_before_first_start(shares_calls):
    links = [FluidLink(10 * GBPS)]
    flows = [FluidFlow(route=(0,), start_ps=90 * US)]
    net = FluidNetwork(links, flows, PROTOCOL_DYNAMICS["dctcp"],
                       rtt_ps=30 * US)
    net.run(60 * US)
    assert shares_calls == []
    assert flows[0].delivered_bytes == 0.0
    net.run(120 * US)
    assert len(shares_calls) == 1
    assert flows[0].delivered_bytes > 0.0


def test_run_sampling_requires_a_samples_list():
    net = _staggered_network("dctcp")
    with pytest.raises(ValueError, match="samples"):
        net.run(100 * US, sample_every_ps=50 * US)
    assert net.now_ps == 0   # rejected before any step ran
