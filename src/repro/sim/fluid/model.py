"""The fluid network model: rates, water-filling, queue integrators.

State is three arrays — per-flow rate, per-link queue, per-flow delivered
bytes — advanced in fixed RTT-sized steps:

1. **Targets**: max-min fair shares over the flow/link incidence
   (water-filling), against each link's *achievable* capacity
   (``capacity × Dynamics.utilization`` — credit overhead for ExpressPass,
   ECN headroom for DCTCP/HULL, and so on).  Computed once per change of
   the active set — when a step crosses a flow's ``start_ps`` — and
   reused by every step in between.
2. **Relaxation**: each flow moves a ``gain_per_rtt`` fraction of the way
   from its current rate to its target — the first-order stand-in for the
   protocol's control loop (feedback aggregation, AIMD, rate updates).
3. **Queues**: each link integrates ``max(0, inflow − capacity)`` into a
   byte backlog and drains the excess; on top of that backlog a saturated
   link reports the protocol's *standing* queue (``queue_bytes``: DCTCP's
   marking threshold, the loss-based buffer fill, ExpressPass's sub-MTU
   credit jitter).  Credit-throttled protocols additionally cap aggregate
   arrivals at capacity, which is why their dynamic backlog stays ~0 — the
   fluid expression of "credits never admit more than the link can carry".

The model is deterministic: no RNG, no event ordering, so a fluid cell is a
pure function of its arguments (the same property the result cache relies
on for packet cells).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: One MTU in bytes — the granularity floor for standing-queue estimates.
_MTU = 1_500


@dataclass(frozen=True)
class Dynamics:
    """Per-protocol constants driving the fluid evolution.

    ``utilization``: achievable fraction of raw link capacity (data
    goodput / line rate at saturation).  ``gain_per_rtt``: first-order
    convergence gain per RTT step (1 = jump straight to target).
    ``queue_bytes``: standing queue at a saturated bottleneck.
    ``start_fraction``: initial rate as a fraction of the fair share
    (ExpressPass's ``w_init``, slow-start's first windows).
    ``credit_throttled``: arrivals are capped at link capacity (credit
    scheduling), so dynamic backlog cannot build.
    """

    utilization: float
    gain_per_rtt: float
    queue_bytes: int
    start_fraction: float = 0.05
    credit_throttled: bool = False


#: Fluid dynamics for every packet-backend transport.  ``utilization`` and
#: ``queue_bytes`` are calibrated against the packet simulator's persistent
#: dumbbell (tests/test_fluid.py pins the agreement and its tolerances);
#: ``gain_per_rtt`` reflects each scheme's convergence-speed class (Fig 16:
#: ExpressPass/RCP a few RTTs, DCTCP hundreds).
PROTOCOL_DYNAMICS: Dict[str, Dynamics] = {
    "expresspass": Dynamics(utilization=0.92, gain_per_rtt=0.35,
                            queue_bytes=5 * _MTU, start_fraction=1 / 16,
                            credit_throttled=True),
    "expresspass-naive": Dynamics(utilization=0.92, gain_per_rtt=0.5,
                                  queue_bytes=5 * _MTU, start_fraction=0.5,
                                  credit_throttled=True),
    "dctcp": Dynamics(utilization=0.97, gain_per_rtt=0.04,
                      queue_bytes=155 * _MTU, start_fraction=0.02),
    "rcp": Dynamics(utilization=0.90, gain_per_rtt=0.45,
                    queue_bytes=250 * _MTU, start_fraction=0.1),
    "hull": Dynamics(utilization=0.88, gain_per_rtt=0.04,
                     queue_bytes=4 * _MTU, start_fraction=0.02),
    "dx": Dynamics(utilization=0.93, gain_per_rtt=0.08,
                   queue_bytes=6 * _MTU, start_fraction=0.02),
    "reno": Dynamics(utilization=0.97, gain_per_rtt=0.02,
                     queue_bytes=150 * _MTU, start_fraction=0.02),
    "cubic": Dynamics(utilization=0.97, gain_per_rtt=0.03,
                      queue_bytes=150 * _MTU, start_fraction=0.02),
    "ideal": Dynamics(utilization=1.0, gain_per_rtt=1.0,
                      queue_bytes=0, start_fraction=1.0),
    "dcqcn": Dynamics(utilization=0.94, gain_per_rtt=0.06,
                      queue_bytes=30 * _MTU, start_fraction=0.05),
    "timely": Dynamics(utilization=0.93, gain_per_rtt=0.06,
                       queue_bytes=25 * _MTU, start_fraction=0.05),
}


@dataclass
class FluidLink:
    """A capacity with a byte backlog (no per-packet queue)."""

    capacity_bps: float
    queue_bytes: float = 0.0
    max_queue_bytes: float = 0.0


@dataclass
class FluidFlow:
    """A rate on a route (tuple of link indices; empty = unconstrained)."""

    route: Tuple[int, ...]
    rate_bps: float = 0.0
    delivered_bytes: float = 0.0
    start_ps: int = 0


class FluidNetwork:
    """Flows over links, advanced one RTT per :meth:`step`.

    Routes, start times, capacities and dynamics are read once: changing
    them after construction does not retarget the flows.  Rates may be
    set between steps (a pre-converged flow, say).
    """

    def __init__(self, links: Sequence[FluidLink], flows: Sequence[FluidFlow],
                 dynamics: Dynamics, rtt_ps: int):
        if rtt_ps <= 0:
            raise ValueError(f"rtt_ps must be positive, got {rtt_ps}")
        self.links = list(links)
        self.flows = list(flows)
        self.dynamics = dynamics
        self.rtt_ps = rtt_ps
        self.now_ps = 0
        #: Distinct start times, sorted once; ``_next_start`` indexes the
        #: first one no step has crossed yet.
        self._starts = sorted({f.start_ps for f in self.flows})
        self._next_start = 0
        #: ``(flow, target)`` per active flow, in flow-index order.
        self._plan: List[Tuple[FluidFlow, float]] = []

    # -- fair-share targets ------------------------------------------------
    def _weights(self, active: List[int],
                 users: List[List[int]]) -> Dict[int, float]:
        """Per-flow water-filling weights.

        Plain max-min for window/rate protocols (weight 1).  For
        credit-throttled protocols, a flow crossing ``c`` *contended* links
        is beaten down to weight ``0.5**c`` (c >= 2): every extra
        credit-throttled hop drops roughly half the surviving credits, the
        multi-bottleneck penalty the ExpressPass paper measures on the
        parking lot.  Calibrated against the packet backend in
        ``tests/test_fluid.py``.
        """
        if not self.dynamics.credit_throttled:
            return {idx: 1.0 for idx in active}
        contended = {l for l, flow_ids in enumerate(users)
                     if len(flow_ids) >= 2}
        weights = {}
        for idx in active:
            c = sum(1 for l in self.flows[idx].route if l in contended)
            weights[idx] = 0.5 ** c if c >= 2 else 1.0
        return weights

    def max_min_shares(self, active: List[int]) -> List[float]:
        """Water-filling: the (weighted) max-min rate for each active flow.

        Classic progressive filling over achievable capacities: repeatedly
        saturate the tightest link, freeze its flows at their weighted
        split of its remaining capacity, remove it, repeat.  O(links ×
        flows) per call; :meth:`step` calls it only when the active set
        changes (once per run when every flow starts at time zero).
        """
        util = self.dynamics.utilization
        remaining = [link.capacity_bps * util for link in self.links]
        users: List[List[int]] = [[] for _ in self.links]
        for idx in active:
            for l in self.flows[idx].route:
                users[l].append(idx)
        weights = self._weights(active, users)
        share = {idx: float("inf") for idx in active}
        unfrozen = set(active)
        while unfrozen:
            tight_link = None
            tight_unit = None
            for l, flow_ids in enumerate(users):
                live_w = sum(weights[i] for i in flow_ids if i in unfrozen)
                if not live_w:
                    continue
                unit = remaining[l] / live_w
                if tight_unit is None or unit < tight_unit:
                    tight_unit = unit
                    tight_link = l
            if tight_link is None:
                # Remaining flows traverse no constrained link: cap at the
                # fastest link so "unconstrained" still means line rate.
                top = max((lk.capacity_bps for lk in self.links),
                          default=0.0) * util
                for idx in unfrozen:
                    share[idx] = top
                break
            frozen = [i for i in users[tight_link] if i in unfrozen]
            for idx in frozen:
                share[idx] = tight_unit * weights[idx]
                unfrozen.discard(idx)
                for l in self.flows[idx].route:
                    remaining[l] = max(0.0, remaining[l] - share[idx])
        return [share[idx] for idx in active]

    # -- evolution ---------------------------------------------------------
    def _retarget(self) -> None:
        """Refill the water for the active set as of ``now_ps``.

        Called only when ``now_ps`` crosses the next pending start time:
        between activations the targets' inputs (active set, routes,
        capacities, dynamics) are fixed, so the shares are too.
        """
        now = self.now_ps
        self._next_start = bisect.bisect_right(self._starts, now)
        active = [i for i, f in enumerate(self.flows) if f.start_ps <= now]
        self._plan = list(zip([self.flows[i] for i in active],
                              self.max_min_shares(active)))

    def step(self) -> None:
        """Advance one RTT: relax toward the targets, deliver, integrate
        queues.

        One pass over active flows (rate, link inflow, delivered bytes),
        then one pass over links.  The order of every float operation is
        part of the output: ``tests/golden/fluid_rows.json`` pins the bytes.
        """
        if self._next_start < len(self._starts) \
                and self._starts[self._next_start] <= self.now_ps:
            self._retarget()
        dt_s = self.rtt_ps * 1e-12
        dyn = self.dynamics
        gain = min(1.0, dyn.gain_per_rtt)
        start_fraction = dyn.start_fraction

        # Relax and deliver; per-link arrivals sum in flow-index order.
        inflow = [0.0] * len(self.links)
        for flow, target in self._plan:
            rate = flow.rate_bps
            if rate == 0.0:
                rate = start_fraction * target
            rate += gain * (target - rate)
            flow.rate_bps = rate
            for l in flow.route:
                inflow[l] += rate
            flow.delivered_bytes += rate * dt_s / 8

        # Credit throttling caps admission at capacity.
        throttled = dyn.credit_throttled
        standing_bytes = dyn.queue_bytes
        for link, flow_in in zip(self.links, inflow):
            cap = link.capacity_bps
            arriving = min(flow_in, cap) if throttled else flow_in
            link.queue_bytes = max(
                0.0, link.queue_bytes + (arriving - cap) * dt_s / 8)
            # A saturated link carries the protocol's standing queue on top
            # of any transient backlog (sub-RTT burstiness the rate model
            # integrates away).
            standing = standing_bytes if flow_in >= 0.5 * cap else 0.0
            link.max_queue_bytes = max(link.max_queue_bytes,
                                       link.queue_bytes + standing)
        self.now_ps += self.rtt_ps

    def run(self, until_ps: int,
            sample_every_ps: Optional[int] = None,
            samples: Optional[List[float]] = None) -> None:
        """Step to ``until_ps``; optionally record total delivered bytes
        every ``sample_every_ps`` (bin edges, like the packet sampler)
        into ``samples``, which must then be given."""
        if sample_every_ps and samples is None:
            raise ValueError("sample_every_ps needs a samples list to "
                             "append to")
        next_sample = self.now_ps if sample_every_ps else None
        while self.now_ps < until_ps:
            if next_sample is not None and self.now_ps >= next_sample:
                samples.append(sum(f.delivered_bytes for f in self.flows))
                next_sample += sample_every_ps
            self.step()
        if next_sample is not None:
            samples.append(sum(f.delivered_bytes for f in self.flows))

    def max_queue_bytes(self) -> float:
        return max((link.max_queue_bytes for link in self.links), default=0.0)


__all__ = ["Dynamics", "FluidFlow", "FluidLink", "FluidNetwork",
           "PROTOCOL_DYNAMICS"]
