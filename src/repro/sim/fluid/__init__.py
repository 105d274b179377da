"""repro.sim.fluid: a discrete-time rate-evolution (fluid) backend.

No per-packet events: flows are rates, links are capacities with a queue
integrator, and the network state advances one RTT per step.  A fluid run
costs ``O(steps × (flows + links))`` plus one water-filling per change of
the active set — thousands of arithmetic updates instead of millions of
scheduler events — which buys the 10×+ speedups ROADMAP item 2 asks for
on trend-mode sweeps.

The model is deliberately small: max-min fair-share targets (water-filling
over the flow/link incidence), first-order per-protocol convergence gains,
and a credit-throttle arrival cap for ExpressPass.  What it preserves —
steady utilization, Jain fairness, queue occupancy scale, convergence-time
order — is pinned against the packet backend by ``tests/test_fluid.py``
with explicit tolerances.  What it cannot express (per-packet loss, chaos
fault bursts, FCT microbursts) is refused at the schema layer: see
:func:`repro.scenarios.schema.fluid_blockers`.
"""

from repro.sim.fluid.model import (
    Dynamics,
    FluidFlow,
    FluidLink,
    FluidNetwork,
    PROTOCOL_DYNAMICS,
)
from repro.sim.fluid.cells import (
    fluid_fct_point,
    fluid_join_convergence,
    run_fluid,
)

__all__ = [
    "Dynamics",
    "FluidFlow",
    "FluidLink",
    "FluidNetwork",
    "PROTOCOL_DYNAMICS",
    "fluid_fct_point",
    "fluid_join_convergence",
    "run_fluid",
]
