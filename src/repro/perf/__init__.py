"""repro.perf — hot-path performance layer for the event core and ports.

The substrate's speed budget is spent in three places: the event heap
(schedule/pop/cancel), the :class:`~repro.net.port.Port` transmitter cycle
(``_try_send``/``_transmit``/``_tx_done``), and per-packet bookkeeping.
This package centralises the tuning knobs for the optimisations that keep
those paths fast, plus an opt-in profiler (:mod:`repro.perf.profile`) that
shows where events go.

Every optimisation is **behaviour-preserving**: golden traces and
``events_processed`` are bit-identical with the features on or off
(``tests/test_perf.py`` asserts this).  The knobs exist so the determinism
tests can run both configurations: they are plain module globals, which a
test (or a debugging session) flips with ``monkeypatch.setattr``.

Knobs:

``COMPACT_MIN`` / ``COMPACT_RATIO``
    Lazy-deletion compaction: the scheduler rebuilds its heap in place once
    at least ``COMPACT_MIN`` cancelled entries have accumulated *and*
    cancelled entries outnumber live ones ``COMPACT_RATIO``-fold.  Bounds
    the heap at ~``(1 + COMPACT_RATIO) x live`` entries no matter how many
    timers are cancelled.  ``COMPACT_MIN = 0`` disables.

``FREELIST_MAX``
    Events scheduled through :meth:`Simulator.schedule_unref` (fire-and-
    forget, no handle returned — transmit completions and wire deliveries)
    are recycled through a per-simulator freelist instead of being
    reallocated.  Only handle-less events are pooled, so a stale reference
    can never cancel a recycled event.  ``FREELIST_MAX = 0`` disables.

``FASTPATH_ENABLED``
    Ports precompute a flags word over their optional attachments
    (``phantom``/``rcp_controller``/``pfc``/hooks/...) and take a branch-
    free transmit path while the word is zero.  ``False`` forces the
    fully-checked path for every port created afterwards.
"""

from __future__ import annotations

#: Minimum cancelled-entry count before heap compaction is considered
#: (0 disables compaction entirely).
COMPACT_MIN: int = 256
#: Compact when cancelled entries exceed live entries by this factor.
COMPACT_RATIO: int = 1
#: Cap on recycled Event objects per simulator (0 disables the freelist).
FREELIST_MAX: int = 1024
#: Ports take the flags-word fast path when True (checked at Port creation).
FASTPATH_ENABLED: bool = True

__all__ = [
    "COMPACT_MIN", "COMPACT_RATIO", "FREELIST_MAX", "FASTPATH_ENABLED",
]
