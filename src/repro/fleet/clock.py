"""Fleet clock coordination: one event loop, one lockstep oracle.

Every host keeps its own discrete-event engine; the fleet needs a policy
for *when* each engine runs.  :class:`FleetClock` is that policy surface —
``advance_to(t)`` moves fleet time forward, ``wake(host_id, t)`` brings a
single host's local clock up to fleet time before the fleet touches it.

Every :class:`~repro.fleet.cluster.Fleet` runs on
:class:`EventDrivenFleetClock`: a fleet-level event heap keyed by each
host's next pending event.  Only hosts with work are woken; idle hosts
fast-forward lazily (their local clocks catch up on the next ``wake``).
This is the SimBricks-style discipline — synchronize at interaction
points, not on a global metronome — and it is what makes 256-host fleets
tractable.

The fleet's control loop (:meth:`~repro.fleet.migration.MigrationPlanner
.control`) is one such interaction point.  It runs at the quantum
boundaries a lockstep metronome would visit — ``now + quantum``,
``+ quantum`` again, ..., capped at the advance target — but the event
clock stops at a boundary only when control has work there: an
escalation is queued or a rebalance threshold is armed.  Escalations
raised within one quantum are handed over in host-id order, the order a
host-by-host sweep raises them in.

:class:`LockstepFleetClock` is that metronome: every host advanced
quantum by quantum in host-id order, control at every boundary.  It is
the reference oracle the event clock is equivalence-tested against
(bit-identical placements, ledgers and planner records across ≥20 seeds
in ``tests/test_fleet_clock.py``); no fleet selects it in production.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import ClockError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Fleet

#: Fleet-control granularity in simulated seconds: the spacing of the
#: quantum boundaries at which :meth:`MigrationPlanner.control` may run.
QUANTUM = 0.001

#: Floating-point slack when comparing fleet-clock boundaries.
_CLOCK_EPS = 1e-12


class FleetClock:
    """The fleet's time-coordination surface (strategy interface).

    Args:
        fleet: The fleet whose hosts this clock advances.
        start: Initial fleet time.
    """

    def __init__(self, fleet: "Fleet", start: float = 0.0) -> None:
        self.fleet = fleet
        self.quantum = QUANTUM
        self._now = start
        # Fleet membership is fixed at construction; resolving engines
        # once keeps the per-event hot path free of host lookups.
        self._engines = {host_id: host.engine
                         for host_id, host in fleet.hosts()}
        # Crashed hosts: frozen in time, never advanced or woken until
        # reactivated (see FleetFaultInjector).
        self._inactive: set = set()

    @property
    def now(self) -> float:
        """Current fleet time."""
        return self._now

    def is_active(self, host_id: str) -> bool:
        """Whether *host_id* is being advanced (not crashed)."""
        return host_id not in self._inactive

    def deactivate(self, host_id: str) -> None:
        """Freeze *host_id*: no advances, wakes become no-ops.

        A crashed host's engine keeps its pending events (arbiter ticks,
        retries) so reactivation can replay them deterministically; it
        simply stops observing fleet time while inactive.
        """
        if host_id not in self._engines:
            self.fleet.host(host_id)  # raises UnknownHostError
        self._inactive.add(host_id)

    def reactivate(self, host_id: str) -> int:
        """Unfreeze *host_id* and catch its local clock up to fleet time.

        The backlog accumulated while frozen (periodic arbiter ticks and
        so on) replays in one burst at reactivation — identically on the
        event clock and the oracle, since both see the same fleet time
        here.  Returns the number of host events processed catching up.
        """
        self._inactive.discard(host_id)
        return self.wake(host_id)

    def _check_target(self, t: float) -> None:
        if t < self._now - _CLOCK_EPS:
            raise ClockError(
                f"cannot run fleet until {t} (now is {self._now})"
            )

    def advance_to(self, t: float) -> int:
        """Advance fleet time to *t*, running host work due before it.

        Returns the number of host events processed.
        """
        raise NotImplementedError

    def wake(self, host_id: str, t: Optional[float] = None) -> int:
        """Bring one host's local clock up to *t* (default: fleet time).

        The fleet calls this before any interaction with a host (probe,
        release, migration leg) so host-local timestamps always match
        fleet time no matter how lazily the host has been advanced.
        Returns the number of host events processed.
        """
        if host_id in self._inactive:
            return 0  # crashed: frozen in time until reactivated
        target = self._now if t is None else t
        engine = self._engines.get(host_id)
        if engine is None:  # unknown id: raise UnknownHostError
            engine = self.fleet.host(host_id).engine
        if target < engine.now:
            return 0  # already ahead (never happens under fleet control)
        return engine.run_until(target)

    def notify(self, host_id: str) -> None:
        """Tell the clock *host_id*'s event queue may have changed.

        Fleet-surface mutations (submit, release, migration legs) can
        schedule host events *after* the pre-interaction :meth:`wake`;
        the event-driven clock re-peeks here so those events are not
        deferred to the host's next wake.  Lockstep needs no hint.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(t={self._now:.6f}s)"


class LockstepFleetClock(FleetClock):
    """Advance every host in lockstep, one quantum at a time.

    Deterministic and simple — and O(hosts × quanta) even when nothing is
    happening.  The reference oracle the event-driven clock is
    equivalence-tested against: fleet control runs at every boundary
    unconditionally.
    """

    def advance_to(self, t: float) -> int:
        self._check_target(t)
        processed = 0
        while self._now < t - _CLOCK_EPS:
            boundary = min(t, self._now + self.quantum)
            for host_id, host in self.fleet.hosts():
                if host_id in self._inactive:
                    continue  # crashed: frozen in time
                processed += host.engine.run_until(boundary)
            self._now = boundary
            self.fleet.planner.control()
        return processed


class EventDrivenFleetClock(FleetClock):
    """Wake only hosts with pending work; idle hosts fast-forward.

    A lazy heap of ``(next_event_time, host_id)`` entries drives the
    advance: the earliest entry is re-validated against the host's engine
    (fleet-level operations may have added or cancelled events since it
    was pushed), stale entries are discarded, and live ones run the host
    exactly to their event time.  Host clocks are left behind fleet time
    until the next :meth:`wake` — which every fleet-surface interaction
    performs first — so an idle host costs nothing per advance.

    Fleet control runs as a boundary step: when escalations are queued or
    rebalancing is armed, the advance runs the heap to the next quantum
    boundary, lands fleet time on it, and calls
    :meth:`~repro.fleet.migration.MigrationPlanner.control` there —
    exactly where :class:`LockstepFleetClock` would.
    """

    def __init__(self, fleet: "Fleet", start: float = 0.0) -> None:
        super().__init__(fleet, start)
        self._heap: List[Tuple[float, str]] = []
        # One representative in-heap entry per host: pushing a peek that
        # is already queued is pure churn (stale entries cost two
        # re-validation peeks each at the next advance).  With latency
        # probes armed every host always *has* a finite peek, so every
        # fleet-surface wake would otherwise push a duplicate.
        self._queued: Dict[str, float] = {}
        self._primed = False

    # -- heap maintenance --------------------------------------------------

    def _prime(self) -> None:
        for host_id, engine in self._engines.items():
            if host_id in self._inactive:
                continue  # crashed hosts never enter the heap
            t_ev = engine.peek_time()
            if t_ev is not None:
                self._heap.append((t_ev, host_id))
                self._queued[host_id] = t_ev
        heapq.heapify(self._heap)
        self._primed = True

    def _push_peek(self, host_id: str, t_ev: float) -> None:
        if self._queued.get(host_id) != t_ev:
            heapq.heappush(self._heap, (t_ev, host_id))
            self._queued[host_id] = t_ev

    def _drop_entry(self, host_id: str, t_ev: float) -> None:
        if self._queued.get(host_id) == t_ev:
            del self._queued[host_id]

    def notify(self, host_id: str) -> None:
        """Re-peek *host_id* after an out-of-band mutation.

        Fleet operations (submit, release, migrate) schedule and cancel
        host events outside the advance loop; pushing a fresh entry keeps
        the heap's earliest-event invariant without rescanning the fleet.
        Duplicate and stale entries are discarded during the advance.
        """
        if not self._primed or host_id in self._inactive:
            return
        t_ev = self.fleet.host(host_id).engine.peek_time()
        if t_ev is not None:
            self._push_peek(host_id, t_ev)

    def wake(self, host_id: str, t: Optional[float] = None) -> int:
        if host_id in self._inactive:
            return 0  # crashed: frozen in time until reactivated
        target = self._now if t is None else t
        engine = self._engines.get(host_id)
        if engine is None:  # unknown id: raise UnknownHostError
            engine = self.fleet.host(host_id).engine
        processed = (engine.run_until(target)
                     if target >= engine.now else 0)
        if self._primed:
            t_ev = engine.peek_time()
            if t_ev is not None:
                self._push_peek(host_id, t_ev)
        return processed

    # -- the advance -------------------------------------------------------

    def advance_to(self, t: float) -> int:
        self._check_target(t)
        if not self._primed:
            self._prime()
        if not self._now < t - _CLOCK_EPS:
            # No boundary within reach (t is now, or within float slack
            # of it): run what is due, but no control — nor does
            # lockstep.
            processed = self._run_heap(t)[0]
            if t > self._now:
                self._now = t
            return processed
        planner = self.fleet.planner
        escalations = planner.escalations
        boundary = self._now
        processed = 0
        while boundary < t - _CLOCK_EPS:
            if planner.rebalance_threshold is None and not escalations:
                # Control has nothing to do: run straight to t, unless
                # an event on the way queues an escalation.
                ran, raised_at = self._run_heap(t, escalations)
                processed += ran
                if raised_at is None:
                    self._now = t
                    return processed
                # Control drains it at the end of the quantum holding
                # the event that raised it (at least one quantum on:
                # an event at the last boundary belongs to the next).
                boundary = min(t, boundary + self.quantum)
                while boundary < raised_at:
                    boundary = min(t, boundary + self.quantum)
                first = 0
            else:
                boundary = min(t, boundary + self.quantum)
                first = len(escalations)
            processed += self._run_heap(boundary)[0]
            self._now = boundary
            # Lockstep's host-by-host sweep raises a quantum's
            # escalations in host order (time order within a host).
            escalations[first:] = sorted(escalations[first:],
                                         key=itemgetter(0))
            planner.control()
        return processed

    def _run_heap(self, t: float, watch: Optional[list] = None,
                  ) -> Tuple[int, Optional[float]]:
        """Run every host event due at or before *t* in ``(time,
        host_id)`` order — ``<= t`` exactly, as ``Engine.run_until``.

        With *watch* (an empty escalation queue), stop after the first
        entry that queues an escalation and return its time as well.
        """
        heap = self._heap
        engines = self._engines
        processed = 0
        while heap and heap[0][0] <= t:
            t_ev, host_id = heap[0]
            if host_id in self._inactive:
                # Crashed since this entry was pushed: lazily evicted.
                heapq.heappop(heap)
                self._drop_entry(host_id, t_ev)
                continue
            engine = engines[host_id]
            actual = engine.peek_time()
            if actual != t_ev:
                # Stale: the event ran, was cancelled, or an earlier one
                # was scheduled since this entry was pushed.
                heapq.heappop(heap)
                self._drop_entry(host_id, t_ev)
                if actual is not None:
                    self._push_peek(host_id, actual)
                continue
            heapq.heappop(heap)
            self._drop_entry(host_id, t_ev)
            processed += engine.run_until(t_ev)
            nxt = engine.peek_time()
            if nxt is not None:
                self._push_peek(host_id, nxt)
            if watch:
                return processed, t_ev
        return processed, None
