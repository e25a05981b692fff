"""The dynamic resource arbiter (§3.2).

Enforces the schedule at run time: periodically observes per-tenant usage
on every managed link, computes rate caps that protect admitted floors, and
pushes them into the fabric — after a configurable *decision latency*, the
end-to-end time to sense, decide, and program an enforcement point.  §3.2
Q3 asks how small that latency must be; E7 sweeps it and measures how
isolation degrades as enforcement goes stale.

Allocation rule per managed link (each adjustment round):

1. every guaranteed tenant's cap is at least its floor, always — so a
   returning tenant can start reclaiming immediately;
2. the distributable spare is ``capacity - sum(floors)`` **plus the
   unused part of idle tenants' floors** (ElasticSwitch-style lending:
   guaranteed bandwidth nobody is using works for others);
3. spare is distributed by *demand-aware water-filling*: each tenant's
   spare demand is estimated from its observed usage beyond its floor
   (doubled, to let it grow between rounds, plus a small ramp allowance
   so idle tenants can signal); leftover is split equally.

Lending is what makes the fabric work-conserving, and it is also the
source of the staleness window E7 measures: when an idle guarantee-holder
bursts back, borrowed bandwidth is only reclaimed at the next adjustment
(plus the decision latency), so floors can dip transiently.  Larger
decision latencies mean longer dips — §3.2 Q3 quantified.

Non-work-conserving mode pins guaranteed tenants exactly at their floors
and splits the static spare among best-effort tenants — predictable and
dip-free, but it strands every idle guarantee (the E6/E9 trade-off).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ArbiterError
from ..sim.engine import Event, PeriodicTask
from ..trace.recorder import TRACER
from ..sim.network import SYSTEM_TENANT, FabricNetwork
from ..units import us

#: Usage below this (bytes/s) counts as inactive.
_ACTIVE_EPSILON = 1.0

#: Minimum cap handed to an inactive best-effort tenant so it can ramp up.
_RAMP_ALLOWANCE_FRACTION = 0.02

#: How far beyond observed usage a tenant's spare-demand estimate reaches;
#: 2.0 lets a growing tenant double every adjustment round.
_GROWTH_FACTOR = 2.0

#: A guaranteed tenant using less than this fraction of its floor is
#: *parked*: its unused floor is lent out.  Any usage above the threshold
#: reclaims the floor at the next adjustment — lending on raw usage alone
#: would deadlock (a squeezed owner can never ramp back through borrowed
#: capacity).
_PARK_FRACTION = 0.1


@dataclass(frozen=True)
class LinkAllocation:
    """One adjustment-round outcome for a link (for introspection/tests)."""

    link_id: str
    capacity: float
    floors: Dict[str, float]
    usages: Dict[str, float]
    caps: Dict[str, float]


def compute_caps(
    capacity: float,
    floors: Dict[str, float],
    usages: Dict[str, float],
    best_effort: Set[str],
    work_conserving: bool,
    utilization_ceiling: float = 1.0,
    lend_parked_floors: bool = True,
    demand_aware: bool = True,
) -> Dict[str, float]:
    """The arbiter's per-link allocation rule (see module docstring).

    Args:
        capacity: Per-direction link capacity (bytes/s).
        floors: Guaranteed floor per guaranteed tenant.
        usages: Observed rate per tenant (guaranteed and best-effort).
        best_effort: Tenants present without any floor on this link.
        work_conserving: Whether unused guarantees are redistributable.
        utilization_ceiling: Fraction of capacity the allocator may hand
            out in total.  Latency SLOs compile to ceilings < 1 (queueing
            delay explodes near saturation), trading some work
            conservation for a bounded tail.  Floors always fit first —
            guarantees beat the ceiling if they conflict.
        lend_parked_floors: Whether idle guarantees join the spare
            (the ElasticSwitch-style lending; off = hard reservations).
            Ablation knob — production use leaves it on.
        demand_aware: Whether the spare is water-filled by usage-derived
            demand estimates (off = split equally among active sharers).
            Ablation knob — production use leaves it on.

    Returns:
        Rate cap per tenant (every tenant in *floors* or *best_effort*).
    """
    if not 0 < utilization_ceiling <= 1:
        raise ValueError("utilization_ceiling must be in (0, 1]")
    if (work_conserving and demand_aware and (floors or best_effort)
            and not any(usages.values())):
        best_effort = set(best_effort)
        caps = _zero_usage_caps(capacity, floors,
                                best_effort.difference(floors),
                                utilization_ceiling, lend_parked_floors)
        for tenant in best_effort.intersection(floors):
            # Listed as both, a floor holder keeps the ramp allowance.
            caps[tenant] = max(caps[tenant],
                               capacity * _RAMP_ALLOWANCE_FRACTION)
        return caps
    budget = capacity * utilization_ceiling
    reserved = sum(floors.values())
    spare = max(budget - reserved, 0.0)
    allowance = capacity * _RAMP_ALLOWANCE_FRACTION
    tenants = set(floors) | set(best_effort)

    caps: Dict[str, float] = {}
    if not work_conserving:
        for tenant, floor in floors.items():
            caps[tenant] = floor
        if best_effort:
            be_share = spare / len(best_effort)
            for tenant in best_effort:
                caps[tenant] = max(be_share, allowance)
        return caps

    # Lend *parked* guarantees: a floor whose owner is clearly idle joins
    # the distributable spare.  Reclaim happens one round after the owner
    # shows any real usage again — the staleness window E7 measures.
    if lend_parked_floors:
        spare += sum(
            max(floor - usages.get(tenant, 0.0), 0.0)
            for tenant, floor in floors.items()
            if usages.get(tenant, 0.0) < _PARK_FRACTION * floor
        )

    # Demand-aware water-filling of the spare.  A tenant's estimated spare
    # demand is its observed usage beyond its floor, doubled so it can keep
    # growing, plus the ramp allowance so an idle tenant still gets a
    # toehold to signal demand with.
    if demand_aware:
        estimates = {
            tenant: max(usages.get(tenant, 0.0)
                        - floors.get(tenant, 0.0), 0.0)
            * _GROWTH_FACTOR + allowance
            for tenant in tenants
        }
        allocation = _waterfill(spare, estimates)
    else:
        # Ablation: equal split among active sharers (plus all guaranteed
        # tenants, whose floors must be claimable instantly).
        active = {t for t in tenants
                  if usages.get(t, 0.0) > _ACTIVE_EPSILON}
        sharers = active | set(floors)
        share = spare / len(sharers) if sharers else 0.0
        allocation = {t: (share if t in sharers else allowance)
                      for t in tenants}
    for tenant in tenants:
        caps[tenant] = floors.get(tenant, 0.0) + allocation[tenant]
    for tenant in best_effort:
        caps[tenant] = max(caps[tenant], allowance)
    return caps


def _zero_usage_caps(capacity: float, floors: Dict[str, float],
                     be_only: Set[str], utilization_ceiling: float,
                     lend_parked_floors: bool) -> Dict[str, float]:
    """:func:`compute_caps` (work-conserving, demand-aware) when every
    usage is zero: every floor is parked, so the water-fill is an equal
    split of the (lent) spare.  *be_only* holds no floor."""
    reserved = sum(floors.values())
    spare = max(capacity * utilization_ceiling - reserved, 0.0)
    if lend_parked_floors:
        spare += reserved
    share = spare / (len(floors) + len(be_only))
    caps = {tenant: floor + share for tenant, floor in floors.items()}
    caps.update(dict.fromkeys(
        be_only, max(share, capacity * _RAMP_ALLOWANCE_FRACTION)))
    return caps


def _waterfill(budget: float, demands: Dict[str, float]) -> Dict[str, float]:
    """Classic water-filling: satisfy demands fairly, split any leftover.

    Each round gives every unsatisfied claimant an equal share, capped at
    its demand; leftover re-enters the pool.  Budget remaining after every
    demand is met is split equally among all claimants (so anyone may grow
    past its estimate next round).
    """
    if not demands:
        return {}
    # Fast path: when the pool covers every demand (the common case on a
    # lightly loaded link, and always when usages are zero), the rounds
    # below reduce to demand-plus-equal-bonus in one pass.
    total_demand = sum(demands.values())
    if total_demand <= budget:
        bonus = (budget - total_demand) / len(demands)
        return {tenant: demand + bonus
                for tenant, demand in demands.items()}
    allocation = {tenant: 0.0 for tenant in demands}
    unsatisfied = {t for t, d in demands.items() if d > 0}
    remaining = budget
    while unsatisfied and remaining > 1e-9:
        share = remaining / len(unsatisfied)
        progressed = False
        for tenant in list(unsatisfied):
            need = demands[tenant] - allocation[tenant]
            grant = min(share, need)
            if grant > 0:
                allocation[tenant] += grant
                remaining -= grant
                progressed = True
            if allocation[tenant] >= demands[tenant] - 1e-9:
                unsatisfied.discard(tenant)
        if not progressed:
            break
    if remaining > 1e-9:
        bonus = remaining / len(demands)
        for tenant in allocation:
            allocation[tenant] += bonus
    return allocation


class _LinkState:
    """Everything the arbiter keeps about one directed link.

    Attributes:
        floors: Guaranteed floor per tenant.  A link whose last floor goes
            keeps its record (and its decided caps) but is skipped by the
            round until a floor returns.
        sig: The round inputs :attr:`allocation` was computed from, or
            ``None`` when a floor change (or a lift) forces a recompute.
        allocation: The last computed round outcome.
        caps: The caps decided for this link: installed in the fabric, or
            still in an enforcement batch on its way there.
    """

    __slots__ = ("floors", "sig", "allocation", "caps")

    def __init__(self) -> None:
        self.floors: Dict[str, float] = {}
        self.sig: Optional[tuple] = None
        self.allocation: Optional[LinkAllocation] = None
        self.caps: Dict[str, float] = {}


class DynamicArbiter:
    """Periodic, delayed enforcement of floors over a live fabric.

    Args:
        network: The fabric to control.
        period: Adjustment period (seconds).
        decision_latency: Sense-decide-program delay before newly computed
            caps take effect (seconds) — §3.2 Q3's knob.
        work_conserving: Allocation mode (see :func:`compute_caps`).
    """

    def __init__(
        self,
        network: FabricNetwork,
        period: float = 0.001,
        decision_latency: float = us(10),
        work_conserving: bool = True,
        lend_parked_floors: bool = True,
        demand_aware: bool = True,
        degradation_aware: bool = False,
    ) -> None:
        if not 0 < period < math.inf:
            raise ArbiterError(f"period must be finite and > 0, "
                               f"got {period}")
        if not 0 <= decision_latency < math.inf:
            raise ArbiterError(f"decision_latency must be finite and "
                               f">= 0, got {decision_latency}")
        self.network = network
        self.period = period
        self.decision_latency = decision_latency
        self.work_conserving = work_conserving
        self.lend_parked_floors = lend_parked_floors
        self.demand_aware = demand_aware
        #: Allocate against *effective* (degradation-aware) capacity rather
        #: than the spec sheet.  Off by default — the baseline arbiter
        #: trusts the datasheet, which is exactly the blind spot §3.1's
        #: silent-degradation case exploits; the recovery controller flips
        #: this on so caps stop overcommitting degraded links.
        self.degradation_aware = degradation_aware

        # (link, direction) -> its state.  Links are full duplex, so
        # guarantees are enforced per direction (a 50 Gbps ingress floor
        # must not be satisfiable with egress bandwidth).  Rounds visit
        # links in the order they (re)gained their first floor.
        self._links: Dict[Tuple[str, str], _LinkState] = {}
        # link -> {owner: ceiling}; the strictest owner wins per link.
        self._ceilings: Dict[str, Dict[str, float]] = {}
        self._best_effort: Set[str] = set()
        self._best_effort_version = 0
        self._task: Optional[PeriodicTask] = None
        # (tenant, link, direction) caps installed in the fabric.
        self._capped: Set[tuple] = set()
        # Enforcement batches scheduled but not yet applied, by id.
        self._inflight: Dict[int, Tuple[Event, List[tuple]]] = {}
        # Event-driven cadence: once a round quiesces (skipped — nothing
        # can have changed), the periodic task parks itself; any fabric
        # re-solve or configuration change re-arms it.  An idle host thus
        # schedules no arbiter events at all, which is what lets the
        # fleet's event clock skip it entirely.
        self._running = False
        self._subscribed = False

        # Quiescence: an adjustment round is a pure function of the
        # arbiter's configuration (floors, ceilings, best-effort set,
        # mode flags) and the fabric state (flows, caps, link health —
        # all funnelled through the network's recompute counter).  When
        # neither input has changed since the last computed round, the
        # round would re-derive byte-identical caps, so it is skipped.
        self._config_version = 0
        self._quiesced_state: Optional[tuple] = None
        self._applying = False

        self.adjustments = 0
        self.skipped_adjustments = 0
        self.last_allocations: List[LinkAllocation] = []

    # -- configuration ----------------------------------------------------------

    def _floor_keys(self, link_id: str,
                    direction: Optional[str]) -> List[Tuple[str, str]]:
        if direction is None:
            return [(link_id, "fwd"), (link_id, "rev")]
        if direction not in ("fwd", "rev"):
            raise ArbiterError(f"direction must be fwd/rev/None, "
                               f"got {direction!r}")
        return [(link_id, direction)]

    def add_floor(self, tenant_id: str, link_id: str, bandwidth: float,
                  direction: Optional[str] = None) -> None:
        """Add *bandwidth* to a tenant's guaranteed floor on *link_id*.

        With *direction* (``"fwd"``/``"rev"``) the floor binds one
        direction; without it, the guarantee is installed in both
        directions (bidirectional intents, simple callers).
        """
        if not 0 < bandwidth < math.inf:
            raise ArbiterError(f"floor bandwidth must be finite and > 0, "
                               f"got {bandwidth}")
        self.network.topology.link(link_id)  # validate
        self._config_changed()
        for key in self._floor_keys(link_id, direction):
            state = self._links.get(key)
            if state is None or not state.floors:
                # (Re)gaining a first floor moves the link to the end of
                # the round order.
                state = self._links.pop(key, None) or _LinkState()
                self._links[key] = state
            state.floors[tenant_id] = (state.floors.get(tenant_id, 0.0)
                                       + bandwidth)
            state.sig = None

    def remove_floor(self, tenant_id: str, link_id: str,
                     bandwidth: float,
                     direction: Optional[str] = None) -> None:
        """Subtract *bandwidth* from a floor (removing it at zero)."""
        if not 0 < bandwidth < math.inf:
            raise ArbiterError(f"floor bandwidth must be finite and > 0, "
                               f"got {bandwidth}")
        self._config_changed()
        for key in self._floor_keys(link_id, direction):
            state = self._links.get(key)
            current = state.floors.get(tenant_id) if state else None
            if current is None:
                raise ArbiterError(
                    f"no floor for tenant {tenant_id!r} on "
                    f"{key[0]!r}/{key[1]}"
                )
            remaining = current - bandwidth
            if remaining <= 1e-9:
                del state.floors[tenant_id]
            else:
                state.floors[tenant_id] = remaining
            state.sig = None

    def set_utilization_ceiling(self, owner: str, link_id: str,
                                ceiling: float) -> None:
        """Bound the fraction of *link_id* the allocator may hand out.

        Latency SLOs compile to per-link ceilings: capping utilization
        bounds queueing inflation.  Multiple owners (intents) may set
        ceilings on one link; the strictest applies.  The link must also
        carry at least one floor for the arbiter to manage it.
        """
        if not 0 < ceiling <= 1:
            raise ArbiterError("ceiling must be in (0, 1]")
        self.network.topology.link(link_id)  # validate
        self._config_changed()
        self._ceilings.setdefault(link_id, {})[owner] = ceiling

    def clear_utilization_ceiling(self, owner: str, link_id: str) -> None:
        """Remove one owner's ceiling on *link_id* (no-op if absent)."""
        owners = self._ceilings.get(link_id)
        if owners is not None and owner in owners:
            self._config_changed()
            del owners[owner]
            if not owners:
                del self._ceilings[link_id]

    def ceiling_on(self, link_id: str) -> float:
        """The effective (strictest) ceiling on *link_id*; 1.0 if none."""
        owners = self._ceilings.get(link_id)
        if not owners:
            return 1.0
        return min(owners.values())

    def register_best_effort(self, tenant_id: str) -> None:
        """Mark a tenant as best-effort (subject to caps, no floor)."""
        if tenant_id not in self._best_effort:
            self._config_changed()
            self._best_effort_version += 1
            self._best_effort.add(tenant_id)

    def unregister_best_effort(self, tenant_id: str) -> None:
        """Remove a tenant from best-effort tracking and lift its caps."""
        if tenant_id in self._best_effort:
            self._config_changed()
            self._best_effort_version += 1
            self._best_effort.discard(tenant_id)
        self._clear_installed(
            [key for key in self._capped if key[0] == tenant_id])
        for _event, batch in self._inflight.values():
            batch[:] = [entry for entry in batch if entry[0] != tenant_id]
        for state in self._links.values():
            if state.caps.pop(tenant_id, None) is not None:
                state.sig = None  # a floor holder's cap is re-sent

    def floors_on(self, link_id: str,
                  direction: Optional[str] = None) -> Dict[str, float]:
        """Current floors on *link_id*.

        With *direction*, that direction's floors; without, the per-tenant
        maximum across directions (the effective guarantee level).
        """
        merged: Dict[str, float] = {}
        for key in self._floor_keys(link_id, direction):
            state = self._links.get(key)
            if state is not None:
                for tenant, floor in state.floors.items():
                    merged[tenant] = max(merged.get(tenant, 0.0), floor)
        return merged

    def managed_links(self) -> List[str]:
        """Links with at least one floor (either direction), deduplicated."""
        seen: List[str] = []
        for (link_id, _direction), state in self._links.items():
            if state.floors and link_id not in seen:
                seen.append(link_id)
        return seen

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic adjustment (self-pausing while quiesced)."""
        if self._running:
            raise ArbiterError("arbiter already started")
        self._running = True
        self._arm()
        if not self._subscribed:
            self._subscribed = True
            self.network.on_recompute(self._fabric_changed)

    def _arm(self) -> None:
        if self._task is None:
            self._task = self.network.engine.schedule_every(
                self.period, self.adjust_once, label="arbiter-adjust"
            )

    def _park(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _fabric_changed(self) -> None:
        # Runs on every fabric re-solve — the one signal that can move a
        # quiesced arbiter's inputs (flow rates, link health, caps).  Our
        # own enforcement batch also re-solves; _apply suppresses the
        # self-wake and decides quiescence itself.
        if self._running and not self._applying:
            self._arm()

    def _config_changed(self) -> None:
        # Every configuration mutation funnels through here: bump the
        # round fingerprint and un-park the periodic task.
        self._config_version += 1
        if self._running:
            self._arm()

    def stop(self, lift_caps: bool = True) -> None:
        """Stop adjusting, cancelling enforcement batches still in
        flight; optionally lift every cap the arbiter set."""
        self._running = False
        self._park()
        for event, _batch in self._inflight.values():
            event.cancel()
        self._inflight.clear()
        if lift_caps:
            self._clear_installed(list(self._capped))
        # Cancelled caps never reach the fabric (and lifted ones left it):
        # a restart re-decides every link and re-sends its caps.
        for state in self._links.values():
            state.caps.clear()
            state.sig = None

    # -- the control loop -------------------------------------------------------

    def adjust_once(self) -> List[LinkAllocation]:
        """One sense-decide round; caps apply after ``decision_latency``."""
        if not TRACER.enabled:
            return self._adjust_once_untracked()
        with TRACER.span("arbiter", "adjust", {
            "directed_links": sum(1 for state in self._links.values()
                                  if state.floors),
            "best_effort_tenants": len(self._best_effort),
        }):
            allocations = self._adjust_once_untracked()
            TRACER.annotate(allocations=len(allocations))
            return allocations

    def _input_fingerprint(self) -> tuple:
        """Everything an adjustment round's outcome depends on.

        The mode flags are included by value because the recovery
        controller flips ``degradation_aware`` by direct assignment; the
        network's recompute counter stands in for all fabric state (any
        flow, cap, or link-health change re-solves exactly once).
        """
        self.network.flush_recompute()
        return (
            self._config_version,
            self.work_conserving,
            self.lend_parked_floors,
            self.demand_aware,
            self.degradation_aware,
            self.network.recompute_count,
        )

    def _adjust_once_untracked(self) -> List[LinkAllocation]:
        self.adjustments += 1
        fingerprint = self._input_fingerprint()
        if fingerprint == self._quiesced_state:
            self.skipped_adjustments += 1
            # Quiesced: nothing can move the outcome until a fabric
            # re-solve or a config change, and both re-arm the task.
            self._park()
            return self.last_allocations
        allocations: List[LinkAllocation] = []
        pending: List[tuple] = []
        # On a fabric with no live flows every usage reading is zero; any
        # nonzero rate can only change when the fabric re-solves, so the
        # recompute counter stands in for all usage state.
        fabric_idle = not self.network.active_flows()
        # A link's allocation is a pure function of its floors (a change
        # resets its signature) and these round inputs plus its capacity
        # and ceiling.  Churn moves one link's floors at a time, so most
        # links present an unchanged signature and keep their allocation;
        # only links whose signature moved are recomputed and diffed.
        round_sig = (self._best_effort_version,
                     "idle" if fabric_idle else self.network.recompute_count,
                     self.work_conserving, self.lend_parked_floors,
                     self.demand_aware)
        topology_link = self.network.topology.link
        best_effort = self._best_effort
        idle_split = (fabric_idle and self.work_conserving
                      and self.demand_aware)
        for (link_id, direction), state in self._links.items():
            floors = state.floors
            if not floors:
                continue
            link = topology_link(link_id)
            # By default the arbiter believes the spec sheet; in
            # degradation-aware mode it allocates what the link can
            # actually carry right now.
            capacity = (link.effective_capacity if self.degradation_aware
                        else link.capacity)
            ceiling = self.ceiling_on(link_id)
            sig = (round_sig, capacity, ceiling)
            if state.sig != sig:
                state.sig = sig
                tenants = best_effort.union(floors)
                tenants.discard(SYSTEM_TENANT)
                be_only = best_effort.difference(floors)
                if idle_split:
                    usages = dict.fromkeys(tenants, 0.0)
                    caps = _zero_usage_caps(capacity, floors, be_only,
                                            ceiling, self.lend_parked_floors)
                else:
                    usages = {
                        tenant: self.network.tenant_link_rate(
                            tenant, link_id, direction)
                        for tenant in tenants
                    }
                    caps = compute_caps(
                        capacity=capacity, floors=dict(floors),
                        usages=usages, best_effort=be_only,
                        work_conserving=self.work_conserving,
                        utilization_ceiling=ceiling,
                        lend_parked_floors=self.lend_parked_floors,
                        demand_aware=self.demand_aware,
                    )
                state.allocation = LinkAllocation(
                    link_id=f"{link_id}|{direction}", capacity=capacity,
                    floors=dict(floors), usages=usages, caps=caps,
                )
                decided = state.caps
                for tenant, cap in caps.items():
                    # Within a changed link, most tenants usually keep the
                    # same cap (equal shares of an unchanged pool); only
                    # program the ones that actually moved.
                    if decided.get(tenant) != cap:
                        decided[tenant] = cap
                        pending.append((tenant, link_id, direction, cap))
            allocations.append(state.allocation)

        self.last_allocations = allocations
        # Snapshot the inputs this round sensed, *before* its caps apply:
        # enforcement re-solves a live fabric and moves the rates the next
        # round must sense.  Only _apply may fold its own re-solve into
        # the snapshot, and only when no flow can feel it.
        self._quiesced_state = self._input_fingerprint()
        if pending:
            if self.decision_latency > 0:
                event = self.network.engine.schedule_in(
                    self.decision_latency,
                    lambda batch=pending: self._apply(batch),
                    label="arbiter-apply",
                )
                self._inflight[id(pending)] = (event, pending)
            else:
                self._apply(pending)
        return allocations

    def _apply(self, batch: List[tuple]) -> None:
        # One enforcement round programs every cap in a single fabric
        # re-solve; the incremental solver then only re-solves the
        # components whose caps actually changed since last round.
        # Batches are never merged: an older one applies in full even
        # when a newer one in flight overrides some of its caps.
        self._inflight.pop(id(batch), None)
        if TRACER.enabled:
            TRACER.begin("arbiter", "enforce", {
                "caps": len(batch),
                "tenants": len({entry[0] for entry in batch}),
            })
        # Flush any recompute other components queued before this apply so
        # their listeners (including our own re-arm) run un-suppressed.
        before = self._input_fingerprint()
        self._applying = True
        try:
            with self.network.batch():
                for tenant, link_id, direction, cap in batch:
                    self.network.set_tenant_link_cap(tenant, link_id, cap,
                                                     direction=direction)
                    self._capped.add((tenant, link_id, direction))
            if (before == self._quiesced_state
                    and not self.network.active_flows()):
                # The only thing that moved since the decide round is our
                # own enforcement, and with no live flows the new caps
                # cannot change any reading the next round would sense:
                # fold the apply into the quiesced state instead of waking
                # up just to discover a no-op.
                self._quiesced_state = self._input_fingerprint()
            elif self._running:
                self._arm()
        finally:
            self._applying = False
            if TRACER.enabled:
                TRACER.end()

    def _clear_installed(self, stale: List[tuple]) -> None:
        with self.network.batch():
            for key in stale:
                self.network.clear_tenant_link_cap(*key)
                self._capped.discard(key)

    def lift_link_caps(self, link_id: str) -> None:
        """Lift every cap on *link_id* (after its last floor is released).

        Caps still in flight to the link are dropped too, and the link's
        decided caps are forgotten so a round re-decides it.
        """
        self._clear_installed(
            [key for key in self._capped if key[1] == link_id])
        for _event, batch in self._inflight.values():
            batch[:] = [entry for entry in batch if entry[1] != link_id]
        for key in self._floor_keys(link_id, None):
            state = self._links.get(key)
            if state is not None and state.caps:
                state.caps.clear()
                state.sig = None
