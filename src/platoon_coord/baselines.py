"""Non-optimizing reference methods: spontaneous and fixed-interval platooning.

Spontaneous platooning never waits: trucks leave the moment they are ready,
and only those sharing the exact same earliest departure end up together.
Fixed-interval platooning cuts the horizon into uniform slots; everything
ready within a slot leaves together at the slot's end. Both respect the same
platoon-size cap and leader-safety rules as the optimizing solvers, and both
draw leader kinds from the same seeded stream keyed by block position.
"""

from __future__ import annotations

import math
import time
from itertools import groupby
from typing import List, Sequence

from .discretize import PreparedTruck
from .kernels import leader_draw_bit
from .model import (
    ContractViolation,
    EconomicParams,
    NoFeasibleScheduleError,
    RouteParams,
    TIME_TOL,
)
from .solution import Diagnostics, Solution
from .utility import (
    LeaderType,
    PlatoonAssignment,
    evaluate_platoon,
    leader_feasible,
    leader_type_for_kind,
)

SPONTANEOUS = "SPONTANEOUS"
FIXED_INTERVAL = "FIXED-INTERVAL"


def _schedule_block(block: Sequence[PreparedTruck], depart_at: float,
                    route: RouteParams, econ: EconomicParams,
                    seed: int) -> List[PlatoonAssignment]:
    """Schedule one block departing together; fall back to solos when no
    member could safely lead it. An ET that cannot drive alone safely even on
    a full battery has no schedule here, which is an error, not a solo."""
    if len(block) == 1:
        kind_leader = leader_type_for_kind(block[0].kind)
        solo = evaluate_platoon(block, kind_leader, route, econ, depart_at=depart_at)
        if not solo.ledger[0].can_lead:
            raise NoFeasibleScheduleError(
                f"truck {block[0].id}: cannot drive alone safely and has no "
                "platoon to follow"
            )
        return [solo]

    probe_type = (LeaderType.FUEL if any(not m.is_electric for m in block)
                  else LeaderType.ELECTRIC)
    probe = evaluate_platoon(block, probe_type, route, econ, depart_at=depart_at)
    ok_e = leader_feasible(probe, LeaderType.ELECTRIC)
    ok_f = leader_feasible(probe, LeaderType.FUEL)
    if not (ok_e or ok_f):
        # All-electric block with no lead-capable member: split rather than
        # send out an unsafe formation.
        return [
            p
            for m in block
            for p in _schedule_block([m], depart_at, route, econ, seed)
        ]
    if ok_e and ok_f:
        i = block[-1].rank + 1
        chosen = LeaderType.ELECTRIC if leader_draw_bit(seed, i, len(block)) else LeaderType.FUEL
    else:
        chosen = LeaderType.ELECTRIC if ok_e else LeaderType.FUEL
    if chosen is probe.leader_type:
        return [probe]
    return [evaluate_platoon(block, chosen, route, econ, depart_at=depart_at)]


def _solve_grouped(method: str, prepared: Sequence[PreparedTruck], slot,
                   route: RouteParams, econ: EconomicParams, seed: int) -> Solution:
    """Send out each run of trucks whose earliest departures share a slot at
    that slot's instant, `slot(earliest_departure)`, in blocks of at most
    nbar trucks."""
    start = time.perf_counter()
    cap = route.max_platoon_size
    platoons: List[PlatoonAssignment] = []
    for depart_at, group in groupby(prepared, key=lambda m: slot(m.earliest_departure)):
        group = list(group)
        for k in range(0, len(group), cap):
            platoons.extend(_schedule_block(group[k:k + cap], depart_at, route, econ, seed))
    diag = Diagnostics(
        solve_ms=(time.perf_counter() - start) * 1e3,
        horizon_violation=any(
            p.departure_time > route.horizon + TIME_TOL for p in platoons
        ),
    )
    return Solution.from_platoons(method, platoons, diag)


def solve_spontaneous(prepared: Sequence[PreparedTruck], route: RouteParams,
                      econ: EconomicParams, seed: int) -> Solution:
    """Depart at the earliest departure; platoon only on exact ties."""
    # The identity, not `float`: an integer arrival stays an integer.
    return _solve_grouped(SPONTANEOUS, prepared, lambda t: t, route, econ, seed)


def _slot_end(ready: float, interval: float) -> float:
    # A truck ready exactly on a slot edge departs immediately: slots are
    # half-open (lo, hi].
    return interval * math.ceil(ready / interval)


def solve_fixed_interval(prepared: Sequence[PreparedTruck], route: RouteParams,
                         econ: EconomicParams, interval: float,
                         seed: int) -> Solution:
    """Group trucks by uniform time slots; each group departs at its slot end.

    A nonempty slot ending past the horizon is still scheduled, but the
    solution is flagged in its diagnostics.
    """
    if not 0 < interval < math.inf:
        raise ContractViolation(f"interval must be positive and finite, got {interval!r}")
    return _solve_grouped(FIXED_INTERVAL, prepared,
                          lambda t: _slot_end(t, interval), route, econ, seed)
