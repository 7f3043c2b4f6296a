"""Non-optimizing reference methods: spontaneous and fixed-interval platooning.

Spontaneous platooning never waits: trucks leave the moment they are ready,
and only those sharing the exact same earliest departure end up together.
Fixed-interval platooning cuts the horizon into uniform slots; everything
ready within a slot leaves together at the slot's end. Both respect the same
platoon-size cap and leader-safety rules as the optimizing solvers: which
trucks could lead at their slot's instant comes from `kernels.member_terms`,
so each block's leader kind, drawn from the same seeded stream keyed by block
position, is settled before the block is priced, once.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

from .discretize import PreparedFleet
from .kernels import check_seed, fleet_arrays, leader_draw_bit, member_terms
from .model import (
    ContractViolation,
    EconomicParams,
    NoFeasibleScheduleError,
    RouteParams,
    TIME_TOL,
)
from .solution import Diagnostics, Solution
from .utility import LeaderType, PlatoonAssignment, evaluate_platoon

SPONTANEOUS = "SPONTANEOUS"
FIXED_INTERVAL = "FIXED-INTERVAL"


def _solve_grouped(method: str, fleet: PreparedFleet, slot,
                   route: RouteParams, econ: EconomicParams, seed: int) -> Solution:
    """Send out each run of trucks whose earliest departures share a slot at
    that slot's instant, `slot(tau_delta)`, in blocks of at most
    nbar trucks. A fuel truck may lead a block that has one, and an ET a
    block in which some ET can lead (whichever kind leads); the draw picks
    when both may, and a block neither may lead leaves as solos. An ET that
    cannot drive alone safely even on a full battery is an error."""
    start = time.perf_counter()
    seed = check_seed(seed)
    arr = fleet_arrays(fleet, route)
    n = arr.size
    slots = slot(arr.tau_delta)
    depart = slots.tolist()
    # A slot end may fall an ulp before a truck is ready; the scalar pricing
    # clamps that slack at 0, so clamp to agree with it.
    can_lead = member_terms(arr, np.arange(n), np.maximum(slots, arr.tau_delta))[3]
    et, et_leads = arr.is_et.tolist(), (arr.is_et & can_lead).tolist()
    # Where each run of trucks sharing a slot instant begins.
    runs = [0, *(np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist(), n]
    cap = route.max_platoon_size
    platoons: List[PlatoonAssignment] = []
    for first, end in zip(runs, runs[1:]):
        depart_at = depart[first]
        for lo in range(first, end, cap):
            hi = min(lo + cap, end)
            if hi - lo > 1:
                ok_e, ok_f = any(et_leads[lo:hi]), not all(et[lo:hi])
                if ok_e or ok_f:
                    electric = ok_e and (not ok_f or leader_draw_bit(seed, hi, hi - lo))
                    platoons.append(evaluate_platoon(
                        range(lo, hi), LeaderType.ELECTRIC if electric else LeaderType.FUEL,
                        fleet, econ, depart_at=depart_at))
                    continue
            for k in range(lo, hi):
                solo = evaluate_platoon(
                    (k,), LeaderType.ELECTRIC if et[k] else LeaderType.FUEL,
                    fleet, econ, depart_at=depart_at)
                if not solo.ledger[0].can_lead:
                    raise NoFeasibleScheduleError(
                        f"truck {fleet.ids[k]}: cannot drive alone safely and has no "
                        "platoon to follow"
                    )
                platoons.append(solo)
    diag = Diagnostics(
        solve_ms=(time.perf_counter() - start) * 1e3,
        horizon_violation=any(
            p.departure_time > route.horizon + TIME_TOL for p in platoons
        ),
    )
    return Solution.from_platoons(method, platoons, diag)


def solve_spontaneous(prepared: PreparedFleet, route: RouteParams,
                      econ: EconomicParams, seed: int) -> Solution:
    """Depart at the earliest departure; platoon only on exact ties."""
    return _solve_grouped(SPONTANEOUS, prepared, lambda t: t, route, econ, seed)


def _slot_end(ready: np.ndarray, interval: float) -> np.ndarray:
    # A truck ready exactly on a slot edge departs immediately: slots are
    # half-open (lo, hi].
    return interval * np.ceil(ready / interval)


def solve_fixed_interval(prepared: PreparedFleet, route: RouteParams,
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
