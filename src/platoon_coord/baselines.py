"""Non-optimizing reference methods: spontaneous and fixed-interval platooning.

Spontaneous platooning never waits: trucks leave the moment they are ready,
and only those sharing the exact same earliest departure end up together.
Fixed-interval platooning cuts the horizon into uniform slots; everything
ready within a slot leaves together at the slot's end. Both respect the same
platoon-size cap and leader-safety rules as the optimizing solvers. The
blocks are laid out in columns: which members of a block of two or more
could lead at their slot's instant comes from one `kernels.member_terms`
call, and every block that either kind may lead draws its kind from one
`kernels.leader_draw_bits` call, keyed by block position like the dp's
candidates. So each block's leader kind is settled before the block is
priced, once.
"""

from __future__ import annotations

import math
import numbers
import time
from typing import List

import numpy as np

from .discretize import PreparedFleet
from .kernels import check_seed, fleet_arrays, leader_draw_bits, member_terms
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
    ranks = np.arange(n)
    slots = slot(arr.tau_delta)
    # Each run of trucks sharing a slot instant is cut every nbar trucks.
    run_first = np.maximum.accumulate(np.where(np.r_[True, slots[1:] != slots[:-1]], ranks, 0))
    starts = np.flatnonzero((ranks - run_first) % route.max_platoon_size == 0)
    sizes = np.diff(starts, append=n)

    # Which kinds may lead each block of two or more, from its members alone.
    multi = sizes > 1
    members = np.flatnonzero(np.repeat(multi, sizes))
    et = arr.is_et == 1
    et_leads = np.zeros(n, bool)
    # A slot end may fall an ulp before a truck is ready; the scalar pricing
    # clamps that slack at 0, so clamp to agree with it.
    depart_at = np.maximum(slots[members], arr.tau_delta[members])
    et_leads[members] = et[members] & member_terms(arr, members, depart_at)[3]
    ok_e = multi & np.logical_or.reduceat(et_leads, starts)
    ok_f = multi & ~np.logical_and.reduceat(et, starts)
    drawn = ok_e & ok_f
    electric = ok_e.copy()
    electric[drawn] = leader_draw_bits(seed, starts[drawn] + sizes[drawn], sizes[drawn]) == 1
    led = ok_e | ok_f

    depart = slots.tolist()
    leader_of = (LeaderType.FUEL, LeaderType.ELECTRIC)  # by `is_et` flag
    platoons: List[PlatoonAssignment] = [
        evaluate_platoon(range(lo, lo + size), leader_of[e], fleet, econ, depart_at=depart[lo])
        for lo, size, e in zip(starts[led].tolist(), sizes[led].tolist(),
                               electric[led].tolist())]
    is_et = arr.is_et.tolist()
    for k in np.flatnonzero(np.repeat(~led, sizes)).tolist():
        solo = evaluate_platoon((k,), leader_of[is_et[k]], fleet, econ, depart_at=depart[k])
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
    if (isinstance(interval, bool) or not isinstance(interval, numbers.Real)
            or not 0 < interval < math.inf):
        raise ContractViolation(
            f"interval must be a positive and finite number, got {interval!r}")
    return _solve_grouped(FIXED_INTERVAL, prepared,
                          lambda t: _slot_end(t, interval), route, econ, seed)
