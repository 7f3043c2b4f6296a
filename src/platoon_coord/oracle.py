"""Exhaustive reference solvers, small fleets only.

`oracle_consecutive` enumerates every composition of the ordered fleet into
consecutive blocks plus every safe leader kind per block: the exact search
space of the value recursion, explored without it. `oracle_full` goes further
for tiny fleets, enumerating arbitrary (not necessarily consecutive) groups
and a grid of common departure times, which bounds what any scheduler of this
family could achieve.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Sequence

from .discretize import PreparedFleet, prepare_fleet
from .kernels import fleet_arrays
from .model import (
    ContractViolation,
    EconomicParams,
    NoFeasibleScheduleError,
    ProblemInstance,
    RouteParams,
    TIME_TOL,
)
from .solution import Diagnostics, Solution
from .utility import (
    LeaderType,
    PlatoonAssignment,
    evaluate_platoon,
    leader_feasible,
)

ORACLE = "ORACLE"

CONSECUTIVE_MAX_TRUCKS = 20
FULL_MAX_TRUCKS = 5
FULL_MAX_GRID = 40


def _best_assignment(group: Sequence[int], instants: Sequence[float],
                     fleet: PreparedFleet, econ) -> Optional[PlatoonAssignment]:
    """Best safe assignment of the trucks at ranks `group` departing at one
    of `instants` (those before the group is ready are skipped), or None
    when none is safe. Earlier instants, then electric leaders, win ties."""
    lists = fleet.column_lists()
    ready = max(lists.tau_delta[r] for r in group)
    kinds = {LeaderType.ELECTRIC if lists.is_et[r] else LeaderType.FUEL for r in group}
    horizon = fleet.instance.route.horizon
    best = None
    for t in instants:
        if t < ready - TIME_TOL:
            continue
        for leader in (LeaderType.ELECTRIC, LeaderType.FUEL):
            if leader not in kinds:
                continue
            cand = evaluate_platoon(group, leader, fleet, econ, depart_at=t)
            if cand.departure_time > horizon + TIME_TOL:
                continue
            if not leader_feasible(cand, leader):
                continue
            if best is None or cand.utility > best.utility:
                best = cand
    return best


def oracle_consecutive(prepared: PreparedFleet, route: RouteParams,
                       econ: EconomicParams) -> Solution:
    """Exhaustive optimum over consecutive blocks and leader kinds, each
    block priced by the scalar `evaluate_platoon`. Like the solvers, it
    refuses any other form of a fleet, and any route but the fleet's
    (`kernels.fleet_arrays`)."""
    fleet_arrays(prepared, route)
    n = len(prepared)
    if n > CONSECUTIVE_MAX_TRUCKS:
        raise ContractViolation(
            f"refusing exhaustive search beyond {CONSECUTIVE_MAX_TRUCKS} trucks"
        )
    start = time.perf_counter()
    tau = prepared.column_lists().tau_delta
    nbar = route.max_platoon_size

    # Block table indexed [last][size]; None marks an unsafe block.
    blocks = [[None] * (min(i, nbar) + 1) for i in range(n + 1)]
    for i in range(1, n + 1):
        for size in range(1, min(i, nbar) + 1):
            members = range(i - size, i)
            blocks[i][size] = _best_assignment(
                members, [max(tau[r] for r in members)], prepared, econ)

    best_total = -float("inf")
    best_split: Optional[List[int]] = None
    split: List[int] = []

    def explore(i: int, total: float) -> None:
        nonlocal best_total, best_split
        if i == 0:
            if total > best_total:
                best_total = total
                best_split = list(split)
            return
        for size in range(1, min(i, nbar) + 1):
            block = blocks[i][size]
            if block is None:
                continue
            split.append(size)
            explore(i - size, total + block.utility)
            split.pop()

    explore(n, 0.0)
    if best_split is None:
        raise NoFeasibleScheduleError("no safe schedule exists for this fleet")

    # The blocks, last first; `from_platoons` puts them in departure order.
    platoons = []
    i = n
    for size in best_split:
        platoons.append(blocks[i][size])
        i -= size
    diag = Diagnostics(solve_ms=(time.perf_counter() - start) * 1e3, dp_value=best_total)
    return Solution.from_platoons(ORACLE, platoons, diag)


def _partitions(items: Sequence[int], cap: int):
    """All set partitions with group sizes <= cap, in canonical order."""
    parts: List[List[int]] = []

    def rec(idx: int):
        if idx == len(items):
            yield [list(p) for p in parts]
            return
        for p in parts:
            if len(p) < cap:
                p.append(items[idx])
                yield from rec(idx + 1)
                p.pop()
        parts.append([items[idx]])
        yield from rec(idx + 1)
        parts.pop()

    yield from rec(0)


def oracle_full(instance: ProblemInstance, time_grid_step: float) -> Solution:
    """Exhaustive optimum over arbitrary groups and gridded departure times.

    The grid holds every multiple of `time_grid_step` inside the horizon plus
    every earliest departure and every safe solo departure, so every candidate
    the other solvers can produce is representable. A step that is not
    positive and finite is a `ContractViolation`.
    """
    route, econ = instance.route, instance.econ
    n = len(instance.columns.ids)
    if n > FULL_MAX_TRUCKS:
        raise ContractViolation(
            f"refusing exhaustive search beyond {FULL_MAX_TRUCKS} trucks"
        )
    if not 0 < time_grid_step < math.inf:
        raise ContractViolation(
            f"grid step must be positive and finite, got {time_grid_step!r}")
    if route.horizon / time_grid_step > FULL_MAX_GRID:
        raise ContractViolation(
            f"grid must have at most {FULL_MAX_GRID} steps over the horizon"
        )
    start = time.perf_counter()
    fleet = prepare_fleet(instance)
    lists = fleet.column_lists()

    # A fuel truck's alone departure is its earliest one.
    grid = {*lists.tau_delta, *lists.alone_depart}
    k = 0
    while k * time_grid_step <= route.horizon + TIME_TOL:
        grid.add(k * time_grid_step)
        k += 1
    grid = sorted(t for t in grid if t <= route.horizon + TIME_TOL)

    best_total = -float("inf")
    best_platoons: Optional[List[PlatoonAssignment]] = None
    for partition in _partitions(range(n), route.max_platoon_size):
        assignments = []
        total = 0.0
        for group in partition:
            choice = _best_assignment(group, grid, fleet, econ)
            if choice is None:
                assignments = None
                break
            assignments.append(choice)
            total += choice.utility
        if assignments is not None and total > best_total:
            best_total = total
            best_platoons = assignments

    if best_platoons is None:
        raise NoFeasibleScheduleError("no safe schedule exists for this fleet")
    diag = Diagnostics(solve_ms=(time.perf_counter() - start) * 1e3,
                       dp_value=best_total)
    return Solution.from_platoons(ORACLE, best_platoons, diag)
