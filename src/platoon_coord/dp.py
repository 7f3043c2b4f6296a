"""Value-recursion solvers over consecutive platoons, with backtracking.

The fleet is scanned in earliest-departure order. For a prefix of i trucks,
the best schedule either ends with a platoon of size n (the last n trucks,
departing when the i-th is ready) on top of the best schedule of the first
i - n trucks, or with that truck alone. Candidates whose electric leader
cannot reach the lead-role SoC bound are skipped. Two variants exist: one
keeps the better leader kind per candidate, the other draws it at random.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .discretize import PreparedFleet
from .kernels import check_seed, fleet_arrays, leader_draw_bits, run_dp_kernel
from .model import (
    MONEY_TOL,
    ContractViolation,
    EconomicParams,
    NoFeasibleScheduleError,
    RouteParams,
)
from .solution import Diagnostics, Solution
from .utility import PlatoonTable, price_platoons
# Not called here; solvebench/spans.py traces `dp.evaluate_platoon` by this name.
from .utility import evaluate_platoon  # noqa: F401

DP_LS = "DP-LS"
DP_NLS = "DP-NLS"


@dataclass
class DpState:
    """Value table and the winning candidate per prefix length."""

    values: np.ndarray        # shape (N + 1,), values[0] == 0
    choice_sizes: np.ndarray  # winning platoon size per prefix, 0 when none
    choice_leaders: np.ndarray  # 0 electric, 1 fuel, -1 when none
    updates: int              # candidate evaluations performed


def run_dp(prepared: PreparedFleet, route: RouteParams,
           econ: EconomicParams, mode: int, seed: int = 0) -> DpState:
    """Fill the value table for the given fleet. mode 0 = best leader, 1 = drawn."""
    if type(mode) is not int or mode not in (0, 1):  # True == 1, but is no mode
        raise ContractViolation(f"mode must be 0 (best leader) or 1 (drawn), got {mode!r}")
    seed = check_seed(seed)
    arr = fleet_arrays(prepared, route)
    # No platoon outgrows the fleet, so a larger cap must not size the tables.
    window = min(route.max_platoon_size, arr.size)
    # A block of the kernel draws its own prefixes' bits, and only when some
    # candidate of it has both leader kinds safe, so the draws take memory
    # by the block, not by the fleet.
    draw = functools.partial(leader_draw_bits, seed) if mode == 1 else None
    return DpState(*run_dp_kernel(arr, econ, window, route.horizon, draw))


def _backtrack(state: DpState, prepared: PreparedFleet,
               route: RouteParams, econ: EconomicParams) -> PlatoonTable:
    """Walk the winning choices back from the full fleet, whose finite value
    gives every prefix on the way a choice, and price the blocks, last first,
    in one `price_platoons` call, which puts them in `Solution` order."""
    choice_sizes = state.choice_sizes.tolist()
    starts, sizes = [], []
    i = len(prepared)
    while i > 0:
        size = choice_sizes[i]
        sizes.append(size)
        i -= size
        starts.append(i)
    starts = np.array(starts, dtype=np.intp)
    sizes = np.array(sizes, dtype=np.intp)
    leaders = state.choice_leaders[starts + sizes]
    return price_platoons(prepared, starts, sizes, leaders, route, econ)


def _solve(prepared, route, econ, mode, seed, method) -> Solution:
    start = time.perf_counter()
    state = run_dp(prepared, route, econ, mode, seed)
    n = len(prepared)
    if not np.isfinite(state.values[n]):
        raise NoFeasibleScheduleError(
            "no combination of platoons and leaders is safe for this fleet"
        )
    table = _backtrack(state, prepared, route, econ)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    diag = Diagnostics(
        dp_updates=state.updates,
        dp_value=float(state.values[n]),
        solve_ms=elapsed_ms,
        backend="numpy",  # kernel label carried in solution files
    )
    solution = Solution.from_table(method, table, diag)
    # The recursion and the backtracked pricing must agree; summation order
    # alone moves J by a few ulps of R + L at fleet scale.
    gap = abs(diag.dp_value - solution.utility)
    if gap > MONEY_TOL * (1.0 + solution.profit + solution.loss):
        raise ContractViolation(
            f"recursion value {diag.dp_value!r} differs from the priced "
            f"schedule's J {solution.utility!r} by {gap:.3e}"
        )
    return solution


def solve_dp_ls(prepared: PreparedFleet, route: RouteParams,
                econ: EconomicParams) -> Solution:
    """Best schedule over consecutive platoons with leader-kind selection."""
    return _solve(prepared, route, econ, mode=0, seed=0, method=DP_LS)


def solve_dp_nls(prepared: PreparedFleet, route: RouteParams,
                 econ: EconomicParams, seed: int) -> Solution:
    """Same recursion, but the leader kind of each candidate is drawn at random
    among the feasible kinds; deterministic for a fixed seed."""
    return _solve(prepared, route, econ, mode=1, seed=seed, method=DP_NLS)
