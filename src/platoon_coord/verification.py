"""Randomized cross-checks of the fast solver against the exhaustive oracles.

Each check sweeps seeded random fleets that are small enough for exhaustive
search and compares outcomes at tight tolerances. The CLI `verify` command
and the test suite both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discretize import prepare_fleet
from .dp import solve_dp_ls
from .model import MONEY_TOL, ContractViolation
from .oracle import oracle_consecutive, oracle_full
from .scenario import ScenarioConfig, generate

# Minutes between the full search's departure instants: 20 steps over the
# 40-minute horizon of `tiny_grid_config`.
FULL_GRID_STEP = 2.0
_NBAR_CYCLE = (2, 3, 8)
_SHARE_CYCLE = (0.25, 0.5, 0.75)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def small_mixed_config(seed: int, n_trucks: int, nbar: int,
                       et_share: float) -> ScenarioConfig:
    return ScenarioConfig(
        n_trucks=n_trucks,
        et_share=et_share,
        arrival_lo=1,
        arrival_hi=60,
        horizon=200.0,
        max_platoon_size=nbar,
        seed=seed,
    )


def tiny_grid_config(seed: int, n_trucks: int, et_share: float) -> ScenarioConfig:
    return ScenarioConfig(
        n_trucks=n_trucks,
        et_share=et_share,
        arrival_lo=1,
        arrival_hi=30,
        horizon=40.0,
        max_platoon_size=4,
        seed=seed,
    )


def _check_trials(trials: int) -> None:
    """`ContractViolation` for a trial count below 1, which would pass
    without checking a fleet."""
    if trials < 1:
        raise ContractViolation(f"trials must be >= 1, got {trials}")


def check_dp_vs_consecutive(trials: int = 200, seed: int = 0) -> CheckResult:
    """Solver value and recovered schedule must match the exhaustive optimum
    over its own search space exactly."""
    _check_trials(trials)
    worst = 0.0
    for k in range(trials):
        cfg = small_mixed_config(
            seed=seed + k,
            n_trucks=4 + k % 9,
            nbar=_NBAR_CYCLE[k % 3],
            et_share=_SHARE_CYCLE[k % 3],
        )
        instance = generate(cfg)
        prepared = prepare_fleet(instance)
        fast = solve_dp_ls(prepared, instance.route, instance.econ)
        exact = oracle_consecutive(prepared, instance.route, instance.econ)
        diff = max(abs(fast.diagnostics.dp_value - exact.utility),
                   abs(fast.utility - exact.utility))
        worst = max(worst, diff)
        if diff > MONEY_TOL:
            return CheckResult(
                "dp-vs-consecutive", False,
                f"trial {k} (seed {cfg.seed}): solver {fast.utility!r} vs "
                f"exhaustive {exact.utility!r}, diff {diff:.3e}",
            )
    return CheckResult(
        "dp-vs-consecutive", True,
        f"{trials} fleets matched exhaustive search (worst diff {worst:.3e})",
    )


def check_ft_only_exact(trials: int = 50, seed: int = 0) -> CheckResult:
    """On fuel-only fleets the solver must match the unrestricted optimum."""
    _check_trials(trials)
    worst = 0.0
    for k in range(trials):
        cfg = tiny_grid_config(seed=seed + k, n_trucks=2 + k % 4, et_share=0.0)
        instance = generate(cfg)
        prepared = prepare_fleet(instance)
        fast = solve_dp_ls(prepared, instance.route, instance.econ)
        full = oracle_full(instance, FULL_GRID_STEP)
        diff = abs(fast.utility - full.utility)
        worst = max(worst, diff)
        if diff > MONEY_TOL:
            return CheckResult(
                "ft-only-exact", False,
                f"trial {k} (seed {cfg.seed}): solver {fast.utility!r} vs "
                f"full search {full.utility!r}, diff {diff:.3e}",
            )
    return CheckResult(
        "ft-only-exact", True,
        f"{trials} fuel-only fleets matched full search (worst diff {worst:.3e})",
    )


def check_mixed_upper_bound(trials: int = 50, seed: int = 0) -> CheckResult:
    """On mixed fleets the solver may be suboptimal but never above the full
    search; the observed gap is reported, not bounded."""
    _check_trials(trials)
    worst_gap = 0.0
    for k in range(trials):
        cfg = tiny_grid_config(seed=seed + k, n_trucks=2 + k % 4, et_share=0.5)
        instance = generate(cfg)
        prepared = prepare_fleet(instance)
        fast = solve_dp_ls(prepared, instance.route, instance.econ)
        full = oracle_full(instance, FULL_GRID_STEP)
        if fast.utility > full.utility + MONEY_TOL:
            return CheckResult(
                "mixed-upper-bound", False,
                f"trial {k} (seed {cfg.seed}): solver {fast.utility!r} exceeds "
                f"full search {full.utility!r}",
            )
        gap = full.utility - fast.utility
        rel = gap / max(1.0, abs(full.utility))
        worst_gap = max(worst_gap, rel)
    return CheckResult(
        "mixed-upper-bound", True,
        f"{trials} mixed fleets stayed below full search "
        f"(worst relative gap {worst_gap:.4f})",
    )
