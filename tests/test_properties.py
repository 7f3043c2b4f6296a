"""Every method end to end on random degenerate fleets.

For each drawn fleet, every method either returns a schedule that passes
`assert_solution_valid` or fails loudly, with the error the CLI reports as
`error: ...` and exit status 1. `dp-ls` must reach the exhaustive
consecutive-block optimum, and `platoon-coord solve` on the saved instance
must write the bytes an in-process `save_solution` writes.

Doubling every price (both per-minute costs and both follower savings) must
leave every schedule as it is and exactly double its money: doubling is
exact in binary floating point whatever the order of the sums, so a
decision that changes, or a figure off by an ulp, means some step depends on
the scale of the prices (an absolute money tolerance in a comparison, say).

The `dp-ls` J is monotone in the route and the prices: one more truck
allowed per platoon, or a horizon 30 min later, only adds candidates, so J
does not fall; a charge minute half again as dear prices every candidate
no higher, so J does not rise. Each relation allows `MONEY_TOL` relative to
R + L, as the solver's own J check does.
"""

import contextlib
import io
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platoon_coord import (
    EconomicParams,
    HorizonExceededError,
    NoFeasibleScheduleError,
    ProblemInstance,
    ScenarioConfig,
    generate,
    load_instance,
    oracle_consecutive,
    oracle_full,
    prepare_fleet,
    save_instance,
    save_solution,
    solve_dp_ls,
    solve_dp_nls,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord.cli import main
from platoon_coord.model import MONEY_TOL
from platoon_coord.verification import FULL_GRID_STEP, tiny_grid_config
from checks import assert_solution_valid
from conftest import fleet_instances
from test_baselines import LARGE_FLEETS

INTERVAL = 30.0  # the CLI's default fixed-interval slot

# method -> in-process solve with the arguments `platoon-coord solve` uses
SOLVERS = {
    "dp-ls": lambda p, inst: solve_dp_ls(p, inst.route, inst.econ),
    "dp-nls": lambda p, inst: solve_dp_nls(p, inst.route, inst.econ, inst.seed),
    "spontaneous": lambda p, inst: solve_spontaneous(p, inst.route, inst.econ, inst.seed),
    "fixed-interval": lambda p, inst: solve_fixed_interval(p, inst.route, inst.econ,
                                                           INTERVAL, inst.seed),
}


def cli_solve(path, method, out):
    """Exit status and standard error of an in-process `platoon-coord solve`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", path, "--method", method, "--out", out])
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(fleet_instances())
def test_every_method_end_to_end(instance):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fleet.json")
        save_instance(instance, path)
        assert load_instance(path) == instance
        for method, solve in SOLVERS.items():
            out = os.path.join(tmp, f"{method}.json")
            code, err = cli_solve(path, method, out)
            try:
                prepared = prepare_fleet(instance)
                solution = solve(prepared, instance)
            except (HorizonExceededError, NoFeasibleScheduleError):
                assert code == 1 and err.startswith("error: "), (method, err)
                assert not os.path.exists(out)
                continue
            assert code == 0, (method, err)
            assert_solution_valid(solution, prepared, instance.route)
            expected = os.path.join(tmp, f"{method}.expected.json")
            save_solution(solution, expected)
            with open(out, "rb") as a, open(expected, "rb") as b:
                assert a.read() == b.read(), method
    try:
        prepared = prepare_fleet(instance)
    except HorizonExceededError:
        return
    try:
        exact = oracle_consecutive(prepared, instance.route, instance.econ)
    except NoFeasibleScheduleError:  # no safe consecutive schedule exists
        with pytest.raises(NoFeasibleScheduleError):
            solve_dp_ls(prepared, instance.route, instance.econ)
        return
    best = solve_dp_ls(prepared, instance.route, instance.econ)
    assert abs(best.utility - exact.utility) <= MONEY_TOL


def doubled(econ):
    return EconomicParams(wait_cost=2 * econ.wait_cost, charge_cost=2 * econ.charge_cost,
                          et_follower_profit=2 * econ.et_follower_profit,
                          ft_follower_profit=2 * econ.ft_follower_profit)


def schedule(solution):
    """Each platoon's members, leader kind and rank, and departure."""
    return [(p.ranks, p.leader_type, p.leader_rank, repr(p.departure_time))
            for p in solution.platoons]


def money(solution, factor=1):
    """`repr` of each platoon's and the fleet's profit, loss and utility,
    each times `factor`."""
    rows = [(p.profit, p.loss, p.utility) for p in solution.platoons]
    rows.append((solution.profit, solution.loss, solution.utility))
    return repr([tuple(factor * x for x in row) for row in rows])


def assert_doubling_keeps_schedule(solve, econ):
    """`solve(econ)` and `solve(doubled(econ))` give the same schedule with
    exactly twice the money, or raise the same error."""
    try:
        base = solve(econ)
    except NoFeasibleScheduleError as exc:
        with pytest.raises(NoFeasibleScheduleError) as raised:
            solve(doubled(econ))
        assert str(raised.value) == str(exc)
        return
    twice = solve(doubled(econ))
    assert schedule(twice) == schedule(base)
    assert money(twice) == money(base, 2)


# method -> solve of a prepared fleet on its route under the given prices
PRICED = {
    "dp-ls": lambda p, route, econ, seed: solve_dp_ls(p, route, econ),
    "dp-nls": solve_dp_nls,
    "spontaneous": solve_spontaneous,
    "fixed-interval": lambda p, route, econ, seed: solve_fixed_interval(
        p, route, econ, INTERVAL, seed),
}


@settings(max_examples=80, deadline=None)
@given(fleet_instances())
def test_doubled_prices_keep_every_schedule(instance):
    try:
        prepared = prepare_fleet(instance)
    except HorizonExceededError:
        return
    route, seed = instance.route, instance.seed
    for solve in PRICED.values():
        assert_doubling_keeps_schedule(lambda econ: solve(prepared, route, econ, seed),
                                       instance.econ)
    assert_doubling_keeps_schedule(lambda econ: oracle_consecutive(prepared, route, econ),
                                   instance.econ)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.sampled_from((0.0, 0.5, 1.0)))
def test_doubled_prices_keep_the_full_search(seed, n_trucks, et_share):
    instance = generate(tiny_grid_config(seed, n_trucks, et_share))
    assert_doubling_keeps_schedule(
        lambda econ: oracle_full(
            ProblemInstance(instance.trucks, instance.route, econ, instance.seed),
            FULL_GRID_STEP),
        instance.econ)


@pytest.mark.parametrize("name", sorted(LARGE_FLEETS))
def test_doubled_prices_keep_large_schedules(name):
    instance = generate(ScenarioConfig(**LARGE_FLEETS[name]))
    prepared = prepare_fleet(instance)
    route, seed = instance.route, instance.seed
    for solve in PRICED.values():
        assert_doubling_keeps_schedule(lambda econ: solve(prepared, route, econ, seed),
                                       instance.econ)


def with_route(instance, **changes):
    return ProblemInstance(instance.trucks, replace(instance.route, **changes),
                           instance.econ, instance.seed)


def dearer_charging(instance):
    """The instance with charging half again as dear, or None when that
    would exceed the wait cost, which prices refuse."""
    econ = instance.econ
    if 1.5 * econ.charge_cost > econ.wait_cost:
        return None
    return ProblemInstance(instance.trucks, instance.route,
                           replace(econ, charge_cost=1.5 * econ.charge_cost), instance.seed)


# relation -> (the changed instance, +1 when its J must not fall, -1 rise)
MONOTONE = {
    "nbar + 1": (lambda inst: with_route(inst, max_platoon_size=inst.route.max_platoon_size + 1),
                 +1),
    "horizon + 30 min": (lambda inst: with_route(inst, horizon=inst.route.horizon + 30.0), +1),
    "ec x 1.5": (dearer_charging, -1),
}


def assert_dp_ls_monotone(instance, changed, direction):
    """The `dp-ls` J of `changed` against that of `instance`, within
    `MONEY_TOL` relative to the instance's R + L. An instance with no safe
    schedule has no J to compare; the changed one keeps every safe schedule,
    so it has one too."""
    try:
        base = solve_dp_ls(prepare_fleet(instance), instance.route, instance.econ)
    except (HorizonExceededError, NoFeasibleScheduleError):
        return
    after = solve_dp_ls(prepare_fleet(changed), changed.route, changed.econ)
    slack = MONEY_TOL * (1.0 + base.profit + base.loss)
    assert direction * (after.utility - base.utility) >= -slack, (base.utility, after.utility)


@pytest.mark.parametrize("relation", sorted(MONOTONE))
@settings(max_examples=60, deadline=None)
@given(fleet_instances())
def test_dp_ls_is_monotone(relation, instance):
    change, direction = MONOTONE[relation]
    changed = change(instance)
    assume(changed is not None)
    assert_dp_ls_monotone(instance, changed, direction)


@pytest.mark.parametrize("relation", sorted(MONOTONE))
@pytest.mark.parametrize("name", sorted(LARGE_FLEETS))
def test_dp_ls_is_monotone_on_large_fleets(name, relation):
    instance = generate(ScenarioConfig(**LARGE_FLEETS[name]))
    change, direction = MONOTONE[relation]
    assert_dp_ls_monotone(instance, change(instance), direction)
