"""Every method end to end on random degenerate fleets.

For each drawn fleet, every method either returns a schedule that passes
`assert_solution_valid` or fails loudly, with the error the CLI reports as
`error: ...` and exit status 1. `dp-ls` must reach the exhaustive
consecutive-block optimum, and `platoon-coord solve` on the saved instance
must write the bytes an in-process `save_solution` writes.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings

from platoon_coord import (
    HorizonExceededError,
    NoFeasibleScheduleError,
    load_instance,
    oracle_consecutive,
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
from checks import assert_solution_valid
from conftest import fleet_instances

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
