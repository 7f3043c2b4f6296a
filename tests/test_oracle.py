from dataclasses import replace

import pytest

from platoon_coord import (
    ContractViolation,
    NoFeasibleScheduleError,
    ProblemInstance,
    RouteParams,
    ScenarioConfig,
    generate,
    oracle_consecutive,
    oracle_full,
    prepare_fleet,
    solve_dp_ls,
    solve_spontaneous,
)
from platoon_coord.verification import (
    check_dp_vs_consecutive,
    check_ft_only_exact,
    check_mixed_upper_bound,
    small_mixed_config,
    tiny_grid_config,
)
from checks import assert_solution_valid
from conftest import REF_ECON, REF_ROUTE, UNLEADABLE, et, ft, prepare

APPROX = dict(abs=1e-9)


class TestOracleConsecutive:
    def test_matches_solver_on_reference_fleet(self):
        prepared = prepare([ft(1, 0.0), ft(2, 10.0), et(3, 12.0, soc=60.0)])
        exact = oracle_consecutive(prepared, REF_ROUTE, REF_ECON)
        assert exact.utility == pytest.approx(18.4, **APPROX)
        assert [p.ranks for p in exact.platoons] == [(0, 1, 2)]
        fast = solve_dp_ls(prepared, REF_ROUTE, REF_ECON)
        assert exact.utility == pytest.approx(fast.utility, **APPROX)

    def test_single_truck(self):
        prepared = prepare([ft(1, 3.0)])
        exact = oracle_consecutive(prepared, REF_ROUTE, REF_ECON)
        assert exact.utility == 0.0
        assert len(exact.platoons) == 1

    def test_fuel_pair_break_even(self):
        # Pairing two fuel trucks pays off iff the follower saving beats the
        # waiting cost of the gap; at gap = 14 / 0.4 = 35 both choices tie at 0.
        for gap, sign in ((34.0, 1), (35.0, 0), (36.0, -1)):
            prepared = prepare([ft(1, 0.0), ft(2, gap)])
            exact = oracle_consecutive(prepared, REF_ROUTE, REF_ECON)
            paired = 14.0 - 0.4 * gap
            if sign > 0:
                assert exact.utility == pytest.approx(paired, **APPROX)
            else:
                assert exact.utility == pytest.approx(max(paired, 0.0), **APPROX)
        prepared = prepare([ft(1, 0.0), ft(2, 35.0)])
        exact = oracle_consecutive(prepared, REF_ROUTE, REF_ECON)
        assert exact.utility == pytest.approx(0.0, **APPROX)
        # Tie between pairing and going solo: both solvers prefer the
        # smaller platoon first and must agree.
        fast = solve_dp_ls(prepared, REF_ROUTE, REF_ECON)
        assert [p.ranks for p in exact.platoons] == [(0,), (1,)]
        assert [p.ranks for p in fast.platoons] == [(0,), (1,)]

    def test_size_refusal(self):
        prepared = prepare([ft(i, float(i)) for i in range(1, 22)])
        with pytest.raises(ContractViolation):
            oracle_consecutive(prepared, REF_ROUTE, REF_ECON)


    def test_another_route_is_refused(self):
        """Searched on 280 km with the columns of its 200 km route, this
        fleet got a schedule with four ETs arriving below their 10 % floor
        (down to -8.76 %). The oracle refuses another route as the solvers
        do."""
        inst = generate(small_mixed_config(0, 12, 4, 0.75))
        prepared = prepare_fleet(inst)
        with pytest.raises(ContractViolation, match="the fleet was prepared for"):
            oracle_consecutive(prepared, replace(inst.route, distance=280.0), inst.econ)
        exact = oracle_consecutive(prepared, inst.route, inst.econ)
        assert_solution_valid(exact, prepared, inst.route)


class TestOracleFull:
    def test_single_truck_departs_when_ready(self):
        inst = ProblemInstance(trucks=(ft(1, 7.0),),
                               route=RouteParams(distance=200.0, horizon=40.0,
                                                 max_platoon_size=4),
                               econ=REF_ECON)
        sol = oracle_full(inst, 2.0)
        assert sol.utility == 0.0
        assert sol.platoons[0].departure_time == 7.0

    def test_upper_bounds_solver_on_mixed_fleets(self):
        for seed in range(12):
            cfg = ScenarioConfig(n_trucks=2 + seed % 4, et_share=0.5, seed=seed,
                                 arrival_lo=1, arrival_hi=30, horizon=40.0,
                                 max_platoon_size=4)
            inst = generate(cfg)
            prepared = prepare_fleet(inst)
            fast = solve_dp_ls(prepared, inst.route, inst.econ)
            full = oracle_full(inst, 2.0)
            assert fast.utility <= full.utility + 1e-9

    def test_matches_solver_on_fuel_only_fleets(self):
        for seed in range(12):
            cfg = ScenarioConfig(n_trucks=2 + seed % 4, et_share=0.0, seed=seed,
                                 arrival_lo=1, arrival_hi=30, horizon=40.0,
                                 max_platoon_size=4)
            inst = generate(cfg)
            prepared = prepare_fleet(inst)
            fast = solve_dp_ls(prepared, inst.route, inst.econ)
            full = oracle_full(inst, 2.0)
            assert fast.utility == pytest.approx(full.utility, **APPROX)

    def test_can_beat_adjacency_when_interleaved(self):
        # An arrival pattern where grouping non-adjacent trucks would win is
        # the reason the full search exists; it must never fall below the
        # consecutive optimum.
        inst = ProblemInstance(
            trucks=(ft(1, 1.0), et(2, 2.0, soc=20.0), ft(3, 3.0)),
            route=RouteParams(distance=200.0, horizon=40.0, max_platoon_size=2),
            econ=REF_ECON,
        )
        prepared = prepare_fleet(inst)
        fast = solve_dp_ls(prepared, inst.route, inst.econ)
        full = oracle_full(inst, 1.0)
        assert full.utility >= fast.utility - 1e-9

    def test_size_refusals(self):
        inst = ProblemInstance(trucks=tuple(ft(i, float(i)) for i in range(1, 7)),
                               route=RouteParams(distance=200.0, horizon=40.0,
                                                 max_platoon_size=4),
                               econ=REF_ECON)
        with pytest.raises(ContractViolation):
            oracle_full(inst, 2.0)
        small = ProblemInstance(trucks=(ft(1, 1.0),),
                                route=RouteParams(distance=200.0, horizon=1440.0,
                                                  max_platoon_size=4),
                                econ=REF_ECON)
        with pytest.raises(ContractViolation):
            oracle_full(small, 1.0)  # 1440 grid points is beyond the cap

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf"), 0.0, -2.0])
    def test_grid_step_must_be_positive_and_finite(self, step):
        # A NaN or infinite step passed the grid-size test and searched a grid
        # with no multiple of the step in it.
        inst = generate(tiny_grid_config(3, 4, 0.5))
        with pytest.raises(ContractViolation, match="grid step must be positive and finite"):
            oracle_full(inst, step)


def test_unschedulable_fleet_is_no_feasible_schedule():
    # Two ETs that can follow but never lead or drive alone: no method has a
    # safe schedule, and the oracles say so as the solvers do, not as a
    # broken precondition.
    inst = ProblemInstance(
        trucks=(et(1, 0.0, soc=60.0, vrate=UNLEADABLE),
                et(2, 0.0, soc=60.0, vrate=UNLEADABLE)),
        route=RouteParams(distance=200.0, horizon=90.0, max_platoon_size=4),
        econ=REF_ECON,
    )
    prepared = prepare_fleet(inst)
    for solve in (lambda: oracle_consecutive(prepared, inst.route, inst.econ),
                  lambda: oracle_full(inst, 3.0),
                  lambda: solve_dp_ls(prepared, inst.route, inst.econ),
                  lambda: solve_spontaneous(prepared, inst.route, inst.econ, 0)):
        with pytest.raises(NoFeasibleScheduleError):
            solve()


@pytest.mark.parametrize("check", [check_dp_vs_consecutive, check_ft_only_exact,
                                   check_mixed_upper_bound])
@pytest.mark.parametrize("trials", [0, -3])
def test_verification_refuses_trial_counts_below_one(check, trials):
    """A check of no fleet would pass without checking anything."""
    with pytest.raises(ContractViolation, match=f"^trials must be >= 1, got {trials}$"):
        check(trials=trials)
