import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from platoon_coord import (
    ContractViolation,
    HorizonExceededError,
    LeaderType,
    NoFeasibleScheduleError,
    ProblemInstance,
    RouteParams,
    ScenarioConfig,
    evaluate_platoon,
    generate,
    leader_feasible,
    oracle_consecutive,
    prepare_fleet,
    solve_dp_ls,
    solve_dp_nls,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord import dp, utility
from platoon_coord.dp import run_dp
from platoon_coord.kernels import block_departure, fleet_arrays
from platoon_coord.utility import price_platoons
from conftest import FOLLOW_NEED, REF_ECON, REF_ROUTE, et, ft, prepare
from checks import assert_solution_valid, reference_prepare_fleet

APPROX = dict(abs=1e-9)


class TestLeaderFeasible:
    def test_topped_up_electric_can_lead(self):
        cmin = (FOLLOW_NEED - 30.0) / 1.07
        p = evaluate_platoon((0, 1), LeaderType.FUEL,
                             prepare([et(1, 100.0 - cmin, soc=30.0), ft(2, 120.0)]), REF_ECON)
        # 20 minutes of top-up lift the ET to 78.304, above the 67.2 bound.
        assert p.ledger[0].departure_soc == pytest.approx(78.304, **APPROX)
        assert leader_feasible(p, LeaderType.ELECTRIC)
        assert leader_feasible(p, LeaderType.FUEL)

    def test_low_soc_electric_cannot_lead(self):
        p = evaluate_platoon((0, 1), LeaderType.FUEL,
                             prepare([ft(1, 10.0), et(2, 12.0, soc=60.0)]), REF_ECON)
        assert not leader_feasible(p, LeaderType.ELECTRIC)

    def test_no_electric_member(self):
        p = evaluate_platoon((0, 1), LeaderType.FUEL, prepare([ft(1, 0.0), ft(2, 1.0)]),
                             REF_ECON)
        assert not leader_feasible(p, LeaderType.ELECTRIC)
        assert leader_feasible(p, LeaderType.FUEL)


class TestSolveDpLs:
    def test_three_truck_fleet(self):
        prepared = prepare([ft(1, 0.0), ft(2, 10.0), et(3, 12.0, soc=60.0)])
        state = run_dp(prepared, REF_ROUTE, REF_ECON, mode=0)
        assert state.values[:4] == pytest.approx([0.0, 0.0, 10.0, 18.4], **APPROX)
        sol = solve_dp_ls(prepared, REF_ROUTE, REF_ECON)
        assert len(sol.platoons) == 1
        p = sol.platoons[0]
        assert p.leader_type is LeaderType.FUEL  # the ET misses the 67.2 bound
        assert p.departure_time == 12.0
        assert sol.utility == pytest.approx(18.4, **APPROX)
        assert_solution_valid(sol, prepared, REF_ROUTE)

    def test_electric_leader_wins_when_safe(self):
        prepared = prepare([ft(1, 0.0), et(2, 0.0, soc=70.0)])
        sol = solve_dp_ls(prepared, REF_ROUTE, REF_ECON)
        assert len(sol.platoons) == 1
        assert sol.platoons[0].leader_type is LeaderType.ELECTRIC
        assert sol.utility == pytest.approx(14.0, **APPROX)

    def test_electric_leader_wins_a_tie(self):
        # Equal follower profits price both leader kinds at 14.
        econ = replace(REF_ECON, et_follower_profit=14.0)
        prepared = prepare([ft(1, 0.0), et(2, 0.0, soc=70.0)], econ=econ)
        sol = solve_dp_ls(prepared, REF_ROUTE, econ)
        assert sol.utility == pytest.approx(14.0, **APPROX)
        assert sol.platoons[0].leader_type is LeaderType.ELECTRIC

    def test_single_truck(self):
        prepared = prepare([ft(1, 5.0)])
        sol = solve_dp_ls(prepared, REF_ROUTE, REF_ECON)
        assert len(sol.platoons) == 1
        assert sol.utility == 0.0

    def test_singleton_option_lower_bounds_values(self):
        cfg = ScenarioConfig(n_trucks=14, et_share=0.5, seed=11,
                             arrival_lo=1, arrival_hi=60, horizon=300.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        state = run_dp(prepared, inst.route, inst.econ, mode=0)
        for i, electric in enumerate(prepared.arrays.is_et.tolist(), start=1):
            solo = evaluate_platoon((i - 1,),
                                    LeaderType.ELECTRIC if electric else LeaderType.FUEL,
                                    prepared, inst.econ)
            assert state.values[i] >= state.values[i - 1] + solo.utility - 1e-9

    def test_work_bound_and_value_consistency(self):
        cfg = ScenarioConfig(n_trucks=40, et_share=0.3, seed=5,
                             arrival_lo=1, arrival_hi=120, horizon=400.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        sol = solve_dp_ls(prepared, inst.route, inst.econ)
        assert sol.diagnostics.dp_updates <= 2 * len(prepared) * inst.route.max_platoon_size
        assert abs(sol.diagnostics.dp_value - sol.utility) <= 1e-9
        assert_solution_valid(sol, prepared, inst.route)

    def test_empty_fleet(self):
        # No instance holds an empty fleet, and a list is no prepared fleet.
        with pytest.raises(ContractViolation, match="prepare_fleet"):
            solve_dp_ls([], REF_ROUTE, REF_ECON)

    def test_solo_et_leaving_alone_on_the_horizon_is_scheduled(self):
        """An ET whose alone-safe departure falls exactly on the horizon may
        still leave alone. Every figure is exact in binary: it needs
        10 + 0.25 * 200 = 60 % to drive alone, and charges the 20 % it lacks
        at 0.5 %/min, so it leaves at 60 + 40 = 100."""
        route = RouteParams(distance=200.0, horizon=100.0, max_platoon_size=8)
        prepared = prepare([et(1, 60.0, soc=40.0, rate=0.5, vrate=0.25)], route=route)
        assert prepared.arrays.alone_depart.tolist() == [100.0]
        for sol in (solve_dp_ls(prepared, route, REF_ECON),
                    solve_dp_nls(prepared, route, REF_ECON, 3)):
            (p,) = sol.platoons
            assert p.leader_type is LeaderType.ELECTRIC and p.departure_time == 100.0
            assert not sol.diagnostics.horizon_violation

    def test_unservable_fleet_raises(self):
        # One weak ET whose alone-safe departure misses the horizon: it can
        # neither leave alone nor find a platoon.
        route = RouteParams(distance=200.0, horizon=130.0, max_platoon_size=8)
        prepared = prepare([et(1, 100.0, soc=30.0)], route=route)
        with pytest.raises(NoFeasibleScheduleError):
            solve_dp_ls(prepared, route, REF_ECON)


class TestSolveDpNls:
    def test_forced_leader_matches_selection(self):
        prepared = prepare([ft(1, 0.0), ft(2, 3.0), ft(3, 20.0), ft(4, 26.0)])
        ls = solve_dp_ls(prepared, REF_ROUTE, REF_ECON)
        for seed in range(5):
            nls = solve_dp_nls(prepared, REF_ROUTE, REF_ECON, seed)
            assert nls.utility == pytest.approx(ls.utility, **APPROX)
            assert [p.ranks for p in nls.platoons] == [p.ranks for p in ls.platoons]

    def test_drawn_leader_hits_both_branches(self):
        prepared = prepare([ft(1, 0.0), et(2, 0.0, soc=70.0)])
        seen = set()
        for seed in range(32):
            sol = solve_dp_nls(prepared, REF_ROUTE, REF_ECON, seed)
            seen.add(round(sol.utility, 6))
        assert seen == {10.0, 14.0}

    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig(n_trucks=30, et_share=0.4, seed=9,
                             arrival_lo=1, arrival_hi=90, horizon=300.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        a = solve_dp_nls(prepared, inst.route, inst.econ, 123)
        b = solve_dp_nls(prepared, inst.route, inst.econ, 123)
        assert a.utility == b.utility
        assert [p.ranks for p in a.platoons] == [p.ranks for p in b.platoons]
        assert [p.leader_type for p in a.platoons] == [p.leader_type for p in b.platoons]

    def test_never_beats_selection(self):
        for seed in range(10):
            cfg = ScenarioConfig(n_trucks=25, et_share=0.5, seed=seed,
                                 arrival_lo=1, arrival_hi=90, horizon=300.0)
            inst = generate(cfg)
            prepared = prepare_fleet(inst)
            ls = solve_dp_ls(prepared, inst.route, inst.econ)
            nls = solve_dp_nls(prepared, inst.route, inst.econ, seed)
            assert ls.utility >= nls.utility - 1e-9
            assert_solution_valid(nls, prepared, inst.route)


# Every entry point that takes a prepared fleet, the oracle's included, called
# on a fleet and a route.
ENTRY_POINTS = {
    "run_dp": lambda fleet, route: run_dp(fleet, route, REF_ECON, mode=0),
    "dp-ls": lambda fleet, route: solve_dp_ls(fleet, route, REF_ECON),
    "dp-nls": lambda fleet, route: solve_dp_nls(fleet, route, REF_ECON, 0),
    "spontaneous": lambda fleet, route: solve_spontaneous(fleet, route, REF_ECON, 0),
    "fixed-interval": lambda fleet, route: solve_fixed_interval(
        fleet, route, REF_ECON, 30.0, 0),
    "fleet_arrays": fleet_arrays,
    "price_platoons": lambda fleet, route: price_platoons(
        fleet, [0], [1], [1], route, REF_ECON),
    "oracle_consecutive": lambda fleet, route: oracle_consecutive(fleet, route, REF_ECON),
}


class TestCheckPrepared:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_record_list_is_refused(self, entry):
        """A list of the fleet's own records, in rank order, is no prepared
        fleet: only `prepare_fleet` makes one."""
        fleet = prepare([ft(1, 0.0), ft(2, 5.0)])
        with pytest.raises(ContractViolation, match="PreparedFleet that prepare_fleet returns"):
            ENTRY_POINTS[entry](reference_prepare_fleet(fleet.instance), REF_ROUTE)

    def test_rank_order_required(self):
        prepared = prepare([ft(1, 0.0), ft(2, 5.0)])
        with pytest.raises(ContractViolation, match="PreparedFleet that prepare_fleet returns"):
            run_dp(reference_prepare_fleet(prepared.instance)[::-1], REF_ROUTE, REF_ECON, mode=0)

    def test_departure_order_required(self):
        a, b = reference_prepare_fleet(prepare([ft(1, 0.0), ft(2, 5.0)]).instance)
        swapped = [b._replace(rank=0), a._replace(rank=1)]
        with pytest.raises(ContractViolation, match="PreparedFleet that prepare_fleet returns"):
            run_dp(swapped, REF_ROUTE, REF_ECON, mode=0)


class TestSolverArguments:
    FLEET = (ft(1, 0.0), et(2, 0.0, soc=90.0), et(3, 4.0, soc=45.0), ft(4, 9.0))

    @pytest.mark.parametrize("mode", [2, -1, "1", None, True, False, 1.0, 0.0])
    def test_run_dp_refuses_a_bad_mode(self, mode):
        """Mode 2 used to fail inside numpy on a broadcast of mismatched
        shapes, and True ran the drawn variant, since True == 1; only the
        ints 0 (best leader) and 1 (drawn) are modes."""
        with pytest.raises(ContractViolation, match="mode must be 0"):
            run_dp(prepare(self.FLEET), REF_ROUTE, REF_ECON, mode)

    @pytest.mark.parametrize("solve", [
        lambda f, seed: solve_dp_nls(f, REF_ROUTE, REF_ECON, seed).platoons,
        lambda f, seed: run_dp(f, REF_ROUTE, REF_ECON, 1, seed).values.tolist(),
        lambda f, seed: solve_spontaneous(f, REF_ROUTE, REF_ECON, seed).platoons,
        lambda f, seed: solve_fixed_interval(f, REF_ROUTE, REF_ECON, 30.0, seed).platoons,
    ], ids=["dp-nls", "run_dp", "spontaneous", "fixed-interval"])
    def test_seeded_solvers_refuse_a_non_integral_seed(self, solve):
        """`solve_dp_nls(seed=1.5)` raised a TypeError from the draw's bit
        mask, and `solve_spontaneous(seed=1.5)` returned a schedule. True ran
        as seed 1, though an instance refuses a bool seed. A numpy integer is
        an integer."""
        fleet = prepare(self.FLEET)
        for seed in (1.5, 2.0, "3", None, True):
            with pytest.raises(ContractViolation, match="seed must be an integer"):
                solve(fleet, seed)
        assert solve(fleet, np.int64(3)) == solve(fleet, 3)


class TestRouteRule:
    """A prepared fleet is solved only on the route it was prepared for: its
    lead need and alone-safe departures hold for that route alone."""

    @pytest.mark.parametrize("change", [dict(distance=300.0), dict(max_platoon_size=4)],
                             ids=["distance", "max_platoon_size"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_another_route_is_refused(self, entry, change):
        fleet = prepare([ft(1, 0.0), et(2, 5.0, soc=90.0), ft(3, 6.0)])
        ENTRY_POINTS[entry](fleet, REF_ROUTE)
        with pytest.raises(ContractViolation, match="the fleet was prepared for"):
            ENTRY_POINTS[entry](fleet, replace(REF_ROUTE, **change))

    def test_an_equal_route_is_accepted(self):
        fleet = prepare([ft(1, 0.0), et(2, 5.0, soc=90.0)])
        equal = RouteParams(distance=200, horizon=1440, max_platoon_size=8,
                            follower_coeff=0.82)
        assert equal is not REF_ROUTE
        assert fleet_arrays(fleet, equal) is fleet.arrays

    @pytest.mark.parametrize("solve", [
        lambda f, r, e: solve_dp_ls(f, r, e),
        lambda f, r, e: solve_dp_nls(f, r, e, 1),
        lambda f, r, e: solve_spontaneous(f, r, e, 1),
        lambda f, r, e: solve_fixed_interval(f, r, e, 30.0, 1),
    ], ids=["dp-ls", "dp-nls", "spontaneous", "fixed-interval"])
    def test_a_longer_route_raises_instead_of_breaking_the_floor(self, solve):
        """Solved on 300 km with the columns of its 200 km route, this fleet
        got dp-ls schedules with 32 ETs arriving below their 10 % floor (down
        to -13.45 %), and a spontaneous one with one such ET. On 300 km the
        fleet cannot even be prepared: a truck's charge runs past the
        horizon."""
        inst = generate(ScenarioConfig(n_trucks=200, seed=1))
        fleet = prepare_fleet(inst)
        longer = replace(inst.route, distance=300.0)
        with pytest.raises(ContractViolation, match="the fleet was prepared for"):
            solve(fleet, longer, inst.econ)
        with pytest.raises(HorizonExceededError):
            prepare_fleet(ProblemInstance._from_columns(inst.columns, longer, inst.econ))


class TestCapAboveFleetSize:
    @pytest.mark.parametrize("solve", [
        solve_dp_ls, lambda p, r, e: solve_dp_nls(p, r, e, 3)])
    def test_cap_beyond_fleet_size_changes_nothing(self, solve):
        # No platoon outgrows the fleet, so a cap of 10**5 must give the
        # schedule of a cap equal to the fleet size, without tables sized by
        # the cap (4 x 10**5 float64 entries alone would take 3.2 MB).
        trucks = [ft(1, 0.0), et(2, 0.0, soc=70.0), et(3, 4.0, soc=45.0), ft(4, 9.0)]
        fit = replace(REF_ROUTE, max_platoon_size=4)
        huge = replace(REF_ROUTE, max_platoon_size=10 ** 5)
        expected = solve(prepare(trucks, route=fit), fit, REF_ECON)
        prepared = prepare(trucks, route=huge)
        tracemalloc.start()
        try:
            got = solve(prepared, huge, REF_ECON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got.platoons == expected.platoons
        assert got.diagnostics.dp_updates == expected.diagnostics.dp_updates
        assert got.diagnostics.dp_value == expected.diagnostics.dp_value
        assert max(p.size for p in got.platoons) > 1


class TestValueInvariant:
    @pytest.mark.parametrize("solve", [
        solve_dp_ls, lambda p, r, e: solve_dp_nls(p, r, e, 3)])
    def test_pricing_drift_raises(self, monkeypatch, solve):
        cfg = ScenarioConfig(n_trucks=40, et_share=0.3, seed=5,
                             arrival_lo=1, arrival_hi=120, horizon=400.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        solve(prepared, inst.route, inst.econ)
        real = dp.price_platoons

        def drifted(*args, **kwargs):
            table = real(*args, **kwargs)
            return replace(table, loss=[loss + 1e-3 for loss in table.loss])

        monkeypatch.setattr(dp, "price_platoons", drifted)
        with pytest.raises(ContractViolation, match="recursion value"):
            solve(prepared, inst.route, inst.econ)


class TestBacktrack:
    @pytest.mark.parametrize("solve", [
        solve_dp_ls, lambda p, r, e: solve_dp_nls(p, r, e, 3)], ids=["dp-ls", "dp-nls"])
    def test_departures_are_computed_once(self, monkeypatch, solve):
        """The pricer computes the chosen blocks' departures and orders the
        blocks by them; the backtrack leaves both to it."""
        calls = []

        def spy(*args):
            calls.append(args)
            return block_departure(*args)

        for module in (dp, utility):
            monkeypatch.setattr(module, "block_departure", spy, raising=False)
        inst = generate(ScenarioConfig(seed=0))
        solve(prepare_fleet(inst), inst.route, inst.econ)
        assert len(calls) == 1
