import pytest

from platoon_coord import (
    ContractViolation,
    ScenarioConfig,
    generate,
    prepare_fleet,
    solve_fixed_interval,
    solve_spontaneous,
)
from conftest import LEAD_NEED, REF_ECON, REF_ROUTE, et, ft, prepare
from checks import assert_solution_valid

APPROX = dict(abs=1e-9)


class TestSpontaneous:
    def test_platoons_form_on_exact_ties(self):
        prepared = prepare([ft(1, 5.0), ft(2, 5.0), ft(3, 9.0)])
        sol = solve_spontaneous(prepared, REF_ROUTE, REF_ECON, seed=0)
        assert [p.ranks for p in sol.platoons] == [(0, 1), (2,)]
        assert sol.platoons[0].departure_time == 5.0
        assert sol.platoons[0].utility == pytest.approx(14.0, **APPROX)
        assert sol.platoons[1].utility == 0.0
        assert sol.utility == pytest.approx(14.0, **APPROX)

    def test_distinct_departures_stay_solo(self):
        prepared = prepare([ft(1, 1.0), et(2, 2.0, soc=80.0), ft(3, 3.0)])
        sol = solve_spontaneous(prepared, REF_ROUTE, REF_ECON, seed=0)
        assert all(p.size == 1 for p in sol.platoons)
        # Ready ETs and fuel trucks pay nothing when leaving alone.
        assert sol.utility == 0.0

    def test_oversized_tie_group_is_chunked(self):
        prepared = prepare([ft(i, 50.0) for i in range(1, 10)])
        sol = solve_spontaneous(prepared, REF_ROUTE, REF_ECON, seed=0)
        assert sorted(p.size for p in sol.platoons) == [1, 8]

    def test_zero_waiting_and_minimum_charging(self):
        cfg = ScenarioConfig(n_trucks=60, et_share=0.4, seed=2,
                             arrival_lo=1, arrival_hi=30, horizon=300.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        sol = solve_spontaneous(prepared, inst.route, inst.econ, seed=2)
        assert_solution_valid(sol, prepared, inst.route)
        by_rank = {m.rank: m for m in prepared}
        for p in sol.platoons:
            for row in p.ledger:
                assert row.wait_time == pytest.approx(0.0, **APPROX)
                if row.departure_soc is not None and p.size > 1:
                    assert row.charge_time == pytest.approx(
                        by_rank[row.rank].min_charge_time, **APPROX)

    def test_weak_solo_electric_charges_to_alone_level(self):
        (member,) = prepare([et(1, 10.0, soc=30.0)])
        sol = solve_spontaneous([member], REF_ROUTE, REF_ECON, seed=0)
        row = sol.platoons[0].ledger[0]
        assert row.charge_time == pytest.approx((LEAD_NEED - 30.0) / 1.07, **APPROX)
        assert row.wait_time == pytest.approx(0.0, **APPROX)
        assert row.arrival_soc >= 10.0 - 1e-9

    def test_unleadable_tie_group_splits_into_solos(self):
        # Two weak ETs share a departure; neither can lead at that instant,
        # so each leaves alone with the alone-safe charge.
        prepared = prepare([et(1, 10.0, soc=30.0), et(2, 10.0, soc=30.0)])
        sol = solve_spontaneous(prepared, REF_ROUTE, REF_ECON, seed=0)
        assert [p.size for p in sol.platoons] == [1, 1]
        for p in sol.platoons:
            assert p.ledger[0].arrival_soc >= 10.0 - 1e-9

    def test_empty_fleet(self):
        sol = solve_spontaneous([], REF_ROUTE, REF_ECON, seed=0)
        assert sol.platoons == []
        assert sol.utility == 0.0


class TestFixedInterval:
    def test_slot_grouping_and_costs(self):
        prepared = prepare([ft(1, 5.0), ft(2, 12.0), ft(3, 31.0)])
        sol = solve_fixed_interval(prepared, REF_ROUTE, REF_ECON, 30.0, seed=0)
        assert [p.ranks for p in sol.platoons] == [(0, 1), (2,)]
        first, second = sol.platoons
        assert first.departure_time == 30.0
        assert first.utility == pytest.approx(14.0 - 0.4 * (25.0 + 18.0), **APPROX)
        assert second.departure_time == 60.0
        assert second.utility == pytest.approx(-0.4 * 29.0, **APPROX)

    def test_slot_edge_departs_immediately(self):
        prepared = prepare([ft(1, 30.0)])
        sol = solve_fixed_interval(prepared, REF_ROUTE, REF_ECON, 30.0, seed=0)
        assert sol.platoons[0].departure_time == 30.0
        assert sol.platoons[0].ledger[0].wait_time == 0.0

    def test_empty_fleet(self):
        sol = solve_fixed_interval([], REF_ROUTE, REF_ECON, 30.0, seed=0)
        assert sol.platoons == []

    def test_departures_on_the_grid(self):
        cfg = ScenarioConfig(n_trucks=40, et_share=0.0, seed=7,
                             arrival_lo=1, arrival_hi=200, horizon=400.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        sol = solve_fixed_interval(prepared, inst.route, inst.econ, 30.0, seed=7)
        assert_solution_valid(sol, prepared, inst.route)
        for p in sol.platoons:
            assert p.departure_time == 30.0 * round(p.departure_time / 30.0)
            for row in p.ledger:
                assert row.wait_time >= -1e-9

    def test_interval_must_be_positive(self):
        prepared = prepare([ft(1, 5.0), et(2, 3.0, soc=40.0)])
        for interval in (0.0, -30.0, float("nan"), float("inf")):
            with pytest.raises(ContractViolation, match="positive and finite"):
                solve_fixed_interval(prepared, REF_ROUTE, REF_ECON, interval, seed=0)
        with pytest.raises(ContractViolation):
            solve_fixed_interval([], REF_ROUTE, REF_ECON, 0.0, seed=0)

    def test_late_slot_is_flagged_not_dropped(self):
        from platoon_coord import RouteParams
        route = RouteParams(distance=200.0, horizon=40.0, max_platoon_size=8)
        prepared = prepare([ft(1, 35.0)], route=route)
        sol = solve_fixed_interval(prepared, route, REF_ECON, 30.0, seed=0)
        assert sol.platoons[0].departure_time == 60.0
        assert sol.diagnostics.horizon_violation

    def test_electric_members_charge_within_slots(self):
        cfg = ScenarioConfig(n_trucks=50, et_share=0.5, seed=3,
                             arrival_lo=1, arrival_hi=200, horizon=500.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        sol = solve_fixed_interval(prepared, inst.route, inst.econ, 30.0, seed=3)
        assert_solution_valid(sol, prepared, inst.route)


class TestCrossMethod:
    def test_unit_interval_matches_spontaneous_on_integer_fleet(self):
        # Integer readiness times land exactly on a 1-minute grid, so slot
        # grouping degenerates to grouping on ties.
        cfg = ScenarioConfig(n_trucks=40, et_share=0.0, seed=9,
                             arrival_lo=1, arrival_hi=30, horizon=100.0)
        inst = generate(cfg)
        prepared = prepare_fleet(inst)
        sp = solve_spontaneous(prepared, inst.route, inst.econ, seed=9)
        fi = solve_fixed_interval(prepared, inst.route, inst.econ, 1.0, seed=9)
        assert fi.utility == pytest.approx(sp.utility, **APPROX)
        assert [p.ranks for p in fi.platoons] == [p.ranks for p in sp.platoons]

    def test_shared_seed_dominance_chain(self):
        from platoon_coord import solve_dp_ls, solve_dp_nls
        for seed in range(15):
            cfg = ScenarioConfig(n_trucks=30, et_share=0.5, seed=seed,
                                 arrival_lo=1, arrival_hi=40, horizon=300.0)
            inst = generate(cfg)
            prepared = prepare_fleet(inst)
            ls = solve_dp_ls(prepared, inst.route, inst.econ)
            nls = solve_dp_nls(prepared, inst.route, inst.econ, seed)
            sp = solve_spontaneous(prepared, inst.route, inst.econ, seed)
            assert ls.utility >= nls.utility - 1e-9
            assert nls.utility >= sp.utility - 1e-9


def test_methods_tagged():
    prepared = prepare([ft(1, 1.0)])
    assert solve_spontaneous(prepared, REF_ROUTE, REF_ECON, 0).method == "SPONTANEOUS"
    assert solve_fixed_interval(prepared, REF_ROUTE, REF_ECON, 30.0, 0).method == "FIXED-INTERVAL"
