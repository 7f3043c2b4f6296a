import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings

from platoon_coord import (
    FIXED_INTERVAL,
    SPONTANEOUS,
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    NoFeasibleScheduleError,
    ScenarioConfig,
    generate,
    prepare_fleet,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord import baselines
from platoon_coord.model import SOC_TOL, TIME_TOL
from platoon_coord.scenario import solution_text
from platoon_coord.solution import Diagnostics, Solution
from platoon_coord.utility import LeaderType, Role, leader_feasible
from conftest import (
    LEAD_NEED, REF_ECON, REF_ROUTE, UNLEADABLE, et, fleet_instances, ft, prepare,
)
from checks import (
    assert_solution_valid,
    leader_draw_bit,
    leader_type_for_kind,
    reference_evaluate_platoon,
    reference_prepare_fleet,
)

APPROX = dict(abs=1e-9)


def reference_slot_end(ready, interval):
    """The end of the half-open slot (lo, hi] that holds `ready`, one truck
    at a time."""
    return interval * math.ceil(ready / interval)


def reference_block(block, depart_at, route, econ, seed):
    """One block departing together, scheduled from scalar prices alone:
    price the block with a probe leader, ask `leader_feasible` about both
    kinds, price it again when the draw picks the other kind, and fall back
    to solos when no member could lead."""
    if len(block) == 1:
        kind_leader = leader_type_for_kind(block[0].kind)
        solo = reference_evaluate_platoon(block, kind_leader, route, econ,
                                          depart_at=depart_at)
        if not solo.ledger[0].can_lead:
            raise NoFeasibleScheduleError(
                f"truck {block[0].id}: cannot drive alone safely and has no "
                "platoon to follow"
            )
        return [solo]

    probe_type = (LeaderType.FUEL if any(not m.is_electric for m in block)
                  else LeaderType.ELECTRIC)
    probe = reference_evaluate_platoon(block, probe_type, route, econ, depart_at=depart_at)
    ok_e = leader_feasible(probe, LeaderType.ELECTRIC)
    ok_f = leader_feasible(probe, LeaderType.FUEL)
    if not (ok_e or ok_f):
        return [
            p
            for m in block
            for p in reference_block([m], depart_at, route, econ, seed)
        ]
    if ok_e and ok_f:
        i = block[-1].rank + 1
        chosen = LeaderType.ELECTRIC if leader_draw_bit(seed, i, len(block)) else LeaderType.FUEL
    else:
        chosen = LeaderType.ELECTRIC if ok_e else LeaderType.FUEL
    if chosen is probe.leader_type:
        return [probe]
    return [reference_evaluate_platoon(block, chosen, route, econ, depart_at=depart_at)]


def reference_grouped(method, prepared, slot, route, econ, seed):
    """The scalar grouping loop the baselines are checked against: each run
    of trucks sharing `slot(earliest_departure)` leaves at that instant in
    blocks of at most nbar, each block scheduled by `reference_block`."""
    cap = route.max_platoon_size
    platoons = []
    for depart_at, group in groupby(reference_prepare_fleet(prepared.instance),
                                    key=lambda m: slot(m.earliest_departure)):
        group = list(group)
        for k in range(0, len(group), cap):
            platoons.extend(reference_block(group[k:k + cap], depart_at, route, econ, seed))
    diag = Diagnostics(horizon_violation=any(
        p.departure_time > route.horizon + TIME_TOL for p in platoons))
    return Solution.from_platoons(method, platoons, diag)


def assert_matches_reference(prepared, route, econ, seed, interval=None):
    """Spontaneous (no `interval`) or fixed-interval equals the reference
    record for record (by `==` and `repr`) and byte for byte, or raises what
    it raises."""
    if interval is None:
        method, slot = SPONTANEOUS, (lambda t: t)

        def solve():
            return solve_spontaneous(prepared, route, econ, seed)
    else:
        method, slot = FIXED_INTERVAL, (lambda t: reference_slot_end(t, interval))

        def solve():
            return solve_fixed_interval(prepared, route, econ, interval, seed)
    try:
        expected = reference_grouped(method, prepared, slot, route, econ, seed)
    except NoFeasibleScheduleError as exc:
        with pytest.raises(NoFeasibleScheduleError) as raised:
            solve()
        assert str(raised.value) == str(exc)
        return
    got = solve()
    assert got.platoons == expected.platoons
    assert repr(got.platoons) == repr(expected.platoons)
    assert solution_text(got) == solution_text(expected)


# A 1000-truck reference fleet, and a dense 2000-truck one: 14 arrivals a
# minute, 70 % low-SoC ETs, platoons of up to 16.
LARGE_FLEETS = {
    "ref-1k": dict(seed=0),
    "dense-2k": dict(n_trucks=2000, et_share=0.7, soc_lo=10.0, soc_hi=60.0,
                     arrival_hi=144, horizon=204.0, max_platoon_size=16, seed=0),
}
BASELINES = {
    "spontaneous": solve_spontaneous,
    "fixed-interval": lambda p, route, econ, seed: solve_fixed_interval(
        p, route, econ, 30.0, seed),
}


@pytest.fixture(scope="module", params=sorted(LARGE_FLEETS))
def large_fleet(request):
    instance = generate(ScenarioConfig(**LARGE_FLEETS[request.param]))
    return instance, prepare_fleet(instance)


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
        by_rank = {m.rank: m for m in reference_prepare_fleet(inst)}
        for p in sol.platoons:
            for row in p.ledger:
                assert row.wait_time == pytest.approx(0.0, **APPROX)
                if row.departure_soc is not None and p.size > 1:
                    assert row.charge_time == pytest.approx(
                        by_rank[row.rank].min_charge_time, **APPROX)

    def test_weak_solo_electric_charges_to_alone_level(self):
        prepared = prepare([et(1, 10.0, soc=30.0)])
        sol = solve_spontaneous(prepared, REF_ROUTE, REF_ECON, seed=0)
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
        # No instance holds an empty fleet, and a list is no prepared fleet.
        with pytest.raises(ContractViolation, match="prepare_fleet"):
            solve_spontaneous([], REF_ROUTE, REF_ECON, seed=0)


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
        # No instance holds an empty fleet, and a list is no prepared fleet.
        with pytest.raises(ContractViolation, match="prepare_fleet"):
            solve_fixed_interval([], REF_ROUTE, REF_ECON, 30.0, seed=0)

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
        with pytest.raises(ContractViolation, match="positive and finite"):
            solve_fixed_interval(prepare([ft(1, 5.0)]), REF_ROUTE, REF_ECON, 0.0, seed=0)

    @pytest.mark.parametrize("interval", [True, False, "30", None, [30.0], np.bool_(True)])
    def test_interval_must_be_a_real_number(self, interval):
        """True used to run one-minute slots, and "30" raised a bare
        TypeError."""
        prepared = prepare([ft(1, 5.0), et(2, 3.0, soc=40.0)])
        with pytest.raises(ContractViolation, match="^interval must be a positive and finite "):
            solve_fixed_interval(prepared, REF_ROUTE, REF_ECON, interval, seed=0)

    def test_any_real_interval_gives_the_same_schedule(self):
        inst = generate(ScenarioConfig(n_trucks=30, seed=1))
        prepared = prepare_fleet(inst)
        expected = solve_fixed_interval(prepared, inst.route, inst.econ, 30.0, seed=1)
        for interval in (30, np.float64(30.0), np.int64(30)):
            got = solve_fixed_interval(prepared, inst.route, inst.econ, interval, seed=1)
            assert solution_text(got) == solution_text(expected)

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


class TestAgainstScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        try:
            prepared = prepare_fleet(instance)
        except (HorizonExceededError, InfeasibleTruckError):
            return
        for interval in (None, 30.0, 0.1):
            assert_matches_reference(prepared, instance.route, instance.econ,
                                     instance.seed, interval)

    def test_large_fleets(self, large_fleet):
        instance, prepared = large_fleet
        for interval in (None, 30.0):
            assert_matches_reference(prepared, instance.route, instance.econ,
                                     instance.seed, interval)

    def test_slot_end_an_ulp_before_ready(self):
        # 0.1 * ceil(edge / 0.1) is 500.3, an ulp before edge. The ETs hold
        # just the SoC to lead with no charge, so they may lead only if the
        # slack before the slot end is clamped at 0, as the scalar pricing
        # clamps it.
        edge = 500.30000000000007
        lead_soc = LEAD_NEED - SOC_TOL
        fleets = [
            [et(1, edge, soc=lead_soc), et(2, edge, soc=lead_soc)],
            [ft(1, edge), et(2, edge, soc=lead_soc)],
            [et(1, 500.2, soc=30.0), et(2, edge, soc=lead_soc), ft(3, edge), ft(4, 501.0)],
        ]
        early = 0
        for seed, trucks in enumerate(fleets):
            prepared = prepare(trucks)
            early += sum(reference_slot_end(m.earliest_departure, 0.1) < m.earliest_departure
                         for m in reference_prepare_fleet(prepared.instance))
            assert_matches_reference(prepared, REF_ROUTE, REF_ECON, seed, 0.1)
        assert early > 0
        sol = solve_fixed_interval(prepare(fleets[0]), REF_ROUTE, REF_ECON, 0.1, seed=0)
        assert [(p.size, p.leader_type) for p in sol.platoons] == [(2, LeaderType.ELECTRIC)]


class TestOneTruckRuns:
    """A truck alone in its run is priced as a solo straight away, as is
    each member of a block that no kind may lead."""

    # A full battery to follow with, and a discharge rate too high to lead.
    UNLEADABLE_ET = et(7, 10.0, soc=100.0, vrate=UNLEADABLE)

    @pytest.mark.parametrize("method", sorted(BASELINES))
    def test_et_that_cannot_lead_alone_in_its_run_raises(self, method):
        # Other slots of 30 min and other instants: the ET's run is itself.
        prepared = prepare([self.UNLEADABLE_ET, ft(1, 40.0), ft(2, 95.0)])
        with pytest.raises(NoFeasibleScheduleError, match=(
                "^truck 7: cannot drive alone safely and has no platoon to follow$")):
            BASELINES[method](prepared, REF_ROUTE, REF_ECON, 0)

    @pytest.mark.parametrize("method", sorted(BASELINES))
    def test_et_that_cannot_lead_follows_a_tied_fuel_truck(self, method):
        prepared = prepare([self.UNLEADABLE_ET, ft(8, 10.0), ft(2, 95.0)])
        sol = BASELINES[method](prepared, REF_ROUTE, REF_ECON, 0)
        block = sol.platoons[0]
        assert [row.truck_id for row in block.ledger] == [7, 8]
        assert (block.leader_type, block.leader_id) == (LeaderType.FUEL, 8)
        assert [row.role for row in block.ledger] == [Role.FOLLOWER, Role.LEADER]
        assert_matches_reference(prepared, REF_ROUTE, REF_ECON, 0,
                                 None if method == "spontaneous" else 30.0)

    @pytest.mark.parametrize("interval", [None, 0.1])
    def test_postponed_solo_et_equals_the_reference(self, interval):
        # A weak ET alone in its run charges to the alone-safe level, so it
        # leaves after its slot's instant.
        prepared = prepare([et(1, 10.0, soc=30.0), ft(2, 95.0)])
        assert_matches_reference(prepared, REF_ROUTE, REF_ECON, 0, interval)
        ready = prepared.arrays.tau_delta[0].item()
        if interval is None:
            sol, instant = solve_spontaneous(prepared, REF_ROUTE, REF_ECON, 0), ready
        else:
            sol = solve_fixed_interval(prepared, REF_ROUTE, REF_ECON, interval, 0)
            instant = reference_slot_end(ready, interval)
        solo = sol.platoons[0]
        assert solo.ranks == (0,)
        assert solo.departure_time == prepared.arrays.alone_depart[0].item() > instant


@pytest.mark.parametrize("method", sorted(BASELINES))
def test_every_platoon_priced_once(large_fleet, method, monkeypatch):
    instance, prepared = large_fleet
    real = baselines.evaluate_platoon
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "evaluate_platoon", counting)
    sol = BASELINES[method](prepared, instance.route, instance.econ, instance.seed)
    assert len(calls) == len(sol.platoons)
    assert max(p.size for p in sol.platoons) > 1


@pytest.mark.parametrize("method", sorted(BASELINES))
def test_blocks_are_decided_in_one_pass(large_fleet, method, monkeypatch):
    """A baseline asks `member_terms` once, about exactly the members of its
    blocks of two or more, and `leader_draw_bits` once, for exactly the
    (end, size) of the blocks that both kinds may lead."""
    instance, prepared = large_fleet
    terms, draws = [], []
    real_terms, real_draw = baselines.member_terms, baselines.leader_draw_bits
    monkeypatch.setattr(baselines, "member_terms", lambda arr, idx, depart: (
        terms.append(idx.tolist()) or real_terms(arr, idx, depart)))
    monkeypatch.setattr(baselines, "leader_draw_bits", lambda seed, ends, sizes: (
        draws.append(list(zip(ends.tolist(), sizes.tolist()))) or real_draw(seed, ends, sizes)))
    sol = BASELINES[method](prepared, instance.route, instance.econ, instance.seed)

    slot = (lambda t: t) if method == "spontaneous" else (lambda t: reference_slot_end(t, 30.0))
    cap, members, rank = instance.route.max_platoon_size, [], 0
    for _, run in groupby(prepared.arrays.tau_delta.tolist(), key=slot):
        run = len(list(run))
        for lo in range(0, run, cap):
            size = min(cap, run - lo)
            if size > 1:
                members += range(rank + lo, rank + lo + size)
        rank += run
    assert terms == [members]
    both = [(p.ranks[-1] + 1, p.size) for p in sol.platoons if p.size > 1
            and leader_feasible(p, LeaderType.ELECTRIC) and leader_feasible(p, LeaderType.FUEL)]
    assert len(draws) == 1 and sorted(draws[0]) == sorted(both)
    assert members


class TestInputOrder:
    """A record list is refused whatever its order; these are the two orders
    that used to get a list of their own refusal."""

    @pytest.mark.parametrize("method", sorted(BASELINES))
    def test_rank_order_required(self, method):
        prepared = prepare([ft(1, 0.0), ft(2, 5.0)])
        with pytest.raises(ContractViolation, match="PreparedFleet that prepare_fleet returns"):
            BASELINES[method](reference_prepare_fleet(prepared.instance)[::-1], REF_ROUTE,
                              REF_ECON, 0)

    @pytest.mark.parametrize("method", sorted(BASELINES))
    def test_departure_order_required(self, method):
        a, b = reference_prepare_fleet(prepare([ft(1, 0.0), ft(2, 5.0)]).instance)
        swapped = [b._replace(rank=0), a._replace(rank=1)]
        with pytest.raises(ContractViolation, match="PreparedFleet that prepare_fleet returns"):
            BASELINES[method](swapped, REF_ROUTE, REF_ECON, 0)
