"""The columnar fast path against its scalar reference.

`utility.price_platoons` prices many platoons at once from the fleet columns
that `discretize.prepare_fleet` builds; the scalar pricing of
`checks.reference_evaluate_platoon` and the per-truck formulas of
`discretize` and `utility` stay the reference. The two must agree exactly:
`==` on every field, and `repr` so that float bits, the sign of zero and
plain-`float` types match too.
"""

import re
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoon_coord import (
    ContractViolation,
    HorizonExceededError,
    LeaderType,
    NoFeasibleScheduleError,
    ScenarioConfig,
    generate,
    leader_feasible,
    prepare_fleet,
    solve_dp_ls,
    solve_dp_nls,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord.kernels import fleet_arrays
from platoon_coord.scenario import load_instance, solution_text
from platoon_coord.utility import price_platoons
from checks import (
    alone_departure,
    assert_fleet_arrays_match_scalar,
    in_departure_order,
    leader_type_for_kind,
    reference_evaluate_platoon,
    reference_prepare_fleet,
)
from conftest import ET_VRATE, REF_ECON, REF_ROUTE, UNLEADABLE, et, fleet_instances, ft, prepare

LEADER_CODE = {LeaderType.ELECTRIC: 0, LeaderType.FUEL: 1}


def assert_same(batch, scalar):
    assert batch == scalar
    assert repr(batch) == repr(scalar)


def assert_schedule_matches_reference(sol, prepared, route, econ):
    """Every platoon of a dp schedule equals the scalar reference pricing on
    its block, by `==` and by `repr`."""
    records = reference_prepare_fleet(prepared.instance)
    for p in sol.platoons:
        members = records[p.ranks[0]:p.ranks[-1] + 1]
        assert_same(p, reference_evaluate_platoon(members, p.leader_type, route, econ))


def solve_both(prepared, route, econ):
    yield solve_dp_ls(prepared, route, econ)
    for seed in (0, 5):
        yield solve_dp_nls(prepared, route, econ, seed)


# Degenerate fleets, each with the route and prices it is solved under.
DEGENERATE = {
    "exact ties": (
        [ft(k, 10.0) for k in range(5)] + [et(5 + k, 10.0, soc=70.0) for k in range(5)],
        REF_ROUTE, REF_ECON),
    "all-ET with unleadable members": (
        [et(0, 0.0, soc=50.0, vrate=UNLEADABLE), et(1, 0.0, soc=80.0),
         et(2, 3.0, soc=40.0, vrate=UNLEADABLE), et(3, 3.0, soc=95.0),
         et(4, 3.0, soc=60.0, vrate=UNLEADABLE), et(5, 9.0, soc=75.0)],
        REF_ROUTE, REF_ECON),
    "solo ETs postponed to alone-safe": (
        [et(0, 0.0, soc=30.0), et(1, 400.0, soc=40.0), et(2, 900.0, soc=20.0)],
        REF_ROUTE, REF_ECON),
    "nbar = 1": (
        [ft(0, 0.0), et(1, 0.0, soc=90.0), et(2, 5.0, soc=30.0), ft(3, 5.0)],
        replace(REF_ROUTE, max_platoon_size=1), REF_ECON),
    "ec == ew": (
        [ft(0, 0.0), et(1, 2.0, soc=25.0), et(2, 6.0, soc=65.0), ft(3, 30.0),
         et(4, 31.0, soc=55.0)],
        REF_ROUTE, replace(REF_ECON, charge_cost=REF_ECON.wait_cost)),
    # An ET charges long enough to lead only while it waits for six later
    # trucks: sizes 2-6 have no electric leader in any row, sizes 1, 7 and
    # 8 do, and at 7 and 8 both kinds are safe.
    "ETs lead only long blocks": (
        [et(0, 0.0, soc=50.0), *(ft(1 + k, 7.0 + 2 * k) for k in range(7)),
         et(8, 20.0, soc=50.0), ft(9, 27.0)],
        REF_ROUTE, REF_ECON),
}


class TestScheduleAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_fleets(self, seed):
        inst = generate(ScenarioConfig(seed=seed))
        prepared = prepare_fleet(inst)
        for sol in solve_both(prepared, inst.route, inst.econ):
            assert_schedule_matches_reference(sol, prepared, inst.route, inst.econ)

    def test_dense_et_fleet(self):
        inst = generate(ScenarioConfig(n_trucks=400, et_share=0.7, soc_lo=10.0,
                                       soc_hi=60.0, arrival_hi=29, horizon=89.0,
                                       max_platoon_size=16, seed=4))
        prepared = prepare_fleet(inst)
        for sol in solve_both(prepared, inst.route, inst.econ):
            assert_schedule_matches_reference(sol, prepared, inst.route, inst.econ)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_fleets(self, name):
        trucks, route, econ = DEGENERATE[name]
        prepared = prepare(trucks, route=route, econ=econ)
        for sol in solve_both(prepared, route, econ):
            assert_schedule_matches_reference(sol, prepared, route, econ)

    @settings(max_examples=150, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        """`Solution.platoons`, built from the solution's table, on the
        hypothesis fleets of `conftest`, integer arrivals included: the
        prepared records hold float64 departures, as the pricer does."""
        try:
            prepared = prepare_fleet(instance)
            solutions = list(solve_both(prepared, instance.route, instance.econ))
        except (HorizonExceededError, NoFeasibleScheduleError):
            return
        for sol in solutions:
            assert_schedule_matches_reference(sol, prepared, instance.route, instance.econ)

    def test_solo_ets_are_postponed(self):
        trucks, route, econ = DEGENERATE["solo ETs postponed to alone-safe"]
        prepared = prepare(trucks, route=route, econ=econ)
        sol = solve_dp_ls(prepared, route, econ)
        assert all(p.size == 1 for p in sol.platoons)
        records = reference_prepare_fleet(prepared.instance)
        for p in sol.platoons:
            m = records[p.ranks[0]]
            assert p.departure_time == m.alone_departure == alone_departure(m, route)
            assert p.departure_time > m.earliest_departure

    def test_empty_fleet(self):
        """An empty schedule: no blocks on a real fleet price to an empty
        table. An empty fleet cannot be prepared, and a list is refused."""
        prepared = prepare([ft(0, 0.0), et(1, 2.0, soc=70.0)])
        table = price_platoons(prepared, [], [], [], REF_ROUTE, REF_ECON)
        assert len(table) == 0 and table.records() == []
        with pytest.raises(ContractViolation, match="prepare_fleet"):
            solve_dp_ls([], REF_ROUTE, REF_ECON)


TIME_FIELD = re.compile(r'"(depart|wait)": ([^,\n]+)')
SOC_FIELD = re.compile(r'"(soc_dep|soc_arr)": ([^,\n]+)')


def _spellings(name, pattern):
    """The texts each method writes for each (field, value) that `pattern`
    matches in its solution of the committed instance `name`, and the
    methods that write each (field, value)."""
    inst = load_instance(Path(__file__).parent / "data" / f"{name}.json")
    prepared = prepare_fleet(inst)
    route, econ, seed = inst.route, inst.econ, inst.seed
    spellings, methods = defaultdict(set), defaultdict(set)
    for sol in (solve_dp_ls(prepared, route, econ), solve_dp_nls(prepared, route, econ, seed),
                solve_spontaneous(prepared, route, econ, seed),
                solve_fixed_interval(prepared, route, econ, 30.0, seed)):
        for field, text in pattern.findall(solution_text(sol)):
            spellings[field, float(text)].add(text)
            methods[field, float(text)].add(sol.method)
    return inst, spellings, methods


def test_every_method_spells_an_instant_alike():
    """On an instance whose arrivals are integers, all four methods write one
    JSON spelling for one departure instant or wait: the baselines price the
    prepared float64 departures, as the dp pricer does. On one whose SoC
    fields are integers, every method writes each departure and arrival SoC
    as a float, a full battery's included."""
    inst, spellings, methods = _spellings("integer-arrivals-200", TIME_FIELD)
    assert all(type(t.arrival_time) is int for t in inst.trucks)
    shared = [key for key, seen in methods.items() if key[0] == "depart" and len(seen) > 2]
    assert len(shared) > 10
    assert {key: texts for key, texts in spellings.items() if len(texts) > 1} == {}

    inst, spellings, methods = _spellings("integer-battery-200", SOC_FIELD)
    assert all(type(t.max_soc) is int for t in inst.trucks if t.max_soc is not None)
    assert len(methods["soc_dep", 100.0]) > 1  # a full battery, in more than one method
    assert {text for texts in spellings.values() for text in texts
            if not re.search(r"[.e]", text)} == set()
    assert {key: texts for key, texts in spellings.items() if len(texts) > 1} == {}


class TestPriceErrors:
    TRUCKS = (ft(0, 0.0), et(1, 0.0, soc=90.0), et(2, 1.0, soc=90.0))

    def price(self, starts, sizes, leaders, route=REF_ROUTE):
        return price_platoons(prepare(self.TRUCKS, route=route), starts, sizes, leaders,
                              route, REF_ECON)

    @pytest.mark.parametrize("starts, sizes, leaders", [
        ([0], [1], [0]),      # a solo fuel truck led by an electric one
        ([1], [1], [1]),      # a solo ET led by a fuel truck
        ([1], [2], [1]),      # a fuel leader for an all-ET block
        ([0], [0], [1]),      # an empty block
        ([2], [2], [0]),      # a block past the last truck
        # Malformed blocks used to be priced (one leader code broadcast to
        # two blocks, a start of 0.5 truncated to rank 0, code 7 read as
        # electric) or to fail inside numpy.
        ([1, 2], [1, 1], [0]),
        ([0], [3, 1], [1]),
        ([[0]], [[3]], [[1]]),
        ([0.5], [1], [1]),
        ([0], [3.0], [1]),
        ([True], [1], [0]),
        ([0], [3], [7]),
        ([0], [3], [-1]),
        ([0], [3], [0.5]),
    ])
    def test_invalid_blocks_raise(self, starts, sizes, leaders):
        with pytest.raises(ContractViolation):
            self.price(starts, sizes, leaders)

    def test_well_formed_blocks_price(self):
        """The valid neighbours of the malformed blocks above, numpy integers
        included, price to one record each."""
        assert len(self.price([1, 2], [1, 1], [0, 0])) == 2
        assert len(self.price(np.array([0], np.uint8), np.array([3], np.int32), [1])) == 1

    def test_size_cap(self):
        with pytest.raises(ContractViolation, match="exceeds the size cap 2"):
            self.price([0], [3], [1], route=replace(REF_ROUTE, max_platoon_size=2))


@st.composite
def small_fleets(draw):
    """One to 8 trucks on a few shared arrival instants, leadable and
    unleadable ETs with drawn charge and discharge rates, nbar in {1, 2, 8},
    and prices with ec <= ew."""
    trucks = []
    for k in range(draw(st.integers(1, 8))):
        arrival = draw(st.sampled_from((0.0, 0.0, 4.0, 12.5, 40.0)))
        if draw(st.booleans()):
            trucks.append(ft(k, arrival))
        else:
            vrate = draw(st.one_of(st.sampled_from((ET_VRATE, UNLEADABLE)),
                                   st.floats(0.05, 0.45)))
            trucks.append(et(k, arrival, soc=draw(st.floats(0.0, 100.0)),
                             rate=draw(st.floats(0.2, 3.0)), vrate=vrate))
    route = replace(REF_ROUTE, max_platoon_size=draw(st.sampled_from((1, 2, 8))),
                    follower_coeff=draw(st.sampled_from((0.82, 0.8713))))
    wait = draw(st.sampled_from((0.0, 0.4, 1.0)))
    econ = replace(REF_ECON, wait_cost=wait,
                   charge_cost=draw(st.sampled_from((0.0, wait / 2, wait))),
                   et_follower_profit=draw(st.sampled_from((0.0, 10.0, 14.0))))
    return prepare(trucks, route=route, econ=econ), route, econ


@settings(max_examples=150, deadline=None)
@given(small_fleets())
def test_every_block_and_leader_kind(case):
    """One batch call over every consecutive block and every leader kind its
    members allow equals the scalar reference block by block, in `Solution`
    order; so does the same batch restricted to the kinds `leader_feasible`
    admits."""
    prepared, route, econ = case
    records = reference_prepare_fleet(prepared.instance)
    blocks, expected = [], []
    for start in range(len(prepared)):
        for size in range(1, min(route.max_platoon_size, len(prepared) - start) + 1):
            members = records[start:start + size]
            kinds = {leader_type_for_kind(m.kind) for m in members}
            for leader in sorted(kinds, key=LEADER_CODE.get):
                blocks.append((start, size, LEADER_CODE[leader]))
                expected.append(reference_evaluate_platoon(members, leader, route, econ))
    starts, sizes, leaders = zip(*blocks)
    assert_same(price_platoons(prepared, starts, sizes, leaders, route, econ).records(),
                in_departure_order(expected))
    admitted = [k for k, p in enumerate(expected) if leader_feasible(p, p.leader_type)]
    assert_same(price_platoons(prepared, [starts[k] for k in admitted],
                               [sizes[k] for k in admitted],
                               [leaders[k] for k in admitted], route, econ).records(),
                in_departure_order([expected[k] for k in admitted]))


class TestFleetArrays:
    @pytest.mark.parametrize("fleet", [
        dict(seed=3),
        dict(n_trucks=300, et_share=0.9, soc_lo=10.0, soc_hi=100.0, seed=8),
        dict(n_trucks=50, et_share=0.0, seed=1),
    ])
    def test_columns_equal_scalar_formulas(self, fleet):
        inst = generate(ScenarioConfig(**fleet))
        assert_fleet_arrays_match_scalar(prepare_fleet(inst), inst.route)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_columns(self, name):
        trucks, route, econ = DEGENERATE[name]
        assert_fleet_arrays_match_scalar(prepare(trucks, route=route, econ=econ), route)

    def test_empty_fleet(self):
        # No instance has an empty fleet, and a list is no prepared fleet.
        with pytest.raises(ContractViolation, match="prepare_fleet"):
            fleet_arrays([], REF_ROUTE)
