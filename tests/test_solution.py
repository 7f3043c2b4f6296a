"""`Solution` holds its platoons as a `PlatoonTable` and builds the records on
first access. The reference here is the record-based assembly the table
replaced: sort the records by (departure, first rank), sum the totals in that
order, count sizes and leader kinds platoon by platoon.
"""

import itertools
import operator
import random
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings

from platoon_coord import (
    ContractViolation,
    HorizonExceededError,
    LeaderType,
    NoFeasibleScheduleError,
    ScenarioConfig,
    Solution,
    evaluate_platoon,
    generate,
    prepare_fleet,
    solve_dp_ls,
    solve_dp_nls,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord.utility import LEADER_BY_CODE, PlatoonTable, price_platoons
from checks import in_departure_order, reference_totals
from conftest import REF_ECON, REF_ROUTE, et, fleet_instances, ft, prepare


def reference_assembly(platoons):
    """Ordered records, totals and diagnostics, as records were assembled."""
    ordered = in_departure_order(platoons)
    # Added one after the other from 0.0 on every Python; the built-in sum
    # compensates from 3.12 on.
    profit = reduce(operator.add, [p.profit for p in ordered], 0.0)
    loss = reduce(operator.add, [p.loss for p in ordered], 0.0)
    sizes = {}
    et_led = ft_led = 0
    for p in ordered:
        sizes[p.size] = sizes.get(p.size, 0) + 1
        if p.leader_type is LeaderType.ELECTRIC:
            et_led += 1
        else:
            ft_led += 1
    return ordered, (profit, loss, profit - loss), dict(sorted(sizes.items())), et_led, ft_led


def assert_assembled_from(sol, platoons):
    ordered, totals, sizes, et_led, ft_led = reference_assembly(platoons)
    assert sol.platoons == ordered and repr(sol.platoons) == repr(ordered)
    assert repr((sol.profit, sol.loss, sol.utility)) == repr(totals)
    d = sol.diagnostics
    assert (d.platoon_sizes, d.et_led, d.ft_led) == (sizes, et_led, ft_led)
    assert list(d.platoon_sizes) == list(sizes)
    counts = [*d.platoon_sizes, *d.platoon_sizes.values(), d.et_led, d.ft_led]
    assert all(type(v) is int for v in counts)


def solo_fuel_table(departure, rank, loss=0.0):
    """A hand-built table of one solo fuel truck per platoon, in the given
    order: the table constructors deliver only `Solution` order."""
    n = len(rank)
    return PlatoonTable(
        start=list(range(n)), size=[1] * n, leader=[1] * n, leader_pos=[0] * n,
        departure=departure, profit=[0.0] * n, loss=[loss] * n, rank=rank, truck_id=rank,
        role=[2] * n, charge=[0.0] * n, wait=[1.0] * n, departure_soc=[0.0] * n,
        arrival_soc=[0.0] * n, can_lead=[True] * n, fuel=[True] * n)


def solve_all(prepared, route, econ, seed):
    for solve in (lambda: solve_dp_ls(prepared, route, econ),
                  lambda: solve_dp_nls(prepared, route, econ, seed),
                  lambda: solve_spontaneous(prepared, route, econ, seed),
                  lambda: solve_fixed_interval(prepared, route, econ, 30.0, seed)):
        try:
            yield solve()
        except NoFeasibleScheduleError:
            continue


def assert_round_trips(sol):
    """The records rebuild the same solution, in any order they come in."""
    assert_assembled_from(sol, sol.platoons)
    for records in (sol.platoons, sol.platoons[::-1]):
        again = Solution.from_platoons(sol.method, records)
        assert again.platoons == sol.platoons
        assert repr(again.platoons) == repr(sol.platoons)
        assert repr((again.profit, again.loss, again.utility)) == repr(
            (sol.profit, sol.loss, sol.utility))
        assert again.diagnostics.platoon_sizes == sol.diagnostics.platoon_sizes
        assert (again.diagnostics.et_led, again.diagnostics.ft_led) == (
            sol.diagnostics.et_led, sol.diagnostics.ft_led)


class TestAssembly:
    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(seed=0),
        ScenarioConfig(n_trucks=400, et_share=0.7, soc_lo=10.0, soc_hi=60.0,
                       arrival_hi=29, horizon=89.0, max_platoon_size=16, seed=4),
    ], ids=["ref", "dense"])
    def test_every_method(self, cfg):
        inst = generate(cfg)
        sols = list(solve_all(prepare_fleet(inst), inst.route, inst.econ, inst.seed))
        assert len(sols) == 4
        for sol in sols:
            assert_round_trips(sol)

    @settings(max_examples=100, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        try:
            prepared = prepare_fleet(instance)
        except HorizonExceededError:
            return
        for sol in solve_all(prepared, instance.route, instance.econ, instance.seed):
            assert_round_trips(sol)

    def test_table_out_of_departure_order_raises(self):
        """`from_table` checks the order it does not make: a postponed solo
        ahead of the block behind it, and a tie out of first-rank order."""
        for departure, rank in (([34.8, 30.0], [0, 1]), ([30.0, 30.0], [1, 0])):
            with pytest.raises(ContractViolation, match="departure, first rank"):
                Solution.from_table("X", solo_fuel_table(departure, rank))

    def test_pricer_orders_the_blocks(self):
        """`price_platoons` gives one table for the blocks in every order, in
        (departure, first rank) order: the postponed solo ET leaves after the
        block behind it."""
        # The ET is ready at 25.1 but may leave alone only at 34.8.
        prepared = prepare([et(1, 0.0, soc=30.0), ft(2, 28.0), ft(3, 30.0), ft(4, 31.0),
                            et(5, 32.0, soc=95.0)])
        blocks = [(1, 2, 1), (3, 2, 1), (0, 1, 0)]  # (start, size, leader kind)
        table = price_platoons(prepared, *zip(*blocks), REF_ROUTE, REF_ECON)
        for given in itertools.permutations(blocks):
            assert price_platoons(prepared, *zip(*given), REF_ROUTE, REF_ECON) == table
        records = [evaluate_platoon(range(s, s + n), LEADER_BY_CODE[k], prepared, REF_ECON)
                   for s, n, k in blocks]
        assert_assembled_from(Solution.from_table("DP-LS", table), records)
        assert [p.ranks[0] for p in table.records()] == [1, 3, 0]

    @pytest.mark.parametrize("fleet", ["ref", "postponed solo"])
    def test_pricer_takes_the_backtrack_order(self, fleet):
        """The dp's blocks priced in reverse rank order, as the backtrack
        walks them, give the table of the same blocks in `Solution` order."""
        if fleet == "ref":
            inst = generate(ScenarioConfig(seed=0))
            prepared, route, econ = prepare_fleet(inst), inst.route, inst.econ
        else:  # the ET ready first leaves alone last, as in the test below
            route, econ = replace(REF_ROUTE, max_platoon_size=1), REF_ECON
            prepared = prepare([et(1, 0.0, soc=30.0), ft(2, 28.0), ft(3, 30.0), ft(4, 31.0)],
                               route=route)
        table = solve_dp_ls(prepared, route, econ).table
        blocks = [(table.rank[s], n, k) for s, n, k in zip(table.start, table.size, table.leader)]
        for given in (blocks, sorted(blocks, reverse=True)):
            priced = price_platoons(prepared, *zip(*given), route, econ)
            assert priced == table and repr(priced) == repr(table)

    def test_records_in_any_order_give_one_table(self):
        """`PlatoonTable.from_records` orders the records it is given."""
        inst = generate(ScenarioConfig(seed=0))
        for sol in solve_all(prepare_fleet(inst), inst.route, inst.econ, inst.seed):
            records = sol.platoons
            shuffled = random.Random(0).sample(records, len(records))
            assert shuffled != records
            table = PlatoonTable.from_records(shuffled)
            assert table == PlatoonTable.from_records(records)
            assert table.records() == records

    @pytest.mark.parametrize("solve", [solve_dp_ls, lambda p, r, e: solve_dp_nls(p, r, e, 1)],
                             ids=["dp-ls", "dp-nls"])
    def test_dp_orders_a_postponed_solo(self, solve):
        """With nbar = 1 every truck leaves alone, so the ET that is ready
        first but alone-safe only at 34.8 leaves behind the fuel trucks."""
        route = replace(REF_ROUTE, max_platoon_size=1)
        prepared = prepare([et(1, 0.0, soc=30.0), ft(2, 28.0), ft(3, 30.0), ft(4, 31.0)],
                           route=route)
        sol = solve(prepared, route, REF_ECON)
        records = [evaluate_platoon((k,), LEADER_BY_CODE[not electric], prepared, REF_ECON)
                   for k, electric in enumerate(prepared.arrays.is_et.tolist())]
        assert [p.ranks for p in sol.platoons] == [(1,), (2,), (3,), (0,)]
        assert_assembled_from(sol, records)

    def test_no_platoons(self):
        sol = Solution.from_platoons("DP-LS", [])
        assert sol.platoons == [] and len(sol.table) == 0
        assert (sol.profit, sol.loss, sol.utility) == (0, 0, 0)

    def test_totals_are_added_one_platoon_after_the_other(self):
        """Ten solo platoons of loss 0.1: adding them in order from 0.0 gives
        0.9999999999999999 on every Python, where the built-in sum gives 1.0
        from 3.12 on."""
        n = 10
        table = solo_fuel_table([float(k) for k in range(n)], list(range(n)), loss=0.1)
        sol = Solution.from_table("X", table)
        assert repr((sol.profit, sol.loss, sol.utility)) == repr(
            (0.0, 0.9999999999999999, -0.9999999999999999))
        assert repr(reference_totals(sol.platoons)) == repr((sol.profit, sol.loss, sol.utility))
        assert_assembled_from(sol, sol.platoons)


class TestCoverage:
    def setup_method(self):
        self.prepared = prepare([ft(1, 0.0), ft(2, 10.0), ft(3, 11.0)])

    def block(self, lo, hi):
        return evaluate_platoon(range(lo, hi), LeaderType.FUEL, self.prepared, REF_ECON)

    def test_overlap_raises(self):
        with pytest.raises(ContractViolation, match="exactly once"):
            Solution.from_platoons("X", [self.block(0, 2), self.block(1, 3)])

    def test_gap_raises(self):
        with pytest.raises(ContractViolation, match="exactly once"):
            Solution.from_platoons("X", [self.block(0, 1), self.block(2, 3)])

    def test_empty_platoon_raises(self):
        empty = self.block(0, 1)._replace(ranks=(), ledger=())
        with pytest.raises(ContractViolation, match="at least one member"):
            PlatoonTable.from_records([self.block(0, 1), empty])
