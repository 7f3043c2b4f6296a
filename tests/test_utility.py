import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from platoon_coord import (
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    LeaderType,
    Role,
    aggregate,
    evaluate_platoon,
    platoon_profit,
    prepare_fleet,
)
from platoon_coord.model import TIME_TOL
from checks import reference_evaluate_platoon, reference_prepare_fleet
from conftest import (
    ET_MAX,
    ET_SAFE,
    ET_VRATE,
    FOLLOW_NEED,
    LEAD_NEED,
    REF_ECON,
    REF_ROUTE,
    UNLEADABLE,
    et,
    fleet_instances,
    ft,
    prepare,
)

APPROX = dict(abs=1e-9)


def price(fleet, leader, ranks=None, depart_at=None):
    """`evaluate_platoon` of the trucks at `ranks` of `fleet`, all of them
    by default."""
    ranks = range(len(fleet)) if ranks is None else ranks
    return evaluate_platoon(ranks, leader, fleet, REF_ECON, depart_at=depart_at)


class TestPlatoonProfit:
    def test_fuel_leader(self):
        assert platoon_profit(1, 2, LeaderType.FUEL, REF_ECON) == 24.0

    def test_electric_leader_keeps_fuel_followers(self):
        assert platoon_profit(1, 2, LeaderType.ELECTRIC, REF_ECON) == 28.0

    def test_solo_earns_nothing(self):
        assert platoon_profit(0, 1, LeaderType.FUEL, REF_ECON) == 0.0

    def test_leader_kind_must_be_present(self):
        with pytest.raises(ContractViolation):
            platoon_profit(0, 2, LeaderType.ELECTRIC, REF_ECON)
        with pytest.raises(ContractViolation):
            platoon_profit(0, 0, LeaderType.FUEL, REF_ECON)


class TestEtChargeTime:
    """An ET's charge in `evaluate_platoon`'s ledger: the mandatory charge,
    topped up by at most its `fill_time` until the platoon leaves."""

    def make_member(self):
        # Weak ET whose earliest departure lands at t=100.
        cmin = (FOLLOW_NEED - 30.0) / 1.07
        return prepare([et(1, 100.0 - cmin, soc=30.0)]), cmin

    def charges(self, fleet, depart_at=None, leader=LeaderType.ELECTRIC):
        return [row.charge_time for row in price(fleet, leader, depart_at=depart_at).ledger]

    def test_record_constants(self):
        fleet, cmin = self.make_member()
        arr = fleet.arrays
        assert arr.tau_cmin[0] == pytest.approx(cmin, **APPROX)
        assert arr.fill_time[0] == pytest.approx((100.0 - FOLLOW_NEED) / 1.07, **APPROX)
        assert arr.need_lead[0] == pytest.approx(LEAD_NEED, **APPROX)

    def test_tops_up_until_departure(self):
        fleet, cmin = self.make_member()
        assert self.charges(fleet, 120.0) == [pytest.approx(cmin + 20.0, **APPROX)]
        # 20 extra minutes at 1.07 percent per minute on top of the minimum.
        (row,) = price(fleet, LeaderType.ELECTRIC, depart_at=120.0).ledger
        assert row.departure_soc == pytest.approx(FOLLOW_NEED + 1.07 * 20.0, **APPROX)

    def test_tops_up_to_a_full_battery(self):
        fleet, _ = self.make_member()
        full = fleet.arrays.tau_cmin[0] + fleet.arrays.fill_time[0]
        assert self.charges(fleet, 500.0) == [full]
        assert full == pytest.approx(70.0 / 1.07, **APPROX)

    def test_zero_slack_gives_minimum(self):
        # A fuel truck ready the moment the ET is: the platoon leaves then.
        fleet, cmin = self.make_member()
        truck = fleet.instance.trucks[0]
        pair = prepare([truck, ft(2, fleet.arrays.tau_delta[0].item())])
        assert self.charges(pair, None, LeaderType.FUEL) == [pytest.approx(cmin, **APPROX), 0.0]

    def test_full_battery_never_charges_more(self):
        fleet = prepare([et(1, 10.0, soc=100.0)])
        assert fleet.arrays.fill_time[0] == 0.0
        assert self.charges(fleet, 500.0) == [0.0]

    def test_departure_before_ready_rejected(self):
        fleet, _ = self.make_member()
        with pytest.raises(ContractViolation, match="precedes"):
            self.charges(fleet, 99.0)

    def test_fuel_truck_does_not_charge(self):
        fleet = prepare([ft(1, 0.0)])
        assert (fleet.arrays.fill_time[0], fleet.arrays.need_lead[0]) == (0.0, 0.0)
        assert self.charges(fleet, 10.0, LeaderType.FUEL) == [0.0]


class TestEvaluatePlatoon:
    def test_two_fuel_trucks(self):
        p = price(prepare([ft(1, 0.0), ft(2, 10.0)]), LeaderType.FUEL)
        assert p.departure_time == 10.0
        assert p.profit == pytest.approx(14.0, **APPROX)
        assert p.loss == pytest.approx(4.0, **APPROX)
        assert p.utility == pytest.approx(10.0, **APPROX)
        assert p.leader_rank == 0  # lowest-rank fuel member leads

    def test_solo_fuel_truck(self):
        p = price(prepare([ft(1, 0.0)]), LeaderType.FUEL)
        assert (p.profit, p.loss, p.utility) == (0.0, 0.0, 0.0)
        assert p.departure_time == 0.0
        assert p.ledger[0].role is Role.ALONE

    def test_fuel_plus_ready_electric(self):
        p = price(prepare([ft(1, 10.0), et(2, 12.0, soc=60.0)]), LeaderType.FUEL)
        assert p.departure_time == 12.0
        assert p.profit == pytest.approx(10.0, **APPROX)
        assert p.loss == pytest.approx(0.8, **APPROX)
        assert p.utility == pytest.approx(9.2, **APPROX)
        row = p.ledger[1]
        assert row.charge_time == pytest.approx(0.0, **APPROX)
        assert row.wait_time == pytest.approx(0.0, **APPROX)

    def test_leader_swap_changes_profit_only(self):
        fleet = prepare([ft(1, 0.0), et(2, 5.0, soc=80.0), ft(3, 9.0)])
        with_f = price(fleet, LeaderType.FUEL)
        with_e = price(fleet, LeaderType.ELECTRIC)
        assert with_e.loss == pytest.approx(with_f.loss, **APPROX)
        assert with_e.utility - with_f.utility == pytest.approx(
            REF_ECON.ft_follower_profit - REF_ECON.et_follower_profit, **APPROX)

    def test_weak_solo_electric_charges_to_alone_level(self):
        p = price(prepare([et(1, 50.0, soc=30.0)]), LeaderType.ELECTRIC)
        expected_charge = (LEAD_NEED - 30.0) / 1.07
        assert p.departure_time == pytest.approx(50.0 + expected_charge, **APPROX)
        row = p.ledger[0]
        assert row.charge_time == pytest.approx(expected_charge, **APPROX)
        assert row.wait_time == pytest.approx(0.0, **APPROX)
        assert row.departure_soc == pytest.approx(LEAD_NEED, **APPROX)
        assert row.arrival_soc >= ET_SAFE - 1e-9
        assert p.utility == pytest.approx(-0.2 * expected_charge, **APPROX)

    def test_strong_solo_electric_departs_when_ready(self):
        p = price(prepare([et(1, 50.0, soc=70.0)]), LeaderType.ELECTRIC)
        assert p.departure_time == 50.0
        assert p.ledger[0].charge_time == 0.0

    def test_followers_arrive_safe(self):
        fleet = prepare([et(1, 0.0, soc=12.0), et(2, 3.0, soc=25.0), ft(3, 40.0)])
        p = price(fleet, LeaderType.FUEL)
        for row in p.ledger:
            if row.arrival_soc is not None and row.role is Role.FOLLOWER:
                assert row.arrival_soc >= 10.0 - 1e-9

    def test_time_conservation(self):
        # Each member leaves at its arrival plus its charge and its wait.
        trucks = [ft(1, 0.0), et(2, 3.0, soc=20.0), et(3, 8.0, soc=90.0)]
        fleet = prepare(trucks)
        p = price(fleet, LeaderType.FUEL)
        for row in p.ledger:
            arrival = trucks[fleet.order[row.rank]].arrival_time
            assert row.charge_time + row.wait_time == pytest.approx(
                p.departure_time - arrival, **APPROX)

    def test_charge_before_wait_is_cheapest_split(self):
        # Any other split of the idle gap into charge/wait costs at least as
        # much while charging stays within the battery.
        fleet = prepare([et(1, 0.0, soc=30.0), ft(2, 60.0)])
        member = reference_prepare_fleet(fleet.instance)[0]
        p = price(fleet, LeaderType.FUEL)
        row = p.ledger[0]
        chosen = 0.2 * row.charge_time + 0.4 * row.wait_time
        gap = p.departure_time - member.earliest_departure
        fill = (member.spec.max_soc - member.min_departure_soc) / member.spec.charge_rate
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            extra = frac * min(gap, fill)
            alt = 0.2 * (member.min_charge_time + extra) + 0.4 * (gap - extra)
            assert chosen <= alt + 1e-9

    def test_electric_leader_identity_prefers_highest_soc(self):
        fleet = prepare([et(1, 0.0, soc=95.0), et(2, 2.0, soc=80.0), ft(3, 4.0)])
        p = price(fleet, LeaderType.ELECTRIC)
        assert p.leader_rank == 0
        leader_row = next(r for r in p.ledger if r.rank == p.leader_rank)
        assert leader_row.role is Role.LEADER

    def test_contract_errors(self):
        fleet = prepare([ft(1, 0.0), ft(2, 1.0)])
        with pytest.raises(ContractViolation):
            price(fleet, LeaderType.ELECTRIC)
        with pytest.raises(ContractViolation):
            price(fleet, LeaderType.FUEL, depart_at=0.5)
        with pytest.raises(ContractViolation):
            price(fleet, LeaderType.FUEL, ranks=[])
        with pytest.raises(ContractViolation):
            price(prepare([et(1, 0.0, soc=80.0)]), LeaderType.FUEL)

    @pytest.mark.parametrize("depart_at", [math.nan, math.inf, -math.inf])
    def test_departure_must_be_finite(self, depart_at):
        fleet = prepare([ft(1, 0.0), et(2, 1.0, soc=80.0)])
        for ranks, leader in (((0, 1), LeaderType.FUEL), ((1,), LeaderType.ELECTRIC)):
            with pytest.raises(ContractViolation, match="is not finite"):
                price(fleet, leader, ranks, depart_at=depart_at)

    def test_rank_must_not_repeat(self):
        fleet = prepare([ft(1, 0.0), et(2, 1.0, soc=80.0)])
        for ranks in ((0, 0), (1, 0, 1)):
            with pytest.raises(ContractViolation, match="more than once"):
                price(fleet, LeaderType.FUEL, ranks)

    @pytest.mark.parametrize("ranks", [(True,), (1.0,), (0, True), (0, 1.0), (np.int64(1),)])
    def test_rank_must_be_an_int(self, ranks):
        """A record keeps the rank objects it is given: True used to price
        rank 1 and return `ranks=(True,)`, and 1.0 raised a bare TypeError."""
        fleet = prepare([ft(1, 0.0), ft(2, 1.0)])
        with pytest.raises(ContractViolation, match="^ranks must be ints, got "):
            price(fleet, LeaderType.FUEL, ranks)

    @pytest.mark.parametrize("ranks", [(2,), (0, 2), (-1,), (-1, 0), (-2, 1), (0, 1, 5)])
    def test_rank_must_lie_in_the_fleet(self, ranks):
        # A negative rank would pick a truck from the end of a Python list.
        fleet = prepare([ft(1, 0.0), et(2, 1.0, soc=80.0)])
        for leader in LeaderType:
            with pytest.raises(ContractViolation, match="^ranks run outside the fleet of 2 "):
                price(fleet, leader, ranks)

    def test_route_is_the_fleets(self):
        # A weak ET is priced on the route its fleet was prepared for, so
        # alone on a longer leg it charges to that leg's lead need and
        # arrives safe.
        truck = et(1, 50.0, soc=30.0)
        for distance in (200.0, 300.0):
            fleet = prepare([truck], route=replace(REF_ROUTE, distance=distance))
            (row,) = price(fleet, LeaderType.ELECTRIC).ledger
            assert row.departure_soc == pytest.approx(
                min(ET_MAX, ET_SAFE + ET_VRATE * distance), **APPROX)
            assert row.can_lead and row.arrival_soc >= ET_SAFE - 1e-9


def _priced(price, *args, **kwargs):
    """What `price` returns for these arguments, or the type and message of
    what it raises."""
    try:
        return price(*args, **kwargs)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


@st.composite
def pricing_calls(draw):
    """A prepared fleet of `conftest.fleet_instances` and a call on it: the
    ranks of a subset of its trucks in any order, none twice, with or
    without gaps (empty and over-size subsets included), a leader kind, and
    a departure that is the default, the subset's ready instant, later,
    within `TIME_TOL` below it, or earlier than that."""
    try:
        prepared = prepare_fleet(draw(fleet_instances()))
    except (HorizonExceededError, InfeasibleTruckError):
        reject()
    n, cap = len(prepared), prepared.instance.route.max_platoon_size
    size = draw(st.one_of(st.integers(1, min(n, cap)), st.integers(0, n)))
    ranks = draw(st.permutations(range(n)))[:size]
    leader = draw(st.sampled_from(LeaderType))
    tau = prepared.column_lists().tau_delta
    ready = max([tau[k] for k in ranks], default=0.0)
    depart_at = draw(st.sampled_from((
        None, ready, ready + draw(st.sampled_from((0.1, 7.25, 300.0))),
        ready - draw(st.floats(0.0, 1.0)) * TIME_TOL, ready - 1.0)))
    return prepared, ranks, leader, depart_at


# ETs that can follow but never lead, taken out of rank order with a gap;
# and a weak solo ET whose requested departure comes before it may drive
# alone.
_UNLEADABLE = prepare([et(k, float(k), soc=20.0 + 25.0 * k, vrate=UNLEADABLE)
                       for k in range(4)])
_WEAK = prepare([et(1, 50.0, soc=30.0)])


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(pricing_calls())
    @example((_UNLEADABLE, [3, 0, 1], LeaderType.ELECTRIC, None))
    @example((_UNLEADABLE, [3, 0, 1], LeaderType.FUEL, None))
    @example((_WEAK, [0], LeaderType.ELECTRIC, _WEAK.arrays.tau_delta[0].item() + 1.0))
    def test_same_record_or_same_error(self, call):
        """`evaluate_platoon` equals the plain scalar reference over the
        scalar loop's records by `==` and by `repr`, or raises the same
        error with the same message."""
        fleet, ranks, leader, depart_at = call
        route, econ = fleet.instance.route, fleet.instance.econ
        got = _priced(evaluate_platoon, ranks, leader, fleet, econ, depart_at=depart_at)
        records = reference_prepare_fleet(fleet.instance)
        expected = _priced(reference_evaluate_platoon, [records[k] for k in ranks], leader,
                           route, econ, depart_at=depart_at)
        assert got == expected
        assert repr(got) == repr(expected)


class TestAggregate:
    def test_empty(self):
        assert aggregate([]) == (0.0, 0.0, 0.0)

    def test_singleton_passthrough(self):
        p = price(prepare([ft(1, 0.0), ft(2, 10.0)]), LeaderType.FUEL)
        profit, loss, utility = aggregate([p])
        assert (profit, loss) == (p.profit, p.loss)
        assert utility == pytest.approx(p.utility, **APPROX)

    def test_additive(self):
        fleet = prepare([ft(1, 0.0), ft(2, 10.0), ft(3, 11.0), ft(4, 12.0)])
        a = price(fleet, LeaderType.FUEL, range(0, 2))
        b = price(fleet, LeaderType.FUEL, range(2, 4))
        profit, loss, utility = aggregate([a, b])
        assert profit == pytest.approx(a.profit + b.profit, **APPROX)
        assert loss == pytest.approx(a.loss + b.loss, **APPROX)
        assert utility == pytest.approx(profit - loss, **APPROX)

    def test_partition_must_be_exact(self):
        fleet = prepare([ft(1, 0.0), ft(2, 10.0), ft(3, 11.0)])
        a = price(fleet, LeaderType.FUEL, range(0, 2))
        with pytest.raises(ContractViolation):
            aggregate([a, a])
        with pytest.raises(ContractViolation):
            aggregate([a], n_trucks=3)
        b = price(fleet, LeaderType.FUEL, range(1, 3))
        with pytest.raises(ContractViolation):
            aggregate([b])  # rank 0 missing


class TestAloneDeparture:
    """A lone ET leaves at its `alone_depart`: arrival plus the charge to
    the lead-level SoC, capped at a full battery, never below the mandatory
    charge."""

    def solo(self, fleet):
        return price(fleet, LeaderType.ELECTRIC)

    def test_alone_charge_extends_mandatory_charge(self):
        weak = prepare([et(1, 0.0, soc=30.0)])
        alone, earliest = weak.arrays.alone_depart[0], weak.arrays.tau_delta[0]
        assert alone == pytest.approx((LEAD_NEED - 30.0) / 1.07, **APPROX)
        assert alone > earliest
        p = self.solo(weak)
        assert p.departure_time == alone
        assert p.ledger[0].charge_time == pytest.approx((LEAD_NEED - 30.0) / 1.07, **APPROX)

    def test_alone_charge_capped_by_capacity(self):
        # Lead-level SoC (10 + 0.3 * 200 = 70) is beyond this battery, so the
        # alone-safe charge stops at a full 60 percent.
        fleet = prepare([et(1, 0.0, soc=30.0, max_soc=60.0, vrate=0.3)])
        assert fleet.arrays.alone_depart[0] == pytest.approx((60.0 - 30.0) / 1.07, **APPROX)
        assert self.solo(fleet).ledger[0].departure_soc == pytest.approx(60.0, **APPROX)

    def test_strong_et_and_fuel_truck_leave_when_ready(self):
        arr = prepare([et(1, 4.0, soc=90.0), ft(2, 3)]).arrays
        assert arr.alone_depart.tolist() == arr.tau_delta.tolist() == [3.0, 4.0]
