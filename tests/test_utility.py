import math

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
from checks import reference_evaluate_platoon
from conftest import (
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
    topped up by at most the record's `fill_time` until the platoon leaves."""

    def make_member(self):
        # Weak ET whose earliest departure lands at t=100.
        cmin = (FOLLOW_NEED - 30.0) / 1.07
        (member,) = prepare([et(1, 100.0 - cmin, soc=30.0)]).records()
        return member, cmin

    def charges(self, members, depart_at=None, leader=LeaderType.ELECTRIC):
        p = evaluate_platoon(members, leader, REF_ROUTE, REF_ECON, depart_at=depart_at)
        return [row.charge_time for row in p.ledger]

    def test_record_constants(self):
        member, cmin = self.make_member()
        assert member.min_charge_time == pytest.approx(cmin, **APPROX)
        assert member.fill_time == pytest.approx((100.0 - FOLLOW_NEED) / 1.07, **APPROX)
        assert member.lead_need == pytest.approx(LEAD_NEED, **APPROX)

    def test_tops_up_until_departure(self):
        member, cmin = self.make_member()
        assert self.charges([member], 120.0) == [pytest.approx(cmin + 20.0, **APPROX)]
        # 20 extra minutes at 1.07 percent per minute on top of the minimum.
        assert member.min_departure_soc + 1.07 * 20.0 == pytest.approx(78.304, **APPROX)

    def test_tops_up_to_a_full_battery(self):
        member, _ = self.make_member()
        assert self.charges([member], 500.0) == [member.min_charge_time + member.fill_time]
        assert member.min_charge_time + member.fill_time == pytest.approx(70.0 / 1.07, **APPROX)

    def test_zero_slack_gives_minimum(self):
        # A fuel truck ready the moment the ET is: the platoon leaves then.
        member, cmin = self.make_member()
        members = prepare([member.spec, ft(2, member.earliest_departure)]).records()
        assert self.charges(members, None, LeaderType.FUEL) == [
            pytest.approx(cmin, **APPROX), 0.0]

    def test_full_battery_never_charges_more(self):
        (member,) = prepare([et(1, 10.0, soc=100.0)]).records()
        assert member.fill_time == 0.0
        assert self.charges([member], 500.0) == [0.0]

    def test_departure_before_ready_rejected(self):
        member, _ = self.make_member()
        with pytest.raises(ContractViolation, match="precedes"):
            self.charges([member], 99.0)

    def test_fuel_truck_does_not_charge(self):
        (member,) = prepare([ft(1, 0.0)]).records()
        assert (member.fill_time, member.lead_need) == (None, None)
        assert self.charges([member], 10.0, LeaderType.FUEL) == [0.0]


class TestEvaluatePlatoon:
    def test_two_fuel_trucks(self):
        prepared = prepare([ft(1, 0.0), ft(2, 10.0)]).records()
        p = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        assert p.departure_time == 10.0
        assert p.profit == pytest.approx(14.0, **APPROX)
        assert p.loss == pytest.approx(4.0, **APPROX)
        assert p.utility == pytest.approx(10.0, **APPROX)
        assert p.leader_rank == 0  # lowest-rank fuel member leads

    def test_solo_fuel_truck(self):
        prepared = prepare([ft(1, 0.0)]).records()
        p = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        assert (p.profit, p.loss, p.utility) == (0.0, 0.0, 0.0)
        assert p.departure_time == 0.0
        assert p.ledger[0].role is Role.ALONE

    def test_fuel_plus_ready_electric(self):
        prepared = prepare([ft(1, 10.0), et(2, 12.0, soc=60.0)]).records()
        p = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        assert p.departure_time == 12.0
        assert p.profit == pytest.approx(10.0, **APPROX)
        assert p.loss == pytest.approx(0.8, **APPROX)
        assert p.utility == pytest.approx(9.2, **APPROX)
        row = p.ledger[1]
        assert row.charge_time == pytest.approx(0.0, **APPROX)
        assert row.wait_time == pytest.approx(0.0, **APPROX)

    def test_leader_swap_changes_profit_only(self):
        prepared = prepare([ft(1, 0.0), et(2, 5.0, soc=80.0), ft(3, 9.0)]).records()
        with_f = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        with_e = evaluate_platoon(prepared, LeaderType.ELECTRIC, REF_ROUTE, REF_ECON)
        assert with_e.loss == pytest.approx(with_f.loss, **APPROX)
        assert with_e.utility - with_f.utility == pytest.approx(
            REF_ECON.ft_follower_profit - REF_ECON.et_follower_profit, **APPROX)

    def test_weak_solo_electric_charges_to_alone_level(self):
        (member,) = prepare([et(1, 50.0, soc=30.0)]).records()
        p = evaluate_platoon([member], LeaderType.ELECTRIC, REF_ROUTE, REF_ECON)
        expected_charge = (LEAD_NEED - 30.0) / 1.07
        assert p.departure_time == pytest.approx(50.0 + expected_charge, **APPROX)
        row = p.ledger[0]
        assert row.charge_time == pytest.approx(expected_charge, **APPROX)
        assert row.wait_time == pytest.approx(0.0, **APPROX)
        assert row.departure_soc == pytest.approx(LEAD_NEED, **APPROX)
        assert row.arrival_soc >= member.spec.safe_soc - 1e-9
        assert p.utility == pytest.approx(-0.2 * expected_charge, **APPROX)

    def test_strong_solo_electric_departs_when_ready(self):
        (member,) = prepare([et(1, 50.0, soc=70.0)]).records()
        p = evaluate_platoon([member], LeaderType.ELECTRIC, REF_ROUTE, REF_ECON)
        assert p.departure_time == 50.0
        assert p.ledger[0].charge_time == 0.0

    def test_followers_arrive_safe(self):
        prepared = prepare([et(1, 0.0, soc=12.0), et(2, 3.0, soc=25.0), ft(3, 40.0)]).records()
        p = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        for row in p.ledger:
            if row.arrival_soc is not None and row.role is Role.FOLLOWER:
                assert row.arrival_soc >= 10.0 - 1e-9

    def test_time_conservation(self):
        prepared = prepare([ft(1, 0.0), et(2, 3.0, soc=20.0), et(3, 8.0, soc=90.0)]).records()
        p = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        lhs = sum(r.charge_time + r.wait_time for r in p.ledger)
        rhs = sum(p.departure_time - m.arrival_time for m in prepared)
        assert lhs == pytest.approx(rhs, **APPROX)

    def test_charge_before_wait_is_cheapest_split(self):
        # Any other split of the idle gap into charge/wait costs at least as
        # much while charging stays within the battery.
        prepared = prepare([et(1, 0.0, soc=30.0), ft(2, 60.0)]).records()
        member = prepared[0]
        p = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        row = p.ledger[0]
        chosen = 0.2 * row.charge_time + 0.4 * row.wait_time
        gap = p.departure_time - member.earliest_departure
        fill = (member.spec.max_soc - member.min_departure_soc) / member.spec.charge_rate
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            extra = frac * min(gap, fill)
            alt = 0.2 * (member.min_charge_time + extra) + 0.4 * (gap - extra)
            assert chosen <= alt + 1e-9

    def test_electric_leader_identity_prefers_highest_soc(self):
        prepared = prepare([et(1, 0.0, soc=95.0), et(2, 2.0, soc=80.0), ft(3, 4.0)]).records()
        p = evaluate_platoon(prepared, LeaderType.ELECTRIC, REF_ROUTE, REF_ECON)
        assert p.leader_rank == 0
        leader_row = next(r for r in p.ledger if r.rank == p.leader_rank)
        assert leader_row.role is Role.LEADER

    def test_contract_errors(self):
        prepared = prepare([ft(1, 0.0), ft(2, 1.0)]).records()
        with pytest.raises(ContractViolation):
            evaluate_platoon(prepared, LeaderType.ELECTRIC, REF_ROUTE, REF_ECON)
        with pytest.raises(ContractViolation):
            evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON, depart_at=0.5)
        with pytest.raises(ContractViolation):
            evaluate_platoon([], LeaderType.FUEL, REF_ROUTE, REF_ECON)
        solo = prepare([et(1, 0.0, soc=80.0)]).records()
        with pytest.raises(ContractViolation):
            evaluate_platoon(solo, LeaderType.FUEL, REF_ROUTE, REF_ECON)

    @pytest.mark.parametrize("depart_at", [math.nan, math.inf, -math.inf])
    def test_departure_must_be_finite(self, depart_at):
        prepared = prepare([ft(1, 0.0), et(2, 1.0, soc=80.0)]).records()
        for members, leader in ((prepared, LeaderType.FUEL), (prepared[1:], LeaderType.ELECTRIC)):
            with pytest.raises(ContractViolation, match="is not finite"):
                evaluate_platoon(members, leader, REF_ROUTE, REF_ECON, depart_at=depart_at)

    def test_rank_must_not_repeat(self):
        fuel, electric = prepare([ft(1, 0.0), et(2, 1.0, soc=80.0)]).records()
        for members in ([fuel, fuel], [electric, fuel, electric]):
            with pytest.raises(ContractViolation, match="more than once"):
                evaluate_platoon(members, LeaderType.FUEL, REF_ROUTE, REF_ECON)


def _priced(price, members, leader, route, econ, depart_at):
    """What `price` returns for these arguments, or the type and message of
    what it raises."""
    try:
        return price(members, leader, route, econ, depart_at=depart_at)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


@st.composite
def pricing_calls(draw):
    """A prepared fleet of `conftest.fleet_instances` and a call on it: a
    subset of its trucks in any order, none twice, with or without gaps in
    rank (empty and over-size subsets included), a leader kind, and a
    departure that is the default, the subset's ready instant, later, within
    `TIME_TOL` below it, or earlier than that."""
    try:
        prepared = prepare_fleet(draw(fleet_instances()))
    except (HorizonExceededError, InfeasibleTruckError):
        reject()
    n, cap = len(prepared), prepared.instance.route.max_platoon_size
    size = draw(st.one_of(st.integers(1, min(n, cap)), st.integers(0, n)))
    records = prepared.records()
    members = [records[k] for k in draw(st.permutations(range(n)))[:size]]
    leader = draw(st.sampled_from(LeaderType))
    ready = max([m.earliest_departure for m in members], default=0.0)
    depart_at = draw(st.sampled_from((
        None, ready, ready + draw(st.sampled_from((0.1, 7.25, 300.0))),
        ready - draw(st.floats(0.0, 1.0)) * TIME_TOL, ready - 1.0)))
    return members, leader, prepared.instance.route, prepared.instance.econ, depart_at


# ETs that can follow but never lead, taken out of rank order with a gap;
# and a weak solo ET whose requested departure comes before it may drive
# alone.
_UNLEADABLE = prepare([et(k, float(k), soc=20.0 + 25.0 * k, vrate=UNLEADABLE)
                       for k in range(4)]).records()
_WEAK = prepare([et(1, 50.0, soc=30.0)]).records()


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(pricing_calls())
    @example(([_UNLEADABLE[3], _UNLEADABLE[0], _UNLEADABLE[1]], LeaderType.ELECTRIC,
              REF_ROUTE, REF_ECON, None))
    @example(([_UNLEADABLE[3], _UNLEADABLE[0], _UNLEADABLE[1]], LeaderType.FUEL,
              REF_ROUTE, REF_ECON, None))
    @example((list(_WEAK), LeaderType.ELECTRIC, REF_ROUTE, REF_ECON,
              _WEAK[0].earliest_departure + 1.0))
    def test_same_record_or_same_error(self, call):
        """`evaluate_platoon` equals the plain scalar reference by `==` and
        by `repr`, or raises the same error with the same message."""
        got = _priced(evaluate_platoon, *call)
        expected = _priced(reference_evaluate_platoon, *call)
        assert got == expected
        assert repr(got) == repr(expected)


class TestAggregate:
    def test_empty(self):
        assert aggregate([]) == (0.0, 0.0, 0.0)

    def test_singleton_passthrough(self):
        prepared = prepare([ft(1, 0.0), ft(2, 10.0)]).records()
        p = evaluate_platoon(prepared, LeaderType.FUEL, REF_ROUTE, REF_ECON)
        profit, loss, utility = aggregate([p])
        assert (profit, loss) == (p.profit, p.loss)
        assert utility == pytest.approx(p.utility, **APPROX)

    def test_additive(self):
        prepared = prepare([ft(1, 0.0), ft(2, 10.0), ft(3, 11.0), ft(4, 12.0)]).records()
        a = evaluate_platoon(prepared[:2], LeaderType.FUEL, REF_ROUTE, REF_ECON)
        b = evaluate_platoon(prepared[2:], LeaderType.FUEL, REF_ROUTE, REF_ECON)
        profit, loss, utility = aggregate([a, b])
        assert profit == pytest.approx(a.profit + b.profit, **APPROX)
        assert loss == pytest.approx(a.loss + b.loss, **APPROX)
        assert utility == pytest.approx(profit - loss, **APPROX)

    def test_partition_must_be_exact(self):
        prepared = prepare([ft(1, 0.0), ft(2, 10.0), ft(3, 11.0)]).records()
        a = evaluate_platoon(prepared[:2], LeaderType.FUEL, REF_ROUTE, REF_ECON)
        with pytest.raises(ContractViolation):
            aggregate([a, a])
        with pytest.raises(ContractViolation):
            aggregate([a], n_trucks=3)
        b = evaluate_platoon(prepared[1:], LeaderType.FUEL, REF_ROUTE, REF_ECON)
        with pytest.raises(ContractViolation):
            aggregate([b])  # rank 0 missing


class TestAloneDeparture:
    """A lone ET leaves at its record's `alone_departure`: arrival plus the
    charge to the lead-level SoC, capped at a full battery, never below the
    mandatory charge."""

    def solo(self, member):
        return evaluate_platoon([member], LeaderType.ELECTRIC, REF_ROUTE, REF_ECON)

    def test_alone_charge_extends_mandatory_charge(self):
        (weak,) = prepare([et(1, 0.0, soc=30.0)]).records()
        assert weak.alone_departure == pytest.approx((LEAD_NEED - 30.0) / 1.07, **APPROX)
        assert weak.alone_departure > weak.earliest_departure
        p = self.solo(weak)
        assert p.departure_time == weak.alone_departure
        assert p.ledger[0].charge_time == pytest.approx((LEAD_NEED - 30.0) / 1.07, **APPROX)

    def test_alone_charge_capped_by_capacity(self):
        # Lead-level SoC (10 + 0.3 * 200 = 70) is beyond this battery, so the
        # alone-safe charge stops at a full 60 percent.
        (member,) = prepare([et(1, 0.0, soc=30.0, max_soc=60.0, vrate=0.3)]).records()
        assert member.alone_departure == pytest.approx((60.0 - 30.0) / 1.07, **APPROX)
        assert self.solo(member).ledger[0].departure_soc == pytest.approx(60.0, **APPROX)

    def test_strong_et_and_fuel_truck_leave_when_ready(self):
        fuel, strong = prepare([et(1, 4.0, soc=90.0), ft(2, 3)]).records()
        assert strong.alone_departure == strong.earliest_departure == 4.0
        assert fuel.alone_departure == fuel.earliest_departure == 3.0
