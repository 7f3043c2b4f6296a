import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from platoon_coord import (
    ContractViolation,
    EconomicParams,
    ProblemInstance,
    RouteParams,
    TruckKind,
    TruckSpec,
    LeaderType,
    departure_soc_bounds,
    evaluate_platoon,
    soc_after_charge,
    soc_after_trip,
)
from conftest import REF_ECON, REF_ROUTE, et, ft, prepare

APPROX = dict(abs=1e-9)


class TestDepartureTime:
    """A truck leaves at its arrival plus its charge and its wait, as the
    ledger of a priced platoon gives them; a fuel truck only waits."""

    @staticmethod
    def row(truck, leader, depart_at):
        (row,) = evaluate_platoon((0,), leader, prepare([truck]), REF_ECON,
                                  depart_at=depart_at).ledger
        return row

    def test_fuel_truck_waits_only(self):
        row = self.row(ft(1, 100.0), LeaderType.FUEL, 120.0)
        assert (row.charge_time, row.wait_time) == (0.0, 20.0)

    def test_electric_truck_charges_then_waits(self):
        # Full after (100 - 90) / 1.07 minutes of charge; then it waits.
        row = self.row(et(1, 100.0, soc=90.0), LeaderType.ELECTRIC, 130.0)
        assert row.charge_time == pytest.approx(10.0 / 1.07, **APPROX)
        assert 100.0 + row.charge_time + row.wait_time == pytest.approx(130.0, **APPROX)

    def test_all_zero(self):
        row = self.row(et(1, 0.0, soc=90.0), LeaderType.ELECTRIC, 0.0)
        assert (row.charge_time, row.wait_time) == (0.0, 0.0)

    def test_negative_times_rejected(self):
        # A departure before the truck is ready would leave it a negative wait.
        with pytest.raises(ContractViolation, match="precedes"):
            self.row(ft(1, 100.0), LeaderType.FUEL, 99.0)


class TestSocAfterCharge:
    def test_linear(self):
        assert soc_after_charge(20.0, 1.07, 10.0) == pytest.approx(30.7, **APPROX)

    def test_zero_charge(self):
        assert soc_after_charge(50.0, 1.07, 0.0) == 50.0

    def test_round_trip_with_charge_duration(self):
        # Inverse check: charging exactly (target - start) / rate minutes
        # lands on the target.
        target = 56.904
        charge = (target - 30.0) / 1.07
        assert soc_after_charge(30.0, 1.07, charge) == pytest.approx(target, **APPROX)

    def test_negative_charge_rejected(self):
        with pytest.raises(ContractViolation):
            soc_after_charge(50.0, 1.07, -0.1)


class TestSocAfterTrip:
    def test_alone_rate(self):
        assert soc_after_trip(100.0, 0.286, 200.0, 1.0) == pytest.approx(42.8, **APPROX)

    def test_follower_rate(self):
        assert soc_after_trip(100.0, 0.286, 200.0, 0.82) == pytest.approx(53.096, **APPROX)

    def test_zero_distance(self):
        assert soc_after_trip(60.0, 0.286, 0.0, 1.0) == 60.0


class TestDepartureSocBounds:
    def test_follower_bound(self):
        truck = et(1, 0.0, soc=30.0)
        lo, hi = departure_soc_bounds(truck, REF_ROUTE, 0.82)
        assert lo == pytest.approx(10.0 + 0.82 * 0.286 * 200.0, **APPROX)
        assert hi == 100.0

    def test_lead_bound(self):
        truck = et(1, 0.0, soc=30.0)
        lo, hi = departure_soc_bounds(truck, REF_ROUTE, 1.0)
        assert lo == pytest.approx(10.0 + 0.286 * 200.0, **APPROX)
        assert hi == 100.0

    def test_zero_consumption(self):
        truck = et(1, 0.0, soc=30.0, vrate=0.0)
        assert departure_soc_bounds(truck, REF_ROUTE, 1.0) == (10.0, 100.0)

    def test_fuel_truck_rejected(self):
        with pytest.raises(ContractViolation):
            departure_soc_bounds(ft(1, 0.0), REF_ROUTE, 1.0)

    @given(st.floats(0.82, 1.0), st.floats(0.0, 1.0), st.floats(1.0, 500.0))
    def test_lead_bound_dominates_follower_bound(self, coeff, vrate, distance):
        route = RouteParams(distance=distance, horizon=1440.0, max_platoon_size=8)
        truck = et(1, 0.0, soc=30.0, vrate=vrate, max_soc=100.0)
        lo_role, _ = departure_soc_bounds(truck, route, coeff)
        lo_lead, _ = departure_soc_bounds(truck, route, 1.0)
        assert lo_lead >= lo_role - 1e-12


@given(st.floats(0.0, 100.0), st.floats(0.01, 5.0),
       st.floats(0.0, 500.0), st.floats(0.0, 500.0))
def test_charging_is_monotone(soc0, rate, a, b):
    lo, hi = min(a, b), max(a, b)
    assert soc_after_charge(soc0, rate, lo) <= soc_after_charge(soc0, rate, hi)


@given(st.floats(0.0, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 500.0),
       st.floats(0.5, 1.0), st.floats(0.5, 1.0))
def test_discharge_is_monotone_in_role(soc, vrate, d, c1, c2):
    lo, hi = min(c1, c2), max(c1, c2)
    assert soc_after_trip(soc, vrate, d, hi) <= soc_after_trip(soc, vrate, d, lo)


class TestValidation:
    def test_fuel_with_battery(self):
        from platoon_coord import TruckSpec
        with pytest.raises(ContractViolation):
            TruckSpec(id=1, kind=TruckKind.FUEL, arrival_time=0.0, initial_soc=50.0)

    def test_electric_missing_battery(self):
        from platoon_coord import TruckSpec
        with pytest.raises(ContractViolation):
            TruckSpec(id=1, kind=TruckKind.ELECTRIC, arrival_time=0.0)

    def test_soc_above_capacity(self):
        with pytest.raises(ContractViolation):
            et(1, 0.0, soc=101.0)

    def test_safe_not_below_max(self):
        with pytest.raises(ContractViolation):
            et(1, 0.0, soc=50.0, safe=90.0, max_soc=90.0)

    def test_charge_cost_above_wait_cost(self):
        with pytest.raises(ContractViolation):
            EconomicParams(wait_cost=0.2, charge_cost=0.4,
                           et_follower_profit=10.0, ft_follower_profit=14.0)

    def test_route_bounds(self):
        with pytest.raises(ContractViolation):
            RouteParams(distance=0.0, horizon=10.0, max_platoon_size=8)
        with pytest.raises(ContractViolation):
            RouteParams(distance=1.0, horizon=10.0, max_platoon_size=0)
        with pytest.raises(ContractViolation):
            RouteParams(distance=1.0, horizon=10.0, max_platoon_size=8,
                        follower_coeff=1.2)

    def test_instance_unique_ids(self):
        with pytest.raises(ContractViolation):
            ProblemInstance(trucks=(ft(1, 0.0), ft(1, 5.0)),
                            route=REF_ROUTE, econ=REF_ECON)

    def test_instance_nonempty(self):
        with pytest.raises(ContractViolation):
            ProblemInstance(trucks=(), route=REF_ROUTE, econ=REF_ECON)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1", None])
    def test_instance_seed_is_an_integer(self, seed):
        """A seed the instance file cannot hold is refused, as `generate` and
        the loader refuse it: 1.5 and True used to be kept, written, and then
        refused on load."""
        with pytest.raises(ContractViolation, match="seed must be an integer >= 0"):
            ProblemInstance(trucks=(ft(1, 0.0),), route=REF_ROUTE, econ=REF_ECON, seed=seed)

    @pytest.mark.parametrize("field", [
        "wait_cost", "charge_cost", "et_follower_profit", "ft_follower_profit"])
    @pytest.mark.parametrize("value", [math.inf, float("1e999")])
    def test_econ_fields_are_finite(self, field, value):
        """An infinite price used to be accepted, and a solve then multiplied
        it by 0.0 and reported a schedulable fleet as unschedulable."""
        with pytest.raises(ContractViolation, match=f"^{field} must be >= 0 and finite$"):
            replace(REF_ECON, **{field: value})

    @pytest.mark.parametrize("trucks, message", [
        ((TruckSpec(1, TruckKind.FUEL, 10**400),), "truck 1: arrival_time"),
        ((ft(1, 0.0), et(2, 0.0, soc=50.0, rate=10**400)), "truck 2: charge_rate"),
    ], ids=["ft-arrival", "et-charge-rate"])
    def test_instance_fields_beyond_float(self, trucks, message):
        """`TruckSpec` accepts an int beyond float64; the instance, which
        holds its fleet as float64 columns too, names the truck."""
        with pytest.raises(ContractViolation) as err:
            ProblemInstance(trucks=trucks, route=REF_ROUTE, econ=REF_ECON)
        assert str(err.value) == f"{message} is beyond the float range"

    @pytest.mark.parametrize("params, field", [
        (REF_ROUTE, "distance"), (REF_ROUTE, "horizon"), (REF_ECON, "wait_cost"),
        (REF_ECON, "et_follower_profit"), (REF_ECON, "ft_follower_profit"),
    ], ids=lambda value: value if isinstance(value, str) else type(value).__name__)
    def test_params_beyond_float(self, params, field):
        """An int beyond float64 passes every range check of the route and
        prices; it is refused by name before numpy meets it."""
        with pytest.raises(ContractViolation, match=f"^{field} is beyond the float range$"):
            replace(params, **{field: 10**400})


NAN = float("nan")


class TestNaNFailsValidation:
    """Every range check rejects NaN with the message it gives an
    out-of-range number; a NaN that slipped through used to reach the
    solvers as a zero mandatory charge."""

    @pytest.mark.parametrize("field, message", [
        ("arrival_time", "arrival_time must be >= 0"),
        ("initial_soc", "initial_soc must be in [0, max_soc]"),
        ("charge_rate", "charge_rate must be > 0"),
        ("discharge_rate", "discharge_rate must be >= 0"),
        ("safe_soc", "safe_soc must be in [0, 100)"),
        ("max_soc", "max_soc must be in (safe_soc, 100]"),
    ])
    @pytest.mark.parametrize("value", [NAN, np.float64("nan")])
    def test_truck_fields(self, field, message, value):
        with pytest.raises(ContractViolation, match=re.escape(f"truck 1: {message}")):
            et(1, 5.0, soc=50.0)._replace(**{field: value})

    def test_fuel_arrival(self):
        with pytest.raises(ContractViolation, match="arrival_time must be >= 0"):
            ft(1, NAN)

    def test_reported_truck_no_longer_builds(self):
        with pytest.raises(ContractViolation, match="charge_rate must be > 0"):
            TruckSpec(1, TruckKind.ELECTRIC, 5.0, 50.0, NAN, 0.1, 10.0, 100.0)

    @pytest.mark.parametrize("field, message", [
        ("distance", "distance must be > 0"),
        ("horizon", "horizon must be > 0"),
        ("follower_coeff", "follower_coeff must be in (0, 1]"),
    ])
    def test_route_fields(self, field, message):
        with pytest.raises(ContractViolation, match=re.escape(message)):
            replace(REF_ROUTE, **{field: NAN})

    @pytest.mark.parametrize("size", [NAN, math.inf, 2.5, 0, 8.0, True])
    def test_platoon_size(self, size):
        with pytest.raises(ContractViolation, match="max_platoon_size must be an integer >= 1"):
            replace(REF_ROUTE, max_platoon_size=size)

    @pytest.mark.parametrize("field", [
        "wait_cost", "charge_cost", "et_follower_profit", "ft_follower_profit"])
    def test_econ_fields(self, field):
        with pytest.raises(ContractViolation, match=f"{field} must be >= 0"):
            replace(REF_ECON, **{field: NAN})

    def test_infinite_values_keep_their_verdicts(self):
        assert ft(1, math.inf).arrival_time == math.inf
        assert et(1, 0.0, soc=50.0, rate=math.inf).charge_rate == math.inf
        with pytest.raises(ContractViolation, match="arrival_time must be >= 0"):
            ft(1, -math.inf)
