"""Mandatory charging and fleet ordering.

`prepare_fleet` computes in columns. `reference_prepare_fleet` below is the
scalar loop it replaced, kept as the reference: every record must equal the
reference's by `==` and `repr`, and every error must match in type, truck
and message.
"""

import copy
import pickle
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from platoon_coord import (
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    PreparedFleet,
    PreparedTruck,
    ProblemInstance,
    RouteParams,
    ScenarioConfig,
    TruckSpec,
    generate,
    min_charge_time,
    prepare_fleet,
    soc_after_charge,
    soc_after_trip,
    solve_dp_ls,
    solve_dp_nls,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord import cli, discretize
from platoon_coord.kernels import fleet_arrays
from platoon_coord.model import SOC_TOL, TIME_TOL
from checks import assert_fleet_arrays_match_scalar
from conftest import FOLLOW_NEED, REF_ECON, REF_ROUTE, et, fleet_instances, ft, prepare

APPROX = dict(abs=1e-9)


class TestMinChargeTime:
    def test_low_soc_needs_charging(self):
        assert min_charge_time(et(1, 0.0, soc=30.0), REF_ROUTE) == pytest.approx(
            (FOLLOW_NEED - 30.0) / 1.07, **APPROX)

    def test_high_soc_needs_none(self):
        assert min_charge_time(et(1, 0.0, soc=60.0), REF_ROUTE) == 0.0

    def test_boundary_soc_needs_none(self):
        assert min_charge_time(et(1, 0.0, soc=56.904), REF_ROUTE) == 0.0

    def test_fuel_truck_rejected(self):
        with pytest.raises(ContractViolation):
            min_charge_time(ft(1, 0.0), REF_ROUTE)

    def test_undersized_battery_is_infeasible(self):
        truck = et(1, 0.0, soc=30.0, max_soc=40.0)
        with pytest.raises(InfeasibleTruckError):
            min_charge_time(truck, REF_ROUTE)


class TestPrepareFleet:
    def test_charging_reorders_behind_later_arrival(self):
        prepared = prepare([ft(1, 10.0), et(2, 0.0, soc=30.0)]).records()
        assert [p.id for p in prepared] == [1, 2]
        assert prepared[0].earliest_departure == 10.0
        assert prepared[1].earliest_departure == pytest.approx(
            (FOLLOW_NEED - 30.0) / 1.07, **APPROX)
        assert [p.rank for p in prepared] == [0, 1]

    def test_fuel_trucks_keep_arrival_order(self):
        prepared = prepare([ft(1, 5.0), ft(2, 3.0)]).records()
        assert [p.earliest_departure for p in prepared] == [3.0, 5.0]

    def test_full_battery_departs_on_arrival(self):
        (p,) = prepare([et(1, 7.0, soc=100.0)]).records()
        assert p.earliest_departure == 7.0
        assert p.min_charge_time == 0.0
        assert p.min_departure_soc == 100.0

    def test_ties_break_by_id(self):
        prepared = prepare([ft(7, 4.0), ft(3, 4.0)]).records()
        assert [p.id for p in prepared] == [3, 7]

    def test_deterministic_and_idempotent(self):
        trucks = [ft(1, 5.0), et(2, 1.0, soc=40.0), ft(3, 5.0)]
        assert prepare(trucks) == prepare(trucks)

    def test_fuel_arrival_never_changes(self):
        prepared = prepare([ft(1, 5.0), ft(2, 900.0)]).records()
        for p in prepared:
            assert p.earliest_departure == p.arrival_time
            assert p.min_charge_time == 0.0

    def test_horizon_exceeded_by_arrival(self):
        route = RouteParams(distance=200.0, horizon=100.0, max_platoon_size=8)
        with pytest.raises(HorizonExceededError):
            prepare([ft(1, 101.0)], route=route)

    def test_horizon_exceeded_by_mandatory_charge(self):
        route = RouteParams(distance=200.0, horizon=100.0, max_platoon_size=8)
        with pytest.raises(HorizonExceededError) as err:
            prepare([et(4, 90.0, soc=30.0)], route=route)
        assert "truck 4" in str(err.value)

    def test_ranks_and_order_invariants(self):
        trucks = [et(i, (i * 37) % 50, soc=10.0 + (i * 13) % 90) for i in range(1, 15)]
        prepared = prepare(trucks).records()
        assert [p.rank for p in prepared] == list(range(len(trucks)))
        departures = [p.earliest_departure for p in prepared]
        assert departures == sorted(departures)

    def test_mandatory_charge_makes_following_safe(self):
        # Departing at the earliest instant with the mandatory charge must
        # leave every ET at or above its safety floor after a follower trip.
        trucks = [et(i, (i * 11) % 40, soc=10.0 + (i * 17) % 90) for i in range(1, 30)]
        for p in prepare(trucks).records():
            arrival_soc = soc_after_trip(p.min_departure_soc, p.spec.discharge_rate,
                                         REF_ROUTE.distance, REF_ROUTE.follower_coeff)
            assert arrival_soc >= p.spec.safe_soc - 1e-9


def reference_min_charge_time(truck, route):
    required = truck.safe_soc + route.follower_coeff * truck.discharge_rate * route.distance
    if required - truck.max_soc > SOC_TOL:
        raise InfeasibleTruckError(
            truck.id,
            f"needs departure SoC {required:.6g}% to follow safely but capacity "
            f"is {truck.max_soc:.6g}%",
        )
    return max(0.0, (required - truck.initial_soc) / truck.charge_rate)


def reference_prepare_fleet(instance):
    """The scalar loop: one truck at a time, then one sort by (earliest, id),
    with every earliest departure a float."""
    rows = []
    for truck in instance.trucks:
        if truck.is_electric:
            charge = reference_min_charge_time(truck, instance.route)
            dep_soc = soc_after_charge(truck.initial_soc, truck.charge_rate, charge)
            earliest = float(truck.arrival_time + charge)
        else:
            charge = 0.0
            dep_soc = None
            earliest = float(truck.arrival_time)
        if earliest > instance.route.horizon + TIME_TOL:
            raise HorizonExceededError(truck.id, earliest, instance.route.horizon)
        rows.append((truck, charge, dep_soc, earliest))

    rows.sort(key=lambda r: (r[3], r[0].id))
    return [
        PreparedTruck(spec=truck, min_charge_time=charge, min_departure_soc=dep_soc,
                      earliest_departure=earliest, rank=rank)
        for rank, (truck, charge, dep_soc, earliest) in enumerate(rows)
    ]


def plain(record):
    """The record with its electric figures as Python floats: the scalar
    loop keeps numpy scalars that numpy battery fields bring in, the columns
    give Python floats of the same value."""
    if not record.is_electric:
        return record
    return record._replace(min_charge_time=float(record.min_charge_time),
                           min_departure_soc=float(record.min_departure_soc))


def assert_matches_reference(instance):
    """prepare_fleet against the scalar loop: the same records, or the same
    error; and every `FleetArrays` column of the fleet equals its scalar
    formula over the loop's records. Returns the fleet's records.
    Where the loop's sort fails on tied ids that Python cannot order,
    prepare_fleet raises a `ContractViolation` that names two of them."""
    try:
        expected = reference_prepare_fleet(instance)
    except TypeError:
        with pytest.raises(ContractViolation, match="ids cannot be ordered"):
            prepare_fleet(instance)
        return None
    except (InfeasibleTruckError, HorizonExceededError) as exc:
        with pytest.raises(type(exc)) as err:
            prepare_fleet(instance)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "truck_id", None) == getattr(exc, "truck_id", None)
        return None
    fleet = prepare_fleet(instance)
    records = fleet.records()
    assert list(records) == expected
    assert repr(list(records)) == repr([plain(r) for r in expected])
    for r in records:
        assert type(r.earliest_departure) is float and type(r.min_charge_time) is float
        if r.is_electric:
            assert type(r.min_departure_soc) is float
        else:
            assert r.min_departure_soc is None
            assert r.earliest_departure == float(r.spec.arrival_time)
    assert_fleet_arrays_match_scalar(fleet, instance.route, expected)
    return records


def instance_of(trucks, route=REF_ROUTE):
    return ProblemInstance(trucks=tuple(trucks), route=route, econ=REF_ECON)


class TestAgainstScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        assert_matches_reference(instance)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_fleets(self, seed):
        dense = ScenarioConfig(n_trucks=400, et_share=0.7, soc_lo=10.0, soc_hi=60.0,
                               arrival_hi=30, horizon=200.0, max_platoon_size=16,
                               seed=seed)
        assert_matches_reference(generate(ScenarioConfig(seed=seed)))
        assert_matches_reference(generate(dense))

    @pytest.mark.parametrize("trucks", [
        [ft(3, 4.0), ft(1, 0.0), ft(2, 4.0)],
        [et(3, 4.0, soc=30.0), et(1, 0.0, soc=90.0), et(2, 1.0, soc=45.0)],
        [et(1, 2.5, soc=20.0)],
        [ft(1, 7)],
    ], ids=["all-ft", "all-et", "one-et", "one-ft"])
    def test_small_fleets(self, trucks):
        assert_matches_reference(instance_of(trucks))

    def test_ties_on_earliest_departure(self):
        # ETs that charge to the same instant tie with FTs arriving then.
        tied = (FOLLOW_NEED - 30.0) / 1.07
        trucks = [et(9, 0.0, soc=30.0), ft(4, tied), et(2, 0.0, soc=30.0), ft(7, 0),
                  et(5, 0.0, soc=30.0), ft(1, 0), ft(8, tied), ft(3, 0.0)]
        records = assert_matches_reference(instance_of(trucks))
        assert [m.id for m in records] == [1, 3, 7, 2, 4, 5, 8, 9]

    def test_integer_arrivals_become_floats(self):
        records = assert_matches_reference(instance_of([ft(2, 4), ft(1, 4.0), ft(3, 2),
                                                      et(4, 4, soc=80.0)]))
        assert [m.id for m in records] == [3, 1, 2, 4]
        assert [repr(m.earliest_departure) for m in records] == ["2.0", "4.0", "4.0", "4.0"]

    def test_string_ids(self):
        records = assert_matches_reference(instance_of(
            [ft("b", 3.0), ft("a", 3.0), ft("A", 3.0), et("c", 0.0, soc=30.0), ft("", 3)]))
        assert [m.id for m in records] == ["", "A", "a", "b", "c"]

    def test_mixed_ids_that_never_tie(self):
        records = assert_matches_reference(instance_of(
            [ft("f-2", 5.0), ft(3, 7.0), ft("f-1", 5.0), ft(1, 7.0), ft(None, 1.0),
             ft(2.5, 7.0)]))
        assert [m.id for m in records] == [None, "f-1", "f-2", 1, 2.5, 3]

    def test_mixed_ids_that_tie_are_a_contract_violation(self):
        assert_matches_reference(instance_of([ft("f-2", 5.0), ft(3, 5.0)]))
        with pytest.raises(ContractViolation, match=(
                r"^trucks 3 and 'f-2' are ready at the same instant, and their ids "
                r"cannot be ordered to break the tie$")):
            prepare_fleet(instance_of([ft("f-2", 5.0), ft(3, 5.0)]))
        # Only tied ids are compared: the ET is ready at another instant.
        fleet = instance_of([ft(1, 4), et("e", 4, soc=30.0), ft(2.5, 4.0), ft("a", 7)])
        assert [m.id for m in prepare_fleet(fleet).records()] == [1, 2.5, "a", "e"]
        with pytest.raises(ContractViolation, match=r"'a' and 2\.5|2\.5 and 'a'"):
            prepare_fleet(instance_of([ft(1, 3), ft("a", 4.0), ft(2.5, 4)]))

    def test_ids_beyond_int64_and_bools(self):
        big = 2 ** 70
        assert_matches_reference(instance_of([ft(big, 1.0), ft(-big, 1.0), ft(5, 1.0)]))
        assert_matches_reference(instance_of([ft(True, 1.0), ft(0, 1.0), ft(2, 1.0)]))

    def test_arrivals_that_float64_cannot_tell_apart(self):
        # 2**53 + 1 and 2**53 are one float64 but two Python numbers: they
        # tie, and the tie breaks by id.
        route = replace(REF_ROUTE, horizon=1e17)
        records = assert_matches_reference(instance_of(
            [ft(1, 2 ** 53 + 1), ft(2, float(2 ** 53)), ft(3, 2 ** 53 + 1), ft(4, 0)],
            route))
        assert [m.id for m in records] == [4, 1, 2, 3]
        assert {m.earliest_departure for m in records[1:]} == {float(2 ** 53)}

    def test_numpy_battery_fields(self):
        trucks = [et(1, 3.0, soc=np.float64(30.0), rate=np.float64(1.25),
                     vrate=np.float64(0.2), safe=np.float64(10.0), max_soc=np.float64(95.0)),
                  et(2, np.float64(1.0), soc=np.float64(70.0)), ft(3, np.float64(2.0))]
        records = assert_matches_reference(instance_of(trucks))
        (fuel,) = [m for m in records if not m.is_electric]
        assert type(fuel.earliest_departure) is float and fuel.earliest_departure == 2.0

    def test_first_failing_truck_in_instance_order_wins(self):
        route = RouteParams(distance=200.0, horizon=100.0, max_platoon_size=8)
        late, infeasible = ft(5, 150.0), et(2, 0.0, soc=30.0, max_soc=40.0)
        assert_matches_reference(instance_of([ft(1, 0.0), late, infeasible], route))
        assert_matches_reference(instance_of([ft(1, 0.0), infeasible, late], route))
        with pytest.raises(HorizonExceededError) as err:
            prepare_fleet(instance_of([ft(1, 0.0), late, infeasible], route))
        assert err.value.truck_id == 5

    def test_infeasible_and_late_is_infeasible(self):
        route = RouteParams(distance=200.0, horizon=100.0, max_platoon_size=8)
        both = et(6, 99.0, soc=5.0, max_soc=40.0)
        assert_matches_reference(instance_of([both], route))
        with pytest.raises(InfeasibleTruckError, match="truck 6"):
            prepare_fleet(instance_of([both], route))

    @pytest.mark.parametrize("soc", [0.0, 30.0, 56.904, 60.0, 100.0])
    def test_min_charge_time(self, soc):
        truck = et(1, 0.0, soc=soc, rate=0.7)
        assert min_charge_time(truck, REF_ROUTE) == reference_min_charge_time(truck, REF_ROUTE)


# The columns of `FleetArrays`, all of which `prepare_fleet` builds.
COLUMNS = ("tau_delta", "tau_cmin", "is_et", "fill_time", "rate", "need_lead",
           "alone_depart", "arrival", "init_soc", "max_soc", "vrate")


def fleet_and_records():
    inst = generate(ScenarioConfig(n_trucks=30, seed=3))
    return inst, prepare_fleet(inst), reference_prepare_fleet(inst)


class TestPreparedFleet:
    def test_records_by_rank(self):
        _, fleet, records = fleet_and_records()
        assert isinstance(fleet, PreparedFleet) and len(fleet) == len(records) == 30
        got = fleet.records()
        assert type(got) is tuple and list(got) == records
        assert fleet.records() is got  # the cache, which a tuple keeps unchanged

    def test_not_a_sequence(self):
        # The records are asked for; nothing iterates or indexes the columns
        # into them by the way.
        _, fleet, _ = fleet_and_records()
        assert not isinstance(fleet, Sequence)
        for use in (iter, lambda f: f[0], lambda f: f[2:5], reversed):
            with pytest.raises(TypeError):
                use(fleet)

    def test_equality(self):
        inst, fleet, records = fleet_and_records()
        assert fleet == prepare_fleet(inst)
        assert fleet != prepare_fleet(generate(ScenarioConfig(n_trucks=30, seed=4)))
        assert fleet != records  # a fleet is not a list, as a tuple is not
        # Fleets compare by their instances: the same records drawn for
        # another seed, or listed in another order, make another fleet.
        for other in (ProblemInstance(inst.trucks, inst.route, inst.econ, inst.seed + 1),
                      ProblemInstance(inst.trucks[::-1], inst.route, inst.econ, inst.seed)):
            again = prepare_fleet(other)
            assert list(again.records()) == records and again != fleet

    def test_equality_builds_no_records(self, monkeypatch):
        config = ScenarioConfig(n_trucks=200, seed=3)
        fleet, same = prepare_fleet(generate(config)), prepare_fleet(generate(config))
        other = prepare_fleet(generate(replace(config, seed=4)))
        built = []
        real_spec, real_record = TruckSpec.__new__, discretize.PreparedTruck
        monkeypatch.setattr(TruckSpec, "__new__", lambda cls, *args, **kwargs: (
            built.append(args or kwargs) or real_spec(cls, *args, **kwargs)))
        monkeypatch.setattr(discretize, "PreparedTruck",
                            lambda *fields: built.append(fields) or real_record(*fields))
        assert fleet == same and fleet != other and not fleet != same
        assert built == []

    def test_repr_builds_no_records(self, monkeypatch):
        instance = generate(ScenarioConfig(n_trucks=200, seed=3))
        fleet = prepare_fleet(instance)
        built = []
        real = TruckSpec.__new__
        monkeypatch.setattr(TruckSpec, "__new__", lambda cls, *args, **kwargs: (
            built.append(args or kwargs) or real(cls, *args, **kwargs)))
        text = repr(fleet)
        assert built == []
        assert text == f"PreparedFleet(n_trucks=200, route={instance.route!r}, seed=3)"

    def test_records_are_built_once(self, monkeypatch):
        _, fleet, _ = fleet_and_records()
        built = []
        real = discretize.PreparedTruck
        monkeypatch.setattr(discretize, "PreparedTruck",
                            lambda *fields: built.append(fields) or real(*fields))
        first = fleet.records()
        assert len(built) == 30
        assert all(a is b for a, b in zip(fleet.records(), first))
        assert len(built) == 30

    def test_dp_solves_build_no_records(self, monkeypatch, tmp_path):
        inst, fleet, _ = fleet_and_records()
        built = []
        real = discretize.PreparedTruck
        monkeypatch.setattr(discretize, "PreparedTruck",
                            lambda *fields: built.append(fields) or real(*fields))
        solve_dp_ls(fleet, inst.route, inst.econ)
        solve_dp_nls(fleet, inst.route, inst.econ, 2)
        path = tmp_path / "inst.json"
        assert cli.main(["generate", "--seed", "3", "--n", "30", "--out", str(path)]) == 0
        assert cli.main(["solve", str(path), "--method", "dp-ls",
                         "--out", str(tmp_path / "sol.json")]) == 0
        assert built == []
        solve_spontaneous(fleet, inst.route, inst.econ, 0)
        solve_fixed_interval(fleet, inst.route, inst.econ, 30.0, 0)
        assert len(built) == 30

    def test_columns_cannot_be_written(self):
        inst, fleet, _ = fleet_and_records()
        arr = fleet.arrays
        assert fleet_arrays(fleet, inst.route) is arr
        assert sorted(vars(arr)) == sorted(COLUMNS)
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(arr, name)[0] = 1
        assert not fleet.order.flags.writeable
        with pytest.raises(AttributeError):
            arr.tau_delta = np.zeros(30)
        with pytest.raises(AttributeError):
            fleet.arrays = arr
        with pytest.raises(AttributeError):
            fleet.note = "extra"

    @pytest.mark.parametrize("clone", [
        lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy])
    def test_pickle_and_copy_round_trip(self, clone):
        inst, fleet, records = fleet_and_records()
        again = clone(prepare_fleet(inst))
        assert type(again) is PreparedFleet and again == fleet
        assert list(again.records()) == records
        assert sorted(vars(again.arrays)) == sorted(COLUMNS)
        for name in COLUMNS:
            column = getattr(again.arrays, name)
            assert not column.flags.writeable
            assert column.dtype == getattr(fleet.arrays, name).dtype
            assert column.tobytes() == getattr(fleet.arrays, name).tobytes()
        with pytest.raises(AttributeError):
            again.arrays.tau_delta = np.zeros(30)
        assert again.ids == fleet.ids

    @pytest.mark.parametrize("clone", [
        lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy])
    def test_pickle_and_copy_build_no_records(self, clone, monkeypatch):
        inst, fleet, _ = fleet_and_records()
        built = []
        real = discretize.PreparedTruck
        monkeypatch.setattr(discretize, "PreparedTruck",
                            lambda *fields: built.append(fields) or real(*fields))
        again = clone(fleet)
        assert type(again) is PreparedFleet and again.instance == inst
        assert again.order.tobytes() == fleet.order.tobytes()
        assert built == []
