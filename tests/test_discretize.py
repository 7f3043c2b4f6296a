"""Mandatory charging and fleet ordering.

`prepare_fleet` computes in columns. `checks.reference_prepare_fleet` is the
scalar loop it replaced, kept as the reference: the fleet must rank the
trucks as the loop's records do, every column must equal its scalar formula
over them bit for bit, and every error must match in type, truck and
message.
"""

import copy
import pickle
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from platoon_coord import (
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    PreparedFleet,
    ProblemInstance,
    RouteParams,
    ScenarioConfig,
    generate,
    load_instance,
    prepare_fleet,
    soc_after_trip,
    solve_dp_ls,
    solve_dp_nls,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord import cli
from platoon_coord.kernels import fleet_arrays
from checks import (
    assert_fleet_arrays_match_scalar,
    reference_min_charge_time,
    reference_prepare_fleet,
)
from conftest import FOLLOW_NEED, REF_ECON, REF_ROUTE, et, fleet_instances, ft, prepare

APPROX = dict(abs=1e-9)
DATA = Path(__file__).parent / "data"


class TestMinChargeTime:
    """An ET's mandatory charge: the fleet's `tau_cmin` column."""

    @staticmethod
    def charge(truck):
        return prepare([truck]).arrays.tau_cmin[0]

    def test_low_soc_needs_charging(self):
        assert self.charge(et(1, 0.0, soc=30.0)) == pytest.approx(
            (FOLLOW_NEED - 30.0) / 1.07, **APPROX)

    def test_high_soc_needs_none(self):
        assert self.charge(et(1, 0.0, soc=60.0)) == 0.0

    def test_boundary_soc_needs_none(self):
        assert self.charge(et(1, 0.0, soc=56.904)) == 0.0

    def test_undersized_battery_is_infeasible(self):
        truck = et(1, 0.0, soc=30.0, max_soc=40.0)
        with pytest.raises(InfeasibleTruckError, match="^truck 1: needs departure SoC"):
            prepare([truck])


class TestPrepareFleet:
    def test_charging_reorders_behind_later_arrival(self):
        fleet = prepare([ft(1, 10.0), et(2, 0.0, soc=30.0)])
        assert fleet.ids == (1, 2) and fleet.order.tolist() == [0, 1]
        assert fleet.arrays.tau_delta[0] == 10.0
        assert fleet.arrays.tau_delta[1] == pytest.approx((FOLLOW_NEED - 30.0) / 1.07, **APPROX)

    def test_fuel_trucks_keep_arrival_order(self):
        assert prepare([ft(1, 5.0), ft(2, 3.0)]).arrays.tau_delta.tolist() == [3.0, 5.0]

    def test_full_battery_departs_on_arrival(self):
        arr = prepare([et(1, 7.0, soc=100.0)]).arrays
        assert arr.tau_delta[0] == 7.0
        assert arr.tau_cmin[0] == 0.0
        assert arr.fill_time[0] == 0.0  # full on departure

    def test_ties_break_by_id(self):
        assert prepare([ft(7, 4.0), ft(3, 4.0)]).ids == (3, 7)

    def test_deterministic_and_idempotent(self):
        trucks = [ft(1, 5.0), et(2, 1.0, soc=40.0), ft(3, 5.0)]
        assert prepare(trucks) == prepare(trucks)

    def test_fuel_arrival_never_changes(self):
        arr = prepare([ft(1, 5.0), ft(2, 900.0)]).arrays
        assert arr.tau_delta.tolist() == arr.arrival.tolist() == [5.0, 900.0]
        assert arr.tau_cmin.tolist() == [0.0, 0.0]

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
        fleet = prepare(trucks)
        assert sorted(fleet.order.tolist()) == list(range(len(trucks)))
        assert fleet.ids == tuple(trucks[k].id for k in fleet.order.tolist())
        departures = fleet.arrays.tau_delta.tolist()
        assert departures == sorted(departures)

    def test_mandatory_charge_makes_following_safe(self):
        # Departing at the earliest instant with the mandatory charge must
        # leave every ET at or above its safety floor after a follower trip.
        trucks = [et(i, (i * 11) % 40, soc=10.0 + (i * 17) % 90) for i in range(1, 30)]
        fleet = prepare(trucks)
        arr = fleet.arrays
        for rank, k in enumerate(fleet.order.tolist()):
            dep_soc = arr.init_soc[rank] + arr.rate[rank] * arr.tau_cmin[rank]
            arrival_soc = soc_after_trip(dep_soc, arr.vrate[rank], REF_ROUTE.distance,
                                         REF_ROUTE.follower_coeff)
            assert arrival_soc >= trucks[k].safe_soc - 1e-9


def assert_matches_reference(instance):
    """prepare_fleet against the scalar loop: the same trucks at each rank,
    and every `FleetArrays` column equal to its scalar formula over the
    loop's records; or the same error. Returns the fleet. Where the loop's
    sort fails on tied ids that Python cannot order, prepare_fleet raises
    a `ContractViolation` that names two of them."""
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
    trucks = instance.trucks
    assert [trucks[k] for k in fleet.order.tolist()] == [r.spec for r in expected]
    assert fleet.ids == tuple(r.id for r in expected)
    assert_fleet_arrays_match_scalar(fleet, instance.route, expected)
    return fleet


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
        fleet = assert_matches_reference(instance_of(trucks))
        assert fleet.ids == (1, 3, 7, 2, 4, 5, 8, 9)

    def test_integer_arrivals_become_floats(self):
        fleet = assert_matches_reference(instance_of([ft(2, 4), ft(1, 4.0), ft(3, 2),
                                                      et(4, 4, soc=80.0)]))
        assert fleet.ids == (3, 1, 2, 4)
        assert list(map(repr, fleet.column_lists().tau_delta)) == ["2.0", "4.0", "4.0", "4.0"]

    def test_string_ids(self):
        fleet = assert_matches_reference(instance_of(
            [ft("b", 3.0), ft("a", 3.0), ft("A", 3.0), et("c", 0.0, soc=30.0), ft("", 3)]))
        assert fleet.ids == ("", "A", "a", "b", "c")

    def test_mixed_ids_that_never_tie(self):
        fleet = assert_matches_reference(instance_of(
            [ft("f-2", 5.0), ft(3, 7.0), ft("f-1", 5.0), ft(1, 7.0), ft(None, 1.0),
             ft(2.5, 7.0)]))
        assert fleet.ids == (None, "f-1", "f-2", 1, 2.5, 3)

    def test_mixed_ids_that_tie_are_a_contract_violation(self):
        assert_matches_reference(instance_of([ft("f-2", 5.0), ft(3, 5.0)]))
        with pytest.raises(ContractViolation, match=(
                r"^trucks 3 and 'f-2' are ready at the same instant, and their ids "
                r"cannot be ordered to break the tie$")):
            prepare_fleet(instance_of([ft("f-2", 5.0), ft(3, 5.0)]))
        # Only tied ids are compared: the ET is ready at another instant.
        fleet = instance_of([ft(1, 4), et("e", 4, soc=30.0), ft(2.5, 4.0), ft("a", 7)])
        assert prepare_fleet(fleet).ids == (1, 2.5, "a", "e")
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
        fleet = assert_matches_reference(instance_of(
            [ft(1, 2 ** 53 + 1), ft(2, float(2 ** 53)), ft(3, 2 ** 53 + 1), ft(4, 0)],
            route))
        assert fleet.ids == (4, 1, 2, 3)
        assert set(fleet.arrays.tau_delta[1:].tolist()) == {float(2 ** 53)}

    def test_numpy_battery_fields(self):
        trucks = [et(1, 3.0, soc=np.float64(30.0), rate=np.float64(1.25),
                     vrate=np.float64(0.2), safe=np.float64(10.0), max_soc=np.float64(95.0)),
                  et(2, np.float64(1.0), soc=np.float64(70.0)), ft(3, np.float64(2.0))]
        fleet = assert_matches_reference(instance_of(trucks))
        # The scalar pricer reads Python floats, whatever the fields were.
        lists = fleet.column_lists()
        assert {type(v) for name in COLUMNS if name != "is_et"
                for v in getattr(lists, name)} == {float}
        assert lists.tau_delta[fleet.ids.index(3)] == 2.0

    @pytest.mark.parametrize("name", ["integer-arrivals-200", "dense-ties-300"])
    def test_committed_instances(self, name):
        assert_matches_reference(load_instance(DATA / f"{name}.json"))

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
        fleet = assert_matches_reference(instance_of([truck]))
        assert fleet.arrays.tau_cmin[0] == reference_min_charge_time(truck, REF_ROUTE)


# The columns of `FleetArrays`, all of which `prepare_fleet` builds.
COLUMNS = ("tau_delta", "tau_cmin", "is_et", "fill_time", "rate", "need_lead",
           "alone_depart", "arrival", "init_soc", "max_soc", "vrate")


def fleet_and_records():
    inst = generate(ScenarioConfig(n_trucks=30, seed=3))
    return inst, prepare_fleet(inst), reference_prepare_fleet(inst)


class TestPreparedFleet:
    def test_records_by_rank(self):
        # The scalar loop's records by rank are the fleet's trucks by rank.
        inst, fleet, records = fleet_and_records()
        assert isinstance(fleet, PreparedFleet) and len(fleet) == len(records) == 30
        assert [inst.trucks[k] for k in fleet.order.tolist()] == [r.spec for r in records]
        assert fleet.ids == tuple(r.id for r in records)

    @pytest.mark.parametrize("instance", [
        generate(ScenarioConfig(n_trucks=30, seed=3)),
        load_instance(DATA / "dense-ties-300.json"),
    ], ids=["generated", "dense-ties"])
    def test_record_constants_are_the_columns(self, instance):
        # Bit for bit: the per-truck constants the scalar pricer reads are
        # its rank's column entries, as Python floats, and equal the scalar
        # loop's; a fuel truck has none of the ET figures.
        fleet = prepare_fleet(instance)
        lists, arr = fleet.column_lists(), fleet.arrays
        for field, name in (("fill_time", "fill_time"), ("lead_need", "need_lead"),
                            ("alone_departure", "alone_depart")):
            column = getattr(arr, name)
            assert repr(getattr(lists, name)) == repr(column.tolist()), name
            want = [float(getattr(r, field)) if e or field == "alone_departure" else None
                    for r, e in zip(reference_prepare_fleet(instance), arr.is_et.tolist())]
            got = [v if e or field == "alone_departure" else None
                   for v, e in zip(getattr(lists, name), arr.is_et.tolist())]
            assert repr(got) == repr(want), field

    def test_not_a_sequence(self):
        # Nothing iterates or indexes the columns into per-truck records by
        # the way.
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
        # Fleets compare by their instances: the same trucks drawn for
        # another seed, or listed in another order, make another fleet.
        for other in (ProblemInstance(inst.trucks, inst.route, inst.econ, inst.seed + 1),
                      ProblemInstance(inst.trucks[::-1], inst.route, inst.econ, inst.seed)):
            again = prepare_fleet(other)
            assert reference_prepare_fleet(other) == records and again != fleet
            assert again.ids == fleet.ids

    def test_equality_builds_no_records(self, truck_specs_built):
        config = ScenarioConfig(n_trucks=200, seed=3)
        fleet, same = prepare_fleet(generate(config)), prepare_fleet(generate(config))
        other = prepare_fleet(generate(replace(config, seed=4)))
        assert fleet == same and fleet != other and not fleet != same
        assert truck_specs_built == []

    def test_repr_builds_no_records(self, truck_specs_built):
        instance = generate(ScenarioConfig(n_trucks=200, seed=3))
        fleet = prepare_fleet(instance)
        text = repr(fleet)
        assert truck_specs_built == []
        assert text == f"PreparedFleet(n_trucks=200, route={instance.route!r}, seed=3)"

    def test_column_lists_are_built_once(self):
        # The scalar pricer's lists are the columns, made on the first call;
        # they are kept on the fleet, not among the arrays, whose fields all
        # stay numpy columns.
        _, fleet, _ = fleet_and_records()
        lists = fleet.column_lists()
        assert fleet.column_lists() is lists
        assert lists._fields == tuple(vars(fleet.arrays))
        assert sorted(lists._fields) == sorted(COLUMNS)
        for name in COLUMNS:
            assert repr(getattr(lists, name)) == repr(getattr(fleet.arrays, name).tolist()), name

    def test_dp_solves_build_no_records(self, truck_specs_built, tmp_path):
        # Every solver, the baselines included, prices from the columns.
        inst = generate(ScenarioConfig(n_trucks=30, seed=3))
        fleet = prepare_fleet(inst)
        solve_dp_ls(fleet, inst.route, inst.econ)
        solve_dp_nls(fleet, inst.route, inst.econ, 2)
        solve_spontaneous(fleet, inst.route, inst.econ, 0)
        solve_fixed_interval(fleet, inst.route, inst.econ, 30.0, 0)
        path = tmp_path / "inst.json"
        assert cli.main(["generate", "--seed", "3", "--n", "30", "--out", str(path)]) == 0
        for method in ("dp-ls", "spontaneous", "fixed-interval"):
            assert cli.main(["solve", str(path), "--method", method,
                             "--out", str(tmp_path / "sol.json")]) == 0
        assert truck_specs_built == []

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
        inst, fleet, _ = fleet_and_records()
        again = clone(prepare_fleet(inst))
        assert type(again) is PreparedFleet and again == fleet
        assert again.column_lists() == fleet.column_lists()
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
    def test_pickle_and_copy_build_no_records(self, clone, truck_specs_built):
        inst = generate(ScenarioConfig(n_trucks=30, seed=3))
        fleet = prepare_fleet(inst)
        fleet.column_lists()
        again = clone(fleet)
        assert type(again) is PreparedFleet and again.instance == inst
        assert again.order.tobytes() == fleet.order.tobytes()
        assert truck_specs_built == []
