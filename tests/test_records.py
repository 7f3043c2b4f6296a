"""The records built once per truck or per platoon.

`TruckSpec`, `MemberLedger` and `PlatoonAssignment`, and the scalar
reference's `checks.PreparedTruck`, are immutable NamedTuples. They compare
and hash by value, and their `repr` is the text that the dataclasses they
replaced wrote, since schedules are fingerprinted by it. `TruckSpec`
validates however it is built: the constructor, `_make` and `_replace`
raise the same errors. `FleetArrays`, built once per prepared fleet, stays a
dataclass whose fields all report `.nbytes`.
"""

import dataclasses

import pytest

from platoon_coord import (
    ContractViolation,
    MemberLedger,
    PlatoonAssignment,
    TruckKind,
    TruckSpec,
    solve_dp_ls,
)
from platoon_coord.kernels import fleet_arrays
from checks import PreparedTruck, reference_prepare_fleet
from conftest import REF_ECON, REF_ROUTE, et, ft, prepare

TRUCK_REPR = (
    "TruckSpec(id=7, kind=<TruckKind.ELECTRIC: 'ET'>, arrival_time=3.5, "
    "initial_soc=40.0, charge_rate=1.07, discharge_rate=0.286, safe_soc=10.0, "
    "max_soc=100.0)"
)
PREPARED_REPR = (
    "PreparedTruck(spec=TruckSpec(id=2, kind=<TruckKind.ELECTRIC: 'ET'>, "
    "arrival_time=5.0, initial_soc=40.0, charge_rate=1.07, discharge_rate=0.286, "
    "safe_soc=10.0, max_soc=100.0), min_charge_time=15.798130841121491, "
    "min_departure_soc=56.903999999999996, earliest_departure=20.79813084112149, "
    "rank=1, fill_time=40.27663551401869, lead_need=67.19999999999999, "
    "alone_departure=30.42056074766354)"
)
PLATOON_REPR = (
    "PlatoonAssignment(ranks=(0, 1), leader_type=<LeaderType.FUEL: 'F'>, "
    "leader_rank=0, departure_time=20.79813084112149, ledger=("
    "MemberLedger(truck_id=1, rank=0, kind=<TruckKind.FUEL: 'FT'>, "
    "role=<Role.LEADER: 'LEADER'>, charge_time=0.0, wait_time=20.79813084112149, "
    "departure_soc=None, arrival_soc=None, can_lead=True), "
    "MemberLedger(truck_id=2, rank=1, kind=<TruckKind.ELECTRIC: 'ET'>, "
    "role=<Role.FOLLOWER: 'FOLLOWER'>, charge_time=15.798130841121491, "
    "wait_time=0.0, departure_soc=56.903999999999996, arrival_soc=10.0, "
    "can_lead=False)), profit=10.0, loss=11.478878504672895, "
    "utility=-1.4788785046728954)"
)


def two_truck_records():
    truck = et(7, 3.5, soc=40.0)
    prepared = prepare([ft(1, 0.0), et(2, 5.0, soc=40.0)])
    (platoon,) = solve_dp_ls(prepared, REF_ROUTE, REF_ECON).platoons
    return truck, reference_prepare_fleet(prepared.instance)[1], platoon, platoon.ledger[1]


RECORDS = two_truck_records()
TYPES = (TruckSpec, PreparedTruck, PlatoonAssignment, MemberLedger)


def rebuilt(record):
    """An equal record built afresh from its fields by keyword."""
    return type(record)(**{name: getattr(record, name) for name in record._fields})


@pytest.mark.parametrize("record", RECORDS, ids=[t.__name__ for t in TYPES])
class TestContract:
    def test_fields_cannot_be_assigned(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_no_attributes_can_be_added(self, record):
        with pytest.raises(AttributeError):
            record.note = "extra"

    def test_equal_fields_compare_and_hash_equal(self, record):
        twin = rebuilt(record)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)
        assert record._replace(**{record._fields[-1]: 99}) != record


def test_repr_is_the_dataclass_text():
    truck, prepared, platoon, _ = RECORDS
    assert repr(truck) == TRUCK_REPR
    assert repr(prepared) == PREPARED_REPR
    assert repr(platoon) == PLATOON_REPR


def test_properties():
    truck, prepared, platoon, _ = RECORDS
    assert truck.is_electric and not ft(1, 0.0).is_electric
    assert (prepared.id, prepared.kind, prepared.is_electric, prepared.arrival_time) == (
        2, TruckKind.ELECTRIC, True, 5.0)
    assert (platoon.size, platoon.leader_id) == (2, 1)


VALID_ET = et(1, 0.0, soc=50.0)
VALID_FT = ft(1, 0.0)

# (valid truck, fields changed, message): every check of `TruckSpec`.
FAULTS = [
    (VALID_FT, dict(arrival_time=-5.0), "truck 1: arrival_time must be >= 0"),
    (VALID_ET, dict(arrival_time=-0.5), "truck 1: arrival_time must be >= 0"),
    (VALID_FT, dict(initial_soc=50.0), "truck 1: fuel trucks carry no battery fields"),
    (VALID_FT, dict(max_soc=100.0), "truck 1: fuel trucks carry no battery fields"),
    (VALID_ET, dict(charge_rate=None), "truck 1: electric trucks need all battery fields"),
    (VALID_ET, dict(initial_soc=None, charge_rate=None, discharge_rate=None,
                    safe_soc=None, max_soc=None),
     "truck 1: electric trucks need all battery fields"),
    (VALID_ET, dict(charge_rate=0.0), "truck 1: charge_rate must be > 0"),
    (VALID_ET, dict(discharge_rate=-0.1), "truck 1: discharge_rate must be >= 0"),
    (VALID_ET, dict(safe_soc=100.0), r"truck 1: safe_soc must be in \[0, 100\)"),
    (VALID_ET, dict(max_soc=10.0), r"truck 1: max_soc must be in \(safe_soc, 100\]"),
    (VALID_ET, dict(initial_soc=101.0), r"truck 1: initial_soc must be in \[0, max_soc\]"),
]

BUILDERS = {
    "positional": lambda base, fields: TruckSpec(*fields),
    "keyword": lambda base, fields: TruckSpec(**dict(zip(TruckSpec._fields, fields))),
    "_make": lambda base, fields: TruckSpec._make(fields),
    "_replace": lambda base, fields: base._replace(
        **{name: value for name, value, old in zip(TruckSpec._fields, fields, base)
           if value is not old}),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
class TestTruckValidation:
    @pytest.mark.parametrize("base, changes, message", FAULTS, ids=[
        f"{base.kind.value}-{'-'.join(changes)}" for base, changes, _ in FAULTS])
    def test_every_way_of_building_rejects(self, build, base, changes, message):
        fields = tuple(changes.get(name, getattr(base, name)) for name in TruckSpec._fields)
        with pytest.raises(ContractViolation, match=f"^{message}$"):
            build(base, fields)

    @pytest.mark.parametrize("base, changes", [
        (VALID_FT, dict(arrival_time=12.0)),
        (VALID_ET, dict(initial_soc=0.0, safe_soc=0.0, max_soc=0.5)),
    ])
    def test_valid_fields_build_a_truck(self, build, base, changes):
        fields = tuple(changes.get(name, getattr(base, name)) for name in TruckSpec._fields)
        truck = build(base, fields)
        assert type(truck) is TruckSpec and tuple(truck) == fields


def test_make_checks_the_field_count():
    with pytest.raises(TypeError):
        TruckSpec._make((1, TruckKind.FUEL))


@pytest.mark.parametrize("prepared", [
    prepare([ft(0, 0.0)]),
    prepare([ft(0, 0.0), et(1, 3.0, soc=40.0)]),
])
def test_fleet_arrays_stays_a_dataclass_of_arrays(prepared):
    arr = fleet_arrays(prepared, REF_ROUTE)
    assert dataclasses.is_dataclass(arr)
    assert vars(arr) and all(hasattr(col, "nbytes") for col in vars(arr).values())
