"""Candidate departure times: mandatory charging and fleet ordering.

Every ET is charged at least enough to finish the trip in the cheapest role
(as a platoon follower). Its earliest departure is the arrival time plus that
mandatory charge; fuel trucks can leave the moment they arrive. Sorting the
fleet by earliest departure yields the ordered candidate instants that the
downstream solvers search over.

`prepare_fleet` does this in one numpy pass over the fleet's columns and
returns a `PreparedFleet`: the columns in rank order, which the kernel reads
directly, behind a sequence of `PreparedTruck` records that are built only
when a record is first asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cmp_to_key
from itertools import compress
from typing import List, NamedTuple, Optional

import numpy as np

from .model import (
    ContractViolation,
    FleetColumns,
    HorizonExceededError,
    InfeasibleTruckError,
    ProblemInstance,
    RouteParams,
    SOC_TOL,
    TIME_TOL,
    TruckKind,
    TruckSpec,
)


class PreparedTruck(NamedTuple):
    """A truck augmented with its mandatory-charge schedule and sort rank."""

    spec: TruckSpec
    min_charge_time: float                 # minutes, 0 for fuel trucks
    min_departure_soc: Optional[float]     # percent, None for fuel trucks
    earliest_departure: float              # minutes
    rank: int                              # position after sorting, 0-based

    @property
    def id(self) -> int:
        return self.spec.id

    @property
    def kind(self) -> TruckKind:
        return self.spec.kind

    @property
    def is_electric(self) -> bool:
        return self.spec.is_electric

    @property
    def arrival_time(self) -> float:
        return self.spec.arrival_time


def _mandatory_charge(route: RouteParams, init, rate, vrate, safe, cap):
    """The follower-safe departure SoC of ETs from their battery columns
    (`FleetColumns.battery_f`), which of them cannot reach it even on a full
    battery, and the minutes of charge that reach it from `init` (0.0 when
    `init` already covers it)."""
    required = safe + route.follower_coeff * vrate * route.distance
    infeasible = required - cap > SOC_TOL
    gap = (required - init) / rate
    return required, infeasible, np.where(gap > 0.0, gap, 0.0)  # max(0.0, gap)


def _charged_soc(init, rate, charge):
    """`model.soc_after_charge` over columns."""
    return init + rate * charge


def _infeasible(truck_id, capacity, required: float) -> InfeasibleTruckError:
    return InfeasibleTruckError(
        truck_id,
        f"needs departure SoC {required:.6g}% to follow safely but capacity "
        f"is {capacity:.6g}%",
    )


def min_charge_time(truck: TruckSpec, route: RouteParams) -> float:
    """Minutes of charging needed before the truck could follow safely.

    Zero when the arrival SoC already covers a follower trip plus the safety
    margin. Raises InfeasibleTruckError when even a full battery would not.
    """
    if not truck.is_electric:
        raise ContractViolation(f"truck {truck.id}: fuel trucks do not charge")
    battery = FleetColumns.from_trucks([truck]).battery_f
    required, infeasible, charge = _mandatory_charge(route, *battery)
    if infeasible[0]:
        raise _infeasible(truck.id, truck.max_soc, float(required[0]))
    return float(charge[0])


def _zeros_except(n: int, where: np.ndarray, values) -> np.ndarray:
    out = np.zeros(n)
    out[where] = values
    return out


def _compare_ids(a, b) -> int:
    """-1, 0 or 1 as id `a` sorts before, with or after id `b`, or
    `ContractViolation` naming both when Python cannot order them."""
    try:
        return (a > b) - (a < b)
    except TypeError:
        raise ContractViolation(
            f"trucks {a!r} and {b!r} are ready at the same instant, and their ids "
            "cannot be ordered to break the tie") from None


def _rank_order(earliest: np.ndarray, ids) -> np.ndarray:
    """Positions of the trucks sorted by (earliest departure, id).

    An argsort of the float64 departures is that order except among trucks
    whose departures tie. Those are sorted in Python by (departure, id,
    position): ids are compared as Python compares them, whatever their
    types, and only where departures tie. Two tied ids that Python cannot
    order are a `ContractViolation` that names them.
    """
    order = np.argsort(earliest)
    ranked = earliest[order]
    tie = ranked[1:] == ranked[:-1]
    tied = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
    members = order[tied].tolist()
    departures = earliest[members].tolist()
    tied_ids = list(map(ids.__getitem__, members))
    try:
        keys = sorted(zip(departures, tied_ids, members))
    except TypeError:
        # Sort again, comparing ids through `_compare_ids` to name two of them.
        sorted(zip(departures, map(cmp_to_key(_compare_ids), tied_ids), members))
        raise
    order[tied] = [k for *_, k in keys]
    return order


class PreparedFleet(Sequence):
    """A prepared fleet in rank order: an immutable sequence of
    `PreparedTruck` records, held as columns.

    The columns are those `kernels.FleetArrays` reads at prepare time, plus
    each ET's safety floor and the ids, all by rank; fuel trucks hold zeros
    in the battery columns. The arrays are read-only, since every solve's
    `FleetArrays` shares them. The `TruckSpec`s by rank (`specs`) and the
    records are built on first access and then kept; slicing returns a list
    of records.
    """

    __slots__ = ("ids", "tau_delta", "tau_cmin", "is_et", "fill_time",
                 "rate", "arrival", "init_soc", "max_soc", "vrate", "safe_soc",
                 "_specs", "_records")

    def __init__(self, specs, ids, is_et, earliest, charge, departure_soc, arrival,
                 init_soc, rate, vrate, safe_soc, max_soc, records=None):
        """Columns by rank; the battery columns hold each ET's value at its
        rank and zeros elsewhere. `specs` is the tuple of `TruckSpec`s by
        rank, or a function that gives them, called on first access.
        `departure_soc`, the SoC after the mandatory charge, gives the
        minutes to a full battery and is not kept. `records`, when given,
        are these trucks' records and are kept as they are."""
        et = np.flatnonzero(is_et)
        fill_time = _zeros_except(
            is_et.size, et, (max_soc[et] - departure_soc[et]) / rate[et])
        columns = dict(
            tau_delta=earliest, tau_cmin=charge, is_et=is_et, fill_time=fill_time,
            rate=rate, arrival=arrival, init_soc=init_soc, max_soc=max_soc,
            vrate=vrate, safe_soc=safe_soc)
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_specs", specs)
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "_records", records)

    @classmethod
    def from_records(cls, records) -> "PreparedFleet":
        """The fleet of these rank-ordered records, which it keeps: the one
        place columns are built from records."""
        records = list(records)
        if [m.rank for m in records] != list(range(len(records))):
            raise ContractViolation("prepared fleet must be rank-ordered")
        earliest = np.array([m.earliest_departure for m in records], dtype=float)
        if (earliest[1:] < earliest[:-1]).any():
            raise ContractViolation("prepared fleet must be sorted by earliest departure")
        specs = tuple(m.spec for m in records)
        fleet = FleetColumns.from_trucks(specs)
        ets = list(compress(records, fleet.electric))
        is_et = np.array(fleet.electric, dtype=np.uint8)
        et = np.flatnonzero(is_et)
        n = len(records)

        def column(values):
            return _zeros_except(n, et, values)

        init, rate, vrate, safe, cap = map(column, fleet.battery_f)
        return cls(
            specs, fleet.ids, is_et, earliest,
            column([m.min_charge_time for m in ets]),
            column([m.min_departure_soc for m in ets]),
            fleet.arrival_f, init, rate, vrate, safe, cap, records=records,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__;
        # rebuild the fleet from its records instead.
        return type(self).from_records, (self._rows(),)

    @property
    def specs(self) -> tuple:
        """The `TruckSpec`s by rank."""
        if callable(self._specs):
            object.__setattr__(self, "_specs", tuple(self._specs()))
        return self._specs

    def _rows(self) -> List[PreparedTruck]:
        if self._records is None:
            et = self.is_et.tolist()
            soc = _charged_soc(self.init_soc, self.rate, self.tau_cmin)
            object.__setattr__(self, "_records", [
                PreparedTruck(spec, charge, soc if e else None, earliest, rank)
                for rank, (spec, e, charge, soc, earliest) in enumerate(zip(
                    self.specs, et, self.tau_cmin.tolist(), soc.tolist(),
                    self.tau_delta.tolist()))
            ])
        return self._records

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        return self._rows()[index]

    def __iter__(self):
        return iter(self._rows())

    def __eq__(self, other):
        if not isinstance(other, PreparedFleet):
            return NotImplemented
        return self._rows() == other._rows()

    def __repr__(self) -> str:
        return f"PreparedFleet({self._rows()!r})"


def as_fleet(prepared) -> PreparedFleet:
    """`prepared` itself when it is a `PreparedFleet`, else the fleet of its
    records (`PreparedFleet.from_records`)."""
    if isinstance(prepared, PreparedFleet):
        return prepared
    return PreparedFleet.from_records(prepared)


def prepare_fleet(instance: ProblemInstance) -> PreparedFleet:
    """Attach mandatory-charge data to every truck and order the fleet.

    Trucks are sorted by earliest departure, ties broken by ascending id so
    repeated runs give identical ranks. A truck whose mandatory charge alone
    pushes it past the planning horizon is rejected outright rather than
    silently scheduled late; the first failing truck in instance order is
    named, and an ET that can neither follow safely nor leave in time fails
    as infeasible.
    """
    fleet, route = instance.columns, instance.route
    ids, flags, arrival = fleet.ids, fleet.electric, fleet.arrival_f
    n = len(ids)
    is_et = np.fromiter(flags, bool, n)
    et = np.flatnonzero(is_et)
    init, rate, vrate, safe, cap = fleet.battery_f

    required, infeasible, charge = _mandatory_charge(route, *fleet.battery_f)
    departure_soc = _charged_soc(init, rate, charge)
    earliest = arrival.copy()
    earliest[et] = arrival[et] + charge

    failed = earliest > route.horizon + TIME_TOL
    failed[et] |= infeasible
    if failed.any():
        k = int(failed.argmax())
        j = int(np.searchsorted(et, k))  # truck k's place among the ETs
        if flags[k] and infeasible[j]:
            raise _infeasible(ids[k], fleet.battery[4][j], float(required[j]))
        raise HorizonExceededError(ids[k], float(earliest[k]), route.horizon)

    order = _rank_order(earliest, ids)

    def ranked(values):
        return _zeros_except(n, et, values)[order]

    ranks = order.tolist()
    return PreparedFleet(
        lambda: map(instance.trucks.__getitem__, ranks), map(ids.__getitem__, ranks),
        is_et[order].astype(np.uint8), earliest[order],
        ranked(charge), ranked(departure_soc), arrival[order], ranked(init),
        ranked(rate), ranked(vrate), ranked(safe), ranked(cap))
