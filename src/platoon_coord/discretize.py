"""Candidate departure times: mandatory charging and fleet ordering.

Every ET is charged at least enough to finish the trip in the cheapest role
(as a platoon follower). Its earliest departure is the arrival time plus that
mandatory charge; fuel trucks can leave the moment they arrive. Sorting the
fleet by earliest departure yields the ordered candidate instants that the
downstream solvers search over.

`prepare_fleet` does this in one numpy pass over the fleet's columns and
returns a `PreparedFleet`: its `FleetArrays`, the columns in rank order for
the instance's route, which the solvers read, and which the scalar pricer
reads as Python lists (`PreparedFleet.column_lists`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cmp_to_key

import numpy as np

from .model import (
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    LEAD_COEFF,
    ProblemInstance,
    RouteParams,
    SOC_TOL,
    TIME_TOL,
)


def _soc_need(route: RouteParams, coeff: float, vrate, safe):
    """`model.departure_soc_bounds`' lowest departure SoC over ET columns:
    the safety floor plus the trip's discharge in the role of `coeff`."""
    return safe + coeff * vrate * route.distance


def _mandatory_charge(route: RouteParams, init, rate, vrate, safe, cap):
    """The follower-safe departure SoC of ETs from their battery columns
    (`FleetColumns.battery_f`), which of them cannot reach it even on a full
    battery, and the minutes of charge that reach it from `init` (0.0 when
    `init` already covers it)."""
    required = _soc_need(route, route.follower_coeff, vrate, safe)
    infeasible = required - cap > SOC_TOL
    gap = (required - init) / rate
    return required, infeasible, np.where(gap > 0.0, gap, 0.0)  # max(0.0, gap)


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


@dataclass(frozen=True)
class FleetArrays:
    """The columns of a prepared fleet in rank order, which the kernel, the
    batch pricer and the baselines read. `prepare_fleet` builds them once,
    for the instance's route, and every solve of the fleet shares them, so
    the arrays are read-only.

    Fuel trucks carry zeros in the battery columns, so `member_terms` gives
    them no charge and lets them lead without a special case.
    """

    tau_delta: np.ndarray     # earliest departure per rank, minutes
    tau_cmin: np.ndarray      # mandatory charge minutes
    is_et: np.ndarray         # uint8 flags
    fill_time: np.ndarray     # minutes from the mandatory-charge SoC to full
    rate: np.ndarray          # charge rate, percent per minute
    need_lead: np.ndarray     # departure SoC required to lead or drive alone
    alone_depart: np.ndarray  # a lone truck's departure, never before tau_delta
    arrival: np.ndarray       # hub arrival time, minutes
    init_soc: np.ndarray      # SoC at hub arrival, percent
    max_soc: np.ndarray       # battery capacity, percent
    vrate: np.ndarray         # discharge rate driving alone, percent per km

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    @property
    def size(self) -> int:
        return int(self.tau_delta.shape[0])


# The columns of a `FleetArrays` as Python lists, in its field order, which
# the scalar pricer unpacks.
FleetLists = namedtuple("FleetLists", [f.name for f in fields(FleetArrays)])


class PreparedFleet:
    """A prepared fleet in rank order, held as columns. Only `prepare_fleet`
    makes one, and the solvers take no other form of a fleet.

    The fleet keeps its `instance`; `order`, the instance position of the
    truck at each rank; the `ids` by rank; and `arrays`, its `FleetArrays`
    for the instance's route, the one route it is solved on. It is not a
    sequence: the scalar pricer reads a truck's constants by rank from
    `column_lists()`.
    """

    __slots__ = ("instance", "order", "ids", "arrays", "_lists")

    def __init__(self, instance, order, ids, arrays):
        """The fleet of `instance` whose truck of rank k is the instance's
        truck `order[k]`, with its columns by rank (`prepare_fleet`)."""
        for name, value in zip(self.__slots__, (instance, order, ids, arrays, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__;
        # prepare the instance again instead.
        return prepare_fleet, (self.instance,)

    def column_lists(self) -> "FleetLists":
        """The `arrays` columns, each as the Python list of its `.tolist()`,
        made on the first call and then kept."""
        if self._lists is None:
            object.__setattr__(self, "_lists", FleetLists(
                *(column.tolist() for column in vars(self.arrays).values())))
        return self._lists

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        # A prepared fleet is a function of its instance, and instances
        # compare by their columns, so no `TruckSpec` is built.
        if not isinstance(other, PreparedFleet):
            return NotImplemented
        return self.instance == other.instance

    def __repr__(self) -> str:
        # The fleet's size, route and seed; listing its trucks would build
        # a `TruckSpec` each.
        instance = self.instance
        return (f"{type(self).__qualname__}(n_trucks={len(self)}, route={instance.route!r}, "
                f"seed={instance.seed!r})")


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
    # To a full battery from the charged SoC (`model.soc_after_charge`).
    fill_time = (cap - (init + rate * charge)) / rate
    earliest = arrival.copy()
    earliest[et] = arrival[et] + charge

    failed = earliest > route.horizon + TIME_TOL
    failed[et] |= infeasible
    if failed.any():
        k = int(failed.argmax())
        j = int(np.searchsorted(et, k))  # truck k's place among the ETs
        if flags[k] and infeasible[j]:
            raise InfeasibleTruckError(
                ids[k], f"needs departure SoC {float(required[j]):.6g}% to follow safely but "
                f"capacity is {fleet.battery[4][j]:.6g}%")
        raise HorizonExceededError(ids[k], float(earliest[k]), route.horizon)

    # The lead need and the alone-safe departure, which repeat the scalar
    # reference `tests/checks.py::alone_charge_time` operation for operation.
    need_lead = _soc_need(route, LEAD_COEFF, vrate, safe)
    alone_charge = np.maximum(np.maximum(charge, (np.minimum(need_lead, cap) - init) / rate),
                              0.0)
    alone_depart = earliest.copy()
    alone_depart[et] = arrival[et] + alone_charge

    order = _rank_order(earliest, ids)
    order.flags.writeable = False

    def ranked(values):
        return _zeros_except(n, et, values)[order]

    arrays = FleetArrays(
        tau_delta=earliest[order], tau_cmin=ranked(charge), is_et=is_et[order].astype(np.uint8),
        fill_time=ranked(fill_time), rate=ranked(rate), need_lead=ranked(need_lead),
        alone_depart=alone_depart[order], arrival=arrival[order], init_soc=ranked(init),
        max_soc=ranked(cap), vrate=ranked(vrate))
    return PreparedFleet(instance, order, tuple(map(ids.__getitem__, order.tolist())), arrays)
