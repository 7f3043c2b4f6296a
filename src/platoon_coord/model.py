"""Core domain types and the charge/discharge/time arithmetic for hub platooning.

A mixed fleet of fuel trucks (FTs) and electric trucks (ETs) gathers at a hub
and may leave in platoons toward a common destination. Followers burn less
energy than leaders or trucks driving alone; ETs may have to charge before
they can reach the destination with a safe battery margin. This module holds
the immutable problem data plus the elementary physics shared by every solver
in the package: departure-time composition, linear charging, role-dependent
discharging, and the battery window a departing ET must respect.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

# Discharge multiplier for a truck leading a platoon or driving alone.
LEAD_COEFF = 1.0
# Default discharge multiplier for platoon followers.
DEFAULT_FOLLOWER_COEFF = 0.82

# Absolute tolerances used for feasibility comparisons throughout the package.
SOC_TOL = 1e-9    # battery percent points
TIME_TOL = 1e-9   # minutes
MONEY_TOL = 1e-9  # euros


class ContractViolation(ValueError):
    """An operation was invoked outside its documented precondition."""


class InfeasibleTruckError(ValueError):
    """The truck cannot complete the trip safely even when fully charged."""

    def __init__(self, truck_id: int, message: str):
        super().__init__(f"truck {truck_id}: {message}")
        self.truck_id = truck_id


class HorizonExceededError(ValueError):
    """A truck's earliest safe departure lies beyond the planning horizon."""

    def __init__(self, truck_id: int, departure: float, horizon: float):
        super().__init__(
            f"truck {truck_id}: earliest departure {departure:.6g} min exceeds "
            f"planning horizon {horizon:.6g} min"
        )
        self.truck_id = truck_id


class NoFeasibleScheduleError(RuntimeError):
    """No schedule in the candidate space satisfies every safety bound."""


class TruckKind(Enum):
    FUEL = "FT"
    ELECTRIC = "ET"


class _TruckFields(NamedTuple):
    """The fields of `TruckSpec`, in order; build trucks through `TruckSpec`."""

    id: int
    kind: TruckKind
    arrival_time: float
    initial_soc: Optional[float] = None     # percent at hub arrival
    charge_rate: Optional[float] = None     # percent gained per minute at the hub
    discharge_rate: Optional[float] = None  # percent spent per km when driving alone
    safe_soc: Optional[float] = None        # minimum percent allowed en route
    max_soc: Optional[float] = None         # battery capacity in percent


class TruckSpec(_TruckFields):
    """Immutable inputs of one truck.

    Battery fields are required for ELECTRIC trucks and must be left as None
    for FUEL trucks. SoC quantities are percentages of battery capacity,
    times are minutes, distances kilometres.
    """

    __slots__ = ()

    def __new__(cls, id: int, kind: TruckKind, arrival_time: float,
                initial_soc: Optional[float] = None, charge_rate: Optional[float] = None,
                discharge_rate: Optional[float] = None, safe_soc: Optional[float] = None,
                max_soc: Optional[float] = None):
        # Each check is written so that NaN fails it.
        if not arrival_time >= 0:
            raise ContractViolation(f"truck {id}: arrival_time must be >= 0")
        battery = (initial_soc, charge_rate, discharge_rate, safe_soc, max_soc)
        if kind is TruckKind.FUEL:
            if any(v is not None for v in battery):
                raise ContractViolation(f"truck {id}: fuel trucks carry no battery fields")
        elif None in battery:
            raise ContractViolation(f"truck {id}: electric trucks need all battery fields")
        elif not charge_rate > 0:
            raise ContractViolation(f"truck {id}: charge_rate must be > 0")
        elif not discharge_rate >= 0:
            raise ContractViolation(f"truck {id}: discharge_rate must be >= 0")
        elif not 0 <= safe_soc < 100:
            raise ContractViolation(f"truck {id}: safe_soc must be in [0, 100)")
        elif not safe_soc < max_soc <= 100:
            raise ContractViolation(f"truck {id}: max_soc must be in (safe_soc, 100]")
        elif not 0 <= initial_soc <= max_soc:
            raise ContractViolation(f"truck {id}: initial_soc must be in [0, max_soc]")
        return tuple.__new__(cls, (id, kind, arrival_time) + battery)

    @classmethod
    def _make(cls, iterable):
        # The tuple's own `_make`, which `_replace` calls, skips `__new__`.
        return cls(*iterable)

    @property
    def is_electric(self) -> bool:
        return self.kind is TruckKind.ELECTRIC


@dataclass(frozen=True)
class RouteParams:
    """Shared route and formation limits: one hub-to-hub segment."""

    distance: float                               # km between the two hubs
    horizon: float                                # planning horizon in minutes
    max_platoon_size: int                         # safety cap on platoon length
    follower_coeff: float = DEFAULT_FOLLOWER_COEFF

    def __post_init__(self):
        if not self.distance > 0:
            raise ContractViolation("distance must be > 0")
        if not self.horizon > 0:
            raise ContractViolation("horizon must be > 0")
        size = self.max_platoon_size
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ContractViolation("max_platoon_size must be an integer >= 1")
        if not 0 < self.follower_coeff <= 1:
            raise ContractViolation("follower_coeff must be in (0, 1]")


@dataclass(frozen=True)
class EconomicParams:
    """Per-minute costs and per-trip follower savings in euros.

    Charging a minute must not cost more than waiting a minute; the fixed
    charge-before-wait policy used by every solver relies on that ordering.
    """

    wait_cost: float           # euros per minute of idle waiting
    charge_cost: float         # euros per minute spent charging
    et_follower_profit: float  # euros earned by an ET following for the trip
    ft_follower_profit: float  # euros earned by an FT following for the trip

    def __post_init__(self):
        for name in ("wait_cost", "charge_cost", "et_follower_profit", "ft_follower_profit"):
            if not getattr(self, name) >= 0:
                raise ContractViolation(f"{name} must be >= 0")
        if self.charge_cost > self.wait_cost:
            raise ContractViolation("charge_cost must not exceed wait_cost")


class FleetColumns:
    """A fleet as columns in instance order: the form `prepare_fleet` reads.

    `ids` and `arrival` hold every truck's value as it was given (an integer
    arrival stays an integer), `electric` which trucks are ETs, and `battery`
    the five battery fields of the ETs alone, in `TruckSpec` order; the
    `*_f` columns are the same numbers as read-only float64 arrays.
    """

    __slots__ = ("ids", "electric", "arrival", "battery", "arrival_f", "battery_f")

    def __init__(self, ids: list, electric: list, arrival: list, battery: tuple):
        floats = [np.array(column, dtype=float) for column in (arrival, *battery)]
        for column in floats:
            column.flags.writeable = False
        for name, value in zip(self.__slots__, (ids, electric, arrival, tuple(battery),
                                                floats[0], tuple(floats[1:]))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_trucks(cls, trucks) -> "FleetColumns":
        """The columns of these `TruckSpec`s: the one place `TruckSpec`s are
        transposed into columns."""
        electric = [kind is TruckKind.ELECTRIC for kind in map(itemgetter(1), trucks)]
        ets = list(compress(trucks, electric))
        return cls(list(map(itemgetter(0), trucks)), electric, list(map(itemgetter(2), trucks)),
                   tuple(list(map(itemgetter(k), ets)) for k in range(3, 8)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def check_trucks(self) -> None:
        """Raise the `ContractViolation` of `TruckSpec.__new__` for the first
        truck that fails its checks, which are stated here over the float64
        columns; NaN fails them, as there. Only a failing fleet builds
        `TruckSpec`s, up to the faulty one. Where the numbers are ints and
        floats the verdict is `TruckSpec`'s: float64 keeps an int's sign, and
        its value up to 2**53, and every check that does not compare with 0
        involves a field that must lie in [0, 100]."""
        init, rate, vrate, safe, cap = self.battery_f
        if not ((self.arrival_f >= 0).all()
                and (rate > 0).all() and (vrate >= 0).all()
                and ((0 <= safe) & (safe < 100)).all()
                and ((safe < cap) & (cap <= 100)).all()
                and ((0 <= init) & (init <= cap)).all()):
            self.to_trucks()

    def to_trucks(self) -> tuple:
        """The `TruckSpec` of every truck, in instance order."""
        battery = zip(*self.battery)
        electric, fuel = TruckKind.ELECTRIC, TruckKind.FUEL
        return tuple(TruckSpec(i, electric, a, *next(battery)) if e else TruckSpec(i, fuel, a)
                     for i, e, a in zip(self.ids, self.electric, self.arrival))


class ProblemInstance:
    """One solvable unit: a fleet plus route, prices, and a base seed.

    The seed feeds only the randomized solvers (leader draws); deterministic
    solvers ignore it. The fleet is held as columns (`FleetColumns`), set by
    every constructor: an instance built from `TruckSpec` records transposes
    them once and keeps them, and a loaded or generated one builds its
    records only when they are asked for.
    Instances are immutable and compare, hash, print and pickle by value.
    """

    __slots__ = ("route", "econ", "seed", "columns", "_trucks")

    def __init__(self, trucks, route: RouteParams, econ: EconomicParams, seed: int = 0):
        trucks = tuple(trucks)
        try:
            columns = FleetColumns.from_trucks(trucks)
        except OverflowError:  # an int beyond float64, which `TruckSpec` accepts
            raise _float_range_fault(trucks) from None
        self._set(columns, trucks, route, econ, seed)

    @classmethod
    def _from_columns(cls, columns: FleetColumns, route: RouteParams,
                      econ: EconomicParams, seed: int = 0) -> "ProblemInstance":
        """The instance of a fleet given as columns, after the checks of
        `TruckSpec` (`FleetColumns.check_trucks`)."""
        columns.check_trucks()
        instance = object.__new__(cls)
        instance._set(columns, None, route, econ, seed)
        return instance

    def _set(self, columns, trucks, route, econ, seed):
        ids = columns.ids
        if not ids:
            raise ContractViolation("instance needs at least one truck")
        if len(set(ids)) != len(ids):
            raise ContractViolation("truck ids must be unique")
        if seed < 0:
            raise ContractViolation("seed must be >= 0")
        for name, value in zip(self.__slots__, (route, econ, seed, columns, trucks)):
            object.__setattr__(self, name, value)

    @property
    def trucks(self) -> tuple:
        """The `TruckSpec`s in instance order, built from the columns on
        first access."""
        if self._trucks is None:
            object.__setattr__(self, "_trucks", self.columns.to_trucks())
        return self._trucks

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        # The columns as given, which are equal exactly when the `TruckSpec`s
        # are, so that comparing and hashing build no records.
        c = self.columns
        return (tuple(c.ids), tuple(c.electric), tuple(c.arrival), tuple(map(tuple, c.battery)),
                self.route, self.econ, self.seed)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(trucks={self.trucks!r}, route={self.route!r}, "
                f"econ={self.econ!r}, seed={self.seed!r})")

    def __reduce__(self):
        return type(self), (self.trucks, self.route, self.econ, self.seed)


def _float_range_fault(trucks) -> ContractViolation:
    """The fault of the first of these trucks with a field beyond float64."""
    for truck in trucks:
        for name, value in zip(TruckSpec._fields[2:], truck[2:]):
            try:
                np.array(value, dtype=float)
            except OverflowError:
                return ContractViolation(f"truck {truck.id}: {name} is beyond the float range")


def departure_time(truck, charge: float, wait: float) -> float:
    """Departure instant of a truck that charges and then waits at the hub.

    Fuel trucks never charge, so any nonzero charge time on one is rejected.
    """
    if charge < 0 or wait < 0:
        raise ContractViolation("charge and wait times must be >= 0")
    if truck.kind is TruckKind.FUEL:
        if charge != 0:
            raise ContractViolation(f"truck {truck.id}: fuel trucks cannot charge")
        return truck.arrival_time + wait
    return truck.arrival_time + charge + wait


def soc_after_charge(soc0: float, rate: float, charge: float) -> float:
    """Battery percent after charging linearly for `charge` minutes.

    This is the raw linear model; callers are responsible for capping the
    result at the truck's capacity.
    """
    if charge < 0:
        raise ContractViolation("charge time must be >= 0")
    return soc0 + rate * charge


def soc_after_trip(soc_dep: float, rate: float, distance: float, role_coeff: float) -> float:
    """Battery percent on arrival given the departure SoC and driving role.

    Negative results are legal outputs; safety margins are checked elsewhere.
    """
    return soc_dep - role_coeff * rate * distance


def departure_soc_bounds(truck: TruckSpec, route: RouteParams, role_coeff: float):
    """(lowest, highest) departure SoC admissible for the given driving role.

    The lower bound may exceed the upper one, which signals that the role is
    infeasible for this truck on this route no matter how long it charges.
    """
    if not truck.is_electric:
        raise ContractViolation(f"truck {truck.id}: fuel trucks have no SoC bounds")
    lo = truck.safe_soc + role_coeff * truck.discharge_rate * route.distance
    return lo, truck.max_soc
