"""Candidate departure times: mandatory charging and fleet ordering.

Every ET is charged at least enough to finish the trip in the cheapest role
(as a platoon follower). Its earliest departure is the arrival time plus that
mandatory charge; fuel trucks can leave the moment they arrive. Sorting the
fleet by earliest departure yields the ordered candidate instants that the
downstream solvers search over.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .model import (
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    ProblemInstance,
    RouteParams,
    SOC_TOL,
    TIME_TOL,
    TruckKind,
    TruckSpec,
    soc_after_charge,
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


def min_charge_time(truck: TruckSpec, route: RouteParams) -> float:
    """Minutes of charging needed before the truck could follow safely.

    Zero when the arrival SoC already covers a follower trip plus the safety
    margin. Raises InfeasibleTruckError when even a full battery would not.
    """
    if not truck.is_electric:
        raise ContractViolation(f"truck {truck.id}: fuel trucks do not charge")
    required = truck.safe_soc + route.follower_coeff * truck.discharge_rate * route.distance
    if required - truck.max_soc > SOC_TOL:
        raise InfeasibleTruckError(
            truck.id,
            f"needs departure SoC {required:.6g}% to follow safely but capacity "
            f"is {truck.max_soc:.6g}%",
        )
    return max(0.0, (required - truck.initial_soc) / truck.charge_rate)


def prepare_fleet(instance: ProblemInstance) -> List[PreparedTruck]:
    """Attach mandatory-charge data to every truck and order the fleet.

    Trucks are sorted by earliest departure, ties broken by ascending id so
    repeated runs give identical ranks. A truck whose mandatory charge alone
    pushes it past the planning horizon is rejected outright rather than
    silently scheduled late.
    """
    rows = []
    for truck in instance.trucks:
        if truck.is_electric:
            charge = min_charge_time(truck, instance.route)
            dep_soc = soc_after_charge(truck.initial_soc, truck.charge_rate, charge)
            earliest = truck.arrival_time + charge
        else:
            charge = 0.0
            dep_soc = None
            earliest = truck.arrival_time
        if earliest > instance.route.horizon + TIME_TOL:
            raise HorizonExceededError(truck.id, earliest, instance.route.horizon)
        rows.append((truck, charge, dep_soc, earliest))

    rows.sort(key=lambda r: (r[3], r[0].id))
    return [
        PreparedTruck(
            spec=truck,
            min_charge_time=charge,
            min_departure_soc=dep_soc,
            earliest_departure=earliest,
            rank=rank,
        )
        for rank, (truck, charge, dep_soc, earliest) in enumerate(rows)
    ]
