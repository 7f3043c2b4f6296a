"""Profit, loss, and utility accounting for candidate platoons.

A platoon departs when its latest member is ready; earlier members spend the
gap charging first (cheaper) and waiting for the remainder. Profit comes from
follower savings only and depends on which kind of truck leads. Utility is
profit minus the charging and waiting cost of every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from .discretize import PreparedTruck
from .model import (
    ContractViolation,
    EconomicParams,
    LEAD_COEFF,
    RouteParams,
    SOC_TOL,
    TIME_TOL,
    TruckKind,
    departure_soc_bounds,
    soc_after_charge,
    soc_after_trip,
)


class LeaderType(Enum):
    ELECTRIC = "E"
    FUEL = "F"


class Role(Enum):
    LEADER = "LEADER"
    FOLLOWER = "FOLLOWER"
    ALONE = "ALONE"


def leader_type_for_kind(kind: TruckKind) -> LeaderType:
    return LeaderType.ELECTRIC if kind is TruckKind.ELECTRIC else LeaderType.FUEL


@dataclass(frozen=True)
class MemberLedger:
    """Per-member schedule entry inside one platoon."""

    truck_id: int
    rank: int
    kind: TruckKind
    role: Role
    charge_time: float           # minutes, 0 for fuel trucks
    wait_time: float             # minutes
    departure_soc: Optional[float]  # percent, None for fuel trucks
    arrival_soc: Optional[float]    # percent, None for fuel trucks
    can_lead: bool               # departure SoC covers the lead-role trip


@dataclass(frozen=True)
class PlatoonAssignment:
    """One scheduled platoon: members, leader, departure, and its money totals."""

    ranks: Tuple[int, ...]
    leader_type: LeaderType
    leader_rank: int
    departure_time: float
    ledger: Tuple[MemberLedger, ...]
    profit: float
    loss: float
    utility: float

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def leader_id(self) -> int:
        for row in self.ledger:
            if row.rank == self.leader_rank:
                return row.truck_id
        raise RuntimeError("leader rank missing from ledger")


def platoon_profit(et_count: int, ft_count: int, leader: LeaderType,
                   econ: EconomicParams) -> float:
    """Total follower savings of a platoon with the given composition and leader."""
    if et_count < 0 or ft_count < 0 or et_count + ft_count < 1:
        raise ContractViolation("platoon needs at least one member")
    if leader is LeaderType.FUEL:
        if ft_count < 1:
            raise ContractViolation("fuel leader requires a fuel truck")
        return econ.ft_follower_profit * (ft_count - 1) + econ.et_follower_profit * et_count
    if et_count < 1:
        raise ContractViolation("electric leader requires an electric truck")
    return econ.ft_follower_profit * ft_count + econ.et_follower_profit * (et_count - 1)


def et_charge_time(member: PreparedTruck, depart_at: float) -> float:
    """Total charge minutes of an ET departing at `depart_at`.

    Fixed policy: after the mandatory charge, keep charging until the battery
    is full or the platoon leaves, whichever comes first; what remains of the
    gap is waiting.
    """
    if not member.is_electric:
        raise ContractViolation(f"truck {member.id}: fuel trucks do not charge")
    if depart_at < member.earliest_departure - TIME_TOL:
        raise ContractViolation(
            f"truck {member.id}: departure {depart_at:.6g} precedes earliest "
            f"departure {member.earliest_departure:.6g}"
        )
    slack = max(0.0, depart_at - member.earliest_departure)
    fill = (member.spec.max_soc - member.min_departure_soc) / member.spec.charge_rate
    return member.min_charge_time + min(fill, slack)


def alone_charge_time(member: PreparedTruck, route: RouteParams) -> float:
    """Charge minutes an ET needs before it may drive the route alone.

    Targets the lead-role SoC bound, capped at a full battery; never below
    the mandatory (follower-level) charge.
    """
    spec = member.spec
    need, cap = departure_soc_bounds(spec, route, LEAD_COEFF)
    target = min(need, cap)
    return max(member.min_charge_time, (target - spec.initial_soc) / spec.charge_rate, 0.0)


def alone_departure(member: PreparedTruck, route: RouteParams) -> float:
    """Earliest instant an ET may depart alone (arrival plus alone-safe charge)."""
    return member.arrival_time + alone_charge_time(member, route)


def evaluate_platoon(members: Sequence[PreparedTruck], leader_type: LeaderType,
                     route: RouteParams, econ: EconomicParams,
                     depart_at: Optional[float] = None) -> PlatoonAssignment:
    """Price a candidate platoon and build its full per-member ledger.

    The platoon departs at `depart_at` (default: the latest member's earliest
    departure). A single ET scheduled on its own is charged up to the
    alone-safe level, postponing its departure if the requested instant comes
    too early for that; grouped members never need this because followers are
    covered by the mandatory charge.

    Leader identity is resolved deterministically: the lowest-rank fuel truck
    for a fuel leader, the lead-capable ET with the highest departure SoC for
    an electric leader (highest overall when none qualifies, leaving the
    feasibility verdict to the caller). Whether an electric leader is actually
    safe is the caller's check; this function only reports the SoC figures.
    """
    members = sorted(members, key=lambda m: m.rank)
    n = len(members)
    if n == 0:
        raise ContractViolation("platoon needs at least one member")
    if n > route.max_platoon_size:
        raise ContractViolation(
            f"platoon of {n} exceeds the size cap {route.max_platoon_size}"
        )

    earliest = max(m.earliest_departure for m in members)
    if depart_at is None:
        depart_at = earliest
    elif depart_at < earliest - TIME_TOL:
        raise ContractViolation(
            f"departure {depart_at:.6g} precedes a member's earliest departure"
        )

    solo = n == 1
    if solo:
        if leader_type is not leader_type_for_kind(members[0].kind):
            raise ContractViolation("solo truck must lead as its own kind")
        if members[0].is_electric:
            depart_at = max(depart_at, alone_departure(members[0], route))
    else:
        kinds = {m.kind for m in members}
        wanted = TruckKind.ELECTRIC if leader_type is LeaderType.ELECTRIC else TruckKind.FUEL
        if wanted not in kinds:
            raise ContractViolation(f"no {wanted.value} member to lead this platoon")

    et_count = sum(1 for m in members if m.is_electric)
    ft_count = n - et_count

    # First pass: charge/wait split and departure SoC, independent of roles.
    charges, waits, dep_socs, leadable = [], [], [], []
    for m in members:
        if m.is_electric:
            charge = et_charge_time(m, depart_at)
            wait = depart_at - m.arrival_time - charge
            dep_soc = min(m.spec.max_soc,
                          soc_after_charge(m.spec.initial_soc, m.spec.charge_rate, charge))
            need, _ = departure_soc_bounds(m.spec, route, LEAD_COEFF)
            can_lead = dep_soc >= need - SOC_TOL
        else:
            charge = 0.0
            wait = depart_at - m.arrival_time
            dep_soc = None
            can_lead = True
        charges.append(charge)
        waits.append(wait)
        dep_socs.append(dep_soc)
        leadable.append(can_lead)

    if solo:
        leader_pos = 0
    elif leader_type is LeaderType.FUEL:
        leader_pos = next(k for k, m in enumerate(members) if not m.is_electric)
    else:
        candidates = [k for k, m in enumerate(members) if m.is_electric and leadable[k]]
        if not candidates:
            candidates = [k for k, m in enumerate(members) if m.is_electric]
        leader_pos = max(candidates, key=lambda k: (dep_socs[k], -members[k].rank))

    ledger = []
    loss = 0.0
    for k, m in enumerate(members):
        if solo:
            role = Role.ALONE
        elif k == leader_pos:
            role = Role.LEADER
        else:
            role = Role.FOLLOWER
        coeff = LEAD_COEFF if role in (Role.LEADER, Role.ALONE) else route.follower_coeff
        if m.is_electric:
            arr_soc = soc_after_trip(dep_socs[k], m.spec.discharge_rate,
                                     route.distance, coeff)
            loss += econ.charge_cost * charges[k] + econ.wait_cost * waits[k]
        else:
            arr_soc = None
            loss += econ.wait_cost * waits[k]
        ledger.append(MemberLedger(
            truck_id=m.id,
            rank=m.rank,
            kind=m.kind,
            role=role,
            charge_time=charges[k],
            wait_time=waits[k],
            departure_soc=dep_socs[k],
            arrival_soc=arr_soc,
            can_lead=leadable[k],
        ))

    profit = 0.0 if solo else platoon_profit(et_count, ft_count, leader_type, econ)
    return PlatoonAssignment(
        ranks=tuple(m.rank for m in members),
        leader_type=leader_type,
        leader_rank=members[leader_pos].rank,
        departure_time=depart_at,
        ledger=tuple(ledger),
        profit=profit,
        loss=loss,
        utility=profit - loss,
    )


def leader_feasible(platoon: PlatoonAssignment, leader: LeaderType) -> bool:
    """Whether some member of an evaluated platoon can take the lead role.

    A fuel leader only needs a fuel member. An electric leader needs a member
    whose departure SoC covers the alone-rate trip plus the safety margin.
    """
    if leader is LeaderType.FUEL:
        return any(row.departure_soc is None for row in platoon.ledger)
    return any(row.departure_soc is not None and row.can_lead for row in platoon.ledger)


def aggregate(platoons: Sequence[PlatoonAssignment],
              n_trucks: Optional[int] = None) -> Tuple[float, float, float]:
    """Fleet totals (profit, loss, utility) of platoons covering each rank once.

    Pass `n_trucks` to additionally reject partitions that drop trailing
    trucks; without it only overlaps and gaps are detectable.
    """
    ranks = sorted(r for p in platoons for r in p.ranks)
    expected = len(ranks) if n_trucks is None else n_trucks
    if ranks != list(range(expected)):
        raise ContractViolation("platoons must cover every rank exactly once")
    profit = sum(p.profit for p in platoons)
    loss = sum(p.loss for p in platoons)
    return profit, loss, profit - loss
