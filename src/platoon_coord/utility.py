"""Profit, loss, and utility accounting for candidate platoons.

A platoon departs when its latest member is ready; earlier members spend the
gap charging first (cheaper) and waiting for the remainder. Profit comes from
follower savings only and depends on which kind of truck leads. Utility is
profit minus the charging and waiting cost of every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate, chain
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .discretize import PreparedFleet
from .kernels import block_departure, block_profit, fleet_arrays, member_terms
from .model import (
    ContractViolation,
    EconomicParams,
    LEAD_COEFF,
    RouteParams,
    SOC_TOL,
    TIME_TOL,
    TruckKind,
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


class MemberLedger(NamedTuple):
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


class PlatoonAssignment(NamedTuple):
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


def evaluate_platoon(ranks: Sequence[int], leader_type: LeaderType, fleet: PreparedFleet,
                     econ: EconomicParams,
                     depart_at: Optional[float] = None) -> PlatoonAssignment:
    """Price a candidate platoon of the trucks at `ranks` of a prepared
    fleet and build its full per-member ledger.

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
    The members' constants (mandatory charge, fill time, lead need, alone
    departure) are the fleet's columns, which hold for its instance's route,
    and the platoon is priced on that route. A rank that is not an int (a
    bool is not), a rank outside the fleet, a rank listed twice or a
    departure that is not finite is a `ContractViolation`.
    """
    route = fleet.instance.route
    ranks = sorted(ranks)
    for r in ranks:  # a plain loop: the cheapest form of this per-call check
        if type(r) is not int:
            raise ContractViolation(f"ranks must be ints, got {tuple(ranks)!r}")
    n = len(ranks)
    if n == 0:
        raise ContractViolation("platoon needs at least one member")
    if n > route.max_platoon_size:
        raise ContractViolation(
            f"platoon of {n} exceeds the size cap {route.max_platoon_size}"
        )
    if len(set(ranks)) < n:
        raise ContractViolation("a rank appears more than once in one platoon")
    # The members' constants by rank, in `FleetArrays` field order.
    (tau, cmin, is_et, fill, rate, need, alone, arrival, init, cap,
     vrate) = fleet.column_lists()
    if ranks[0] < 0 or ranks[-1] >= len(tau):
        raise ContractViolation(
            f"ranks run outside the fleet of {len(tau)} trucks: {ranks[0]} .. {ranks[-1]}")

    earliest = max([tau[r] for r in ranks])
    if depart_at is None:
        depart_at = earliest
    elif not -math.inf < depart_at < math.inf:
        raise ContractViolation(f"departure {depart_at!r} is not finite")
    elif depart_at < earliest - TIME_TOL:
        raise ContractViolation(
            f"departure {depart_at:.6g} precedes a member's earliest departure"
        )

    solo = n == 1
    if solo:
        first = ranks[0]
        if leader_type is not (LeaderType.ELECTRIC if is_et[first] else LeaderType.FUEL):
            raise ContractViolation("solo truck must lead as its own kind")
        if is_et[first]:
            depart_at = max(depart_at, alone[first])
    elif leader_type is LeaderType.ELECTRIC:
        if 1 not in [is_et[r] for r in ranks]:
            raise ContractViolation("no ET member to lead this platoon")
    elif 0 not in [is_et[r] for r in ranks]:
        raise ContractViolation("no FT member to lead this platoon")

    # First pass, in rank order: charge/wait split, departure SoC and the
    # loss, independent of roles. After its mandatory charge an ET keeps
    # charging until its battery is full or the platoon leaves, whichever
    # comes first; what remains of the gap is waiting.
    charge_cost, wait_cost = econ.charge_cost, econ.wait_cost
    terms = []
    et_count = 0
    loss = 0.0
    for r in ranks:
        if is_et[r]:
            et_count += 1
            charge = cmin[r] + min(fill[r], max(0.0, depart_at - tau[r]))
            wait = depart_at - arrival[r] - charge
            dep_soc = soc_after_charge(init[r], rate[r], charge)
            if dep_soc >= cap[r]:  # full
                dep_soc = cap[r]
            terms.append((charge, wait, dep_soc, dep_soc >= need[r] - SOC_TOL))
            loss += charge_cost * charge + wait_cost * wait
        else:
            wait = depart_at - arrival[r]
            terms.append((0.0, wait, None, True))
            loss += wait_cost * wait

    if solo:
        leader_pos = 0
    elif leader_type is LeaderType.FUEL:
        leader_pos = next(k for k, t in enumerate(terms) if t[2] is None)
    else:
        # max keeps the first of equal SoCs: the lowest rank.
        candidates = [k for k, t in enumerate(terms) if t[2] is not None and t[3]]
        if not candidates:
            candidates = [k for k, t in enumerate(terms) if t[2] is not None]
        leader_pos = max(candidates, key=lambda k: terms[k][2])

    ids = fleet.ids
    follower_coeff, distance = route.follower_coeff, route.distance
    ledger = []
    for k, (r, (charge, wait, dep_soc, can_lead)) in enumerate(zip(ranks, terms)):
        if solo:
            role, coeff = Role.ALONE, LEAD_COEFF
        elif k == leader_pos:
            role, coeff = Role.LEADER, LEAD_COEFF
        else:
            role, coeff = Role.FOLLOWER, follower_coeff
        if dep_soc is None:
            kind, arr_soc = TruckKind.FUEL, None
        else:
            kind, arr_soc = TruckKind.ELECTRIC, soc_after_trip(dep_soc, vrate[r], distance, coeff)
        ledger.append(MemberLedger(ids[r], r, kind, role, charge, wait, dep_soc, arr_soc,
                                   can_lead))

    profit = 0.0 if solo else platoon_profit(et_count, n - et_count, leader_type, econ)
    return PlatoonAssignment(tuple(ranks), leader_type, ranks[leader_pos], depart_at,
                             tuple(ledger), profit, loss, profit - loss)


LEADER_BY_CODE = (LeaderType.ELECTRIC, LeaderType.FUEL)
ROLE_BY_CODE = (Role.LEADER, Role.FOLLOWER, Role.ALONE)


@dataclass(frozen=True)
class PlatoonTable:
    """Scheduled platoons as columns: the form a `Solution` holds.

    Block columns hold one entry per platoon, in `departure_order`, which
    both constructors (`price_platoons` and `from_records`) deliver. Member
    columns hold one entry per member, platoon after platoon in block order
    and by rank within a platoon, so platoon b's members sit at `start[b]`
    .. `start[b] + size[b] - 1`. Each value is the object it was computed
    as: a float of numpy's `.tolist()`, or a record's own field, so a writer
    renders a table as it would render the records. The SoC columns are
    read only where `fuel` is False.
    """

    # one entry per platoon
    start: Sequence[int]
    size: Sequence[int]
    leader: Sequence[int]       # 0 electric, 1 fuel (`LEADER_BY_CODE`)
    leader_pos: Sequence[int]   # the leader's place among the platoon's members
    departure: Sequence[float]
    profit: Sequence[float]
    loss: Sequence[float]
    # one entry per member
    rank: Sequence[int]
    truck_id: Sequence
    role: Sequence[int]         # 0 leader, 1 follower, 2 alone (`ROLE_BY_CODE`)
    charge: Sequence[float]
    wait: Sequence[float]
    departure_soc: Sequence[float]
    arrival_soc: Sequence[float]
    can_lead: Sequence[bool]
    fuel: Sequence[bool]

    def __len__(self) -> int:
        return len(self.size)

    @classmethod
    def from_records(cls, platoons: Sequence[PlatoonAssignment]) -> "PlatoonTable":
        """The table of these records, given in any order, in `departure_order`:
        one transposition of the ordered platoons and one of their ledgers."""
        if not platoons:
            return cls(*([] for _ in fields(cls)))
        try:
            first_rank = [p.ranks[0] for p in platoons]
        except IndexError:
            raise ContractViolation("platoon needs at least one member") from None
        order = departure_order([p.departure_time for p in platoons], first_rank).tolist()
        (ranks, leader_types, leader_ranks, departure, ledgers, profit, loss,
         _) = zip(*[platoons[k] for k in order])
        size = list(map(len, ledgers))
        if 0 in size:
            raise ContractViolation("platoon needs at least one member")
        (truck_id, rank, kind, role, charge, wait, departure_soc, arrival_soc,
         can_lead) = zip(*chain.from_iterable(ledgers))
        fuel_kind = TruckKind.FUEL
        return cls(
            start=list(accumulate(size[:-1], initial=0)),
            size=size,
            leader=list(map(LEADER_BY_CODE.index, leader_types)),
            leader_pos=[r.index(lead) for r, lead in zip(ranks, leader_ranks)],
            departure=departure,
            profit=profit,
            loss=loss,
            rank=rank,
            truck_id=truck_id,
            role=list(map(ROLE_BY_CODE.index, role)),
            charge=charge,
            wait=wait,
            departure_soc=departure_soc,
            arrival_soc=arrival_soc,
            can_lead=can_lead,
            fuel=[k is fuel_kind for k in kind],
        )

    def records(self) -> List[PlatoonAssignment]:
        """The platoons as records, built positionally from the columns."""
        fuel, rank = self.fuel, self.rank
        kinds = (TruckKind.ELECTRIC, TruckKind.FUEL)
        ledger = list(map(
            MemberLedger,
            self.truck_id,
            rank,
            map(kinds.__getitem__, fuel),
            map(ROLE_BY_CODE.__getitem__, self.role),
            self.charge,
            self.wait,
            [None if f else soc for f, soc in zip(fuel, self.departure_soc)],
            [None if f else soc for f, soc in zip(fuel, self.arrival_soc)],
            self.can_lead,
        ))
        return [
            PlatoonAssignment(tuple(rank[s:s + n]), LEADER_BY_CODE[code], rank[s + lp],
                              dep, tuple(ledger[s:s + n]), pr, lo, pr - lo)
            for s, n, code, lp, dep, pr, lo in zip(
                self.start, self.size, self.leader, self.leader_pos, self.departure,
                self.profit, self.loss)
        ]


def price_platoons(prepared: PreparedFleet, starts, sizes, leaders, route: RouteParams,
                   econ: EconomicParams) -> PlatoonTable:
    """Price many consecutive platoons at once from the fleet's columns.

    Block b holds ranks `starts[b]` .. `starts[b] + sizes[b] - 1` and is led
    by the kind `leaders[b]` (0 electric, 1 fuel); it departs at
    `kernels.block_departure`. `prepared` is the fleet `prepare_fleet`
    returns, sorted by earliest departure, so a block's last member is its
    latest; its columns come from `kernels.fleet_arrays`, which refuses a
    route other than the fleet's. The blocks may come in any order; the
    table holds them in `departure_order`, the order a `Solution` holds.
    Each of its records equals, field for field, what `evaluate_platoon`
    returns for the same members and leader kind: the numpy expressions
    repeat its scalar arithmetic operation for operation, and each loss is
    summed in rank order from 0.0 as it does.
    """
    arr = fleet_arrays(prepared, route)
    starts, sizes, leaders = np.asarray(starts), np.asarray(sizes), np.asarray(leaders)
    if starts.ndim != 1 or not starts.shape == sizes.shape == leaders.shape:
        raise ContractViolation(
            f"starts, sizes and leaders must be one list each, of one length; got "
            f"shapes {starts.shape}, {sizes.shape} and {leaders.shape}")
    if starts.size == 0:
        return PlatoonTable.from_records([])
    if starts.dtype.kind not in "iu" or sizes.dtype.kind not in "iu":
        raise ContractViolation(
            f"block starts and sizes must be integers, got {starts.dtype} and {sizes.dtype}")
    if not ((leaders == 0) | (leaders == 1)).all():
        raise ContractViolation("leader codes must be 0 (electric) or 1 (fuel)")
    starts, sizes = starts.astype(np.intp), sizes.astype(np.intp)
    if sizes.min() < 1:
        raise ContractViolation("platoon needs at least one member")
    if sizes.max() > route.max_platoon_size:
        raise ContractViolation(
            f"platoon of {sizes.max()} exceeds the size cap {route.max_platoon_size}"
        )
    if starts.min() < 0 or (starts + sizes).max() > arr.size:
        raise ContractViolation("platoon ranks run outside the fleet")
    depart = block_departure(arr, starts, sizes)
    order = departure_order(depart, starts)
    starts, sizes, depart = starts[order], sizes[order], depart[order]
    fuel_led = leaders[order] == 1

    # One entry per member, blocks back to back: `block` names the platoon,
    # `pos` the member's place in it, `idx` its rank.
    offsets = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(sizes.size), sizes)
    pos = np.arange(block.size) - offsets[block]
    idx = starts[block] + pos
    et = arr.is_et[idx].astype(bool)
    et_count = np.add.reduceat(et.astype(np.intp), offsets)
    ft_count = sizes - et_count
    solo = sizes == 1
    if (solo & (fuel_led == et[offsets])).any():
        raise ContractViolation("solo truck must lead as its own kind")
    if (np.where(fuel_led, ft_count, et_count) < 1).any():
        raise ContractViolation("no member of the leader's kind to lead this platoon")

    charge, wait, dep_soc, can_lead = member_terms(arr, idx, depart[block])

    # Leader: the first eligible member of the block's top score. A
    # fuel-led block's fuel trucks are eligible and all score 0.0, so the
    # first of them leads; an electric-led block's ETs that can lead are
    # eligible (all its ETs when none can), scored by departure SoC. Every
    # block has an eligible member, so its top score is finite and only
    # eligible members reach it; a solo block's is its one member.
    fuel_member = fuel_led[block]
    leadable = et & can_lead
    eligible = np.where(fuel_member, ~et, np.where(
        np.logical_or.reduceat(leadable, offsets)[block], leadable, et))
    score = np.where(eligible, np.where(fuel_member, 0.0, dep_soc), -np.inf)
    top = score == np.maximum.reduceat(score, offsets)[block]
    leader_pos = np.minimum.reduceat(np.where(top, pos, np.iinfo(np.intp).max), offsets)

    leads = pos == leader_pos[block]
    coeff = np.where(leads, LEAD_COEFF, route.follower_coeff)
    arr_soc = dep_soc - coeff * arr.vrate[idx] * route.distance
    role = np.where(solo[block], 2, np.where(leads, 0, 1))

    # Row b of the grid is 0.0, then block b's member costs by rank, then 0.0
    # padding: a sequential running sum along it adds in the scalar sum's
    # order from 0.0, and the padding leaves the total as it is.
    cost = econ.charge_cost * charge + econ.wait_cost * wait  # charge is 0 for FTs
    grid = np.zeros((sizes.size, int(sizes.max()) + 1))
    grid[block, pos + 1] = cost
    loss = np.add.accumulate(grid, axis=1)[:, -1]
    profit = block_profit(econ, et_count, ft_count, fuel_led)

    ranks = idx.tolist()
    truck_ids = prepared.ids
    return PlatoonTable(
        start=offsets.tolist(),
        size=sizes.tolist(),
        leader=fuel_led.astype(np.intp).tolist(),
        leader_pos=leader_pos.tolist(),
        departure=depart.tolist(),
        profit=profit.tolist(),
        loss=loss.tolist(),
        rank=ranks,
        truck_id=list(map(truck_ids.__getitem__, ranks)),
        role=role.tolist(),
        charge=charge.tolist(),
        wait=wait.tolist(),
        departure_soc=dep_soc.tolist(),
        arrival_soc=arr_soc.tolist(),
        can_lead=can_lead.tolist(),
        fuel=(~et).tolist(),
    )


def departure_order(departure: Sequence[float], first_rank: Sequence[int]) -> np.ndarray:
    """Positions of the platoons in (departure, first rank) order, the order
    a `PlatoonTable` is built in and a `Solution` holds."""
    return np.lexsort((first_rank, departure))


def leader_feasible(platoon: PlatoonAssignment, leader: LeaderType) -> bool:
    """Whether some member of an evaluated platoon can take the lead role.

    A fuel leader only needs a fuel member. An electric leader needs a member
    whose departure SoC covers the alone-rate trip plus the safety margin.
    """
    if leader is LeaderType.FUEL:
        return any(row.departure_soc is None for row in platoon.ledger)
    return any(row.departure_soc is not None and row.can_lead for row in platoon.ledger)


def check_cover(ranks: Sequence[int], n_trucks: Optional[int] = None) -> None:
    """Raise unless the platoons' member ranks cover 0 .. n_trucks - 1 (all
    their own ranks by default) exactly once."""
    expected = len(ranks) if n_trucks is None else n_trucks
    if sorted(ranks) != list(range(expected)):
        raise ContractViolation("platoons must cover every rank exactly once")


def aggregate(platoons: Sequence[PlatoonAssignment],
              n_trucks: Optional[int] = None) -> Tuple[float, float, float]:
    """Fleet totals (profit, loss, utility) of platoons covering each rank once.

    Pass `n_trucks` to additionally reject partitions that drop trailing
    trucks; without it only overlaps and gaps are detectable.
    """
    check_cover([r for p in platoons for r in p.ranks], n_trucks)
    profit = ordered_sum(p.profit for p in platoons)
    loss = ordered_sum(p.loss for p in platoons)
    return profit, loss, profit - loss


def ordered_sum(values) -> float:
    """`values` added one after the other from 0.0, the same float on every
    Python: the built-in `sum` compensates its float additions from 3.12 on,
    so its last bits depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total
