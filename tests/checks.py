"""Shared validators used by solver tests and the acceptance suite, and the
scalar references they check the package against."""

from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from platoon_coord import LeaderType, Role, aggregate, kernels
from platoon_coord.kernels import block_departure, block_profit, fleet_arrays, member_terms
from platoon_coord.model import (
    LEAD_COEFF,
    MONEY_TOL,
    SOC_TOL,
    TIME_TOL,
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    TruckKind,
    TruckSpec,
    departure_soc_bounds,
    soc_after_charge,
    soc_after_trip,
)
from platoon_coord.utility import MemberLedger, PlatoonAssignment, platoon_profit


def leader_type_for_kind(kind: TruckKind) -> LeaderType:
    return LeaderType.ELECTRIC if kind is TruckKind.ELECTRIC else LeaderType.FUEL


def in_departure_order(platoons):
    """Platoon records in the order a `Solution` holds them: by departure,
    then first rank, equal keys kept in the given order."""
    return sorted(platoons, key=lambda p: (p.departure_time, p.ranks[0]))


class PreparedTruck(NamedTuple):
    """A truck with its mandatory-charge schedule, sort rank and the other
    per-truck constants that pricing reads, each from its scalar formula
    (`reference_prepare_fleet`). The SoC figures and `fill_time` are None
    for fuel trucks."""

    spec: TruckSpec
    min_charge_time: float                 # minutes, 0 for fuel trucks
    min_departure_soc: Optional[float]     # percent, None for fuel trucks
    earliest_departure: float              # minutes
    rank: int                              # position after sorting, 0-based
    fill_time: Optional[float]             # minutes to full from min_departure_soc
    lead_need: Optional[float]             # departure SoC to lead or drive alone
    alone_departure: float                 # minutes, its departure as a lone truck

    @property
    def id(self):
        return self.spec.id

    @property
    def kind(self) -> TruckKind:
        return self.spec.kind

    @property
    def is_electric(self) -> bool:
        return self.spec.is_electric

    @property
    def arrival_time(self):
        return self.spec.arrival_time


def assert_solution_valid(solution, prepared, route, consecutive=True):
    """Partition exactness, SoC safety, horizon, and money consistency."""
    by_rank = {m.rank: m for m in reference_prepare_fleet(prepared.instance)}

    ranks = sorted(r for p in solution.platoons for r in p.ranks)
    assert ranks == list(range(len(prepared))), "fleet partition is not exact"

    profit, loss, utility = aggregate(solution.platoons)
    assert abs(solution.profit - profit) <= MONEY_TOL
    assert abs(solution.loss - loss) <= MONEY_TOL
    assert abs(solution.utility - utility) <= MONEY_TOL
    assert abs(solution.utility - (solution.profit - solution.loss)) <= MONEY_TOL

    last_depart = None
    for p in solution.platoons:
        assert 1 <= p.size <= route.max_platoon_size
        if consecutive:
            assert list(p.ranks) == list(range(p.ranks[0], p.ranks[-1] + 1))
        assert abs(p.utility - (p.profit - p.loss)) <= MONEY_TOL
        assert p.leader_rank in p.ranks
        if last_depart is not None:
            assert p.departure_time >= last_depart - TIME_TOL
        last_depart = p.departure_time
        if not solution.diagnostics.horizon_violation:
            assert p.departure_time <= route.horizon + TIME_TOL
        for row in p.ledger:
            member = by_rank[row.rank]
            assert row.wait_time >= -TIME_TOL
            assert row.charge_time >= -TIME_TOL
            assert p.departure_time >= member.earliest_departure - TIME_TOL
            if row.departure_soc is None:
                continue
            assert row.arrival_soc >= member.spec.safe_soc - SOC_TOL, (
                f"truck {row.truck_id} arrives at {row.arrival_soc} "
                f"below its safety floor"
            )
            if row.role in (Role.LEADER, Role.ALONE):
                assert p.leader_type is LeaderType.ELECTRIC or row.role is Role.ALONE


# The per-truck constants written as scalar formulas, one record at a time:
# the reference that `prepare_fleet`'s columns are checked against.
def reference_min_charge_time(truck, route):
    """Minutes of charging an ET needs before it could follow safely: zero
    when its arrival SoC already covers a follower trip plus the safety
    margin, `InfeasibleTruckError` when even a full battery would not."""
    required = truck.safe_soc + route.follower_coeff * truck.discharge_rate * route.distance
    if required - truck.max_soc > SOC_TOL:
        raise InfeasibleTruckError(
            truck.id,
            f"needs departure SoC {required:.6g}% to follow safely but capacity "
            f"is {truck.max_soc:.6g}%",
        )
    return max(0.0, (required - truck.initial_soc) / truck.charge_rate)


def reference_prepare_fleet(instance):
    """The records of `prepare_fleet`'s fleet by the scalar loop: one truck
    at a time, then one sort by (earliest, id), with every earliest
    departure a float. An ET's fill time, lead need and alone departure
    come from the scalar formulas of `departure_soc_bounds` and
    `alone_departure`; a fuel truck has none of the first two and leaves
    alone when it is ready."""
    route = instance.route
    rows = []
    for truck in instance.trucks:
        if truck.is_electric:
            charge = reference_min_charge_time(truck, route)
            dep_soc = soc_after_charge(truck.initial_soc, truck.charge_rate, charge)
            earliest = float(truck.arrival_time + charge)
        else:
            charge = 0.0
            dep_soc = None
            earliest = float(truck.arrival_time)
        if earliest > route.horizon + TIME_TOL:
            raise HorizonExceededError(truck.id, earliest, route.horizon)
        rows.append((truck, charge, dep_soc, earliest))

    rows.sort(key=lambda r: (r[3], r[0].id))
    records = []
    for rank, (truck, charge, dep_soc, earliest) in enumerate(rows):
        record = PreparedTruck(spec=truck, min_charge_time=charge, min_departure_soc=dep_soc,
                               earliest_departure=earliest, rank=rank, fill_time=None,
                               lead_need=None, alone_departure=earliest)
        if truck.is_electric:
            record = record._replace(
                fill_time=(truck.max_soc - dep_soc) / truck.charge_rate,
                lead_need=departure_soc_bounds(truck, route, LEAD_COEFF)[0],
                alone_departure=alone_departure(record, route))
        records.append(record)
    return records


def et_charge_time(member, depart_at):
    """Total charge minutes of an ET departing at `depart_at`.

    Fixed policy: after the mandatory charge, keep charging until the battery
    is full or the platoon leaves, whichever comes first; what remains of the
    gap is waiting.
    """
    spec, min_charge, min_soc, earliest, *_ = member
    if spec.kind is not TruckKind.ELECTRIC:
        raise ContractViolation(f"truck {spec.id}: fuel trucks do not charge")
    if depart_at < earliest - TIME_TOL:
        raise ContractViolation(
            f"truck {spec.id}: departure {depart_at:.6g} precedes earliest "
            f"departure {earliest:.6g}"
        )
    slack = max(0.0, depart_at - earliest)
    fill = (spec.max_soc - min_soc) / spec.charge_rate
    return min_charge + min(fill, slack)


def alone_charge_time(member, route):
    """Charge minutes an ET needs before it may drive the route alone.

    Targets the lead-role SoC bound, capped at a full battery; never below
    the mandatory (follower-level) charge.
    """
    spec = member.spec
    need, cap = departure_soc_bounds(spec, route, LEAD_COEFF)
    target = min(need, cap)
    return max(member.min_charge_time, (target - spec.initial_soc) / spec.charge_rate, 0.0)


def alone_departure(member, route):
    """Earliest instant an ET may depart alone (arrival plus alone-safe charge)."""
    return member.arrival_time + alone_charge_time(member, route)


def _scalar_columns(m, route):
    """The `fleet_arrays` entries of one truck, from the scalar formulas."""
    if not m.is_electric:
        zero = dict.fromkeys(("tau_cmin", "fill_time", "rate", "need_lead",
                              "init_soc", "max_soc", "vrate"), 0.0)
        return dict(zero, tau_delta=m.earliest_departure, is_et=0,
                    alone_depart=m.earliest_departure, arrival=m.arrival_time)
    spec = m.spec
    need, _ = departure_soc_bounds(spec, route, LEAD_COEFF)
    return dict(
        tau_delta=m.earliest_departure,
        tau_cmin=m.min_charge_time,
        is_et=1,
        fill_time=(spec.max_soc - m.min_departure_soc) / spec.charge_rate,
        rate=spec.charge_rate,
        need_lead=need,
        alone_depart=alone_departure(m, route),
        arrival=m.arrival_time,
        init_soc=spec.initial_soc,
        max_soc=spec.max_soc,
        vrate=spec.discharge_rate,
    )


def assert_fleet_arrays_match_scalar(fleet, route, records=None):
    """Every `fleet_arrays` column of a prepared fleet equals, bit for bit,
    its scalar formula over `records` (by default `reference_prepare_fleet`
    of the fleet's instance). A float64 column holds `float(value)` of a
    field given as an int or a numpy float."""
    columns = vars(fleet_arrays(fleet, route))
    for name, col in columns.items():
        assert isinstance(col, np.ndarray) and col.shape == (len(fleet),), name
    # A lone truck's departure is never before its earliest departure, so
    # the later of the two is `alone_depart` itself, byte for byte.
    tau_delta, alone_depart = columns["tau_delta"], columns["alone_depart"]
    assert np.maximum(tau_delta, alone_depart).tobytes() == alone_depart.tobytes()
    for m in reference_prepare_fleet(fleet.instance) if records is None else records:
        scalar = _scalar_columns(m, route)
        assert set(scalar) == set(columns)
        for name, value in scalar.items():
            got = columns[name][m.rank].item()
            value = type(got)(value)
            assert got == value and repr(got) == repr(value), (name, m.rank)


# The scalar pricing written plainly, one generator pass and one keyword
# record at a time: the reference that `utility.evaluate_platoon`, the
# baselines and `utility.price_platoons` are checked against.
def reference_evaluate_platoon(members, leader_type, route, econ, depart_at=None):
    """Price a candidate platoon of `PreparedTruck` records
    (`reference_prepare_fleet`) and build its full per-member ledger.

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
            dep_soc = min(float(m.spec.max_soc),
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


def reference_value_recursion(utility, nbar):
    """The value recursion as one plain loop over the rows of the whole
    candidate table (`reference_candidate_table` over every row): the
    reference that `kernels.run_dp_kernel` is checked against. Returns the
    value of each prefix length and the winning column per prefix (-1 when
    no candidate has a finite value)."""
    n = len(utility)
    values = [0.0] * (n + 1)
    best_k = [-1] * (n + 1)
    neg_inf = -np.inf
    for i, row in enumerate(utility.tolist(), start=1):
        best, pick = neg_inf, -1
        for k in range(min(i, nbar)):
            u = values[i - 1 - k] + row[k]
            if u > best:  # strict: the smaller platoon wins a tie
                best, pick = u, k
        values[i] = best
        best_k[i] = pick
    return np.array(values), np.array(best_k)


def reference_list_kernel(arr, econ, nbar, horizon, draw=None):
    """`kernels.run_dp_kernel` with its outputs kept as Python lists: the
    recursion appends every prefix's value and pick to one list each, each
    block turns its picks into an array for its choices, the return turns
    both lists into arrays again, and `updates` sums each block's work
    through a window view of the finite-prefix mask. The same candidate
    table and generated recursion, so what it checks is the bookkeeping
    around them: preallocated arrays filled a block at a time, and `updates`
    as the block's work less that of cells extending a prefix that is not
    finite."""
    n = arr.size
    recurse = kernels._value_recursion(nbar)
    values, picks = [0.0], [-1]
    choice_m = np.full(n + 1, -1, np.int8)
    updates = 0
    for lo in range(0, n, kernels.CHUNK_ROWS):
        hi = min(lo + kernels.CHUNK_ROWS, n)
        utility, leader, work = kernels._candidate_table(arr, econ, nbar, horizon, draw, lo, hi)
        window = values[:-nbar - 1:-1]  # the last nbar values, the latest first
        recurse(utility.tolist(), window + [-np.inf] * (nbar - len(window)),
                values, picks)

        pick = np.array(picks[lo + 1:])
        found = np.flatnonzero(pick >= 0)
        choice_m[lo + 1 + found] = leader[found, pick[found]]
        # Cell (r, k) extends prefix r - k, so row r - lo of the windows over
        # prefixes lo - nbar + 1 .. hi - 1, read backwards, says which cells
        # count. Prefixes before the first truck pad as not finite.
        pad = max(nbar - 1 - lo, 0)
        finite = np.zeros(hi - lo + nbar - 1, bool)
        finite[pad:] = np.isfinite(values[lo - nbar + 1 + pad:hi])
        updates += int(work.sum(where=sliding_window_view(finite, nbar)[:, ::-1]))

    return np.array(values), np.array(picks) + 1, choice_m, updates


def reference_candidate_table(arr, econ, nbar, horizon, mode, bits, lo, hi):
    """The candidate table of rows `lo` .. `hi` - 1 in one vectorised pass
    over an index grid: the reference that `kernels._candidate_table`, which
    builds it one platoon size at a time, is checked against.

    Row r - lo, column k is the platoon of trucks r - k .. r. Returns the
    utility of each candidate under its leader kind (-inf when no kind is
    safe or the block runs past the first truck), that kind as a code (0
    electric, 1 fuel), the work each candidate adds to the `updates`
    counter, and the prefix length each candidate extends.
    """
    ew, ec = econ.wait_cost, econ.charge_cost
    k = np.arange(nbar)
    rows = np.arange(lo, hi)
    idx = rows[:, None] - k[None, :]
    valid = idx >= 0
    idxc = np.where(valid, idx, 0)

    charge, wait, _, can_lead = member_terms(arr, idxc, arr.tau_delta[lo:hi, None])
    cum_loss = np.cumsum(np.where(valid, ec * charge + ew * wait, 0.0), axis=1)
    etw = arr.is_et[idxc].astype(bool) & valid
    et_cnt = np.cumsum(etw, axis=1)
    lead_ok = np.logical_or.accumulate(etw & can_lead, axis=1)

    # The profit depends only on (size, ET count): price that grid once and
    # gather it, the same `block_profit` on the same integers.
    ets = np.arange(nbar + 1)[None, :]
    fts = np.arange(1, nbar + 1)[:, None] - ets
    cell = k[None, :] * (nbar + 1) + et_cnt
    j_e = block_profit(econ, ets, fts, False).ravel()[cell] - cum_loss
    j_f = block_profit(econ, ets, fts, True).ravel()[cell] - cum_loss
    val_e = valid & lead_ok
    val_f = valid & (et_cnt <= k)  # at least one fuel truck

    # Size-1 candidates leave at the solo departure: an ET's alone-safe one,
    # when later. Column 0 above stays priced at the row's own departure,
    # since every larger block sums it.
    ready = arr.tau_delta[lo:hi]
    t0 = np.where(arr.is_et[lo:hi] == 1, np.maximum(ready, arr.alone_depart[lo:hi]), ready)
    charge, wait, _, can_lead = member_terms(arr, rows, t0)
    j_e[:, 0] = 0.0 - (ec * charge + ew * wait)
    val_e[:, 0] = (arr.is_et[lo:hi] == 1) & can_lead & (t0 <= horizon + TIME_TOL)

    if mode == 0:
        pick_e = val_e & (~val_f | (j_e >= j_f))
        work = val_e.astype(np.int8) + val_f
    else:
        pick_e = val_e & (~val_f | (bits[lo + 1:hi + 1, 1:nbar + 1] == 1))
        work = val_e | val_f
    utility = np.where(pick_e, j_e, np.where(val_f, j_f, -np.inf))
    leader = np.where(pick_e, 0, 1).astype(np.int8)
    return utility, leader, work, idxc
