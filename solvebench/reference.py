"""Independent reference for the benchmark's correctness checks.

Everything here is written from the method's statement and reads only the raw
truck, route and price fields of an instance. It imports nothing from the
solver package, so a fault in `utility`, `kernels` or `dp` cannot hide by also
being in the check:

- mandatory charge: enough for the truck to follow safely, zero if it already can;
- charge before wait: a member charges until its battery is full or the
  platoon leaves, and waits for what remains;
- a solo ET first charges to the alone-safe level (lead rate, capped at a full
  battery), postponing its departure if needed; in the value recursion it
  must still leave within the horizon;
- an ET may lead only if its departure SoC covers the lead-rate trip;
- the consecutive-block recursion runs over the fleet ordered by earliest
  departure (ties by id), in O(N * nbar) with an incremental block loss.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

SOC_TOL = 1e-9   # percent points, the slack the method statement allows
TIME_TOL = 1e-9  # minutes
# Per-member figures use the same formulas as the statement and are compared
# tightly; totals sum up to 1e5 members, so they get a relative tolerance.
MEMBER_TOL = 1e-7
REL_MONEY_TOL = 1e-9
MAX_PROBLEMS = 5


@dataclass
class Row:
    id: int
    role: str                  # LEADER, FOLLOWER or ALONE
    charge: float
    wait: float
    soc_dep: Optional[float]
    soc_arr: Optional[float]


@dataclass
class Platoon:
    members: Tuple[int, ...]
    leader_type: str           # "E" or "F"
    leader_id: int
    depart: float
    rows: List[Row]


@dataclass
class Schedule:
    """A solver's output reduced to plain values, from an object or a file."""

    platoons: List[Platoon]
    profit: float
    loss: float
    utility: float
    dp_updates: Optional[int]
    dp_value: Optional[float]
    horizon_violation: bool


class Truck:
    """Raw fields of one truck plus what the method statement derives from them."""

    __slots__ = ("id", "et", "arrival", "soc0", "rate", "vrate", "safe", "cap",
                 "cmin", "earliest", "fill", "need_lead", "alone_charge", "pos")

    def __init__(self, spec, route):
        self.id = spec.id
        self.et = spec.kind.value == "ET"
        self.arrival = spec.arrival_time
        self.pos = -1
        if not self.et:
            self.earliest = self.arrival
            return
        self.soc0 = spec.initial_soc
        self.rate = spec.charge_rate
        self.vrate = spec.discharge_rate
        self.safe = spec.safe_soc
        self.cap = spec.max_soc
        follow_need = self.safe + route.follower_coeff * self.vrate * route.distance
        self.cmin = max(0.0, (follow_need - self.soc0) / self.rate)
        self.earliest = self.arrival + self.cmin
        self.fill = (self.cap - (self.soc0 + self.rate * self.cmin)) / self.rate
        self.need_lead = self.safe + self.vrate * route.distance
        target = min(self.need_lead, self.cap)
        self.alone_charge = max(self.cmin, (target - self.soc0) / self.rate, 0.0)


class Fleet:
    """An instance seen through the reference: trucks by id and in search order."""

    def __init__(self, instance):
        route, econ = instance.route, instance.econ
        self.distance = route.distance
        self.horizon = route.horizon
        self.nbar = route.max_platoon_size
        self.beta = route.follower_coeff
        self.ew = econ.wait_cost
        self.ec = econ.charge_cost
        self.xi_e = econ.et_follower_profit
        self.xi_f = econ.ft_follower_profit
        self.order = sorted((Truck(t, route) for t in instance.trucks),
                            key=lambda t: (t.earliest, t.id))
        for pos, t in enumerate(self.order):
            t.pos = pos
        self.by_id = {t.id: t for t in self.order}

    def member(self, t, depart):
        """(charge, wait, departure SoC or None) of truck `t` leaving at `depart`."""
        if not t.et:
            return 0.0, depart - t.arrival, None
        charge = t.cmin + min(t.fill, max(0.0, depart - t.earliest))
        return charge, depart - t.arrival - charge, min(t.cap, t.soc0 + t.rate * charge)

    def profit(self, n_et, n_ft, leader):
        """Follower savings: everyone but the leader earns their kind's saving."""
        if n_et + n_ft == 1:
            return 0.0
        if leader == "F":
            return self.xi_f * (n_ft - 1) + self.xi_e * n_et
        return self.xi_f * n_ft + self.xi_e * (n_et - 1)

    def departure(self, members, nominal):
        """A solo ET leaves no earlier than its alone-safe charge allows."""
        if len(members) == 1 and members[0].et:
            t = members[0]
            return max(nominal, t.arrival + t.alone_charge)
        return nominal

    def can_lead(self, t, dep_soc):
        return dep_soc >= t.need_lead - SOC_TOL

    def consecutive_optimum(self):
        """Best J over consecutive blocks of the search order, with the better
        safe leader kind per block; -inf when no safe schedule exists."""
        order, nbar, ew, ec = self.order, self.nbar, self.ew, self.ec
        best = [0.0] + [-math.inf] * len(order)
        for i in range(1, len(order) + 1):
            depart = order[i - 1].earliest
            loss = 0.0
            n_et = 0
            et_leads = False
            top = -math.inf
            for size in range(1, min(i, nbar) + 1):
                t = order[i - size]
                charge, wait, dep_soc = self.member(t, depart)
                loss += ec * charge + ew * wait
                if t.et:
                    n_et += 1
                    et_leads = et_leads or self.can_lead(t, dep_soc)
                prev = best[i - size]
                if prev == -math.inf:
                    continue
                if size == 1:
                    top = max(top, prev + self._solo_value(t))
                    continue
                n_ft = size - n_et
                if et_leads:
                    top = max(top, prev + self.profit(n_et, n_ft, "E") - loss)
                if n_ft:
                    top = max(top, prev + self.profit(n_et, n_ft, "F") - loss)
            best[i] = top
        return best[-1]

    def _solo_value(self, t):
        if not t.et:
            return 0.0
        depart = self.departure([t], t.earliest)
        charge, wait, dep_soc = self.member(t, depart)
        if not self.can_lead(t, dep_soc) or depart > self.horizon + TIME_TOL:
            return -math.inf
        return -(self.ec * charge + self.ew * wait)


def money_tol(*magnitudes):
    return REL_MONEY_TOL * (1.0 + sum(abs(m) for m in magnitudes))


def _close(a, b, tol=MEMBER_TOL):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def check_schedule(fleet: Fleet, sched: Schedule, rule: str,
                   interval: Optional[float] = None):
    """Re-price a schedule from the raw truck fields and check the method's
    guarantees. `rule` names how a platoon's nominal departure is set: "dp"
    (when its last member is ready, consecutive members), "spontaneous"
    (members tied on readiness) or "fixed-interval" (a common slot end).

    Returns (problems, re-priced J).
    """
    problems = []

    def bad(msg):
        if len(problems) < MAX_PROBLEMS:
            problems.append(msg)

    seen = set()
    profit_sum = loss_sum = 0.0
    for k, p in enumerate(sched.platoons):
        tag = f"platoon {k}"
        members = [fleet.by_id.get(i) for i in p.members]
        if None in members:
            bad(f"{tag}: unknown truck id")
            continue
        if seen.intersection(p.members) or len(set(p.members)) != len(p.members):
            bad(f"{tag}: a truck is scheduled twice")
        seen.update(p.members)
        n = len(members)
        if not 1 <= n <= fleet.nbar:
            bad(f"{tag}: size {n} outside [1, {fleet.nbar}]")
        if rule == "dp":
            pos = sorted(t.pos for t in members)
            if pos != list(range(pos[0], pos[0] + n)):
                bad(f"{tag}: members are not consecutive in readiness order")
            nominal = max(t.earliest for t in members)
        elif rule == "spontaneous":
            nominal = members[0].earliest
            if any(t.earliest != nominal for t in members):
                bad(f"{tag}: members are not tied on readiness")
        else:
            ends = {interval * math.ceil(t.earliest / interval) for t in members}
            if len(ends) != 1:
                bad(f"{tag}: members span several slots")
            nominal = max(ends)
        depart = fleet.departure(members, nominal)
        if not _close(depart, p.depart):
            bad(f"{tag}: departs at {p.depart!r}, expected {depart!r}")

        rows = {r.id: r for r in p.rows}
        if sorted(rows) != sorted(p.members):
            bad(f"{tag}: ledger does not match members")
            continue
        lead_truck = fleet.by_id.get(p.leader_id)
        if lead_truck is None or p.leader_id not in rows:
            bad(f"{tag}: leader {p.leader_id} is not a member")
            continue
        if ("E" if lead_truck.et else "F") != p.leader_type:
            bad(f"{tag}: leader kind {p.leader_type} but truck {p.leader_id} "
                f"is {'ET' if lead_truck.et else 'FT'}")
        for t in members:
            if n == 1:
                want = "ALONE"
            else:
                want = "LEADER" if t.id == p.leader_id else "FOLLOWER"
            if rows[t.id].role != want:
                bad(f"{tag}: truck {t.id} has role {rows[t.id].role}, expected {want}")

        n_et = 0
        for t in members:
            row = rows[t.id]
            charge, wait, dep_soc = fleet.member(t, depart)
            loss_sum += fleet.ec * charge + fleet.ew * wait
            if not (_close(charge, row.charge) and _close(wait, row.wait)):
                bad(f"{tag}: truck {t.id} charge/wait {row.charge!r}/{row.wait!r}, "
                    f"expected {charge!r}/{wait!r}")
            if not t.et:
                if row.soc_dep is not None or row.soc_arr is not None:
                    bad(f"{tag}: fuel truck {t.id} carries SoC figures")
                continue
            n_et += 1
            coeff = 1.0 if row.role in ("LEADER", "ALONE") else fleet.beta
            arr_soc = dep_soc - coeff * t.vrate * fleet.distance
            if not (_close(dep_soc, row.soc_dep) and _close(arr_soc, row.soc_arr)):
                bad(f"{tag}: truck {t.id} SoC {row.soc_dep!r}->{row.soc_arr!r}, "
                    f"expected {dep_soc!r}->{arr_soc!r}")
            if arr_soc < t.safe - SOC_TOL:
                bad(f"{tag}: truck {t.id} arrives at {arr_soc!r}% below its "
                    f"safety floor {t.safe!r}%")
        profit_sum += fleet.profit(n_et, n - n_et, p.leader_type)
        if depart > fleet.horizon + TIME_TOL and (rule == "dp" or not sched.horizon_violation):
            bad(f"{tag}: departs past the horizon without the violation flag")

    if len(seen) != len(fleet.by_id):
        bad(f"{len(fleet.by_id) - len(seen)} trucks are not scheduled")
    tol = money_tol(profit_sum, loss_sum)
    utility = profit_sum - loss_sum
    if not (abs(sched.profit - profit_sum) <= tol and abs(sched.loss - loss_sum) <= tol):
        bad(f"totals R={sched.profit!r} L={sched.loss!r}, re-priced "
            f"R={profit_sum!r} L={loss_sum!r}")
    if abs(sched.utility - (sched.profit - sched.loss)) > tol:
        bad(f"J={sched.utility!r} is not R - L")
    if rule == "dp":
        n_cap = 2 * len(fleet.order) * fleet.nbar
        if sched.dp_updates is None or sched.dp_updates > n_cap:
            bad(f"dp_updates {sched.dp_updates} exceeds 2*N*nbar = {n_cap}")
        if sched.dp_value is None or abs(sched.dp_value - utility) > tol:
            bad(f"dp_value {sched.dp_value!r} differs from the re-priced J {utility!r}")
    return problems, utility
