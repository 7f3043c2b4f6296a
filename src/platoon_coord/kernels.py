"""The value-recursion kernel, the checked accessor of the fleet columns it
reads (`fleet_arrays`), and the per-member arithmetic that it and the batch
pricer `utility.price_platoons` share: `member_terms`, `block_departure`
and `block_profit`.

The recursion scans every (prefix, platoon size, leader kind) candidate,
which dominates runtime at fleet scale. It runs in two steps: numpy prices
all (last truck, size) candidates of the fleet in one table, reducing each
to a single utility and leader kind, then a plain-Python max-plus loop over
the table's rows fills the value table and the winning choice per prefix.
Leader draws for the randomized variant come from a counter-based splitmix64
stream keyed by (seed, prefix, size) so results are independent of
evaluation order and reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

from .discretize import FleetArrays, PreparedFleet
from .model import SOC_TOL, TIME_TOL, ContractViolation

_U64 = (1 << 64) - 1
_KEY_I = 0x9E3779B97F4A7C15
_KEY_N = 0xC2B2AE3D27D4EB4F


def _splitmix64_py(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def leader_draw_bit(seed: int, prefix: int, size: int) -> int:
    """Single fair bit for the leader-kind draw of candidate (prefix, size)."""
    key = ((prefix * _KEY_I) ^ (size * _KEY_N)) & _U64
    return _splitmix64_py(_splitmix64_py(seed & _U64) ^ key) >> 63


def leader_draw_bits(seed: int, n_trucks: int, max_size: int) -> np.ndarray:
    """Vectorized draw table, shape (n_trucks + 1, max_size + 1), entries 0/1.

    Entry [i, n] equals leader_draw_bit(seed, i, n); index 0 rows/cols are
    padding so candidates can index with their natural 1-based (i, n).
    """
    i = np.arange(n_trucks + 1, dtype=np.uint64)[:, None]
    n = np.arange(max_size + 1, dtype=np.uint64)[None, :]
    key = (i * np.uint64(_KEY_I)) ^ (n * np.uint64(_KEY_N))
    x = np.uint64(_splitmix64_py(seed & _U64)) ^ key
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(63)).astype(np.uint8)


def fleet_arrays(fleet: PreparedFleet, route) -> FleetArrays:
    """The columns of a prepared fleet, which `prepare_fleet` built once for
    its instance's route (`PreparedFleet.arrays`).

    Every solver calls this first, so it is where any other form of a fleet
    is refused, and any other route: `need_lead` and `alone_depart` hold for
    that route alone, and on a longer one an ET they let lead would arrive
    below its safety floor.
    """
    if not isinstance(fleet, PreparedFleet):
        raise ContractViolation(
            f"solvers take the PreparedFleet that prepare_fleet returns, "
            f"not a {type(fleet).__name__}")
    if route != fleet.instance.route:
        raise ContractViolation(
            f"the fleet was prepared for {fleet.instance.route!r}, not for {route!r}")
    return fleet.arrays


def member_terms(arr: FleetArrays, idx, depart):
    """Charge and wait minutes, departure SoC and `can_lead` of the trucks at
    ranks `idx` leaving at `depart` (arrays that broadcast together).

    After the mandatory charge a member charges until full or until the
    platoon leaves, and waits for the rest of its gap; the operations run in
    `utility.evaluate_platoon`'s order, so each entry equals the scalar
    figure bit for bit. Fuel trucks come out with no charge and able to lead.
    `depart` must not precede any member's earliest departure.
    """
    charge = arr.tau_cmin[idx] + np.minimum(arr.fill_time[idx], depart - arr.tau_delta[idx])
    wait = depart - arr.arrival[idx] - charge
    dep_soc = np.minimum(arr.max_soc[idx], arr.init_soc[idx] + arr.rate[idx] * charge)
    can_lead = dep_soc >= arr.need_lead[idx] - SOC_TOL
    return charge, wait, dep_soc, can_lead


def block_departure(arr: FleetArrays, starts, sizes):
    """Departure of the blocks of `sizes` consecutive ranks from `starts`: the
    last member's earliest departure, the latest since the fleet is sorted
    by it, or for a lone ET the later of that and its alone-safe departure."""
    last = starts + sizes - 1
    depart = arr.tau_delta[last]
    solo_et = (sizes == 1) & (arr.is_et[last] == 1)
    return np.where(solo_et, np.maximum(depart, arr.alone_depart[last]), depart)


def block_profit(econ, et_count, ft_count, fuel_led):
    """Follower savings of blocks with these member counts and leader kinds:
    every member but the leader earns its kind's follower profit, so a
    one-truck block earns 0.0."""
    fuel = np.asarray(fuel_led, dtype=np.intp)
    return (econ.ft_follower_profit * (ft_count - fuel)
            + econ.et_follower_profit * (et_count - (1 - fuel)))


def _candidate_table(arr: FleetArrays, econ, nbar: int, horizon: float,
                     mode: int, bits: np.ndarray):
    """Price every (last truck, size) candidate in one vectorised pass.

    Row r, column k is the platoon of trucks r - k .. r. Returns the utility
    of each candidate under its leader kind (-inf when no kind is safe or the
    block runs past the first truck), that kind as a code (0 electric,
    1 fuel), the work each candidate adds to the `updates` counter, and the
    prefix length each candidate extends.
    """
    ew, ec = econ.wait_cost, econ.charge_cost
    n = arr.size
    k = np.arange(nbar)
    rows = np.arange(n)
    idx = rows[:, None] - k[None, :]
    valid = idx >= 0
    idxc = np.where(valid, idx, 0)

    charge, wait, _, can_lead = member_terms(arr, idxc, arr.tau_delta[:, None])
    cum_loss = np.cumsum(np.where(valid, ec * charge + ew * wait, 0.0), axis=1)
    etw = arr.is_et[idxc].astype(bool) & valid
    et_cnt = np.cumsum(etw, axis=1)
    ft_cnt = np.arange(1, nbar + 1)[None, :] - et_cnt
    lead_ok = np.logical_or.accumulate(etw & can_lead, axis=1)

    j_e = block_profit(econ, et_cnt, ft_cnt, False) - cum_loss
    j_f = block_profit(econ, et_cnt, ft_cnt, True) - cum_loss
    val_e = valid & lead_ok
    val_f = valid & (ft_cnt >= 1)

    # Size-1 candidates leave at the solo departure. Column 0 above stays
    # priced at the row's own departure, since every larger block sums it.
    t0 = block_departure(arr, rows, 1)
    charge, wait, _, can_lead = member_terms(arr, rows, t0)
    j_e[:, 0] = 0.0 - (ec * charge + ew * wait)
    val_e[:, 0] = (arr.is_et == 1) & can_lead & (t0 <= horizon + TIME_TOL)

    if mode == 0:
        pick_e = val_e & (~val_f | (j_e >= j_f))
        work = val_e.astype(np.int8) + val_f
    else:
        pick_e = val_e & (~val_f | (bits[1:n + 1, 1:nbar + 1] == 1))
        work = val_e | val_f
    utility = np.where(pick_e, j_e, np.where(val_f, j_f, -np.inf))
    leader = np.where(pick_e, 0, 1).astype(np.int8)
    return utility, leader, work, idxc


def run_dp_kernel(arr: FleetArrays, econ, nbar: int, horizon: float,
                  mode: int, bits: np.ndarray):
    """Run the value recursion; returns (values, choice_n, choice_m, updates).

    mode 0 keeps the better leader kind per candidate, mode 1 draws one from
    `bits`. The returned choice arrays encode, per prefix length, the platoon
    size and leader kind (0 electric, 1 fuel) of the winning candidate.
    `updates` counts the safe (candidate, leader kind) pairs whose prefix has
    a finite value; under mode 1 each candidate counts once.
    """
    n = arr.size
    nbar = int(nbar)
    utility, leader, work, prefix = _candidate_table(
        arr, econ, nbar, float(horizon), int(mode), bits)

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

    values = np.array(values)
    best_k = np.array(best_k)
    choice_n = best_k + 1
    choice_m = np.full(n + 1, -1, np.int8)
    found = best_k >= 0
    choice_m[found] = leader[np.flatnonzero(found[1:]), best_k[found]]

    updates = int(work[np.isfinite(values[prefix])].sum())
    return values, choice_n, choice_m, updates
