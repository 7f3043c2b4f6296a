"""The value-recursion kernel, the checked accessor of the fleet columns it
reads (`fleet_arrays`), and the per-member arithmetic that it and the batch
pricer `utility.price_platoons` share: `member_terms`, `block_departure`
and `block_profit`.

The recursion scans every (prefix, platoon size, leader kind) candidate,
which dominates runtime at fleet scale. It runs a block of `CHUNK_ROWS`
rows at a time, in three steps: table -> pick -> recursion. The table
(`_candidate_table`) prices the block's candidates under each leader kind,
one platoon size at a time: the members that a size adds across the rows
are one slice of ranks, so each size reads views of the fleet's columns,
and the running loss, ET count and lead flag of each row carry to the next
size in one elementwise step each; a size at which no ET can lead leaves
its electric-led column unpriced. The pick (`_pick`), the one statement of
the leader policy, keeps one kind per candidate. The max-plus recursion,
Python source written out once per window width with the window in local
variables, then fills the value table and the winning choice per prefix:
a candidate costs one addition and one comparison, those of a plain loop
over the table in the same order. A block's values and picks are copied
once into arrays preallocated for the N + 1 prefixes, and the `updates`
counter adds a block's work, less the work of its cells that extend a
prefix with no schedule (value -inf). Leader draws, for the randomized
variant and the baselines alike, come from `leader_draw_bits`, the one
statement of a counter-based splitmix64 stream keyed by (seed, prefix,
size), so results are independent of evaluation order and reproducible
across platforms. The pick draws a block's prefixes' bits in one call,
and only when some candidate has both leader kinds safe.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .discretize import FleetArrays, PreparedFleet
from .model import SOC_TOL, TIME_TOL, ContractViolation

_U64 = (1 << 64) - 1
_KEY_I = np.uint64(0x9E3779B97F4A7C15)
_KEY_N = np.uint64(0xC2B2AE3D27D4EB4F)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of every entry of the uint64 array `x`, in place."""
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def check_seed(seed) -> int:
    """The seed of a solver's leader draws, as an int. Any integer passes,
    numpy's included; a bool, like anything else, is refused."""
    if isinstance(seed, bool):  # an int to Python, but no seed
        raise ContractViolation(f"seed must be an integer, got {seed!r}")
    try:
        return operator.index(seed)
    except TypeError:
        raise ContractViolation(f"seed must be an integer, got {seed!r}") from None


def leader_draw_bits(seed: int, prefix, size) -> np.ndarray:
    """The leader-kind bits (0/1, uint8) of candidates (`prefix`, `size`),
    integer arrays that broadcast together: the platoon of `size` trucks
    ending with prefix length `prefix`. Each bit is the top bit of
    splitmix64 of the key of (`prefix`, `size`) mixed with splitmix64 of the
    seed, so it does not depend on which other candidates are drawn with it.
    """
    key = np.atleast_1d(np.asarray(prefix, np.uint64)) * _KEY_I
    key = key ^ np.atleast_1d(np.asarray(size, np.uint64)) * _KEY_N
    # A one-entry array, not a numpy scalar, so its wrapping steps are quiet.
    key ^= _splitmix64(np.array([operator.index(seed) & _U64], np.uint64))
    return (_splitmix64(key) >> np.uint64(63)).astype(np.uint8)


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
    by it, or for a lone truck its solo departure (`alone_depart`, which is
    never earlier)."""
    last = starts + sizes - 1
    return np.where(sizes == 1, arr.alone_depart[last], arr.tau_delta[last])


def block_profit(econ, et_count, ft_count, fuel_led):
    """Follower savings of blocks with these member counts and leader kinds:
    every member but the leader earns its kind's follower profit, so a
    one-truck block earns 0.0."""
    fuel = np.asarray(fuel_led, dtype=np.intp)
    return (econ.ft_follower_profit * (ft_count - fuel)
            + econ.et_follower_profit * (et_count - (1 - fuel)))


# Rows of the candidate table built, and run through the recursion, at a
# time, so the kernel's memory grows with nbar but not with the fleet.
CHUNK_ROWS = 8192


def _candidate_table(arr: FleetArrays, econ, nbar: int, horizon: float,
                     lo: int, hi: int):
    """Price the (last truck, size) candidates of rows `lo` .. `hi` - 1 under
    each leader kind, one platoon size at a time.

    Row r - lo, column k is the platoon of trucks r - k .. r. Its k-th
    member, across the rows, is a slice of ranks, so each size reads views
    of the fleet's columns, and the block's loss, ET count and whether some
    ET can lead carry from column k - 1 with one elementwise step each: the
    additions that a running sum along the row makes, in the same order.
    A row reads only the fleet's columns, so these are exactly those rows of
    the table over the whole fleet. Returns `j_e` and `j_f`, the utility of
    each candidate under an electric and under a fuel leader, each -inf
    where that kind is unsafe or the block runs past the first truck. A
    size at which no ET of any row's block can lead leaves its `j_e` column
    at -inf without pricing it.
    """
    ew, ec = econ.wait_cost, econ.charge_cost
    m = hi - lo
    j_e = np.full((m, nbar), -np.inf)
    j_f = np.full((m, nbar), -np.inf)
    # The profit depends only on (size, ET count): price that grid once and
    # gather it, the same `block_profit` on the same integers. A fuel leader
    # needs a fuel truck, so an all-ET block's fuel profit is -inf.
    ets = np.arange(nbar + 1)[None, :]
    fts = np.arange(1, nbar + 1)[:, None] - ets
    profit_e = block_profit(econ, ets, fts, False)
    profit_f = np.where(fts > 0, block_profit(econ, ets, fts, True), -np.inf)

    for k in range(min(nbar, hi)):
        s = max(lo, k) - lo  # rows before s have fewer than k + 1 trucks
        members = slice(lo + s - k, hi - k)
        charge, wait, _, can_lead = member_terms(arr, members, arr.tau_delta[lo + s:hi])
        cost = ec * charge + ew * wait
        et = arr.is_et[members].view(bool)  # 0/1 flags
        if k == 0:
            loss, et_cnt, lead_ok = cost, et.astype(np.intp), et & can_lead
            # A lone truck leaves at its solo departure; the carried loss
            # keeps the row's own departure, since every larger block sums it.
            t0 = arr.alone_depart[members]
            charge, wait, _, can_lead = member_terms(arr, members, t0)
            np.subtract(0.0, ec * charge + ew * wait, out=j_e[:, 0],
                        where=et & can_lead & (t0 <= horizon + TIME_TOL))
        else:
            loss[s:] += cost
            et_cnt[s:] += et
            lead_ok[s:] |= et & can_lead
            if np.count_nonzero(lead_ok[s:]):
                np.subtract(profit_e[k][et_cnt[s:]], loss[s:], out=j_e[s:, k],
                            where=lead_ok[s:])
        np.subtract(profit_f[k][et_cnt[s:]], loss[s:], out=j_f[s:, k])
    return j_e, j_f


def _pick(j_e, j_f, draw, lo: int, hi: int):
    """The leader policy of the value recursion, over the table of rows
    `lo` .. `hi` - 1 (`_candidate_table`). Without `draw` the better kind is
    kept, electric on an exact tie; with it, where both kinds are safe, the
    drawn one, from `draw(prefixes[:, None], sizes)`, the bits of prefixes
    `lo` + 1 .. `hi` by sizes 1 .. nbar in the table's shape. That call is
    made once, and only when some cell has both kinds safe: elsewhere the
    one safe kind is the pick, whatever the bit.

    Returns the utility of each candidate under its leader kind (-inf when
    no kind is safe), that kind as a code (0 electric, 1 fuel; read only
    where the utility is finite), and the work each candidate adds to the
    `updates` counter: its safe kinds, or under a draw 1 when either is
    safe. The utility is written over `j_e`, which the pick consumes: a
    fresh array of the table's size costs more than the pick's arithmetic.
    """
    safe_e, safe_f = j_e > -np.inf, j_f > -np.inf
    fuel = j_f > j_e  # electric wins an exact tie
    if draw is None:
        work = safe_e.view(np.int8) + safe_f
    else:
        both = safe_e & safe_f
        if np.count_nonzero(both):
            bits = draw(np.arange(lo + 1, hi + 1)[:, None], np.arange(1, j_e.shape[1] + 1))
            fuel = np.where(both, bits == 0, fuel)
        work = (safe_e | safe_f).view(np.int8)
    np.copyto(j_e, j_f, where=fuel)
    return j_e, fuel.view(np.int8), work


@functools.cache
def _value_recursion(width: int):
    """The recursion over table rows of `width` columns, written out as
    straight-line Python: `recurse(rows, window, values, picks)`.

    `window` holds the values of the `width` prefixes before the first row,
    the latest first, in locals `w0` .. `w{width-1}`; each row is unpacked
    into `r0` .. `r{width-1}`. Per row, candidate k adds `wk + rk` and is kept
    when strictly better than the best so far, k = 0, 1, ..., so the
    smaller platoon wins a tie. Its value and the winning column (-1 when
    every sum is -inf) are appended to `values` and `picks`, and the window
    shifts by one. A prefix before the first truck is a -inf register.

    The source text depends on `width` alone.
    """
    width = int(width)
    ws = [f"w{k}" for k in range(width)]
    rs = [f"r{k}" for k in range(width)]
    lines = [
        "def recurse(rows, window, values, picks):",
        f"    {', '.join(ws)}, = window",
        "    value, choose, neg_inf = values.append, picks.append, NEG_INF",
        f"    for {', '.join(rs)}, in rows:",
        "        best, pick = neg_inf, -1",
    ]
    for k in range(width):
        lines += [f"        u = w{k} + r{k}",
                  "        if u > best:",
                  f"            best, pick = u, {k}"]
    lines += ["        value(best)", "        choose(pick)"]
    lines += [f"        w{k} = w{k - 1}" for k in range(width - 1, 0, -1)]
    lines.append("        w0 = best")
    namespace = {"NEG_INF": -np.inf}
    exec(compile("\n".join(lines) + "\n", f"<value recursion, width {width}>", "exec"),
         namespace)
    return namespace["recurse"]


def run_dp_kernel(arr: FleetArrays, econ, nbar: int, horizon: float, draw=None):
    """Run the value recursion; returns (values, choice_n, choice_m, updates).

    Each block of `CHUNK_ROWS` rows goes table -> pick -> recursion:
    `_candidate_table` prices its candidates under both leader kinds,
    `_pick` keeps one kind per candidate, the better one without `draw`
    and with it the one drawn from `draw(prefix, size)` (`leader_draw_bits`
    with the seed bound) where both are safe, and `_value_recursion(nbar)`
    runs the block's rows, carrying the last `nbar` values in from the
    value array. The returned choice arrays encode, per prefix length, the
    platoon size and leader kind (0 electric, 1 fuel) of the winning
    candidate. `updates` counts the safe (candidate, leader kind) pairs
    whose prefix has a finite value; under a draw each candidate counts once.
    A block's `updates` is its whole work less that of the cells that extend
    a prefix whose value is not finite: cell (r, k) extends prefix r - k,
    so only prefixes `lo` - nbar + 1 .. `hi` - 1 are looked at. Every value
    is the sum and comparison that a loop over the whole table makes, in
    the same order, so the outputs do not depend on the block size.
    """
    n = arr.size
    nbar = int(nbar)
    horizon = float(horizon)
    recurse = _value_recursion(nbar)
    values = np.empty(n + 1)
    picks = np.empty(n + 1, np.intp)
    values[0], picks[0] = 0.0, -1
    choice_m = np.full(n + 1, -1, np.int8)
    updates = 0
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        utility, leader, work = _pick(*_candidate_table(arr, econ, nbar, horizon, lo, hi),
                                      draw, lo, hi)
        first = max(lo - nbar + 1, 0)
        window = values[first:lo + 1][::-1].tolist()  # the latest first
        block_values, block_picks = [], []
        recurse(utility.tolist(), window + [-np.inf] * (nbar - len(window)),
                block_values, block_picks)
        values[lo + 1:hi + 1] = np.fromiter(block_values, np.float64, count=hi - lo)
        picks[lo + 1:hi + 1] = pick = np.fromiter(block_picks, np.intp, count=hi - lo)

        found = np.flatnonzero(pick >= 0)
        choice_m[lo + 1 + found] = leader[found, pick[found]]
        # Cell (r, k) extends prefix r - k, one of `first` .. hi - 1 (a cell
        # that would extend a prefix before the first truck has no work).
        updates += int(work.sum())
        stuck = np.flatnonzero(~np.isfinite(values[first:hi])) + first
        if stuck.size:
            rows = stuck[:, None] + np.arange(nbar)
            cols = np.broadcast_to(np.arange(nbar), rows.shape)
            inside = (rows >= lo) & (rows < hi)
            updates -= int(work[rows[inside] - lo, cols[inside]].sum())

    return values, picks + 1, choice_m, updates
