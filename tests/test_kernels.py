import random
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoon_coord import (
    HorizonExceededError,
    LeaderType,
    NoFeasibleScheduleError,
    ScenarioConfig,
    evaluate_platoon,
    generate,
    leader_feasible,
    prepare_fleet,
)
from platoon_coord import dp, kernels
from platoon_coord.dp import run_dp, solve_dp_ls, solve_dp_nls
from platoon_coord.kernels import (
    _candidate_table,
    fleet_arrays,
    leader_draw_bit,
    leader_draw_bits,
    run_dp_kernel,
)
from platoon_coord.model import MONEY_TOL, TIME_TOL
from platoon_coord.scenario import load_instance
from checks import (
    reference_candidate_table,
    reference_list_kernel,
    reference_value_recursion,
)
from conftest import ET_VRATE, REF_ECON, REF_ROUTE, et, fleet_instances, ft, prepare
from test_pricing import DEGENERATE

DATA = Path(__file__).parent / "data"


class TestBackendSelection:
    def test_backend_recorded_in_diagnostics(self):
        inst = generate(ScenarioConfig(n_trucks=6, seed=1, arrival_lo=1,
                                       arrival_hi=30, horizon=200.0))
        prepared = prepare_fleet(inst)
        sol = solve_dp_ls(prepared, inst.route, inst.econ)
        assert sol.diagnostics.backend == "numpy"


class TestLeaderDraws:
    def test_table_matches_scalar(self):
        bits = leader_draw_bits(99, 0, 21, 8)
        for i in (0, 1, 7, 20):
            for n in (0, 1, 5, 8):
                assert bits[i, n] == leader_draw_bit(99, i, n)

    def test_rows_of_a_block_are_those_prefixes(self):
        bits = leader_draw_bits(99, 7, 19, 8)
        assert bits.shape == (12, 9)
        assert bits.tobytes() == leader_draw_bits(99, 0, 30, 8)[7:19].tobytes()
        assert bits[0, 3] == leader_draw_bit(99, 7, 3) and bits[11, 8] == leader_draw_bit(99, 18, 8)

    def test_deterministic(self):
        assert np.array_equal(leader_draw_bits(5, 0, 31, 8), leader_draw_bits(5, 0, 31, 8))

    def test_seed_changes_draws(self):
        assert not np.array_equal(leader_draw_bits(1, 0, 201, 8), leader_draw_bits(2, 0, 201, 8))

    def test_roughly_fair(self):
        bits = leader_draw_bits(42, 0, 2001, 8)
        mean = bits[1:, 1:].mean()
        assert 0.45 < mean < 0.55


# An ET discharging 0.5 %/km needs 110 % to lead the 200 km leg: it can follow
# a platoon but never lead one or drive alone.
UNLEADABLE_VRATE = 0.5


def _mixed_fleet(rng, n):
    """Fuel and electric trucks on a few shared arrival instants (ties)."""
    return [ft(k, rng.choice((0.0, 0.0, 6.0, 15.0, 40.0))) if rng.random() < 0.5
            else et(k, rng.choice((0.0, 6.0, 6.0, 15.0)), soc=rng.uniform(20.0, 95.0))
            for k in range(n)]


def _all_et_fleet(rng, n):
    return [et(k, rng.choice((0.0, 3.0, 3.0, 10.0)), soc=rng.uniform(20.0, 90.0),
               vrate=UNLEADABLE_VRATE if rng.random() < 0.4 else ET_VRATE)
            for k in range(n)]


def _fleets():
    rng = random.Random(2024)
    fleets = [
        # The ET's alone-safe departure (204.8) misses the 200-min horizon,
        # so it can only leave inside a platoon.
        [ft(0, 150.0), et(1, 170.0, soc=30.0)],
        # Prefix 1 has no safe schedule; later prefixes do.
        [et(0, 0.0, soc=50.0, vrate=UNLEADABLE_VRATE), et(1, 0.0, soc=80.0),
         et(2, 5.0, soc=40.0, vrate=UNLEADABLE_VRATE)],
        # Nobody can lead: no schedule at all.
        [et(0, 0.0, soc=50.0, vrate=UNLEADABLE_VRATE),
         et(1, 2.0, soc=60.0, vrate=UNLEADABLE_VRATE)],
    ]
    fleets += [_mixed_fleet(rng, rng.randint(3, 10)) for _ in range(6)]
    fleets += [_all_et_fleet(rng, rng.randint(3, 10)) for _ in range(6)]
    return fleets


def _compositions(n, nbar):
    """Every split of the first n trucks into consecutive blocks of at most
    nbar, each block given as (end, size) with end its 1-based last truck."""
    if n == 0:
        return [[]]
    return [head + [(n, size)]
            for size in range(1, min(n, nbar) + 1)
            for head in _compositions(n - size, nbar)]


def _safe_blocks(prepared, route, econ):
    """Utility of every safe leader kind of every block, keyed (end, size)."""
    blocks = {}
    is_et = prepared.arrays.is_et.tolist()
    for end in range(1, len(prepared) + 1):
        for size in range(1, min(end, route.max_platoon_size) + 1):
            members = range(end - size, end)
            kinds = {LeaderType.ELECTRIC if is_et[k] else LeaderType.FUEL for k in members}
            safe = {}
            for leader in (LeaderType.ELECTRIC, LeaderType.FUEL):
                if leader not in kinds:
                    continue
                p = evaluate_platoon(members, leader, prepared, econ)
                if not leader_feasible(p, leader):
                    continue
                if size == 1 and p.departure_time > route.horizon + TIME_TOL:
                    continue
                safe[leader] = p.utility
            blocks[end, size] = safe
    return blocks


def _best_total(blocks, n, nbar, price):
    """Best sum of `price(end, size, safe)` over compositions whose every
    block has a safe leader kind, or None when there is no such composition."""
    totals = [sum(price(end, size, blocks[end, size]) for end, size in comp)
              for comp in _compositions(n, nbar)
              if all(blocks[b] for b in comp)]
    return max(totals) if totals else None


def _drawn(seed):
    def price(end, size, safe):
        if len(safe) == 2:
            bit = leader_draw_bit(seed, end, size)
            return safe[LeaderType.ELECTRIC if bit else LeaderType.FUEL]
        return next(iter(safe.values()))
    return price


class TestAgainstEnumeration:
    """The recursion against every consecutive composition of small fleets,
    each block priced by `evaluate_platoon`."""

    @pytest.mark.parametrize("nbar", [1, 2, 8])
    def test_values_and_work(self, nbar):
        route = replace(REF_ROUTE, horizon=200.0, max_platoon_size=nbar)
        for trucks in _fleets():
            prepared = prepare(trucks, route=route)
            n = len(prepared)
            blocks = _safe_blocks(prepared, route, REF_ECON)
            reachable = [_best_total(blocks, p, nbar, lambda *b: 0.0) is not None
                         for p in range(n + 1)]
            usable = [safe for (end, size), safe in blocks.items()
                      if reachable[end - size]]
            assert run_dp(prepared, route, REF_ECON, mode=0).updates == \
                sum(len(safe) for safe in usable)
            assert run_dp(prepared, route, REF_ECON, mode=1, seed=3).updates == \
                sum(1 for safe in usable if safe)

            best = _best_total(blocks, n, nbar, lambda e, s, safe: max(safe.values()))
            if best is None:
                with pytest.raises(NoFeasibleScheduleError):
                    solve_dp_ls(prepared, route, REF_ECON)
                with pytest.raises(NoFeasibleScheduleError):
                    solve_dp_nls(prepared, route, REF_ECON, 0)
                continue
            assert solve_dp_ls(prepared, route, REF_ECON).utility == \
                pytest.approx(best, abs=1e-9)
            for seed in range(4):
                drawn = _best_total(blocks, n, nbar, _drawn(seed))
                assert solve_dp_nls(prepared, route, REF_ECON, seed).utility == \
                    pytest.approx(drawn, abs=1e-9)


def _check_table_against_reference(prepared, route, econ, seed):
    """The candidate table, in both recursion modes, against `_safe_blocks`:
    an entry is finite exactly when its block has a safe leader kind; its
    kind is one of those, and its utility is what `evaluate_platoon` gives
    the block under that kind. One- and two-truck blocks match bit for bit;
    larger ones sum member costs in another order, so they match to
    `MONEY_TOL` relative to R + L."""
    arr = fleet_arrays(prepared, route)
    nbar = route.max_platoon_size
    blocks = _safe_blocks(prepared, route, econ)
    for mode, draw in ((0, None), (1, partial(leader_draw_bits, seed))):
        utility, leader, _ = _candidate_table(arr, econ, nbar, route.horizon,
                                              draw, 0, arr.size)
        assert np.isfinite(utility).sum() == sum(1 for safe in blocks.values() if safe)
        for (end, size), safe in blocks.items():
            got = utility[end - 1, size - 1].item()
            if not safe:
                assert got == -np.inf, (mode, end, size)
                continue
            kind = LeaderType.FUEL if leader[end - 1, size - 1] else LeaderType.ELECTRIC
            assert kind in safe, (mode, end, size)
            ref = evaluate_platoon(range(end - size, end), kind, prepared, econ)
            if size <= 2:
                assert got == ref.utility and repr(got) == repr(ref.utility), \
                    (mode, end, size, got, ref.utility)
            else:
                assert abs(got - ref.utility) <= MONEY_TOL * (1 + ref.profit + ref.loss)


class TestCandidateTableAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        try:
            prepared = prepare_fleet(instance)
        except HorizonExceededError:
            return
        _check_table_against_reference(prepared, instance.route, instance.econ,
                                       instance.seed)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_fleets(self, name):
        trucks, route, econ = DEGENERATE[name]
        prepared = prepare(trucks, route=route, econ=econ)
        for seed in (0, 5):
            _check_table_against_reference(prepared, route, econ, seed)


def _row_ranges(n, nbar):
    """Row ranges of an n-truck fleet: every row, the first row, the rows
    around the first whose blocks all fit (nbar - 1), a middle range and the
    last row, each clipped to the fleet."""
    ranges = set()
    for lo, hi in ((0, n), (0, 1), (nbar - 2, nbar + 1), (n // 3, n // 3 + nbar + 2),
                   (n - 1, n)):
        lo = min(max(lo, 0), n - 1)
        ranges.add((lo, min(max(hi, lo + 1), n)))
    return sorted(ranges)


def _check_table_against_grid(arr, econ, nbar, horizon, seeds):
    """`_candidate_table`, in both modes and over each of `_row_ranges`,
    against `reference_candidate_table`, the same table in one pass over an
    index grid whose draws are drawn for every row up front: utility, leader
    and work equal in value, and by bytes once cast to the reference's
    dtypes."""
    for mode, bits, draw in _both_modes(arr, nbar, seeds):
        for lo, hi in _row_ranges(arr.size, nbar):
            got = _candidate_table(arr, econ, nbar, horizon, draw, lo, hi)
            want = reference_candidate_table(arr, econ, nbar, horizon, mode, bits, lo, hi)
            assert len(got) == 3
            for name, g, w in zip(("utility", "leader", "work"), got, want):
                where = (name, mode, lo, hi)
                assert g.shape == w.shape and np.array_equal(g, w), where
                assert g.astype(w.dtype).tobytes() == w.tobytes(), where


class TestCandidateTableAgainstGrid:
    """The table built one platoon size at a time from column slices, against
    the grid that gathers every member's columns, at the window `run_dp`
    uses and at the route's cap where that is wider than the fleet."""

    def _check(self, prepared, route, econ, seeds):
        arr = fleet_arrays(prepared, route)
        for nbar in {route.max_platoon_size, min(route.max_platoon_size, arr.size)}:
            _check_table_against_grid(arr, econ, nbar, route.horizon, seeds)

    @settings(max_examples=150, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        try:
            prepared = prepare_fleet(instance)
        except HorizonExceededError:
            return
        self._check(prepared, instance.route, instance.econ, (instance.seed, 7))

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_fleets(self, name):
        trucks, route, econ = DEGENERATE[name]
        self._check(prepare(trucks, route=route, econ=econ), route, econ, (0, 5))

    def test_all_et_fleet_that_cannot_lead(self):
        trucks = [et(k, 2.0 * k, soc=60.0, vrate=UNLEADABLE_VRATE) for k in range(12)]
        self._check(prepare(trucks), REF_ROUTE, REF_ECON, (0, 5))

    @pytest.mark.parametrize("n", [1, 2, 5, 15])
    def test_fleets_smaller_than_nbar(self, n):
        inst = generate(ScenarioConfig(n_trucks=n, seed=n, et_share=0.6, arrival_hi=20,
                                       horizon=200.0, max_platoon_size=16))
        self._check(prepare_fleet(inst), inst.route, inst.econ, (0, 1, 2))

    @pytest.mark.parametrize("name", ["dense-ties-300", "integer-arrivals-200"])
    def test_committed_instances(self, name):
        inst = load_instance(DATA / f"{name}.json")
        self._check(prepare_fleet(inst), inst.route, inst.econ, (0, 3, 9))


def _both_modes(arr, nbar, seeds):
    """(mode, bits, draw) of mode 0, and of mode 1 under each seed's draws:
    the draws of every prefix in one table, which the references read, and
    the `_candidate_table` and `run_dp_kernel` argument that draws them a
    block at a time."""
    yield 0, None, None
    for seed in seeds:
        yield 1, leader_draw_bits(seed, 0, arr.size + 1, nbar), partial(leader_draw_bits, seed)


def _reference_kernel(arr, econ, nbar, horizon, mode, bits):
    """What `run_dp_kernel` returns, from `reference_value_recursion` run on
    the reference table over every row, whose draws `bits` are drawn for
    every prefix up front: the values, and the choice sizes, choice leaders
    and `updates` taken from that table as the kernel states them."""
    utility, leader, work, prefix = reference_candidate_table(
        arr, econ, nbar, horizon, mode, bits, 0, arr.size)
    values, best_k = reference_value_recursion(utility, nbar)
    found = np.flatnonzero(best_k >= 0)
    choice_m = np.full(arr.size + 1, -1, np.int8)
    choice_m[found] = leader[found - 1, best_k[found]]
    updates = int(work[np.isfinite(values[prefix])].sum())
    return values, best_k + 1, choice_m, updates


def _check_kernel_against_reference(prepared, route, econ, seeds):
    """`run_dp_kernel`, in both modes, against `_reference_kernel` with
    `run_dp`'s window: every array by dtype and bytes, and `updates`."""
    arr = fleet_arrays(prepared, route)
    nbar = min(route.max_platoon_size, arr.size)
    for mode, bits, draw in _both_modes(arr, nbar, seeds):
        want = _reference_kernel(arr, econ, nbar, route.horizon, mode, bits)
        got = run_dp_kernel(arr, econ, nbar, route.horizon, draw)
        assert _kernel_outputs_equal(got, want), mode


def _kernel_outputs_equal(got, want):
    return (all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
                for g, w in zip(got[:3], want[:3]))
            and got[3] == want[3])


class TestRecursionAgainstReference:
    """The generated, chunked recursion against the plain loop over the
    whole table."""

    @settings(max_examples=150, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        try:
            prepared = prepare_fleet(instance)
        except HorizonExceededError:
            return
        _check_kernel_against_reference(prepared, instance.route, instance.econ,
                                        (instance.seed, 7, 11))

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_fleets(self, name):
        trucks, route, econ = DEGENERATE[name]
        _check_kernel_against_reference(prepare(trucks, route=route, econ=econ),
                                        route, econ, (0, 5))

    def test_unleadable_fleets_have_no_finite_row(self):
        """An all-ET fleet whose ETs can never lead has no finite candidate:
        every value past prefix 0 is -inf and nothing is chosen."""
        trucks = [et(k, 2.0 * k, soc=60.0, vrate=UNLEADABLE_VRATE) for k in range(5)]
        prepared = prepare(trucks)
        _check_kernel_against_reference(prepared, REF_ROUTE, REF_ECON, (0, 5))
        state = run_dp(prepared, REF_ROUTE, REF_ECON, mode=0)
        assert np.isneginf(state.values[1:]).all() and state.updates == 0
        assert (state.choice_sizes[1:] == 0).all() and (state.choice_leaders == -1).all()

    @pytest.mark.parametrize("name", ["dense-ties-300", "integer-arrivals-200"])
    def test_committed_instances(self, name):
        inst = load_instance(DATA / f"{name}.json")
        _check_kernel_against_reference(prepare_fleet(inst), inst.route, inst.econ, (0, 3))

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_window_as_wide_as_the_fleet(self, n):
        inst = generate(ScenarioConfig(n_trucks=n, seed=n, arrival_hi=20, horizon=200.0,
                                       max_platoon_size=100))
        prepared = prepare_fleet(inst)
        assert min(inst.route.max_platoon_size, len(prepared)) == n
        _check_kernel_against_reference(prepared, inst.route, inst.econ, (0, 1))


def _dp_states_equal(a, b):
    return (a.values.tobytes() == b.values.tobytes()
            and np.array_equal(a.choice_sizes, b.choice_sizes)
            and np.array_equal(a.choice_leaders, b.choice_leaders)
            and a.updates == b.updates)


class TestChunkEdges:
    """The table is built and run `CHUNK_ROWS` rows at a time: a smaller
    block must give the `DpState` of one block over the whole fleet."""

    CHUNKS = (1, 3, 7)

    def _check(self, prepared, route, econ, monkeypatch):
        assert len(prepared) <= kernels.CHUNK_ROWS
        whole = [run_dp(prepared, route, econ, 0),
                 run_dp(prepared, route, econ, 1, seed=2)]
        for chunk in self.CHUNKS:
            monkeypatch.setattr(kernels, "CHUNK_ROWS", chunk)
            parts = [run_dp(prepared, route, econ, 0),
                     run_dp(prepared, route, econ, 1, seed=2)]
            monkeypatch.undo()
            for a, b in zip(parts, whole):
                assert _dp_states_equal(a, b), chunk

    def test_each_block_draws_its_own_prefixes(self, monkeypatch):
        """Mode 1 draws the bits of a block's prefixes in one
        `dp.leader_draw_bits` call of its own when one of its candidates has
        both leader kinds safe (work 2 in the mode-0 reference table), and
        makes no call for any other block; each bit is the scalar draw, and
        the state is the one drawn from the whole table in one block."""
        inst = generate(ScenarioConfig(n_trucks=40, seed=4, arrival_hi=30, horizon=200.0,
                                       max_platoon_size=4))
        prepared, route, econ, seed = prepare_fleet(inst), inst.route, inst.econ, 9
        whole = run_dp(prepared, route, econ, 1, seed)
        assert not _dp_states_equal(whole, run_dp(prepared, route, econ, 0))  # draws decide
        work = reference_candidate_table(prepared.arrays, econ, 4, route.horizon, 0, None,
                                         0, 40)[2]
        both = [(work[lo:lo + 5] == 2).any() for lo in range(0, 40, 5)]
        assert any(both) and not all(both)
        real, drawn = dp.leader_draw_bits, []
        monkeypatch.setattr(dp, "leader_draw_bits", lambda *args: (
            drawn.append((args, real(*args))) or drawn[-1][1]))
        monkeypatch.setattr(kernels, "CHUNK_ROWS", 5)
        assert _dp_states_equal(run_dp(prepared, route, econ, 1, seed), whole)
        assert [args for args, _ in drawn] == [(seed, lo + 1, lo + 6, 4)
                                               for lo, draws in zip(range(0, 40, 5), both)
                                               if draws]
        for (_, lo, hi, size), bits in drawn:
            assert bits.shape == (hi - lo, size + 1)
            assert bits.tolist() == [[leader_draw_bit(seed, i, n) for n in range(size + 1)]
                                     for i in range(lo, hi)]
        _check_kernel_against_reference(prepared, route, econ, (seed,))

    def test_no_draw_where_one_kind_is_safe(self, monkeypatch):
        """On a fleet whose ETs never lead a block of two, no candidate has
        both kinds safe, so mode 1 makes no `dp.leader_draw_bits` call, and
        its state is the one the reference draws from the whole table."""
        inst = load_instance(DATA / "dense-ties-300.json")
        prepared, route, econ, seed = prepare_fleet(inst), inst.route, inst.econ, inst.seed
        drawn = []
        monkeypatch.setattr(dp, "leader_draw_bits", lambda *args: drawn.append(args))
        state = run_dp(prepared, route, econ, 1, seed)
        assert drawn == []
        arr, nbar = prepared.arrays, min(route.max_platoon_size, len(prepared))
        bits = leader_draw_bits(seed, 0, arr.size + 1, nbar)
        want = _reference_kernel(arr, econ, nbar, route.horizon, 1, bits)
        assert _kernel_outputs_equal((state.values, state.choice_sizes, state.choice_leaders,
                                      state.updates), want)

    @pytest.mark.parametrize("nbar", [1, 2, 8])
    def test_enumeration_fleets(self, nbar, monkeypatch):
        route = replace(REF_ROUTE, horizon=200.0, max_platoon_size=nbar)
        for trucks in _fleets():
            self._check(prepare(trucks, route=route), route, REF_ECON, monkeypatch)

    def test_dense_ties(self, monkeypatch):
        inst = load_instance(DATA / "dense-ties-300.json")
        self._check(prepare_fleet(inst), inst.route, inst.econ, monkeypatch)

    @pytest.mark.parametrize("n", sorted({c * k + d for c in CHUNKS for k in (1, 2, 3)
                                          for d in (-1, 1) if c * k + d > 0}))
    def test_fleets_straddling_a_chunk_edge(self, n, monkeypatch):
        inst = generate(ScenarioConfig(n_trucks=n, seed=n, et_share=0.6, arrival_hi=30,
                                       horizon=200.0, max_platoon_size=4))
        self._check(prepare_fleet(inst), inst.route, inst.econ, monkeypatch)

    def test_a_middle_chunk_is_those_rows_of_the_table(self):
        inst = load_instance(DATA / "dense-ties-300.json")
        arr = prepare_fleet(inst).arrays
        nbar = inst.route.max_platoon_size
        for mode, _, draw in _both_modes(arr, nbar, (4,)):
            full = _candidate_table(arr, inst.econ, nbar, inst.route.horizon,
                                    draw, 0, arr.size)
            for lo, hi in ((0, 3), (7, 14), (150, 157), (arr.size - 7, arr.size)):
                part = _candidate_table(arr, inst.econ, nbar, inst.route.horizon,
                                        draw, lo, hi)
                for got, want in zip(part, full):
                    assert got.dtype == want.dtype, (mode, lo)
                    assert got.tobytes() == want[lo:hi].tobytes(), (mode, lo)


@st.composite
def _stuck_fleets(draw):
    """(prepared fleet, nbar, block size): a fleet on `REF_ROUTE` whose rank 0,
    and a rank just before or at a block's first row, hold ETs that can
    follow but never lead or drive alone, so prefix 1 and perhaps others have
    no schedule; with a block size of 1, 2, nbar - 1, nbar or nbar + 1.

    Every truck leaves when it arrives (no ET needs a charge to follow), and
    the arrivals rise, so a truck's rank is its place in the list."""
    nbar = draw(st.integers(1, 5))
    chunk = draw(st.sampled_from(sorted({1, 2, nbar - 1, nbar, nbar + 1} - {0})))
    n = draw(st.integers(max(chunk, nbar) + 2, 4 * chunk + nbar + 2))
    edge = chunk * draw(st.integers(1, (n - 1) // chunk))  # a later block's first row
    stuck = {0, edge + draw(st.sampled_from((-1, 0)))}
    trucks, arrival = [], 0.0
    for k in range(n):
        arrival += draw(st.sampled_from((0.5, 2.0, 5.0, 30.0)))
        kind = "stuck" if k in stuck else draw(st.sampled_from(("ft", "et", "stuck")))
        if kind == "ft":
            trucks.append(ft(k, arrival))
        elif kind == "et":
            trucks.append(et(k, arrival, soc=draw(st.floats(60.0, 100.0))))
        else:
            trucks.append(et(k, arrival, soc=draw(st.floats(93.0, 100.0)),
                             vrate=UNLEADABLE_VRATE))
    return prepare(trucks), nbar, chunk


class TestBookkeepingAgainstListKernel:
    """The kernel's preallocated outputs and its `updates` correction against
    the list-based bookkeeping of `reference_list_kernel`, on fleets with
    prefixes that have no schedule at rank 0 and next to a block edge."""

    @settings(max_examples=150, deadline=None)
    @given(_stuck_fleets())
    def test_stuck_prefixes_near_block_edges(self, case):
        prepared, nbar, chunk = case
        arr, horizon = prepared.arrays, REF_ROUTE.horizon
        assert list(prepared.ids) == list(range(len(prepared)))
        with mock.patch.object(kernels, "CHUNK_ROWS", chunk):
            for draw in (None, partial(leader_draw_bits, 5)):
                want = reference_list_kernel(arr, REF_ECON, nbar, horizon, draw)
                assert np.isneginf(want[0][1])
                got = run_dp_kernel(arr, REF_ECON, nbar, horizon, draw)
                assert _kernel_outputs_equal(got, want), (chunk, draw)


class TestGeneratedRecursion:
    def test_written_once_per_width(self):
        assert kernels._value_recursion(3) is kernels._value_recursion(3)
        assert kernels._value_recursion(3) is not kernels._value_recursion(4)

    def test_ties_go_to_the_smaller_platoon(self):
        values, picks = [0.0], [-1]
        kernels._value_recursion(2)([[1.0, -np.inf], [2.0, 3.0], [-np.inf, -np.inf]],
                                    [0.0, -np.inf], values, picks)
        assert values == [0.0, 1.0, 3.0, -np.inf] and picks == [-1, 0, 0, -1]
