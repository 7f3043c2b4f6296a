import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

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
from platoon_coord.dp import run_dp, solve_dp_ls, solve_dp_nls
from platoon_coord.kernels import (
    _candidate_table,
    fleet_arrays,
    leader_draw_bit,
    leader_draw_bits,
)
from platoon_coord.model import MONEY_TOL, TIME_TOL
from platoon_coord.utility import leader_type_for_kind
from conftest import ET_VRATE, REF_ECON, REF_ROUTE, et, fleet_instances, ft, prepare
from test_pricing import DEGENERATE


class TestBackendSelection:
    def test_backend_recorded_in_diagnostics(self):
        inst = generate(ScenarioConfig(n_trucks=6, seed=1, arrival_lo=1,
                                       arrival_hi=30, horizon=200.0))
        prepared = prepare_fleet(inst)
        sol = solve_dp_ls(prepared, inst.route, inst.econ)
        assert sol.diagnostics.backend == "numpy"


class TestLeaderDraws:
    def test_table_matches_scalar(self):
        bits = leader_draw_bits(99, 20, 8)
        for i in (0, 1, 7, 20):
            for n in (0, 1, 5, 8):
                assert bits[i, n] == leader_draw_bit(99, i, n)

    def test_deterministic(self):
        assert np.array_equal(leader_draw_bits(5, 30, 8), leader_draw_bits(5, 30, 8))

    def test_seed_changes_draws(self):
        assert not np.array_equal(leader_draw_bits(1, 200, 8), leader_draw_bits(2, 200, 8))

    def test_roughly_fair(self):
        bits = leader_draw_bits(42, 2000, 8)
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
    for end in range(1, len(prepared) + 1):
        for size in range(1, min(end, route.max_platoon_size) + 1):
            members = prepared[end - size:end]
            safe = {}
            for leader in (LeaderType.ELECTRIC, LeaderType.FUEL):
                if all(leader_type_for_kind(m.kind) is not leader for m in members):
                    continue
                p = evaluate_platoon(members, leader, route, econ)
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
    draws = leader_draw_bits(seed, arr.size, nbar)
    for mode, bits in ((0, np.zeros((1, 1), np.uint8)), (1, draws)):
        utility, leader, _, _ = _candidate_table(arr, econ, nbar, route.horizon,
                                                 mode, bits)
        assert np.isfinite(utility).sum() == sum(1 for safe in blocks.values() if safe)
        for (end, size), safe in blocks.items():
            got = utility[end - 1, size - 1].item()
            if not safe:
                assert got == -np.inf, (mode, end, size)
                continue
            kind = LeaderType.FUEL if leader[end - 1, size - 1] else LeaderType.ELECTRIC
            assert kind in safe, (mode, end, size)
            ref = evaluate_platoon(prepared[end - size:end], kind, route, econ)
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
