import copy
import math
import json
import pickle
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoon_coord import (
    ContractViolation,
    GenerationError,
    HorizonExceededError,
    InstanceFormatError,
    NoFeasibleScheduleError,
    ProblemInstance,
    ScenarioConfig,
    Solution,
    TruckKind,
    TruckSpec,
    generate,
    load_instance,
    prepare_fleet,
    save_instance,
    save_solution,
    solve_dp_ls,
    solve_dp_nls,
    solve_fixed_interval,
    solve_spontaneous,
)
from platoon_coord.cli import METHODS, main
from platoon_coord.model import FleetColumns
from platoon_coord.scenario import (
    _scalar,
    _texts,
    _truck_from_row,
    instance_text,
    solution_text,
    solution_to_json,
)
from conftest import REF_ECON, REF_ROUTE, et, fleet_instances, ft


DENSE = ScenarioConfig(n_trucks=2000, et_share=0.7, soc_lo=10.0, soc_hi=60.0,
                       arrival_hi=144, horizon=204.0, max_platoon_size=16, seed=3)


class TestGenerate:
    def test_reference_defaults(self):
        inst = generate(ScenarioConfig(seed=7))
        assert len(inst.trucks) == 1000
        n_et = sum(1 for t in inst.trucks if t.is_electric)
        assert n_et == 300
        assert all(1 <= t.arrival_time <= 1440 for t in inst.trucks)
        for t in inst.trucks:
            if t.is_electric:
                assert 10.0 <= t.initial_soc <= 100.0
        # Resampling keeps mandatory charging inside the horizon.
        prepared = prepare_fleet(inst)
        assert prepared.arrays.tau_delta.max() <= 1440.0

    def test_all_fuel(self):
        inst = generate(ScenarioConfig(n_trucks=40, et_share=0.0, seed=1))
        assert all(not t.is_electric for t in inst.trucks)

    def test_all_electric(self):
        inst = generate(ScenarioConfig(n_trucks=40, et_share=1.0, seed=1))
        assert all(t.is_electric for t in inst.trucks)

    def test_deterministic(self):
        cfg = ScenarioConfig(n_trucks=50, seed=13)
        assert generate(cfg) == generate(cfg)

    def test_ids_in_generation_order(self):
        inst = generate(ScenarioConfig(n_trucks=25, seed=3))
        assert [t.id for t in inst.trucks] == list(range(1, 26))

    def test_undersized_battery_rejected(self):
        with pytest.raises(GenerationError):
            generate(ScenarioConfig(n_trucks=10, et_share=0.5, max_soc=40.0, seed=0))

    def test_negative_seed_rejected(self):
        with pytest.raises(GenerationError, match="seed must be >= 0"):
            generate(ScenarioConfig(n_trucks=5, seed=-1))

    def test_impossible_horizon_exhausts_resampling(self):
        cfg = ScenarioConfig(n_trucks=5, et_share=0.0, arrival_lo=50,
                             arrival_hi=60, horizon=10.0, seed=0)
        with pytest.raises(GenerationError):
            generate(cfg)

    @pytest.mark.parametrize("change, message", [
        (dict(n_trucks=10.0), "n_trucks must be an integer, got 10.0"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(n_trucks=True), "n_trucks must be an integer, got True"),
        (dict(arrival_hi=1440.5), "arrival_hi must be an integer, got 1440.5"),
        (dict(arrival_lo=False), "arrival_lo must be an integer, got False"),
        (dict(arrival_lo=0, arrival_hi=2**32), "arrival_hi - arrival_lo must be below 2**32"),
        (dict(arrival_lo=2**63, arrival_hi=2**63),
         "arrival range must satisfy 0 <= lo <= hi < 2**63"),
    ], ids=["float-n", "float-seed", "bool-n", "float-arrival-hi", "bool-arrival-lo",
            "span-2**32", "beyond-int64"])
    def test_config_types_and_span_checked_up_front(self, change, message):
        with pytest.raises(GenerationError) as err:
            generate(replace(ScenarioConfig(n_trucks=10), **change))
        assert str(err.value) == message


def scalar_generate(config, redraws=None):
    """The fleet of `config` drawn truck by truck, with one scalar
    `rng.integers` and, for an ET, one `rng.uniform` call per attempt and a
    `TruckSpec` per truck: the loop `generate` decodes in columns, kept as
    its reference. Appends to `redraws` the number of attempts past the
    first, over all trucks."""
    follower_need = config.safe_soc + config.follower_coeff * config.discharge_rate * config.distance
    soc_lo = config.safe_soc if config.soc_lo is None else config.soc_lo
    soc_hi = config.max_soc if config.soc_hi is None else config.soc_hi
    rng = np.random.Generator(np.random.Philox(config.seed))
    n_et = int(round(config.n_trucks * config.et_share))
    et_positions = set(rng.permutation(config.n_trucks)[:n_et].tolist())
    trucks, extra = [], 0
    for pos in range(config.n_trucks):
        electric = pos in et_positions
        for attempt in range(1000):
            arrival = float(rng.integers(config.arrival_lo, config.arrival_hi + 1))
            if electric:
                soc = float(rng.uniform(soc_lo, soc_hi))
                charge = max(0.0, (follower_need - soc) / config.charge_rate)
            else:
                soc = None
                charge = 0.0
            if arrival + charge <= config.horizon:
                break
        else:
            raise GenerationError(
                f"could not draw truck {pos + 1} with earliest departure inside "
                f"the horizon after 1000 attempts"
            )
        extra += attempt
        if electric:
            trucks.append(TruckSpec(pos + 1, TruckKind.ELECTRIC, arrival, soc,
                                    config.charge_rate, config.discharge_rate,
                                    config.safe_soc, config.max_soc))
        else:
            trucks.append(TruckSpec(pos + 1, TruckKind.FUEL, arrival))
    if redraws is not None:
        redraws.append(extra)
    return ProblemInstance(trucks=tuple(trucks), route=config.route(), econ=config.econ(),
                           seed=config.seed)


def assert_generates_as_scalar_loop(cfg):
    """`generate` equals the scalar loop by `==`, by `repr`, in the type of
    every field and in the bytes of its instance file."""
    columnar, scalar = generate(cfg), scalar_generate(cfg)
    assert columnar == scalar and repr(columnar.trucks) == repr(scalar.trucks)
    assert ([list(map(type, t)) for t in columnar.trucks]
            == [list(map(type, t)) for t in scalar.trucks])
    assert instance_text(columnar, cfg) == reference_instance_text(scalar, cfg)


# ETs that arrive by minute 100 with 10-20 % need 35-44 min of charge before
# a 120-min horizon: about one ET draw in five is redrawn.
TIGHT = ScenarioConfig(n_trucks=1000, et_share=0.5, soc_lo=10.0, soc_hi=20.0,
                       arrival_hi=100, horizon=120.0, seed=3)
# With 2**31 + 1 arrival minutes, Lemire's method rejects about half the
# 32-bit draws, each of which moves every later draw in the stream.
LEMIRE = ScenarioConfig(n_trucks=300, arrival_lo=0, arrival_hi=2**31, horizon=2.0**32)
SCALAR_CASES = {
    **{f"ref-1k-{s}": ScenarioConfig(seed=s) for s in range(10)},
    **{f"dense-{s}": replace(DENSE, seed=s) for s in range(10)},
    **{f"tight-{s}": replace(TIGHT, n_trucks=300, seed=s) for s in range(3)},
    **{f"lemire-{s}": replace(LEMIRE, seed=s) for s in range(3)},
    # One kind only: a failed draw's retry takes the next truck's slot.
    "all-et-tight": replace(TIGHT, n_trucks=300, et_share=1.0, horizon=105.0),
    "all-ft-lemire": replace(LEMIRE, et_share=0.0),
    # An ET fits about one draw in 900 and an FT always, so ETs take
    # hundreds of draws across several windows; each starts a fresh count.
    "rare-et-fits": ScenarioConfig(n_trucks=200, et_share=0.02, charge_rate=0.01,
                                   soc_lo=12.904, soc_hi=13.004, arrival_lo=0,
                                   arrival_hi=4400, horizon=4400.0, seed=244),
    **{f"one-truck-{e}-{s}": ScenarioConfig(n_trucks=1, et_share=e, seed=s)
       for e in (0.0, 1.0) for s in range(3)},
    "all-ft": ScenarioConfig(n_trucks=300, et_share=0.0, seed=1),
    "all-et": ScenarioConfig(n_trucks=300, et_share=1.0, seed=1),
    "one-minute": ScenarioConfig(n_trucks=300, arrival_lo=5, arrival_hi=5, seed=2),
    "widest-span": ScenarioConfig(n_trucks=300, arrival_lo=0, arrival_hi=2**32 - 1,
                                  horizon=2.0**33, seed=2),
    "integer-fields": ScenarioConfig(n_trucks=300, et_share=0.6, charge_rate=2, safe_soc=5,
                                     max_soc=100, soc_lo=5, soc_hi=70, seed=4),
}


@st.composite
def scenario_configs(draw):
    """Small configs: any seed, spans from one minute to about 2**32, some
    horizons tight enough to force redraws or to exhaust them, integer and
    float battery fields."""
    lo = draw(st.integers(0, 100))
    span = draw(st.one_of(st.integers(0, 300), st.sampled_from((2**31, 3 * 2**30, 2**32 - 1))))
    horizon = lo + span + draw(st.sampled_from((0.5, 30.0, 60.0, 1000.0)))
    safe, cap = draw(st.sampled_from(((10.0, 100.0), (0, 100), (5.5, 90.0))))
    soc = sorted(draw(st.lists(st.floats(safe, cap), min_size=2, max_size=2)))
    soc_lo, soc_hi = draw(st.sampled_from(((None, None), tuple(soc))))
    return ScenarioConfig(n_trucks=draw(st.integers(1, 60)), et_share=draw(st.floats(0, 1)),
                          arrival_lo=lo, arrival_hi=lo + span, horizon=horizon,
                          charge_rate=draw(st.sampled_from((1.07, 2, 0.3))), safe_soc=safe,
                          max_soc=cap, soc_lo=soc_lo, soc_hi=soc_hi,
                          seed=draw(st.one_of(st.integers(0, 20), st.integers(0, 2**64))))


def outcome(draw_fleet, cfg):
    try:
        return draw_fleet(cfg), None
    except GenerationError as exc:
        return None, str(exc)


class TestColumnarGenerate:
    @pytest.mark.parametrize("cfg", SCALAR_CASES.values(), ids=SCALAR_CASES)
    def test_equals_the_scalar_loop(self, cfg):
        assert_generates_as_scalar_loop(cfg)

    @pytest.mark.parametrize("cfg", [ScenarioConfig(seed=0), TIGHT, LEMIRE],
                             ids=["ref-1k", "tight", "lemire"])
    def test_cases_reach_redraws(self, cfg):
        """The sweep above redraws trucks; Lemire rejections are not counted
        as redraws, so the Lemire case is pinned by its rejection threshold."""
        redraws = []
        scalar_generate(cfg, redraws)
        span = cfg.arrival_hi - cfg.arrival_lo
        assert redraws[0] > 0 or (2**32 - 1 - span) % (span + 1) > 2**30

    @settings(max_examples=80, deadline=None)
    @given(scenario_configs())
    def test_random_configs_equal_the_scalar_loop(self, cfg):
        columnar, error = outcome(generate, cfg)
        scalar, expected = outcome(scalar_generate, cfg)
        assert error == expected
        if columnar is not None:
            assert columnar == scalar and repr(columnar.trucks) == repr(scalar.trucks)
            assert instance_text(columnar, cfg) == reference_instance_text(scalar, cfg)

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(n_trucks=5, et_share=0.0, arrival_lo=50, arrival_hi=60, horizon=10.0),
        # FTs leave at once; no ET can charge inside the horizon.
        ScenarioConfig(n_trucks=10, et_share=0.5, arrival_lo=0, arrival_hi=5, horizon=10.0,
                       soc_lo=10.0, soc_hi=10.0, seed=1),
        ScenarioConfig(n_trucks=10, et_share=0.5, arrival_lo=0, arrival_hi=0, horizon=10.0,
                       soc_lo=10.0, soc_hi=10.0, seed=1),
        # Few arrivals fit, so trucks take hundreds of draws each, and truck
        # 5, 8 and 26 (in turn) runs out after earlier trucks succeeded.
        ScenarioConfig(n_trucks=30, et_share=1.0, soc_lo=10.0, soc_hi=20.0, arrival_lo=0,
                       arrival_hi=3000, horizon=41.0, seed=5),
        ScenarioConfig(n_trucks=30, et_share=0.0, arrival_lo=0, arrival_hi=3000, horizon=2.0,
                       seed=3),
        ScenarioConfig(n_trucks=30, et_share=0.5, soc_lo=10.0, soc_hi=20.0, arrival_lo=0,
                       arrival_hi=1500, horizon=41.0, seed=5),
    ], ids=["first-truck", "first-et", "first-et-one-minute", "late-et", "late-ft",
            "late-mixed"])
    def test_resample_budget_message_unchanged(self, cfg):
        with pytest.raises(GenerationError) as err:
            generate(cfg)
        _, expected = outcome(scalar_generate, cfg)
        assert str(err.value) == expected
        assert expected.endswith("with earliest departure inside the horizon after "
                                 "1000 attempts")

    # Truck 1 of this fleet is an FT, so naming the first ET is a real check.
    BATTERY_FLEET = ScenarioConfig(n_trucks=20, et_share=0.5, seed=6)

    def first_et(self):
        return generate(self.BATTERY_FLEET).columns.electric.index(True) + 1

    def test_battery_fleet_starts_with_an_ft(self):
        assert self.first_et() > 1

    @pytest.mark.parametrize("change, message", [
        (dict(max_soc=120.0), "max_soc must be in (safe_soc, 100]"),
        (dict(safe_soc=-1.0), "safe_soc must be in [0, 100)"),
        (dict(discharge_rate=-0.1), "discharge_rate must be >= 0"),
        (dict(charge_rate=-1.0), "charge_rate must be > 0"),
        (dict(charge_rate=float("nan")), "charge_rate must be > 0"),
    ], ids=["max-soc", "safe-soc", "discharge-rate", "charge-rate", "nan-charge-rate"])
    def test_battery_faults_name_the_first_et(self, change, message):
        cfg = replace(self.BATTERY_FLEET, **change)
        with pytest.raises(ContractViolation) as expected:
            scalar_generate(cfg)
        with pytest.raises(ContractViolation) as err:
            generate(cfg)
        assert str(err.value) == str(expected.value) == f"truck {self.first_et()}: {message}"

    def test_zero_charge_rate_is_a_battery_fault(self):
        """The scalar loop divided by the rate before `TruckSpec` saw it."""
        cfg = replace(self.BATTERY_FLEET, charge_rate=0.0)
        with pytest.raises(ZeroDivisionError):
            scalar_generate(cfg)
        with pytest.raises(ContractViolation) as err:
            generate(cfg)
        assert str(err.value) == f"truck {self.first_et()}: charge_rate must be > 0"

    def test_generate_and_save_build_no_truck_records(self, truck_specs_built, tmp_path,
                                                      capsys):
        built = truck_specs_built
        inst = generate(DENSE)
        save_instance(inst, tmp_path / "dense.json", config=DENSE)
        out = tmp_path / "seed3.json"
        assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"seed 3: wrote 1000 trucks (700 FT, 300 ET) to {out}\n"
        prepared = prepare_fleet(inst)
        solve_dp_ls(prepared, inst.route, inst.econ)
        solve_dp_nls(prepared, inst.route, inst.econ, inst.seed)
        assert built == []
        assert (tmp_path / "dense.json").read_text(encoding="utf-8") == reference_instance_text(
            inst, DENSE)
        assert len(built) == 2000


class TestInstanceFiles:
    def test_round_trip_exact(self, tmp_path):
        cfg = ScenarioConfig(n_trucks=30, et_share=0.4, seed=21)
        inst = generate(cfg)
        path = tmp_path / "instance.json"
        save_instance(inst, path, config=cfg)
        assert load_instance(path) == inst
        doc = json.loads(path.read_text())
        assert doc["rng"] == "numpy-philox4x64"
        assert doc["config"]["n_trucks"] == 30

    @staticmethod
    def assert_dropped_knob_loads(tmp_path, knob, value):
        """Instance files written while `ScenarioConfig` still had `knob`
        carry it in `config`; new files do not, and old ones load unchanged."""
        cfg = ScenarioConfig(n_trucks=12, et_share=0.5, seed=3)
        inst = generate(cfg)
        path = tmp_path / "instance.json"
        save_instance(inst, path, config=cfg)
        doc = json.loads(path.read_text())
        assert knob not in doc["config"]
        doc["config"][knob] = value
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        loaded = load_instance(path)
        assert loaded == inst and repr(loaded) == repr(inst)

    def test_config_with_speed_kmh_loads(self, tmp_path):
        self.assert_dropped_knob_loads(tmp_path, "speed_kmh", 80.0)

    def test_config_with_interval_loads(self, tmp_path):
        """`interval` was never read by `generate`; `solve` and `compare` take
        `--interval`."""
        self.assert_dropped_knob_loads(tmp_path, "interval", 30.0)

    def test_byte_identical_writes(self, tmp_path):
        inst = generate(ScenarioConfig(n_trucks=20, seed=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, a)
        save_instance(inst, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,,}')
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert "line" in str(err.value)

    def test_unknown_version_rejected(self, tmp_path):
        inst = generate(ScenarioConfig(n_trucks=5, seed=1))
        path = tmp_path / "v9.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["version"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert "version" in str(err.value)

    def test_empty_fleet_rejected(self, tmp_path):
        inst = generate(ScenarioConfig(n_trucks=5, seed=1))
        path = tmp_path / "empty.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["trucks"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_missing_field_named(self, tmp_path):
        inst = generate(ScenarioConfig(n_trucks=5, et_share=0.4, seed=1))
        path = tmp_path / "missing.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        for row in doc["trucks"]:
            row.pop("arrival")
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert "arrival" in str(err.value)

    @pytest.mark.parametrize("key", ["ew", "xiF"])
    @pytest.mark.parametrize("spelling", ["Infinity", "1e999"])
    def test_infinite_price_refused_on_load(self, tmp_path, key, spelling):
        inst = generate(ScenarioConfig(n_trucks=20, seed=1))
        path = tmp_path / "prices.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["econ"][key] = math.inf
        path.write_text(json.dumps(doc).replace("Infinity", spelling))
        with pytest.raises(ContractViolation, match="must be >= 0 and finite"):
            load_instance(path)

    def test_cost_ordering_enforced_on_load(self, tmp_path):
        inst = generate(ScenarioConfig(n_trucks=5, seed=1))
        path = tmp_path / "costs.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["econ"]["ec"] = 0.9  # above the waiting cost
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_instance(path)


class TestSolutionFiles:
    def make_solution(self):
        inst = generate(ScenarioConfig(n_trucks=12, seed=3, arrival_lo=1,
                                       arrival_hi=60, horizon=200.0))
        prepared = prepare_fleet(inst)
        return solve_dp_ls(prepared, inst.route, inst.econ)

    def test_schema_shape(self):
        sol = self.make_solution()
        doc = solution_to_json(sol)
        assert doc["method"] == "DP-LS"
        assert set(doc["totals"]) == {"R", "L", "J"}
        platoon = doc["platoons"][0]
        assert set(platoon) == {"members", "leader_id", "leader_type", "depart", "ledger"}
        assert platoon["leader_type"] in ("E", "F")
        row = platoon["ledger"][0]
        assert {"id", "role", "charge", "wait"} <= set(row)
        ids = [r["id"] for p in doc["platoons"] for r in p["ledger"]]
        assert sorted(ids) == sorted(r.truck_id for p in sol.platoons for r in p.ledger)

    def test_timing_redacted_by_default(self, tmp_path):
        sol = self.make_solution()
        assert sol.diagnostics.solve_ms is not None
        path = tmp_path / "sol.json"
        save_solution(sol, path)
        doc = json.loads(path.read_text())
        assert doc["diagnostics"]["solve_ms"] is None
        save_solution(sol, path, include_timing=True)
        doc = json.loads(path.read_text())
        assert doc["diagnostics"]["solve_ms"] > 0

    def test_byte_identical_writes(self, tmp_path):
        sol = self.make_solution()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_solution(sol, a)
        save_solution(sol, b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_does_not_hold_the_whole_file(self, tmp_path):
        """Writing a file holds its write buffer, not the whole text."""
        inst = generate(ScenarioConfig(seed=0))
        sol = solve_dp_ls(prepare_fleet(inst), inst.route, inst.econ)
        n = len(inst.trucks)
        copies = [  # the fleet 40 times over, about 8 MB of text
            p._replace(ranks=tuple(r + k * n for r in p.ranks), leader_rank=p.leader_rank + k * n,
                       ledger=tuple(row._replace(rank=row.rank + k * n) for row in p.ledger))
            for k in range(40) for p in sol.platoons
        ]
        sol = Solution.from_platoons(sol.method, copies, sol.diagnostics)
        path = tmp_path / "sol.json"
        tracemalloc.start()
        try:
            save_solution(sol, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
        assert path.read_text(encoding="utf-8") == solution_text(sol)


def reference_doc(solution, include_timing=False):
    """The solution file's schema document, built field by field."""
    diag = solution.diagnostics
    return {
        "version": 1,
        "method": solution.method,
        "totals": {"R": solution.profit, "L": solution.loss, "J": solution.utility},
        "platoons": [
            {
                "members": [row.truck_id for row in p.ledger],
                "leader_id": p.leader_id,
                "leader_type": p.leader_type.value,
                "depart": p.departure_time,
                "ledger": [
                    {
                        "id": row.truck_id,
                        "role": row.role.value,
                        "charge": row.charge_time,
                        "wait": row.wait_time,
                        **(
                            {"soc_dep": row.departure_soc, "soc_arr": row.arrival_soc}
                            if row.departure_soc is not None else {}
                        ),
                    }
                    for row in p.ledger
                ],
            }
            for p in solution.platoons
        ],
        "diagnostics": {
            "platoon_sizes": {str(k): v for k, v in diag.platoon_sizes.items()},
            "et_led": diag.et_led,
            "ft_led": diag.ft_led,
            "dp_updates": diag.dp_updates,
            "dp_value": diag.dp_value,
            "solve_ms": diag.solve_ms if include_timing else None,
            "horizon_violation": diag.horizon_violation,
            "backend": diag.backend,
        },
    }


def reference_text(solution, include_timing=False):
    """What `json` writes for the schema document, with the final newline."""
    return json.dumps(reference_doc(solution, include_timing), indent=2,
                      sort_keys=True) + "\n"


def solve_all(instance):
    prepared = prepare_fleet(instance)
    route, econ, seed = instance.route, instance.econ, instance.seed
    yield solve_dp_ls(prepared, route, econ)
    yield solve_dp_nls(prepared, route, econ, seed)
    yield solve_spontaneous(prepared, route, econ, seed)
    yield solve_fixed_interval(prepared, route, econ, 30.0, seed)


def assert_text_matches_reference(solution):
    for timing in (False, True):
        assert solution_text(solution, timing) == reference_text(solution, timing)


class TestSolutionText:
    @pytest.mark.parametrize("cfg", [ScenarioConfig(seed=0), DENSE],
                             ids=["ref", "dense"])
    def test_every_method_matches_reference(self, cfg, tmp_path):
        for sol in solve_all(generate(cfg)):
            assert_text_matches_reference(sol)
            path = tmp_path / "sol.json"
            save_solution(sol, path)
            assert path.read_text(encoding="utf-8") == reference_text(sol)

    def test_integer_arrivals_are_written_as_floats(self):
        trucks = [ft(1, 3), ft(2, 3), et(3, 5, soc=80.0), ft(4, 9.0)]
        inst = ProblemInstance(trucks=tuple(trucks), route=REF_ROUTE, econ=REF_ECON)
        sols = list(solve_all(inst))
        for sol in sols:
            assert_text_matches_reference(sol)
        text = solution_text(sols[2])  # spontaneous
        assert '"depart": 3.0,' in text and '"wait": 0.0\n' in text
        assert '"depart": 3,' not in text and '"wait": 0\n' not in text

    def test_platoon_sizes_sort_as_strings(self):
        trucks = [ft(k, 0.0) for k in range(10)] + [ft(10, 600.0), ft(11, 600.0)]
        route = replace(REF_ROUTE, max_platoon_size=16)
        inst = ProblemInstance(trucks=tuple(trucks), route=route, econ=REF_ECON)
        sol = solve_dp_ls(prepare_fleet(inst), route, REF_ECON)
        assert sol.diagnostics.platoon_sizes == {2: 1, 10: 1}
        assert_text_matches_reference(sol)
        assert '"10": 1,\n      "2": 1\n' in solution_text(sol)

    def test_baseline_diagnostics_are_null(self):
        sol = solve_spontaneous(prepare_fleet(generate(ScenarioConfig(n_trucks=30, seed=2))),
                                REF_ROUTE, REF_ECON, 0)
        text = solution_text(sol)
        for field in ("backend", "dp_updates", "dp_value"):
            assert f'"{field}": null,' in text
        assert_text_matches_reference(sol)

    def test_horizon_violation(self):
        inst = ProblemInstance(trucks=(ft(1, 1430.0), ft(2, 1435.0)), route=REF_ROUTE,
                               econ=REF_ECON)
        sol = solve_fixed_interval(prepare_fleet(inst), REF_ROUTE, REF_ECON, 100.0, 0)
        assert sol.diagnostics.horizon_violation
        assert '"horizon_violation": true,' in solution_text(sol)
        assert_text_matches_reference(sol)

    def test_no_platoons(self):
        sol = Solution.from_platoons("DP-LS", [])
        text = solution_text(sol)
        assert '"platoons": [],' in text and '"platoon_sizes": {},' in text
        assert_text_matches_reference(sol)

    def test_numpy_and_non_finite_values(self):
        inst = ProblemInstance(trucks=(et(1, 0.0, soc=80.0), ft(2, 0.0)),
                               route=REF_ROUTE, econ=REF_ECON)
        sol = solve_dp_ls(prepare_fleet(inst), REF_ROUTE, REF_ECON)
        (p,) = sol.platoons
        electric, fuel = sorted(p.ledger, key=lambda row: row.departure_soc is None)
        ledger = (electric._replace(charge_time=np.float64(1.25), departure_soc=float("inf"),
                                    arrival_soc=np.float64(-0.0)),
                  fuel._replace(wait_time=float("nan")))
        sol = Solution.from_platoons(sol.method, [p._replace(
            ledger=ledger, departure_time=np.float64(7.5), profit=np.float64(p.profit),
            loss=float("-inf"))], sol.diagnostics)
        sol.diagnostics.dp_value = float("nan")
        sol.diagnostics.solve_ms = np.float64(2.5)
        text = solution_text(sol, include_timing=True)
        for fragment in ('"charge": 1.25,', '"soc_dep": Infinity,', '"soc_arr": -0.0,',
                         '"wait": NaN\n', '"depart": 7.5,', '"L": -Infinity,',
                         '"dp_value": NaN,', '"solve_ms": 2.5\n'):
            assert fragment in text
        assert_text_matches_reference(sol)

    @pytest.mark.parametrize("values", [
        [], [1.5, -0.0, 1e-07], [1.5, float("nan")], [2.0, float("-inf")], [1e308, 1e308],
        [1, 2, 3], [1, True], [False], [1, 2.0], [np.float64(2.5), 1.0], ["a", None],
    ])
    def test_columns_render_as_scalars(self, values):
        """A column renders as its values one by one would: the fast paths
        take only exact finite floats and exact ints."""
        assert _texts(values) == [_scalar(v) for v in values]

    @settings(max_examples=60, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        try:
            prepared = prepare_fleet(instance)
        except HorizonExceededError:
            return
        route, econ, seed = instance.route, instance.econ, instance.seed
        for solve in (lambda: solve_dp_ls(prepared, route, econ),
                      lambda: solve_dp_nls(prepared, route, econ, seed),
                      lambda: solve_spontaneous(prepared, route, econ, seed),
                      lambda: solve_fixed_interval(prepared, route, econ, 30.0, seed)):
            try:
                sol = solve()
            except NoFeasibleScheduleError:
                continue
            assert_text_matches_reference(sol)

    def test_solution_to_json_parses_the_text(self):
        sol = solve_dp_ls(prepare_fleet(generate(ScenarioConfig(n_trucks=40, seed=1))),
                          REF_ROUTE, REF_ECON)
        assert solution_to_json(sol, True) == reference_doc(sol, True)


def reference_instance_doc(instance, config=None):
    """The instance file's schema document, built field by field."""
    def truck(t):
        row = {"id": t.id, "kind": t.kind.value, "arrival": t.arrival_time}
        if t.is_electric:
            row.update(soc0=t.initial_soc, rate=t.charge_rate, vrate=t.discharge_rate,
                       safe=t.safe_soc, max=t.max_soc)
        return row

    return {
        "version": 1,
        "rng": "numpy-philox4x64",
        "config": asdict(config) if config is not None else None,
        "seed": instance.seed,
        "route": {
            "d": instance.route.distance,
            "T": instance.route.horizon,
            "nbar": instance.route.max_platoon_size,
            "beta_f": instance.route.follower_coeff,
        },
        "econ": {
            "ew": instance.econ.wait_cost,
            "ec": instance.econ.charge_cost,
            "xiE": instance.econ.et_follower_profit,
            "xiF": instance.econ.ft_follower_profit,
        },
        "trucks": [truck(t) for t in instance.trucks],
    }


def reference_instance_text(instance, config=None):
    """What `json` writes for the instance document, with the final newline."""
    return json.dumps(reference_instance_doc(instance, config), indent=2,
                      sort_keys=True) + "\n"


def assert_instance_matches_reference(instance, config=None):
    assert instance_text(instance, config) == reference_instance_text(instance, config)


class TestInstanceText:
    @pytest.mark.parametrize("cfg", [ScenarioConfig(seed=0), DENSE],
                             ids=["ref", "dense"])
    def test_generated_fleets_match_reference(self, cfg, tmp_path):
        inst = generate(cfg)
        path = tmp_path / "fleet.json"
        for config in (cfg, None):
            assert_instance_matches_reference(inst, config)
            save_instance(inst, path, config=config)
            assert path.read_text(encoding="utf-8") == reference_instance_text(inst, config)

    @settings(max_examples=60, deadline=None)
    @given(fleet_instances())
    def test_random_fleets(self, instance):
        assert_instance_matches_reference(instance)
        assert_instance_matches_reference(
            instance, ScenarioConfig(n_trucks=len(instance.trucks), seed=instance.seed))

    def test_integer_arrivals_stay_integers(self):
        inst = ProblemInstance(trucks=(ft(1, 3), et(2, 5, soc=80.0), ft(3, 9.0)),
                               route=REF_ROUTE, econ=REF_ECON, seed=2)
        assert_instance_matches_reference(inst)
        text = instance_text(inst)
        assert '"arrival": 3,' in text and '"arrival": 5,' in text
        assert '"arrival": 9.0,' in text and '"seed": 2,' in text

    def test_string_ids_numpy_and_non_finite_values(self):
        trucks = (et("e\u00e9", 0.0, soc=np.float64(55.5), rate=np.float64(1.25)),
                  ft("f-2", float("inf")), ft(3, 7.0))
        inst = ProblemInstance(trucks=trucks, route=REF_ROUTE, econ=REF_ECON)
        assert_instance_matches_reference(inst)
        text = instance_text(inst)
        for fragment in ('"id": "e\\u00e9",', '"soc0": 55.5,', '"rate": 1.25,',
                         '"arrival": Infinity,', '"id": "f-2",'):
            assert fragment in text

    def test_save_does_not_hold_the_whole_file(self, tmp_path):
        """Writing an instance holds its write buffer, not the whole text."""
        base = generate(ScenarioConfig(seed=0)).trucks * 80  # 80k trucks, about 8 MB
        inst = ProblemInstance(trucks=tuple(t._replace(id=k) for k, t in enumerate(base, 1)),
                               route=REF_ROUTE, econ=REF_ECON)
        path = tmp_path / "fleet.json"
        tracemalloc.start()
        try:
            save_instance(inst, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
        assert path.read_text(encoding="utf-8") == instance_text(inst)

    def test_save_from_columns_does_not_hold_the_whole_file(self, tmp_path):
        """A generated instance is written from slices of its columns, as a
        record-built one of the same trucks is, byte for byte."""
        cfg = ScenarioConfig(n_trucks=80_000, arrival_hi=115_200, horizon=115_260.0)
        inst = generate(cfg)
        path = tmp_path / "fleet.json"
        tracemalloc.start()
        try:
            save_instance(inst, path, config=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
        assert inst._trucks is None
        records = ProblemInstance(trucks=inst.trucks, route=inst.route, econ=inst.econ,
                                  seed=inst.seed)
        assert instance_text(records, cfg) == path.read_text(encoding="utf-8")

    @settings(max_examples=60, deadline=None)
    @given(fleet_instances())
    def test_random_fleets_render_from_columns(self, instance):
        columnar = ProblemInstance._from_columns(FleetColumns.from_trucks(instance.trucks),
                                                 instance.route, instance.econ, instance.seed)
        assert instance_text(columnar) == reference_instance_text(instance)

    def test_columns_of_any_scalar_render_as_records(self):
        trucks = (et("eé", 0.0, soc=np.float64(55.5), rate=np.float64(1.25)),
                  ft("f-2", float("inf")), ft(3, 7), et(4, 2, soc=80, max_soc=100))
        columnar = ProblemInstance._from_columns(FleetColumns.from_trucks(trucks), REF_ROUTE,
                                                 REF_ECON)
        inst = ProblemInstance(trucks=trucks, route=REF_ROUTE, econ=REF_ECON)
        assert instance_text(columnar) == reference_instance_text(inst) == instance_text(inst)


DATA = Path(__file__).parent / "data"
INSTANCE_FILES = sorted(p for p in DATA.glob("*.json") if p.name != "golden-digests.json")


def per_row_trucks(path):
    """The trucks of an instance file read by `_truck_from_row`, one row at
    a time: the reference the columnar loader must equal."""
    rows = json.loads(Path(path).read_text(encoding="utf-8"))["trucks"]
    return tuple(_truck_from_row(row, f"{path}: trucks[{k}]") for k, row in enumerate(rows))


def assert_loads_as_per_row(path):
    """The loaded instance's trucks equal the per-row path's field for field,
    by `repr`, and in the type of every field (an int arrival stays an int)."""
    loaded = load_instance(path)
    expected = per_row_trucks(path)
    assert loaded.trucks == expected and repr(loaded.trucks) == repr(expected)
    assert [list(map(type, t)) for t in loaded.trucks] == [list(map(type, t)) for t in expected]
    return loaded


class TestLoaderFastPath:
    @pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.stem)
    def test_committed_files_equal_the_per_row_path(self, path):
        assert len(INSTANCE_FILES) == 3
        assert_loads_as_per_row(path)

    @settings(max_examples=60, deadline=None)
    @given(fleet_instances())
    def test_random_fleets_equal_the_per_row_path(self, tmp_path_factory, instance):
        path = tmp_path_factory.mktemp("fleet") / "fleet.json"
        save_instance(instance, path)
        loaded = assert_loads_as_per_row(path)
        assert loaded == instance and repr(loaded) == repr(instance)
        assert hash(loaded) == hash(instance)

    def test_dp_solve_builds_no_truck_records(self, truck_specs_built, tmp_path):
        """From the file to the solution file, a dp solve reads the fleet's
        columns only; the `TruckSpec`s are built when they are asked for."""
        path, out = DATA / "dense-ties-300.json", tmp_path / "solution.json"
        built = truck_specs_built
        instance = load_instance(path)
        prepared = prepare_fleet(instance)
        save_solution(solve_dp_ls(prepared, instance.route, instance.econ), out)
        save_solution(solve_dp_nls(prepared, instance.route, instance.econ, 3), out)
        assert main(["solve", str(path), "--method", "dp-ls", "--out", str(out)]) == 0
        assert hash(instance) == hash(load_instance(path))
        assert built == []
        assert instance.trucks == per_row_trucks(path) and len(built) == 2 * 300

    @pytest.mark.parametrize("clone", [
        lambda i: pickle.loads(pickle.dumps(i)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("source", ["loaded", "constructed"])
    def test_instances_pickle_and_copy(self, clone, source):
        path = DATA / "integer-arrivals-200.json"
        instance = load_instance(path)
        if source == "constructed":
            instance = ProblemInstance(trucks=per_row_trucks(path), route=instance.route,
                                       econ=instance.econ, seed=instance.seed)
        again = clone(instance)
        assert type(again) is ProblemInstance and again is not instance
        assert again == instance and hash(again) == hash(instance)
        assert repr(again) == repr(instance) == repr(load_instance(path))
        assert prepare_fleet(again) == prepare_fleet(instance)
        with pytest.raises(AttributeError):
            again.seed = 5

    @pytest.mark.parametrize("clone", [
        lambda i: pickle.loads(pickle.dumps(i)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_build_no_truck_specs(self, clone, truck_specs_built):
        """A generated instance and its prepared fleet pickle and copy by
        their columns: no `TruckSpec` is built, and each copy is equal and
        prints alike. A `TruckSpec`-built instance keeps its int fields."""
        instance = generate(ScenarioConfig(n_trucks=200, seed=3))
        prepared = prepare_fleet(instance)
        again, fleet = clone(instance), clone(prepared)
        assert truck_specs_built == []
        assert again == instance and repr(again) == repr(instance)
        assert fleet == prepared and repr(fleet) == repr(prepared)
        ints = ProblemInstance(trucks=(ft(1, 4), et(2, 7, soc=50, max_soc=100), ft(3, 0)),
                               route=REF_ROUTE, econ=REF_ECON)
        copied = clone(ints)
        assert copied == ints and repr(copied) == repr(ints)
        assert [type(t.arrival_time) for t in copied.trucks] == [int, int, int]

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(n_trucks=200, seed=5),
        ScenarioConfig(n_trucks=60, et_share=1.0, seed=2),
        ScenarioConfig(n_trucks=60, et_share=0.0, seed=2),
        replace(DENSE, n_trucks=300),
    ], ids=["ref", "all-et", "all-ft", "dense"])
    def test_round_trip_equals_slow_path(self, cfg, tmp_path):
        inst = generate(cfg)
        path = tmp_path / "fleet.json"
        save_instance(inst, path, config=cfg)
        loaded = load_instance(path)
        assert loaded == inst and repr(loaded) == repr(inst)
        rows = json.loads(path.read_text())["trucks"]
        for k, row in enumerate(rows):
            slow = _truck_from_row(row, f"trucks[{k}]")
            assert slow == loaded.trucks[k] and repr(slow) == repr(loaded.trucks[k])

    def edit(self, tmp_path, change):
        inst = generate(ScenarioConfig(n_trucks=6, et_share=0.5, seed=4))
        path = tmp_path / "fleet.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        return path, doc

    @pytest.mark.parametrize("truck_id", ["true", False, None, 2.5])
    def test_any_scalar_id_loads_as_on_the_per_row_path(self, tmp_path, truck_id):
        """Ids are not numeric fields: a boolean, a string that spells one,
        null and a float load as they are, on both paths."""
        path, _ = self.edit(tmp_path, lambda d: d["trucks"][1].update(id=truck_id))
        trucks = list(generate(ScenarioConfig(n_trucks=6, et_share=0.5, seed=4)).trucks)
        trucks[1] = trucks[1]._replace(id=truck_id)
        loaded = assert_loads_as_per_row(path).trucks
        assert loaded == tuple(trucks) and repr(loaded) == repr(tuple(trucks))
        assert type(loaded[1].id) is type(truck_id)

    def test_boolean_id_equal_to_another_is_a_duplicate(self, tmp_path):
        """`true` equals the id 1 of another truck, on both paths."""
        path, _ = self.edit(tmp_path, lambda d: d["trucks"][1].update(id=True))
        with pytest.raises(ContractViolation, match="^truck ids must be unique$"):
            load_instance(path)
        inst = generate(ScenarioConfig(n_trucks=6, et_share=0.5, seed=4))
        with pytest.raises(ContractViolation, match="^truck ids must be unique$"):
            ProblemInstance(trucks=per_row_trucks(path), route=inst.route, econ=inst.econ)

    @pytest.mark.parametrize("kind, field, value", [
        ("ET", "rate", "5"), ("FT", "arrival", "5"), ("ET", "soc0", None),
        ("FT", "arrival", None), ("FT", "arrival", float("nan")),
        ("ET", "max", float("nan")), ("ET", "vrate", -0.5), ("ET", "safe", True),
    ])
    def test_faults_give_the_per_row_message(self, tmp_path, kind, field, value):
        """A file whose columns fail a check is read row by row, so the
        first faulty row is reported with the per-row path's message: its
        place in the file for a field of the wrong type, its id for a value
        out of range."""
        def change(doc):
            next(r for r in doc["trucks"] if r["kind"] == kind)[field] = value
        path, doc = self.edit(tmp_path, change)
        k = next(k for k, r in enumerate(doc["trucks"]) if r["kind"] == kind)
        with pytest.raises(ValueError) as expected:
            _truck_from_row(doc["trucks"][k], f"{path}: trucks[{k}]")
        with pytest.raises(type(expected.value)) as err:
            load_instance(path)
        assert str(err.value) == str(expected.value)

    def test_unhashable_kind_is_unknown(self, tmp_path):
        path, _ = self.edit(tmp_path, lambda d: d["trucks"][2].update(kind=["ET"]))
        with pytest.raises(InstanceFormatError, match=r"trucks\[2\]: unknown kind \['ET'\]"):
            load_instance(path)

    def test_fuel_row_ignores_battery_keys(self, tmp_path):
        def add_battery(doc):
            row = next(r for r in doc["trucks"] if r["kind"] == "FT")
            row.update(soc0=50.0, rate=1.0, vrate=0.2, safe=10.0, max=100.0)
        path, doc = self.edit(tmp_path, add_battery)
        k = next(k for k, r in enumerate(doc["trucks"]) if "soc0" in r and r["kind"] == "FT")
        truck = load_instance(path).trucks[k]
        assert not truck.is_electric and truck.initial_soc is None

    @pytest.mark.parametrize("kind, field", [("ET", "soc0"), ("FT", "arrival"),
                                             ("FT", "id")])
    def test_row_missing_field(self, tmp_path, kind, field):
        def drop(doc):
            next(r for r in doc["trucks"] if r["kind"] == kind).pop(field)
        path, doc = self.edit(tmp_path, drop)
        k = next(k for k, r in enumerate(doc["trucks"])
                 if r["kind"] == kind and field not in r)
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert str(err.value).endswith(f"trucks[{k}]: missing field '{field}'")


MALFORMED = {
    "row is a string": (lambda d: d["trucks"].__setitem__(0, "kind"), "trucks[0]"),
    "row is a number": (lambda d: d["trucks"].__setitem__(0, 5), "trucks[0]"),
    "route is a string": (lambda d: d.__setitem__("route", "d T"), "'route'"),
    "econ is a string": (lambda d: d.__setitem__("econ", "ew ec"), "'econ'"),
    "arrival is a string": (lambda d: d["trucks"][1].update(arrival="5"), "trucks[1]"),
    "arrival is null": (lambda d: d["trucks"][1].update(arrival=None), "trucks[1]"),
    "soc0 is a string": (lambda d: d["trucks"][0].update(soc0="x"), "trucks[0]"),
    "distance is a string": (lambda d: d["route"].update(d="200"), "route"),
    "charge cost is null": (lambda d: d["econ"].update(ec=None), "econ"),
    "seed is a string": (lambda d: d.__setitem__("seed", "5"), "'seed'"),
    "id is a list": (lambda d: d["trucks"][1].update(id=[2]), "truck ids"),
    "nbar is a float": (lambda d: d["route"].update(nbar=8.0), "route: field 'nbar'"),
    "nbar is a boolean": (lambda d: d["route"].update(nbar=True), "route: field 'nbar'"),
    "seed is a float": (lambda d: d.__setitem__("seed", 3.0), "field 'seed'"),
    "seed is a boolean": (lambda d: d.__setitem__("seed", False), "field 'seed'"),
    "version is a boolean": (lambda d: d.__setitem__("version", True), "field 'version'"),
    "version is a float": (lambda d: d.__setitem__("version", 1.0), "field 'version'"),
    **{f"route {key} is a boolean": (lambda d, key=key: d["route"].update({key: True}),
                                     f"route: field '{key}'")
       for key in ("d", "T", "beta_f")},
    **{f"econ {key} is a boolean": (lambda d, key=key: d["econ"].update({key: False}),
                                    f"econ: field '{key}'")
       for key in ("ec", "ew", "xiE", "xiF")},
    **{f"ET {key} is a boolean": (lambda d, key=key: d["trucks"][0].update({key: True}),
                                  f"trucks[0]: field '{key}'")
       for key in ("arrival", "soc0", "rate", "vrate", "safe", "max")},
    "FT arrival is a boolean": (lambda d: d["trucks"][2].update(arrival=True),
                                "trucks[2]: field 'arrival'"),
    # Integers that float64 cannot hold, which the solvers would convert.
    "FT arrival beyond float": (lambda d: d["trucks"][1].update(arrival=10**400),
                                "trucks[1]: field 'arrival' is beyond the float range"),
    "route d beyond float": (lambda d: d["route"].update(d=10**400),
                             "route: field 'd' is beyond the float range"),
    "econ xiF beyond float": (lambda d: d["econ"].update(xiF=10**400),
                              "econ: field 'xiF' is beyond the float range"),
}


class TestMalformedInstances:
    @pytest.fixture
    def instance_doc(self):
        trucks = (et(1, 0.0, soc=40.0), ft(2, 3.0), ft(3, 3.0))
        return ProblemInstance(trucks=trucks, route=REF_ROUTE, econ=REF_ECON)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_reported_with_context(self, name, instance_doc, tmp_path, capsys):
        change, context = MALFORMED[name]
        path = tmp_path / "bad.json"
        save_instance(instance_doc, path)
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=context.replace("[", r"\[")):
            load_instance(path)
        for method in METHODS:
            assert main(["solve", str(path), "--method", method]) == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(InstanceFormatError, match="not UTF-8 text"):
            load_instance(path)
        for method in METHODS:
            assert main(["solve", str(path), "--method", method]) == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text (")
