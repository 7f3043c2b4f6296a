import copy
import json
import pickle
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from platoon_coord import (
    ContractViolation,
    GenerationError,
    HorizonExceededError,
    InstanceFormatError,
    NoFeasibleScheduleError,
    ProblemInstance,
    ScenarioConfig,
    Solution,
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
from platoon_coord.scenario import (
    _scalar,
    _texts,
    _truck_from_row,
    instance_text,
    solution_text,
    solution_to_json,
)
from conftest import REF_ECON, REF_ROUTE, et, fleet_instances, ft


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
        assert all(p.earliest_departure <= 1440.0 for p in prepared)

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


DENSE = ScenarioConfig(n_trucks=2000, et_share=0.7, soc_lo=10.0, soc_hi=60.0,
                       arrival_hi=144, horizon=204.0, max_platoon_size=16, seed=3)


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
        assert len(INSTANCE_FILES) == 2
        assert_loads_as_per_row(path)

    @settings(max_examples=60, deadline=None)
    @given(fleet_instances())
    def test_random_fleets_equal_the_per_row_path(self, tmp_path_factory, instance):
        path = tmp_path_factory.mktemp("fleet") / "fleet.json"
        save_instance(instance, path)
        loaded = assert_loads_as_per_row(path)
        assert loaded == instance and repr(loaded) == repr(instance)
        assert hash(loaded) == hash(instance)

    def test_dp_solve_builds_no_truck_records(self, monkeypatch, tmp_path):
        """From the file to the solution file, a dp solve reads the fleet's
        columns only; the `TruckSpec`s are built when they are asked for."""
        path, out = DATA / "dense-ties-300.json", tmp_path / "solution.json"
        real = TruckSpec.__new__
        built = []
        monkeypatch.setattr(TruckSpec, "__new__", lambda cls, *args, **kwargs: (
            built.append(args or kwargs) or real(cls, *args, **kwargs)))
        instance = load_instance(path)
        prepared = prepare_fleet(instance)
        save_solution(solve_dp_ls(prepared, instance.route, instance.econ), out)
        save_solution(solve_dp_nls(prepared, instance.route, instance.econ, 3), out)
        assert main(["solve", str(path), "--method", "dp-ls", "--out", str(out)]) == 0
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
