import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from platoon_coord import cli, load_instance
from platoon_coord.cli import main


INTEGER_ARRIVALS = Path(__file__).parent / "data" / "integer-arrivals-200.json"
SRC = Path(cli.__file__).resolve().parents[1]


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    """The rows of a CSV file as dicts, the file closed."""
    return list(csv.DictReader(Path(path).read_text(encoding="utf-8").splitlines()))


def run_in_own_process(code, *argv):
    """Run `code` in a fresh interpreter that imports this package; returns
    its standard output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout


def record_calls(monkeypatch, name):
    """Replace `cli.<name>` with a wrapper that records the positional
    arguments of each call; returns the list they are appended to."""
    calls = []
    inner = getattr(cli, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)
    return calls


@pytest.fixture
def small_instance(tmp_path):
    path = tmp_path / "inst.json"
    assert run(["generate", "--seed", 3, "--n", 12, "--arrival-hi", 60,
                "--horizon", 200, "--out", path]) == 0
    return path


class TestGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run(["generate", "--seed", 7, "--n", 20, "--out", out]) == 0
        assert "20 trucks" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert len(doc["trucks"]) == 20

    def test_all_electric_flag(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["generate", "--seed", 1, "--n", 10, "--et-share", "1.0",
                    "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert all(t["kind"] == "ET" for t in doc["trucks"])

    def test_bad_config_exits_nonzero(self, tmp_path):
        assert run(["generate", "--n", 5, "--arrival-lo", 90, "--arrival-hi", 99,
                    "--horizon", 10, "--out", tmp_path / "x.json"]) == 1

    @pytest.mark.parametrize("argv", [
        ["generate", "--seed", -1, "--out", "x.json"],
        ["compare", "--seeds=-1", "--n", 5, "--out", "cmp"],
        ["compare", INTEGER_ARRIVALS, "--seeds=-2:1", "--out", "cmp"],
        ["solve", INTEGER_ARRIVALS, "--method", "dp-nls", "--seed", -1, "--out", "x.json"],
    ], ids=["generate", "compare", "compare-instance", "solve"])
    def test_negative_seed_exits_nonzero(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert list(tmp_path.iterdir()) == []


class TestSolve:
    @pytest.mark.parametrize("method", ["dp-ls", "dp-nls", "spontaneous", "fixed-interval"])
    def test_each_method_runs(self, small_instance, tmp_path, capsys, method):
        out = tmp_path / "sol.json"
        assert run(["solve", small_instance, "--method", method, "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "utility" in captured
        doc = json.loads(out.read_text())
        assert doc["platoons"]

    def test_oracle_check_passes(self, small_instance, capsys):
        assert run(["solve", small_instance, "--method", "dp-ls", "--oracle-check"]) == 0
        assert "oracle check" in capsys.readouterr().out

    def test_oracle_check_reuses_the_prepared_fleet(self, small_instance, monkeypatch):
        calls = record_calls(monkeypatch, "prepare_fleet")
        assert run(["solve", small_instance, "--method", "dp-ls", "--oracle-check"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_nan_field_is_an_error(self, small_instance, tmp_path, capsys, method):
        doc = json.loads(small_instance.read_text())
        next(t for t in doc["trucks"] if t["kind"] == "ET")["rate"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert '"rate": NaN' in path.read_text()
        out = tmp_path / "sol.json"
        assert run(["solve", path, "--method", method, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "charge_rate must be > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_tied_ids_that_cannot_be_ordered_are_an_error(self, tmp_path, capsys, method):
        doc = json.loads(INTEGER_ARRIVALS.read_text())
        a, b = doc["trucks"][20], doc["trucks"][169]  # the two fuel trucks arriving at 60
        assert a["kind"] == b["kind"] == "FT" and a["arrival"] == b["arrival"] == 60
        a["id"], b["id"] = "a", 2.5
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sol.json"
        assert run(["solve", path, "--method", method, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: trucks 'a' and 2.5 are ready at the same instant, and their ids "
            "cannot be ordered to break the tie\n")
        assert not out.exists()

    def test_oracle_check_rejects_other_methods(self, small_instance, tmp_path,
                                                monkeypatch, capsys):
        loads = record_calls(monkeypatch, "load_instance")
        out = tmp_path / "sol.json"
        for method in ("dp-nls", "spontaneous", "fixed-interval"):
            assert run(["solve", small_instance, "--method", method, "--oracle-check",
                        "--out", out]) == 2
            assert capsys.readouterr() == (
                "", "--oracle-check only applies to --method dp-ls\n"), method
        assert loads == [] and not out.exists()

    def test_timing_rejects_csv(self, small_instance, tmp_path, monkeypatch, capsys):
        loads = record_calls(monkeypatch, "load_instance")
        out = tmp_path / "sol.csv"
        assert run(["solve", small_instance, "--method", "dp-ls", "--format", "csv",
                    "--timing", "--out", out]) == 2
        assert capsys.readouterr() == ("", "--timing only applies to --format json\n")
        assert loads == [] and not out.exists()

    def test_csv_ledger_output(self, small_instance, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["solve", small_instance, "--method", "dp-ls",
                    "--format", "csv", "--out", out]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][:4] == ["platoon", "depart", "leader_id", "leader_type"]
        assert len(rows) == 13  # header + one row per truck

    def test_missing_instance_fails(self, tmp_path):
        assert run(["solve", tmp_path / "nope.json", "--method", "dp-ls"]) == 1

    def test_unknown_method_is_usage_error(self, small_instance):
        with pytest.raises(SystemExit) as err:
            run(["solve", small_instance, "--method", "magic"])
        assert err.value.code == 2


SOLVE_FORMATS = {"json": [], "csv": ["--format", "csv"], "timing": ["--timing"]}


def without_wall_clock(data):
    return b"".join(line for line in data.splitlines(keepends=True)
                    if b'"solve_ms"' not in line)


class TestReusedParser:
    """`main` parses with one parser per process, built on its first call."""

    def test_one_process_writes_what_a_process_per_call_writes(self, small_instance,
                                                                tmp_path, capsys):
        calls = [(method, fmt) for method in cli.METHODS for fmt in SOLVE_FORMATS]
        for method, fmt in calls:
            assert run(["solve", small_instance, "--method", method,
                        "--out", tmp_path / f"one-{method}.{fmt}", *SOLVE_FORMATS[fmt]]) == 0
        capsys.readouterr()
        for method, fmt in calls:
            own = tmp_path / f"own-{method}.{fmt}"
            run_in_own_process("import sys; from platoon_coord.cli import main; "
                               "sys.exit(main(sys.argv[1:]))",
                               "solve", small_instance, "--method", method,
                               "--out", own, *SOLVE_FORMATS[fmt])
            same = without_wall_clock if fmt == "timing" else bytes
            one = (tmp_path / f"one-{method}.{fmt}").read_bytes()
            assert same(one) == same(own.read_bytes()), (method, fmt)

    def test_options_do_not_carry_over(self, small_instance, monkeypatch, capsys):
        nls = record_calls(monkeypatch, "solve_dp_nls")
        fixed = record_calls(monkeypatch, "solve_fixed_interval")
        instance_seed = load_instance(small_instance).seed
        assert instance_seed != 5
        assert run(["solve", small_instance, "--method", "dp-nls", "--seed", 5]) == 0
        assert run(["solve", small_instance, "--method", "dp-nls"]) == 0
        assert run(["solve", small_instance, "--method", "fixed-interval",
                    "--interval", 0.1]) == 0
        assert run(["solve", small_instance, "--method", "fixed-interval"]) == 0
        assert [seed for *_, seed in nls] == [5, instance_seed]
        assert [interval for *_, interval, seed in fixed] == [0.1, 30.0]
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["load_instance", "prepare_fleet", "save_solution"])
    def test_names_replaced_after_the_first_call_are_used(self, small_instance, tmp_path,
                                                          monkeypatch, capsys, name):
        out = tmp_path / "sol.json"
        assert run(["solve", small_instance, "--method", "dp-ls", "--out", out]) == 0
        calls = record_calls(monkeypatch, name)
        assert run(["solve", small_instance, "--method", "dp-ls", "--out", out]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_parser_is_built_on_the_first_call_not_at_import(self):
        sizes = run_in_own_process(
            "import sys; from platoon_coord import cli; "
            "print(cli._parser.cache_info().currsize); "
            "cli.main(['verify', '--trials', '1', '--full-trials', '1']); "
            "print(cli._parser.cache_info().currsize)")
        assert sizes.split()[0] == "0" and sizes.split()[-1] == "1"


class TestCompare:
    def test_sweep_outputs(self, tmp_path, capsys):
        prefix = tmp_path / "cmp"
        assert run(["compare", "--seeds", "0:3", "--n", 20, "--arrival-hi", 120,
                    "--horizon", 300, "--out", prefix]) == 0
        rows = read_csv(f"{prefix}_summary.csv")
        assert len(rows) == 12  # 4 methods x 3 seeds
        assert set(rows[0]) == {"method", "seed", "R", "L", "J", "platoons",
                                "pct_size_6_8", "et_led", "ft_led", "solve_ms"}
        assert all(r["solve_ms"] == "" for r in rows)  # timing redacted
        leaders = read_csv(f"{prefix}_leaders.csv")
        assert len(leaders) == 3
        sizes = read_csv(f"{prefix}_sizes.csv")
        assert sizes

    def test_fixed_instance_forced_leaders(self, tmp_path):
        inst = tmp_path / "ft.json"
        assert run(["generate", "--seed", 2, "--n", 15, "--et-share", "0.0",
                    "--arrival-hi", 60, "--horizon", 200, "--out", inst]) == 0
        prefix = tmp_path / "cmp"
        assert run(["compare", inst, "--seeds", "0:4", "--out", prefix]) == 0
        rows = read_csv(f"{prefix}_summary.csv")
        by_method = {}
        for r in rows:
            by_method.setdefault(r["method"], []).append(r["J"])
        # Leader draws cannot matter without electric trucks.
        assert by_method["dp-ls"] == by_method["dp-nls"]

    @pytest.mark.parametrize("flags", [
        ["--n", 50, "--nbar", 3], ["--et-share", "0.5"], ["--arrival-lo", 1],
        ["--arrival-hi", 60], ["--horizon", 300], ["--distance", 150], ["--soc-lo", 20],
        ["--soc-hi", 90],
    ], ids=lambda flags: "".join(map(str, flags[::2])))
    def test_generator_flags_refused_with_instance(self, small_instance, tmp_path,
                                                   monkeypatch, capsys, flags):
        """A fixed instance is not generated: a generator flag given with it
        is refused before the instance is read, and nothing is written."""
        loads = record_calls(monkeypatch, "load_instance")
        assert run(["compare", small_instance, "--seeds", "0:2", *flags,
                    "--out", tmp_path / "cmp"]) == 2
        names = ", ".join(map(str, flags[::2]))
        assert capsys.readouterr() == (
            "", f"generator flags {names} only apply without an instance file\n")
        assert loads == [] and sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]

    def test_builds_no_truck_records(self, tmp_path, capsys, truck_specs_built):
        """Every method, the baselines included, prices the generated
        fleets from their columns: no `TruckSpec` is built."""
        assert run(["compare", "--seeds", "0:2", "--n", 200, "--out", tmp_path / "cmp"]) == 0
        assert len(read_csv(tmp_path / "cmp_summary.csv")) == 8
        assert truck_specs_built == []

    def test_seed_list_parsing(self, tmp_path):
        prefix = tmp_path / "cmp"
        assert run(["compare", "--seeds", "5,7", "--n", 10, "--arrival-hi", 60,
                    "--horizon", 200, "--out", prefix]) == 0
        rows = read_csv(f"{prefix}_summary.csv")
        assert sorted({r["seed"] for r in rows}) == ["5", "7"]

    @pytest.mark.parametrize("seeds, part", [("x", "x"), ("1:x", "1:x"), ("0, 2:", "2:")])
    def test_bad_seed_exits_nonzero(self, tmp_path, capsys, seeds, part):
        prefix = tmp_path / "cmp"
        assert run(["compare", f"--seeds={seeds}", "--n", 5, "--out", prefix]) == 1
        assert capsys.readouterr().err == f"error: bad seed {part!r} in {seeds!r}\n"
        assert not (tmp_path / "cmp_summary.csv").exists()


class TestVerify:
    def test_small_verification_sweep(self, capsys):
        assert run(["verify", "--trials", 8, "--full-trials", 4]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_builds_no_truck_records(self, capsys, truck_specs_built):
        """The oracles price the fleets they check from the columns too."""
        assert run(["verify"]) == 0
        assert capsys.readouterr().out.count("PASS") == 3
        assert truck_specs_built == []

    @pytest.mark.parametrize("trials, full_trials, message", [
        (-1, 0, "--trials must be >= 1, got -1"),
        (0, 4, "--trials must be >= 1, got 0"),
        (8, 0, "--full-trials must be >= 1, got 0"),
    ], ids=["negative", "zero", "zero-full"])
    def test_trial_counts_below_one_exit_nonzero(self, capsys, trials, full_trials,
                                                  message):
        assert run(["verify", "--trials", trials, "--full-trials", full_trials]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


class TestDeterminism:
    def test_generate_twice_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["generate", "--seed", 11, "--n", 30, "--out", a])
        run(["generate", "--seed", 11, "--n", 30, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_solve_twice_byte_identical(self, small_instance, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["solve", small_instance, "--method", "dp-nls", "--seed", 4, "--out", a])
        run(["solve", small_instance, "--method", "dp-nls", "--seed", 4, "--out", b])
        assert a.read_bytes() == b.read_bytes()
