"""What the solve benchmark's traced run relies on in the package.

`solvebench/spans.py` wraps package names where the calling module looks them
up, and its span notes read the wrapped calls' results. A renamed or unbound
name, or a `FleetArrays` field without `.nbytes`, passes every other test and
fails only inside the benchmark; these tests catch both here. The module is
loaded read-only from its file; nothing under `solvebench/` is changed.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from platoon_coord import (
    ScenarioConfig,
    baselines,
    cli,
    dp,
    generate,
    prepare_fleet,
    scenario,
    solution,
)
from platoon_coord.kernels import fleet_arrays
from conftest import REF_ROUTE, et, ft, prepare

SPANS_PATH = Path(__file__).resolve().parent.parent / "solvebench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    loader = importlib.util.spec_from_file_location("solvebench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def targets(spans):
    return spans.layer_targets(SimpleNamespace(
        scenario=scenario, cli=cli, dp=dp, baselines=baselines, solution=solution))


def test_every_traced_name_is_bound_where_it_is_looked_up(spans):
    for holder, attr, name, _ in targets(spans):
        assert attr in holder.__dict__, f"{name}: {holder.__name__}.{attr} is not bound"


@pytest.mark.parametrize("prepared", [
    prepare([ft(0, 0.0)]),
    prepare([ft(0, 0.0), et(1, 3.0, soc=40.0)]),
    prepare_fleet(generate(ScenarioConfig(n_trucks=60, seed=2))),
])
def test_fleet_arrays_fields_have_nbytes(spans, prepared):
    # The scalar pricer's lists live on the fleet, not among the arrays.
    prepared.column_lists()
    arr = fleet_arrays(prepared, REF_ROUTE)
    assert all(hasattr(col, "nbytes") for col in vars(arr).values())
    assert spans._array_bytes((prepared, REF_ROUTE), {}, arr) >= 0


def test_traced_solves_record_their_spans(spans):
    """Every method runs under the installed wrappers, the originals come
    back afterwards, each dp solve looks its columns up once through the
    traced `fleet_arrays` (the benchmark reads that span's bytes), and each
    baseline still prices through the traced `evaluate_platoon` (the
    benchmark divides by that call count), its members first: the span's
    note, the length of the first positional argument, sums to the fleet
    size over a baseline's solve."""
    inst = generate(ScenarioConfig(n_trucks=80, seed=4))
    prepared = prepare_fleet(inst)
    route, econ = inst.route, inst.econ
    before = {(holder, attr): holder.__dict__[attr]
              for holder, attr, _, _ in targets(spans)}
    tracer = spans.Tracer()
    tracer.install(targets(spans))
    try:
        runs = {
            "dp-ls": lambda: dp.solve_dp_ls(prepared, route, econ),
            "dp-nls": lambda: dp.solve_dp_nls(prepared, route, econ, 1),
            "spontaneous": lambda: baselines.solve_spontaneous(prepared, route, econ, 1),
            "fixed-interval": lambda: baselines.solve_fixed_interval(
                prepared, route, econ, 30.0, 1),
        }
        for method, run in runs.items():
            first = len(tracer.spans)
            tracer.call(f"solve.{method}", run)
            agg = tracer.summarize(first)
            if method.startswith("dp"):
                assert agg["kernels.fleet_arrays"][0] == 1
                assert agg["kernels.fleet_arrays"][3] > 0
                assert agg["kernels.run_dp_kernel"][0] == 1
            else:
                assert agg["utility.evaluate_platoon"][0] >= 1
                assert agg["utility.evaluate_platoon"][3] == len(prepared)
    finally:
        tracer.uninstall()
    assert all(holder.__dict__[attr] is raw for (holder, attr), raw in before.items())
