"""One workload in one process: set up, warm up, time every operation and
check every output. run.py starts it and reads three marker lines from its
standard output: `@@solvebench ready` once the fleets are generated and
written, `@@solvebench speed <factor>` with the host-speed factor measured
right after (calibrate.py), and `@@solvebench result {...}` at the end.
Anything else on stdout (the CLI's own summary) is ignored.

    python3 solvebench/worker.py --role run --workload ref-1k --seed 0 \
        --seconds 10 --trace 0 --workdir .solvebench/work

`--role setup` stops after the speed line; run.py uses it for more samples
of the set-up time.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Importing the package is part of the timed set-up.
import numpy  # noqa: E402
from platoon_coord import baselines, cli, discretize, dp, scenario, solution  # noqa: E402

import spec  # noqa: E402
from calibrate import speed_factor  # noqa: E402
from reference import Fleet, Platoon, Row, Schedule, check_schedule, money_tol  # noqa: E402
from spans import Tracer, layer_targets  # noqa: E402

MARK = "@@solvebench"
TARGETS = layer_targets(SimpleNamespace(scenario=scenario, cli=cli, dp=dp,
                                        baselines=baselines, solution=solution))
ABOVE = {"dp-nls": "dp-ls", "spontaneous": "dp-nls", "fixed-interval": "dp-ls"}


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def schedule_of(sol):
    platoons = [
        Platoon(
            members=tuple(r.truck_id for r in p.ledger),
            leader_type=p.leader_type.value,
            leader_id=p.leader_id,
            depart=p.departure_time,
            rows=[Row(r.truck_id, r.role.value, r.charge_time, r.wait_time,
                      r.departure_soc, r.arrival_soc) for r in p.ledger],
        )
        for p in sol.platoons
    ]
    d = sol.diagnostics
    return Schedule(platoons, sol.profit, sol.loss, sol.utility,
                    d.dp_updates, d.dp_value, d.horizon_violation)


def schedule_of_file(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    platoons = [
        Platoon(
            members=tuple(p["members"]),
            leader_type=p["leader_type"],
            leader_id=p["leader_id"],
            depart=p["depart"],
            rows=[Row(r["id"], r["role"], r["charge"], r["wait"],
                      r.get("soc_dep"), r.get("soc_arr")) for r in p["ledger"]],
        )
        for p in doc["platoons"]
    ]
    t, d = doc["totals"], doc["diagnostics"]
    return Schedule(platoons, t["R"], t["L"], t["J"], d["dp_updates"],
                    d["dp_value"], d["horizon_violation"])


def fleet_median(samples):
    """Per name: each fleet's median figure, averaged over the fleets, so
    that every fleet weighs the same whatever its size. Times among the
    figures are already scaled to the nominal host speed (calibrate.py)."""
    per_name = defaultdict(list)
    for (name, _), values in samples.items():
        per_name[name].append(statistics.median(values))
    return {name: statistics.fmean(v) for name, v in per_name.items()}


def samples_per_op(samples):
    counts = defaultdict(int)
    for (op, _), values in samples.items():
        counts[op] += len(values)
    return dict(counts)


def candidates_scanned(n, nbar):
    """Candidates a full window scan visits: two leader kinds per (i, size)."""
    return 2 * sum(min(i, nbar) for i in range(1, n + 1))


class Case:
    """One fleet: its config, instance file and what the checks know of it."""

    def __init__(self, index, cfg, instance, path, out_path):
        self.index = index
        self.label = f"fleet seed {cfg.seed}"
        self.cfg = cfg
        self.instance = instance
        self.path = path
        self.out_path = out_path
        self.prepared = None
        self.ref = None
        self.optimum = None
        self.utility = {}       # J of the first solve per method
        self.first = {}         # digest of the first solve per method, checked in full
        self.file_digest = None  # bytes the dp-ls solution is written as
        self.file_checked = False


def make_case(cfg, work, k):
    instance = scenario.generate(cfg)
    path = work / f"fleet{k}.json"
    scenario.save_instance(instance, str(path), config=cfg)
    return Case(k, cfg, instance, path, work / f"solution{k}.json")


class Bench:
    def __init__(self, work, tracer):
        self.work = work
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        # (name, fleet index) -> figures; op_times per phase, untraced first.
        self.op_times = (defaultdict(list), defaultdict(list))
        self.layers = defaultdict(list)
        self.backends = set()
        # every timed operation: [traced, op, fleet, start, raw seconds, speed factor]
        self.times = []

    def report(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)

    def prepare(self, case):
        """Untimed: the prepared fleet, the reference and the reload check."""
        case.prepared = discretize.prepare_fleet(case.instance)
        case.ref = Fleet(case.instance)
        case.optimum = case.ref.consecutive_optimum()
        if scenario.load_instance(str(case.path)) != case.instance:
            self.correct = False
            self.report(f"{case.label}: the written instance does not reload "
                        "to the generated fleet")

    def invoke(self, case, op):
        inst, prep = case.instance, case.prepared
        route, econ, seed = inst.route, inst.econ, inst.seed
        if op == "dp-ls":
            return dp.solve_dp_ls(prep, route, econ)
        if op == "dp-nls":
            return dp.solve_dp_nls(prep, route, econ, seed)
        if op == "spontaneous":
            return baselines.solve_spontaneous(prep, route, econ, seed)
        if op == "fixed-interval":
            return baselines.solve_fixed_interval(prep, route, econ,
                                                  spec.INTERVAL_MIN, seed)
        return cli.main(["solve", str(case.path), "--method", "dp-ls",
                         "--out", str(case.out_path)])

    def attempt(self, case, op, record=True):
        gc.collect()
        factor = speed_factor()
        first = len(self.tracer.spans)
        start = time.perf_counter()
        try:
            if self.traced and op != "cli":  # cli.main carries its own span
                out = self.tracer.call(f"solve.{op}", self.invoke, case, op)
            else:
                out = self.invoke(case, op)
        except Exception as exc:  # a raising operation counts as failed
            self.attempted += 1
            self.failed += 1
            self.report(f"{case.label} {op}: raised {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = self.check(case, op, out)
        if problems:
            self.failed += 1
            self.correct = False
            for text in problems:
                self.report(f"{case.label} {op}: {text}")
            return
        if record:
            self.op_times[self.traced][op, case.index].append(elapsed * factor)
            self.times.append([int(self.traced), op, case.index, start, elapsed, factor])
            if self.traced:
                self.collect_layers(case, op, out, self.tracer.summarize(first), factor)

    def check(self, case, op, out):
        if op == "cli":
            return self.check_file(case, out)
        if op.startswith("dp"):
            self.backends.add(out.diagnostics.backend)
        sched = schedule_of(out)
        # The solvers are deterministic: a rerun must give, field for field,
        # the schedule the first solve gave and passed in full. repr() writes
        # floats exactly, so equal digests mean equal schedules.
        fingerprint = hashlib.sha256(repr(sched).encode()).digest()
        if op in case.first:
            if fingerprint != case.first[op]:
                return ["differs from the first solve on the same fleet"]
            return []
        problems, utility = check_schedule(
            case.ref, sched, "dp" if op.startswith("dp") else op, spec.INTERVAL_MIN)
        tol = money_tol(out.profit, out.loss)
        if op == "dp-ls":
            for what, value in (("J", utility), ("dp_value", out.diagnostics.dp_value)):
                if abs(value - case.optimum) > tol:
                    problems.append(f"{what} {value!r} is not the consecutive-block "
                                    f"optimum {case.optimum!r}")
            if case.file_digest is None:
                problems += self.write_twice(case, out)
        case.utility[op] = out.utility
        above = case.utility.get(ABOVE.get(op))
        if above is not None and out.utility > above + tol:
            problems.append(f"J {out.utility!r} beats {ABOVE[op]} ({above!r})")
        if not problems:
            case.first[op] = fingerprint
        return problems

    def write_twice(self, case, sol):
        paths = [self.work / "twice_a.json", self.work / "twice_b.json"]
        digests = []
        for path in paths:
            scenario.save_solution(sol, str(path))
            digests.append(digest(path))
            os.remove(path)
        case.file_digest = digests[0]
        if digests[0] != digests[1]:
            return ["writing the solution twice gave different bytes"]
        return []

    def check_file(self, case, code):
        if code != 0:
            return [f"exited with status {code}"]
        problems = []
        if case.file_digest is not None and digest(case.out_path) != case.file_digest:
            problems.append("solution file differs from the in-process dp-ls "
                            "solution written by save_solution")
        if not case.file_checked or case.file_digest is None:
            found, utility = check_schedule(case.ref, schedule_of_file(case.out_path), "dp")
            problems += found
            if abs(utility - case.optimum) > money_tol(utility):
                problems.append(f"file J {utility!r} is not the optimum {case.optimum!r}")
            case.file_checked = True
        return problems

    def collect_layers(self, case, op, out, agg, factor):
        """Per-layer figures of one traced operation, from its spans; times
        are scaled by the operation's speed factor."""
        none = (0, 0.0, 0.0, 0)

        def total(name):
            return agg.get(name, none)[1]

        def put(name, value):
            if spec.PER_LAYER[name] == "s":
                value *= factor
            self.layers[name, case.index].append(value)

        if op == "cli":
            put("cli.self_s", agg["cli.main"][2])
            for name in ("scenario.load_instance", "discretize.prepare_fleet",
                         "scenario.save_solution"):
                put(f"{name}_s", total(name))
            put("scenario.instance_bytes", os.path.getsize(case.path))
            put("scenario.solution_bytes", os.path.getsize(case.out_path))
            return
        priced = agg.get("utility.evaluate_platoon", none)
        put(f"utility.evaluate_calls.{op}", priced[0])
        put(f"utility.members_priced.{op}", priced[3])
        put(f"utility.evaluate_s.{op}", priced[1])
        put(f"solution.from_platoons_s.{op}", total("solution.from_platoons"))
        own = agg[f"solve.{op}"][2]
        if not op.startswith("dp"):
            put(f"baselines.platoons_per_pricing.{op}", len(out.platoons) / priced[0])
            put(f"baselines.self_s.{op}", own)
            return
        put(f"dp.run_dp_s.{op}", total("dp.run_dp"))
        put(f"dp.platoons.{op}", len(out.platoons))
        put(f"dp.self_s.{op}", own)
        put("kernels.fleet_arrays_s", total("kernels.fleet_arrays"))
        put("kernels.input_bytes", agg["kernels.fleet_arrays"][3])
        kernel = agg["kernels.run_dp_kernel"]
        put(f"kernels.run_dp_kernel_s.{op}", kernel[1])
        put(f"kernels.candidates_safe.{op}", kernel[3])
        if op == "dp-nls":
            put("kernels.leader_draw_bits_s", total("kernels.leader_draw_bits"))
        else:
            scanned = candidates_scanned(len(case.prepared),
                                         case.instance.route.max_platoon_size)
            put("kernels.candidates_scanned", scanned)
            put("kernels.safe_ratio.dp-ls", kernel[3] / scanned)

    def rounds(self, cases, seconds, phases=(False,)):
        """Whole rounds (every operation on every fleet) until `seconds` pass.

        With phases (False, True), untraced and traced rounds alternate, so
        both see the same stretches of the host's load.
        """
        start = time.perf_counter()
        while True:
            for traced in phases:
                if traced:
                    self.tracer.install(TARGETS)
                self.traced = traced
                for case in cases:
                    for op in spec.OPS:
                        self.attempt(case, op)
                self.tracer.uninstall()
                self.traced = False
            if time.perf_counter() - start >= seconds:
                return


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="file the traced run writes its spans to")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    if args.trace:
        tracer.install(TARGETS)
    cases = [make_case(scenario.ScenarioConfig(**kw), work, k)
             for k, kw in enumerate(spec.fleet_configs(args.workload, args.seed))]
    print(MARK, "ready", flush=True)
    setup_factor = speed_factor(passes=15)
    print(MARK, "speed", repr(setup_factor), flush=True)
    if args.role == "setup":
        return 0
    tracer.uninstall()

    bench = Bench(work, tracer)
    for case in cases:
        bench.prepare(case)
    warm_cfg = replace(cases[0].cfg,
                       n_trucks=min(cases[0].cfg.n_trucks, spec.WARMUP_TRUCKS))
    if warm_cfg == cases[0].cfg:
        warm = cases[0]
    else:
        warm = make_case(warm_cfg, work, "warm")
        bench.prepare(warm)
    # The fleets, instances and reference data live for the whole run. Frozen,
    # they are not traversed by the collection before each timed call, nor by
    # the collections the solver itself triggers.
    gc.collect()
    gc.freeze()
    for op in spec.OPS:
        bench.attempt(warm, op, record=False)

    setup = defaultdict(list)  # traced run: one generate and one save per fleet
    for k, (name, start, end, _, _) in enumerate(tracer.spans):
        setup[f"{name}_s", k].append((end - start) * setup_factor)
    bench.rounds(cases, args.seconds, (False, True) if args.trace else (False,))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = fleet_median(bench.op_times[False])
    e2e = {
        "dp_ls_s": plain.get("dp-ls"),
        "dp_nls_s": plain.get("dp-nls"),
        "spontaneous_s": plain.get("spontaneous"),
        "fixed_interval_s": plain.get("fixed-interval"),
        "cli_solve_s": plain.get("cli"),
        "peak_rss_mb": peak_rss_mb,
    }
    layers = {}
    if args.trace:
        layers.update(fleet_median(setup))
        layers.update(fleet_median(bench.layers))
        traced = fleet_median(bench.op_times[True])
        if set(traced) == set(plain) == set(spec.OPS):
            layers["trace.overhead_ratio"] = (sum(traced.values())
                                              / sum(plain.values()))
        if args.spans:
            tracer.write(args.spans, origin=tracer.spans[0][1])

    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "end_to_end": {k: v for k, v in e2e.items() if v is not None},
        "per_layer": layers,
        "speed_factor_median": statistics.median(t[5] for t in bench.times),
        "samples": samples_per_op(bench.op_times[False]),
        "traced_samples": samples_per_op(bench.op_times[True]),
        "times": bench.times,
        "backends": sorted(str(b) for b in bench.backends),
        "numpy": numpy.__version__,
    }
    print(MARK, "result", json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
