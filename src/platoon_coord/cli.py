"""Command-line front end: generate fleets, run solvers, compare, verify."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from functools import cache

from .baselines import solve_fixed_interval, solve_spontaneous
from .discretize import prepare_fleet
from .dp import solve_dp_ls, solve_dp_nls
from .model import (
    MONEY_TOL,
    ContractViolation,
    HorizonExceededError,
    InfeasibleTruckError,
    NoFeasibleScheduleError,
)
from .oracle import oracle_consecutive
from .scenario import (
    GenerationError,
    InstanceFormatError,
    ScenarioConfig,
    generate,
    load_instance,
    save_instance,
    save_solution,
    solution_csv_rows,
)
from .verification import (
    check_dp_vs_consecutive,
    check_ft_only_exact,
    check_mixed_upper_bound,
)

METHODS = ("dp-ls", "dp-nls", "spontaneous", "fixed-interval")


# The generator flags: each one's option, the `ScenarioConfig` field it
# sets, its type and its help text.
_CONFIG_FLAGS = (
    ("--n", "n_trucks", int, "fleet size"),
    ("--et-share", "et_share", float, "electric fraction of the fleet"),
    ("--arrival-lo", "arrival_lo", int, "earliest arrival minute"),
    ("--arrival-hi", "arrival_hi", int, "latest arrival minute"),
    ("--horizon", "horizon", float, "planning horizon in minutes"),
    ("--distance", "distance", float, "hub-to-hub distance in km"),
    ("--nbar", "max_platoon_size", int, "maximum platoon size"),
    ("--soc-lo", "soc_lo", float, "lowest initial SoC drawn for ETs"),
    ("--soc-hi", "soc_hi", float, "highest initial SoC drawn for ETs"),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for option, _, kind, text in _CONFIG_FLAGS:
        parser.add_argument(option, type=kind, help=text)


def _given_config_flags(args) -> dict:
    """The generator flags given on the command line: the `ScenarioConfig`
    field and value of each, by option."""
    given = {}
    for option, field, *_ in _CONFIG_FLAGS:
        value = getattr(args, option[2:].replace("-", "_"))  # argparse's dest
        if value is not None:
            given[option] = field, value
    return given


def _config_from_args(args, seed: int) -> ScenarioConfig:
    return replace(ScenarioConfig(seed=seed), **dict(_given_config_flags(args).values()))


def _run_method(method: str, prepared, instance, seed: int, interval: float):
    route, econ = instance.route, instance.econ
    if method == "dp-ls":
        return solve_dp_ls(prepared, route, econ)
    if method == "dp-nls":
        return solve_dp_nls(prepared, route, econ, seed)
    if method == "spontaneous":
        return solve_spontaneous(prepared, route, econ, seed)
    if method == "fixed-interval":
        return solve_fixed_interval(prepared, route, econ, interval, seed)
    raise ContractViolation(f"unknown method {method!r}")


def _print_summary(solution, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    d = solution.diagnostics
    sizes = " ".join(f"{k}x{v}" for k, v in sorted(d.platoon_sizes.items()))
    print(f"method          {solution.method}", file=stream)
    print(f"profit   (R)    {solution.profit:.4f}", file=stream)
    print(f"loss     (L)    {solution.loss:.4f}", file=stream)
    print(f"utility  (J)    {solution.utility:.4f}", file=stream)
    print(f"platoons        {len(solution.table)}  [{sizes}]", file=stream)
    print(f"leaders         ET-led {d.et_led}, FT-led {d.ft_led}", file=stream)
    if d.dp_updates is not None:
        print(f"value updates   {d.dp_updates}", file=stream)
    if d.horizon_violation:
        print("warning         some departures fall past the horizon", file=stream)
    if d.solve_ms is not None:
        backend = f" ({d.backend})" if d.backend else ""
        print(f"solve time      {d.solve_ms:.1f} ms{backend}", file=stream)


def _cmd_generate(args) -> int:
    cfg = _config_from_args(args, args.seed)
    instance = generate(cfg)
    save_instance(instance, args.out, config=cfg)
    electric = instance.columns.electric
    n_et = electric.count(True)
    print(f"seed {cfg.seed}: wrote {len(electric)} trucks "
          f"({len(electric) - n_et} FT, {n_et} ET) to {args.out}")
    return 0


def _check_seed(seed: int) -> int:
    """`seed`, or `ContractViolation` when it is negative, as instance files
    and `generate` refuse it."""
    if seed < 0:
        raise ContractViolation("seed must be >= 0")
    return seed


def _cmd_solve(args) -> int:
    # Flags that cannot be honoured are refused before the instance is read.
    if args.oracle_check and args.method != "dp-ls":
        print("--oracle-check only applies to --method dp-ls", file=sys.stderr)
        return 2
    if args.timing and args.format != "json":
        print("--timing only applies to --format json", file=sys.stderr)
        return 2
    instance = load_instance(args.instance)
    seed = instance.seed if args.seed is None else _check_seed(args.seed)
    prepared = prepare_fleet(instance)
    solution = _run_method(args.method, prepared, instance, seed, args.interval)
    _print_summary(solution)
    if args.oracle_check:
        exact = oracle_consecutive(prepared, instance.route, instance.econ)
        diff = abs(solution.utility - exact.utility)
        print(f"oracle check    exhaustive J {exact.utility:.6f}, diff {diff:.3e}")
        if diff > MONEY_TOL:
            print("oracle check FAILED", file=sys.stderr)
            return 1
    if args.out:
        if args.format == "json":
            save_solution(solution, args.out, include_timing=args.timing)
        else:
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(solution_csv_rows(solution))
        print(f"wrote {args.out}")
    return 0


def _parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        try:
            if ":" in part:
                lo, hi = part.split(":", 1)
                seeds.extend(range(int(lo), int(hi)))
            elif part:
                seeds.append(int(part))
        except ValueError:
            raise ContractViolation(f"bad seed {part!r} in {text!r}") from None
    if not seeds:
        raise ContractViolation(f"no seeds in {text!r}")
    return list(map(_check_seed, seeds))


def _compare_one(seed: int, args, fixed_instance):
    if fixed_instance is not None:
        instance = fixed_instance
    else:
        instance = generate(_config_from_args(args, seed))
    prepared = prepare_fleet(instance)
    return {method: _run_method(method, prepared, instance, seed, args.interval)
            for method in METHODS}


def _cmd_compare(args) -> int:
    # A fixed instance is not generated, so no generator flag can apply to it.
    given = _given_config_flags(args)
    if args.instance and given:
        print(f"generator flags {', '.join(given)} only apply without an instance file",
              file=sys.stderr)
        return 2
    seeds = _parse_seeds(args.seeds)
    fixed_instance = load_instance(args.instance) if args.instance else None
    results = [_compare_one(s, args, fixed_instance) for s in seeds]

    prefix = args.out
    summary_path = f"{prefix}_summary.csv"
    leaders_path = f"{prefix}_leaders.csv"
    sizes_path = f"{prefix}_sizes.csv"

    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "seed", "R", "L", "J", "platoons",
                    "pct_size_6_8", "et_led", "ft_led", "solve_ms"])
        for seed, row in zip(seeds, results):
            for method in METHODS:
                sol = row[method]
                d = sol.diagnostics
                n_platoons = len(sol.table)
                big = sum(v for k, v in d.platoon_sizes.items() if 6 <= k <= 8)
                pct = 100.0 * big / n_platoons if n_platoons else 0.0
                w.writerow([
                    method, seed, repr(sol.profit), repr(sol.loss),
                    repr(sol.utility), n_platoons, repr(pct), d.et_led, d.ft_led,
                    repr(d.solve_ms) if args.timing and d.solve_ms is not None else "",
                ])

    with open(leaders_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "dp_ls_et_led", "dp_ls_ft_led",
                    "dp_nls_et_led", "dp_nls_ft_led"])
        for seed, row in zip(seeds, results):
            w.writerow([seed,
                        row["dp-ls"].diagnostics.et_led,
                        row["dp-ls"].diagnostics.ft_led,
                        row["dp-nls"].diagnostics.et_led,
                        row["dp-nls"].diagnostics.ft_led])

    with open(sizes_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "size", "count"])
        for seed, row in zip(seeds, results):
            for size, count in sorted(row["dp-ls"].diagnostics.platoon_sizes.items()):
                w.writerow([seed, size, count])

    for seed, row in zip(seeds, results):
        cells = "  ".join(f"{m}={row[m].utility:.1f}" for m in METHODS)
        print(f"seed {seed}: {cells}")
    print(f"wrote {summary_path}, {leaders_path}, {sizes_path}")
    return 0


def _cmd_verify(args) -> int:
    for flag, trials in (("--trials", args.trials), ("--full-trials", args.full_trials)):
        if trials < 1:
            raise ContractViolation(f"{flag} must be >= 1, got {trials}")
    checks = [
        check_dp_vs_consecutive(trials=args.trials, seed=args.seed),
        check_ft_only_exact(trials=args.full_trials, seed=args.seed),
        check_mixed_upper_bound(trials=args.full_trials, seed=args.seed),
    ]
    failed = False
    for result in checks:
        tag = "PASS" if result.passed else "FAIL"
        print(f"{tag} {result.name}: {result.detail}")
        failed = failed or not result.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoon-coord",
        description="Coordinate hub departures of a mixed fuel/electric truck fleet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random fleet instance file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="instance.json")
    _add_config_flags(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_solve = sub.add_parser("solve", help="run one method on an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", choices=METHODS, required=True)
    p_solve.add_argument("--seed", type=int, default=None,
                         help="seed for randomized methods (default: instance seed)")
    p_solve.add_argument("--interval", type=float, default=30.0,
                         help="slot length for fixed-interval, minutes")
    p_solve.add_argument("--out", default=None, help="solution file to write")
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")
    p_solve.add_argument("--timing", action="store_true",
                         help="include wall-clock timing in the output file")
    p_solve.add_argument("--oracle-check", action="store_true",
                         help="assert equality with the exhaustive search (small fleets)")
    p_solve.set_defaults(func=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="run all methods over a seed sweep")
    p_cmp.add_argument("instance", nargs="?", default=None,
                       help="optional fixed instance; defaults to one generated per seed")
    p_cmp.add_argument("--seeds", default="0:10",
                       help="comma list and lo:hi ranges, e.g. 0:10 or 1,2,5")
    p_cmp.add_argument("--interval", type=float, default=30.0)
    p_cmp.add_argument("--out", default="compare", help="output file prefix")
    p_cmp.add_argument("--timing", action="store_true")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="cross-check the solver against exhaustive search")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=50,
                       help="fleets for the consecutive-search check")
    p_ver.add_argument("--full-trials", type=int, default=20,
                       help="fleets for the full-search checks")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call. Parsing leaves it
    unchanged, and each handler it dispatches to looks up the module's names
    when it runs, so reusing it is safe."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, GenerationError, InstanceFormatError,
            HorizonExceededError, InfeasibleTruckError, NoFeasibleScheduleError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
