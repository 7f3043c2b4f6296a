"""Workloads and metric names of the solve benchmark.

Plain data, importable without the solver package, so the launcher can
validate arguments before it starts any worker. README.md explains why each
workload exists and which end-to-end metric each layer metric should move.
"""

DEFAULT_SEED = 0
INTERVAL_MIN = 30.0     # fixed-interval slot length, as in `compare`
REF_SWEEP = 10          # fleets per ref-1k run, like the acceptance sweep
WARMUP_TRUCKS = 1000    # largest warm-up fleet, drawn like the first fleet

METHODS = ("dp-ls", "dp-nls", "spontaneous", "fixed-interval")
OPS = METHODS + ("cli",)


def fleet_configs(workload, seed):
    """ScenarioConfig keyword sets of the fleets a workload solves.

    A workload of k fleets draws them with seeds k*seed .. k*seed+k-1, so
    seed 0 gives ref-1k the acceptance suite's seeds 0..9.
    """
    if workload == "ref-1k":
        return [dict(seed=REF_SWEEP * seed + k) for k in range(REF_SWEEP)]
    if workload == "scale-100k":
        # Reference arrival density (1000 trucks per 1440 min) stretched to
        # 100k trucks, with the 60-min pad after the last arrival.
        n = 100_000
        window = int(1.44 * n)
        return [dict(n_trucks=n, arrival_hi=window, horizon=float(window + 60),
                     seed=seed)]
    if workload in DENSE:
        # About 14 arrivals a minute, as 20 000 in 24 h, with a 60-min pad.
        fleets, n = DENSE[workload]
        window = n * 1440 // 20_000
        return [dict(n_trucks=n, et_share=0.7, soc_lo=10.0, soc_hi=60.0,
                     arrival_hi=window, horizon=float(window + 60),
                     max_platoon_size=16, seed=fleets * seed + k)
                for k in range(fleets)]
    raise ValueError(f"unknown workload {workload!r}")


# name -> (fleets per run, trucks per fleet)
DENSE = {"dense-et-10x2k": (10, 2_000), "dense-et-20k": (1, 20_000)}
WORKLOADS = ("ref-1k", "dense-et-10x2k", "dense-et-20k", "scale-100k")

# name -> unit; reported from the untraced run (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "dp_ls_s": "s",
    "dp_nls_s": "s",
    "spontaneous_s": "s",
    "fixed_interval_s": "s",
    "cli_solve_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; reported from the traced run (--trace 1).
PER_LAYER = {
    "scenario.generate_s": "s",
    "scenario.save_instance_s": "s",
    "scenario.load_instance_s": "s",
    "scenario.save_solution_s": "s",
    "scenario.instance_bytes": "bytes",
    "scenario.solution_bytes": "bytes",
    "discretize.prepare_fleet_s": "s",
    "kernels.fleet_arrays_s": "s",
    "kernels.leader_draw_bits_s": "s",
    "kernels.run_dp_kernel_s.dp-ls": "s",
    "kernels.run_dp_kernel_s.dp-nls": "s",
    "kernels.candidates_scanned": "count",
    "kernels.candidates_safe.dp-ls": "count",
    "kernels.candidates_safe.dp-nls": "count",
    "kernels.safe_ratio.dp-ls": "ratio",
    "kernels.input_bytes": "bytes",
    **{f"dp.{what}.{m}": unit
       for m in ("dp-ls", "dp-nls")
       for what, unit in (("run_dp_s", "s"), ("platoons", "count"), ("self_s", "s"))},
    **{f"utility.{what}.{m}": unit
       for m in METHODS
       for what, unit in (("evaluate_calls", "count"), ("members_priced", "count"),
                          ("evaluate_s", "s"))},
    "baselines.platoons_per_pricing.spontaneous": "ratio",
    "baselines.platoons_per_pricing.fixed-interval": "ratio",
    "baselines.self_s.spontaneous": "s",
    "baselines.self_s.fixed-interval": "s",
    **{f"solution.from_platoons_s.{m}": "s" for m in METHODS},
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
