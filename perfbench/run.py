"""fedsam benchmark: sweep throughput, set-up time and memory, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fedsam is imported from its src/. The run
times one cold set-up (process start to every instance, sub-instance,
problem and theory-constants object built through the public calls), then
repeats whole rounds of the workload, each in a fresh process (see
sweep_round.py), until S seconds have passed. With --trace 1 the rounds
alternate untraced and traced, and the per-layer metrics are reported
instead of the end-to-end ones. The outputs are then checked against an
independent replay and against properties the method must have. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT_ROOT = HERE.parent / ".perfbench_out"
ROUND_TIMEOUT_S = 150


def set_up(spec_dicts: list[dict]) -> list[tuple]:
    """Build every object the workload's trials use, through the public set-up calls."""
    from fedsam import ExperimentSpec, build_problem, generate_instance, theory_constants
    from fedsam.harness import sub_instance

    built = []
    for data in spec_dicts:
        spec = ExperimentSpec.from_dict(data)
        full = generate_instance(spec.kind, spec.params, spec.master_seed)
        per_n = {}
        for n in sorted(set(spec.n_agents_grid)):
            instance = sub_instance(full, n)
            per_n[n] = (instance, build_problem(instance), theory_constants(instance))
        built.append((spec, full, per_n))
    return built


def run_round(args, out_dir: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "sweep_round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out_dir)]
    if traced:
        cmd.append("--trace")
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=ROUND_TIMEOUT_S)
    return json.loads((out_dir / "round.json").read_text())


def check_outputs(built: list[tuple], rounds: list[tuple[bool, dict]], seed: int) -> list[str]:
    import numpy as np

    import checks

    first = rounds[0][1]
    failures = []
    for k, (traced, report) in enumerate(rounds):
        failures += report["errors"]
        if k:
            for name, trials in first["trials"].items():
                failures += checks.compare_trials(
                    trials, report["trials"].get(name, []),
                    f"{name}: round {k}{' (traced)' if traced else ''} vs round 0")
    rng = np.random.default_rng(seed)
    for spec, full, per_n in built:
        trials = first["trials"][spec.name]
        failures += checks.check_replay(spec, {n: row[0] for n, row in per_n.items()}, trials)
        failures += checks.check_omega(trials, spec.name)
        instances = {id(full): (f"{spec.name} full instance", full)}
        for n, (instance, problem, constants) in per_n.items():
            instances.setdefault(id(instance), (f"{spec.name} N={n}", instance))
            failures += checks.check_bounds(instance, problem, constants, rng, f"{spec.name} N={n}")
        for what, instance in instances.values():
            failures += checks.check_fixed_point(instance, what)
            failures += checks.check_stationary(instance, what)
    return failures


def report_figures(rounds: list[tuple[bool, dict]]) -> None:
    """Per-round throughput, and slopes and per-cell MSEs as figures only.

    At few replications the slope and the K-curve are not steady, so nothing
    is asserted about them.
    """
    print("rounds: agent-steps/s " + " ".join(
        f"{r['agent_steps'] / r['wall_s']:.0f}{'(traced)' if traced else ''}"
        for traced, r in rounds), file=sys.stderr)
    for name, fig in rounds[0][1]["figures"].items():
        for slope in fig["slopes"]:
            print(f"figure {name}: log-log slope over N at K={slope['k']}, alpha={slope['alpha']}: "
                  f"{slope['slope']:.3f} ± {slope['half_width']:.3f}", file=sys.stderr)
        cells = ", ".join(f"(N={n}, K={k}, alpha={a}): {m:.3e}" for n, k, a, m in fig["mean_mse"])
        print(f"figure {name}: mean MSE {cells}", file=sys.stderr)


def end_to_end(setup_s: float, rounds: list[tuple[bool, dict]]) -> dict:
    reports = [r for _, r in rounds]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "agent_steps_per_s": {
            "value": statistics.median(r["agent_steps"] / r["wall_s"] for r in reports),
            "unit": "agent-steps/s",
        },
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reports), "unit": "MB"},
    }


def per_layer(rounds: list[tuple[bool, dict]]) -> dict:
    units = {m["name"]: m["unit"] for m in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    traced = [r for t, r in rounds if t]
    plain = [r for t, r in rounds if not t]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_dicts = workloads.specs(args.workload, args.seed)
    workloads.import_fedsam()
    built = set_up(spec_dicts)
    setup_s = time.perf_counter() - T0

    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    rounds: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append((traced, run_round(args, out / f"round{len(rounds)}", traced)))
        if time.perf_counter() - start >= args.seconds and (not args.trace or len(rounds) % 2 == 0):
            break

    failures = check_outputs(built, rounds, args.seed)
    report_figures(rounds)
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for k, (traced, _) in enumerate(rounds):  # keep only the spans of traced rounds
        if traced:
            (out / f"round{k}" / "spans.json").replace(out / f"spans-round{k}.json")
        shutil.rmtree(out / f"round{k}")

    trials = [t for _, r in rounds for ts in r["trials"].values() for t in ts]
    metrics = per_layer(rounds) if args.trace else end_to_end(setup_s, rounds)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(trials),
        "failed": sum(1 for t in trials if t["status"] != "ok"),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
