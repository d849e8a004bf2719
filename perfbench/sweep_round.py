"""One round of a workload: the path `fedsam sweep` runs, in a fresh process.

    python3 perfbench/sweep_round.py --workload NAME --seed N --out DIR [--trace]

For each spec of the workload it times `sweep(spec, workers=1)` plus
`persist`, then reloads the files with `load_results` and compares them with
the in-memory trials. A fresh process per round keeps the program's caches
cold and makes the peak resident set that of this round alone. Writes
DIR/round.json, and DIR/spans.json when traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workloads.import_fedsam()
    from fedsam import ExperimentSpec, load_results, persist, sweep

    import checks
    from tracing import Tracer, layer_metrics

    specs = [ExperimentSpec.from_dict(d) for d in workloads.specs(args.workload, args.seed)]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        sweep = tracer.span("harness.sweep", sweep)
        persist = tracer.span("harness.persist", persist)
        load_results = tracer.span("harness.load_results", load_results)

    args.out.mkdir(parents=True, exist_ok=True)
    wall_s = 0.0
    persist_bytes = agent_steps = sync_barriers = 0
    trials, figures, errors = {}, {}, []
    for spec in specs:
        start = time.perf_counter()
        result = sweep(spec, workers=1)
        paths = persist(result, args.out, name=spec.name)
        wall_s += time.perf_counter() - start
        _, loaded = load_results(args.out, spec.name)
        records = [checks.trial_record(t) for t in result.trials]
        errors += checks.compare_trials(records, [checks.trial_record(t) for t in loaded],
                                        f"{spec.name}: load_results(persist(...))")

        persist_bytes += sum(p.stat().st_size for p in paths.values())
        agent_steps += sum(t.n_agents * t.horizon for t in result.trials)
        sync_barriers += sum(t.horizon // t.sync_period for t in result.trials)
        trials[spec.name] = records
        figures[spec.name] = {
            "slopes": result.slopes,
            "mean_mse": [[st.n_agents, st.sync_period, st.alpha, st.mean_mse]
                         for st in result.cell_stats],
        }

    report = {
        "wall_s": wall_s,
        "agent_steps": agent_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials": trials,
        "figures": figures,
        "errors": errors,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, agent_steps, sync_barriers, persist_bytes)
        for name, (calls, seconds) in sorted(tracer.counters.items()):
            print(f"traced {name}: {calls} calls, {seconds / max(calls, 1) * 1e6:.2f} us each")
        tracer.write(args.out / "spans.json")
    (args.out / "round.json").write_text(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
