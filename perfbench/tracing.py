"""Per-layer tracing from outside the program.

Coarse calls (set-up functions, trials, the engine run, persist) get one span
each; per-step callables (the problem's operators, noise steps, chain
transitions, sync errors) get a call count and a total time. Everything is
kept in memory and written out when the run ends. Wrappers are installed by
replacing public module attributes; a name the program no longer has is
skipped, so its metrics read zero instead of breaking the run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# Problem callables whose time is subtracted from the engine's own time.
PROBLEM_COUNTERS = ("algorithms.apply_g", "algorithms.apply_b",
                    "algorithms.noise_step", "algorithms.make_noise")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            cell[1] += clock() - t0
            cell[0] += 1
            return out

        return wrapper

    def patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr, None)
        if original is not None:
            setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Wrap the program's layers in the imported fedsam package."""
        from fedsam import algorithms, engine, harness, mdp, sampling

        def span(name):
            return lambda fn: self.span(name, fn)

        for attr, name in (
            ("generate_instance", "harness.generate_instance"),
            ("sub_instance", "harness.sub_instance"),
            ("theory_constants", "algorithms.theory_constants"),
            ("run_trial", "harness.run_trial"),
            ("run_fedsam", "engine.run_fedsam"),
        ):
            self.patch(harness, attr, span(name))
        self.patch(harness, "build_problem",
                   lambda fn: self.span("algorithms.build_problem", self._instrumented(fn)))
        for attr in ("value_function_oracle", "q_star_oracle", "projected_fixed_point_oracle"):
            self.patch(algorithms, attr, span("mdp.fixed_point"))
        self.patch(algorithms, "stationary_distribution", span("mdp.stationary_distribution"))
        self.patch(mdp, "stationary_distribution", span("mdp.stationary_distribution"))
        self.patch(algorithms, "mixing_diagnostics", span("sampling.mixing_diagnostics"))
        self.patch(algorithms.AlgorithmInstance, "__post_init__", span("algorithms.instance_init"))
        self.patch(engine, "sync_errors", lambda fn: self.counter("engine.sync_errors", fn))
        self.patch(sampling.AgentChain, "advance", lambda fn: self.counter("sampling.advance", fn))

    def _instrumented(self, build_problem):
        """build_problem whose problems count and time their per-step callables.

        Counters are keyed `<layer>@<kind>`, so a workload that mixes kinds
        keeps each kind's figures apart; the metrics pool them.
        """
        counter = self.counter

        def wrapper(instance):
            problem = build_problem(instance)
            kind = f"@{instance.kind}"
            problem.apply_g = counter("algorithms.apply_g" + kind, problem.apply_g)
            problem.apply_b = counter("algorithms.apply_b" + kind, problem.apply_b)
            make_noise = problem.make_noise

            def traced_make_noise(agent, rng):
                noise = make_noise(agent, rng)
                noise.step = counter("algorithms.noise_step" + kind, noise.step)
                return noise

            problem.make_noise = counter("algorithms.make_noise" + kind, traced_make_noise)
            return problem

        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (minus child spans)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}) + "\n")


def layer_metrics(tracer: Tracer, agent_steps: int, sync_barriers: int,
                  persist_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced round (overhead is added by the caller)."""
    spans = tracer.layer_totals()
    counters = tracer.counters

    def span(name, key):
        return float(spans.get(name, {}).get(key, 0.0))

    def pooled(name, field):
        return float(sum(cell[field] for key, cell in counters.items()
                         if key.partition("@")[0] == name))

    def calls(name):
        return pooled(name, 0)

    def total_s(name):
        return pooled(name, 1)

    def mean_us(name):
        n = calls(name)
        return total_s(name) / n * 1e6 if n else 0.0

    problem_s = sum(total_s(name) for name in PROBLEM_COUNTERS)
    return {
        "engine.run_fedsam.calls": span("engine.run_fedsam", "calls"),
        "engine.run_fedsam.self_s": span("engine.run_fedsam", "self_s") - problem_s,
        "engine.sync_errors.calls": calls("engine.sync_errors"),
        "engine.sync_errors.self_s": total_s("engine.sync_errors"),
        "engine.agent_steps": float(agent_steps),
        "engine.sync_barriers": float(sync_barriers),
        "sampling.advance.calls": calls("sampling.advance"),
        "sampling.advance.mean_us": mean_us("sampling.advance"),
        "algorithms.noise_step.mean_us": mean_us("algorithms.noise_step"),
        "algorithms.apply_g.mean_us": mean_us("algorithms.apply_g"),
        "algorithms.apply_b.mean_us": mean_us("algorithms.apply_b"),
        "mdp.stationary_distribution.calls": span("mdp.stationary_distribution", "calls"),
        "mdp.stationary_distribution.self_s": span("mdp.stationary_distribution", "self_s"),
        "mdp.fixed_point.self_s": span("mdp.fixed_point", "self_s"),
        "sampling.mixing_diagnostics.calls": span("sampling.mixing_diagnostics", "calls"),
        "sampling.mixing_diagnostics.self_s": span("sampling.mixing_diagnostics", "self_s"),
        "algorithms.instance_init.self_s": span("algorithms.instance_init", "self_s"),
        "algorithms.theory_constants.calls": span("algorithms.theory_constants", "calls"),
        "algorithms.theory_constants.self_s": span("algorithms.theory_constants", "self_s"),
        "algorithms.build_problem.self_s": span("algorithms.build_problem", "self_s"),
        "harness.generate_instance.self_s": span("harness.generate_instance", "self_s"),
        "harness.sub_instance.calls": span("harness.sub_instance", "calls"),
        "harness.sweep.self_s": span("harness.sweep", "self_s"),
        "harness.persist.s": span("harness.persist", "s"),
        "harness.persist.bytes": float(persist_bytes),
        "harness.load_results.s": span("harness.load_results", "s"),
    }
