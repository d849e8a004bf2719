"""Command-line front end.

Subcommands: gen-mdp (write environment files), oracle (exact solutions),
run / sweep (experiments), validate (acceptance suite). Every subcommand is
deterministic given (config, seed); the master seed comes from --seed, else
the FEDSAM_SEED environment variable, else the config file.

Exit codes: 0 success, 1 validation or check failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

import numpy as np

from .algorithms import KINDS, theory_constants
from .errors import FedSamError
from .harness import ExperimentSpec, GeneratorParams, generate_instance, persist, sweep
from .mdp import (
    FeatureMatrix,
    Mdp,
    Policy,
    bellman_residual,
    optimality_residual,
    projected_fixed_point_oracle,
    projected_fixed_point_residual,
    q_star_oracle,
    value_function_oracle,
)

ENV_SEED = "FEDSAM_SEED"


class UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc


def _apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise UsageError(f"cannot descend into non-mapping config key {part!r} in {key!r}")
            node = nxt
        node[parts[-1]] = value
    return cfg


def _resolve_seed(args, cfg: dict, default: int = 0) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    return int(cfg.get("master_seed", default))


def _print_constants(instance) -> None:
    consts = theory_constants(instance)
    print("theory constants:")
    for key, value in consts.to_dict().items():
        print(f"  {key}: {value}")


# ---------------------------------------------------------------------------
# gen-mdp
# ---------------------------------------------------------------------------

def _params_from_config(cfg: dict) -> tuple[str, GeneratorParams]:
    cfg = dict(cfg)
    kind = cfg.pop("kind", "off_policy_td_tabular")
    if kind not in KINDS:
        raise UsageError(f"unknown algorithm kind {kind!r}; choose from {KINDS}")
    cfg.pop("master_seed", None)
    known = set(GeneratorParams.__dataclass_fields__)
    unknown = set(cfg) - known
    if unknown:
        raise UsageError(f"unknown generator keys: {sorted(unknown)}")
    return kind, GeneratorParams(**cfg)


def cmd_gen_mdp(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args.set)
    seed = _resolve_seed(args, cfg)
    kind, params = _params_from_config(cfg)
    params.validate()
    instance = generate_instance(kind, params, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mdp.json").write_text(instance.mdp.to_json() + "\n")
    policies = {
        "target": instance.target.probs.tolist(),
        "behaviors": [b.probs.tolist() for b in instance.behaviors],
    }
    (out / "policies.json").write_text(json.dumps(policies, indent=2) + "\n")
    if instance.features is not None:
        features = {"phi": instance.features.phi.tolist(), "d": instance.features.d}
        (out / "features.json").write_text(json.dumps(features, indent=2) + "\n")
    print(f"wrote {out / 'mdp.json'}, {out / 'policies.json'}"
          + (f", {out / 'features.json'}" if instance.features is not None else ""))
    _print_constants(instance)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _fmt_array(arr: np.ndarray) -> str:
    return np.array2string(np.asarray(arr), precision=6, suppress_small=False)


def cmd_oracle(args) -> int:
    mdp = Mdp.from_json(Path(args.mdp).read_text())
    out: dict = {"kind": args.kind}
    if args.kind == "qstar":
        table = q_star_oracle(mdp)
        resid = optimality_residual(mdp, table)
        print("Q* table:")
        print(_fmt_array(table))
        out["q_star"] = table.tolist()
    else:
        if args.policies is None:
            raise UsageError(f"oracle kind {args.kind!r} needs --policies")
        policies = json.loads(Path(args.policies).read_text())
        policy = Policy(np.array(policies["target"], dtype=float))
        if args.kind == "value":
            table = value_function_oracle(mdp, policy)
            resid = bellman_residual(mdp, policy, table)
            print("V^pi:")
            print(_fmt_array(table))
            out["value"] = table.tolist()
        else:  # projected
            if args.features is None:
                raise UsageError("oracle kind 'projected' needs --features")
            feats = FeatureMatrix(
                np.array(json.loads(Path(args.features).read_text())["phi"], dtype=float)
            )
            table = projected_fixed_point_oracle(mdp, policy, feats, args.n)
            resid = projected_fixed_point_residual(mdp, policy, feats, args.n, table)
            print("projected fixed-point weights:")
            print(_fmt_array(table))
            out["weights"] = table.tolist()
    print(f"residual: {resid:.3e}")
    out["residual"] = resid
    if args.out:
        path = Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"oracle_{args.kind}.json").write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {path / f'oracle_{args.kind}.json'}")
    return 0


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------

def _spec_from_config(cfg: dict, seed: int) -> ExperimentSpec:
    payload = dict(cfg)
    payload["master_seed"] = seed
    try:
        return ExperimentSpec.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


_RUN_DEFAULTS = {
    "name": "single-run",
    "kind": "off_policy_td_tabular",
    "params": {"n_states": 5, "n_actions": 2, "branching": 2, "gamma": 0.5, "n_agents": 4},
    "n_agents_grid": [4],
    "sync_periods": [8],
    "alpha_grid": [0.1],
    "horizon": 2000,
    "replications": 2,
}

_SWEEP_DEFAULTS = {
    "name": "sweep",
    "kind": "off_policy_td_tabular",
    "params": {"n_states": 5, "n_actions": 2, "branching": 2, "gamma": 0.5, "n_agents": 8},
    "n_agents_grid": [1, 2, 4, 8],
    "sync_periods": [1],
    "alpha_grid": [0.1],
    "horizon": 2000,
    "replications": 8,
}


def _print_cell_table(result) -> None:
    print(f"{'N':>4} {'K':>6} {'alpha':>8} {'T':>8} {'MSE':>12} {'SE':>10} {'ok':>6}")
    for st in result.cell_stats:
        flag = "  INVALID" if st.invalid else ""
        print(
            f"{st.n_agents:>4} {st.sync_period:>6} {st.alpha:>8g} {st.horizon:>8} "
            f"{st.mean_mse:>12.4e} {st.se_mse:>10.2e} {st.n_ok:>3}/{st.n_total}{flag}"
        )


def _print_divergences(result) -> None:
    """One line per diverged trial, then the count of late blow-ups.

    A trial whose error overflowed while its iterates stayed finite has no
    step or agent; both print as '-'.
    """
    diverged = [t for t in result.trials if t.status == "diverged"]
    print(f"diverged trials: {len(diverged)}")
    for t in diverged:
        step = "-" if t.diverged_step is None else t.diverged_step
        agent = "-" if t.diverged_agent is None else t.diverged_agent
        print(f"  N={t.n_agents} K={t.sync_period} alpha={t.alpha:g} T={t.horizon} "
              f"replication={t.replication} step={step} agent={agent}")
    print(f"late blow-up trials: {sum(t.late_blowup() for t in result.trials)}")


def _run_or_sweep(args, defaults: dict, single_cell: bool) -> int:
    cfg = copy.deepcopy(defaults)
    file_cfg = _load_config(args.config)
    params = cfg.get("params", {})
    cfg.update(copy.deepcopy(file_cfg))
    if "params" in file_cfg:
        params.update(file_cfg["params"])
        cfg["params"] = params
    cfg = _apply_overrides(cfg, args.set)
    seed = _resolve_seed(args, cfg, default=int(cfg.get("master_seed", 0)))
    spec = _spec_from_config(cfg, seed)
    if single_cell and len(spec.cells()) != 1:
        raise UsageError(
            f"run expects exactly one grid cell, got {len(spec.cells())}; use sweep for grids"
        )
    result = sweep(spec, workers=args.parallel)
    paths = persist(result, args.out, name=spec.name)
    _print_cell_table(result)
    _print_divergences(result)
    for rec in result.slopes:
        print(
            f"speedup slope (K={rec['k']}, alpha={rec['alpha']:g}): "
            f"{rec['slope']:.3f} ± {rec['half_width']:.3f}"
        )
    print("wrote " + ", ".join(str(p) for p in paths.values()))
    return 0


def cmd_run(args) -> int:
    return _run_or_sweep(args, _RUN_DEFAULTS, single_cell=True)


def cmd_sweep(args) -> int:
    return _run_or_sweep(args, _SWEEP_DEFAULTS, single_cell=False)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    from .validation import DEFAULT_SEED, run_all_checks

    checks = run_all_checks(
        seed=_resolve_seed(args, {}, default=DEFAULT_SEED),
        workers=args.parallel,
        fault=args.fault,
        fast=args.fast,
    )
    for check in checks:
        print(check.line())
    report = {
        "passed": all(c.passed for c in checks),
        "checks": [{"name": c.name, "passed": c.passed, "observed": c.observed} for c in checks],
    }
    # wall times vary between runs, so they go to a sidecar, not to the report
    timing = {"checks": [{"name": c.name, "elapsed_s": c.elapsed_s} for c in checks]}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "validation_report.json").write_text(json.dumps(report, indent=2) + "\n")
    (out / "validation_timing.json").write_text(json.dumps(timing, indent=2) + "\n")
    print(f"wrote {out / 'validation_report.json'}")
    if not report["passed"]:
        print("validation FAILED", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, with_config: bool = True) -> None:
    if with_config:
        parser.add_argument("--config", help="JSON config file")
        parser.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (dotted paths allowed, values parsed as JSON)",
        )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--parallel", type=int, default=1, help="worker processes, at most one per CPU")
    parser.add_argument(
        "--seed", type=int, default=None,
        help=f"master seed (overrides {ENV_SEED} and the config file)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsam",
        description="Federated stochastic-approximation laboratory: environments, "
        "oracles, federated TD/Q-learning experiments, and the acceptance suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-mdp", help="generate and write an environment (MDP, policies, features)")
    _add_common(p)
    p.set_defaults(func=cmd_gen_mdp)

    p = sub.add_parser("oracle", help="compute an exact solution table with residual diagnostics")
    p.add_argument("--mdp", required=True, help="MDP JSON file")
    p.add_argument("--policies", help="policies JSON file (target policy)")
    p.add_argument("--features", help="features JSON file (projected oracle)")
    p.add_argument(
        "--kind", choices=("value", "qstar", "projected"), default="value",
        help="which exact table to compute (default: value)",
    )
    p.add_argument("--n", type=int, default=1, help="multi-step count for the projected oracle")
    p.add_argument("--out", default=None, help="also write the table as JSON into this directory")
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("run", help="run a single experiment cell and persist results")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run an (N, K, alpha) grid and report trends")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run the full acceptance suite")
    _add_common(p, with_config=False)
    p.add_argument("--fast", action="store_true", help="reduced replication counts (smoke run)")
    p.add_argument("--fault", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "parallel", 1) < 1:
            parser.error(f"argument --parallel: must be at least 1, got {args.parallel}")
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FedSamError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
