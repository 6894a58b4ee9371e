"""Command-line entry point: solve, evaluate, crossval, bound, synth.

Configuration is one JSON file.  Keys for the solve family::

    {
      "algorithm": "dd" | "rdd",                    (default "dd")
      "epsilon": 1e-6,
      "gap_mode": "relative" | "absolute",          (default "relative")
      "max_iterations": 200,
      "forward_paths_per_iter": 1,
      "seed": 0,
      "initial_state": [0.0, ...],                  (required; pre-horizon decision)
      "kernel": {"bandwidth_h": 1.0,
                 "bandwidth_rule": "manual" | "auto_rate",
                 "c_h": 1.0},
      "ambiguity": {"rho": 0.1}                     (manual radius)
                   | {"rule": "rate_scaled", "c_coefficient": 1.0},
      "m_override": null,
      "crossval": {"c_grid": [..], "n_folds": 5},
      "bound": {... generalization_bound arguments ...},
      "synth": {"kind": "portfolio", "K": 3, "horizon_T": 4, "n_paths": 20,
                "seed": 0, "r_f": 1.0, "fees": [0.0, 0.0],
                "process": {"mu": [..], "phi": [[..]], "noise_cov": [[..]],
                            "xi1": [..], "box_lower": [..], "box_upper": [..]}}
    }

Unknown keys, also inside ``kernel``, ``ambiguity``, ``crossval``,
``synth`` and ``synth.process``, are errors, as are one of those sections
given as anything but an object (``"ambiguity": null`` means no radius), a
missing ``synth.process`` key, ``synth.fees`` other than two numbers and
an ``ambiguity.rule`` other than "rate_scaled".

Command-line flags (--seed, --algorithm, --rho, --epsilon, --max-iters)
override the corresponding config keys.

Outputs under --out: ``iterations.csv`` (per-iteration bounds and counters),
``results.json`` (final bounds, first-stage decision), ``manifest.json``
(config snapshot, data fingerprint, seed, version, timestamp).  Reports
carry no timing columns, so a replay of the same manifest reproduces
``iterations.csv`` and ``results.json`` byte for byte; timestamps live only
in the manifest.  All floats are serialized with repr, which round-trips
doubles exactly.

Exit codes: 0 success (solve: converged), 2 iteration budget exhausted
without convergence, 1 any error (with a diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .driver import (
    Algorithm,
    GapMode,
    IterationRecord,
    SolveConfig,
    cross_validate_rho,
    evaluate_policy_out_of_sample,
    gap_converged,
    generalization_bound,
    run,
)
from .kernel import BandwidthRule, KernelConfig
from .robust import AmbiguityParams, RhoRule
from .scenarios import (
    SyntheticSpec,
    TrajectorySet,
    generate_synthetic_markov,
    load_trajectories,
    save_trajectories,
)
from .stages import InstanceTemplate, build_portfolio_instance

__all__ = ["main", "CliError"]


class CliError(Exception):
    """User-facing problem; the message is printed verbatim to stderr."""


_TOP_KEYS = {
    "algorithm",
    "epsilon",
    "gap_mode",
    "max_iterations",
    "forward_paths_per_iter",
    "seed",
    "initial_state",
    "kernel",
    "ambiguity",
    "m_override",
    "crossval",
    "bound",
    "synth",
}

_SECTION_KEYS = {
    "kernel": {"bandwidth_h", "bandwidth_rule", "c_h"},
    "ambiguity": {"rho", "rule", "c_coefficient"},
    "crossval": {"c_grid", "n_folds"},
    "synth": {"kind", "K", "horizon_T", "n_paths", "seed", "r_f", "fees", "process"},
    "synth.process": {"mu", "phi", "noise_cov", "xi1", "box_lower", "box_upper"},
}


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(cfg) - _TOP_KEYS)
    # A section precedes its subsections, so each parent is an object here.
    for section, keys in _SECTION_KEYS.items():
        node = cfg
        for part in section.split("."):
            node = node.get(part, {})
        if node is None and section == "ambiguity":  # a DD run's snapshot writes null
            continue
        if not isinstance(node, dict):
            raise CliError(f"config section {section} must be a JSON object, got {node!r}")
        unknown += sorted(f"{section}.{key}" for key in set(node) - keys)
    if unknown:
        raise CliError(f"unknown config key(s): {', '.join(unknown)}")
    rule = (cfg.get("ambiguity") or {}).get("rule", "rate_scaled")
    if rule != "rate_scaled":
        raise CliError(f"ambiguity.rule must be \"rate_scaled\", got {rule!r}")
    return cfg


def _load_data(path: str) -> TrajectorySet:
    p = Path(path)
    if not p.exists():
        raise CliError(f"data file not found: {path}")
    return load_trajectories(p)


def _kernel_from(cfg: dict) -> KernelConfig:
    rules = {"manual": BandwidthRule.MANUAL, "auto_rate": BandwidthRule.AUTO_RATE}
    rule = cfg.get("bandwidth_rule", "manual")
    if rule not in rules:
        raise CliError(f"kernel.bandwidth_rule must be one of {sorted(rules)}, got {rule!r}")
    return KernelConfig(
        bandwidth_h=float(cfg.get("bandwidth_h", 1.0)),
        bandwidth_rule=rules[rule],
        c_h=float(cfg.get("c_h", 1.0)),
    )


def _ambiguity_from(cfg: dict | None, rho_flag: float | None) -> AmbiguityParams | None:
    if rho_flag is not None:
        return AmbiguityParams(rho=rho_flag)
    if cfg is None:
        return None
    if cfg.get("rule") == "rate_scaled":
        return AmbiguityParams(
            rho=0.0,
            rho_rule=RhoRule.RATE_SCALED,
            c_coefficient=float(cfg.get("c_coefficient", 1.0)),
        )
    if "rho" not in cfg:
        raise CliError("ambiguity needs either a manual \"rho\" or \"rule\": \"rate_scaled\"")
    return AmbiguityParams(rho=float(cfg["rho"]))


def _solve_config(cfg: dict, args: argparse.Namespace) -> SolveConfig:
    name = (args.algorithm or cfg.get("algorithm", "dd")).lower()
    if name not in ("dd", "rdd"):
        raise CliError(f"algorithm must be dd or rdd, got {name!r}")
    algorithm = Algorithm.DD if name == "dd" else Algorithm.RDD
    modes = {"absolute": GapMode.ABSOLUTE, "relative": GapMode.RELATIVE}
    mode = cfg.get("gap_mode", "relative")
    if mode not in modes:
        raise CliError(f"gap_mode must be one of {sorted(modes)}, got {mode!r}")
    try:
        return SolveConfig(
            algorithm=algorithm,
            epsilon=float(args.epsilon if args.epsilon is not None else cfg.get("epsilon", 1e-6)),
            gap_mode=modes[mode],
            max_iterations=int(
                args.max_iters if args.max_iters is not None else cfg.get("max_iterations", 200)
            ),
            forward_paths_per_iter=int(cfg.get("forward_paths_per_iter", 1)),
            seed=int(args.seed if args.seed is not None else cfg.get("seed", 0)),
            kernel=_kernel_from(cfg.get("kernel", {})),
            ambiguity=_ambiguity_from(cfg.get("ambiguity"), args.rho),
            M_override=(
                float(cfg["m_override"]) if cfg.get("m_override") is not None else None
            ),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _template_from(cfg: dict, traj: TrajectorySet) -> InstanceTemplate:
    if "initial_state" not in cfg:
        raise CliError("config needs \"initial_state\" (the pre-horizon decision vector)")
    x0 = np.asarray(cfg["initial_state"], dtype=float).reshape(-1)
    return InstanceTemplate(horizon_T=traj.horizon_T, initial_state=x0)


def _snapshot(config: SolveConfig, cfg: dict) -> dict:
    amb = None
    if config.ambiguity is not None:
        amb = {
            "rho": config.ambiguity.rho,
            "rule": config.ambiguity.rho_rule.value,
            "c_coefficient": config.ambiguity.c_coefficient,
        }
    return {
        "algorithm": config.algorithm.value,
        "epsilon": config.epsilon,
        "gap_mode": config.gap_mode.value,
        "max_iterations": config.max_iterations,
        "forward_paths_per_iter": config.forward_paths_per_iter,
        "seed": config.seed,
        "initial_state": [float(v) for v in cfg.get("initial_state", [])],
        "kernel": {
            "bandwidth_h": config.kernel.bandwidth_h,
            "bandwidth_rule": config.kernel.bandwidth_rule.value,
            "c_h": config.kernel.c_h,
        },
        "ambiguity": amb,
        "m_override": config.M_override,
    }


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out: Path, command: str, snapshot: dict, fingerprints: dict, seed: int) -> None:
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "config": snapshot,
            "data_sha256": fingerprints,
            "seed": seed,
            "version": __version__,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )


def _write_iterations(out: Path, records: list[IterationRecord]) -> None:
    with (out / "iterations.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "lower_bound", "upper_bound", "gap", "cuts_added", "envelope_points_added"]
        )
        for r in records:
            writer.writerow(
                [
                    r.k,
                    repr(r.lower_bound),
                    repr(r.upper_bound),
                    repr(r.gap),
                    r.cuts_added,
                    r.envelope_points_added,
                ]
            )


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    traj = _load_data(args.data)
    config = _solve_config(cfg, args)
    template = _template_from(cfg, traj)
    policy, records, first_stage = run(traj, template, config)
    last = records[-1]
    converged = gap_converged(config, last.lower_bound, last.upper_bound)
    out = _outdir(args)
    _write_iterations(out, records)
    _write_json(
        out / "results.json",
        {
            "algorithm": config.algorithm.value,
            "converged": converged,
            "iterations": len(records),
            "lower_bound": last.lower_bound,
            "upper_bound": last.upper_bound,
            "gap": last.gap,
            "rho": policy.rho,
            "first_stage_decision": [float(v) for v in first_stage],
        },
    )
    _write_manifest(out, "solve", _snapshot(config, cfg), {"data": _sha256(args.data)}, config.seed)
    print(
        f"LB={last.lower_bound!r} UB={last.upper_bound!r} gap={last.gap!r} "
        f"iterations={len(records)} converged={'yes' if converged else 'no'}"
    )
    return 0 if converged else 2


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    traj = _load_data(args.data)
    test = _load_data(args.test_data)
    config = _solve_config(cfg, args)
    template = _template_from(cfg, traj)
    policy, records, _ = run(traj, template, config)
    report = evaluate_policy_out_of_sample(policy, test)
    out = _outdir(args)
    _write_json(
        out / "evaluation.json",
        {
            "algorithm": config.algorithm.value,
            "root_lower_bound": policy.root_lower_bound,
            "n_paths": report.n_paths,
            "n_failed": report.n_failed,
            "mean": report.mean,
            "variance": report.variance,
            "std": report.std,
            "mean_utility": report.mean_utility,
            "sharpe": report.sharpe,
            "objectives": [float(v) for v in report.objectives],
        },
    )
    _write_manifest(
        out,
        "evaluate",
        _snapshot(config, cfg),
        {"data": _sha256(args.data), "test_data": _sha256(args.test_data)},
        config.seed,
    )
    print(f"mean={report.mean!r} variance={report.variance!r} failed={report.n_failed}")
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    traj = _load_data(args.data)
    config = _solve_config(cfg, args)
    template = _template_from(cfg, traj)
    cv_cfg = cfg.get("crossval", {})
    result = cross_validate_rho(
        traj,
        template,
        config,
        c_grid=cv_cfg.get("c_grid"),
        n_folds=int(cv_cfg.get("n_folds", 5)),
    )
    out = _outdir(args)
    _write_json(
        out / "crossval.json",
        {
            "best_c": result.best_c,
            "best_rho": result.best_rho,
            "scores": [[c, s] for c, s in result.scores],
        },
    )
    _write_manifest(
        out, "crossval", _snapshot(config, cfg), {"data": _sha256(args.data)}, config.seed
    )
    print(f"best_c={result.best_c!r} best_rho={result.best_rho!r}")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    params = cfg.get("bound")
    if not isinstance(params, dict):
        raise CliError("config needs a \"bound\" object with the bound's constants")
    try:
        value = generalization_bound(**params)
    except TypeError as exc:
        raise CliError(f"bad bound parameters: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(repr(value))
    if args.out is not None:
        out = _outdir(args)
        _write_json(out / "bound.json", {"bound": value, "parameters": params})
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    synth = cfg.get("synth")
    if not isinstance(synth, dict):
        raise CliError("config needs a \"synth\" object")
    kind = synth.get("kind", "portfolio")
    if kind != "portfolio":
        raise CliError(f"unknown synthetic instance kind: {kind!r}")
    K = int(synth.get("K", 3))
    horizon_T = int(synth.get("horizon_T", 4))
    n_paths = int(synth.get("n_paths", 20))
    seed = int(args.seed if args.seed is not None else synth.get("seed", 0))
    fees = synth.get("fees", [0.0, 0.0])
    numbers = isinstance(fees, list) and all(type(f) in (int, float) for f in fees)
    if not numbers or len(fees) != 2:
        raise CliError(f"synth.fees must be two numbers (buy, sell), got {fees!r}")
    template = build_portfolio_instance(K, horizon_T, fees=fees, r_f=float(synth.get("r_f", 1.0)))
    proc = synth.get("process")
    if not isinstance(proc, dict):
        raise CliError("synth needs a \"process\" object (mu, phi, noise_cov, xi1, box)")
    missing = [f"synth.process.{key}" for key in sorted(_SECTION_KEYS["synth.process"] - set(proc))]
    if missing:
        raise CliError(f"missing config key(s): {', '.join(missing)}")
    spec = SyntheticSpec(
        **{key: np.asarray(proc[key], dtype=float) for key in _SECTION_KEYS["synth.process"]},
        datum_builder=template.datum_builder,
    )
    traj = generate_synthetic_markov(spec, horizon_T, n_paths, rng_seed=seed)
    target = Path(args.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    save_trajectories(traj, target)
    print(f"wrote {n_paths} trajectories over T={horizon_T} stages to {target}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sddpkit",
        description="Data-driven (and robust) multistage stochastic LP solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--data", required=True, help="trajectory CSV")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
        p.add_argument("--algorithm", choices=["dd", "rdd"], default=None)
        p.add_argument("--rho", type=float, default=None)

    p_solve = sub.add_parser("solve", help="train bounds and a policy on trajectories")
    common(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_eval = sub.add_parser("evaluate", help="train, then score the policy on test data")
    common(p_eval)
    p_eval.add_argument("--test-data", dest="test_data", required=True)
    p_eval.set_defaults(fn=cmd_evaluate)

    p_cv = sub.add_parser("crossval", help="cross-validate the ambiguity radius")
    common(p_cv)
    p_cv.set_defaults(fn=cmd_crossval)

    p_bound = sub.add_parser("bound", help="evaluate the out-of-sample error bound")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--out", default=None)
    p_bound.set_defaults(fn=cmd_bound)

    p_synth = sub.add_parser("synth", help="generate synthetic trajectories")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True, help="target trajectory CSV path")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.set_defaults(fn=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surfaced library errors: bad data, infeasible models
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
