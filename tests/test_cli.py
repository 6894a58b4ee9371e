"""CLI tests: exit codes, report files, replays, and flag overrides."""

import csv
import json
import math

import numpy as np
import pytest

from sddpkit.cli import main
from sddpkit.driver import generalization_bound
from sddpkit.scenarios import load_trajectories, save_trajectories

from _toys import make_toy

_BOUND_PARAMS = {
    "sigmas": [1.0, 1.0],
    "lipschitz_constants": [1.0, 1.0],
    "diameters": [1.0, 1.0],
    "state_dims": [1, 1],
    "g_min": 1.0,
    "deltas": [0.1, 0.1],
    "eta": 0.01,
    "n_samples": 100,
    "h": 0.4,
    "p": 1,
    "horizon_T": 3,
}


_PROCESS = {
    "mu": [0.55, 0.55],
    "phi": [[0.45, 0.0], [0.0, 0.45]],
    "noise_cov": [[0.0004, 0.0], [0.0, 0.0004]],
    "xi1": [1.0, 1.0],
    "box_lower": [0.7, 0.7],
    "box_upper": [1.4, 1.4],
}


def _write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "algorithm": "dd",
        "epsilon": 1e-8,
        "gap_mode": "absolute",
        "max_iterations": 50,
        "seed": 7,
        "initial_state": [0.0, 0.0, 0.0],
        "kernel": {"bandwidth_h": 0.5},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _write_data(tmp_path, seed=3, horizon_T=3, n_paths=3, name="data.csv"):
    traj, _ = make_toy(seed, horizon_T=horizon_T, n_paths=n_paths)
    path = tmp_path / name
    save_trajectories(traj, path)
    return str(path)


def test_solve_writes_reports_and_exits_zero(tmp_path):
    cfg = _write_config(tmp_path)
    data = _write_data(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    with (out / "iterations.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    lbs = [float(r["lower_bound"]) for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
    results = json.loads((out / "results.json").read_text())
    assert results["converged"] is True
    assert results["upper_bound"] - results["lower_bound"] <= 1e-8
    assert len(results["first_stage_decision"]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["data_sha256"]["data"]) == 64
    assert manifest["config"]["algorithm"] == "DD"
    assert manifest["version"]


def test_solve_missing_data_exits_one_and_names_the_path(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    missing = str(tmp_path / "nothere.csv")
    code = main(["solve", "--config", cfg, "--data", missing, "--out", str(tmp_path / "o")])
    assert code == 1
    assert missing in capsys.readouterr().err


def test_solve_budget_exhausted_exits_two_and_prints_gap(tmp_path, capsys):
    cfg = _write_config(tmp_path, epsilon=1e-300, max_iterations=1)
    data = _write_data(tmp_path)
    code = main(["solve", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")])
    assert code == 2
    out = capsys.readouterr().out
    assert "gap=" in out and "converged=no" in out
    results = json.loads((tmp_path / "o" / "results.json").read_text())
    assert results["converged"] is False
    assert results["iterations"] == 1


def test_replayed_solve_reports_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    data = _write_data(tmp_path)
    for name in ("a", "b"):
        assert main(["solve", "--config", cfg, "--data", data, "--out", str(tmp_path / name)]) == 0
    for report in ("iterations.csv", "results.json"):
        assert (tmp_path / "a" / report).read_bytes() == (tmp_path / "b" / report).read_bytes()


def test_rho_zero_flag_reproduces_dd_results(tmp_path):
    cfg = _write_config(tmp_path)
    data = _write_data(tmp_path)
    assert main(["solve", "--config", cfg, "--data", data, "--out", str(tmp_path / "dd")]) == 0
    assert (
        main(
            [
                "solve",
                "--config",
                cfg,
                "--data",
                data,
                "--out",
                str(tmp_path / "rdd"),
                "--algorithm",
                "rdd",
                "--rho",
                "0.0",
            ]
        )
        == 0
    )
    dd = json.loads((tmp_path / "dd" / "results.json").read_text())
    rdd = json.loads((tmp_path / "rdd" / "results.json").read_text())
    assert rdd["rho"] == 0.0
    assert rdd["algorithm"] == "RDD"
    assert rdd["lower_bound"] == pytest.approx(dd["lower_bound"], abs=1e-8)
    assert rdd["upper_bound"] == pytest.approx(dd["upper_bound"], abs=1e-8)


def test_evaluate_on_training_data_matches_root_bound_for_t2(tmp_path):
    cfg = _write_config(tmp_path, max_iterations=10)
    data = _write_data(tmp_path, seed=11, horizon_T=2, n_paths=4)
    out = tmp_path / "out"
    code = main(
        ["evaluate", "--config", cfg, "--data", data, "--test-data", data, "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "evaluation.json").read_text())
    assert report["n_failed"] == 0
    assert report["mean"] == pytest.approx(report["root_lower_bound"], abs=1e-6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["data_sha256"]["data"] == manifest["data_sha256"]["test_data"]


def test_crossval_selects_the_lower_validation_objective(tmp_path):
    cfg = _write_config(
        tmp_path,
        max_iterations=8,
        crossval={"c_grid": [0.01, 1.0], "n_folds": 2},
    )
    data = _write_data(tmp_path, seed=6, horizon_T=2, n_paths=6)
    out = tmp_path / "out"
    assert main(["crossval", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    result = json.loads((out / "crossval.json").read_text())
    assert len(result["scores"]) == 2
    best_by_score = min(result["scores"], key=lambda cs: (cs[1], cs[0]))[0]
    assert result["best_c"] == best_by_score


def test_bound_command_prints_the_library_value(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bound": _BOUND_PARAMS}))
    assert main(["bound", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == repr(generalization_bound(**_BOUND_PARAMS))


def test_bound_command_writes_json_when_out_given(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bound": _BOUND_PARAMS}))
    out = tmp_path / "out"
    assert main(["bound", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "bound.json").read_text())
    assert payload["bound"] == generalization_bound(**_BOUND_PARAMS)


def test_bound_command_exits_one_on_a_non_finite_constant(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bound": {**_BOUND_PARAMS, "sigmas": [math.nan, 1.0]}}))
    assert main(["bound", "--config", str(path)]) == 1
    assert "sigmas and lipschitz_constants must be finite" in capsys.readouterr().err


def test_synth_portfolio_writes_loadable_trajectories(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "synth": {
                    "kind": "portfolio",
                    "K": 2,
                    "horizon_T": 3,
                    "n_paths": 4,
                    "seed": 5,
                    "r_f": 1.01,
                    "process": _PROCESS,
                }
            }
        )
    )
    target = tmp_path / "traj.csv"
    assert main(["synth", "--config", str(path), "--out", str(target)]) == 0
    traj = load_trajectories(target)
    assert traj.horizon_T == 3
    assert traj.n_paths == 4
    assert traj.feature_dim == 2
    assert np.all(traj.features(2) >= 0.7) and np.all(traj.features(2) <= 1.4)


def test_unknown_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"initial_state": [0.0], "bandwith": 1.0}))
    data = _write_data(tmp_path)
    code = main(["solve", "--config", str(path), "--data", data, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bandwith" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, message",
    [
        ("solve", {"kernel": {"bandwith_h": 0.5}}, "kernel.bandwith_h"),
        ("solve", {"ambiguity": {"rho": 0.1, "radius": 0.2}}, "ambiguity.radius"),
        ("solve", {"crossval": {"n_fold": 2}}, "crossval.n_fold"),
        ("synth", {"synth": {"kind": "portfolio", "horizon": 3}}, "synth.horizon"),
        (
            "solve",
            {"algorithm": "rdd", "ambiguity": {"rho": 0.1, "rule": "rate-scaled"}},
            "ambiguity.rule must be \"rate_scaled\", got 'rate-scaled'",
        ),
        ("solve", {"ambiguity": {"rho": 0.1, "rule": "manual"}}, "ambiguity.rule"),
        (
            "synth",
            {"synth": {"K": 2, "process": {**_PROCESS, "box_uper": [1.4, 1.4]}}},
            "synth.process.box_uper",
        ),
        ("solve", {"kernel": [1.0]}, "config section kernel must be a JSON object"),
        ("solve", {"ambiguity": 5}, "config section ambiguity must be a JSON object"),
        ("solve", {"crossval": "folds"}, "config section crossval must be a JSON object"),
        ("synth", {"synth": None}, "config section synth must be a JSON object"),
        (
            "synth",
            {"synth": {"K": 2, "process": [1.0]}},
            "config section synth.process must be a JSON object",
        ),
        ("synth", {"synth": {"K": 2, "fees": [0.01], "process": _PROCESS}}, "synth.fees"),
        (
            "synth",
            {"synth": {"K": 2, "fees": [0.01, 0.02, 0.5], "process": _PROCESS}},
            "synth.fees",
        ),
        ("synth", {"synth": {"K": 2, "fees": "0.01", "process": _PROCESS}}, "synth.fees"),
    ],
)
def test_misspelled_nested_config_key_exits_one_before_writing(
    tmp_path, capsys, command, section, message
):
    """A key no section reads, a radius rule other than rate_scaled, a
    section that is not an object, or fees that are not two numbers, is
    named in the error, and nothing is written."""
    cfg = _write_config(tmp_path, **section)
    out = tmp_path / "out"
    args = ["--config", cfg, "--out", str(out)]
    if command == "solve":
        args += ["--data", _write_data(tmp_path)]
    assert main([command, *args]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_null_ambiguity_means_no_radius(tmp_path):
    cfg = _write_config(tmp_path, ambiguity=None)
    data = _write_data(tmp_path)
    assert main(["solve", "--config", cfg, "--data", data, "--out", str(tmp_path / "out")]) == 0


def test_synth_missing_process_key_exits_one_and_names_it(tmp_path, capsys):
    process = {key: value for key, value in _PROCESS.items() if key != "box_upper"}
    cfg = _write_config(tmp_path, synth={"K": 2, "horizon_T": 3, "process": process})
    target = tmp_path / "traj.csv"
    assert main(["synth", "--config", cfg, "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert "synth.process.box_upper" in err and "KeyError" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "flags, ambiguity, expected",
    [
        (["--rho", "0.25"], None, {"rho": 0.25, "rule": "Manual", "c_coefficient": 1.0}),
        ([], {"rho": 0.25}, {"rho": 0.25, "rule": "Manual", "c_coefficient": 1.0}),
        (
            [],
            {"rule": "rate_scaled", "c_coefficient": 2.0},
            {"rho": 0.0, "rule": "RateScaled", "c_coefficient": 2.0},
        ),
    ],
)
def test_manifest_pins_the_ambiguity_snapshot(tmp_path, flags, ambiguity, expected):
    overrides = {"algorithm": "rdd", "max_iterations": 5}
    if ambiguity is not None:
        overrides["ambiguity"] = ambiguity
    cfg = _write_config(tmp_path, **overrides)
    data = _write_data(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--data", data, "--out", str(out), *flags]) in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["ambiguity"] == expected


def test_replayed_rdd_solve_reports_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, algorithm="rdd", ambiguity={"rho": 0.25})
    data = _write_data(tmp_path)
    codes = [
        main(["solve", "--config", cfg, "--data", data, "--out", str(tmp_path / name)])
        for name in ("a", "b")
    ]
    assert codes[0] == codes[1] and codes[0] in (0, 2)
    for report in ("iterations.csv", "results.json"):
        assert (tmp_path / "a" / report).read_bytes() == (tmp_path / "b" / report).read_bytes()


@pytest.mark.parametrize(
    "overrides, flags, message",
    [
        (
            {"kernel": {"bandwidth_rule": "auto_rate", "c_h": float("nan")}},
            [],
            "c_h must be positive",
        ),
        ({"algorithm": "rdd"}, ["--rho", "nan"], "rho must be finite and nonnegative"),
        ({"algorithm": "rdd", "ambiguity": {"rho": float("inf")}}, [], "rho must be finite"),
        (
            {"algorithm": "rdd", "ambiguity": {"rule": "rate_scaled", "c_coefficient": math.nan}},
            [],
            "c_coefficient must be finite",
        ),
        ({"kernel": {"bandwidth_h": math.inf}}, [], "bandwidth_h must be positive and finite"),
        (
            {"kernel": {"bandwidth_rule": "auto_rate", "c_h": math.inf}},
            [],
            "c_h must be positive and finite",
        ),
        ({"m_override": -1.0}, [], "M_override must be finite and nonnegative"),
        ({"m_override": math.nan}, [], "M_override must be finite and nonnegative"),
        ({"m_override": math.inf}, [], "M_override must be finite and nonnegative"),
    ],
)
def test_non_finite_settings_exit_one_before_writing(tmp_path, capsys, overrides, flags, message):
    """A NaN kernel constant, an infinite bandwidth, a NaN or infinite
    radius, or a negative or non-finite envelope penalty is refused with
    its message before training starts, so no output directory appears."""
    cfg = _write_config(tmp_path, **overrides)
    data = _write_data(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--data", data, "--out", str(out), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
