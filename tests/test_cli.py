import json
import re
from pathlib import Path

import numpy as np
import pytest

from ncsmode.cli import (
    config_from_dict,
    config_to_dict,
    cstr5_config,
    dump_config,
    load_config,
    main,
    run_experiment,
)

from conftest import BENCHMARK_TRANSITION

QUAD4_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "quad4.json"


def test_preset_config_is_unchanged():
    """The preset's full config, every default filled in, as literals (the
    chain is the exact Kronecker product of the link rows)."""
    eye4 = [[0.1 if i == j else 0.0 for j in range(4)] for i in range(4)]
    assert config_to_dict(load_config("cstr5")) == {
        "plant": {"A": [[-0.8882, -0.0097], [293.8556, 2.2973]],
                  "B": [[0.011, -0.0014], [-0.3602, 0.4732]],
                  "C": [[1.0, 0.0], [0.0, 1.0]], "Q": [[0.0, 0.0], [0.0, 0.0]],
                  "R": [[0.0025, 0.0], [0.0, 0.0025]]},
        "arma": None, "strategy": "hold",
        "chain": {"matrix": [
            [0.6400000000000001, 0.16000000000000003, 0.16000000000000003, 0.04000000000000001],
            [0.32000000000000006, 0.48, 0.08000000000000002, 0.12],
            [0.32000000000000006, 0.08000000000000002, 0.48, 0.12],
            [0.16000000000000003, 0.24, 0.24, 0.36]]},
        "steps": 100, "input": {"std": [10.0, 10.0]}, "x0": [1.0, 1.0],
        "u_init_applied": [1.0, 1.0], "initial_mode": None, "resample_x0": False,
        "x0_std": 1.0, "held_cov_floor": None,
        "estimator_init": {"x0": [0.0, 0.0, 0.0, 0.0], "P0": eye4,
                           "prior": [0.25, 0.25, 0.25, 0.25]},
        "estimators": ["alg1", "alg2", "imm"], "trials": 100, "seed": None,
        "out": "results", "emit_steps": False, "hist_bin_width": 2.0,
    }


def test_preset_reproduces_benchmark_constants():
    cfg = load_config("cstr5")
    trial = cfg.trial
    assert np.allclose(trial.chain.P, BENCHMARK_TRANSITION, atol=1e-15)
    assert trial.chain.P[0, 0] == 0.8 * 0.8  # exact per-link products
    assert np.array_equal(trial.plant.R, 2.5e-3 * np.eye(2))
    assert np.array_equal(trial.x0, [1.0, 1.0])
    assert np.array_equal(trial.u_init_applied, [1.0, 1.0])
    assert np.array_equal(trial.est_x0, np.zeros(4))
    assert np.array_equal(trial.est_P0, 0.1 * np.eye(4))
    assert trial.est_prior is None or np.allclose(trial.est_prior, 0.25)
    assert np.array_equal(trial.input_std, [10.0, 10.0])
    assert trial.steps == 100
    assert cfg.n_trials == 100
    assert cfg.estimators == ("alg1", "alg2", "imm")


def test_bad_chain_row_rejected_naming_the_row():
    data = cstr5_config()
    data["chain"] = {"matrix": [[0.3, 0.3, 0.2, 0.1]] + [[0.25] * 4] * 3}
    with pytest.raises(ValueError, match="row 1"):
        config_from_dict(data)


def test_validation_errors_name_fields():
    data = cstr5_config()
    del data["plant"]["A"]
    with pytest.raises(ValueError, match="plant.A"):
        config_from_dict(data)
    data = cstr5_config()
    data["input"] = {}
    with pytest.raises(ValueError, match="input"):
        config_from_dict(data)


def test_unknown_config_keys_rejected_naming_the_key(tmp_path, capsys):
    data = cstr5_config()
    data["trails"] = 5
    with pytest.raises(ValueError, match="'trails'"):
        config_from_dict(data)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "trails" in capsys.readouterr().err
    for section in ("plant", "chain", "input", "estimator_init"):
        data = cstr5_config()
        data[section]["typo"] = 1
        with pytest.raises(ValueError, match=f"{section}: unknown key.*'typo'"):
            config_from_dict(data)


def test_written_configs_hold_only_known_keys():
    config_from_dict(config_to_dict(load_config("cstr5")))
    assert load_config(str(QUAD4_CONFIG)).trial.chain.s == 16


def test_config_round_trip_is_fixpoint(tmp_path):
    canonical = config_to_dict(load_config("cstr5"))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(canonical))
    reloaded = load_config(str(path))
    assert config_to_dict(reloaded) == canonical
    assert json.loads(dump_config(reloaded)) == canonical


def test_load_config_missing_file():
    with pytest.raises(ValueError, match="cannot read config"):
        load_config("/nonexistent/experiment.json")


def test_load_config_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"plant": ')
    with pytest.raises(ValueError, match="line 1"):
        load_config(str(path))


def _small_args(tmp_path, extra=()):
    return [
        "run", "--preset", "cstr5", "--trials", "3", "--steps", "12",
        "--seed", "7", "--out", str(tmp_path), *extra,
    ]


def test_run_writes_expected_outputs(tmp_path):
    code = main(_small_args(tmp_path, ("--emit-steps",)))
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "metrics.json" in names
    for est in ("alg1", "alg2", "imm"):
        assert f"hist_{est}.csv" in names
        assert f"series_{est}.csv" in names
    assert {"trial_0000.csv", "trial_0001.csv", "trial_0002.csv"} <= names

    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["trials"] == 3
    assert set(metrics["estimators"]) == {"alg1", "alg2", "imm"}
    for stats in metrics["estimators"].values():
        assert 0.0 <= stats["mean_mde_percent"] <= 100.0
        assert len(stats["mean_rmse"]) == 2


def test_step_csv_schema(tmp_path):
    assert main(_small_args(tmp_path, ("--emit-steps", "--trials", "1"))) == 0
    lines = (tmp_path / "trial_0000.csv").read_text().splitlines()
    assert lines[0].startswith("# ncsmode-steps-v1")
    header = lines[1].split(",")
    assert header[:5] == [
        "k", "theta_true", "theta_hat_alg1", "theta_hat_alg2", "theta_hat_imm"
    ]
    assert header[-1] == "fallback_flags"
    assert "x1" in header and "xhat1_alg1" in header and "y1" in header
    assert len(lines) == 2 + 12  # comment, header, one row per step


def test_repeated_runs_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(_small_args(out1, ("--emit-steps",))) == 0
    assert main(_small_args(out2, ("--emit-steps",))) == 0
    for path1 in sorted(out1.iterdir()):
        path2 = out2 / path1.name
        assert path1.read_bytes() == path2.read_bytes()


def test_estimator_subset_and_strategy_override(tmp_path):
    code = main(_small_args(tmp_path, ("--estimators", "alg2", "--strategy", "zero")))
    assert code == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics["estimators"]) == {"alg2"}


def test_reproduce_requires_seed(tmp_path, capsys):
    args = ["run", "--preset", "cstr5", "--trials", "1", "--out", str(tmp_path),
            "--reproduce"]
    assert main(args) == 2
    assert "--reproduce" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = cstr5_config()
    data["chain"] = {"matrix": [[0.5, 0.5]] * 2}  # wrong size for two links
    path.write_text(json.dumps(data))
    args = ["run", "--config", str(path), "--out", str(tmp_path)]
    assert main(args) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, value",
    [(None, [1, 2]), ("plant", [1]), ("chain", 3), ("input", 5),
     ("estimator_init", [1]), ("arma", [1])],
)
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, section, value):
    data = cstr5_config()
    if section is None:
        data = value
    else:
        data[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert ("JSON object" if section is None else f"{section}: must be an object") in err


@pytest.mark.parametrize(
    "key, value",
    [("steps", None), ("trials", None), ("x0_std", None), ("hist_bin_width", None),
     ("estimators", 5), ("estimators", "alg1"), ("estimators", ["alg1", 2]),
     ("initial_mode", "2"), ("trials", 2.5), ("steps", 100.7), ("seed", True),
     ("emit_steps", "false"), ("resample_x0", "no"), ("held_cov_floor", "0.1"),
     ("out", 5), ("arma", {"a": [1.0], "b": [[[1.0]]], "c": [1.0]})],
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, key, value):
    """No value is coerced into the type its key takes, and none ends in a
    traceback: each exits 2 naming the key (for the arma section, the
    missing one)."""
    data = cstr5_config()
    data[key] = value
    with pytest.raises(ValueError, match=key):
        config_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err
    if key == "arma":
        assert "'lam'" in err


def test_config_values_of_the_right_type_load():
    data = cstr5_config()
    data.update(steps=7, trials=3, seed=0, x0_std=2, hist_bin_width=1, initial_mode=4,
                held_cov_floor=0, resample_x0=True, emit_steps=True, out="o")
    cfg = config_from_dict(data)
    assert (cfg.trial.steps, cfg.n_trials, cfg.seed, cfg.out) == (7, 3, 0, "o")
    assert cfg.trial.x0_std == 2.0 and cfg.hist_bin_width == 1.0
    assert cfg.trial.initial_mode == 4 and cfg.trial.held_cov_floor == 0.0
    assert cfg.trial.resample_x0 and cfg.emit_steps


def test_strategy_override_from_zero_to_hold(tmp_path, capsys):
    """A strategy flag does not resize explicit estimator initials: those
    that fit the config's own strategy are refused at load for the other.
    The hold-to-zero direction of the preset, whose initials are the
    defaults, runs in the estimator-subset test above."""
    data = cstr5_config()
    data["strategy"] = "zero"
    data["estimator_init"] = {"x0": [0.0, 0.0], "P0": [[0.1, 0.0], [0.0, 0.2]]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    args = ["run", "--config", str(path), "--strategy", "hold", "--trials", "3",
            "--steps", "12", "--seed", "7", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "error: trial: est_x0 has length 2, expected 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_explicit_arma_section_is_used(tmp_path):
    """An experiment config may carry the input-output model explicitly;
    results match the derived one."""
    import dataclasses

    from ncsmode.model import ss_to_arma
    from ncsmode.sim import simulate_trial

    cfg = load_config("cstr5")
    arma = ss_to_arma(cfg.trial.plant)
    data = config_to_dict(cfg)
    data["arma"] = {
        "a": arma.a.tolist(), "b": arma.b.tolist(),
        "c": arma.c.tolist(), "lam": arma.lam.tolist(),
    }
    explicit = config_from_dict(data)
    assert explicit.trial.arma is not None
    rec_explicit = simulate_trial(
        dataclasses.replace(explicit.trial, steps=15, seed=4), ("alg1",)
    )
    rec_derived = simulate_trial(
        dataclasses.replace(cfg.trial, steps=15, seed=4), ("alg1",)
    )
    assert np.array_equal(rec_explicit.est_modes["alg1"], rec_derived.est_modes["alg1"])


def test_jobs_flag_gives_identical_outputs(tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(_small_args(out1)) == 0
    assert main(_small_args(out2, ("--jobs", "2"))) == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


def test_run_experiment_failure_removes_outputs(tmp_path):
    cfg = load_config("cstr5")
    data = config_to_dict(cfg)
    # zero measurement noise makes every estimator construction fail
    data["plant"]["R"] = [[0.0, 0.0], [0.0, 0.0]]
    data["trials"] = 2
    data["steps"] = 5
    data["seed"] = 3
    data["out"] = str(tmp_path / "fail")
    bad = config_from_dict(data)
    code = run_experiment(bad)
    assert code == 1
    out_dir = tmp_path / "fail"
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize(
    "section, key, value",
    [("input", "std", {"a": 1}), ("input", "std", "10"), ("estimator_init", "prior", "gaussian"),
     ("estimator_init", "prior", True), ("estimator_init", "P0", "a"),
     ("estimator_init", "x0", "ab"), ("plant", "A", [["1", 0.0], [0.0, 1.0]]),
     ("plant", "R", [[True, 0.0], [0.0, 1.0]]), ("chain", "matrix", "P"),
     ("chain", "links", {"a": 1}), (None, "x0", {"a": 1}), (None, "u_init_applied", "ab")],
)
def test_config_section_value_of_the_wrong_type_exits_2(tmp_path, capsys, section, key, value):
    """A matrix, vector or scale inside a section (or the top-level x0 and
    held input) takes a number or a list of numbers, and a prior "uniform"
    or a list: anything else exits 2 naming the key, without a traceback."""
    data = cstr5_config()
    if section is None:
        data[key] = value
    else:
        data[section] = {key: value} if section == "chain" else {**data[section], key: value}
    name = key if section is None else f"{section}.{key}"
    with pytest.raises(ValueError, match=re.escape(f"{name}: ")):
        config_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {name}: " in capsys.readouterr().err


def test_config_section_values_of_the_right_type_load():
    """A scalar P0 scales the identity, "uniform" or an absent prior is the
    uniform one, and integers and nested lists read as numbers."""
    data = cstr5_config()
    data["estimator_init"] = {"x0": [0, 0, 0, 1], "P0": 2, "prior": "uniform"}
    data["input"] = {"std": 3}
    trial = config_from_dict(data).trial
    assert np.array_equal(trial.est_x0, [0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(trial.est_P0, 2.0 * np.eye(4))
    assert trial.est_prior is None
    assert np.array_equal(trial.input_std, [3.0, 3.0])
    data["estimator_init"] = {"prior": [0.1, 0.2, 0.3, 0.4]}
    trial = config_from_dict(data).trial
    assert np.array_equal(trial.est_prior, [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(trial.est_P0, 0.1 * np.eye(4))


@pytest.mark.parametrize(
    "init, message",
    [({"prior": [0.5, 0.4, 0.05, 0.0]}, "est_prior sums to 0.9500000000000001, expected 1"),
     ({"prior": [0.5, 0.6, -0.1, 0.0]}, "est_prior has negative entries"),
     ({"P0": -0.1}, "est_P0 must be positive semidefinite within 1e-10"),
     ({"P0": [[0.1, 0.05, 0.0, 0.0], [0.0, 0.1, 0.0, 0.0],
              [0.0, 0.0, 0.1, 0.0], [0.0, 0.0, 0.0, 0.1]]},
      "est_P0 must be symmetric within 1e-10")],
)
def test_estimator_initials_that_are_no_prior_or_covariance_exit_2(
    tmp_path, capsys, init, message
):
    """A prior off the simplex and a P0 that is not symmetric PSD are
    rejected at load, naming the field in plain numbers, not at run time."""
    data = cstr5_config()
    data["estimator_init"].update(init)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "np.float64" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["plant.B", "chain.links"])
def test_more_links_than_the_bound_exit_2(tmp_path, capsys, key):
    """Eleven links (2048 modes) are refused at load, before the joint chain
    is allocated, naming the key that set the link count."""
    data = cstr5_config()
    if key == "plant.B":
        data["plant"]["B"] = [[0.01] * 11, [0.1] * 11]
    else:
        data["chain"]["links"] = [[[0.8, 0.2], [0.4, 0.6]]] * 11
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert (f"error: {key}: number of links must be an integer in 0..10, got 11"
            in capsys.readouterr().err)


def _with_sequence(data, value):
    data["input"] = {"sequence": [[1.0, 1.0]] * 100 + [[value, 1.0]]}


def _with_arma(data, value):
    data["arma"] = {"a": [0.5], "b": [[[0.1, value], [0.0, 0.1]]], "c": [0.5],
                    "lam": [[2.5e-3, 0.0], [0.0, 2.5e-3]]}


@pytest.mark.parametrize(
    "edit, message",
    [(lambda d: d.update(x0=[float("nan"), 1.0]), "trial: x0 must be finite"),
     (lambda d: d.update(u_init_applied=[1.0, float("inf")]),
      "trial: u_init_applied must be finite"),
     (lambda d: d["input"].update(std=[10.0, float("nan")]), "trial: input_std must be finite"),
     (lambda d: _with_sequence(d, float("-inf")), "trial: input_sequence must be finite"),
     (lambda d: d["estimator_init"].update(x0=[0.0, float("nan"), 0.0, 0.0]),
      "trial: est_x0 must be finite"),
     (lambda d: d.update(resample_x0=True, x0_std=float("nan")), "trial: x0_std must be finite"),
     (lambda d: d.update(held_cov_floor=float("inf")), "trial: held_cov_floor must be finite"),
     (lambda d: d.update(held_cov_floor=float("nan")), "trial: held_cov_floor must be finite"),
     (lambda d: _with_arma(d, float("nan")), "arma: b contains non-finite entries"),
     (lambda d: d["chain"]["links"][1].__setitem__(1, [float("nan"), 0.6]),
      "chain.links: link chain row 2 has entries outside [0, 1]"),
     (lambda d: d.update(chain={"matrix": [[0.25] * 4] * 2 + [[float("nan"), 0.0, 0.0, 1.0]]
                                + [[0.25] * 4]}),
      "chain: transition matrix row 3 has entries outside [0, 1]")],
    ids=["x0", "u_init_applied", "input.std", "input.sequence", "estimator_init.x0",
         "x0_std", "held_cov_floor-inf", "held_cov_floor-nan", "arma.b", "chain.links",
         "chain.matrix"],
)
def test_non_finite_config_values_exit_2(tmp_path, capsys, edit, message):
    """A JSON NaN or Infinity in an initial state, an input, a scale, the
    input-output model or the mode chain is rejected at load, naming the
    field, before any trial runs."""
    data = cstr5_config()
    edit(data)
    text = _assert_refused_at_load(tmp_path, capsys, data, message)
    assert "NaN" in text or "Infinity" in text


@pytest.mark.parametrize(
    "edit, message",
    [(lambda d: d["input"].update(std=[10.0, -1.0]), "trial: input_std must be nonnegative"),
     (lambda d: d.update(held_cov_floor=-0.1), "trial: held_cov_floor must be nonnegative"),
     (lambda d: d.update(resample_x0=True, x0_std=-2.0), "trial: x0_std must be nonnegative")],
    ids=["input.std", "held_cov_floor", "x0_std"],
)
def test_negative_scales_exit_2(tmp_path, capsys, edit, message):
    """A negative input std, held-input variance floor or initial-state std
    is rejected at load, naming the field, before any trial runs."""
    data = cstr5_config()
    edit(data)
    _assert_refused_at_load(tmp_path, capsys, data, message)


def _assert_refused_at_load(tmp_path, capsys, data, message) -> str:
    """Run config ``data`` from a file: it exits 2 with ``message`` and
    writes no output. Returns the file's text."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    return path.read_text()


@pytest.mark.parametrize("width", ["0", "-1", "150", "nan"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_histogram_bin_width_exits_2_before_any_trial(tmp_path, capsys, width, source):
    """A bin width outside (0, 100], or NaN, is refused when the config is
    built, from the flag or the config key alike: no trial runs and no
    output directory appears."""
    out = tmp_path / "out"
    if source == "flag":
        args = _small_args(out, ("--emit-steps", "--hist-bin-width", width))
    else:
        data = cstr5_config()
        data.update(hist_bin_width=float(width), trials=3, steps=12, seed=7, emit_steps=True)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        args = ["run", "--config", str(path), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"hist_bin_width must be in (0, 100], got {float(width)}" in err
    assert not out.exists()


def test_histogram_bin_width_below_a_hundredth_exits_2(tmp_path, capsys):
    """A width that would make more than 10000 histogram bins (0.0001 makes
    a million) is refused at load, before any trial runs or any histogram
    is allocated: exit 2 and no output directory."""
    out = tmp_path / "out"
    args = ["run", "--preset", "cstr5", "--trials", "2", "--steps", "20",
            "--hist-bin-width", "0.0001", "--out", str(out)]
    assert main(args) == 2
    assert "hist_bin_width must be at least 0.01 (10000 bins), got 0.0001" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, value, message",
    [("input", {"std": [10.0, 10.0], "sequence": [[1.0, 1.0]] * 101},
      "input: give exactly one of 'std' or 'sequence'"),
     ("chain", {"matrix": BENCHMARK_TRANSITION.tolist(), "links": [[[0.8, 0.2], [0.4, 0.6]]] * 2},
      "chain: give exactly one of 'matrix' or 'links'"),
     ("chain", {}, "chain: give exactly one of 'matrix' or 'links'")],
)
def test_either_or_section_with_both_or_neither_exits_2(tmp_path, capsys, section, value, message):
    """A section that takes one of two keys refuses both, instead of
    silently dropping one of the given values."""
    data = cstr5_config()
    data[section] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(data)
    path = tmp_path / "both.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_duplicate_estimator_exits_2_naming_it(tmp_path, capsys, source):
    """One estimator selected twice would write its columns twice and take
    two fallback bits; it is refused before any trial runs."""
    out = tmp_path / "out"
    if source == "flag":
        args = _small_args(out, ("--estimators", "alg1,imm,alg1"))
    else:
        data = cstr5_config()
        data.update(estimators=["alg1", "imm", "alg1"], trials=1, steps=5, seed=1)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        args = ["run", "--config", str(path), "--out", str(out)]
    assert main(args) == 2
    assert "estimator 'alg1' is selected more than once" in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_file_fails_with_an_error_line(tmp_path, capsys):
    """An output path that is an existing file ends in exit 1 and one error
    line, not a traceback."""
    path = tmp_path / "taken"
    path.write_text("keep")
    assert main(_small_args(path)) == 1
    assert "error: " in capsys.readouterr().err
    assert path.read_text() == "keep"


def _hold_to_zero(data):
    del data["strategy"]  # the default, hold
    return {"strategy": "zero", "estimator_init": {**data["estimator_init"], "x0": [0.0, 0.0],
                                                   "P0": [[0.1, 0.0], [0.0, 0.1]]}}


def _zero_to_hold(data):
    data["strategy"] = "zero"
    assert data["estimator_init"].keys() == {"prior"}  # default x0 and P0, which fit
    return {"strategy": "hold"}


@pytest.mark.parametrize(
    "flags, keys",
    [(("--trials", "3"), {"trials": 3}), (("--steps", "12"), {"steps": 12}),
     (("--seed", "7"), {"seed": 7}), (("--out", "elsewhere"), {"out": "elsewhere"}),
     (("--hist-bin-width", "5"), {"hist_bin_width": 5}), (("--emit-steps",), {"emit_steps": True}),
     (("--estimators", "imm, alg1"), {"estimators": ["imm", "alg1"]}),
     (("--strategy", "hold"), {"strategy": "hold"}),
     (("--strategy", "zero"), _hold_to_zero), (("--strategy", "hold"), _zero_to_hold)],
    ids=["trials", "steps", "seed", "out", "hist-bin-width", "emit-steps", "estimators",
         "strategy-same", "strategy-hold-to-zero", "strategy-zero-to-hold"],
)
def test_flag_gives_the_config_of_its_key(monkeypatch, tmp_path, flags, keys):
    """A flag sets its config key: the config a run gets equals the one of
    the file with that key written in. A strategy change leaves default
    estimator initials to fit the new strategy's state dimension."""
    import ncsmode.cli as cli

    data = cstr5_config()
    if callable(keys):
        keys = keys(data)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: ran.append(cfg) or 0)
    assert main(["run", "--config", str(path), "--jobs", "2", *flags]) == 0
    written = config_from_dict({**data, **keys})
    assert config_to_dict(ran[0]) == config_to_dict(written)
    assert ran[0].n_jobs == 2
