import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ncsmode.cli import load_config
from ncsmode.filters import ImmEstimator, NumericalError, _bank_step
from ncsmode.markov import TransitionMatrix
from ncsmode.model import LossStrategy, PlantModel
import ncsmode.sim as sim
from ncsmode.sim import (
    ESTIMATOR_KEYS,
    TrialConfig,
    derive_trial_seed,
    replay_estimators,
    run_monte_carlo,
    simulate_trial,
)

from oracles import run_one_at_a_time


@pytest.fixture(scope="module")
def preset_trial():
    return load_config("cstr5").trial


def _records_equal(a, b) -> bool:
    if a.estimators != b.estimators or a.failed != b.failed:
        return False
    for name in ("true_modes", "true_states", "y", "u", "u_applied"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    for name in a.estimators:
        if not np.array_equal(a.est_modes[name], b.est_modes[name]):
            return False
        if not np.array_equal(a.est_states[name], b.est_states[name]):
            return False
        if not np.array_equal(a.fallbacks[name], b.fallbacks[name]):
            return False
    return True


def test_same_seed_reproduces_record_exactly(preset_trial):
    cfg = dataclasses.replace(preset_trial, steps=40, seed=777)
    rec1 = simulate_trial(cfg)
    rec2 = simulate_trial(cfg)
    assert _records_equal(rec1, rec2)


def test_record_shapes_and_ranges(preset_trial):
    cfg = dataclasses.replace(preset_trial, steps=25, seed=5)
    rec = simulate_trial(cfg, ("alg1", "imm"))
    assert rec.estimators == ("alg1", "imm")
    assert rec.true_modes.shape == (25,)
    assert rec.true_states.shape == (26, 2)
    assert rec.y.shape == (26, 2)
    assert rec.u.shape == (26, 2)
    assert rec.u_applied.shape == (25, 2)
    for name in rec.estimators:
        assert rec.est_modes[name].shape == (25,)
        assert rec.est_states[name].shape == (25, 2)
        assert np.all((rec.est_modes[name] >= 1) & (rec.est_modes[name] <= 4))
    assert np.all((rec.true_modes >= 1) & (rec.true_modes <= 4))


def test_noiseless_identity_chain_reproduces_linear_response(cstr_plant):
    """All-deliver deterministic chain, no noise: outputs are the plain
    linear response to the input sequence."""
    plant = PlantModel(A=cstr_plant.A, B=cstr_plant.B, C=np.eye(2),
                       Q=np.zeros((2, 2)), R=np.zeros((2, 2)))
    rng = np.random.default_rng(2)
    steps = 30
    useq = rng.normal(size=(steps + 1, 2))
    cfg = TrialConfig(
        plant=plant, strategy=LossStrategy.HOLD,
        chain=TransitionMatrix(np.eye(4)), steps=steps,
        x0=np.array([1.0, 1.0]), est_x0=np.zeros(4), est_P0=0.1 * np.eye(4),
        input_sequence=useq, u_init_applied=np.zeros(2),
        initial_mode=4, seed=0,
    )
    rec = simulate_trial(cfg, ())
    x = np.array([1.0, 1.0])
    assert np.array_equal(rec.y[0], x)
    for k in range(1, steps + 1):
        x = plant.A @ x + plant.B @ useq[k - 1]
        assert np.allclose(rec.y[k], x, atol=1e-12)
        assert np.array_equal(rec.u_applied[k - 1], useq[k - 1])
        assert rec.true_modes[k - 1] == 4


def test_hold_truth_applied_inputs_follow_hold_rule(preset_trial):
    cfg = dataclasses.replace(preset_trial, steps=50, seed=12)
    rec = simulate_trial(cfg, ())
    space_alpha = [np.array([(j - 1) & 1, ((j - 1) >> 1) & 1], dtype=float)
                   for j in range(1, 5)]
    prev = np.array([1.0, 1.0])  # preset's held input before step 0
    for k in range(rec.steps):
        alpha = space_alpha[rec.true_modes[k] - 1]
        expected = alpha * rec.u[k] + (1.0 - alpha) * prev
        assert np.allclose(rec.u_applied[k], expected, atol=1e-12)
        prev = rec.u_applied[k]


def test_estimators_read_only_the_signals(preset_trial):
    """Replaying the estimators offline on the recorded (u, y) reproduces
    every in-simulation estimate exactly."""
    cfg = dataclasses.replace(preset_trial, steps=60, seed=31)
    names = ("alg1", "alg2", "imm")
    rec = simulate_trial(cfg, names)
    offline = replay_estimators(cfg, names, rec.u, rec.y)
    for name in names:
        modes, states, flags = offline[name]
        assert np.array_equal(modes, rec.est_modes[name])
        assert np.array_equal(states, rec.est_states[name])
        assert np.array_equal(flags, rec.fallbacks[name])


def test_derive_trial_seed_xor():
    assert derive_trial_seed(5, 3) == 6
    assert derive_trial_seed(2**64 - 1, 1) == 2**64 - 2


def test_monte_carlo_single_trial_matches_simulate(preset_trial):
    cfg = dataclasses.replace(preset_trial, steps=20)
    (rec,) = list(run_monte_carlo(cfg, 1, 404, ("alg1",)))
    direct = simulate_trial(
        dataclasses.replace(cfg, seed=derive_trial_seed(404, 0)), ("alg1",)
    )
    assert _records_equal(rec, direct)


def test_monte_carlo_parallel_matches_serial(preset_trial):
    cfg = dataclasses.replace(preset_trial, steps=25)
    serial = list(run_monte_carlo(cfg, 6, 99, ("alg1", "imm"), n_jobs=1))
    parallel = list(run_monte_carlo(cfg, 6, 99, ("alg1", "imm"), n_jobs=2))
    assert len(serial) == len(parallel) == 6
    for a, b in zip(serial, parallel):
        assert _records_equal(a, b)


def test_resample_x0_option(preset_trial):
    fixed = simulate_trial(dataclasses.replace(preset_trial, steps=5, seed=8), ())
    resampled = simulate_trial(
        dataclasses.replace(preset_trial, steps=5, seed=8, resample_x0=True), ()
    )
    assert np.array_equal(fixed.true_states[0], [1.0, 1.0])
    assert not np.array_equal(resampled.true_states[0], [1.0, 1.0])


def test_estimator_failure_marks_trial(preset_trial):
    """A zero measurement-noise model breaks the constant innovation
    covariance; the trial reports the failure instead of raising."""
    plant = PlantModel(A=preset_trial.plant.A, B=preset_trial.plant.B,
                       C=np.eye(2), Q=np.zeros((2, 2)), R=np.zeros((2, 2)))
    cfg = dataclasses.replace(preset_trial, plant=plant, steps=5, seed=1)
    rec = simulate_trial(cfg, ("alg1",))
    assert rec.failed
    assert rec.fail_step == 0
    assert rec.fail_reason


def test_estimator_failure_mid_trial_keeps_earlier_estimates(preset_trial):
    """An input of 1e308 at step 5 overflows the plant: alg1, first in
    selection order, fails at step 6, and every estimate before that step
    equals an offline replay of the signals up to step 5. The truth stays
    complete, and a replay of all the signals raises."""
    useq = np.random.default_rng(3).normal(scale=10.0, size=(21, 2))
    useq[5] = 1e308
    cfg = dataclasses.replace(
        preset_trial, steps=20, input_std=None, input_sequence=useq, seed=4
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rec = simulate_trial(cfg, ESTIMATOR_KEYS)
        truth = simulate_trial(cfg, ())
        with pytest.raises(NumericalError, match="NaN log-likelihood"):
            replay_estimators(cfg, ESTIMATOR_KEYS, rec.u, rec.y)
    assert rec.failed
    assert rec.fail_step == 6
    assert rec.fail_reason == "alg1: NaN log-likelihood"
    offline = replay_estimators(cfg, ESTIMATOR_KEYS, rec.u[:6], rec.y[:6])
    for name in ESTIMATOR_KEYS:
        modes, states, flags = offline[name]
        assert np.array_equal(rec.est_modes[name][:5], modes)
        assert np.array_equal(rec.est_states[name][:5], states)
        assert np.array_equal(rec.fallbacks[name][:5], flags)
        assert not rec.est_modes[name][5:].any()
    for name in ("true_modes", "true_states", "y", "u", "u_applied"):
        assert np.array_equal(getattr(rec, name), getattr(truth, name), equal_nan=True)


def test_config_validation_errors(preset_trial):
    with pytest.raises(ValueError):
        dataclasses.replace(preset_trial, steps=0)
    with pytest.raises(ValueError):
        dataclasses.replace(preset_trial, x0=np.zeros(3))
    with pytest.raises(ValueError):
        dataclasses.replace(preset_trial, est_x0=np.zeros(2))
    with pytest.raises(ValueError):
        dataclasses.replace(preset_trial, input_std=None)
    with pytest.raises(ValueError):
        dataclasses.replace(preset_trial, initial_mode=9)


def test_trial_builds_each_model_once(preset_trial, monkeypatch):
    """One augmented model per trial, shared by truth and estimators; the
    input-output form only when alg1 runs."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "build_augmented", counted("augmented", sim.build_augmented))
    monkeypatch.setattr(sim, "ss_to_arma", counted("arma", sim.ss_to_arma))
    cfg = dataclasses.replace(preset_trial, steps=3, seed=2)
    simulate_trial(cfg, ())
    assert calls == {"augmented": 1}
    calls.clear()
    simulate_trial(cfg, ("alg2", "imm"))
    assert calls == {"augmented": 1}
    calls.clear()
    simulate_trial(cfg, ESTIMATOR_KEYS)
    assert calls == {"augmented": 1, "arma": 1}


# ---------------------------------------------------------------------------
# The bank step against the estimators stepped one at a time
# ---------------------------------------------------------------------------

ORDERS = [names for k in (1, 2, 3) for names in itertools.permutations(ESTIMATOR_KEYS, k)]

# the benchmark's 16-mode zero-strategy plant, started away from the origin
QUAD4 = Path(__file__).resolve().parents[1] / "perfbench" / "quad4.json"


def _final_beliefs(est):
    beliefs = est.beliefs + [est.combined_belief] if isinstance(est, ImmEstimator) else [est.belief]
    return [est.posterior] + [b.mean for b in beliefs] + [b.cov for b in beliefs]


def _bank_trial(cfg, names, monkeypatch):
    """simulate_trial, and the estimators its bank stepped."""
    real, built = sim._build_estimators, []

    def build(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(sim, "_build_estimators", build)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = simulate_trial(cfg, names)
    return rec, built[0] if built else {}


def _assert_same_estimates(rec, names, modes, states, fallbacks):
    for name in names:
        assert np.array_equal(rec.est_modes[name], modes[name]), name
        assert np.array_equal(rec.est_states[name], states[name]), name
        assert np.array_equal(rec.fallbacks[name], fallbacks[name]), name


@pytest.mark.parametrize("names", ORDERS, ids="-".join)
@pytest.mark.parametrize("plant", ["cstr5-hold", "cstr5-zero", "quad4-zero"])
def test_bank_step_equals_one_estimator_at_a_time(preset_trial, plant, names, monkeypatch):
    """Stepping the selected estimators as one bank, with one stacked Kalman
    cycle, gives exactly what stepping each alone gives: modes, states,
    fallbacks and final beliefs, for every ordered selection."""
    if plant == "quad4-zero":
        cfg = dataclasses.replace(load_config(str(QUAD4)).trial, steps=40, seed=3)
    else:
        cfg = dataclasses.replace(preset_trial, steps=40, seed=6)
        if plant == "cstr5-zero":
            cfg = dataclasses.replace(cfg, strategy=LossStrategy.ZERO,
                                      est_x0=np.zeros(2), est_P0=0.1 * np.eye(2))
    rec, bank = _bank_trial(cfg, names, monkeypatch)
    alone, modes, states, fallbacks, failure = run_one_at_a_time(cfg, names, rec.u, rec.y)
    assert not rec.failed and failure is None
    _assert_same_estimates(rec, names, modes, states, fallbacks)
    assert tuple(bank) == names
    for name in names:
        for got, want in zip(_final_beliefs(bank[name]), _final_beliefs(alone[name]), strict=True):
            assert np.array_equal(got, want), name


def _bad_input_trial(trial, value):
    useq = np.random.default_rng(3).normal(scale=10.0, size=(21, 2))
    useq[5] = value
    return dataclasses.replace(trial, steps=20, input_std=None, input_sequence=useq, seed=4)


def _zero_r_trial(trial):
    plant = PlantModel(A=trial.plant.A, B=trial.plant.B, C=np.eye(2),
                       Q=np.zeros((2, 2)), R=np.zeros((2, 2)))
    return dataclasses.replace(trial, plant=plant, steps=6, seed=1)


@pytest.mark.parametrize(
    "case, names, fail_step",
    [
        ("1e308 input", ("alg1", "alg2", "imm"), 6),
        ("1e308 input", ("imm", "alg2", "alg1"), 6),
        ("NaN input", ("alg1", "alg2", "imm"), 5),
        ("NaN input", ("imm", "alg2", "alg1"), 5),
        ("zero R", ("alg1", "alg2", "imm"), 0),
        ("zero R", ("imm", "alg2", "alg1"), 0),
        ("zero R", ("alg2", "imm"), 2),
        ("zero R", ("imm", "alg2"), 2),
    ],
)
def test_bank_step_failure_equals_one_estimator_at_a_time(
    preset_trial, case, names, fail_step, monkeypatch
):
    """A bank step that fails is re-run one estimator at a time: the record
    carries the failure step and reason of the estimators stepped alone, and
    every estimate before it, those of the failing step ahead of the
    failing estimator included."""
    if case == "zero R":
        cfg = _zero_r_trial(preset_trial)
    else:
        cfg = _bad_input_trial(preset_trial, 1e308 if case == "1e308 input" else np.nan)
    rec, _ = _bank_trial(cfg, names, monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        _, modes, states, fallbacks, failure = run_one_at_a_time(cfg, names, rec.u, rec.y)
    assert rec.failed
    assert (rec.fail_step, rec.fail_reason) == failure
    assert rec.fail_step == fail_step
    _assert_same_estimates(rec, names, modes, states, fallbacks)


def test_bank_step_commits_nothing_when_a_later_estimator_fails(preset_trial):
    """An estimator that fails after the stacked cycle leaves the estimators
    ahead of it in the bank as they were: none commits before all succeed."""
    cfg = dataclasses.replace(preset_trial, steps=5, seed=2)
    rec = simulate_trial(cfg, ())
    aug = sim.build_augmented(cfg.plant, cfg.strategy)
    bank = tuple(sim._build_estimators(cfg, ("alg1", "alg2", "imm"), aug, 0.1).values())
    for est in bank:
        est.start(rec.u[0], rec.y[0])
    imm_step = bank[2]._step

    def failing_step(u, y, force_mode):
        step = imm_step(u, y, force_mode)
        step.send((yield next(step)))
        yield
        raise NumericalError("late failure")

    bank[2]._step = failing_step
    before = [_final_beliefs(est) for est in bank[:2]]
    with pytest.raises(NumericalError, match="late failure"):
        _bank_step(bank, aug, 0.1, rec.u[1], rec.y[1])
    for est, saved in zip(bank[:2], before):
        for got, want in zip(_final_beliefs(est), saved, strict=True):
            assert np.array_equal(got, want)
    assert np.array_equal(bank[0]._y_hist[0], rec.y[0])
    assert np.array_equal(bank[1]._last_u, rec.u[0])
