import concurrent.futures
import dataclasses
import itertools
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ncsmode.cli import load_config
from ncsmode.filters import (
    Alg1Estimator,
    Alg2Estimator,
    ImmEstimator,
    NumericalError,
    _bank_step,
)
from ncsmode.markov import LinkChain, TransitionMatrix, kron_compose
from ncsmode.model import LossStrategy, ModeSpace, PlantModel
import ncsmode.filters as filters
import ncsmode.sim as sim
from ncsmode.sim import (
    ESTIMATOR_KEYS,
    TrialConfig,
    derive_trial_seed,
    replay_estimators,
    run_monte_carlo,
    simulate_trial,
)

from oracles import run_one_at_a_time, simulate_truth


@pytest.fixture(scope="module")
def preset_trial():
    return load_config("cstr5").trial


def _assert_records_identical(a, b):
    """Every field of two records equal, arrays by array_equal."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), field.name
            for key in x:
                assert np.array_equal(x[key], y[key], equal_nan=True), (field.name, key)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), field.name
        else:
            assert x == y, field.name


def test_same_seed_reproduces_record_exactly(preset_trial):
    cfg = dataclasses.replace(preset_trial, steps=40, seed=777)
    rec1 = simulate_trial(cfg)
    rec2 = simulate_trial(cfg)
    _assert_records_identical(rec1, rec2)


@pytest.mark.parametrize("names, message", [
    (("alg1", "imm", "alg1"), "estimator 'alg1' is selected more than once"),
    (("alg2", "kf"), "unknown estimator 'kf'"),
])
@pytest.mark.parametrize("entry", ["simulate_trial", "run_monte_carlo", "replay_estimators"])
def test_estimator_selection_is_checked(preset_trial, entry, names, message):
    """Every library entry point refuses a name selected twice (its record
    would repeat a column over one set of estimates) and an unknown name."""
    cfg = dataclasses.replace(preset_trial, steps=5)
    rec = simulate_trial(cfg, ())
    run = {
        "simulate_trial": lambda: simulate_trial(cfg, names),
        "run_monte_carlo": lambda: list(run_monte_carlo(cfg, 2, 1, names)),
        "replay_estimators": lambda: replay_estimators(cfg, names, rec.u, rec.y),
    }[entry]
    with pytest.raises(ValueError, match=message):
        run()


@pytest.mark.parametrize("n_trials, n_jobs, names, message", [
    (0, 1, ("alg1",), "n_trials must be at least 1"),
    (2, 0, ("alg1",), "n_jobs must be at least 1"),
    (2, -3, ("alg1",), "n_jobs must be at least 1"),
    (2, 1, ("alg1", "kf"), "unknown estimator 'kf'"),
], ids=["no-trials", "no-jobs", "negative-jobs", "unknown-name"])
def test_monte_carlo_counts_are_checked(preset_trial, n_trials, n_jobs, names, message):
    """A Monte Carlo run refuses a trial or worker count below one instead
    of running none, or silently one worker, and an unknown estimator: the
    call itself raises, before any record is asked for."""
    cfg = dataclasses.replace(preset_trial, steps=5)
    with pytest.raises(ValueError, match=message):
        run_monte_carlo(cfg, n_trials, 1, names, n_jobs=n_jobs)


@pytest.mark.parametrize("signal, shape, message", [
    ("y", (6, 1), r"y must be \(steps \+ 1, 2\), got shape \(6, 1\)"),
    ("u", (6, 3), r"u must be \(steps \+ 1, 2\), got shape \(6, 3\)"),
    ("u", (6,), r"u must be \(steps \+ 1, 2\), got shape \(6,\)"),
    ("y", (0, 2), r"y must be \(steps \+ 1, 2\), got shape \(0, 2\)"),
], ids=["y-one-column", "u-three-columns", "u-one-dimensional", "y-no-rows"])
def test_replay_refuses_signals_of_the_wrong_shape(preset_trial, signal, shape, message):
    """A replay takes (N+1, r) inputs and (N+1, m) outputs, r = m = 2 on
    cstr5, and refuses others naming the signal and its expected shape."""
    cfg = dataclasses.replace(preset_trial, steps=5)
    rec = simulate_trial(cfg, ())
    signals = {"u": rec.u, "y": rec.y, signal: np.ones(shape)}
    with pytest.raises(ValueError, match=message):
        replay_estimators(cfg, ESTIMATOR_KEYS, signals["u"], signals["y"])


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


def test_applied_inputs_follow_the_loss_strategy(preset_trial):
    """In a pinned mode the actuator applies the issued input on each
    delivering link and, on each losing link, zero (zero strategy) or the
    input held from before step 0 (hold strategy)."""
    steps = 10
    useq = np.random.default_rng(5).normal(size=(steps + 1, 2))
    issued, held = useq[:-1], np.array([2.0, 4.0])
    link1_lost = ModeSpace(2).encode([0, 1])
    cases = [
        (LossStrategy.HOLD, 4, issued),
        (LossStrategy.ZERO, 1, np.zeros((steps, 2))),
        (LossStrategy.HOLD, link1_lost, np.column_stack([np.full(steps, held[0]), issued[:, 1]])),
        (LossStrategy.ZERO, link1_lost, np.column_stack([np.zeros(steps), issued[:, 1]])),
    ]
    for strategy, mode, expected in cases:
        dim = 4 if strategy is LossStrategy.HOLD else 2
        cfg = dataclasses.replace(
            preset_trial, strategy=strategy, chain=TransitionMatrix(np.eye(4)),
            initial_mode=mode, steps=steps, input_std=None, input_sequence=useq,
            u_init_applied=held, est_x0=np.zeros(dim), est_P0=0.1 * np.eye(dim),
        )
        rec = simulate_trial(cfg, ())
        assert np.array_equal(rec.true_modes, np.full(steps, mode))
        assert np.array_equal(rec.u_applied, expected), (strategy, mode)


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
    _assert_records_identical(rec, direct)


def test_monte_carlo_parallel_matches_serial(preset_trial, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    cfg = dataclasses.replace(preset_trial, steps=25)
    serial = list(run_monte_carlo(cfg, 6, 99, ("alg1", "imm"), n_jobs=1))
    parallel = list(run_monte_carlo(cfg, 6, 99, ("alg1", "imm"), n_jobs=2))
    assert len(serial) == len(parallel) == 6
    for a, b in zip(serial, parallel):
        _assert_records_identical(a, b)


@pytest.mark.parametrize(
    "n_trials, cpus, workers", [(2, 8, 2), (5, 3, 3), (5, 1, None), (5, None, None)]
)
def test_monte_carlo_workers_capped_by_trials_and_cpus(
    preset_trial, monkeypatch, n_trials, cpus, workers
):
    """A job count of 500 never asks for 500 workers: the pool takes at most
    one per trial and one per CPU, and a cap of one takes the lockstep path
    in this process. The pool's workers run lockstep batches of
    ⌈trials / workers⌉ trials, never a trial alone through simulate_trial.
    Records are the serial ones either way."""
    pools, batches, alone = [], [], []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            assert fn is sim._simulate_trials
            for configs, names in zip(*iterables):
                batches.append(len(configs))
                assert names == ("alg1",)
            return map(fn, *iterables)

    def simulate_trial_alone(*args):
        alone.append(args)
        return simulate_trial(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sim, "simulate_trial", simulate_trial_alone)
    cfg = dataclasses.replace(preset_trial, steps=10)
    records = list(run_monte_carlo(cfg, n_trials, 5, ("alg1",), n_jobs=500))
    assert pools == ([] if workers is None else [workers])
    if workers is not None:
        size = -(-n_trials // workers)
        assert batches == [min(size, n_trials - first) for first in range(0, n_trials, size)]
    assert not alone
    serial = list(run_monte_carlo(cfg, n_trials, 5, ("alg1",)))
    assert len(records) == len(serial) == n_trials
    for a, b in zip(records, serial):
        _assert_records_identical(a, b)


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


def _beliefs(est):
    return est.beliefs + [est.combined_belief] if isinstance(est, ImmEstimator) else [est.belief]


def _final_beliefs(est):
    beliefs = _beliefs(est)
    return [est.posterior] + [b.mean for b in beliefs] + [b.cov for b in beliefs]


def _bank_trial(cfg, names, monkeypatch):
    """simulate_trial, and the estimators of its batch of one that its last
    bank step ran (name -> estimator holding the trial as a row)."""
    real, batches = sim._bank_step, []

    def step(batch, *args):
        batches.append(batch)
        return real(batch, *args)

    monkeypatch.setattr(sim, "_bank_step", step)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = simulate_trial(cfg, names)
    return rec, batches[-1] if batches else {}


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
        assert bank[name].posterior.shape[0] == 1
        for got, want in zip(_final_beliefs(filters._take(bank[name], 0)),
                             _final_beliefs(alone[name]), strict=True):
            assert np.array_equal(got, want), name


def _bad_input_trial(trial, value):
    """Trial whose step-5 input is ``value``. The row is written after the
    config's checks, which refuse a non-finite input, so that a NaN reaches
    the estimators as a signal would at run time."""
    useq = np.random.default_rng(3).normal(scale=10.0, size=(21, 2))
    cfg = dataclasses.replace(trial, steps=20, input_std=None, input_sequence=useq, seed=4)
    cfg.input_sequence[5] = value
    return cfg


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


def _late_failure(make_step):
    """A step generator of ``_bank_step``'s protocol that runs through the
    stacked cycle and then raises, before its columns."""
    def step(*args):
        inner = make_step(*args)
        inner.send((yield next(inner)))
        raise NumericalError("late failure")
    return step


def _signals(recs, k):
    return np.array([rec.u[k] for rec in recs]), np.array([rec.y[k] for rec in recs])


def _batch(cfg, aug, floor, arma, recs):
    """The batch ``_bank_step`` takes for the trials of records ``recs``, as
    ``_run_estimators`` makes it: one estimator per name, built once, its
    state repeated over the trials and started on their step-0 signals."""
    built = sim._build_estimators(cfg, ESTIMATOR_KEYS, aug, floor, arma)
    batch = {name: filters._take(est, np.zeros(len(recs), dtype=int))
             for name, est in built.items()}
    for est in batch.values():
        est.start(*_signals(recs, 0))
    return batch


def _assert_late_failure_commits_nothing(cfg, make_failing):
    """Step a batch of two trials once, make one step fail late
    (make_failing gets the batch), step again: the failure propagates and
    no estimator has moved either trial past the first step."""
    recs = [simulate_trial(dataclasses.replace(cfg, seed=seed), ()) for seed in (2, 3)]
    aug = sim.build_augmented(cfg.plant, cfg.strategy)
    batch = _batch(cfg, aug, 0.1, sim.ss_to_arma(cfg.plant), recs)
    _bank_step(batch, aug, 0.1, *_signals(recs, 1))
    make_failing(batch)

    def state(t):
        rows = {name: filters._take(est, t) for name, est in batch.items()}
        alg1 = rows["alg1"]
        histories = alg1._y_hist, alg1._u_hist, alg1._uhat_hist, alg1._mode_hist
        return [a for est in rows.values() for a in _final_beliefs(est)] + list(histories)

    before = [state(t) for t in range(len(recs))]
    with pytest.raises(NumericalError, match="late failure"):
        _bank_step(batch, aug, 0.1, *_signals(recs, 2))
    after = [state(t) for t in range(len(recs))]
    for got_all, want_all in zip(after, before, strict=True):
        for got, want in zip(got_all, want_all, strict=True):
            assert np.array_equal(got, want)
    for t, rec in enumerate(recs):
        assert np.array_equal(batch["alg1"]._y_hist[t, 0], rec.y[1])
        assert np.array_equal(batch["alg1"]._u_hist[t, 0], rec.u[1])
        assert np.array_equal(batch["alg2"]._last_u[t], rec.u[1])
        assert np.array_equal(batch["imm"]._last_u[t], rec.u[1])


def test_bank_step_commits_nothing_when_a_later_estimator_fails(preset_trial, monkeypatch):
    """The batch's IMM step (both trials' IMMs at once, after the alg1 and
    alg2 steps) failing after the stacked cycle leaves every estimator's
    rows of every trial as they were: none commits before all succeed."""
    cfg = dataclasses.replace(preset_trial, steps=5)

    def fail_imms(batch):
        monkeypatch.setattr(filters, "_imm_step", _late_failure(filters._imm_step))

    _assert_late_failure_commits_nothing(cfg, fail_imms)


def test_bank_step_commits_nothing_when_one_trials_estimator_fails(preset_trial, monkeypatch):
    """The batch's alg2 step (both trials at once) failing after the stacked
    cycle leaves every estimator as it was, the alg1 ahead of it and the
    IMM after it included."""
    cfg = dataclasses.replace(preset_trial, steps=5)

    def fail_alg2(batch):
        monkeypatch.setattr(filters, "_alg2_step", _late_failure(filters._alg2_step))

    _assert_late_failure_commits_nothing(cfg, fail_alg2)


def test_bank_step_commits_nothing_when_the_alg1_step_fails(preset_trial, monkeypatch):
    """The batch's alg1 step (both trials at once, ahead of the others)
    failing after the stacked cycle leaves every estimator as it was: the
    alg1 history arrays, posteriors and beliefs included."""
    cfg = dataclasses.replace(preset_trial, steps=5)

    def fail_alg1(batch):
        monkeypatch.setattr(filters, "_alg1_step", _late_failure(filters._alg1_step))

    _assert_late_failure_commits_nothing(cfg, fail_alg1)


def test_each_kind_steps_once_per_lockstep_step(preset_trial, monkeypatch):
    """A batch of 7 trials runs each estimator kind's step generator once
    per lockstep step, for all 7 trials at once: alg1 too."""
    calls = Counter()

    def counting(name, make_step):
        def step(aug, est, *args):
            calls[name, est.posterior.shape[0]] += 1
            return make_step(aug, est, *args)
        return step

    for name in ESTIMATOR_KEYS:
        key = f"_{name}_step"
        monkeypatch.setattr(filters, key, counting(name, getattr(filters, key)))
    cfg = dataclasses.replace(preset_trial, steps=6)
    records = list(run_monte_carlo(cfg, 7, 5, ESTIMATOR_KEYS))
    assert not any(rec.failed for rec in records)
    assert calls == {(name, 7): cfg.steps for name in ESTIMATOR_KEYS}


def test_a_batch_builds_and_starts_each_kind_once(preset_trial, monkeypatch):
    """A batch of 7 trials calls each estimator class's constructor and
    ``start`` once: one object per kind holds all 7 trials as rows."""
    calls = Counter()

    def counting(cls, attr):
        real = getattr(cls, attr)

        def counted(est, *args, **kwargs):
            calls[cls.key, attr] += 1
            return real(est, *args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)

    for cls in (Alg1Estimator, Alg2Estimator, ImmEstimator):
        for attr in ("__init__", "start", "step"):
            counting(cls, attr)
    records = list(run_monte_carlo(dataclasses.replace(preset_trial, steps=6), 7, 5,
                                   ESTIMATOR_KEYS))
    assert len(records) == 7 and not any(rec.failed for rec in records)
    assert calls == {(key, attr): 1 for key in ESTIMATOR_KEYS for attr in ("__init__", "start")}


def test_monte_carlo_builds_no_step_result(preset_trial, monkeypatch):
    """The Monte Carlo path writes the columns of each lockstep step into
    its arrays and constructs no StepResult; an online step builds one."""
    built = Counter()

    class Counted(filters.StepResult):
        __slots__ = ()

        def __init__(self, *args):
            built["results"] += 1
            super().__init__(*args)

    monkeypatch.setattr(filters, "StepResult", Counted)
    records = list(run_monte_carlo(dataclasses.replace(preset_trial, steps=6), 3, 5,
                                   ESTIMATOR_KEYS))
    assert not any(rec.failed for rec in records) and built["results"] == 0
    est = sim._build_estimators(preset_trial, ("imm",), sim.build_augmented(
        preset_trial.plant, preset_trial.strategy), 0.1, None)["imm"]
    est.start(records[0].u[0], records[0].y[0])
    assert isinstance(est.step(records[0].u[1], records[0].y[1]), Counted)
    assert built["results"] == 1


# ---------------------------------------------------------------------------
# Properties over random plants
# ---------------------------------------------------------------------------

def _random_trial(r, strategy, seed, output="identity", steps=60):
    """A stable random plant behind r lossy links with random chains.

    ``output`` "identity" gives C = I and Q = 0, "square" a random
    invertible C and Q = 0 (alg1 can derive its input-output form from
    both), and "noisy" a random C with 1..3 outputs and Q != 0 (alg1
    cannot)."""
    rng = np.random.default_rng([r, seed])
    n = int(rng.integers(1, 4))
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 0.95) / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, r))
    r_var = rng.uniform(1e-3, 1e-1)
    links = [LinkChain([[p, 1.0 - p], [1.0 - q, q]])
             for p, q in rng.uniform(0.05, 0.95, size=(r, 2))]
    x0 = rng.normal(size=n)
    input_std = rng.uniform(1.0, 10.0)
    C, Q = np.eye(n), np.zeros((n, n))
    if output == "square":
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        C = basis * rng.uniform(0.5, 2.0, size=n)
    elif output == "noisy":
        C = rng.normal(size=(int(rng.integers(1, 4)), n))
        G = rng.normal(size=(n, n))
        Q = rng.uniform(1e-3, 1e-1) * G @ G.T
    plant = PlantModel(A=A, B=B, C=C, Q=Q, R=r_var * np.eye(C.shape[0]))
    dim = n + r if strategy is LossStrategy.HOLD else n
    return TrialConfig(
        plant=plant, strategy=strategy, chain=kron_compose(links), steps=steps,
        x0=x0, est_x0=np.zeros(dim), est_P0=0.1 * np.eye(dim),
        input_std=input_std, seed=seed,
    )


@pytest.mark.parametrize("r", [1, 2, 3])
def test_random_plants_keep_posteriors_and_beliefs_healthy(r, monkeypatch):
    """On random stable plants, both strategies and three seeds: no trial
    fails, the bank's estimates equal those of each estimator stepped alone,
    and along the latter every posterior is a probability vector and every
    belief a finite symmetric PSD Gaussian."""
    checked = Counter()

    def checking(cls):
        step = cls.step

        def checked_step(est, *args, **kwargs):
            res = step(est, *args, **kwargs)
            assert np.all(res.posterior >= 0.0)
            assert abs(res.posterior.sum() - 1.0) <= 1e-12
            for belief in _beliefs(est):
                belief.validate()
            checked[cls.key] += 1
            return res

        monkeypatch.setattr(cls, "step", checked_step)

    for cls in (Alg1Estimator, Alg2Estimator, ImmEstimator):
        checking(cls)
    for strategy in LossStrategy:
        for seed in range(3):
            cfg = _random_trial(r, strategy, seed)
            rec = simulate_trial(cfg, ESTIMATOR_KEYS)
            _, modes, states, fallbacks, failure = run_one_at_a_time(
                cfg, ESTIMATOR_KEYS, rec.u, rec.y)
            assert not rec.failed and failure is None, (strategy, seed, rec.fail_reason)
            _assert_same_estimates(rec, ESTIMATOR_KEYS, modes, states, fallbacks)
    assert checked == {key: 2 * 3 * 60 for key in ESTIMATOR_KEYS}


# ---------------------------------------------------------------------------
# Monte Carlo trials in lockstep against each trial run alone
# ---------------------------------------------------------------------------

def _assert_monte_carlo_equals_alone(cfg, n_trials, base_seed, names, records):
    assert len(records) == n_trials
    for t, rec in enumerate(records):
        trial = dataclasses.replace(cfg, seed=derive_trial_seed(base_seed, t))
        _assert_records_identical(rec, simulate_trial(trial, names))


def _trial_floats(names, s, d):
    """The floats a trial adds to a batch's bound: d x d per Kalman row (one
    for alg1 and alg2, s for imm) and s x s x d for IMM mixing."""
    rows = sum(s if name == "imm" else 1 for name in names)
    return rows * d * d + (s * s * d if "imm" in names else 0)


def _unreachable_mode_chain(chain):
    """The chain with every move into mode 1 redirected to mode s: mode 1
    gets prior zero from the first step on, so IMM keeps its filter
    unmixed (an unreachable mixing target)."""
    P = chain.P.copy()
    P[:, -1] += P[:, 0]
    P[:, 0] = 0.0
    return TransitionMatrix(P)


@pytest.mark.parametrize("batch, n_trials, steps", [(1, 9, 12), (7, 16, 12), (100, 100, 3)])
def test_monte_carlo_batches_equal_trials_run_alone(preset_trial, monkeypatch, batch,
                                                    n_trials, steps):
    """Batches of 1, 7 and 100 trials give records equal, field for field,
    to simulate_trial's, and each batch's trials step in lockstep, one bank
    step per step with every selected name's estimators of all the batch's
    trials: on cstr5 (a trial stacks 1 + 1 + 4 Kalman rows), on quad4's 16
    modes under the zero strategy (1 + 1 + 16 rows) and on cstr5 with an
    unreachable mode; with all three estimators, with alg2 alone and with
    alg2 and imm."""
    base = dataclasses.replace(preset_trial, steps=steps)
    quad4 = dataclasses.replace(load_config(str(QUAD4)).trial, steps=steps)
    unreachable = dataclasses.replace(base, chain=_unreachable_mode_chain(base.chain))
    for cfg, names in itertools.product((base, quad4, unreachable),
                                        (ESTIMATOR_KEYS, ("alg2",), ("alg2", "imm"))):
        dim = sim.build_augmented(cfg.plant, cfg.strategy).state_dim
        monkeypatch.setattr(sim, "MAX_BATCH_FLOATS",
                            _trial_floats(names, cfg.chain.s, dim) * batch)
        calls = Counter()
        real = sim._bank_step

        def counted(batch, *args):
            assert tuple(batch) == names
            sizes = {est.posterior.shape[0] for est in batch.values()}
            assert len(sizes) == 1
            calls[sizes.pop()] += 1
            return real(batch, *args)

        monkeypatch.setattr(sim, "_bank_step", counted)
        records = list(run_monte_carlo(cfg, n_trials, 55, names))
        sizes = [min(batch, n_trials - first) for first in range(0, n_trials, batch)]
        assert calls == Counter({size: steps * sizes.count(size) for size in set(sizes)})
        monkeypatch.undo()
        assert not any(rec.failed for rec in records)
        _assert_monte_carlo_equals_alone(cfg, n_trials, 55, names, records)


def test_lockstep_step_results_equal_each_trial_alone(preset_trial):
    """Every row of a lockstep batch's columns, the posterior and the
    log-likelihoods behind each decision included, and every final belief
    equal, bit for bit, the StepResult and beliefs of each trial's
    estimators stepped alone: on cstr5, quad4 and the unreachable-mode
    chain, for 7 trials. A record keeps only decisions and states, which a
    last-bit change in the candidate scores rarely moves."""
    unreachable = dataclasses.replace(preset_trial,
                                      chain=_unreachable_mode_chain(preset_trial.chain))
    for cfg in (preset_trial, load_config(str(QUAD4)).trial, unreachable):
        cfg = dataclasses.replace(cfg, steps=10)
        recs = [simulate_trial(dataclasses.replace(cfg, seed=seed), ()) for seed in range(7)]
        aug = sim.build_augmented(cfg.plant, cfg.strategy)
        arma = sim.ss_to_arma(cfg.plant)
        floor = filters.DEFAULT_HELD_COV_FLOOR

        batch = _batch(cfg, aug, floor, arma, recs)
        alone = [sim._build_estimators(cfg, ESTIMATOR_KEYS, aug, floor, arma) for _ in recs]
        for lone_bank, rec in zip(alone, recs):
            for est in lone_bank.values():
                est.start(rec.u[0], rec.y[0])
        for k in range(1, cfg.steps + 1):
            columns = _bank_step(batch, aug, floor, *_signals(recs, k))
            assert tuple(columns) == ESTIMATOR_KEYS
            for name, (modes, states, posteriors, logliks, fallbacks) in columns.items():
                assert modes.shape == fallbacks.shape == (len(recs),)
                assert states.shape == (len(recs), aug.state_dim)
                for t, (lone_bank, rec) in enumerate(zip(alone, recs)):
                    want = lone_bank[name].step(rec.u[k], rec.y[k])
                    assert (modes[t], fallbacks[t]) == (want.mode, want.fallback), name
                    for got, field in ((states, "state"), (posteriors, "posterior"),
                                       (logliks, "loglik")):
                        assert np.array_equal(got[t], getattr(want, field)), (name, field)
        for t, lone_bank in enumerate(alone):
            for name in ESTIMATOR_KEYS:
                for got, want in zip(_final_beliefs(filters._take(batch[name], t)),
                                     _final_beliefs(lone_bank[name]), strict=True):
                    assert np.array_equal(got, want), name


def test_monte_carlo_batch_size_follows_the_row_bound(preset_trial, monkeypatch):
    """As many trials to a batch as fit MAX_BATCH_FLOATS: a cstr5 trial
    (hold, d = 4, s = 4) holds 1 + 1 + 4 Kalman rows of d x d floats and
    s x s x d of IMM mixing with all three estimators, 4 rows and the mixing
    with imm alone, and a trial with no estimator none. A 256-mode hold
    plant (r = 8, d = 10) running imm alone holds 256 x 100 + 256 x 256 x 10
    floats, more than fit twice, so each trial is a batch of its own."""
    batches = []

    def recording(configs, names):
        batches.append(len(configs))
        return [None] * len(configs)

    monkeypatch.setattr(sim, "_simulate_trials", recording)
    all_three = sim.MAX_BATCH_FLOATS // (6 * 16 + 16 * 4)
    imm_alone = sim.MAX_BATCH_FLOATS // (4 * 16 + 16 * 4)
    for n_trials, names in [(all_three + 5, ESTIMATOR_KEYS), (imm_alone + 1, ("imm",)),
                            (3, ())]:
        assert len(list(run_monte_carlo(preset_trial, n_trials, 1, names))) == n_trials
    assert batches == [all_three, 5, imm_alone, 1, 3]
    # 100 trials of 16 modes at d = 8 fit, so the acceptance, golden and
    # benchmark runs (at most 100 trials, s <= 16, d <= 4) stay whole
    assert _trial_floats(ESTIMATOR_KEYS, 16, 8) * 100 <= sim.MAX_BATCH_FLOATS

    batches.clear()
    r8 = _random_trial(8, LossStrategy.HOLD, 1, steps=3)
    assert (r8.chain.s, r8.est_x0.shape[0]) == (256, r8.plant.n + 8)
    dim = r8.plant.n + 8
    assert 2 * (256 * dim * dim + 256 * 256 * dim) > sim.MAX_BATCH_FLOATS
    assert len(list(run_monte_carlo(r8, 3, 1, ("imm",)))) == 3
    assert batches == [1, 1, 1]


@pytest.mark.parametrize(
    "names", [ESTIMATOR_KEYS, ("imm", "alg2", "alg1"), ("alg2",), ("alg2", "imm")], ids="-".join)
def test_batch_with_failing_trials_equals_trials_run_alone(preset_trial, names):
    """Trials that fail in a batch (a 1e308 input row that overflows the
    plant, a NaN input row) fail as they do alone, with the same step,
    reason, estimates and complete truth; the other trials of the batch
    run on to the end unchanged. So they do in batches run by a pool's
    worker processes."""
    good = [dataclasses.replace(preset_trial, steps=20, seed=seed) for seed in (1, 2, 3)]
    configs = [good[0], _bad_input_trial(preset_trial, 1e308), good[1],
               _bad_input_trial(preset_trial, np.nan), good[2]]
    with np.errstate(over="ignore", invalid="ignore"):
        batched = sim._simulate_trials(configs, names)
        alone = [simulate_trial(trial, names) for trial in configs]
        # as run_monte_carlo's pool runs them: two workers, one batch each
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            pooled = [rec for records in pool.map(sim._simulate_trials, [configs[:3], configs[3:]],
                                                  [names] * 2)
                      for rec in records]
    assert [rec.failed for rec in batched] == [False, True, False, True, False]
    assert [rec.fail_step for rec in batched] == [None, 6, None, 5, None]
    for got, pool_got, want in zip(batched, pooled, alone, strict=True):
        _assert_records_identical(got, want)
        _assert_records_identical(pool_got, want)


# ---------------------------------------------------------------------------
# Properties of batched runs: random plants, long horizons, degenerate chains
# ---------------------------------------------------------------------------

def _check_batched_run(cfg, names, n_trials, monkeypatch):
    """Run a Monte Carlo of n_trials, checking after every lockstep step that
    each posterior is a probability vector and each belief a finite
    symmetric PSD Gaussian; then check that no record failed, silently or
    flagged, and that each equals its trial run alone."""
    checked = Counter()
    real = sim._bank_step

    def checking(batch, *args):
        columns = real(batch, *args)
        checked["steps"] += 1
        for name, est in batch.items():
            posteriors = columns[name][2]
            assert len(posteriors) == est.posterior.shape[0]
            for t, posterior in enumerate(posteriors):
                assert np.all(posterior >= 0.0)
                assert abs(posterior.sum() - 1.0) <= 1e-12
                for belief in _beliefs(filters._take(est, t)):
                    belief.validate()
                checked[est.key] += 1
        return columns

    monkeypatch.setattr(sim, "_bank_step", checking)
    records = list(run_monte_carlo(cfg, n_trials, cfg.seed, names))
    monkeypatch.undo()
    assert checked == {"steps": cfg.steps, **{key: n_trials * cfg.steps for key in names}}
    s = cfg.chain.s
    for rec in records:
        assert not rec.failed, rec.fail_reason
        for name in names:
            assert np.all(np.isfinite(rec.est_states[name])), name
            assert np.all((rec.est_modes[name] >= 1) & (rec.est_modes[name] <= s)), name
    if n_trials > 1:  # a batch of one is simulate_trial itself
        _assert_monte_carlo_equals_alone(cfg, n_trials, cfg.seed, names, records)


@pytest.mark.parametrize("strategy", list(LossStrategy), ids=lambda s: s.value)
@pytest.mark.parametrize("output, r, names", [
    ("identity", 4, ESTIMATOR_KEYS),
    ("square", 2, ESTIMATOR_KEYS),
    ("noisy", 2, ("alg2", "imm")),
])
def test_random_plants_in_lockstep_stay_healthy(output, r, names, strategy, monkeypatch):
    """Random stable plants at r = 4 (16 modes), with an invertible C other
    than the identity, and with several or fewer outputs than states and
    process noise (where alg1 has no input-output form): three trials in
    lockstep keep every property."""
    cfg = _random_trial(r, strategy, 7, output=output, steps=30)
    if output != "identity":
        assert not np.array_equal(cfg.plant.C, np.eye(cfg.plant.n))
    if output == "noisy":
        assert np.any(cfg.plant.Q)
    _check_batched_run(cfg, names, 3, monkeypatch)


def test_long_horizon_in_lockstep_stays_healthy(monkeypatch):
    """A 1000-step horizon on a random hold-strategy plant."""
    cfg = _random_trial(2, LossStrategy.HOLD, 11, steps=1000)
    _check_batched_run(cfg, ESTIMATOR_KEYS, 1, monkeypatch)


@pytest.mark.parametrize("strategy", list(LossStrategy), ids=lambda s: s.value)
def test_absorbing_chain_in_lockstep_stays_healthy(preset_trial, strategy, monkeypatch):
    """A chain with an absorbing all-deliver mode and zero-probability
    transitions, started in a transient mode: unreachable modes get prior
    zero (IMM keeps their filters unmixed) and every property holds."""
    chain = TransitionMatrix([[0.5, 0.5, 0.0, 0.0],
                              [0.0, 0.6, 0.0, 0.4],
                              [0.3, 0.0, 0.7, 0.0],
                              [0.0, 0.0, 0.0, 1.0]])
    dim = 4 if strategy is LossStrategy.HOLD else 2
    cfg = dataclasses.replace(preset_trial, chain=chain, strategy=strategy, initial_mode=3,
                              steps=40, est_x0=np.zeros(dim), est_P0=0.1 * np.eye(dim),
                              seed=21)
    _check_batched_run(cfg, ESTIMATOR_KEYS, 3, monkeypatch)


# ---------------------------------------------------------------------------
# The truths of a batch drawn in lockstep against each trial drawn alone
# ---------------------------------------------------------------------------

TRUTH_FIELDS = ("true_modes", "true_states", "y", "u", "u_applied")


def _mixed_trials(base, n_trials):
    """``n_trials`` configs of ``base`` whose per-trial options vary from
    trial to trial: the seed, x0 and its resampling, the initial mode (drawn
    or given), white or sequenced inputs, and the held input before step 0."""
    rng = np.random.default_rng(2)
    plant, s = base.plant, base.chain.s
    trials = []
    for t in range(n_trials):
        inputs = dict(input_std=1.0 + t % 5, input_sequence=None)
        if t % 4 == 0:
            inputs = dict(input_std=None,
                          input_sequence=rng.normal(scale=3.0, size=(base.steps + 1, plant.r)))
        trials.append(dataclasses.replace(
            base, seed=derive_trial_seed(11, t), x0=base.x0 + 0.01 * t,
            resample_x0=t % 2 == 0, x0_std=0.5 + t % 3,
            initial_mode=None if t % 3 else 1 + t % s,
            u_init_applied=None if t % 5 == 0 else np.full(plant.r, t % 3 - 1.0),
            **inputs,
        ))
    return trials


@pytest.mark.parametrize("steps", [1, 25])
def test_lockstep_truth_equals_each_trial_drawn_alone(preset_trial, steps):
    """Batches of 1, 7 and 100 trials draw each trial's truth (modes, states,
    outputs, issued and applied inputs) exactly as the trial drawn alone,
    step by step with one ``sample_next`` per mode: on cstr5 under both
    strategies and on quad4's 16 modes, each with process noise (cstr5's
    noise covariance not diagonal), with per-trial options mixed in a batch."""
    quad4 = load_config(str(QUAD4)).trial
    noisy = {
        "cstr5": (preset_trial, np.array([[1e-4, 2e-5], [2e-5, 5e-5]])),
        "quad4": (quad4, 1e-4 * np.eye(quad4.plant.n)),
    }
    for key, strategy in (("cstr5", LossStrategy.HOLD), ("cstr5", LossStrategy.ZERO),
                          ("quad4", LossStrategy.ZERO)):
        base, q = noisy[key]
        plant = dataclasses.replace(base.plant, Q=q)
        dim = sim.build_augmented(plant, strategy).state_dim
        cfg = dataclasses.replace(base, plant=plant, strategy=strategy, steps=steps,
                                  est_x0=np.zeros(dim), est_P0=0.1 * np.eye(dim))
        trials = _mixed_trials(cfg, 100)
        alone = [simulate_truth(trial) for trial in trials]
        for batch in (1, 7, 100):
            records = [rec for first in range(0, len(trials), batch)
                       for rec in sim._simulate_trials(trials[first:first + batch], ())]
            for t, (rec, want) in enumerate(zip(records, alone)):
                for name, expected in zip(TRUTH_FIELDS, want):
                    assert np.array_equal(getattr(rec, name), expected), (key, strategy, batch,
                                                                         t, name)
