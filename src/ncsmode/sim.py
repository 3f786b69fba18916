"""Seeded simulation of a plant driven through lossy links.

A trial runs in two halves. The truth half propagates the true plant over
all steps with a sampled mode sequence, white noise and white excitation
inputs. The estimator half then steps the selected estimators as one bank
on exactly the signals a controller would see: the issued inputs and the
measured outputs. :func:`replay_estimators` runs the same estimator loop on
recorded signals, so the estimators read only ``(u, y)`` by construction.
A Monte Carlo run splits its trials into batches, run in this process or
by a pool of worker processes. A batch draws its truths in lockstep, then
its banks step in lockstep, with one
stacked Kalman cycle per step for all of them, one ``alg2`` recursion for
all their ``alg2`` estimators and one IMM recursion for all their IMMs
(``alg1`` decides trial by trial); each record equals the one its trial
gives alone. Every entry point refuses an unknown or repeated estimator
name.

Randomness is fully determined by the trial seed. Four independent
sub-streams (mode sampling, process noise, measurement noise, inputs) are
spawned from a ``numpy.random.SeedSequence`` over the trial seed, so a
record is reproducible field-for-field regardless of which estimators run
or how trials are batched and scheduled. Monte Carlo trial t uses seed
``base_seed XOR t`` (masked to 64 bits).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .filters import (
    DEFAULT_HELD_COV_FLOOR,
    Alg1Estimator,
    Alg2Estimator,
    ImmEstimator,
    NumericalError,
    _bank_step,
    _mv,
)
# sample_next draws no truth, but the benchmark's tracer patches it here by name
from .markov import TransitionMatrix, _check_distribution, sample_next, stationary_distribution
from .model import (
    ArmaModel,
    AugmentedModel,
    LossStrategy,
    PlantModel,
    _all_finite,
    _check_psd,
    build_augmented,
    ss_to_arma,
)

__all__ = [
    "ESTIMATOR_KEYS",
    "TrialConfig",
    "TrialRecord",
    "derive_trial_seed",
    "simulate_trial",
    "run_monte_carlo",
    "replay_estimators",
]

ESTIMATOR_KEYS = ("alg1", "alg2", "imm")

SEED_MASK = (1 << 64) - 1

# most Kalman rows one lockstep step of a Monte Carlo batch stacks: a trial
# adds one row for alg1 and for alg2 and s for imm, so this bounds the
# batch's cycle memory (rows x d x d floats) whatever the mode count
MAX_CYCLE_ROWS = 4096


@dataclass(frozen=True)
class TrialConfig:
    """Everything a single trial needs, with the RNG seed included.

    Exactly one of ``input_std`` (white-noise excitation, scalar or one std
    per channel) and ``input_sequence`` (fixed (steps+1, r) inputs) must be
    given. ``x0`` is the physical initial state; for the hold strategy
    ``u_init_applied`` is the input held from before step 0. The estimator
    initials (``est_x0``, ``est_P0``, ``est_prior``) live in the augmented
    state dimension. ``initial_mode`` overrides sampling the first mode from
    the chain's stationary distribution. ``est_P0`` must be symmetric PSD,
    ``est_prior`` a probability vector, and the states, inputs and scales
    finite.
    """

    plant: PlantModel
    strategy: LossStrategy
    chain: TransitionMatrix
    steps: int
    x0: np.ndarray
    est_x0: np.ndarray
    est_P0: np.ndarray
    input_std: np.ndarray | None = None
    input_sequence: np.ndarray | None = None
    u_init_applied: np.ndarray | None = None
    est_prior: np.ndarray | None = None
    arma: ArmaModel | None = None
    initial_mode: int | None = None
    resample_x0: bool = False
    x0_std: float = 1.0
    held_cov_floor: float | None = None
    seed: int = 0

    def __post_init__(self):
        plant = self.plant
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.chain.s != 1 << plant.r:
            raise ValueError(
                f"chain has {self.chain.s} modes but the plant's {plant.r} links need {1 << plant.r}"
            )
        aug_dim = AugmentedModel(plant, self.strategy).state_dim

        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape[0] != plant.n:
            raise ValueError(f"x0 has length {x0.shape[0]}, expected {plant.n}")
        est_x0 = np.asarray(self.est_x0, dtype=float).reshape(-1)
        if est_x0.shape[0] != aug_dim:
            raise ValueError(f"est_x0 has length {est_x0.shape[0]}, expected {aug_dim}")
        est_P0 = np.asarray(self.est_P0, dtype=float)
        if est_P0.shape != (aug_dim, aug_dim):
            raise ValueError(f"est_P0 must be {aug_dim}x{aug_dim}, got shape {est_P0.shape}")
        _check_psd(est_P0, "est_P0")

        if (self.input_std is None) == (self.input_sequence is None):
            raise ValueError("give exactly one of input_std and input_sequence")
        input_std = None
        input_sequence = None
        if self.input_std is not None:
            input_std = np.broadcast_to(
                np.asarray(self.input_std, dtype=float), (plant.r,)
            ).copy()
            if np.any(input_std < 0.0):
                raise ValueError("input_std must be nonnegative")
        else:
            input_sequence = np.asarray(self.input_sequence, dtype=float)
            if input_sequence.shape != (self.steps + 1, plant.r):
                raise ValueError(
                    f"input_sequence must be ({self.steps + 1}, {plant.r}), "
                    f"got shape {input_sequence.shape}"
                )

        u_init = self.u_init_applied
        if u_init is not None:
            u_init = np.asarray(u_init, dtype=float).reshape(-1)
            if u_init.shape[0] != plant.r:
                raise ValueError(
                    f"u_init_applied has length {u_init.shape[0]}, expected {plant.r}"
                )
        prior = self.est_prior
        if prior is not None:
            prior = np.asarray(prior, dtype=float).reshape(-1)
            if prior.shape[0] != self.chain.s:
                raise ValueError(
                    f"est_prior has length {prior.shape[0]}, expected {self.chain.s}"
                )
            _check_distribution(prior, "est_prior")
        if self.initial_mode is not None and not 1 <= self.initial_mode <= self.chain.s:
            raise ValueError(f"initial_mode {self.initial_mode} outside 1..{self.chain.s}")
        if self.x0_std < 0.0:
            raise ValueError("x0_std must be nonnegative")
        if self.held_cov_floor is not None and self.held_cov_floor < 0.0:
            raise ValueError("held_cov_floor must be nonnegative")
        for name, val in (
            ("x0", x0), ("est_x0", est_x0), ("input_std", input_std),
            ("input_sequence", input_sequence), ("u_init_applied", u_init),
            ("x0_std", self.x0_std), ("held_cov_floor", self.held_cov_floor),
        ):
            if val is not None and not _all_finite(val):
                raise ValueError(f"{name} must be finite")

        for name, val in (
            ("x0", x0), ("est_x0", est_x0), ("est_P0", est_P0),
            ("input_std", input_std), ("input_sequence", input_sequence),
            ("u_init_applied", u_init), ("est_prior", prior),
            ("seed", int(self.seed) & SEED_MASK),
        ):
            object.__setattr__(self, name, val)


@dataclass
class TrialRecord:
    """Per-step log of one trial.

    Mode-time alignment: ``true_modes[t]`` and ``est_modes[name][t]`` both
    refer to the mode active at step t (the estimate is produced one step
    later, from the step t+1 output). ``true_states`` holds x_0..x_N while
    the estimator states start at step 1, so ``true_states[k]`` aligns with
    ``est_states[name][k-1]``. Physical state components only.
    """

    steps: int
    estimators: tuple[str, ...]
    true_modes: np.ndarray
    est_modes: dict[str, np.ndarray]
    true_states: np.ndarray
    est_states: dict[str, np.ndarray]
    y: np.ndarray
    u: np.ndarray
    u_applied: np.ndarray
    fallbacks: dict[str, np.ndarray]
    seed: int = 0
    failed: bool = False
    fail_step: int | None = None
    fail_reason: str | None = None


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Seed for Monte Carlo trial ``trial``: base_seed XOR trial, 64-bit."""
    return (int(base_seed) ^ int(trial)) & SEED_MASK


def _psd_factor(mat: np.ndarray) -> np.ndarray | None:
    """Square root of a PSD matrix for noise draws; None when it is zero."""
    if not mat.size or not np.any(mat):
        return None
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _estimator_names(names) -> tuple[str, ...]:
    """The selected estimator names as a tuple; a name that is unknown or
    selected more than once raises ValueError."""
    names = tuple(names)
    for name in names:
        if name not in ESTIMATOR_KEYS:
            raise ValueError(f"unknown estimator {name!r}; choose from {ESTIMATOR_KEYS}")
        if names.count(name) > 1:
            raise ValueError(f"estimator {name!r} is selected more than once")
    return names


def _build_estimators(cfg: TrialConfig, names, aug, floor: float, arma) -> dict:
    """One trial's estimators by (checked) name; ``alg1`` runs on the
    input-output form ``arma``."""
    est: dict = {}
    for name in names:
        if name == "alg1":
            est[name] = Alg1Estimator(
                arma, cfg.strategy, cfg.chain, prior=cfg.est_prior,
                kf_model=aug, kf_x0=cfg.est_x0, kf_P0=cfg.est_P0,
                held_cov_floor=floor,
            )
        else:
            cls = Alg2Estimator if name == "alg2" else ImmEstimator
            est[name] = cls(
                aug, cfg.chain, prior=cfg.est_prior, x0=cfg.est_x0, P0=cfg.est_P0,
                held_cov_floor=floor,
            )
    return est


def _simulate_truths(configs, aug):
    """Draw the modes, noise and inputs of a batch of trials (sharing the
    plant, strategy, chain and steps of ``configs[0]``) and propagate their
    plants in lockstep; returns (true_modes, true_states, y, u, u_applied)
    stacked over the trials, each trial's aligned as in a TrialRecord. A
    trial draws each of its streams in the order it does alone: the x0
    resample before the process noise, the initial mode before the N - 1
    uniforms of the next modes. A mode is the first bin [lo, hi) of its
    predecessor's CDF row that holds its uniform. Products stack per-trial
    matrix-vector products, so a trial's truth does not depend on its batch."""
    cfg = configs[0]
    plant, s, nsteps, n_trials = cfg.plant, cfg.chain.s, cfg.steps, len(configs)
    n, m, r = plant.n, plant.m, plant.r

    def search(cdf, draws):
        return np.minimum(np.count_nonzero(cdf <= draws[..., None], axis=-1), s - 1) + 1

    # no draws for a zero noise covariance
    chol_q, chol_r = _psd_factor(plant.Q), _psd_factor(plant.R)
    states = np.empty((n_trials, nsteps + 1, aug.state_dim))
    w = None if chol_q is None else np.zeros(states[:, 1:].shape)
    v, us = np.zeros((n_trials, nsteps + 1, m)), np.empty((n_trials, nsteps + 1, r))
    modes, draws = np.empty((n_trials, nsteps), dtype=int), np.empty((n_trials, nsteps - 1))
    pi_cdf = np.cumsum(stationary_distribution(cfg.chain))
    for t, trial in enumerate(configs):
        seq = np.random.SeedSequence(trial.seed)
        mode_rng, w_rng, v_rng, u_rng = map(np.random.default_rng, seq.spawn(4))
        x0 = trial.x0 + trial.x0_std * w_rng.standard_normal(n) if trial.resample_x0 else trial.x0
        states[t, 0] = aug.initial_state(x0, trial.u_init_applied)
        if w is not None:
            w[t, :, :n] = _mv(chol_q, w_rng.standard_normal((nsteps, n)))
        if chol_r is not None:
            v[t] = _mv(chol_r, v_rng.standard_normal((nsteps + 1, m)))
        us[t] = trial.input_sequence if trial.input_sequence is not None else (
            trial.input_std * u_rng.standard_normal((nsteps + 1, r)))
        modes[t, 0] = trial.initial_mode or search(pi_cdf, mode_rng.random(1))[0]
        draws[t] = mode_rng.random(nsteps - 1)

    cdfs = np.cumsum(cfg.chain.P, axis=1)
    for k in range(1, nsteps):
        modes[:, k] = search(cdfs[modes[:, k - 1] - 1], draws[:, k - 1])
    a_tab, b_tab = aug.mode_tables
    rows = modes - 1
    inputs = _mv(b_tab[rows], us[:, :-1])
    for k in range(1, nsteps + 1):
        states[:, k] = _mv(a_tab[rows[:, k - 1]], states[:, k - 1]) + inputs[:, k - 1]
        if w is not None:
            states[:, k] += w[:, k - 1]
    true_states, hold = states[..., :n].copy(), cfg.strategy is LossStrategy.HOLD
    u_applied = states[:, 1:, n:].copy() if hold else aug.space.flags[rows] * us[:, :-1]
    return modes, true_states, _mv(plant.C, true_states) + v, us, u_applied


def _run_estimators(cfg: TrialConfig, names, aug, us, ys) -> list:
    """Step the estimators of a batch of trials in lockstep.

    ``us`` and ``ys`` stack the trials' issued inputs (T, N+1, r) and
    measured outputs (T, N+1, m); the trials share ``cfg`` but for their
    signals. Each trial's estimators form a bank, started on (u_0, y_0);
    then every step runs all the banks through one ``_bank_step`` on their
    (u_k, y_k) rows. Returns, per trial, modes, states and fallbacks per
    name, aligned as in a TrialRecord (filled up to a failure), and None or
    the first numerical failure as (step, reason, exception).

    A batched step that raises commits nothing, so it is re-run one way:
    each trial's estimators step alone (``step``), in selection order. Every
    row of a batched step is computed as it is alone, so a trial's failure,
    and the results of the estimators ahead of the one that fails, are those
    of stepping each estimator of that trial alone. A failed trial leaves
    the batch; the rest go on.
    """
    n_trials, nsteps, n = us.shape[0], us.shape[1] - 1, cfg.plant.n
    floor = DEFAULT_HELD_COV_FLOOR if cfg.held_cov_floor is None else cfg.held_cov_floor
    out = [
        ({name: np.zeros(nsteps, dtype=int) for name in names},
         {name: np.zeros((nsteps, n)) for name in names},
         {name: np.zeros(nsteps, dtype=bool) for name in names})
        for _ in range(n_trials)
    ]
    failures = [None] * n_trials
    if not names:
        return [(*arrays, None) for arrays in out]

    def record(t, name, res):
        modes, states, fallbacks = out[t]
        modes[name][k - 1] = res.mode
        states[name][k - 1] = res.state[:n]
        fallbacks[name][k - 1] = res.fallback

    try:
        # the estimators depend on cfg alone: every trial's build, or none
        arma = None
        if "alg1" in names:
            arma = cfg.arma if cfg.arma is not None else ss_to_arma(cfg.plant)
        banks = [tuple(_build_estimators(cfg, names, aug, floor, arma).values())
                 for _ in range(n_trials)]
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return [(*arrays, (0, str(exc), exc)) for arrays in out]
    for bank, u, y in zip(banks, us, ys):
        for est in bank:
            est.start(u[0], y[0])
    active = list(range(n_trials))
    for k in range(1, nsteps + 1):
        if not active:
            break
        u_k, y_k = us[active, k], ys[active, k]
        try:
            results = _bank_step([banks[t] for t in active], aug, floor, u_k, y_k)
        except (NumericalError, np.linalg.LinAlgError):
            for t, u, y in zip(active, u_k, y_k):
                for name, est in zip(names, banks[t]):
                    try:
                        record(t, name, est.step(u, y))
                    except (NumericalError, np.linalg.LinAlgError) as exc:
                        failures[t] = k, f"{name}: {exc}", exc
                        break
            active = [t for t in active if failures[t] is None]
            continue
        for t, bank_results in zip(active, results):
            for name, res in zip(names, bank_results):
                record(t, name, res)
    return [(*arrays, failure) for arrays, failure in zip(out, failures)]


def _simulate_trials(configs, names) -> list[TrialRecord]:
    """Records of trials whose configs differ only in their signals (the
    seed, or the input and initial-state options): one augmented model, the
    trials' truths drawn in lockstep, then all their estimators stepped in
    lockstep."""
    cfg = configs[0]
    aug = build_augmented(cfg.plant, cfg.strategy)
    truths = _simulate_truths(configs, aug)
    records = []
    for trial, true_modes, true_states, y, u, u_applied, estimate in zip(
            configs, *truths, _run_estimators(cfg, names, aug, truths[3], truths[2])):
        est_modes, est_states, fallbacks, failure = estimate
        fail_step, fail_reason, _ = failure or (None, None, None)
        records.append(TrialRecord(
            steps=trial.steps, estimators=names, true_modes=true_modes, est_modes=est_modes,
            true_states=true_states, est_states=est_states, y=y, u=u,
            u_applied=u_applied, fallbacks=fallbacks, seed=trial.seed,
            failed=failure is not None, fail_step=fail_step, fail_reason=fail_reason,
        ))
    return records


def simulate_trial(cfg: TrialConfig, estimator_names=ESTIMATOR_KEYS) -> TrialRecord:
    """Run one seeded trial and return its record.

    The truth is generated first, through the mode-parameterized state-space
    model; the estimators then run on nothing but its (u_k, y_k). An
    estimator numerical failure marks the record failed with the step index
    instead of raising; the truth arrays stay complete.
    """
    return _simulate_trials([cfg], _estimator_names(estimator_names))[0]


def run_monte_carlo(
    cfg: TrialConfig,
    n_trials: int,
    base_seed: int,
    estimator_names=ESTIMATOR_KEYS,
    n_jobs: int = 1,
) -> Iterator[TrialRecord]:
    """Yield ``n_trials`` independent trial records in trial order.

    Trial t runs with seed ``derive_trial_seed(base_seed, t)``. The trials
    run in batches whose estimators step in lockstep, on
    ``min(n_jobs, n_trials, os.cpu_count())`` workers: a batch holds
    ⌈n_trials / workers⌉ trials, and no more than fit ``MAX_CYCLE_ROWS``
    Kalman rows. With one worker the batches run in this process, with more
    a pool of worker processes runs them. Records are identical either way,
    and equal to :func:`simulate_trial`'s, because each trial owns its
    streams and every row of a batched step is computed as it is alone.
    The arguments are checked at the call, before any record is asked for.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    names = _estimator_names(estimator_names)
    configs = [
        dataclasses.replace(cfg, seed=derive_trial_seed(base_seed, t))
        for t in range(n_trials)
    ]
    workers = min(n_jobs, n_trials, os.cpu_count() or 1)
    rows = sum(cfg.chain.s if name == "imm" else 1 for name in names)
    size = min(-(-n_trials // workers), max(1, MAX_CYCLE_ROWS // max(rows, 1)))
    batches = [configs[first:first + size] for first in range(0, n_trials, size)]
    return _run_batches(batches, names, workers)


def _run_batches(batches, names, workers: int) -> Iterator[TrialRecord]:
    """The batches' records in order, run here or by a pool of ``workers``."""
    if workers == 1:
        for batch in batches:
            yield from _simulate_trials(batch, names)
        return
    # imported here: loading multiprocessing costs about 1.1 MB RSS
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for records in pool.map(_simulate_trials, batches, [names] * len(batches)):
            yield from records


def replay_estimators(cfg: TrialConfig, estimator_names, u: np.ndarray, y: np.ndarray):
    """Re-run estimators offline on recorded (N+1, r) inputs ``u`` and
    (N+1, m) outputs ``y``; signals of another shape raise ValueError.

    Returns {name: (modes, states, fallbacks)} with the same alignment as a
    TrialRecord. It runs the estimator loop of :func:`simulate_trial`, so it
    reproduces an in-simulation record exactly; a numerical failure raises.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, signal, size in (("u", u, cfg.plant.r), ("y", y, cfg.plant.m)):
        if signal.ndim != 2 or not signal.shape[0] or signal.shape[1] != size:
            raise ValueError(f"{name} must be (steps + 1, {size}), got shape {signal.shape}")
    if u.shape[0] != y.shape[0]:
        raise ValueError("u and y must cover the same steps")
    names = _estimator_names(estimator_names)
    aug = build_augmented(cfg.plant, cfg.strategy)
    [(modes, states, fallbacks, failure)] = _run_estimators(cfg, names, aug, u[None], y[None])
    if failure is not None:
        raise failure[2]
    return {name: (modes[name], states[name], fallbacks[name]) for name in names}
