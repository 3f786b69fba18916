"""Mode and state estimators for plants driven through lossy input links.

Three estimators share one recursive posterior over the previous step's
delivery mode. Each step they score every candidate mode by a Gaussian
likelihood of the newest output, fold the likelihoods into the posterior
through the mode chain, and pick the maximum-probability mode:

* ``Alg1Estimator`` predicts candidate outputs from the input-output
  (ARMA) recursion and uses a constant innovation covariance. Mode
  estimation runs without any Kalman filter; one can be attached when a
  state estimate is also wanted.
* ``Alg2Estimator`` predicts candidate outputs from a single Kalman
  filter's belief on the (possibly augmented) state-space form, so mode
  and state estimation are coupled.
* ``ImmEstimator`` is the interacting-multiple-model baseline: a bank of
  mode-matched Kalman filters with probabilistic mixing, whose model
  probabilities play the role of the mode posterior.

Candidates are scored in one batched pass, never one at a time. Arrays
over the s candidates stack them on a leading axis, row j-1 for mode j:
the mode tables ``A(j)``, ``B(j)`` are (s, d, d) and (s, d, r), candidate
output predictions (s, m) with covariances (s, m, m), and the IMM bank's
beliefs (s, d) means with (s, d, d) covariances. The Kalman kernels
(``kf_predict``, ``kf_update``, ``floor_held_cov``) and ``GaussianBelief``
broadcast over such leading axes. Each estimator decides a mode, then runs
one Kalman cycle (``_cycle``: predict, innovation covariance, update,
held-input floor) on the mode-table rows its decision selects: the decided
mode for ``alg1`` and ``alg2``, all s filters for ``imm``. An estimator's
state arrays carry lead axes: none online, (T,) for the one object per
kind that holds a batch of T trials (``_take`` copies rows out of, or
repeats, a state). One step generator per kind (``_alg1_step``,
``_alg2_step``, ``_imm_step``) is written once over those axes; a batch's
kinds step together with one ``_cycle`` per step and return columns over
the trials (``_bank_step``), and an online ``step`` runs its generator
alone (``_lone_step``). ``alg1`` decides trial by trial, whitening by its
constant factor inverted once. Each trial gets, bit for bit, what it gets
alone. ``start`` checks the step-0 signals as ``step`` checks its own, and
must come first.

Likelihood handling is done in log-domain with max-subtraction. Two
robustness devices keep the recursions healthy on top of that:

* The input-output estimator validates its candidate predictions with a
  chi-square gate. When even the best candidate's squared Mahalanobis
  residual exceeds the gate, the Gaussian model is inconsistent with the
  data (its covariance is a fixed design value, so this happens during
  warm-up transients and after the hold reconstruction desynchronizes) and
  the likelihoods carry no usable mode information. The posterior then
  falls back to its one-step chain prediction, the step is flagged, and
  the hold-strategy recursion memory re-anchors to the issued inputs, the
  only signals the estimator knows exactly. Without the re-anchor a stale
  reconstruction is self-sustaining: every candidate looks impossible, so
  no decision ever refreshes it. The zero-strategy mode memory records the
  best-fitting candidate on a gated step instead of an all-deliver anchor,
  which with several links is usually wrong and would gate the next step
  too.
* Hold-strategy filters keep the variance of the held-input state
  components above a small floor (``DEFAULT_HELD_COV_FLOOR``). With no
  process noise those components otherwise collapse to exact certainty,
  and a single wrong mode decision then freezes a wrong held value
  forever; the floor keeps the gain on them alive so innovations can
  correct such errors.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .markov import TransitionMatrix, _check_distribution, predict_prior
from .model import (
    ArmaModel,
    AugmentedModel,
    LossStrategy,
    ModeSpace,
    _all_finite,
)

__all__ = [
    "DEFAULT_HELD_COV_FLOOR",
    "DEFAULT_GATE_PVALUE",
    "NumericalError",
    "GaussianBelief",
    "StepResult",
    "kf_predict",
    "kf_update",
    "floor_held_cov",
    "mode_posterior_update_log",
    "mode_argmax",
    "alg1_const_sigma",
    "alg1_predict_output",
    "alg2_predict",
    "Alg1Estimator",
    "Alg2Estimator",
    "ImmEstimator",
]

LOG_2PI = math.log(2.0 * math.pi)
COV_SYMMETRY_TOL = 1e-10
COV_EIG_TOL = -1e-9

# variance floor for held-input state components of hold-strategy filters
DEFAULT_HELD_COV_FLOOR = 4e-3

# tail probability for the input-output estimator's model-mismatch gate
DEFAULT_GATE_PVALUE = 1e-9


class NumericalError(ArithmeticError):
    """Raised when a filter step hits non-finite data or a singular covariance."""


@dataclass(frozen=True, slots=True)
class GaussianBelief:
    """Gaussian state estimate: mean (..., d), covariance (..., d, d); leading
    axes stack independent beliefs."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != mean.shape + mean.shape[-1:]:
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean shape {mean.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _of(cls, mean: np.ndarray, cov: np.ndarray) -> GaussianBelief:
        """A kernel's output: float arrays whose shapes match by construction,
        so the conversions and the shape check of ``__init__`` are skipped."""
        belief = object.__new__(cls)
        object.__setattr__(belief, "mean", mean)
        object.__setattr__(belief, "cov", cov)
        return belief

    def validate(self) -> None:
        """Check symmetry and near-PSD of the covariance."""
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.cov)):
            raise NumericalError("belief contains non-finite values")
        if np.max(np.abs(self.cov - _t(self.cov)), initial=0.0) > COV_SYMMETRY_TOL:
            raise NumericalError("covariance lost symmetry")
        if self.cov.size and np.linalg.eigvalsh(self.cov).min() < COV_EIG_TOL:
            raise NumericalError("covariance lost positive semidefiniteness")


@dataclass(frozen=True, slots=True)
class StepResult:
    """Per-step estimator diagnostics.

    mode is the 1-based estimate of the previous step's mode, state the
    filtered state mean (None for mode-only operation), posterior and
    loglik the full vectors behind the decision, and fallback marks steps
    whose posterior is the chain-predicted prior instead of a likelihood
    update: steps where every weighted candidate's density underflowed to
    zero and, for ``alg1``, steps its chi-square mismatch gate rejected.
    """

    mode: int
    state: np.ndarray | None
    posterior: np.ndarray
    loglik: np.ndarray
    fallback: bool


def _require_finite(name: str, *arrays) -> None:
    for arr in arrays:
        # np.isfinite(arr).all(), counted by one C call instead of a reduction
        finite = np.isfinite(arr)
        if np.count_nonzero(finite) != finite.size:
            raise NumericalError(f"non-finite values in {name}")


def _t(mat: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes of a matrix or a stack of matrices."""
    return mat.swapaxes(-1, -2)


def _mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Matrix-vector products broadcast over leading axes: (..., a, b) @ (..., b)."""
    return (mat @ vec[..., None])[..., 0]


def kf_predict(A, B, Q, belief: GaussianBelief, u_prev) -> GaussianBelief:
    """Time update: propagate mean and covariance one step (batch axes broadcast)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    _require_finite("kf_predict inputs", belief.mean, belief.cov, u_prev)
    mean = _mv(A, belief.mean) + _mv(B, u_prev)
    cov = A @ belief.cov @ _t(A) + Q
    return GaussianBelief._of(mean, 0.5 * (cov + _t(cov)))


def _innovation(C, R, cov):
    """C P and the innovation covariance C P C^T + R of covariances P (..., d, d)."""
    c_pred = C @ cov
    return c_pred, c_pred @ _t(C) + R


def kf_update(C, R, belief: GaussianBelief, y, innov=None) -> GaussianBelief:
    """Measurement update with gain K = P C^T (C P C^T + R)^(-1) (batch axes
    broadcast); ``innov`` is the pair (C P, C P C^T + R) of this belief if
    the caller has computed it already."""
    C = np.asarray(C, dtype=float)
    R = np.asarray(R, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_finite("kf_update inputs", belief.mean, belief.cov, y)
    pred_cov = belief.cov
    c_pred, innov_cov = _innovation(C, R, pred_cov) if innov is None else innov
    try:
        gain = _t(np.linalg.solve(innov_cov, c_pred))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is singular") from exc
    mean = belief.mean + _mv(gain, y - _mv(C, belief.mean))
    cov = pred_cov - gain @ C @ pred_cov
    return GaussianBelief._of(mean, 0.5 * (cov + _t(cov)))


def floor_held_cov(belief: GaussianBelief, n_phys: int, floor: float) -> GaussianBelief:
    """Raise held-input variances (components beyond n_phys) to the floor."""
    dim = belief.mean.shape[-1]
    if floor <= 0.0 or dim <= n_phys:
        return belief
    diag = belief.cov.diagonal(0, -2, -1)[..., n_phys:]
    if np.minimum.reduce(diag, axis=None) >= floor:
        return belief
    cov = belief.cov.copy()
    # the held diagonal entries as a strided view of the flattened matrices
    flat = cov.reshape(cov.shape[:-2] + (dim * dim,))
    flat[..., n_phys * (dim + 1)::dim + 1] = np.maximum(diag, floor)
    return GaussianBelief._of(belief.mean, cov)


def _chi2_upper_quantile(dof: int, p: float) -> float:
    """Upper-tail chi-square quantile via the Wilson-Hilferty approximation.

    Accurate to a few percent, which is ample for mismatch gating.
    """
    if dof < 1 or not 0.0 < p < 1.0:
        raise ValueError("need dof >= 1 and 0 < p < 1")
    z = statistics.NormalDist().inv_cdf(1.0 - p)
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance is not positive definite") from exc


def _log_det_half(chol: np.ndarray):
    """Half the log-determinant of each covariance from its Cholesky factor."""
    return np.add.reduce(np.log(chol.diagonal(0, -2, -1)), axis=-1)


def _chol_logpdf(diff: np.ndarray, chol: np.ndarray, log_det_half):
    """Gaussian log densities of residuals diff (..., m) under Cholesky
    factors chol (..., m, m), broadcast over leading axes."""
    z = np.linalg.solve(chol, diff[..., None])
    maha = (_t(z) @ z)[..., 0, 0]
    return -0.5 * (diff.shape[-1] * LOG_2PI + maha) - log_det_half


def mode_posterior_update_log(prior, loglik) -> tuple[np.ndarray, bool | np.ndarray]:
    """Recursive posterior update from log-likelihoods.

    ``prior`` is the chain-predicted mode prior (:func:`predict_prior` of
    the previous posterior). Each candidate's likelihood is weighted by it
    and renormalized (max-subtraction in log domain). Returns the updated
    probability vector and a fallback flag: when every weighted candidate
    is exactly zero, the prior's values are returned and the step is
    flagged. A stack of priors and log-likelihoods (T, s) is updated row by
    row, with one flag per row (a bool array).
    """
    prior = np.asarray(prior, dtype=float)
    loglik = np.asarray(loglik, dtype=float).reshape(prior.shape[:-1] + (-1,))
    zero_prior = np.count_nonzero(prior) != prior.size
    # a zero prior meets a +inf log-likelihood as NaN, so NaNs are sought
    # first there; else a row's maximum below is NaN if its loglik holds one
    if zero_prior or loglik.shape != prior.shape:
        if np.count_nonzero(np.isnan(loglik)):
            raise NumericalError("NaN log-likelihood")
        if loglik.shape != prior.shape:
            raise ValueError(f"{loglik.shape[-1]} likelihoods for {prior.shape[-1]} modes")
        with np.errstate(divide="ignore"):
            logw = loglik + np.log(prior)
    else:
        logw = loglik + np.log(prior)
    top = np.maximum.reduce(logw, axis=-1, keepdims=True)
    one = prior.ndim == 1
    if (math.isfinite(top[0]) if one else np.count_nonzero(np.isfinite(top)) == top.size):
        weights = np.exp(logw - top)
        probs = weights / np.add.reduce(weights, axis=-1, keepdims=True)
        return probs, (False if one else np.zeros(prior.shape[0], dtype=bool))
    if np.count_nonzero(np.isnan(loglik)):
        raise NumericalError("NaN log-likelihood")
    fallback = ~np.isfinite(top)
    top[fallback] = 0.0  # those rows' weights are replaced by the prior
    weights = np.exp(logw - top)
    total = np.add.reduce(weights, axis=-1, keepdims=True)
    total[fallback] = 1.0
    probs = np.where(fallback, prior, weights / total)
    return probs, (bool(fallback[0]) if one else fallback[..., 0])


def mode_argmax(posterior) -> int | np.ndarray:
    """Smallest 1-based mode index attaining the maximum probability; an
    int array of one per row for a stack of posteriors (T, s)."""
    modes = np.asarray(posterior, dtype=float).argmax(axis=-1) + 1
    return int(modes) if modes.ndim == 0 else modes


def alg1_const_sigma(arma: ArmaModel) -> np.ndarray:
    """Constant output-prediction covariance (1 + sum_l c_l^2) lam.

    The input-output predictor drops every noise term, so the prediction
    error is the innovation plus its h lagged copies; independence across
    steps makes the covariance this fixed multiple of lam.
    """
    return (1.0 + float(np.dot(arma.c, arma.c))) * arma.lam


def alg1_predict_output(
    arma: ArmaModel,
    strategy: LossStrategy,
    space: ModeSpace,
    y_hist,
    u_hist,
    uhat_hist,
    mode_hist,
) -> np.ndarray:
    """Output predictions of all s candidates from the input-output recursion.

    Returns an (s, m) array, row j-1 for candidate j. Histories are
    newest-first: ``y_hist[i]`` is the output i+1 steps back, ``u_hist[i]``
    the issued input i+1 steps back, ``uhat_hist[i]`` the reconstructed
    applied input i+2 steps back (hold only) and ``mode_hist[i]`` the mode
    estimate i+2 steps back. The candidates stand in for the mode one step
    back, one per row of the link-flag table; older modes come from the
    history and are shared by every candidate.
    """
    yhat = np.zeros((space.s, arma.m))
    for i in range(arma.n_ar):
        yhat -= arma.a[i] * y_hist[i]
    hold = strategy is LossStrategy.HOLD
    flags, drops = space.flags, space.drops  # delivered and lost links, 1 - flags
    for lag in range(1, arma.p + 1):
        if lag > 1:
            row = mode_hist[lag - 2] - 1
            flags, drops = space.flags[row], space.drops[row]
        coeff = arma.b[lag - 1]
        yhat += _mv(coeff, flags * u_hist[lag - 1])
        if hold:
            yhat += _mv(coeff, drops * uhat_hist[lag - 1])
    return yhat


def alg2_predict(
    aug: AugmentedModel, belief: GaussianBelief, u_prev
) -> tuple[np.ndarray, np.ndarray]:
    """Output predictions of all s candidates and their covariances.

    Returns (s, m) means and (s, m, m) covariances from the filter belief,
    row j-1 for candidate j:

    yhat_j = C A(j) mean + C B(j) u_prev
    sigma_j = C A(j) P A(j)^T C^T + C Q C^T + R

    Stacked beliefs (T, d) and inputs (T, r) give each trial's, bit for bit,
    as (T, s, m) means and (T, s, m, m) covariances.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    ca, cb = aug.output_tables
    # a candidate axis for the beliefs
    mean, cov = belief.mean[..., None, :], belief.cov[..., None, :, :]
    yhat = _mv(ca, mean) + _mv(cb, u_prev[..., None, :])
    sigma = ca @ cov @ _t(ca) + aug._output_process_cov + aug.R
    return yhat, 0.5 * (sigma + _t(sigma))


def _moment_match(weights: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> GaussianBelief:
    """Moment-matched Gaussians of the mixtures sum_i w_i N(mean_i, cov_i)
    over a bank of s beliefs, means (..., s, d) and covariances
    (..., s, d, d); each of the k rows of weights (..., k, s) gives one, so
    the result is (..., k, d) means with (..., k, d, d) covariances. Leading
    axes stack banks. Every product is a stack of per-bank matrix products,
    so a bank's result does not depend on the other banks of the stack."""
    d = mean.shape[-1]
    mixed = weights @ mean
    diff = mean[..., None, :, :] - mixed[..., None, :]
    out = (weights @ cov.reshape(cov.shape[:-2] + (d * d,))).reshape(mixed.shape + (d,))
    out += (_t(diff) * weights[..., None, :]) @ diff
    return GaussianBelief._of(mixed, 0.5 * (out + _t(out)))


def _initial_state(transition, prior, s: int, held_cov_floor, dim=None, x0=None, P0=None,
                   prefix=""):
    """An estimator's (s, s) mode chain, initial mode probabilities and,
    given a state dimension ``dim``, initial belief N(x0, P0) as a (dim,)
    mean and (dim, dim) covariance (zero and identity by default; None
    without ``dim``). Values that cannot work raise ValueError naming the
    argument (``prefix`` + "x0" or "P0"): a state or covariance of another
    size, a non-finite entry, a negative variance, a held-input floor that
    is negative or not finite."""
    if not (math.isfinite(held_cov_floor) and held_cov_floor >= 0.0):
        raise ValueError(f"held_cov_floor must be finite and nonnegative, got {held_cov_floor}")
    trans = transition.P if isinstance(transition, TransitionMatrix) else np.asarray(
        transition, dtype=float)
    if trans.shape != (s, s):
        raise ValueError(f"transition matrix shape {trans.shape} does not match {s} modes")
    if prior is None:
        probs = np.full(s, 1.0 / s)
    else:
        probs = np.array(prior, dtype=float).reshape(-1)
        if probs.shape[0] != s:
            raise ValueError(f"prior length {probs.shape[0]} does not match {s} modes")
        _check_distribution(probs, "prior")
    if dim is None:
        return trans, probs, None, None
    mean = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    cov = np.eye(dim) if P0 is None else np.asarray(P0, dtype=float)
    if mean.shape != (dim,):
        raise ValueError(f"{prefix}x0 has {mean.size} entries, expected {dim}")
    if cov.shape != (dim, dim):
        raise ValueError(f"{prefix}P0 has shape {cov.shape}, expected ({dim}, {dim})")
    for name, arr in ((prefix + "x0", mean), (prefix + "P0", cov)):
        if not _all_finite(arr):
            raise ValueError(f"{name} must be finite")
    if np.count_nonzero(cov.diagonal() < 0.0):
        raise ValueError(f"{prefix}P0 has a negative variance")
    return trans, probs, mean, cov


def _step_signals(est, u, y, m: int, force_mode=None, entry="step"):
    """The (u, y) given to estimator ``est``'s ``entry`` (its ``step``, or its
    ``start`` with the step-0 signals) as float arrays, L + (r,) inputs and
    L + (m,) outputs for its state's lead axes L (flat vectors online),
    checked to hold its r inputs and m outputs and to be finite; a forced
    mode must name one of its s modes."""
    space, lead = est.space, est._probs.shape[:-1]
    if force_mode is not None and not 1 <= force_mode <= space.s:
        raise ValueError(f"force_mode {force_mode} outside 1..{space.s}")
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    if u.ndim != len(lead) + 1 or y.ndim != len(lead) + 1:
        u, y = u.reshape(lead + (-1,)), y.reshape(lead + (-1,))
    if u.shape[-1] != space.r:
        raise ValueError(f"{est.key} {entry} input u has {u.shape[-1]} entries, expected {space.r}")
    if y.shape[-1] != m:
        raise ValueError(f"{est.key} {entry} output y has {y.shape[-1]} entries, expected {m}")
    if not (_all_finite(u) and _all_finite(y)):
        raise NumericalError(f"non-finite values in {est.key} {entry} inputs")
    return u, y


def _take(est, index):
    """A copy of estimator ``est`` that owns rows ``index`` of its state (its
    lead axes flattened): an int gives an online estimator, an int array a
    batch. An online state is one row, so ``np.zeros(T, dtype=int)``
    repeats it over T trials."""
    new, lead = copy.copy(est), est._probs.shape[:-1]
    for attr in est._state:
        arr = getattr(est, attr)
        if arr is not None:
            rows = arr.reshape((math.prod(lead),) + arr.shape[len(lead):])
            setattr(new, attr, np.take(rows, index, axis=0))
    return new


def _bank_step(batch, aug, floor, us, ys) -> dict:
    """One step of a batch of T trials: ``batch`` maps a name to the one
    estimator that holds the trials as (T, ...) state; returns each name's
    columns. The trials share ``aug``, the mode chain and the held-input
    ``floor``; row t of the (T, r) inputs ``us`` and (T, m) outputs ``ys``
    is trial t's, checked finite at once (a non-finite row raises, naming no
    trial). Each estimator steps as one generator (``_alg1_step``,
    ``_alg2_step``, ``_imm_step``):

    1. up to its first yield it decides, committing nothing, and yields
       ``(rows, belief, u_prev, y)``: None (a mode-only ``alg1``), or the
       mode-table rows of its beliefs ((T,) for the (T, d) beliefs of
       ``alg1`` and ``alg2``, (s,) for the IMM banks' (T, s, d)) with
       signals, all broadcasting over the beliefs' leading axes;
    2. it is sent its part of the one Kalman cycle (``_cycle``) of all the
       generators' rows, ``(pred_mean, innov_cov, upd_mean, upd_cov)``
       shaped like its beliefs (None without rows), finishes everything
       that can raise and yields its columns ``(modes, states, posteriors,
       logliks, fallbacks)``: (T,) modes, (T, d) full states (None for a
       mode-only ``alg1``), (T, s) posteriors and log-likelihoods, (T,) flags;
    3. resumed once more, it commits by replacing or writing whole arrays.

    No estimator commits before every generator has yielded its columns, so
    a step that raises leaves every estimator as it was.
    """
    _require_finite("step inputs", us, ys)
    # looked up at each call, so that a patched generator takes part
    make = {"alg1": _alg1_step, "alg2": _alg2_step, "imm": _imm_step}
    steps = {name: make[name](aug, est, us, ys) for name, est in batch.items()}
    parts, blocks, n_rows = dict.fromkeys(steps), [], 0
    for name, step in steps.items():
        rows, belief, u_prev, y = next(step)
        if rows is None:
            continue
        lead, d = belief.mean.shape[:-1], belief.mean.shape[-1]
        size = math.prod(lead)
        parts[name] = slice(n_rows, n_rows + size), lead
        n_rows += size
        # the rows and signals, one entry per belief
        rows, u_prev, y = (a if a.shape[:-1] == lead else np.broadcast_to(a, lead + a.shape[-1:])
                           for a in (np.asarray(rows)[..., None], u_prev, y))
        blocks.append((rows.reshape(size), belief.mean.reshape(size, d),
                       belief.cov.reshape(size, d, d), u_prev.reshape(size, -1),
                       y.reshape(size, -1)))
    if blocks:
        rows, mean, cov, u_prev, y = (np.concatenate(arrays) for arrays in zip(*blocks))
        cycle = _cycle(aug, floor, rows, GaussianBelief._of(mean, cov), u_prev, y)
    columns = {}
    for name, step in steps.items():
        part = parts[name]
        columns[name] = step.send(None if part is None else [
            arr[part[0]].reshape(part[1] + arr.shape[1:]) for arr in cycle])
    for step in steps.values():
        next(step, None)
    return columns


def _cycle(aug, floor, rows, belief, u_prev, y):
    """One Kalman cycle of beliefs on their mode-table ``rows`` (an int or
    int array shaped like the beliefs' leading axes) with their previous
    inputs and measurements: returns the predicted means, the innovation
    covariances C P C^T + R, and the updated means and covariances with
    held-input variances floored."""
    a_tab, b_tab = aug.mode_tables
    pred = kf_predict(a_tab[rows], b_tab[rows], aug.Q, belief, u_prev)
    innov = _innovation(aug.C, aug.R, pred.cov)
    upd = floor_held_cov(kf_update(aug.C, aug.R, pred, y, innov), aug.plant.n, floor)
    return pred.mean, innov[1], upd.mean, upd.cov


def _lone_step(step, aug, floor) -> StepResult:
    """Run one step generator of ``_bank_step``'s protocol for an online
    estimator, with a Kalman cycle of its own rows alone; returns its
    columns as a StepResult."""
    rows, belief, u_prev, y = next(step)
    mode, state, posterior, loglik, fallback = step.send(
        None if rows is None else _cycle(aug, floor, rows, belief, u_prev, y))
    next(step, None)
    return StepResult(int(mode), state, posterior.copy(), loglik, bool(fallback))


@functools.lru_cache
def _lead_index(lead):
    """Each trial's index into state with lead axes ``lead``, then the older,
    newer and newest entries of a history (lag axis after the lead axes)."""
    trials = (slice(None),) * len(lead)
    return (tuple(itertools.product(*map(range, lead))), trials + (slice(1, None),),
            trials + (slice(-1),), trials + (0,))


def _alg1_step(aug, est, us, ys, force_mode=None):
    """One step of an ``Alg1Estimator`` whose state has lead axes L (none
    online, (T,) for a batch) on inputs ``us`` (L + (r,)) and outputs ``ys``
    (L + (m,)): each trial decides on its own histories, then the decided
    rows of the L + (d,) beliefs ride the Kalman cycle, as ``alg2``'s do
    (none for a mode-only estimator; ``aug`` is unused). A step generator
    of ``_bank_step``, like ``_alg2_step``."""
    hold, space, lead = est.strategy is LossStrategy.HOLD, est.space, est._probs.shape[:-1]
    probs, loglik = np.empty(est._probs.shape), np.empty(est._probs.shape)
    modes, memory, fallback = np.empty(lead, int), np.empty(lead, int), np.empty(lead, bool)
    uhat = np.empty(lead + (space.r,))
    index, older, newer, newest = _lead_index(lead)
    for i in index:
        u_rows, uhat_rows = est._u_hist[i], est._uhat_hist[i]
        yhat = alg1_predict_output(est.arma, est.strategy, space, est._y_hist[i], u_rows,
                                   uhat_rows, est._mode_hist[i])
        maha = np.add.reduce(np.square((ys[i] - yhat) @ est._white), axis=-1)  # squared distances
        if not math.isfinite(np.maximum.reduce(maha)):  # NaN, or a residual too large to square
            raise NumericalError("NaN log-likelihood")
        loglik[i] = row_loglik = -0.5 * (est._log_norm + maha) - est._log_det_half
        gated = np.minimum.reduce(maha) > est._gate_d2
        prior = predict_prior(est._probs[i], est._P)
        row_probs, flag = (prior, True) if gated else mode_posterior_update_log(prior, row_loglik)
        probs[i], fallback[i] = row_probs, flag
        modes[i] = mode = row_probs.argmax() + 1 if force_mode is None else force_mode

        # memory entries: the decided mode normally. On a fallback step the
        # hold strategy re-anchors to the all-deliver mode, whose signals
        # (the issued inputs) are known exactly; a gated zero-strategy step
        # keeps the best-fitting candidate instead, since an anchor that is
        # wrong (all-deliver is rare with several links) makes the next
        # prediction wrong and the gate fire again
        if not flag:
            memory_mode = mode
        elif gated and not hold:
            memory_mode = row_loglik.argmax() + 1
        else:
            memory_mode = space.s
        memory[i] = memory_mode
        if hold:
            alpha, drop = space.flags[memory_mode - 1], space.drops[memory_mode - 1]
            uhat[i] = u_rows[0] if flag else alpha * u_rows[0] + drop * uhat_rows[0]
    modes, fallback = modes[()], fallback[()]  # scalars online, cheaper than 0-d arrays
    belief = None if est._mean is None else GaussianBelief._of(est._mean, est._cov)
    cycle = yield (None if belief is None else modes - 1), belief, est._u_hist[newest], ys
    yield modes, None if cycle is None else cycle[2], probs, loglik, fallback

    est._probs = probs
    if cycle is not None:
        est._mean, est._cov = cycle[2], cycle[3]
    # the histories move one step back, the new entry first
    for hist, new in ((est._y_hist, ys), (est._u_hist, us),
                      (est._uhat_hist, uhat if hold else None),
                      (est._mode_hist, memory if est.arma.p > 1 else None)):
        if new is not None:
            hist[older] = hist[newer]
            hist[newest] = new


def _alg2_step(aug, est, us, ys, force_mode=None):
    """One step of an ``Alg2Estimator`` whose state has lead axes L (none
    online, (T,) for a batch) on inputs ``us`` (L + (r,)) and outputs ``ys``
    (L + (m,)): one candidate prediction from the L + (d,) beliefs, one
    Cholesky scoring of the L + (s,) candidates, one prior, posterior update
    and argmax. As a step generator of ``_bank_step`` it yields each trial's
    decided table row with its belief and signals, then its columns.
    ``force_mode`` replaces the decision. Every product stacks per-trial
    matrix products and every reduction runs along a row, so each trial
    gets, bit for bit, the numbers it gets alone."""
    belief = GaussianBelief._of(est._mean, est._cov)
    yhat, sigma = alg2_predict(aug, belief, est._last_u)
    chol = _cholesky(sigma)
    loglik = _chol_logpdf(ys[..., None, :] - yhat, chol, _log_det_half(chol))
    probs, fallback = mode_posterior_update_log(predict_prior(est._probs, est._P), loglik)
    mode = mode_argmax(probs) if force_mode is None else force_mode

    _, _, mean, cov = yield mode - 1, belief, est._last_u, ys
    yield mode, mean, probs, loglik, fallback

    est._probs, est._mean, est._cov, est._last_u = probs, mean, cov, us


def _imm_step(aug, est, us, ys):
    """One step of an ``ImmEstimator`` whose state has lead axes L (none
    online, (T,) for a batch) on inputs ``us`` (L + (r,)) and outputs ``ys``
    (L + (m,)): one prior, mixing, scoring, posterior update and combination
    over its L + (s,) arrays. As a step generator of ``_bank_step`` it
    yields every table row, the mixed filters and each trial's (u_prev, y)
    with a unit axis that broadcasts over them, then its columns. Every
    product stacks per-trial matrix products and every reduction runs along
    a row, so each trial gets, bit for bit, the numbers it gets alone."""
    trans, mu = est._P, est._probs
    # mixing weights W[..., j, i] = P[i, j] mu_i / prior_j of filter i into
    # filter j; an unreachable target (prior_j = 0) keeps its own state
    prior = predict_prior(mu, trans)
    reach = prior > 0.0
    weights = trans.T * mu[..., None, :] / np.where(reach, prior, 1.0)[..., None]
    weights = np.where(reach[..., None], weights, est._eye)
    mixed = _moment_match(weights, est._means, est._covs)
    y, table_rows = ys[..., None, :], np.arange(prior.shape[-1])

    pred_mean, innov_cov, upd_mean, upd_cov = yield table_rows, mixed, est._last_u[..., None, :], y
    chol = _cholesky(0.5 * (innov_cov + _t(innov_cov)))
    loglik = _chol_logpdf(y - _mv(aug.C, pred_mean), chol, _log_det_half(chol))
    mu, fallback = mode_posterior_update_log(prior, loglik)
    combined = _moment_match(mu[..., None, :], upd_mean, upd_cov)
    state = combined.mean[..., 0, :]
    yield mode_argmax(mu), state, mu, loglik, fallback

    est._means, est._covs, est._probs, est._last_u = upd_mean, upd_cov, mu, us
    est._combined_mean, est._combined_cov = state, combined.cov[..., 0, :, :]


class Alg1Estimator:
    """Loss-mode estimator driven by the plant's input-output recursion.

    Needs only the issued inputs and measured outputs; the posterior update
    uses a constant innovation covariance, so no Kalman filter runs unless a
    state estimate is requested via ``kf_model``.

    Warm-up: signal histories are zero-padded and the mode history starts at
    the all-deliver mode, matching a zero-initialized filter state. The
    reconstructed applied input advances with the newest decided mode right
    after each decision (one step behind the raw recursion, which is the
    causal choice).

    Every step the best candidate's squared Mahalanobis residual is checked
    against a chi-square gate (tail probability ``gate_pvalue``). A gated
    step means the fixed-covariance Gaussian model is inconsistent with the
    data; the posterior falls back to its chain prediction (flagged). The
    hold-strategy memory then re-anchors to the issued inputs, discarding
    reconstructions the data just contradicted; the zero-strategy mode
    memory records the best-fitting candidate.
    """

    key = "alg1"
    _state = ("_probs", "_mean", "_cov", "_y_hist", "_u_hist", "_uhat_hist", "_mode_hist")

    def __init__(
        self,
        arma: ArmaModel,
        strategy: LossStrategy,
        transition,
        prior=None,
        kf_model: AugmentedModel | None = None,
        kf_x0=None,
        kf_P0=None,
        held_cov_floor: float = DEFAULT_HELD_COV_FLOOR,
        gate_pvalue: float | None = DEFAULT_GATE_PVALUE,
    ):
        self.arma = arma
        self.strategy = strategy
        self.space = ModeSpace(arma.r)
        dim = None
        if kf_model is not None:
            if kf_model.strategy is not strategy:
                raise ValueError("kf_model strategy does not match the estimator")
            if (kf_model.space.r, kf_model.plant.m) != (arma.r, arma.m):
                raise ValueError(f"kf_model has r = {kf_model.space.r}, m = {kf_model.plant.m}; "
                                 f"the ARMA model has r = {arma.r}, m = {arma.m}")
            dim = kf_model.state_dim
        self._P, self._probs, self._mean, self._cov = _initial_state(
            transition, prior, self.space.s, held_cov_floor, dim, kf_x0, kf_P0, prefix="kf_")
        self._kf = kf_model
        self._held_cov_floor = held_cov_floor
        self._gate_d2 = (
            math.inf if gate_pvalue is None else _chi2_upper_quantile(arma.m, gate_pvalue)
        )

        chol = _cholesky(alg1_const_sigma(arma))
        self._log_norm = arma.m * LOG_2PI
        self._log_det_half = float(_log_det_half(chol))
        self._white = _t(np.linalg.inv(chol))  # residual rows whiten as diff @ white

        self._y_hist = self._u_hist = None  # (..., n_ar, m) and (..., p, r), set by start()
        self._uhat_hist = np.zeros((max(arma.p, 1), arma.r))
        self._mode_hist = np.full(max(arma.p - 1, 0), self.space.s)

    @property
    def posterior(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def belief(self) -> GaussianBelief | None:
        return None if self._mean is None else GaussianBelief._of(self._mean, self._cov)

    def start(self, u0, y0) -> None:
        """Record the step-0 signals before the first estimation step; the
        histories further back are zero."""
        u0, y0 = _step_signals(self, u0, y0, self.arma.m, entry="start")
        self._y_hist = np.zeros(y0.shape[:-1] + (max(self.arma.n_ar, 1), self.arma.m))
        self._u_hist = np.zeros(u0.shape[:-1] + (max(self.arma.p, 1), self.arma.r))
        self._y_hist[..., 0, :], self._u_hist[..., 0, :] = y0, u0

    def step(self, u, y, force_mode: int | None = None) -> StepResult:
        """Estimate the previous step's mode from the newest output.

        ``u`` is the input issued at the current step (consumed one step
        later), ``y`` the current measurement. ``force_mode`` substitutes an
        externally known mode for the argmax decision (diagnostics).
        """
        if self._u_hist is None:
            raise RuntimeError("call start() with the step-0 signals first")
        u, y = _step_signals(self, u, y, self.arma.m, force_mode)
        return _lone_step(_alg1_step(self._kf, self, u, y, force_mode), self._kf,
                          self._held_cov_floor)


class Alg2Estimator:
    """Joint loss-mode and state estimator on the state-space form.

    Candidate output predictions come from a single Kalman filter's belief,
    and the decided mode selects the system matrices for that filter's next
    cycle, so mode and state estimates are produced together and cannot be
    separated. One estimator holds a batch of trials as (T, ...) state
    (``_alg2_step``); ``step`` runs an online one.
    """

    key = "alg2"
    _state = ("_probs", "_mean", "_cov", "_last_u")

    def __init__(
        self,
        aug: AugmentedModel,
        transition,
        prior=None,
        x0=None,
        P0=None,
        held_cov_floor: float = DEFAULT_HELD_COV_FLOOR,
    ):
        self.aug = aug
        self.space = aug.space
        self._P, self._probs, self._mean, self._cov = _initial_state(
            transition, prior, self.space.s, held_cov_floor, aug.state_dim, x0, P0)
        self._held_cov_floor = held_cov_floor
        self._last_u: np.ndarray | None = None

    @property
    def posterior(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def belief(self) -> GaussianBelief:
        return GaussianBelief._of(self._mean, self._cov)

    def start(self, u0, y0) -> None:
        self._last_u, _ = _step_signals(self, u0, y0, self.aug.plant.m, entry="start")

    def step(self, u, y, force_mode: int | None = None) -> StepResult:
        if self._last_u is None:
            raise RuntimeError("call start() with the step-0 signals first")
        u, y = _step_signals(self, u, y, self.aug.plant.m, force_mode)
        return _lone_step(_alg2_step(self.aug, self, u, y, force_mode), self.aug,
                          self._held_cov_floor)


class ImmEstimator:
    """Interacting-multiple-model baseline over the mode set.

    One Kalman filter per mode, run as one bank (batch axis s). Each cycle
    mixes the filters through the mode chain, runs every filter on the
    newest measurement, reweights the model probabilities by the innovation
    likelihoods, and moment-matches a combined Gaussian. The model
    probabilities stand in for the mode posterior; the state is its mean.
    One IMM holds a batch of trials as (T, ...) state (``_imm_step``);
    ``step`` runs an online one.
    """

    key = "imm"
    _state = ("_probs", "_means", "_covs", "_last_u", "_combined_mean", "_combined_cov")

    def __init__(
        self,
        aug: AugmentedModel,
        transition,
        prior=None,
        x0=None,
        P0=None,
        held_cov_floor: float = DEFAULT_HELD_COV_FLOOR,
    ):
        self.aug = aug
        self.space = aug.space
        s = self.space.s
        self._P, self._probs, mean, cov = _initial_state(
            transition, prior, s, held_cov_floor, aug.state_dim, x0, P0)
        self._held_cov_floor = held_cov_floor
        # the bank's beliefs, row j-1 for mode j
        self._means, self._covs = np.tile(mean, (s, 1)), np.tile(cov, (s, 1, 1))
        self._eye = np.eye(s)
        self._combined_mean = self._combined_cov = None  # set by step()
        self._last_u: np.ndarray | None = None

    @property
    def posterior(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def beliefs(self) -> list[GaussianBelief]:
        return [GaussianBelief(m, c) for m, c in zip(self._means, self._covs)]

    @property
    def combined_belief(self) -> GaussianBelief | None:
        """Moment-matched combination of the filter bank (after a step)."""
        return None if self._combined_mean is None else GaussianBelief._of(
            self._combined_mean, self._combined_cov)

    def start(self, u0, y0) -> None:
        self._last_u, _ = _step_signals(self, u0, y0, self.aug.plant.m, entry="start")

    def step(self, u, y) -> StepResult:
        if self._last_u is None:
            raise RuntimeError("call start() with the step-0 signals first")
        u, y = _step_signals(self, u, y, self.aug.plant.m)
        return _lone_step(_imm_step(self.aug, self, u, y), self.aug, self._held_cov_floor)
