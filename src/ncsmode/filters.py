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
broadcast over such leading axes. Estimators stepped together form a bank,
and the banks of a batch of trials step in lockstep: one Kalman cycle per
step runs on the stacked rows of all of them, the decided mode of ``alg1``
and of ``alg2`` and the s filters of ``imm`` of every trial, each row with
its trial's input and measurement (``_bank_step``). An estimator's own
``step`` runs the same recursion alone (``_lone_step``).

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

import math
import statistics
from collections import deque
from dataclasses import dataclass

import numpy as np

from .markov import TransitionMatrix, _check_distribution, predict_prior
from .model import (
    ArmaModel,
    AugmentedModel,
    LossStrategy,
    ModeSpace,
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
    "gaussian_logpdf",
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


def kf_update(C, R, belief: GaussianBelief, y) -> GaussianBelief:
    """Measurement update with gain K = P C^T (C P C^T + R)^(-1) (batch axes broadcast)."""
    C = np.asarray(C, dtype=float)
    R = np.asarray(R, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_finite("kf_update inputs", belief.mean, belief.cov, y)
    pred_cov = belief.cov
    c_pred = C @ pred_cov
    innov_cov = c_pred @ _t(C) + R
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


def gaussian_logpdf(y, yhat, sigma) -> float:
    """Log density of N(yhat, sigma) at y, via Cholesky (no explicit inverse)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    sigma = np.asarray(sigma, dtype=float)
    _require_finite("gaussian_logpdf inputs", y, yhat, sigma)
    chol = _cholesky(sigma)
    return float(_chol_logpdf(y - yhat, chol, _log_det_half(chol)))


def mode_posterior_update_log(prior, loglik) -> tuple[np.ndarray, bool]:
    """Recursive posterior update from log-likelihoods.

    ``prior`` is the chain-predicted mode prior (:func:`predict_prior` of
    the previous posterior). Each candidate's likelihood is weighted by it
    and renormalized (max-subtraction in log domain). Returns the updated
    probability vector and a fallback flag: when every weighted candidate
    is exactly zero, a copy of the prior is returned and the step is
    flagged.
    """
    prior = np.asarray(prior, dtype=float)
    loglik = np.asarray(loglik, dtype=float).reshape(-1)
    if np.count_nonzero(np.isnan(loglik)):
        raise NumericalError("NaN log-likelihood")
    if loglik.shape != prior.shape:
        raise ValueError(
            f"{loglik.shape[0]} likelihoods for {prior.shape[0]} modes"
        )
    with np.errstate(divide="ignore"):
        logw = loglik + np.log(prior)
    top = np.maximum.reduce(logw)
    if not math.isfinite(top):
        return prior.copy(), True
    weights = np.exp(logw - top)
    return weights / np.add.reduce(weights), False


def mode_argmax(posterior) -> int:
    """Smallest 1-based mode index attaining the maximum probability."""
    return int(np.asarray(posterior, dtype=float).argmax()) + 1


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
    flags = space.flags
    for lag in range(1, arma.p + 1):
        alpha = flags if lag == 1 else flags[mode_hist[lag - 2] - 1]
        coeff = arma.b[lag - 1]
        yhat += _mv(coeff, alpha * u_hist[lag - 1])
        if hold:
            yhat += _mv(coeff, (1.0 - alpha) * uhat_hist[lag - 1])
    return yhat


def alg2_predict(
    aug: AugmentedModel, belief: GaussianBelief, u_prev
) -> tuple[np.ndarray, np.ndarray]:
    """Output predictions of all s candidates and their covariances.

    Returns (s, m) means and (s, m, m) covariances from the filter belief,
    row j-1 for candidate j:

    yhat_j = C A(j) mean + C B(j) u_prev
    sigma_j = C A(j) P A(j)^T C^T + C Q C^T + R
    """
    u_prev = np.asarray(u_prev, dtype=float)
    ca, cb = aug.output_tables
    yhat = _mv(ca, belief.mean) + _mv(cb, u_prev)
    sigma = ca @ belief.cov @ _t(ca) + aug._output_process_cov + aug.R
    return yhat, 0.5 * (sigma + _t(sigma))


def _moment_match(weights: np.ndarray, bank: GaussianBelief) -> GaussianBelief:
    """Moment-matched Gaussian of the mixture sum_i w_i N(mean_i, cov_i) over
    a stacked bank of s beliefs; each row of weights (..., s) gives one."""
    s, d = bank.mean.shape
    mean = weights @ bank.mean
    diff = bank.mean - mean[..., None, :]
    cov = (weights @ bank.cov.reshape(s, d * d)).reshape(mean.shape + (d,))
    cov += (_t(diff) * weights[..., None, :]) @ diff
    return GaussianBelief._of(mean, 0.5 * (cov + _t(cov)))


def _transition_array(transition, s: int) -> np.ndarray:
    mat = transition.P if isinstance(transition, TransitionMatrix) else np.asarray(transition, dtype=float)
    if mat.shape != (s, s):
        raise ValueError(f"transition matrix shape {mat.shape} does not match {s} modes")
    return mat


def _initial_belief(dim: int, x0, P0) -> GaussianBelief:
    mean = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    cov = np.eye(dim) if P0 is None else np.asarray(P0, dtype=float)
    return GaussianBelief(mean, cov)


def _initial_probs(prior, s: int) -> np.ndarray:
    if prior is None:
        return np.full(s, 1.0 / s)
    probs = np.array(prior, dtype=float).reshape(-1)
    if probs.shape[0] != s:
        raise ValueError(f"prior length {probs.shape[0]} does not match {s} modes")
    _check_distribution(probs, "prior")
    return probs


def _step_signals(key: str, u, y, force_mode=None, s: int = 0):
    """A step's (u, y) as flat float vectors, checked finite; a forced mode
    must name one of the s modes."""
    if force_mode is not None and not 1 <= force_mode <= s:
        raise ValueError(f"force_mode {force_mode} outside 1..{s}")
    u = np.asarray(u, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    _require_finite(f"{key} step inputs", u, y)
    return u, y


def _bank_step(banks, aug, floor, us, ys) -> list[list[StepResult]]:
    """One step of a batch of banks; returns each bank's results in bank order.

    A bank's estimators are started and stepped on the same signals; the
    banks of a batch (one per trial) step on their own signals ``us[b]``,
    ``ys[b]`` and all share one augmented model ``aug`` and held-input floor.
    Each bank's (u, y) is converted and checked once, under its first
    estimator's key. Then every estimator decides, one Kalman cycle runs on
    the stacked mode-table rows they ask for (the decided mode of ``alg1``
    and ``alg2``, the s mixed filters of ``imm``) with each row's own
    previous input and measurement, and every estimator commits. An
    estimator's step is a generator:

    1. up to its first yield it decides, committing nothing, and yields
       ``(rows, belief, u_prev)``: one row (an integer) with a (d,) belief,
       a slice of rows with an (n, d) belief, or no rows (None, for a
       mode-only ``alg1``);
    2. it is sent its rows' predicted belief (None without rows);
    3. it is sent its rows' updated and floored belief, finishes everything
       that can raise and yields its StepResult;
    4. resumed once more, it commits.

    No estimator commits before every one of the batch has reached step 3,
    so a step that raises leaves every bank as it was. An estimator's own
    ``step`` runs the same generator through ``_lone_step`` instead.
    """
    steps, parts, rows, means, covs = [], [], [], [], []
    counts, u_prevs, y_rows = [], [], []
    for bank, u, y in zip(banks, us, ys):
        u, y = _step_signals(bank[0].key, u, y)
        first = len(rows)
        for est in bank:
            step = est._step(u, y, None)
            req_rows, belief, u_prev = next(step)
            steps.append(step)
            if req_rows is None:
                parts.append(None)
                continue
            if isinstance(req_rows, slice):
                parts.append(slice(len(rows), len(rows) + req_rows.stop - req_rows.start))
                rows.extend(range(req_rows.start, req_rows.stop))
                means.append(belief.mean)
                covs.append(belief.cov)
            else:
                parts.append(len(rows))
                rows.append(req_rows)
                means.append(belief.mean[None])
                covs.append(belief.cov[None])
        counts.append(len(rows) - first)
        u_prevs.append(u_prev)  # the bank's shared previous input
        y_rows.append(y)
    pred = upd = None
    if rows:
        stacked = GaussianBelief._of(np.concatenate(means), np.concatenate(covs))
        a_tab, b_tab = aug.mode_tables
        pred = kf_predict(a_tab.take(rows, 0), b_tab.take(rows, 0), aug.Q, stacked,
                          np.repeat(u_prevs, counts, axis=0))
    for step, part in zip(steps, parts):
        step.send(_part(pred, part))
    if rows:
        upd = kf_update(aug.C, aug.R, pred, np.repeat(y_rows, counts, axis=0))
        upd = floor_held_cov(upd, aug.plant.n, floor)
    results = iter([step.send(_part(upd, part)) for step, part in zip(steps, parts)])
    for step in steps:
        next(step, None)
    return [[next(results) for _ in bank] for bank in banks]


def _part(belief: GaussianBelief | None, part) -> GaussianBelief | None:
    """One estimator's rows (views) of a stacked belief."""
    return None if part is None else GaussianBelief._of(belief.mean[part], belief.cov[part])


def _lone_step(est, aug, u, y, force_mode=None) -> StepResult:
    """An estimator's own step: its Kalman cycle runs on its own arrays,
    with its rows of the mode tables picked as views; nothing is stacked.
    ``force_mode`` replaces the argmax decision of ``alg1`` and ``alg2``."""
    u, y = _step_signals(est.key, u, y, force_mode, est.space.s)
    step = est._step(u, y, force_mode)
    rows, belief, u_prev = next(step)
    pred = upd = None
    if rows is not None:
        a_tab, b_tab = aug.mode_tables
        pred = kf_predict(a_tab[rows], b_tab[rows], aug.Q, belief, u_prev)
    step.send(pred)
    if rows is not None:
        upd = floor_held_cov(kf_update(aug.C, aug.R, pred, y), aug.plant.n, est._held_cov_floor)
    result = step.send(upd)
    next(step, None)
    return result


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
        self._P = _transition_array(transition, self.space.s)
        self._probs = _initial_probs(prior, self.space.s)
        self._held_cov_floor = held_cov_floor
        self._gate_d2 = (
            math.inf if gate_pvalue is None else _chi2_upper_quantile(arma.m, gate_pvalue)
        )

        self._chol = _cholesky(alg1_const_sigma(arma))
        self._log_det_half = float(_log_det_half(self._chol))

        n, p, m, r = arma.n_ar, arma.p, arma.m, arma.r
        self._y_hist: deque = deque([np.zeros(m)] * n, maxlen=max(n, 1))
        self._u_hist: deque = deque([np.zeros(r)] * p, maxlen=max(p, 1))
        self._uhat_hist: deque = deque([np.zeros(r)] * p, maxlen=max(p, 1))
        self._mode_hist: deque = deque([self.space.s] * (p - 1), maxlen=max(p - 1, 1))

        self._kf = kf_model
        self._belief: GaussianBelief | None = None
        if kf_model is not None:
            if kf_model.strategy is not strategy:
                raise ValueError("kf_model strategy does not match the estimator")
            self._belief = _initial_belief(kf_model.state_dim, kf_x0, kf_P0)

    @property
    def posterior(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def belief(self) -> GaussianBelief | None:
        return self._belief

    def start(self, u0, y0) -> None:
        """Record the step-0 signals before the first estimation step."""
        self._u_hist.appendleft(np.asarray(u0, dtype=float).reshape(-1))
        self._y_hist.appendleft(np.asarray(y0, dtype=float).reshape(-1))

    def step(self, u, y, force_mode: int | None = None) -> StepResult:
        """Estimate the previous step's mode from the newest output.

        ``u`` is the input issued at the current step (consumed one step
        later), ``y`` the current measurement. ``force_mode`` substitutes an
        externally known mode for the argmax decision (diagnostics).
        """
        return _lone_step(self, self._kf, u, y, force_mode)

    def _step(self, u, y, force_mode):
        """This estimator's part of a bank step (see ``_bank_step``)."""
        yhat = alg1_predict_output(
            self.arma, self.strategy, self.space,
            self._y_hist, self._u_hist, self._uhat_hist, self._mode_hist,
        )
        loglik = _chol_logpdf(y - yhat, self._chol, self._log_det_half)

        best_d2 = -2.0 * (np.maximum.reduce(loglik) + self._log_det_half) - self.arma.m * LOG_2PI
        gated = best_d2 > self._gate_d2
        prior = predict_prior(self._probs, self._P)
        if gated:
            probs, fallback = prior, True
        else:
            probs, fallback = mode_posterior_update_log(prior, loglik)
        mode = mode_argmax(probs) if force_mode is None else force_mode

        # memory entries: the decided mode normally. On a fallback step the
        # hold strategy re-anchors to the all-deliver mode, whose signals
        # (the issued inputs) are known exactly; a gated zero-strategy step
        # keeps the best-fitting candidate instead, since an anchor that is
        # wrong (all-deliver is rare with several links) makes the next
        # prediction wrong and the gate fire again
        hold = self.strategy is LossStrategy.HOLD
        if not fallback:
            memory_mode = mode
        elif gated and not hold:
            memory_mode = int(loglik.argmax()) + 1
        else:
            memory_mode = self.space.s
        if hold:
            if fallback:
                uhat = self._u_hist[0].copy()
            else:
                alpha = self.space.flags[memory_mode - 1]
                uhat = alpha * self._u_hist[0] + (1.0 - alpha) * self._uhat_hist[0]

        yield (None if self._kf is None else mode - 1), self._belief, self._u_hist[0]
        belief = yield
        yield StepResult(
            mode, None if belief is None else belief.mean, probs.copy(), loglik, fallback
        )

        self._probs = probs
        if hold:
            self._uhat_hist.appendleft(uhat)
        if self.arma.p > 1:
            self._mode_hist.appendleft(memory_mode)
        if belief is not None:
            self._belief = belief
        self._y_hist.appendleft(y)
        self._u_hist.appendleft(u)


class Alg2Estimator:
    """Joint loss-mode and state estimator on the state-space form.

    Candidate output predictions come from a single Kalman filter's belief,
    and the decided mode selects the system matrices for that filter's next
    cycle, so mode and state estimates are produced together and cannot be
    separated.
    """

    key = "alg2"

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
        self._P = _transition_array(transition, self.space.s)
        self._probs = _initial_probs(prior, self.space.s)
        self._held_cov_floor = held_cov_floor
        self._belief = _initial_belief(aug.state_dim, x0, P0)
        self._last_u: np.ndarray | None = None

    @property
    def posterior(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def belief(self) -> GaussianBelief:
        return self._belief

    def start(self, u0, y0) -> None:
        self._last_u = np.asarray(u0, dtype=float).reshape(-1)

    def step(self, u, y, force_mode: int | None = None) -> StepResult:
        if self._last_u is None:
            raise RuntimeError("call start() with the step-0 signals first")
        return _lone_step(self, self.aug, u, y, force_mode)

    def _step(self, u, y, force_mode):
        """This estimator's part of a bank step (see ``_bank_step``)."""
        yhat, sigma = alg2_predict(self.aug, self._belief, self._last_u)
        chol = _cholesky(sigma)
        loglik = _chol_logpdf(y - yhat, chol, _log_det_half(chol))

        prior = predict_prior(self._probs, self._P)
        probs, fallback = mode_posterior_update_log(prior, loglik)
        mode = mode_argmax(probs) if force_mode is None else force_mode

        yield mode - 1, self._belief, self._last_u
        belief = yield
        yield StepResult(mode, belief.mean, probs.copy(), loglik, fallback)

        self._probs, self._belief, self._last_u = probs, belief, u


class ImmEstimator:
    """Interacting-multiple-model baseline over the mode set.

    One Kalman filter per mode, run as one bank (batch axis s). Each cycle
    mixes the filters through the mode chain, runs every filter on the
    newest measurement, reweights the model probabilities by the innovation
    likelihoods, and moment-matches a combined Gaussian. The model
    probabilities stand in for the mode posterior; the state is its mean.
    """

    key = "imm"

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
        self._P = _transition_array(transition, self.space.s)
        self._mu = _initial_probs(prior, self.space.s)
        self._held_cov_floor = held_cov_floor
        init, s = _initial_belief(aug.state_dim, x0, P0), self.space.s
        self._bank = GaussianBelief(np.tile(init.mean, (s, 1)), np.tile(init.cov, (s, 1, 1)))
        self._eye = np.eye(s)
        self._combined: GaussianBelief | None = None
        self._last_u: np.ndarray | None = None

    @property
    def posterior(self) -> np.ndarray:
        return self._mu.copy()

    @property
    def beliefs(self) -> list[GaussianBelief]:
        return [GaussianBelief(m, c) for m, c in zip(self._bank.mean, self._bank.cov)]

    @property
    def combined_belief(self) -> GaussianBelief | None:
        """Moment-matched combination of the filter bank (after a step)."""
        return self._combined

    def start(self, u0, y0) -> None:
        self._last_u = np.asarray(u0, dtype=float).reshape(-1)

    def step(self, u, y) -> StepResult:
        if self._last_u is None:
            raise RuntimeError("call start() with the step-0 signals first")
        return _lone_step(self, self.aug, u, y)

    def _step(self, u, y, force_mode):
        """This estimator's part of a bank step (see ``_bank_step``); IMM
        takes no forced mode, so ``force_mode`` is ignored."""
        # mixing weights W[j, i] = P[i, j] mu_i / prior_j of filter i into
        # filter j; an unreachable target (prior_j = 0) keeps its own state
        prior = predict_prior(self._mu, self._P)
        reach = prior > 0.0
        weights = self._P.T * self._mu / np.where(reach, prior, 1.0)[:, None]
        weights = np.where(reach[:, None], weights, self._eye)
        mixed = _moment_match(weights, self._bank)

        pred = yield slice(0, self.space.s), mixed, self._last_u
        c_mat = self.aug.C
        innov_cov = c_mat @ pred.cov @ c_mat.T + self.aug.R
        chol = _cholesky(0.5 * (innov_cov + _t(innov_cov)))
        loglik = _chol_logpdf(y - _mv(c_mat, pred.mean), chol, _log_det_half(chol))

        bank = yield
        mu, fallback = mode_posterior_update_log(prior, loglik)
        combined = _moment_match(mu, bank)
        yield StepResult(mode_argmax(mu), combined.mean, mu.copy(), loglik, fallback)

        self._bank, self._mu, self._combined, self._last_u = bank, mu, combined, u
