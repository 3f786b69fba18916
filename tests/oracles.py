"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as direct enumeration or direct
recursion, sharing no code path with the implementations under test. The
one exception, :func:`run_one_at_a_time`, steps the package's estimators one
at a time, the reference for stepping them as one bank.
"""

import math

import numpy as np

from ncsmode.filters import (
    DEFAULT_HELD_COV_FLOOR,
    Alg1Estimator,
    Alg2Estimator,
    ImmEstimator,
    NumericalError,
)
from ncsmode.model import LossStrategy, build_augmented, ss_to_arma


def simulate_arma(arma, strategy, space, thetas, u, e):
    """Direct recursion of the input-output model with known modes.

    thetas: (N,) 1-based modes theta_0..theta_{N-1}; u: at least (N, r)
    issued inputs; e: (N+1, m) innovation noise. Zero prehistory. Returns
    outputs y_0..y_N as an (N+1, m) array. The hold strategy evaluates the
    split form: delivered-input terms plus held-input terms, with the true
    applied input maintained by the hold recursion.
    """
    n_steps = len(thetas)
    m, r = arma.m, arma.r
    y = np.zeros((n_steps + 1, m))
    uhat = np.zeros((n_steps, r))
    prev = np.zeros(r)
    for k in range(n_steps):
        alpha = space.decode(int(thetas[k]))
        if strategy is LossStrategy.HOLD:
            uhat[k] = alpha * u[k] + (1.0 - alpha) * prev
        else:
            uhat[k] = alpha * u[k]
        prev = uhat[k]
    for k in range(n_steps + 1):
        acc = np.array(e[k], dtype=float).copy()
        for i in range(1, arma.n_ar + 1):
            if k - i >= 0:
                acc -= arma.a[i - 1] * y[k - i]
        for l in range(1, arma.h + 1):
            if k - l >= 0:
                acc += arma.c[l - 1] * e[k - l]
        for j in range(1, arma.p + 1):
            kk = k - j
            if kk >= 0:
                alpha = space.decode(int(thetas[kk]))
                acc = acc + arma.b[j - 1] @ (alpha * u[kk])
                if strategy is LossStrategy.HOLD:
                    prev_applied = uhat[kk - 1] if kk >= 1 else np.zeros(r)
                    acc = acc + arma.b[j - 1] @ ((1.0 - alpha) * prev_applied)
        y[k] = acc
    return y


def simulate_state_space(aug, thetas, u, v, x0_full):
    """Propagate the mode-parameterized state-space model directly.

    Same signal conventions as :func:`simulate_arma`; v is the measurement
    noise sequence (N+1, m). Returns outputs y_0..y_N.
    """
    n_steps = len(thetas)
    state = np.array(x0_full, dtype=float)
    y = np.zeros((n_steps + 1, aug.C.shape[0]))
    y[0] = aug.C @ state + v[0]
    a_tab, b_tab = aug.mode_tables
    for k in range(n_steps):
        j = int(thetas[k])
        state = a_tab[j - 1] @ state + b_tab[j - 1] @ u[k]
        y[k + 1] = aug.C @ state + v[k + 1]
    return y


def bayes_posterior(post_prev, lik, P):
    """Unfactored Bayes expansion over the joint of two successive modes."""
    post_prev = np.asarray(post_prev, dtype=float)
    lik = np.asarray(lik, dtype=float)
    s = post_prev.shape[0]
    joint = np.zeros((s, s))
    for l in range(s):
        for h in range(s):
            joint[l, h] = post_prev[l] * P[l, h] * lik[h]
    return joint.sum(axis=0) / joint.sum()


def joint_chain_oracle(links, space):
    """Brute-force joint transition matrix from per-link products.

    Factors are multiplied highest link first; float multiplication is not
    associative, so matching the Kronecker accumulation order keeps the
    comparison against the composed matrix exact rather than ulp-close.
    """
    s = space.s
    P = np.zeros((s, s))
    for i in space.modes():
        ai = space.decode(i).astype(int)
        for j in space.modes():
            aj = space.decode(j).astype(int)
            prob = 1.0
            for idx in reversed(range(len(links))):
                prob *= links[idx].P2[ai[idx], aj[idx]]
            P[i - 1, j - 1] = prob
    return P


# ---------------------------------------------------------------------------
# Per-candidate estimator cycles: the package scores every candidate in one
# batched pass; these enumerate the candidates one at a time on 2-D arrays.
# ---------------------------------------------------------------------------

LOG_2PI = math.log(2.0 * math.pi)


def gaussian_loglik(diff, sigma):
    """Log density of N(0, sigma) at diff, through a Cholesky factor."""
    chol = np.linalg.cholesky(sigma)
    z = np.linalg.solve(chol, diff)
    return -0.5 * (diff.shape[0] * LOG_2PI + z @ z) - np.log(np.diag(chol)).sum()


def kalman_cycle(A, B, C, Q, R, mean, cov, u_prev, y):
    """One Kalman cycle: predict with u_prev, then update with y."""
    mean = A @ mean + B @ u_prev
    cov = A @ cov @ A.T + Q
    cov = 0.5 * (cov + cov.T)
    innov_cov = C @ cov @ C.T + R
    gain = np.linalg.solve(innov_cov, C @ cov).T
    mean = mean + gain @ (y - C @ mean)
    cov = cov - gain @ C @ cov
    return mean, 0.5 * (cov + cov.T)


def floor_held(cov, n_phys, floor):
    """Raise each held-input variance (index n_phys and up) to the floor."""
    cov = cov.copy()
    for i in range(n_phys, cov.shape[0]):
        if cov[i, i] < floor:
            cov[i, i] = floor
    return cov


def bayes_decision(post_prev, loglik, P):
    """Posterior and 1-based argmax mode from log-likelihoods, by direct
    enumeration; the chain prior when every weighted candidate is zero."""
    s = len(post_prev)
    prior = np.array([sum(post_prev[l] * P[l, h] for l in range(s)) for h in range(s)])
    with np.errstate(divide="ignore"):
        logw = np.log(prior) + loglik
    if not np.isfinite(logw.max()):
        return prior, int(np.argmax(prior)) + 1
    weights = np.exp(logw - logw.max())
    post = weights / weights.sum()
    return post, int(np.argmax(post)) + 1


def alg1_scores(arma, strategy, space, y, y_hist, u_hist, uhat_hist, mode_hist):
    """alg1 log-likelihoods and Mahalanobis distances, candidate by candidate."""
    sigma = (1.0 + float(np.dot(arma.c, arma.c))) * arma.lam
    chol = np.linalg.cholesky(sigma)
    loglik = np.empty(space.s)
    maha = np.empty(space.s)
    for j in space.modes():
        yhat = np.zeros(arma.m)
        for i in range(arma.n_ar):
            yhat -= arma.a[i] * y_hist[i]
        for lag in range(1, arma.p + 1):
            alpha = space.decode(j if lag == 1 else mode_hist[lag - 2])
            coeff = arma.b[lag - 1]
            yhat += coeff @ (alpha * u_hist[lag - 1])
            if strategy is LossStrategy.HOLD:
                yhat += coeff @ ((1.0 - alpha) * uhat_hist[lag - 1])
        z = np.linalg.solve(chol, y - yhat)
        maha[j - 1] = z @ z
        loglik[j - 1] = gaussian_loglik(y - yhat, sigma)
    return loglik, maha


def alg2_scores(aug, mean, cov, u_prev, y):
    """alg2 log-likelihoods from the filter belief, candidate by candidate."""
    c_mat = aug.C
    a_tab, b_tab = aug.mode_tables
    loglik = np.empty(aug.space.s)
    for j in aug.space.modes():
        ca = c_mat @ a_tab[j - 1]
        yhat = ca @ mean + (c_mat @ b_tab[j - 1]) @ u_prev
        sigma = ca @ cov @ ca.T + c_mat @ aug.Q @ c_mat.T + aug.R
        loglik[j - 1] = gaussian_loglik(y - yhat, 0.5 * (sigma + sigma.T))
    return loglik


def moment_match(weights, means, covs):
    """Mean and covariance of sum_i w_i N(means[i], covs[i]), term by term."""
    mean = np.zeros_like(means[0])
    for w, m in zip(weights, means):
        mean = mean + w * m
    cov = np.zeros_like(covs[0])
    for w, m, c in zip(weights, means, covs):
        diff = m - mean
        cov = cov + w * (c + np.outer(diff, diff))
    return mean, 0.5 * (cov + cov.T)


def imm_cycle(aug, P, mu, means, covs, u_prev, y, floor):
    """One IMM cycle with per-target mixing, one filter per mode and a
    term-by-term combination. An unreachable target mode keeps its own
    belief. Returns (loglik, mu, means, covs, combined mean)."""
    s = len(mu)
    prior = np.array([sum(mu[i] * P[i, j] for i in range(s)) for j in range(s)])
    a_tab, b_tab = aug.mode_tables
    c_mat, q_mat, r_mat = aug.C, aug.Q, aug.R
    loglik = np.empty(s)
    new_means, new_covs = [], []
    for j in range(s):
        if prior[j] > 0.0:
            weights = [P[i, j] * mu[i] / prior[j] for i in range(s)]
        else:
            weights = [float(i == j) for i in range(s)]
        mean, cov = moment_match(weights, means, covs)
        pred_mean = a_tab[j] @ mean + b_tab[j] @ u_prev
        pred_cov = a_tab[j] @ cov @ a_tab[j].T + q_mat
        pred_cov = 0.5 * (pred_cov + pred_cov.T)
        innov_cov = c_mat @ pred_cov @ c_mat.T + r_mat
        loglik[j] = gaussian_loglik(y - c_mat @ pred_mean, 0.5 * (innov_cov + innov_cov.T))
        mean, cov = kalman_cycle(a_tab[j], b_tab[j], c_mat, q_mat, r_mat, mean, cov, u_prev, y)
        new_means.append(mean)
        new_covs.append(floor_held(cov, aug.plant.n, floor))
    post, _ = bayes_decision(mu, loglik, P)
    combined, _ = moment_match(post, new_means, new_covs)
    return loglik, post, new_means, new_covs, combined


# ---------------------------------------------------------------------------
# A trial's estimator loop, one estimator at a time: the package steps the
# selected estimators as one bank with a stacked Kalman cycle.
# ---------------------------------------------------------------------------

def run_one_at_a_time(cfg, names, u, y):
    """Build the selected estimators from the public classes, start each on
    (u_0, y_0), then step them one at a time in selection order, each
    through its own ``step``, up to the first numerical failure.

    Returns the estimators by name, per-name modes, states and fallbacks
    (zero from the failure on, as in a trial record) and None or the
    failure as (step, reason), the reason formatted as a record's
    ``fail_reason``.
    """
    steps, n = u.shape[0] - 1, cfg.plant.n
    floor = DEFAULT_HELD_COV_FLOOR if cfg.held_cov_floor is None else cfg.held_cov_floor
    modes = {name: np.zeros(steps, dtype=int) for name in names}
    states = {name: np.zeros((steps, n)) for name in names}
    fallbacks = {name: np.zeros(steps, dtype=bool) for name in names}
    aug = build_augmented(cfg.plant, cfg.strategy)
    init = dict(prior=cfg.est_prior, x0=cfg.est_x0, P0=cfg.est_P0, held_cov_floor=floor)
    estimators = {}
    try:
        for name in names:
            if name == "alg1":
                arma = cfg.arma if cfg.arma is not None else ss_to_arma(cfg.plant)
                estimators[name] = Alg1Estimator(
                    arma, cfg.strategy, cfg.chain, prior=cfg.est_prior, kf_model=aug,
                    kf_x0=cfg.est_x0, kf_P0=cfg.est_P0, held_cov_floor=floor,
                )
            else:
                cls = Alg2Estimator if name == "alg2" else ImmEstimator
                estimators[name] = cls(aug, cfg.chain, **init)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return estimators, modes, states, fallbacks, (0, str(exc))
    for est in estimators.values():
        est.start(u[0], y[0])
    for k in range(1, steps + 1):
        for name, est in estimators.items():
            try:
                res = est.step(u[k], y[k])
            except (NumericalError, np.linalg.LinAlgError) as exc:
                return estimators, modes, states, fallbacks, (k, f"{name}: {exc}")
            modes[name][k - 1] = res.mode
            states[name][k - 1] = res.state[:n]
            fallbacks[name][k - 1] = res.fallback
    return estimators, modes, states, fallbacks, None
