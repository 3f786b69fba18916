import dataclasses
import math
import re

import numpy as np
import pytest

from ncsmode.filters import (
    DEFAULT_GATE_PVALUE,
    DEFAULT_HELD_COV_FLOOR,
    Alg1Estimator,
    Alg2Estimator,
    GaussianBelief,
    ImmEstimator,
    NumericalError,
    _chi2_upper_quantile,
    _chol_logpdf,
    _cholesky,
    _log_det_half,
    alg1_const_sigma,
    alg1_predict_output,
    alg2_predict,
    floor_held_cov,
    kf_predict,
    kf_update,
    mode_argmax,
    mode_posterior_update_log,
)
from ncsmode.markov import (
    LinkChain,
    TransitionMatrix,
    kron_compose,
    predict_prior,
    stationary_distribution,
)
from ncsmode.metrics import mde_percent
from ncsmode.model import (
    ArmaModel,
    LossStrategy,
    ModeSpace,
    PlantModel,
    build_augmented,
    ss_to_arma,
)
from ncsmode.sim import TrialConfig, run_monte_carlo, simulate_trial
from oracles import (
    alg1_scores,
    alg2_scores,
    bayes_decision,
    bayes_posterior,
    floor_held,
    imm_cycle,
    kalman_cycle,
    simulate_state_space,
)

from conftest import BENCHMARK_TRANSITION, CSTR_LINK


# ---------------------------------------------------------------------------
# Kalman filter core
# ---------------------------------------------------------------------------

def test_kf_step_scalar_hand_computed():
    belief = GaussianBelief([0.0], [[1.0]])
    out = kf_update([[1.0]], [[1.0]], kf_predict([[1.0]], [[0.0]], [[0.0]], belief, [0.0]), [2.0])
    assert out.mean == pytest.approx([1.0])
    assert out.cov[0, 0] == pytest.approx(0.5)


def test_kf_step_perfect_measurement_limit():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3)) * 0.3
    belief = GaussianBelief(rng.normal(size=3), np.eye(3))
    y = rng.normal(size=3)
    out = kf_update(np.eye(3), 1e-12 * np.eye(3),
                    kf_predict(A, np.zeros((3, 1)), np.zeros((3, 3)), belief, [0.0]), y)
    assert np.max(np.abs(out.mean - y)) < 1e-5


def test_kf_step_known_mode_tracking(cstr_plant, cstr_chain):
    """Driving the filter with the true mode keeps the error below the
    measurement noise level."""
    from ncsmode.markov import sample_next

    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    a_tab, b_tab = aug.mode_tables
    rng = np.random.default_rng(11)
    state = aug.initial_state([1.0, 1.0], [1.0, 1.0])
    belief = GaussianBelief(state.copy(), 0.1 * np.eye(4))
    theta = 4
    errs = []
    chol_r = np.linalg.cholesky(cstr_plant.R)
    for _ in range(100):
        u = rng.normal(scale=10.0, size=2)
        state = a_tab[theta - 1] @ state + b_tab[theta - 1] @ u
        y = aug.C @ state + chol_r @ rng.standard_normal(2)
        belief = kf_update(aug.C, aug.R,
                           kf_predict(a_tab[theta - 1], b_tab[theta - 1], aug.Q, belief, u), y)
        belief.validate()
        errs.append(state[:2] - belief.mean[:2])
        theta = sample_next(cstr_chain, theta, rng)
    rmse = np.sqrt(np.mean(np.square(errs)))
    assert rmse < math.sqrt(2.5e-3)


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_kf_rejects_non_finite():
    belief = GaussianBelief([0.0], [[1.0]])
    with pytest.raises(NumericalError, match=_exactly("non-finite values in kf_update inputs")):
        kf_update([[1.0]], [[1.0]], kf_predict([[1.0]], [[0.0]], [[0.0]], belief, [0.0]), [np.nan])


def _alg2_with_zero_noise_and_certain_state():
    """Every candidate's output covariance is exactly zero."""
    plant = PlantModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[0.0]])
    aug = build_augmented(plant, LossStrategy.ZERO)
    est = Alg2Estimator(aug, TransitionMatrix([[0.5, 0.5]] * 2), x0=[0.0], P0=[[0.0]])
    est.start([1.0], [0.0])
    return est


@pytest.mark.parametrize(
    "fail, error, message",
    [
        (lambda: kf_predict([[1.0]], [[0.0]], [[0.0]], GaussianBelief([np.inf], [[1.0]]), [0.0]),
         NumericalError, "non-finite values in kf_predict inputs"),
        (lambda: kf_update([[0.0]], [[0.0]], GaussianBelief([0.0], [[1.0]]), [1.0]),
         NumericalError, "innovation covariance is singular"),
        (lambda: _alg2_with_zero_noise_and_certain_state().step([1.0], [0.5]),
         NumericalError, "covariance is not positive definite"),
        (lambda: mode_posterior_update_log([0.5, 0.5], [0.0, np.nan]),
         NumericalError, "NaN log-likelihood"),
        (lambda: GaussianBelief(np.zeros(2), np.eye(3)),
         ValueError, "covariance shape (3, 3) does not match mean shape (2,)"),
    ],
    ids=["kf_predict-non-finite-belief", "kf_update-singular-innovation",
         "alg2-non-pd-candidate", "nan-loglik", "mis-shaped-belief"],
)
def test_failure_contract(fail, error, message):
    """The exception type and exact message of each numerical failure (trial
    records carry the message as their fail_reason), and of a mis-shaped
    belief built by a caller."""
    with pytest.raises(error, match=_exactly(message)):
        fail()


# ---------------------------------------------------------------------------
# Gaussian densities
# ---------------------------------------------------------------------------

def _logpdf(diff, sigma) -> float:
    """Log density of a residual under N(0, sigma), through the Cholesky
    kernels the estimators score candidates with."""
    chol = _cholesky(np.asarray(sigma, dtype=float))
    return float(_chol_logpdf(np.asarray(diff, dtype=float), chol, _log_det_half(chol)))


def test_gaussian_pdf_values():
    """The log density equals the log of the closed-form density."""
    assert _logpdf([0.0], [[1.0]]) == pytest.approx(math.log(1 / math.sqrt(2 * math.pi)))
    assert _logpdf([0.0, 0.0], np.eye(2)) == pytest.approx(math.log(1 / (2 * math.pi)))
    expected = math.exp(-0.5) / math.sqrt(8 * math.pi)
    assert _logpdf([2.0], [[4.0]]) == pytest.approx(math.log(expected))
    assert expected == pytest.approx(0.12099, abs=1e-5)


def test_gaussian_logpdf_consistent_with_pdf():
    """The Cholesky log density equals the log of the density written with
    an explicit inverse and determinant."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        y = rng.normal(size=2)
        sigma = rng.normal(size=(2, 2))
        sigma = sigma @ sigma.T + 0.5 * np.eye(2)
        pdf = math.exp(-0.5 * y @ np.linalg.inv(sigma) @ y) / (
            2 * math.pi * math.sqrt(np.linalg.det(sigma)))
        assert _logpdf(y, sigma) == pytest.approx(math.log(pdf))


def test_gaussian_pdf_singular_sigma_errors():
    with pytest.raises(NumericalError, match=_exactly("covariance is not positive definite")):
        _logpdf([0.0, 0.0], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Posterior recursion
# ---------------------------------------------------------------------------

def _update(post, lik, chain):
    """The posterior update of post by the likelihoods lik through chain."""
    with np.errstate(divide="ignore"):
        return mode_posterior_update_log(predict_prior(post, chain), np.log(lik))


def test_posterior_update_equal_likelihoods(cstr_chain):
    post = np.array([0.4, 0.3, 0.2, 0.1])
    out, fallback = _update(post, np.ones(4), cstr_chain)
    assert not fallback
    assert np.allclose(out, predict_prior(post, cstr_chain), atol=1e-15)


def test_posterior_update_single_mode():
    out, fallback = _update([1.0], [0.3], TransitionMatrix([[1.0]]))
    assert not fallback
    assert out == pytest.approx([1.0])


def test_posterior_update_matches_bayes_oracle():
    rng = np.random.default_rng(2718)
    for trial in range(1000):
        s = int(rng.choice([1, 2, 3, 4, 8]))
        post = rng.random(s) + 1e-6
        post /= post.sum()
        lik = np.exp(rng.normal(scale=3.0, size=s))
        if trial % 7 == 0 and s > 1:
            lik[rng.integers(s)] = 0.0
        P = rng.random((s, s)) + 1e-6
        P /= P.sum(axis=1, keepdims=True)
        P = TransitionMatrix(P)
        out, fallback = _update(post, lik, P)
        assert not fallback
        expected = bayes_posterior(post, lik, P.P)
        assert np.max(np.abs(out - expected)) < 1e-12


def test_posterior_update_scale_invariance(cstr_chain):
    rng = np.random.default_rng(77)
    for scale in (1e-8, 1.0, 7.0, 1e8):
        post = rng.random(4)
        post /= post.sum()
        lik = np.exp(rng.normal(size=4))
        base, fb0 = _update(post, lik, cstr_chain)
        scaled, fb1 = _update(post, scale * lik, cstr_chain)
        assert not fb0 and not fb1
        assert np.max(np.abs(base - scaled)) < 1e-12
        assert mode_argmax(base) == mode_argmax(scaled)


def test_posterior_update_all_zero_fallback(cstr_chain):
    post = np.array([0.7, 0.1, 0.1, 0.1])
    out, fallback = _update(post, np.zeros(4), cstr_chain)
    assert fallback
    assert np.allclose(out, predict_prior(post, cstr_chain), atol=1e-15)


@pytest.mark.parametrize("s", [2, 4, 16])
def test_posterior_recursion_on_a_stack_equals_row_by_row(s):
    """predict_prior, mode_posterior_update_log and mode_argmax on a (T, s)
    stack give, row for row and bit for bit, what each row gives alone: with
    a mode of prior zero in every row, a point-mass row, a row whose
    weighted likelihoods are all zero and one where only the zero-prior
    mode has any (both fall back to the prior, flagged in those rows only)."""
    rng = np.random.default_rng(s)
    P = rng.random((s, s))
    P[:, 0] = 0.0  # mode 1 is never entered
    chain = TransitionMatrix(P / P.sum(axis=1, keepdims=True))
    post = rng.random((6, s))
    post /= post.sum(axis=1, keepdims=True)
    post[1] = np.eye(s)[s - 1]
    loglik = rng.normal(scale=30.0, size=(6, s)) - 700.0
    loglik[2] = -np.inf
    loglik[3, 1:] = -np.inf

    prior = predict_prior(post, chain)
    probs, fallback = mode_posterior_update_log(prior, loglik)
    modes = mode_argmax(probs)
    assert prior.shape == probs.shape == (6, s) and np.all(prior[:, 0] == 0.0)
    assert fallback.dtype == bool and fallback.tolist() == [False, False, True, True, False, False]
    assert modes.shape == (6,)
    for t in range(6):
        assert np.array_equal(prior[t], predict_prior(post[t], chain))
        row_probs, row_fallback = mode_posterior_update_log(prior[t], loglik[t])
        assert np.array_equal(probs[t], row_probs)
        assert row_fallback is bool(fallback[t])
        assert modes[t] == mode_argmax(probs[t])
    assert np.array_equal(probs[2:4], prior[2:4])
    ties = np.zeros((2, s))
    ties[0, :2] = ties[1, -2:] = 0.5
    assert mode_argmax(ties).tolist() == [1, s - 1]


@pytest.mark.parametrize("stacked", [False, True], ids=["one-row", "stack"])
def test_posterior_update_tells_nan_from_infinite_likelihoods(stacked):
    """A NaN log-likelihood raises, whatever the prior and even beside a
    length mismatch; a +inf one is a fallback (the prior, flagged), at a
    positive prior and at a zero prior, where it meets log 0 as NaN."""
    prior = np.array([0.0, 0.2, 0.3, 0.5])

    def update(p, loglik):
        p, loglik = np.asarray(p, dtype=float), np.asarray(loglik, dtype=float)
        if stacked:
            p, loglik = np.stack([p, np.full(4, 0.25)]), np.stack([loglik, np.zeros(4)])
        with np.errstate(invalid="ignore"):
            probs, fallback = mode_posterior_update_log(p, loglik)
        return (probs[0], fallback[0]) if stacked else (probs, fallback)

    for p in (prior, np.full(4, 0.25)):
        with pytest.raises(NumericalError, match="NaN log-likelihood"):
            update(p, [0.0, np.nan, 1.0, 2.0])
    with pytest.raises(NumericalError, match="NaN log-likelihood"):
        mode_posterior_update_log(np.full(4, 0.25), [0.0, np.nan, 1.0])
    for p, inf_at in ((prior, 0), (prior, 2), (np.full(4, 0.25), 1)):
        loglik = np.zeros(4)
        loglik[inf_at] = np.inf
        probs, fallback = update(p, loglik)
        assert fallback and np.array_equal(probs, p)
    probs, fallback = update(prior, [-np.inf, 0.0, -1.0, -np.inf])
    assert not fallback and probs[0] == probs[3] == 0.0


def test_posterior_update_log_domain_survives_extreme_values(cstr_chain):
    loglik = np.array([-50000.0, -50001.0, -50010.0, -50100.0])
    probs, fallback = mode_posterior_update_log(predict_prior(np.full(4, 0.25), cstr_chain), loglik)
    assert not fallback
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert mode_argmax(probs) == 1


def test_mode_posterior_type_validation():
    """An estimator's initial prior must be a probability vector."""
    plant = PlantModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[0.1]])
    aug = build_augmented(plant, LossStrategy.ZERO)
    chain = TransitionMatrix([[0.5, 0.5]] * 2)
    for cls in (Alg2Estimator, ImmEstimator):
        with pytest.raises(ValueError, match="prior sums to 0.9"):
            cls(aug, chain, prior=[0.5, 0.4])
        with pytest.raises(ValueError, match="prior has negative entries"):
            cls(aug, chain, prior=[1.2, -0.2])
    with pytest.raises(ValueError, match="prior sums to"):
        Alg1Estimator(ss_to_arma(plant), LossStrategy.ZERO, chain, prior=[0.5, 0.4])


def test_mode_argmax_tie_breaks():
    assert mode_argmax([0.1, 0.7, 0.1, 0.1]) == 2
    assert mode_argmax([0.25, 0.25, 0.25, 0.25]) == 1
    assert mode_argmax([0.5, 0.5, 0.0, 0.0]) == 1


# ---------------------------------------------------------------------------
# Candidate output predictions
# ---------------------------------------------------------------------------

def test_alg1_const_sigma_values(cstr_plant):
    no_ma = ArmaModel(a=[0.5], b=np.ones((1, 2, 1)), c=[], lam=np.eye(2))
    assert np.array_equal(alg1_const_sigma(no_ma), np.eye(2))

    scalar = ArmaModel(a=[0.5], b=np.ones((1, 1, 1)), c=[1.0], lam=[[2.0]])
    assert np.allclose(alg1_const_sigma(scalar), [[4.0]])

    arma = ss_to_arma(cstr_plant)
    sigma = alg1_const_sigma(arma)
    assert np.allclose(sigma, 9.1038e-3 * np.eye(2), atol=2e-6)
    assert np.array_equal(sigma, (1.0 + np.dot(arma.c, arma.c)) * arma.lam)


def test_alg1_predict_zero_history(cstr_plant):
    arma = ss_to_arma(cstr_plant)
    space = ModeSpace(2)
    zeros2 = [np.zeros(2)] * 2
    out = alg1_predict_output(
        arma, LossStrategy.HOLD, space, zeros2, zeros2, zeros2, [space.s]
    )
    assert np.array_equal(out, np.zeros((space.s, 2)))


def test_alg1_predict_scalar_hand_computed():
    arma = ArmaModel(a=[-0.5], b=[[[1.0]]], c=[-0.5], lam=[[1.0]])
    space = ModeSpace(1)
    y_hist = [np.array([2.0])]
    u_hist = [np.array([3.0])]
    uhat_hist = [np.zeros(1)]
    deliver = space.encode([1])
    loss = space.encode([0])
    out = alg1_predict_output(
        arma, LossStrategy.ZERO, space, y_hist, u_hist, uhat_hist, []
    )
    assert out.shape == (2, 1)
    assert out[deliver - 1] == pytest.approx([4.0])
    assert out[loss - 1] == pytest.approx([1.0])


@pytest.mark.parametrize("strategy", [LossStrategy.ZERO, LossStrategy.HOLD])
def test_alg1_predict_matches_noise_free_truth(cstr_plant, cstr_chain, strategy):
    """Fed the true mode and true history, the candidate prediction equals
    the simulated output exactly in the noise-free case."""
    arma = ss_to_arma(cstr_plant)
    aug = build_augmented(cstr_plant, strategy)
    space = aug.space
    rng = np.random.default_rng(21)
    steps = 60
    thetas = rng.integers(1, 5, size=steps)
    u = rng.normal(scale=10.0, size=(steps, 2))
    y = simulate_state_space(aug, thetas, u, np.zeros((steps + 1, 2)),
                             np.zeros(aug.state_dim))

    est = Alg1Estimator(arma, strategy, cstr_chain)
    est.start(u[0], y[0])
    for k in range(1, steps):
        yhat = alg1_predict_output(
            arma, strategy, space,
            est._y_hist, est._u_hist, est._uhat_hist, est._mode_hist,
        )
        assert np.max(np.abs(yhat[thetas[k - 1] - 1] - y[k])) < 1e-9
        est.step(u[k], y[k], force_mode=int(thetas[k - 1]))


def test_alg2_predict_examples(cstr_plant):
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    belief = GaussianBelief(np.zeros(4), np.zeros((4, 4)))
    yhat, sigma = alg2_predict(aug, belief, np.zeros(2))
    assert np.array_equal(sigma, np.broadcast_to(cstr_plant.R, (4, 2, 2)))
    assert np.array_equal(yhat, np.zeros((4, 2)))

    scalar_plant = PlantModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[0.5]])
    scalar_aug = build_augmented(scalar_plant, LossStrategy.ZERO)
    belief = GaussianBelief([0.0], [[2.0]])
    _, sigma = alg2_predict(scalar_aug, belief, [0.0])
    assert np.allclose(sigma, [[[3.5]], [[3.5]]])


# ---------------------------------------------------------------------------
# Step operations and reductions
# ---------------------------------------------------------------------------

def _r0_plant():
    return PlantModel(
        A=[[0.9, 0.05], [0.0, 0.8]],
        B=np.zeros((2, 0)),
        C=np.eye(2),
        Q=np.zeros((2, 2)),
        R=0.1 * np.eye(2),
    )


def test_alg1_single_mode_reduces_to_plain_kalman():
    plant = _r0_plant()
    arma = ss_to_arma(plant)
    chain = TransitionMatrix([[1.0]])
    aug = build_augmented(plant, LossStrategy.ZERO)
    x0 = np.array([1.0, -1.0])
    P0 = 0.5 * np.eye(2)
    est = Alg1Estimator(arma, LossStrategy.ZERO, chain, kf_model=aug,
                        kf_x0=x0, kf_P0=P0)
    belief = GaussianBelief(x0.copy(), P0.copy())
    rng = np.random.default_rng(17)
    empty = np.zeros(0)
    est.start(empty, np.array([1.0, -1.0]))
    for _ in range(30):
        y = rng.normal(size=2)
        res = est.step(empty, y)
        belief = kf_update(plant.C, plant.R,
                           kf_predict(plant.A, plant.B, plant.Q, belief, empty), y)
        assert res.mode == 1
        assert np.array_equal(res.posterior, [1.0])
        assert np.array_equal(res.state, belief.mean)


def test_alg2_single_mode_byte_identical_to_kf():
    plant = _r0_plant()
    chain = TransitionMatrix([[1.0]])
    aug = build_augmented(plant, LossStrategy.ZERO)
    x0 = np.zeros(2)
    P0 = np.eye(2)
    est = Alg2Estimator(aug, chain, x0=x0, P0=P0)
    belief = GaussianBelief(x0.copy(), P0.copy())
    rng = np.random.default_rng(18)
    empty = np.zeros(0)
    est.start(empty, np.zeros(2))
    for _ in range(30):
        y = rng.normal(size=2)
        res = est.step(empty, y)
        belief = kf_update(plant.C, plant.R,
                           kf_predict(plant.A, plant.B, plant.Q, belief, empty), y)
        assert res.mode == 1
        assert np.array_equal(res.state, belief.mean)
        assert np.array_equal(est.belief.cov, belief.cov)


def test_alg2_known_mode_consistency(cstr_plant, cstr_chain):
    """With the decision forced to the true mode, the internal filter is
    exactly the Kalman filter run on the true mode sequence."""
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    a_tab, b_tab = aug.mode_tables
    rng = np.random.default_rng(40)
    steps = 40
    thetas = rng.integers(1, 5, size=steps)
    u = rng.normal(scale=10.0, size=(steps + 1, 2))
    v = 0.05 * rng.standard_normal((steps + 1, 2))
    y = simulate_state_space(aug, thetas, u, v, aug.initial_state([1, 1], [1, 1]))

    est = Alg2Estimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4),
                        held_cov_floor=0.0)
    belief = GaussianBelief(np.zeros(4), 0.1 * np.eye(4))
    est.start(u[0], y[0])
    for k in range(1, steps + 1):
        j = int(thetas[k - 1])
        res = est.step(u[k], y[k], force_mode=j)
        belief = kf_update(aug.C, aug.R,
                           kf_predict(a_tab[j - 1], b_tab[j - 1], aug.Q, belief, u[k - 1]), y[k])
        assert np.array_equal(res.state, belief.mean)
        assert np.array_equal(est.belief.cov, belief.cov)


def test_alg2_forced_step_equals_the_per_trial_recursion(cstr_plant, cstr_chain):
    """An online alg2 step with ``force_mode=j`` gives, bit for bit, what the
    per-trial alg2 step gave before the steps of a batch were stacked: the
    likelihoods, posterior and fallback of its own recursion, mode j, and
    the Kalman cycle on mode j's matrices, here written out from the public
    kernels; the forced modes are wrong on every third step. The same
    numbers agree with the candidate-by-candidate oracles."""
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    a_tab, b_tab = aug.mode_tables
    rng = np.random.default_rng(41)
    steps = 30
    thetas = rng.integers(1, 5, size=steps)
    u = rng.normal(scale=10.0, size=(steps + 1, 2))
    v = 0.05 * rng.standard_normal((steps + 1, 2))
    y = simulate_state_space(aug, thetas, u, v, aug.initial_state([1, 1], [1, 1]))

    est = Alg2Estimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4))
    probs, belief = np.full(4, 0.25), GaussianBelief(np.zeros(4), 0.1 * np.eye(4))
    est.start(u[0], y[0])
    for k in range(1, steps + 1):
        j = int(thetas[k - 1]) if k % 3 else 5 - int(thetas[k - 1])
        res = est.step(u[k], y[k], force_mode=j)

        yhat, sigma = alg2_predict(aug, belief, u[k - 1])
        chol = _cholesky(sigma)
        loglik = _chol_logpdf(y[k] - yhat, chol, _log_det_half(chol))
        expected = alg2_scores(aug, belief.mean, belief.cov, u[k - 1], y[k])
        assert np.allclose(loglik, expected, rtol=1e-9, atol=1e-9)
        probs, fallback = mode_posterior_update_log(predict_prior(probs, cstr_chain), loglik)
        pred = kf_predict(a_tab[j - 1], b_tab[j - 1], aug.Q, belief, u[k - 1])
        belief = floor_held_cov(kf_update(aug.C, aug.R, pred, y[k]), 2, DEFAULT_HELD_COV_FLOOR)

        assert res.mode == j and type(res.mode) is int
        assert res.fallback is fallback
        for got, want in ((res.loglik, loglik), (res.posterior, probs), (res.state, belief.mean),
                          (est.posterior, probs), (est.belief.mean, belief.mean),
                          (est.belief.cov, belief.cov)):
            assert np.array_equal(got, want), k


@pytest.mark.parametrize("force_mode", [0, 5])
def test_force_mode_outside_the_modes_rejected(cstr_plant, cstr_chain, force_mode):
    """Mode 0 would index the last mode's matrices and mode s + 1 none."""
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    bank = [
        Alg1Estimator(ss_to_arma(cstr_plant), LossStrategy.HOLD, cstr_chain, kf_model=aug,
                      kf_x0=np.zeros(4), kf_P0=0.1 * np.eye(4)),
        Alg2Estimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4)),
    ]
    for est in bank:
        est.start(np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match=f"force_mode {force_mode} outside 1..4"):
            est.step(np.ones(2), np.ones(2), force_mode=force_mode)


def _cstr_bank(cstr_plant, cstr_chain):
    """The three estimators of the cstr plant under the hold strategy."""
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    return [
        Alg1Estimator(ss_to_arma(cstr_plant), LossStrategy.HOLD, cstr_chain, kf_model=aug,
                      kf_x0=np.zeros(4), kf_P0=0.1 * np.eye(4)),
        Alg2Estimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4)),
        ImmEstimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4)),
    ]


@pytest.mark.parametrize("u, y, message", [
    (np.ones(2), np.ones(1), "output y has 1 entries, expected 2"),
    (np.ones(1), np.ones(2), "input u has 1 entries, expected 2"),
    (np.ones(3), np.ones(2), "input u has 3 entries, expected 2"),
], ids=["y-short", "u-short", "u-long"])
def test_step_signals_of_the_wrong_length_rejected(cstr_plant, cstr_chain, u, y, message):
    """Each estimator's start (the step-0 signals) and step take the r = 2
    issued inputs and the m = 2 measured outputs of the plant, and refuse a
    signal of another length, naming the entry point, the signal and the
    size expected."""
    for entry in ("start", "step"):
        for est in _cstr_bank(cstr_plant, cstr_chain):
            if entry == "step":
                est.start(np.ones(2), np.ones(2))
            with pytest.raises(ValueError, match=_exactly(f"{est.key} {entry} {message}")):
                getattr(est, entry)(u, y)


@pytest.mark.parametrize("u, y", [(np.array([np.nan, 1.0]), np.ones(2)),
                                  (np.ones(2), np.array([1.0, np.inf]))], ids=["u-nan", "y-inf"])
def test_start_refuses_non_finite_signals(cstr_plant, cstr_chain, u, y):
    for est in _cstr_bank(cstr_plant, cstr_chain):
        with pytest.raises(NumericalError, match=_exactly(f"non-finite values in {est.key} "
                                                          "start inputs")):
            est.start(u, y)


def test_step_before_start_refused(cstr_plant, cstr_chain):
    """No estimator steps on the zero histories it holds before start()."""
    for est in _cstr_bank(cstr_plant, cstr_chain):
        with pytest.raises(RuntimeError, match="call start"):
            est.step(np.ones(2), np.ones(2))


def test_alg1_mode_only_operation(cstr_plant, cstr_chain):
    """Without a Kalman model the estimator still decides modes and reports
    no state."""
    arma = ss_to_arma(cstr_plant)
    est = Alg1Estimator(arma, LossStrategy.HOLD, cstr_chain)
    rng = np.random.default_rng(60)
    est.start(rng.normal(size=2), rng.normal(size=2))
    for _ in range(20):
        res = est.step(rng.normal(scale=10.0, size=2), rng.normal(size=2))
        assert res.state is None
        assert 1 <= res.mode <= 4
    assert est.belief is None


def test_imm_no_mixing_reduces_to_single_kf(cstr_plant):
    """Identity chain plus a point-mass prior keeps one filter active and
    reproduces it exactly."""
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    a_tab, b_tab = aug.mode_tables
    chain = TransitionMatrix(np.eye(4))
    mode = 3
    prior = np.zeros(4)
    prior[mode - 1] = 1.0
    x0 = np.zeros(4)
    P0 = 0.1 * np.eye(4)
    est = ImmEstimator(aug, chain, prior=prior, x0=x0, P0=P0, held_cov_floor=0.0)
    belief = GaussianBelief(x0.copy(), P0.copy())
    rng = np.random.default_rng(23)
    u_prev = rng.normal(size=2)
    est.start(u_prev, np.zeros(2))
    for _ in range(25):
        u = rng.normal(size=2)
        y = rng.normal(size=2)
        res = est.step(u, y)
        belief = kf_update(aug.C, aug.R,
                           kf_predict(a_tab[mode - 1], b_tab[mode - 1], aug.Q, belief, u_prev), y)
        u_prev = u
        assert res.mode == mode
        assert np.array_equal(res.state, belief.mean)


def test_imm_probabilities_stay_on_simplex(cstr_plant, cstr_chain):
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    est = ImmEstimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4))
    rng = np.random.default_rng(31)
    est.start(rng.normal(size=2), rng.normal(size=2))
    for _ in range(2000):
        res = est.step(rng.normal(scale=10.0, size=2), rng.normal(scale=10.0, size=2))
        assert np.all(res.posterior >= 0.0)
        assert abs(res.posterior.sum() - 1.0) <= 1e-12


def test_estimator_health_on_benchmark_trial(cstr_plant, cstr_chain):
    """Posterior normalization and covariance health along a realistic run."""
    import dataclasses

    from ncsmode.cli import load_config
    from ncsmode.sim import simulate_trial

    cfg = load_config("cstr5").trial
    rec = simulate_trial(dataclasses.replace(cfg, seed=906), ())
    arma = ss_to_arma(cstr_plant)
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    estimators = [
        Alg1Estimator(arma, LossStrategy.HOLD, cstr_chain, kf_model=aug,
                      kf_x0=np.zeros(4), kf_P0=0.1 * np.eye(4)),
        Alg2Estimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4)),
        ImmEstimator(aug, cstr_chain, x0=np.zeros(4), P0=0.1 * np.eye(4)),
    ]
    for est in estimators:
        est.start(rec.u[0], rec.y[0])
    for k in range(1, rec.steps + 1):
        for est in estimators:
            res = est.step(rec.u[k], rec.y[k])
            assert np.all(res.posterior >= 0.0)
            assert abs(res.posterior.sum() - 1.0) <= 1e-12
            if isinstance(est, ImmEstimator):
                beliefs = est.beliefs + [est.combined_belief]
            else:
                beliefs = [est.belief]
            for belief in beliefs:
                belief.validate()


# ---------------------------------------------------------------------------
# Batched candidate scoring against per-candidate references
# ---------------------------------------------------------------------------

def _zero_strategy_16_mode_trial(seed):
    """A stable 4-state plant behind four lossy links (s = 16), zero strategy."""
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 4))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    plant = PlantModel(A=A, B=0.5 * rng.normal(size=(4, 4)), C=np.eye(4),
                       Q=np.zeros((4, 4)), R=2.5e-3 * np.eye(4))
    return TrialConfig(
        plant=plant, strategy=LossStrategy.ZERO,
        chain=kron_compose([LinkChain(CSTR_LINK)] * 4), steps=40,
        x0=np.zeros(4), est_x0=np.zeros(4), est_P0=0.1 * np.eye(4),
        input_std=10.0, seed=seed,
    )


def _cstr5_trial(seed):
    from ncsmode.cli import load_config

    return dataclasses.replace(load_config("cstr5").trial, steps=40, seed=seed)


def _cstr5_unreachable_mode_trial(seed):
    """cstr5 with a chain that never enters the all-loss mode: IMM's filter
    for it is an unreachable mixing target from the first step on."""
    P = BENCHMARK_TRANSITION.copy()
    P[:, 3] += P[:, 0]
    P[:, 0] = 0.0
    return dataclasses.replace(_cstr5_trial(seed), chain=TransitionMatrix(P))


def _rel_close(actual, expected, tol=1e-9):
    expected = np.asarray(expected)
    return np.max(np.abs(actual - expected)) <= tol * np.max(np.abs(expected))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "make_trial", [_cstr5_trial, _cstr5_unreachable_mode_trial, _zero_strategy_16_mode_trial]
)
def test_batched_scoring_matches_per_candidate_reference(make_trial, seed):
    """From the same pre-step state, every estimator step reproduces the
    candidate-by-candidate reference: identical mode decisions and gates,
    bit-identical alg2 likelihoods and alg1/alg2 states, alg1 likelihoods
    within 1e-12 relative (it whitens by an inverted factor), and IMM within
    1e-9 relative (its mixing and combination sums run in another order)."""
    cfg = make_trial(seed)
    rec = simulate_trial(cfg, ())
    aug = build_augmented(cfg.plant, cfg.strategy)
    arma = ss_to_arma(cfg.plant)
    P, s, n, floor = cfg.chain.P, aug.space.s, cfg.plant.n, DEFAULT_HELD_COV_FLOOR
    gate = _chi2_upper_quantile(cfg.plant.m, DEFAULT_GATE_PVALUE)
    init = dict(prior=cfg.est_prior, x0=cfg.est_x0, P0=cfg.est_P0)
    alg1 = Alg1Estimator(arma, cfg.strategy, cfg.chain, prior=cfg.est_prior,
                         kf_model=aug, kf_x0=cfg.est_x0, kf_P0=cfg.est_P0)
    alg2 = Alg2Estimator(aug, cfg.chain, **init)
    imm = ImmEstimator(aug, cfg.chain, **init)
    for est in (alg1, alg2, imm):
        est.start(rec.u[0], rec.y[0])

    a_tab, b_tab = aug.mode_tables

    def decided_cycle(belief, mode, u_prev, y):
        mean, cov = kalman_cycle(a_tab[mode - 1], b_tab[mode - 1], aug.C, aug.Q, aug.R,
                                 belief.mean, belief.cov, u_prev, y)
        return mean, floor_held(cov, n, floor)

    gated = 0
    for k in range(1, cfg.steps + 1):
        u, y = rec.u[k], rec.y[k]

        loglik, maha = alg1_scores(arma, cfg.strategy, alg1.space, y, alg1._y_hist,
                                   alg1._u_hist, alg1._uhat_hist, alg1._mode_hist)
        if maha.min() > gate:
            gated += 1
            _, mode = bayes_decision(alg1.posterior, np.zeros(s), P)
        else:
            _, mode = bayes_decision(alg1.posterior, loglik, P)
        mean, cov = decided_cycle(alg1.belief, mode, alg1._u_hist[0], y)
        res = alg1.step(u, y)
        # alg1 whitens by its inverted factor where the reference solves with
        # it: log-likelihoods within 1e-12 relative to max(|l|, 1), and the
        # gate and the decision exact
        assert np.all(np.abs(res.loglik - loglik) <= 1e-12 * np.maximum(np.abs(loglik), 1.0))
        assert res.fallback == (maha.min() > gate)  # finite scores: a fallback is a gated step
        assert res.mode == mode
        assert np.array_equal(res.state, mean) and np.array_equal(alg1.belief.cov, cov)

        loglik = alg2_scores(aug, alg2.belief.mean, alg2.belief.cov, alg2._last_u, y)
        _, mode = bayes_decision(alg2.posterior, loglik, P)
        mean, cov = decided_cycle(alg2.belief, mode, alg2._last_u, y)
        res = alg2.step(u, y)
        assert np.array_equal(res.loglik, loglik)
        assert res.mode == mode
        assert np.array_equal(res.state, mean) and np.array_equal(alg2.belief.cov, cov)

        loglik, post, means, covs, combined = imm_cycle(
            aug, P, imm.posterior, [b.mean for b in imm.beliefs],
            [b.cov for b in imm.beliefs], imm._last_u, y, floor,
        )
        res = imm.step(u, y)
        assert res.mode == int(np.argmax(post)) + 1
        assert _rel_close(res.loglik, loglik)
        assert _rel_close(res.posterior, post)
        assert _rel_close(res.state, combined)
        for belief, mean, cov in zip(imm.beliefs, means, covs):
            assert _rel_close(belief.mean, mean) and _rel_close(belief.cov, cov)
    assert gated < cfg.steps  # the likelihood path ran, not only the gate


def test_alg1_zero_strategy_gate_does_not_lock_up():
    """A plant started away from the origin trips alg1's mismatch gate during
    warm-up (its histories are zero-padded). On the zero strategy a gated
    step must not leave an all-deliver anchor in the mode memory: with four
    links that anchor is usually wrong, the next step gates again, and the
    decisions stay the data-free guess. alg1 must do far better."""
    cfg = dataclasses.replace(_zero_strategy_16_mode_trial(0), x0=np.ones(4), steps=60)
    guess = 100.0 * (1.0 - stationary_distribution(cfg.chain).max())
    mdes = [mde_percent(rec.true_modes, rec.est_modes["alg1"])
            for rec in run_monte_carlo(cfg, 5, 0, ("alg1",))]
    assert np.mean(mdes) < 0.5 * guess
