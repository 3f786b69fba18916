import numpy as np
import pytest

from ncsmode.markov import (
    LinkChain,
    TransitionMatrix,
    kron_compose,
    predict_prior,
    sample_next,
    stationary_distribution,
)
from ncsmode.model import ModeSpace
from oracles import joint_chain_oracle

from conftest import CSTR_LINK, BENCHMARK_TRANSITION


def test_transition_matrix_validation():
    with pytest.raises(ValueError, match="row 1"):
        TransitionMatrix([[0.4, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        TransitionMatrix([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ValueError):
        TransitionMatrix(np.ones((2, 3)))


def test_link_chain_validation():
    with pytest.raises(ValueError):
        LinkChain([[0.9, 0.2], [0.4, 0.6]])
    with pytest.raises(ValueError):
        LinkChain(np.eye(3))


def test_kron_compose_matches_benchmark_matrix(cstr_chain):
    assert np.allclose(cstr_chain.P, BENCHMARK_TRANSITION, atol=1e-15)
    oracle = joint_chain_oracle([LinkChain(CSTR_LINK)] * 2, ModeSpace(2))
    assert np.array_equal(cstr_chain.P, oracle)


def test_kron_compose_single_identity_link():
    chain = kron_compose([LinkChain(np.eye(2))])
    assert np.array_equal(chain.P, np.eye(2))


def test_kron_compose_absorbing_links():
    det = LinkChain([[0.0, 1.0], [0.0, 1.0]])
    chain = kron_compose([det, det])
    expected = np.zeros((4, 4))
    expected[:, 3] = 1.0  # all mass on the all-deliver mode
    assert np.array_equal(chain.P, expected)


def test_kron_compose_empty_error():
    with pytest.raises(ValueError):
        kron_compose([])


def test_kron_compose_rejects_more_links_than_the_bound():
    """Eleven links would need a 2048 x 2048 chain; the count is refused
    first, as a mode space of eleven links is."""
    link = LinkChain(CSTR_LINK)
    for reject in (lambda: kron_compose([link] * 11), lambda: ModeSpace(11)):
        with pytest.raises(ValueError, match="number of links must be an integer in 0..10, got 11"):
            reject()
    assert ModeSpace(10).s == 1024


def test_kron_compose_row_stochastic_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(50):
        r = int(rng.integers(1, 4))
        links = []
        for _ in range(r):
            rows = rng.random((2, 2)) + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            links.append(LinkChain(rows))
        chain = kron_compose(links)
        assert np.max(np.abs(chain.P.sum(axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(chain.P, joint_chain_oracle(links, ModeSpace(r)))


def test_predict_prior_point_mass(cstr_chain):
    post = np.zeros(4)
    post[2] = 1.0
    assert np.array_equal(predict_prior(post, cstr_chain), cstr_chain.P[2])


def test_predict_prior_uniform_doubly_stochastic():
    P = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    out = predict_prior([0.5, 0.5], P)
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_predict_prior_benchmark_row(cstr_chain):
    out = predict_prior([1.0, 0.0, 0.0, 0.0], cstr_chain)
    assert np.allclose(out, [0.64, 0.16, 0.16, 0.04], atol=1e-15)


def test_predict_prior_simplex_fuzz(cstr_chain):
    rng = np.random.default_rng(5)
    for _ in range(200):
        post = rng.random(4)
        post /= post.sum()
        out = predict_prior(post, cstr_chain)
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-12


def test_sample_next_deterministic_row():
    P = TransitionMatrix([[0.0, 1.0, 0.0, 0.0]] + [[0.25] * 4] * 3)
    rng = np.random.default_rng(0)
    assert all(sample_next(P, 1, rng) == 2 for _ in range(200))


def test_sample_next_identity_chain():
    P = TransitionMatrix(np.eye(3))
    rng = np.random.default_rng(1)
    assert all(sample_next(P, 2, rng) == 2 for _ in range(100))


def test_sample_next_law_of_large_numbers(cstr_chain):
    rng = np.random.default_rng(123)
    draws = np.array([sample_next(cstr_chain, 1, rng) for _ in range(100_000)])
    freqs = np.bincount(draws, minlength=5)[1:] / draws.size
    assert np.max(np.abs(freqs - np.array([0.64, 0.16, 0.16, 0.04]))) < 0.01


def test_stationary_distribution(cstr_chain):
    pi = stationary_distribution(cstr_chain)
    assert np.allclose(pi, [4 / 9, 2 / 9, 2 / 9, 1 / 9], atol=1e-12)
    assert np.allclose(pi @ cstr_chain.P, pi, atol=1e-12)
