"""Discrete-time Markov chains over the packet-loss mode set."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import ModeSpace

__all__ = [
    "ROW_SUM_TOL",
    "LinkChain",
    "TransitionMatrix",
    "kron_compose",
    "predict_prior",
    "sample_next",
    "stationary_distribution",
]

ROW_SUM_TOL = 1e-12


def _check_stochastic(mat: np.ndarray, name: str) -> None:
    outside = ~((mat >= 0.0) & (mat <= 1.0))  # NaN is outside too
    if np.any(outside):
        bad = int(np.argmax(outside) // mat.shape[1])
        raise ValueError(f"{name} row {bad + 1} has entries outside [0, 1]")
    sums = mat.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > ROW_SUM_TOL):
        bad = int(np.argmax(off))
        raise ValueError(
            f"{name} row {bad + 1} sums to {sums[bad]!r}, expected 1 within {ROW_SUM_TOL}"
        )


def _check_distribution(probs: np.ndarray, name: str) -> None:
    """Reject a probability vector with a negative entry or a sum off 1."""
    if np.any(probs < 0.0):
        raise ValueError(f"{name} has negative entries")
    total = float(probs.sum())
    if not abs(total - 1.0) <= ROW_SUM_TOL:  # a NaN sum fails too
        raise ValueError(f"{name} sums to {total!r}, expected 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class LinkChain:
    """Two-state chain for a single input link, over {alpha=0, alpha=1}.

    Row i (0-based) holds the transition probabilities out of alpha = i,
    ordered (to alpha=0, to alpha=1).
    """

    P2: np.ndarray

    def __post_init__(self):
        mat = np.array(self.P2, dtype=float)
        if mat.shape != (2, 2):
            raise ValueError(f"link chain must be 2x2, got shape {mat.shape}")
        _check_stochastic(mat, "link chain")
        mat.setflags(write=False)
        object.__setattr__(self, "P2", mat)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over the s mode values.

    Entry [i, j] (0-based) is the probability of moving from mode i+1 to
    mode j+1. Malformed rows are rejected, never silently renormalized.
    """

    P: np.ndarray

    def __post_init__(self):
        mat = np.array(self.P, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"transition matrix must be square, got shape {mat.shape}")
        _check_stochastic(mat, "transition matrix")
        mat.setflags(write=False)
        object.__setattr__(self, "P", mat)

    @property
    def s(self) -> int:
        return self.P.shape[0]


def kron_compose(links) -> TransitionMatrix:
    """Joint mode chain for r independent links.

    The joint transition probability is the product of the per-link
    probabilities; under the mode encoding (link 1 in the lowest bit) this
    is the Kronecker product of the per-link matrices taken highest link
    first. More than ``MAX_LINKS`` links are rejected before the 2^r x 2^r
    product is allocated.
    """
    links = list(links)
    if not links:
        raise ValueError("at least one link chain is required")
    ModeSpace(len(links))
    mats = [link.P2 for link in reversed(links)]
    return TransitionMatrix(reduce(np.kron, mats))


def predict_prior(posterior, transition) -> np.ndarray:
    """One-step-ahead mode distribution: E_h = sum_l P[l, h] posterior_l.

    ``posterior`` is one distribution (s,) or a stack of them (T, s), which
    gives one prior per row.
    """
    probs = np.asarray(posterior, dtype=float)
    if not 1 <= probs.ndim <= 2:
        probs = probs.reshape(-1)
    mat = transition.P if isinstance(transition, TransitionMatrix) else np.asarray(transition)
    if probs.shape[-1] != mat.shape[0]:
        raise ValueError(
            f"posterior length {probs.shape[-1]} does not match {mat.shape[0]} modes"
        )
    # a unit row axis makes every row one vector-matrix product, the same
    # for a row of a stack as for that row alone (a 2-D product would not be)
    return (probs[..., None, :] @ mat)[..., 0, :]


def sample_next(transition, current: int, rng: np.random.Generator) -> int:
    """Draw the successor mode from the row of ``current``.

    Inverse-CDF with a single uniform draw; the row is partitioned into
    half-open bins [lo, hi), so a draw landing exactly on a boundary selects
    the bin whose lower edge it is and zero-probability modes are never
    selected.
    """
    mat = transition.P if isinstance(transition, TransitionMatrix) else np.asarray(transition)
    s = mat.shape[0]
    if not 1 <= current <= s:
        raise ValueError(f"mode index {current} outside 1..{s}")
    cdf = np.cumsum(mat[current - 1])
    draw = rng.random()
    idx = int(np.searchsorted(cdf, draw, side="right"))
    return min(idx, s - 1) + 1


def stationary_distribution(transition) -> np.ndarray:
    """Stationary mode distribution, solved from pi P = pi, sum(pi) = 1.

    For reducible chains (multiple stationary distributions) this returns
    the deterministic least-squares representative.
    """
    mat = transition.P if isinstance(transition, TransitionMatrix) else np.asarray(transition)
    s = mat.shape[0]
    system = np.vstack([mat.T - np.eye(s), np.ones((1, s))])
    target = np.zeros(s + 1)
    target[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, target, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
