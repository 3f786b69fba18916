"""Plant models for control loops whose actuator commands cross lossy links.

Two representations of the same discrete-time plant are used throughout the
package: a state-space form and an input-output (ARMA) form. Packet losses
on the r input links are encoded by a single mode index, and the two
actuator strategies (replace a lost sample by zero, or hold the last
delivered value) are folded into mode-parameterized system matrices so that
simulators and filters can treat both strategies uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "SYMMETRY_TOL",
    "UnsupportedConversionError",
    "PlantModel",
    "ArmaModel",
    "ModeSpace",
    "LossStrategy",
    "AugmentedModel",
    "build_augmented",
    "ss_to_arma",
]

SYMMETRY_TOL = 1e-10

# most input links a mode space may have: the joint chain is 2**r x 2**r
# (at 16 links 32 GiB) and IMM mixing costs (2**r)**2 per step
MAX_LINKS = 10


class UnsupportedConversionError(ValueError):
    """Raised when a plant lies outside the supported ARMA conversion class."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return _read_only(arr)


def _all_finite(value) -> bool:
    """Whether every entry of an array (or a number) is finite; one C count,
    several times cheaper than ``np.all`` on the small arrays of a config."""
    finite = np.isfinite(value)
    return np.count_nonzero(finite) == finite.size


def _check_symmetric(mat: np.ndarray, name: str, tol: float = SYMMETRY_TOL) -> None:
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if mat.size and not np.max(np.abs(mat - mat.T)) <= tol:  # NaN fails too
        raise ValueError(f"{name} must be symmetric within {tol}")


def _check_psd(mat: np.ndarray, name: str, tol: float = SYMMETRY_TOL) -> None:
    _check_symmetric(mat, name, tol)
    if mat.size and np.linalg.eigvalsh(mat).min() < -tol:
        raise ValueError(f"{name} must be positive semidefinite within {tol}")


@dataclass(frozen=True)
class PlantModel:
    """Linear plant  x_{k+1} = A x_k + B u'_k + w_k,  y_k = C x_k + v_k.

    u'_k is the input actually applied at the actuator (r channels), w and v
    are zero-mean white Gaussian with covariances Q and R.

    Q must be symmetric PSD. R must be symmetric PSD as well; strict positive
    definiteness is required only where R's inverse matters (filter
    likelihoods), which lets noise-free reference simulations use R = 0.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if n < 1 or C.shape[0] < 1:
            raise ValueError("state and output dimensions must be positive")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {B.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got shape {C.shape}")
        m = C.shape[0]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got shape {Q.shape}")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got shape {R.shape}")
        _check_psd(Q, "Q")
        _check_psd(R, "R")
        for name, arr in (("A", A), ("B", B), ("C", C), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ArmaModel:
    """Input-output form of the plant.

    y_k = -sum_i a_i y_{k-i} + sum_j b_j u'_{k-j} + e_k + sum_l c_l e_{k-l}

    with scalar AR coefficients ``a`` (length n), matrix input coefficients
    ``b`` stacked as a (p, m, r) array, scalar MA coefficients ``c``
    (length h), and innovation covariance ``lam`` = E[e_k e_k^T].
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float).reshape(-1)
        c = np.array(self.c, dtype=float).reshape(-1)
        b = np.array(self.b, dtype=float)
        if b.ndim != 3:
            raise ValueError(
                f"b must be a (p, m, r) array of input coefficients, got shape {b.shape}"
            )
        lam = _as_matrix(self.lam, "lam")
        if lam.shape[0] != b.shape[1]:
            raise ValueError(
                f"lam must be {b.shape[1]}x{b.shape[1]} to match b, got shape {lam.shape}"
            )
        _check_psd(lam, "lam")
        for name, arr in (("a", a), ("b", b), ("c", c)):
            if not _all_finite(arr):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lam", lam)

    @property
    def n_ar(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.b.shape[0]

    @property
    def h(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def r(self) -> int:
        return self.b.shape[2]


@dataclass(frozen=True)
class ModeSpace:
    """Index set for the joint delivery state of r input links.

    Mode j in {1..s}, s = 2**r, maps to the per-link flags
    (alpha_1, ..., alpha_r) through j = 1 + sum_i alpha_i * 2**(i-1), where
    alpha_i = 1 means link i delivered its packet and alpha_i = 0 means it
    was lost. Mode 1 is all-loss, mode s is all-deliver. The delivery/loss
    interpretation is reporting metadata only; every computation in the
    package depends on the flags solely through the selection matrix Gamma.
    """

    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or not 0 <= self.r <= MAX_LINKS:
            raise ValueError(f"number of links must be an integer in 0..{MAX_LINKS}, got {self.r}")

    @property
    def s(self) -> int:
        return 1 << self.r

    def modes(self) -> range:
        return range(1, self.s + 1)

    def check(self, j: int) -> None:
        if not 1 <= j <= self.s:
            raise ValueError(f"mode index {j} outside 1..{self.s}")

    @cached_property
    def flags(self) -> np.ndarray:
        """Read-only (s, r) table of link flags; row j-1 holds mode j's."""
        return _read_only((np.arange(self.s)[:, None] >> np.arange(self.r) & 1).astype(float))

    @cached_property
    def drops(self) -> np.ndarray:
        """Read-only (s, r) table 1 - flags: row j-1 marks the links mode j loses."""
        return _read_only(1.0 - self.flags)

    def decode(self, j: int) -> np.ndarray:
        """Link flags (alpha_1..alpha_r) for mode j, as a float 0/1 vector."""
        self.check(j)
        bits = (j - 1) >> np.arange(self.r) & 1
        return bits.astype(float)

    def encode(self, alpha) -> int:
        """Mode index for a 0/1 flag vector of length r."""
        alpha = np.asarray(alpha)
        if alpha.shape != (self.r,):
            raise ValueError(f"expected {self.r} link flags, got shape {alpha.shape}")
        bits = alpha.astype(int)
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("link flags must be 0 or 1")
        return 1 + int(bits @ (1 << np.arange(self.r)))


class LossStrategy(Enum):
    """What the actuator applies on a channel whose packet was lost."""

    ZERO = "zero"
    HOLD = "hold"


@dataclass(frozen=True)
class AugmentedModel:
    """Mode-parameterized state-space form shared by simulator and filters.

    For the zero strategy the state is the plant state and only B depends on
    the mode: B(j) = B Gamma(j). For the hold strategy the state is extended
    with the last applied input, giving block matrices

        A(j) = [[A, B (I - Gamma(j))],    B(j) = [[B Gamma(j)],
                [0,     I - Gamma(j)]]             [   Gamma(j)]]

    with output matrix (C 0) and process noise covariance blkdiag(Q, 0).
    The augmented Q is singular by construction; filters only ever invert
    the innovation covariance, never Q.
    """

    plant: PlantModel
    strategy: LossStrategy

    @cached_property
    def space(self) -> ModeSpace:
        return ModeSpace(self.plant.r)

    @property
    def state_dim(self) -> int:
        if self.strategy is LossStrategy.HOLD:
            return self.plant.n + self.plant.r
        return self.plant.n

    @cached_property
    def C(self) -> np.ndarray:
        if self.strategy is LossStrategy.HOLD:
            out = np.hstack([self.plant.C, np.zeros((self.plant.m, self.plant.r))])
        else:
            out = self.plant.C.copy()
        return _read_only(out)

    @cached_property
    def Q(self) -> np.ndarray:
        if self.strategy is LossStrategy.HOLD:
            n, r = self.plant.n, self.plant.r
            out = np.zeros((n + r, n + r))
            out[:n, :n] = self.plant.Q
        else:
            out = self.plant.Q.copy()
        return _read_only(out)

    @property
    def R(self) -> np.ndarray:
        return self.plant.R

    @cached_property
    def mode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-mode matrices: read-only (s, d, d) A(j) and (s, d, r)
        B(j), row j-1 for mode j, built once and reused in hot loops."""
        plant, s = self.plant, self.space.s
        n, r = plant.n, plant.r
        # B Gamma(j) scales the columns of B; + 0.0 turns the -0.0 of a
        # negative entry times a zero flag into the +0.0 a matrix product gives
        flags = self.space.flags[:, None, :]
        b_tab = plant.B * flags + 0.0
        if self.strategy is LossStrategy.ZERO:
            a_tab = np.repeat(plant.A[None], s, axis=0)
        else:
            held = self.space.drops[:, None, :]
            a_tab = np.zeros((s, n + r, n + r))
            a_tab[:, :n, :n] = plant.A
            a_tab[:, :n, n:] = plant.B * held + 0.0
            a_tab[:, n:, n:] = np.eye(r) * held
            b_tab = np.concatenate([b_tab, np.eye(r) * flags], axis=1)
        return _read_only(a_tab), _read_only(b_tab)

    @cached_property
    def output_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked C A(j) and C B(j): each mode's one-step output maps."""
        a_tab, b_tab = self.mode_tables
        return _read_only(self.C @ a_tab), _read_only(self.C @ b_tab)

    @cached_property
    def _output_process_cov(self) -> np.ndarray:
        """C Q C^T, the process noise seen at the output: a constant term of
        every candidate's output-prediction covariance."""
        return _read_only(self.C @ self.Q @ self.C.T)

    def initial_state(self, x0, u_init_applied=None) -> np.ndarray:
        """Full initial state vector from the physical state (and, for hold,
        the input applied before step 0)."""
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape[0] != self.plant.n:
            raise ValueError(f"x0 has length {x0.shape[0]}, expected {self.plant.n}")
        if self.strategy is LossStrategy.ZERO:
            return x0.copy()
        if u_init_applied is None:
            u_init_applied = np.zeros(self.plant.r)
        u_init = np.asarray(u_init_applied, dtype=float).reshape(-1)
        if u_init.shape[0] != self.plant.r:
            raise ValueError(
                f"u_init_applied has length {u_init.shape[0]}, expected {self.plant.r}"
            )
        return np.concatenate([x0, u_init])


def build_augmented(plant: PlantModel, strategy: LossStrategy) -> AugmentedModel:
    """Mode-parameterized state-space model for the given loss strategy."""
    return AugmentedModel(plant, strategy)


def ss_to_arma(plant: PlantModel) -> ArmaModel:
    """Convert a state-space plant to its input-output form.

    Supported class: C square and invertible, Q = 0 (no process noise), so
    the output innovation is the measurement noise itself. The AR
    coefficients are the characteristic polynomial of A,
    det(zI - A) = z^n + a_1 z^{n-1} + ... + a_n, obtained with the
    Faddeev-LeVerrier recursion, whose auxiliary matrices also give the
    input coefficients b_j = C M_{j-1} B. The MA coefficients equal the AR
    coefficients and the innovation covariance equals R.

    Plants outside this class must supply an :class:`ArmaModel` directly.
    """
    n = plant.n
    if plant.m != n:
        raise UnsupportedConversionError(
            "conversion requires a square C; supply an ArmaModel directly"
        )
    if np.linalg.matrix_rank(plant.C) < n:
        raise UnsupportedConversionError(
            "conversion requires an invertible C; supply an ArmaModel directly"
        )
    if plant.Q.size and np.any(plant.Q != 0.0):
        raise UnsupportedConversionError(
            "conversion requires Q = 0; supply an ArmaModel directly"
        )

    a = np.empty(n)
    b = np.empty((n, plant.m, plant.r))
    mk = np.eye(n)
    for k in range(1, n + 1):
        b[k - 1] = plant.C @ mk @ plant.B
        ak = -np.trace(plant.A @ mk) / k
        a[k - 1] = ak
        mk = plant.A @ mk + ak * np.eye(n)
    return ArmaModel(a=a, b=b, c=a.copy(), lam=plant.R)
