import numpy as np
import pytest

from ncsmode.model import (
    ArmaModel,
    AugmentedModel,
    LossStrategy,
    ModeSpace,
    PlantModel,
    UnsupportedConversionError,
    apply_loss,
    build_augmented,
    ss_to_arma,
)
from oracles import simulate_arma, simulate_state_space

from conftest import CSTR_A, CSTR_B


def test_mode_space_endpoints():
    space = ModeSpace(3)
    assert space.s == 8
    assert np.array_equal(space.decode(1), np.zeros(3))
    assert np.array_equal(space.decode(8), np.ones(3))


@pytest.mark.parametrize("r", range(0, 9))
def test_encode_decode_roundtrip(r):
    space = ModeSpace(r)
    for j in space.modes():
        assert space.encode(space.decode(j)) == j


def test_mode_space_rejects_bad_index():
    space = ModeSpace(2)
    with pytest.raises(ValueError):
        space.decode(0)
    with pytest.raises(ValueError):
        space.decode(5)


def test_gamma_examples():
    """Gamma(j) = diag(flags[j-1]) selects the channels delivered in mode j."""
    space = ModeSpace(2)
    assert np.array_equal(np.diag(space.flags[space.s - 1]), np.eye(2))
    assert np.array_equal(np.diag(space.flags[0]), np.zeros((2, 2)))
    j = space.encode([1, 0])
    assert np.array_equal(np.diag(space.flags[j - 1]), np.diag([1.0, 0.0]))


def test_gamma_idempotent_diagonal():
    """The flag table holds 0/1 entries only, so every Gamma(j) is an
    idempotent diagonal; row j-1 is decode(j), and the table is read-only."""
    for r in (0, 1, 2, 3, 4):
        space = ModeSpace(r)
        assert space.flags.shape == (space.s, r)
        assert set(space.flags.ravel()) <= {0.0, 1.0}
        assert not space.flags.flags.writeable
        for j in space.modes():
            assert np.array_equal(space.flags[j - 1], space.decode(j))


def test_apply_loss_examples():
    space = ModeSpace(2)
    u = np.array([5.0, 7.0])
    assert np.array_equal(
        apply_loss(LossStrategy.HOLD, space.s, u, np.array([1.0, 2.0])), u
    )
    assert np.array_equal(
        apply_loss(LossStrategy.ZERO, 1, np.array([3.0, -1.0])), np.zeros(2)
    )
    j = space.encode([0, 1])
    out = apply_loss(LossStrategy.HOLD, j, u, np.array([2.0, 4.0]))
    assert np.array_equal(out, np.array([2.0, 7.0]))


def test_apply_loss_dimension_errors():
    with pytest.raises(ValueError):
        apply_loss(LossStrategy.HOLD, 1, np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        apply_loss(LossStrategy.HOLD, 1, np.ones(2), None)


def test_plant_model_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        PlantModel(A=np.ones((2, 3)), B=eye, C=eye, Q=np.zeros((2, 2)), R=eye)
    with pytest.raises(ValueError):
        PlantModel(A=eye, B=np.ones((3, 2)), C=eye, Q=np.zeros((2, 2)), R=eye)
    with pytest.raises(ValueError):  # asymmetric Q
        PlantModel(A=eye, B=eye, C=eye, Q=[[0.0, 1.0], [0.0, 0.0]], R=eye)
    with pytest.raises(ValueError):  # indefinite R
        PlantModel(A=eye, B=eye, C=eye, Q=np.zeros((2, 2)), R=-eye)


def test_plant_model_matrices_read_only(cstr_plant):
    with pytest.raises(ValueError):
        cstr_plant.A[0, 0] = 3.0


def test_build_augmented_hold_blocks(cstr_plant):
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    n, r = cstr_plant.n, cstr_plant.r
    assert aug.state_dim == 4
    a_tab, b_tab = aug.mode_tables
    a_full = a_tab[aug.space.s - 1]
    assert np.array_equal(a_full[:n, :n], cstr_plant.A)
    assert np.array_equal(a_full[:n, n:], np.zeros((n, r)))
    assert np.array_equal(a_full[n:, n:], np.zeros((r, r)))
    assert np.array_equal(b_tab[aug.space.s - 1], np.vstack([cstr_plant.B, np.eye(r)]))
    a_loss = a_tab[0]
    assert np.array_equal(a_loss[:n, n:], cstr_plant.B)
    assert np.array_equal(a_loss[n:, n:], np.eye(r))
    assert np.array_equal(b_tab[0], np.zeros((n + r, r)))
    assert np.array_equal(aug.C, np.hstack([np.eye(2), np.zeros((2, 2))]))
    assert np.array_equal(aug.Q, np.zeros((4, 4)))


def test_build_augmented_zero(cstr_plant):
    aug = build_augmented(cstr_plant, LossStrategy.ZERO)
    assert aug.state_dim == 2
    a_tab, b_tab = aug.mode_tables
    assert a_tab.shape == (4, 2, 2) and b_tab.shape == (4, 2, 2)
    assert np.array_equal(a_tab[0], cstr_plant.A)
    assert np.array_equal(a_tab[3], cstr_plant.A)
    j = aug.space.encode([1, 0])
    assert np.array_equal(b_tab[j - 1], cstr_plant.B @ np.diag([1.0, 0.0]))


def test_augmented_initial_state(cstr_plant):
    aug = build_augmented(cstr_plant, LossStrategy.HOLD)
    x0 = aug.initial_state([1.0, 1.0], [1.0, 1.0])
    assert np.array_equal(x0, np.ones(4))
    aug_zero = build_augmented(cstr_plant, LossStrategy.ZERO)
    assert np.array_equal(aug_zero.initial_state([1.0, 2.0]), [1.0, 2.0])


def test_ss_to_arma_scalar_plant():
    plant = PlantModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    arma = ss_to_arma(plant)
    assert arma.a == pytest.approx([-0.5])
    assert np.allclose(arma.b[0], [[1.0]])
    assert arma.c == pytest.approx([-0.5])
    assert np.allclose(arma.lam, [[1.0]])


def test_ss_to_arma_cstr_matches_printed_coefficients(cstr_plant):
    arma = ss_to_arma(cstr_plant)
    assert arma.a == pytest.approx([-1.4091, 0.8099], abs=5e-4)
    assert np.allclose(arma.b[0], np.asarray(CSTR_B), atol=5e-4)
    assert np.allclose(arma.b[1], [[-0.0218, -0.0014], [2.9125, 0.0089]], atol=5e-4)
    # second input coefficient against the recursion's closed form
    a_mat = np.asarray(CSTR_A)
    expected_b2 = (a_mat - np.trace(a_mat) * np.eye(2)) @ np.asarray(CSTR_B)
    assert np.array_equal(arma.b[1], expected_b2)
    assert np.array_equal(arma.lam, cstr_plant.R)
    assert np.array_equal(arma.c, arma.a)


def test_ss_to_arma_unsupported_cases():
    with pytest.raises(UnsupportedConversionError):  # non-square C
        ss_to_arma(
            PlantModel(
                A=np.eye(2), B=np.eye(2), C=[[1.0, 0.0]], Q=np.zeros((2, 2)), R=[[1.0]]
            )
        )
    with pytest.raises(UnsupportedConversionError):  # singular C
        ss_to_arma(
            PlantModel(
                A=np.eye(2), B=np.eye(2), C=np.zeros((2, 2)),
                Q=np.zeros((2, 2)), R=np.eye(2),
            )
        )
    with pytest.raises(UnsupportedConversionError):  # process noise present
        ss_to_arma(
            PlantModel(A=np.eye(2), B=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
        )


def test_arma_model_validation():
    with pytest.raises(ValueError):  # b not 3-d
        ArmaModel(a=[0.1], b=np.ones((2, 2)), c=[0.1], lam=np.eye(2))
    with pytest.raises(ValueError):  # lam shape mismatch
        ArmaModel(a=[0.1], b=np.ones((1, 2, 2)), c=[0.1], lam=np.eye(3))


@pytest.mark.parametrize("strategy", [LossStrategy.ZERO, LossStrategy.HOLD])
def test_state_space_arma_equivalence(cstr_plant, strategy):
    """Both plant representations produce identical outputs, Q = 0."""
    arma = ss_to_arma(cstr_plant)
    aug = build_augmented(cstr_plant, strategy)
    space = aug.space
    rng = np.random.default_rng(314)
    steps = 50
    for _ in range(20):
        thetas = rng.integers(1, space.s + 1, size=steps)
        u = rng.normal(scale=10.0, size=(steps, 2))
        e = rng.normal(scale=0.05, size=(steps + 1, 2))
        x0_full = np.zeros(aug.state_dim)
        y_ss = simulate_state_space(aug, thetas, u, e, x0_full)
        y_io = simulate_arma(arma, strategy, space, thetas, u, e)
        assert np.max(np.abs(y_ss - y_io)) < 1e-9
