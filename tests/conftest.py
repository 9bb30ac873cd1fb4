"""Fixtures, plus the float references that more than one test file checks
the quadric against: the torus basis change of cone data, the constraint
Jacobian, the transverse frame, the equivariance residual of the SU(3)
embedding and the exact seed points of a sample."""

import numpy as np
import pytest

from su3kahler import DerivedConeData, WeightSystem, cone_data, enumerate_admissible_systems
from su3kahler.quadric import certification_sample, embed_su3


@pytest.fixture(scope="session")
def orbifold_data():
    """The worked orbifold configuration: A_1 = A_2 = (1,0), A_3 = (2,-1),
    B_1 = B_2 = (0,1), B_3 = (-1,2), C = (1,1)."""
    return cone_data([(1, 0), (1, 0), (2, -1)], [(0, 1), (0, 1), (-1, 2)])


@pytest.fixture(scope="session")
def orbifold_ws():
    """Integer weight system deriving to three times the example data."""
    return WeightSystem(
        ((-1, 1), (-1, 1), (2, -2)),
        ((-4, 1), (5, -5), (-1, 4)),
    )


@pytest.fixture(scope="session")
def standard_ws():
    """Trivial left side, right side an isomorphism: the free flag case."""
    return WeightSystem(((0, 0),) * 3, ((1, 0), (0, 1), (-1, -1)))


@pytest.fixture(scope="session")
def round_ws():
    """The weight system whose derived data is the round normalization."""
    return WeightSystem(((0, 0),) * 3, ((-1, 0), (1, -1), (0, 1)))


@pytest.fixture(scope="session")
def bound1_systems():
    return list(enumerate_admissible_systems(1))


@pytest.fixture(scope="session")
def bound2_systems():
    return list(enumerate_admissible_systems(2))


def basis_change(m, d):
    """d seen in the torus basis m: every A_j, B_j and C becomes m v."""

    def apply(v):
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

    return DerivedConeData(tuple(map(apply, d.a)), tuple(map(apply, d.b)), apply(d.c))


# Multiplication by i in the real layout (Re z1, Im z1, ..., Re w3, Im w3),
# (re, im) -> (-im, re); the Gram matrix of omega, omega(u, v) = u^T O v,
# has the same blocks.
J12 = np.kron(np.eye(6), [[0, -1], [1, 0]])
OMEGA12 = J12


def c2r(v):
    """Complex vectors (last axis) in the real layout."""
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    out[..., 0::2], out[..., 1::2] = v.real, v.imag
    return out


def _float_weights(d):
    return np.array(d.a, dtype=float), np.array(d.b, dtype=float)


def constraint_jacobian(d, z, w):
    """4 x 12 real Jacobian of ``quadric.constraint_values`` at (z, w).

    h = sum z_j w_j is complex-bilinear, so d(Re h) = (conj w, conj z) and
    d(Im h) = i (conj w, conj z); the moment rows are gradients of weighted
    square moduli, 2 A_j z_j and 2 B_j w_j per component.
    """
    a, b = _float_weights(d)
    zc, wc = np.conj(z), np.conj(w)
    rows = np.array(
        [
            np.concatenate([wc, zc]),
            np.concatenate([1j * wc, 1j * zc]),
            np.concatenate([2 * a[:, 0] * z, 2 * b[:, 0] * w]),
            np.concatenate([2 * a[:, 1] * z, 2 * b[:, 1] * w]),
        ]
    )
    return c2r(rows)


def transverse_frame(d, p):
    """Orbit fields X, Y and the transverse frame Z = X + JY, W = JX - Y.

    The z_j component of X is i * A_j[0] * z_j, of Y is i * A_j[1] * z_j,
    and likewise with B_j on w.
    """
    a, b = _float_weights(d)
    x6 = np.concatenate([1j * a[:, 0] * p.z, 1j * b[:, 0] * p.w])
    y6 = np.concatenate([1j * a[:, 1] * p.z, 1j * b[:, 1] * p.w])
    return x6, y6, x6 + 1j * y6, 1j * x6 - y6


def equivariance_residual(a, g, h):
    """Residual between embedding g*A*h^{-1} and acting on the embedding.

    The action on coordinates multiplies z_k by g_k * h_1^{-1} and w_k by
    g_k^{-1} * h_3, for unit-modulus determinant-one diagonals g, h.
    """
    g = np.asarray(g, dtype=complex)
    h = np.asarray(h, dtype=complex)
    moved = embed_su3(np.diag(g) @ np.asarray(a, dtype=complex) @ np.diag(1 / h))
    base = embed_su3(a)
    z_expected = g * h[0].conjugate() * base.z
    w_expected = (1 / g) * h[2] * base.w
    return float(np.linalg.norm(moved.z - z_expected) + np.linalg.norm(moved.w - w_expected))


def seed_point(d, i, j):
    """The exact level-set point supported on z_i and w_j: the seed that
    ``certification_sample`` builds for the mixed witness (i, j, a, b)."""
    pairs = [(i2, j2) for i2, j2, _, _ in d.mixed_witnesses]
    return certification_sample(d, len(pairs), 0)[pairs.index((i, j))]
