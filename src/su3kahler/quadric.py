"""Floating-point model of the quadric in C^6 and pointwise certificates.

The ambient space is C^3 x C^3 with coordinates (z, w), carrying the
Kahler form

    omega(u, v) = sum_k Im(u_k * conj(v_k)),

oriented so that omega(J u, u) = |u|^2 > 0 for the complex structure
J = multiplication by i. The quadric is sum_j z_j w_j = 0 with z, w != 0,
and for cone data (A, B, C) the moment map is

    Phi(z, w) = sum_j A_j |z_j|^2 + B_j |w_j|^2.

Points of the level set Phi = C on the quadric are sampled exactly (one
coordinate per factor, from a positive cone witness), by Gauss-Newton
projection of perturbations, or by embedding special unitary matrices when
the data is the round normalization. :func:`certify_points` then checks the
linear-algebra content of the transverse Kahler construction at each point:
constraint regularity, transversality of the rotated frame, the induced
complex structure squaring to -1 and rotating the orbit directions, omega
compatibility, and positive semidefiniteness of omega(J_N -, -) with a
2-dimensional kernel along the orbit.

Projection and certification run as one batch over a stack of points:
each step is a single stacked numpy/LAPACK call, and the one-point
functions (:func:`project_to_level`, :func:`certify_point`) are calls of
the batched ones with a stack of one.

Everything here is float; all exact decisions live in the other modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .weights import DerivedConeData, cone_data, positive_combination  # noqa: F401 (re-exported)

__all__ = [
    "ROUND_DATA",
    "Tolerances",
    "LevelSetPoint",
    "check_special_unitary",
    "random_su3",
    "embed_su3",
    "moment_map",
    "project_to_level",
    "project_points",
    "moment_scale",
    "PointCertificate",
    "certify_point",
    "certify_points",
    "certification_sample",
    "constraint_values",
]

# Cone data of the round level set {sum |z|^2 = 1, sum |w|^2 = 1}.
ROUND_DATA = cone_data([(1, 0)] * 3, [(0, 1)] * 3)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds; all rank decisions are relative."""

    residual: float = 1e-9       # level-set membership, moment part vs moment_scale
    zero: float = 1e-8           # |eigenvalue| treated as 0 in spectra
    pos: float = 1e-6            # smallest positive eigenvalue vs largest
    rank_rel: float = 1e-9       # singular value cutoff vs largest


_NONZERO_FLOOR = 1e-8  # max |z_j|, |w_j| must exceed this on the quadric
_SU3_TOL = 1e-9        # unitarity and determinant error of an embedded matrix
_OPERATOR_TOL = 1e-8   # operator identity errors of a passing certificate
_SAMPLE_NOISE = 1e-2   # scale of the perturbations certification_sample projects


@dataclass
class LevelSetPoint:
    z: np.ndarray  # shape (3,), complex
    w: np.ndarray  # shape (3,), complex
    residuals: tuple[float, float]  # (|sum z_j w_j|, |Phi - C|)


class _FloatData(NamedTuple):
    """Float cone data, converted once per call of a batched kernel."""

    af: np.ndarray  # first components of A_j (z weights)
    ag: np.ndarray  # second components of A_j
    bf: np.ndarray  # first components of B_j (w weights)
    bg: np.ndarray  # second components of B_j
    c: np.ndarray   # C as a float 2-vector
    scale: float    # moment scale, see :func:`moment_scale`


def _weight_arrays(d: DerivedConeData) -> _FloatData:
    a = np.array(d.a, dtype=float)
    b = np.array(d.b, dtype=float)
    c = np.array(d.c, dtype=float)
    scale = max(math.hypot(*v) for v in (*a.tolist(), *b.tolist(), c.tolist())) or 1.0
    return _FloatData(a[:, 0], a[:, 1], b[:, 0], b[:, 1], c, scale)


def _unit(fd: _FloatData) -> _FloatData:
    """The same data divided by its moment scale (scale 1).

    Projection and certificates run on it: the level set, its tangent
    spaces and J_N are unchanged, while ranks, stopping residuals and
    operator errors become invariant under rescaling the cone data.
    """
    return _FloatData(*(x / fd.scale for x in fd[:5]), 1.0)


def moment_scale(d: DerivedConeData) -> float:
    """max(|C|, |A_j|, |B_j|), or 1 for all-zero data.

    Level-set residuals are measured against this scale: rescaling the
    cone data by s > 0 leaves the level set's points unchanged and
    multiplies both Phi - C and the scale by s.
    """
    return _weight_arrays(d).scale


def _moment(fd: _FloatData, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Phi over the last axis: (..., 3) complex pairs to (..., 2) floats.

    Elementwise sums, not BLAS matrix-vector products, whose kernel (and so
    the last bits of a row) depends on the number of rows in the stack.
    """
    z2 = np.abs(z) ** 2
    w2 = np.abs(w) ** 2
    return np.stack(
        [np.sum(z2 * fd.af + w2 * fd.bf, axis=-1), np.sum(z2 * fd.ag + w2 * fd.bg, axis=-1)], axis=-1
    )


def moment_map(d: DerivedConeData, p) -> np.ndarray:
    """Phi(z, w) = sum_j A_j |z_j|^2 + B_j |w_j|^2 as a float 2-vector.

    ``p`` may also be a pair of stacked (n, 3) arrays; the result is then
    (n, 2).
    """
    z, w = _as_zw(p)
    return _moment(_weight_arrays(d), z, w)


def _as_zw(p) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, LevelSetPoint):
        return p.z, p.w
    z, w = p
    return np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)


def _nonzero_factors(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per row: max |z_j| and max |w_j| both exceed ``_NONZERO_FLOOR``.

    A non-finite row fails too, so no NaN ever reaches a factorization.
    """
    return (np.max(np.abs(z), axis=-1) > _NONZERO_FLOOR) & (np.max(np.abs(w), axis=-1) > _NONZERO_FLOOR)


def _level_points(
    fd: _FloatData, z: np.ndarray, w: np.ndarray, tol: Tolerances
) -> list[LevelSetPoint | ValueError]:
    """Validate stacked (n, 3) rows; a failing row yields its error.

    The quadric residual |sum z_j w_j| is compared with ``tol.residual``
    and the moment residual |Phi - C| with ``tol.residual`` times the
    moment scale.
    """
    quad = np.abs(np.sum(z * w, axis=-1))
    mom = np.linalg.norm(_moment(fd, z, w) - fd.c, axis=-1)
    nonzero = _nonzero_factors(z, w)
    close = (quad <= tol.residual) & (mom <= tol.residual * fd.scale)
    out: list[LevelSetPoint | ValueError] = []
    for k in range(len(z)):
        res = (float(quad[k]), float(mom[k]))
        if not nonzero[k]:
            out.append(ValueError("z and w must both be nonzero on the quadric"))
        elif not close[k]:
            out.append(ValueError(f"point misses the level set: residuals {res}"))
        else:
            out.append(LevelSetPoint(z[k], w[k], res))
    return out


def _first_error(results: list) -> list:
    """Raise the error of the lowest failing row, as a sequential loop would."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def check_special_unitary(a: np.ndarray) -> None:
    a = np.asarray(a, dtype=complex)
    if a.shape != (3, 3):
        raise ValueError("a 3x3 matrix is required")
    if not np.all(np.isfinite(a)):  # before det, which warns on NaN
        raise ValueError(f"not special unitary within {_SU3_TOL}: non-finite entries")
    err = np.linalg.norm(a.conj().T @ a - np.eye(3))
    det_err = abs(np.linalg.det(a) - 1.0)
    if not (err <= _SU3_TOL and det_err <= _SU3_TOL):
        raise ValueError(f"not special unitary within {_SU3_TOL}: unitarity {err}, det {det_err}")


def random_su3(seed) -> np.ndarray:
    """Seeded Haar-like special unitary matrix (QR of a complex Gaussian,
    one column rephased to force determinant 1).

    ``seed`` is anything ``np.random.default_rng`` accepts; a Generator is
    drawn from in place, so successive calls give successive matrices.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    if np.min(np.abs(diag)) < 1e-12:
        raise RuntimeError("singular Gaussian draw")
    q = q * (diag / np.abs(diag))  # fix column phases (R diagonal positive)
    det = np.linalg.det(q)
    q[:, 0] /= det
    return q


def embed_su3(a: np.ndarray) -> LevelSetPoint:
    """Embed a special unitary matrix into the round level set.

    z is the first column of A and w the third column of the inverse
    transpose, which for unitary A is the entrywise conjugate, so
    sum |z|^2 = sum |w|^2 = 1 and sum z_j w_j = <col1, col3> = 0.
    """
    check_special_unitary(a)
    a = np.asarray(a, dtype=complex)
    z = a[:, 0].copy().reshape(1, 3)
    w = np.conj(a[:, 2]).reshape(1, 3)
    tol = Tolerances(residual=_SU3_TOL)
    return _first_error(_level_points(_weight_arrays(ROUND_DATA), z, w, tol))[0]


def _single_support(i: int, j: int, ab) -> tuple[np.ndarray, np.ndarray]:
    a, b = ab
    z = np.zeros(3, dtype=complex)
    w = np.zeros(3, dtype=complex)
    z[i - 1] = np.sqrt(float(a))
    w[j - 1] = np.sqrt(float(b))
    return z, w


# --- real-coordinate plumbing -------------------------------------------
# Layout: (Re z1, Im z1, ..., Re z3, Im z3, Re w1, Im w1, ..., Im w3).
# Every helper acts on the last axis, so stacks of points need no loop.


def _c2r(v: np.ndarray) -> np.ndarray:
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    out[..., 0::2] = v.real
    out[..., 1::2] = v.imag
    return out


def _r2c(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product: (..., m, k) @ (..., k) -> (..., m)."""
    return (a @ v[..., None])[..., 0]


def _constraints(fd: _FloatData, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    h = np.sum(z * w, axis=-1)
    m = _moment(fd, z, w) - fd.c
    return np.stack([h.real, h.imag, m[..., 0], m[..., 1]], axis=-1)


def _jacobian(fd: _FloatData, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(..., 4, 12) Jacobians; each row is the real form of a complex 6-vector.

    h = sum z_j w_j is complex-bilinear, so d(Re h) = (conj w, conj z) and
    d(Im h) = i (conj w, conj z); the moment rows are gradients of weighted
    square moduli, 2 A_j z_j and 2 B_j w_j per component.
    """
    zc, wc = np.conj(z), np.conj(w)
    rows = np.stack(
        [
            np.concatenate([wc, zc], axis=-1),
            np.concatenate([1j * wc, 1j * zc], axis=-1),
            np.concatenate([2 * fd.af * z, 2 * fd.bf * w], axis=-1),
            np.concatenate([2 * fd.ag * z, 2 * fd.bg * w], axis=-1),
        ],
        axis=-2,
    )
    return _c2r(rows)


def constraint_values(d: DerivedConeData, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F = (Re sum z_j w_j, Im sum z_j w_j, Phi - C) in R^4."""
    return _constraints(_weight_arrays(d), np.asarray(z), np.asarray(w))


_PINV_RCOND = 1e-15  # np.linalg.pinv's default cutoff, relative to the largest singular value


def _gauss_newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions of J step = -F for (m, 4, 12) J and (m, 4) F.

    With J^T = Q R (thin QR), step = Q y where R^T y = -F, solved by forward
    substitution. A row whose R has a diagonal entry at or below pinv's
    cutoff (|J|_F bounding the largest singular value) is rank-deficient or
    nearly so; it takes the step of ``pinv`` instead, as lstsq would.
    """
    q, r = np.linalg.qr(_t(jac))
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    weak = np.any(diag <= _PINV_RCOND * np.linalg.norm(jac, axis=(-2, -1))[:, None], axis=-1)
    step = np.empty((len(f), 12))
    if weak.any():
        step[weak] = _mv(np.linalg.pinv(jac[weak]), -f[weak])
    strong = ~weak
    lower, y = _t(r[strong]), -f[strong]
    for i in range(4):
        y[:, i] = (y[:, i] - np.sum(lower[:, i, :i] * y[:, :i], axis=-1)) / lower[:, i, i]
    step[strong] = _mv(q[strong], y)
    return step


def project_points(
    d: DerivedConeData,
    z0,
    w0,
    tol: float = 1e-12,
    max_iter: int = 50,
    tolerances: Tolerances = Tolerances(),
) -> list[LevelSetPoint]:
    """Gauss-Newton projection of n ambient points (z0, w0 of shape (n, 3)).

    Takes minimum-norm steps delta = -J^+ F, from a QR of J^T (``pinv`` on
    rank-deficient rows only); near a regular point the iteration converges
    quadratically. Each row runs up to ``max_iter`` rounds of "stop once
    |F| <= tol, else step, then check for a collapsed factor"; a start
    already within ``tol`` is returned unchanged, and a row's path does not
    depend on the rest of the stack. ``tol`` is relative: F is taken on the
    cone data divided by :func:`moment_scale`. Converged points are accepted
    against ``tolerances``: both factors nonzero, the quadric residual
    |sum z_j w_j| at most ``tolerances.residual`` and the moment residual
    |Phi - C| at most that times the moment scale. Raises the error of
    the lowest-index row that starts with or collapses to a zero factor,
    stalls, or misses the level set.
    """
    fd = _weight_arrays(d)
    z = np.array(z0, dtype=complex).reshape(-1, 3)
    w = np.array(w0, dtype=complex).reshape(-1, 3)
    start_ok = _nonzero_factors(z, w)
    out: list = [None if ok else ValueError("starting point must have nonzero z and w") for ok in start_ok]
    unit = _unit(fd)
    active = np.flatnonzero(start_ok)
    converged = np.zeros(len(z), dtype=bool)
    for _ in range(max_iter):
        za, wa = z[active], w[active]
        f = _constraints(unit, za, wa)
        left = np.linalg.norm(f, axis=-1) > tol
        converged[active[~left]] = True
        active, za, wa, f = active[left], za[left], wa[left], f[left]
        if not active.size:
            break
        step = _gauss_newton_steps(_jacobian(unit, za, wa), f)
        v = _r2c(_c2r(np.concatenate([za, wa], axis=-1)) + step)
        z[active], w[active] = v[:, :3], v[:, 3:]
        ok = _nonzero_factors(v[:, :3], v[:, 3:])
        for k in active[~ok]:
            out[k] = RuntimeError("projection collapsed a factor toward zero")
        active = active[ok]
    for k in active:
        out[k] = RuntimeError(f"no convergence to {tol} within {max_iter} iterations")
    done = np.flatnonzero(converged)
    for k, point in zip(done, _level_points(fd, z[done], w[done], tolerances)):
        out[k] = point
    return _first_error(out)


def project_to_level(
    d: DerivedConeData,
    z0,
    w0,
    tol: float = 1e-12,
    max_iter: int = 50,
    tolerances: Tolerances = Tolerances(),
) -> LevelSetPoint:
    """:func:`project_points` for one starting point."""
    z0 = np.asarray(z0, dtype=complex).reshape(1, 3)
    w0 = np.asarray(w0, dtype=complex).reshape(1, 3)
    return project_points(d, z0, w0, tol, max_iter, tolerances)[0]


def _frame(fd: _FloatData, z: np.ndarray, w: np.ndarray):
    """Orbit fields X, Y and the transverse frame Z = X + JY, W = JX - Y.

    X and Y are the closed-form rotation fields of the two moment-map
    components: the z_j component of X is i * A_j[0] * z_j, of Y is
    i * A_j[1] * z_j, and likewise with B_j on w. W = J Z holds exactly,
    and the induced structure on the level set rotates X -> Y -> -X.
    """
    x6 = np.concatenate([1j * fd.af * z, 1j * fd.bf * w], axis=-1)
    y6 = np.concatenate([1j * fd.ag * z, 1j * fd.bg * w], axis=-1)
    z6 = x6 + 1j * y6
    w6 = 1j * x6 - y6
    return x6, y6, z6, w6


@dataclass
class PointCertificate:
    """Outcome of the pointwise transverse-Kahler checks.

    ``positivity_spectrum`` holds the 8 ascending eigenvalues of the
    symmetrized form omega(J_N u, v) on the tangent space of the level
    set; a passing certificate has exactly 2 near-zero eigenvalues (the
    orbit directions) and 6 comfortably positive ones.
    """

    regular: bool
    transversal: bool
    jacobian_rank: int
    combined_rank: int
    jn_square_error: float
    jn_xy_error: float
    omega_compat_error: float
    positivity_spectrum: tuple[float, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "transversal": self.transversal,
            "jacobian_rank": self.jacobian_rank,
            "combined_rank": self.combined_rank,
            "jn_square_error": self.jn_square_error,
            "jn_xy_error": self.jn_xy_error,
            "omega_compat_error": self.omega_compat_error,
            "positivity_spectrum": list(self.positivity_spectrum),
            "pass": self.passed,
        }


# Multiplication by i in real coordinates, (re, im) -> (-im, re). The Gram
# matrix of omega, omega(u, v) = u^T _OMEGA12 v, has the same blocks.
_J12 = np.kron(np.eye(6, dtype=int), [[0, -1], [1, 0]]).astype(float)
_OMEGA12 = _J12


def certify_points(
    d: DerivedConeData,
    points,
    tol: Tolerances = Tolerances(),
) -> list[PointCertificate]:
    """Run every pointwise check of the transverse Kahler construction.

    Steps, each one stacked call over all points: (a) the SVD of the 4x12
    constraint Jacobians, whose rank decides regularity (iff 4) and whose
    right factor splits R^12 into the tangent basis Q (last 8 rows) and
    the normal basis N (first 4 rows); (b) transversality, the rank of
    [Q | Z W] (iff 10), read off a 6x4 matrix: with Q^T [Z W] = P R (thin
    QR) and Nb = N^T [Z W], the matrix [Q | Z W] is [[I8, P R], [0, Nb]]
    in the basis (Q, N), so its singular values are six 1's and those of
    [[I2, R], [0, Nb]]; (c) J_N, the projection of J u back into the kernel
    along span{Z, W}, from the least-squares solve [Q | Z W] [k; b] = J Q:
    b minimizes |Nb b - N^T J Q| (QR of Nb) and k = Q^T (J Q - [Z W] b);
    (d) operator errors |J_N^2 + 1|, |J_N X - Y| + |J_N Y + X| and omega
    compatibility, the two spectral norms as square roots of the top
    eigenvalues of A^T A; (e) eigenvalues of the symmetrized
    omega(J_N -, -). Steps (d) and (e) share one ``eigvalsh`` call.

    All of it runs on the cone data divided by :func:`moment_scale`, which
    changes no rank, J_N or spectrum but makes the certificate invariant
    under rescaling the data; |J_N X - Y| + |J_N Y + X| is thereby measured
    relative to that scale.

    Rank failures are reported in the certificate, not raised; such a
    point leaves the stack at the step that fails it, so no later
    factorization sees its degenerate matrices.
    """
    certs: list = [None] * len(points)
    if not certs:
        return certs
    fd = _unit(_weight_arrays(d))
    z = np.array([p.z for p in points])
    w = np.array([p.w for p in points])
    _, s, vt = np.linalg.svd(_jacobian(fd, z, w))
    smax = np.where(s[:, 0] > 0, s[:, 0], 1.0)
    jac_rank = np.sum(s > tol.rank_rel * smax[:, None], axis=1)
    for i in np.flatnonzero(jac_rank < 4):
        certs[i] = PointCertificate(
            False, False, int(jac_rank[i]), 0, np.inf, np.inf, np.inf, (), False
        )
    idx = np.flatnonzero(jac_rank == 4)
    if not idx.size:
        return certs
    qt, nt = vt[idx, 4:], vt[idx, :4]  # m x 8 x 12 tangent rows, m x 4 x 12 normal rows

    x6, y6, z6, w6 = _frame(fd, z[idx], w[idx])
    zw = np.stack([_c2r(z6), _c2r(w6)], axis=-1)  # m x 12 x 2
    qzw, nb = qt @ zw, nt @ zw
    small = np.zeros((len(idx), 6, 4))  # [[I2, R], [0, Nb]] with Q^T [Z W] = P R
    small[:, :2, :2] = np.eye(2)
    small[:, :2, 2:] = np.linalg.qr(qzw, mode="r")
    small[:, 2:, 2:] = nb
    s2 = np.linalg.svd(small, compute_uv=False)
    cutoff = tol.rank_rel * np.maximum(s2[:, 0], 1.0)  # the largest of all ten
    combined_rank = 6 * (cutoff < 1.0) + np.sum(s2 > cutoff[:, None], axis=1)
    for i, rank in zip(idx, combined_rank):
        if rank != 10:
            certs[i] = PointCertificate(
                True, False, 4, int(rank), np.inf, np.inf, np.inf, (), False
            )
    keep = combined_rank == 10
    if not keep.any():
        return certs
    idx, qt, nt, qzw, nb = idx[keep], qt[keep], nt[keep], qzw[keep], nb[keep]
    q = _t(qt)
    xr, yr = _c2r(x6[keep]), _c2r(y6[keep])

    # J_N on the kernel basis: [Q | Z W] [k; b] = J Q in least squares;
    # rank 10 makes Nb of rank 2, so its R is invertible
    jq = _J12 @ q
    qn, rn = np.linalg.qr(nb)
    b = np.linalg.solve(rn, _t(qn) @ (nt @ jq))
    k = qt @ jq - qzw @ b
    kt = _t(k)

    xi, eta = _mv(qt, xr), _mv(qt, yr)
    jn_xy_error = np.linalg.norm(_mv(q, _mv(k, xi)) - yr, axis=-1) + np.linalg.norm(
        _mv(q, _mv(k, eta)) + xr, axis=-1
    )
    omega_n = qt @ _OMEGA12 @ q
    square = k @ k + np.eye(8)
    compat = kt @ omega_n @ k - omega_n
    qform = kt @ omega_n  # q(u, v) = omega(J_N u, v) in the kernel basis
    eig = np.linalg.eigvalsh(
        np.concatenate([_t(square) @ square, _t(compat) @ compat, 0.5 * (qform + _t(qform))])
    )
    n = len(idx)
    jn_square_error, omega_compat_error = np.sqrt(np.maximum(eig[: 2 * n, -1], 0.0)).reshape(2, n)
    spectrum = eig[2 * n :]
    zero_count = np.sum(np.abs(spectrum) <= tol.zero, axis=1)
    pos_count = np.sum(spectrum >= tol.pos * spectrum[:, -1:], axis=1)
    passed = (
        (jn_square_error <= _OPERATOR_TOL)
        & (jn_xy_error <= _OPERATOR_TOL)
        & (omega_compat_error <= _OPERATOR_TOL)
        & (zero_count == 2)
        & (pos_count == 6)
    )
    for m, i in enumerate(idx):
        certs[i] = PointCertificate(
            True,
            True,
            4,
            10,
            float(jn_square_error[m]),
            float(jn_xy_error[m]),
            float(omega_compat_error[m]),
            tuple(spectrum[m].tolist()),
            bool(passed[m]),
        )
    return certs


def certify_point(
    d: DerivedConeData,
    p: LevelSetPoint,
    tol: Tolerances = Tolerances(),
) -> PointCertificate:
    """:func:`certify_points` for one point."""
    return certify_points(d, [p], tol)[0]


def certification_sample(
    d: DerivedConeData, n: int, seed, tol: Tolerances = Tolerances()
) -> list[LevelSetPoint]:
    """Deterministic batch of n level-set points for certification.

    Builds n starts and projects them in one :func:`project_points` call.
    Start k < m is the k-th exact single-support seed (``mixed_witnesses``
    order). A later start is seed k % m plus ``_SAMPLE_NOISE`` times one
    Gaussian row in the real coordinate layout, or, for the round
    normalization at k % 3 == 2, an embedded random special unitary matrix.
    Seeds and embeddings already meet the stopping residual, so they stay
    in place. Only when n > m are two children of ``SeedSequence(seed)``
    made: one normal draw for the perturbed starts and one generator for
    the embedded matrices, drawn in order. The first points of a larger
    sample equal the smaller sample. Every point is accepted against
    ``tol.residual``; an embedding error raises while its start is built,
    otherwise the error of the lowest-index point is raised.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    witnesses = d.mixed_witnesses
    if not witnesses:
        raise ValueError("no realizable single-support point; nothing to sample")
    m = len(witnesses)
    seeds = np.array([np.concatenate(_single_support(i, j, (a, b))) for i, j, a, b in witnesses])
    starts = seeds[np.arange(n) % m]
    if n > m:
        noise_seq, su3_seq = np.random.SeedSequence(seed).spawn(2)
        later = np.arange(m, n)
        embed = (later % 3 == 2) & (d == ROUND_DATA)
        embedded, perturbed = later[embed], later[~embed]
        noise = np.random.default_rng(noise_seq).standard_normal((len(perturbed), 12))
        starts[perturbed] = _r2c(_c2r(starts[perturbed]) + _SAMPLE_NOISE * noise)
        su3_rng = np.random.default_rng(su3_seq)
        for k in embedded:
            p = embed_su3(random_su3(su3_rng))
            starts[k] = np.concatenate([p.z, p.w])
    return project_points(d, starts[:, :3], starts[:, 3:], tolerances=tol)
