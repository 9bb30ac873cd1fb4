"""Floating-point model of the quadric in C^6 and pointwise certificates.

The ambient space is C^3 x C^3 with coordinates (z, w), carrying the
Kahler form

    omega(u, v) = sum_k Im(u_k * conj(v_k)),

oriented so that omega(J u, u) = |u|^2 > 0 for the complex structure
J = multiplication by i. The quadric is sum_j z_j w_j = 0 with z, w != 0,
and for cone data (A, B, C) the moment map is

    Phi(z, w) = sum_j A_j |z_j|^2 + B_j |w_j|^2.

Points of the level set M = {Phi = C, sum z_j w_j = 0} are sampled in
closed form, by Kahler reduction (Guillemin and Sternberg, Invent. Math.
67, 1982): the phase torus T^4, z_k -> e^{i theta_k} z_k and w_k ->
e^{i(c - theta_k)} w_k, acts on M, and M/T^4 is the polytope of
(r, s) = (|z|^2, |w|^2) >= 0 with sum_k r_k A_k + s_k B_k = C, cut by
Heron's inequality on t_k = r_k s_k (the sqrt(t_k) are the sides of a
triangle). :func:`certification_sample` draws points of that region and
lifts each to one point of its T^4 orbit with +, -, *, / and sqrt.
:func:`certify_points` then checks the linear-algebra content of the
transverse Kahler construction at each point: constraint regularity,
transversality of the rotated frame, the induced complex structure
squaring to -1 and rotating the orbit directions, omega compatibility,
and positive semidefiniteness of omega(J_N -, -) with a 2-dimensional
kernel along the orbit. :func:`project_to_level` is a library function
that ``verify`` does not call: Gauss-Newton from one ambient point.

Certification runs as one batch over a stack of points: each step is a
single stacked numpy/LAPACK call, and :func:`certify_point` is
:func:`certify_points` with a stack of one. A stack of points is one
complex (n, 6) state array of rows (z_1, z_2, z_3, w_1, w_2, w_3); its
memory order is the real coordinate layout (Re z_1, Im z_1, ..., Im w_3),
so ``x.view(float)`` is the real form of a contiguous stack without a
copy, and complex vectors and Jacobian rows are read as real ones that
way. Row outputs are read as columns: one ``tolist()`` per residual,
verdict or certificate field, not one conversion per row.

Exact numbers enter here once per cone data object: :func:`_float_data`
reads A, B and C, the integer mixed witnesses and the integer apex
functional of :class:`~su3kahler.weights.DerivedConeData`, and turns each
quotient n/den into a float by one correctly rounded int division, the
float ``float(Fraction(n, den))`` gives, without building a ``Fraction``.
The range check, the sample's vertices and seeds, certificates and the
boundedness residual all read that one conversion.

Everything here is float; all exact decisions live in the other modules.
This module and the integer-array search of :mod:`su3kahler.weights`
are the only users of numpy. Nothing imports this module at start-up:
the package resolves its names here on first access, and the CLI
imports it only for ``verify``, so the exact commands never load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conegeom import _check_int
from .weights import DerivedConeData, cone_data, positive_combination  # noqa: F401 (re-exported)

__all__ = [
    "ROUND_DATA",
    "Tolerances",
    "LevelSetPoint",
    "moment_map",
    "project_to_level",
    "moment_scale",
    "check_float_range",
    "boundedness_residual",
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
_OPERATOR_TOL = 1e-8   # operator identity errors of a passing certificate
_SAMPLE_CHUNK = 128    # vertex mixtures certification_sample draws per round
_SAMPLE_PATIENCE = 32  # rounds in a row without an accepted mixture before it gives up


@dataclass
class LevelSetPoint:
    z: np.ndarray  # shape (3,), complex
    w: np.ndarray  # shape (3,), complex
    residuals: tuple[float, float]  # (|sum z_j w_j|, |Phi - C|)


class _FloatData(NamedTuple):
    """The float form of one cone data object, made by :func:`_float_data`
    and shared through :func:`_weight_arrays`; read-only, since every
    reader shares it."""

    fg: np.ndarray  # (2, 6): row k holds component k of A_1, A_2, A_3, B_1, B_2, B_3,
    #                 the weights of z_1, z_2, z_3, w_1, w_2, w_3 in Phi's component k
    c: np.ndarray   # C as a float 2-vector
    scale: float    # moment scale, see :func:`moment_scale`
    # fg divided by the scale. Certificates and the projection's Jacobian
    # run on it: the level set, its tangent spaces and J_N are unchanged,
    # while ranks, steps and operator errors become invariant under
    # rescaling the cone data.
    unit_fg: np.ndarray
    # (m + 3, 6): the (r_1, r_2, r_3, s_1, s_2, s_3) = (|z|^2, |w|^2) of the
    # slice's vertices, r_i = a and s_j = b per mixed witness (i, j, a, b),
    # then the three diagonals r_i = s_i = 1 (C = A_i + B_i)
    vertices: np.ndarray
    seeds: np.ndarray  # (m, 6) complex: z_i = sqrt(a), w_j = sqrt(b) per mixed witness (i, j, a, b)
    apex: tuple[float, float, float] | None  # (alpha_1, alpha_2, alpha(C)) of the apex functional


def _float_data(d: DerivedConeData) -> _FloatData:
    """d's float data, raising ValueError unless every number is finite as
    a float: each entry of A, B and C, the moment scale, each coefficient
    of a mixed witness, and the apex functional and its norm times the
    moment scale. Witness coefficients and the apex functional come from
    the integer evidence ``d._witness_evidence`` and ``d._apex``, each
    quotient one int division; alpha(C) is read off the sign table's
    cleared C, so it too is one."""
    try:
        abc = np.array([*d.a, *d.b, d.c], dtype=float)
        scale = max(math.hypot(*v) for v in abc.tolist()) or 1.0
        m = len(d._witness_evidence)
        vertices = np.zeros((m + 3, 6))
        vertices[m:] = np.tile(np.eye(3), 2)  # the diagonals r_i = s_i = 1
        for row, (i, j, na, nb, den) in zip(vertices, d._witness_evidence):
            row[i - 1], row[j + 2] = na / den, nb / den
        x, y, den = d._apex or (0, 0, 1)  # alpha = 0 without an apex functional
        alpha = (x / den, y / den)
        if not math.isfinite(scale):
            raise ValueError("cone data outside the float range: moment scale overflows")
        if not math.isfinite(scale * math.hypot(*alpha)):
            raise ValueError("cone data outside the float range: moment scale times |apex functional| overflows")
        (cx, cy), clearing = d.sign_table.vectors[-1], d.sign_table.scale  # C times the clearing factor
        apex = None if d._apex is None else (*alpha, (x * cx + y * cy) / (den * clearing))
    except OverflowError as exc:
        raise ValueError(f"cone data outside the float range: {exc}") from exc
    fg, c = np.ascontiguousarray(abc[:6].T), abc[6]
    seeds = np.sqrt(vertices[:m]).astype(complex)
    fd = _FloatData(fg, c, scale, fg / scale, vertices, seeds, apex)
    for arr in (fd.fg, fd.c, fd.unit_fg, fd.vertices, fd.seeds):
        arr.setflags(write=False)
    return fd


# The last cone data object converted, with its float data.
_last_conversion: tuple = (None, None)


def _weight_arrays(d: DerivedConeData) -> _FloatData:
    """d's float data, converted by :func:`_float_data` unless d is the
    object converted last: a verify command reads one object four times
    (range check, the sample, certificates and boundedness residual) and
    converts it once."""
    global _last_conversion
    last, fd = _last_conversion
    if last is not d:
        fd = _float_data(d)
        _last_conversion = (d, fd)
    return fd


def moment_scale(d: DerivedConeData) -> float:
    """max(|C|, |A_j|, |B_j|), or 1 for all-zero data.

    Level-set residuals are measured against this scale: rescaling the
    cone data by s > 0 leaves the level set's points unchanged and
    multiplies both Phi - C and the scale by s.
    """
    return _weight_arrays(d).scale


def _moment(fg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Phi over the last axis, for the (2, 6) weights fg: (..., 6) complex
    states to (..., 2) floats.

    Component k is sum_j (|z_j|^2 A_j[k] + |w_j|^2 B_j[k]): elementwise
    sums, not BLAS matrix-vector products, whose kernel (and so the last
    bits of a row) depends on the number of rows in the stack.
    """
    t = (np.abs(x) ** 2)[..., None, :] * fg
    return (t[..., :3] + t[..., 3:]).sum(axis=-1)


def moment_map(d: DerivedConeData, p) -> np.ndarray:
    """Phi(z, w) = sum_j A_j |z_j|^2 + B_j |w_j|^2 as a float 2-vector.

    ``p`` may also be a pair of stacked (n, 3) arrays; the result is then
    (n, 2).
    """
    return _moment(_weight_arrays(d).fg, _state(p))


def check_float_range(d: DerivedConeData) -> None:
    """Raise ValueError unless every exact number that sampling and
    :func:`boundedness_residual` turn into floats is finite as a float: the
    entries of A, B and C, the moment scale, the coefficients of the mixed
    witnesses, and the apex functional and its norm times the moment
    scale. This is d's one float conversion, which the rest of ``verify``
    then reads."""
    _weight_arrays(d)


def boundedness_residual(d: DerivedConeData, points) -> tuple[float, bool]:
    """max |alpha(Phi(p)) - alpha(C)| over the points, for alpha the apex
    functional of d, and whether it is at most 1e-10 * |alpha| *
    :func:`moment_scale`: a scale-covariant restatement of the moment
    residual. (0.0, True) for data without an apex functional. alpha and
    alpha(C) are the floats of d's one conversion."""
    fd = _weight_arrays(d)
    if fd.apex is None:
        return 0.0, True
    a1, a2, rhs = fd.apex
    phi = _moment(fd.fg, _stack(points))
    residual = float(np.max(np.abs(a1 * phi[:, 0] + a2 * phi[:, 1] - rhs)))
    return residual, residual <= 1e-10 * (math.hypot(a1, a2) * fd.scale)


def _state(p) -> np.ndarray:
    """The complex state (z, w) of a point, or of a pair of stacked (n, 3)
    arrays, as (..., 6)."""
    if isinstance(p, LevelSetPoint):
        return np.concatenate([p.z, p.w])
    z, w = p
    return np.concatenate([np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)], axis=-1)


def _stack(points) -> np.ndarray:
    """The (n, 6) states of n >= 1 points, joined in one call."""
    return np.concatenate([v for p in points for v in (p.z, p.w)]).reshape(-1, 6)


def _usable(x: np.ndarray) -> np.ndarray:
    """Per row of (n, 6) states: max |z_j| and max |w_j| both exceed
    ``_NONZERO_FLOOR`` and are finite. A row holding an infinity or a NaN
    fails, so no non-finite value ever reaches a factorization."""
    top = np.abs(x).reshape(-1, 2, 3).max(axis=-1)
    return ((top > _NONZERO_FLOOR) & (top < math.inf)).all(axis=-1)


def _level_points(fd: _FloatData, x: np.ndarray, tol: Tolerances) -> list[LevelSetPoint | ValueError]:
    """Validate (n, 6) states; a failing row yields its error.

    The quadric residual |sum z_j w_j| is compared with ``tol.residual``
    and the moment residual |Phi - C| with ``tol.residual`` times the
    moment scale. Each residual and verdict is read as one column; a
    point's z and w are views of its row of ``x``.
    """
    z, w = x[:, :3], x[:, 3:]
    quad = np.abs((z * w).sum(axis=-1))
    mom = _norm(_moment(fd.fg, x) - fd.c, -1)
    usable = _usable(x)
    close = (quad <= tol.residual) & (mom <= tol.residual * fd.scale)
    out: list[LevelSetPoint | ValueError] = []
    for zk, wk, res, ok, near in zip(z, w, zip(quad.tolist(), mom.tolist()), usable.tolist(), close.tolist()):
        if not ok:
            out.append(ValueError("z and w must both be finite and nonzero on the quadric"))
        elif not near:
            out.append(ValueError(f"point misses the level set: residuals {res}"))
        else:
            out.append(LevelSetPoint(zk, wk, res))
    return out


def _first_error(results: list) -> list:
    """Raise the error of the lowest failing row, as a sequential loop would."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


# --- real-coordinate plumbing -------------------------------------------
# Layout: (Re z1, Im z1, ..., Re z3, Im z3, Re w1, Im w1, ..., Im w3), the
# memory order of a complex (..., 6) state, so ``x.view(float)`` is the
# real form of a contiguous x without a copy. Every helper acts on the
# last axes, so stacks of points need no loop.


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def _norm(a: np.ndarray, axis) -> np.ndarray:
    """The 2-norm of real vectors (one axis) or Frobenius norm of real
    matrices (two axes) over ``axis``, the sum of squares and square root
    of ``np.linalg.norm`` without its argument handling."""
    return np.sqrt(np.add.reduce(a * a, axis=axis))


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product: (..., m, k) @ (..., k) -> (..., m)."""
    return (a @ v[..., None])[..., 0]


def _jacobian(fg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(m, 4, 12) Jacobians at (m, 6) states for weights fg; each row is
    the real form of a complex 6-vector, filled in place in a complex
    (m, 4, 6) stack and read through its real view.

    h = sum z_j w_j is complex-bilinear, so d(Re h) = (conj w, conj z) and
    d(Im h) = i (conj w, conj z); the moment rows are gradients of weighted
    square moduli, 2 A_j z_j and 2 B_j w_j per component.
    """
    rows = np.empty((len(x), 4, 6), dtype=complex)
    xc = np.conj(x)
    rows[:, 0, :3], rows[:, 0, 3:] = xc[:, 3:], xc[:, :3]
    rows[:, 1] = 1j * rows[:, 0]
    rows[:, 2:] = (2 * fg) * x[:, None, :]
    return rows.view(float)


def constraint_values(d: DerivedConeData, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F = (Re sum z_j w_j, Im sum z_j w_j, Phi - C) in R^4."""
    fd = _weight_arrays(d)
    x = _state((z, w))
    h = (x[..., :3] * x[..., 3:]).sum(axis=-1)
    return np.concatenate([h[..., None].view(float), _moment(fd.fg, x) - fd.c], axis=-1)


def project_to_level(
    d: DerivedConeData,
    z0,
    w0,
    tol: float = 1e-12,
    max_iter: int = 50,
    tolerances: Tolerances = Tolerances(),
) -> LevelSetPoint:
    """Gauss-Newton projection of one ambient point (z0, w0) to the level set.

    Each of up to ``max_iter`` rounds reads F from one
    :func:`constraint_values` call, its moment rows divided by
    :func:`moment_scale` (so ``tol`` is relative), stops once |F| <= tol,
    and else steps by -J^+ F, the minimum-norm ``lstsq`` solution on the
    unit Jacobian, which covers rank-deficient (collinear) data too. A
    start within ``tol`` comes back unchanged; the result is accepted
    against ``tolerances`` as :func:`certification_sample`'s points are.
    Raises ValueError for a start with a zero factor or a non-finite entry
    and for a point that misses the level set, and RuntimeError for a step
    that collapses a factor or leaves the finite range and for no
    convergence.
    """
    fd = _weight_arrays(d)
    x = _state((z0, w0)).reshape(1, 6)
    if not _usable(x)[0]:
        finite = np.isfinite(x).all()
        raise ValueError("starting point must have nonzero z and w" if finite else "starting point must be finite")
    rows = np.array([1.0, 1.0, fd.scale, fd.scale])
    for _ in range(max_iter):
        f = constraint_values(d, x[0, :3], x[0, 3:]) / rows
        if _norm(f, -1) <= tol:
            return _first_error(_level_points(fd, x, tolerances))[0]
        x.view(float)[0] += np.linalg.lstsq(_jacobian(fd.unit_fg, x)[0], -f, rcond=None)[0]
        if not _usable(x)[0]:
            finite = np.isfinite(x).all()
            raise RuntimeError(
                "projection collapsed a factor toward zero" if finite else "projection left the finite range"
            )
    raise RuntimeError(f"no convergence to {tol} within {max_iter} iterations")


def _frame(fg: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbit fields X, Y and the transverse frame Z = X + JY, W = JX - Y
    at (m, 6) states, for weights fg: X and Y as one complex (m, 2, 6)
    stack, and Z and W in the real layout as the columns of a real
    (m, 12, 2) stack.

    X and Y are the closed-form rotation fields of the two moment-map
    components: the z_j component of X is i * A_j[0] * z_j, of Y is
    i * A_j[1] * z_j, and likewise with B_j on w. W = J Z holds exactly,
    and the induced structure on the level set rotates X -> Y -> -X.
    """
    xy = (1j * fg) * x[:, None, :]
    x6, y6 = xy[:, 0], xy[:, 1]
    return xy, np.stack([(x6 + 1j * y6).view(float), (1j * x6 - y6).view(float)], axis=-1)


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
_I2, _I8 = np.eye(2), np.eye(8)

# Points per stacked pass of certify_points: a stack's factorizations take
# about 9 KB per point, so a longer stack is certified in blocks of this
# many rows (every row's certificate is independent of the others).
_CERTIFY_BLOCK = 1024


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
    factorization sees its degenerate matrices. Stacks longer than
    ``_CERTIFY_BLOCK`` run block by block, which bounds the memory of a
    large sample and changes no certificate.
    """
    fg = _weight_arrays(d).unit_fg
    certs: list = []
    for start in range(0, len(points), _CERTIFY_BLOCK):
        certs += _certify_block(fg, points[start:start + _CERTIFY_BLOCK], tol)
    return certs


def _certify_block(fg: np.ndarray, points, tol: Tolerances) -> list[PointCertificate]:
    """:func:`certify_points` for one stack, on the unit weights fg.

    A row leaves the stack only at the rank test it fails; while every row
    passes, each step reads the whole stack without a copy. The outputs are
    read as columns, one ``tolist`` each.
    """
    x = _stack(points)
    certs: list = [None] * len(x)
    _, s, vt = np.linalg.svd(_jacobian(fg, x))
    smax = np.where(s[:, 0] > 0, s[:, 0], 1.0)
    jac_rank = (s > tol.rank_rel * smax[:, None]).sum(axis=1)
    idx = np.flatnonzero(jac_rank == 4)
    if idx.size < len(x):
        low = np.flatnonzero(jac_rank < 4)
        for i, rank in zip(low.tolist(), jac_rank[low].tolist()):
            certs[i] = PointCertificate(False, False, rank, 0, math.inf, math.inf, math.inf, (), False)
        if not idx.size:
            return certs
        vt, x = vt[idx], x[idx]
    qt, nt = vt[:, 4:], vt[:, :4]  # m x 8 x 12 tangent rows, m x 4 x 12 normal rows

    xy, zw = _frame(fg, x)
    qzw, nb = qt @ zw, nt @ zw
    small = np.zeros((len(idx), 6, 4))  # [[I2, R], [0, Nb]] with Q^T [Z W] = P R
    small[:, :2, :2] = _I2
    small[:, :2, 2:] = np.linalg.qr(qzw, mode="r")
    small[:, 2:, 2:] = nb
    s2 = np.linalg.svd(small, compute_uv=False)
    cutoff = tol.rank_rel * np.maximum(s2[:, 0], 1.0)  # the largest of all ten
    combined_rank = 6 * (cutoff < 1.0) + (s2 > cutoff[:, None]).sum(axis=1)
    keep = combined_rank == 10
    if not keep.all():
        for i, rank in zip(idx[~keep].tolist(), combined_rank[~keep].tolist()):
            certs[i] = PointCertificate(True, False, 4, rank, math.inf, math.inf, math.inf, (), False)
        if not keep.any():
            return certs
        idx, qt, nt, qzw, nb, xy = idx[keep], qt[keep], nt[keep], qzw[keep], nb[keep], xy[keep]
    q = _t(qt)
    xyr = xy.view(float)  # the real forms of X and Y, m x 2 x 12
    xr, yr = xyr[:, 0], xyr[:, 1]

    # J_N on the kernel basis: [Q | Z W] [k; b] = J Q in least squares;
    # rank 10 makes Nb of rank 2, so its R is invertible
    jq = _J12 @ q
    qn, rn = np.linalg.qr(nb)
    b = np.linalg.solve(rn, _t(qn) @ (nt @ jq))
    k = qt @ jq - qzw @ b
    kt = _t(k)

    xi, eta = _mv(qt, xr), _mv(qt, yr)
    jn_xy_error = _norm(_mv(q, _mv(k, xi)) - yr, -1) + _norm(_mv(q, _mv(k, eta)) + xr, -1)
    omega_n = qt @ _OMEGA12 @ q
    square = k @ k + _I8
    compat = kt @ omega_n @ k - omega_n
    qform = kt @ omega_n  # q(u, v) = omega(J_N u, v) in the kernel basis
    n = len(idx)
    gram = np.empty((3, n, 8, 8))  # the three stacks one eigvalsh call reads
    np.matmul(_t(square), square, out=gram[0])
    np.matmul(_t(compat), compat, out=gram[1])
    np.add(qform, _t(qform), out=gram[2])
    gram[2] *= 0.5
    eig = np.linalg.eigvalsh(gram.reshape(3 * n, 8, 8))
    jn_square_error, omega_compat_error = np.sqrt(np.maximum(eig[: 2 * n, -1], 0.0)).reshape(2, n)
    spectrum = eig[2 * n :]
    zero_count = (np.abs(spectrum) <= tol.zero).sum(axis=1)
    pos_count = (spectrum >= tol.pos * spectrum[:, -1:]).sum(axis=1)
    passed = (
        (jn_square_error <= _OPERATOR_TOL)
        & (jn_xy_error <= _OPERATOR_TOL)
        & (omega_compat_error <= _OPERATOR_TOL)
        & (zero_count == 2)
        & (pos_count == 6)
    )
    columns = (jn_square_error, jn_xy_error, omega_compat_error, spectrum, passed)
    for i, square_error, xy_error, compat_error, values, ok in zip(idx.tolist(), *(c.tolist() for c in columns)):
        certs[i] = PointCertificate(True, True, 4, 10, square_error, xy_error, compat_error, tuple(values), ok)
    return certs


def certify_point(
    d: DerivedConeData,
    p: LevelSetPoint,
    tol: Tolerances = Tolerances(),
) -> PointCertificate:
    """:func:`certify_points` for one point."""
    return certify_points(d, [p], tol)[0]


def _lift(weights: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The level-set points over the mixtures (r, s) = weights @ vertices
    whose t_k = r_k s_k pass Heron's test, in row order, as (k, 6) states.

    Each mixture is summed vertex by vertex, in order, so a row depends on
    its own weights alone and equals the same sum in Python floats.
    Heron's value H = 2(t_1 t_2 + t_2 t_3 + t_3 t_1) - sum t_k^2 is 16
    times the squared area of the triangle with sides m_k = sqrt(t_k); a
    row is kept when H > 0, which a non-finite H fails. The point over it
    is z_k = sqrt(r_k) and w_k = sqrt(s_k) p_k/|p_k|, for p_1 = m_1,
    p_2 = m_2 e^{i alpha} and p_3 = -p_1 - p_2, the triangle's sides as
    vectors: cos alpha = (t_3 - t_1 - t_2)/(2 m_1 m_2) closes it, so
    sum z_k w_k = sum p_k = 0, and |w_k|^2 = s_k. With
    sin alpha = sqrt(H)/(2 m_1 m_2), the p_k are taken times 2 m_1, which
    leaves each p_k/|p_k| unchanged: 2 t_1, (t_3 - t_1 - t_2) + i sqrt(H)
    and minus their sum. No trigonometric call is made, and sin alpha
    suffers no cancellation in 1 - cos^2 alpha.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H is rejected
        rs = weights[:, :1] * vertices[0]
        for k in range(1, len(vertices)):
            rs += weights[:, k : k + 1] * vertices[k]
        t1, t2, t3 = t = (rs[:, :3] * rs[:, 3:]).T
        heron = 2 * (t1 * t2 + t2 * t3 + t3 * t1) - (t1 * t1 + t2 * t2 + t3 * t3)
        keep = heron > 0
    t1, t2, t3 = t[:, keep]
    p = np.zeros((len(t1), 3, 2))  # 2 m_1 p_k as (Re, Im)
    p[:, 0, 0] = 2 * t1
    p[:, 1, 0], p[:, 1, 1] = t3 - t1 - t2, np.sqrt(heron[keep])
    p[:, 2] = -p[:, 0] - p[:, 1]
    root = np.sqrt(rs[keep])
    x = np.zeros((len(t1), 6, 2))  # the real layout, (Re, Im) per coordinate
    x[:, :3, 0] = root[:, :3]
    x[:, 3:] = root[:, 3:, None] * (p / _norm(p, -1)[..., None])
    return x.reshape(-1, 12).view(complex)


def _interior_states(fd: _FloatData, count: int, seed) -> np.ndarray:
    """``count`` level-set states drawn from the slice, as (count, 6).

    Rounds of ``_SAMPLE_CHUNK`` Dirichlet(1, ..., 1) weights on the
    vertices of ``fd`` come from one ``default_rng(SeedSequence(seed))``,
    each round is lifted by :func:`_lift`, and accepted points are taken in
    draw order. The round's size does not depend on ``count``, so a smaller
    count takes a prefix of a larger one. After ``_SAMPLE_PATIENCE`` rounds
    in a row with no accepted mixture it raises ValueError.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ones = np.ones(len(fd.vertices))
    found, idle = [], 0
    while count > 0:
        x = _lift(rng.dirichlet(ones, _SAMPLE_CHUNK), fd.vertices)
        idle = 0 if len(x) else idle + 1
        if idle == _SAMPLE_PATIENCE:
            raise ValueError(
                f"no vertex mixture passed Heron's test in {_SAMPLE_PATIENCE * _SAMPLE_CHUNK} draws in a row"
            )
        found.append(x[:count])
        count -= len(x)
    return np.concatenate(found)


def certification_sample(
    d: DerivedConeData, n: int, seed, tol: Tolerances = Tolerances()
) -> list[LevelSetPoint]:
    """Deterministic batch of n level-set points for certification.

    Point k < m is the k-th single-support seed of d's float data, z_i =
    sqrt(a) and w_j = sqrt(b) for the k-th mixed witness (i, j, a, b): the
    fixed points, where the Jacobian is the worst conditioned on the data
    measured so far. Each later point is built in closed form by
    :func:`_interior_states`: a Dirichlet(1, ..., 1) mixture of the
    slice's vertices (the mixed witnesses and the three diagonals
    r_i = s_i = 1), kept when the
    sqrt(r_k s_k) are the sides of a triangle, and lifted by
    :func:`_lift`. The moment equation is linear in (r, s), so every
    mixture meets it. A mixture stands for a whole T^4 orbit of points
    with the same (|z|^2, |w|^2), and the lift picks one point of it, with
    z real and w_1 real and positive: the sample is a section of the T^4
    orbits, which loses nothing, since T^4 acts unitarily and every
    certificate is invariant under it. Conjugation maps the section to the
    other orientation of the triangle. No iteration runs.

    The draws come from ``SeedSequence(seed)`` alone, and are made only
    when n > m, in rounds of a fixed size: a sample is reproducible, and
    the first points of a larger sample are the smaller sample. Every
    point is accepted against ``tol.residual``, and the error of the
    lowest-index point is raised; ValueError also when no mixture passes
    the triangle test in ``_SAMPLE_PATIENCE`` rounds in a row.
    """
    _check_int("sample count", n)
    if n < 1:
        raise ValueError("sample count must be >= 1")
    fd = _weight_arrays(d)
    m = len(fd.seeds)
    if not m:
        raise ValueError("no realizable single-support point; nothing to sample")
    x = fd.seeds[:n].copy() if n <= m else np.concatenate([fd.seeds, _interior_states(fd, n - m, seed)])
    return _first_error(_level_points(fd, x, tol))
