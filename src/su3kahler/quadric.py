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
triangle). :func:`certification_sample` draws points of that region,
and every point of it lies under a point of M (the README's orbit-space
proposition); a lift to one point of each T^4 orbit, with +, -, *, /
and sqrt, is made only when a caller reads the states.
:func:`certify_points` certifies each point's regularity, the rank of its
constraint Jacobian, exact from its support by the regularity lemma. By
the README's proposition (*Numerical certificates*), regularity at a
point of M fixes the rest of the transverse Kahler construction there
exactly: the rotated frame is transversal, the induced complex structure
J_N squares to -1, rotates the orbit directions and is omega-compatible,
and omega(J_N -, -) is the orthogonal projection onto a 6-dimensional
complement of the orbit.
:func:`project_to_level` is a library function that ``verify`` does not
call: Gauss-Newton from one ambient point.

Certification makes no factorization and builds no Jacobian: by the
README's Gram lemma, on the quadric sum z_j w_j = 0 the Gram matrix of the
4 x 12 constraint Jacobian is sum_k (|z_k|^2 + |w_k|^2) I_2 (+) G for a
2 x 2 block G whose determinant is a Cauchy-Binet sum of non-negative
terms, so :func:`certify_points` reads its singular values in closed
form, elementwise over all points, and :func:`certify_point` is
:func:`certify_points` with a stack of one. The closed form is exact on
the quadric alone: a point off it is refused. A stack of points is one
complex (n, 6) state array of rows (z_1, z_2, z_3, w_1, w_2, w_3); its
memory order is the real coordinate layout (Re z_1, Im z_1, ..., Im w_3),
so ``x.view(float)`` is the real form of a contiguous stack without a
copy, and complex vectors and the projection's Jacobian rows are read as
real ones that way. The certificates read only the squared moduli
rho = (r, s), and Phi reads only rho too, so a sample stays in the orbit
space from draw to certificate: :func:`certification_sample` returns a
:class:`LevelSample` of the validated (n, 6) rows (r, s), with |Phi - C|
as a column, and the certificates read the rows as they are. A row is
drawn in closed form, so its |Phi - C| is rounding alone, and it is
accepted against the README's forward error bound of that rounding
(:func:`_level_sample`), which no option sets. The bound holds the whole
vector Phi - C, so it bounds each of its components too; compactness
is ``check``'s exact apex functional, and no float here weighs it.
``verify`` builds no complex state: its states
are a view that :func:`_lift` makes from rho when a library caller reads
them. ``verify`` renders the ranks and margins as two columns
(:func:`_certificate_columns`) and builds no object per point; a
:class:`LevelSetPoint` or a :class:`PointCertificate` is made only when
a caller asks for one.

Exact numbers enter here once per cone data object: :func:`_float_data`
reads A, B and C and the integer mixed witnesses of
:class:`~su3kahler.weights.DerivedConeData`, and turns each quotient
n/den into a float by one correctly rounded int division, the float
``float(Fraction(n, den))`` gives, without building a ``Fraction``; so
are the squared crosses of the generators on the data divided by the
moment scale, which the certificates read. The range check, the sample's
vertices and the certificates all read that one conversion.

Everything here is float; all exact decisions live in the other modules.
This module and the integer-array search of :mod:`su3kahler.weights`
are the only users of numpy. Nothing imports this module at start-up:
the package resolves its names here on first access, and the CLI
imports it only for ``verify``, so the exact commands never load numpy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conegeom import _check_int
from .weights import DerivedConeData, cone_data, positive_combination  # noqa: F401 (re-exported)

__all__ = [
    "ROUND_DATA",
    "LevelSetPoint",
    "LevelSample",
    "moment_map",
    "project_to_level",
    "moment_scale",
    "check_float_range",
    "PointCertificate",
    "certify_point",
    "certify_points",
    "certification_sample",
    "constraint_values",
]

# Cone data of the round level set {sum |z|^2 = 1, sum |w|^2 = 1}.
ROUND_DATA = cone_data([(1, 0)] * 3, [(0, 1)] * 3)


_NONZERO_FLOOR = 1e-8  # max |z_j|, |w_j| of a projection's start and steps must exceed this
# K u, for u = 2^-53 the unit roundoff: a sample row's computed |Phi - C|
# is at most K u (|C| + sum_g rho_g |g|). K = 16 is the README's error
# analysis (*Numerical certificates*): first-order terms 15 u, and u more
# for every second-order term and for evaluating the bound itself.
_ROUNDING = 16 * 2.0**-53
_DIAGONALS = np.tile(np.eye(3), 2)  # the slice's vertices r_i = s_i = 1, where C = A_i + B_i
_DIAGONALS.setflags(write=False)
_BITS = 1 << np.arange(6)  # a support's bits: generator g, the coordinate x_g, is bit g
_SUPPORTS = (np.arange(64)[:, None] & _BITS) > 0  # (64, 6): the support of each bit pattern


@dataclass
class LevelSetPoint:
    z: np.ndarray  # shape (3,), complex
    w: np.ndarray  # shape (3,), complex
    residuals: tuple[float, float]  # (|sum z_j w_j|, |Phi - C|)


class LevelSample(Sequence):
    """n validated points of the level set over their orbit-space points,
    kept as columns: the (n, 6) squared moduli rho = (r, s) =
    (|z|^2, |w|^2) and the residual column |Phi - C| (see
    :func:`_level_sample`). What :func:`certification_sample` returns;
    certificates read rho. ``states`` is the complex (n, 6) state array,
    made from rho by :func:`_lift` when it is first read. Indexing reads
    row k as a :class:`LevelSetPoint` with the residuals |sum z_j w_j| of
    that row and |Phi - C|: its z and w are views of ``states`` once they
    are read, and before that of row k lifted alone, which gives the same
    bytes, since :func:`_lift` works row by row. Iterating reads
    ``states``, so its points are views of it; a slice is the sample of
    its rows."""

    __slots__ = ("_rho", "_mom", "_states")

    def __init__(self, rho: np.ndarray, mom: np.ndarray, states: np.ndarray | None = None):
        self._rho, self._mom, self._states = rho, mom, states

    @property
    def states(self) -> np.ndarray:
        if self._states is None:
            self._states = _lift(self._rho)
        return self._states

    def __len__(self) -> int:
        return len(self._rho)

    def __getitem__(self, k):
        if isinstance(k, slice):
            states = None if self._states is None else self._states[k]  # a slice lifts nothing
            return LevelSample(self._rho[k], self._mom[k], states)
        k = range(len(self))[k]  # a list's index rules: negative from the end, IndexError past it
        x = _lift(self._rho[k : k + 1])[0] if self._states is None else self._states[k]
        return self._point(x, k)

    def __iter__(self):
        return map(self._point, self.states, range(len(self)))

    def _point(self, x: np.ndarray, k: int) -> LevelSetPoint:
        return LevelSetPoint(x[:3], x[3:], (float(_quadric_residual(x[None])[0]), float(self._mom[k])))


class _FloatData(NamedTuple):
    """The float form of one cone data object, made by :func:`_float_data`
    and shared through :func:`_weight_arrays`; read-only, since every
    reader shares it."""

    fg: np.ndarray  # (2, 6): row k holds component k of A_1, A_2, A_3, B_1, B_2, B_3,
    #                 the weights of z_1, z_2, z_3, w_1, w_2, w_3 in Phi's component k
    c: np.ndarray   # C as a float 2-vector
    scale: float    # moment scale, see :func:`moment_scale`
    # (m + 3, 6): the (r_1, r_2, r_3, s_1, s_2, s_3) = (|z|^2, |w|^2) of the
    # slice's vertices, r_i = a and s_j = b per mixed witness (i, j, a, b),
    # then the three diagonals r_i = s_i = 1 (C = A_i + B_i)
    vertices: np.ndarray
    rounding: np.ndarray  # (7,): K u |g| for A_1, ..., B_3, then K u |C|; see :func:`_level_sample`
    # (10, 6): the weights of rho = |x|^2 in the sums that give the Gram
    # matrix of the unit Jacobian, P I_2 (+) G (see :func:`certify_points`),
    # one column per unit generator g: 1 (P), 4 |g|^2 (G_11 + G_22),
    # 4 (g_x^2 - g_y^2) (G_11 - G_22) and 8 g_x g_y (2 G_12); then row 4 + g
    # holds 16 cross(g, h)^2 at each h > g and 0 elsewhere, so that
    # sum_g rho_g sum_h row(4 + g)_h rho_h is Cauchy-Binet's det G
    gram_weights: np.ndarray
    ranks: np.ndarray  # (64,): the Jacobian rank of each support, see :func:`_rank_table`


def _float_data(d: DerivedConeData) -> _FloatData:
    """d's float data, raising ValueError unless every number is finite as
    a float: each entry of A, B and C, the moment scale and each
    coefficient of a mixed witness, which must also not round to 0.
    Witness coefficients come from the integer evidence
    ``d._witness_evidence``, each quotient one int division. So is each
    cross square: with the moment scale p/q as a ratio of ints and the
    sign table's integer crosses of the cleared generators,
    16 cross(g, h)^2 on the unit data is 16 cross^2 q^4 / (clearing^4 p^4),
    with no float rounding before the one division and no float overflow
    for large entries."""
    try:
        abc = np.array([*d.a, *d.b, d.c], dtype=float)
        vectors = abc.tolist()
        scale = max(math.hypot(*v) for v in vectors) or 1.0
        m = len(d._witness_evidence)
        vertices = np.zeros((m + 3, 6))
        vertices[m:] = _DIAGONALS
        for row, (i, j, na, nb, den) in zip(vertices, d._witness_evidence):
            row[i - 1], row[j + 2] = na / den, nb / den
        if not math.isfinite(scale):
            raise ValueError("cone data outside the float range: moment scale overflows")
        if np.count_nonzero(vertices[:m]) < 2 * m:
            raise ValueError("cone data outside the float range: a witness coefficient rounds to 0")
    except OverflowError as exc:
        raise ValueError(f"cone data outside the float range: {exc}") from exc
    fg, c = np.ascontiguousarray(abc[:6].T), abc[6]
    # the Gram weights in Python floats and one array call: a numpy call per
    # row costs more than the arithmetic of these 60 entries
    units = [(x / scale, y / scale) for x, y in vectors[:6]]
    table = d.sign_table
    p, q = scale.as_integer_ratio()
    num, den4 = 16 * q**4, (table.scale * p) ** 4
    gram = [1.0] * 6
    gram += [4 * (x * x + y * y) for x, y in units]
    gram += [4 * (x * x - y * y) for x, y in units]
    gram += [8 * x * y for x, y in units]
    gram += [num * row[h] ** 2 / den4 if h > g else 0.0 for g, row in enumerate(table.crosses[:6]) for h in range(6)]
    independent = tuple([v != 0 for row in table.crosses[:6] for v in row[:6]])
    ranks = _rank_table(tuple(map(any, table.vectors[:6])), independent)
    rounding = _ROUNDING * np.hypot(abc[:, 0], abc[:, 1])
    fd = _FloatData(fg, c, scale, vertices, rounding, np.array(gram).reshape(10, 6), ranks)
    for arr in (fd.fg, fd.c, fd.vertices, fd.rounding, fd.gram_weights, fd.ranks):
        arr.setflags(write=False)
    return fd


@functools.lru_cache(maxsize=64)
def _rank_table(nonzero: tuple[bool, ...], independent: tuple[bool, ...]) -> np.ndarray:
    """The Jacobian rank at each of the 64 supports, indexed by their bits,
    by the README's regularity lemma: 2 for a nonempty support, 1 more for
    a nonzero generator in it and 1 more for an independent pair in it.
    ``nonzero`` and ``independent[6 g + h]`` flag the sign table's integer
    generators and crosses that are not 0. Admissible data share few such
    patterns (no mixed cross is 0), so each table is made once."""
    ranks = 2 * _SUPPORTS.any(axis=1) + (_SUPPORTS & nonzero).any(axis=1)
    return ranks + (_SUPPORTS @ np.reshape(independent, (6, 6)) & _SUPPORTS).any(axis=1)


# The last cone data object converted, with its float data.
_last_conversion: tuple = (None, None)


def _weight_arrays(d: DerivedConeData) -> _FloatData:
    """d's float data, converted by :func:`_float_data` unless d is the
    object converted last: a verify command reads one object three times
    (range check, the sample and the certificates) and converts it once."""
    global _last_conversion
    last, fd = _last_conversion
    if last is not d:
        fd = _float_data(d)
        _last_conversion = (d, fd)
    return fd


def moment_scale(d: DerivedConeData) -> float:
    """max(|C|, |A_j|, |B_j|), or 1 for all-zero data.

    :func:`project_to_level`'s residuals and the certificates' unit data
    are measured against this scale: rescaling the cone data by s > 0
    leaves the level set's points unchanged and multiplies both Phi - C
    and the scale by s. A sample row's bound is measured against the sums
    it rounds instead (:func:`_level_sample`).
    """
    return _weight_arrays(d).scale


def _moment(fg: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Phi over the last axis, for the (2, 6) weights fg: the (..., 6)
    squared moduli rho = |x|^2 of complex states to (..., 2) floats.

    Component k is sum_j (|z_j|^2 A_j[k] + |w_j|^2 B_j[k]): elementwise
    sums, not BLAS matrix-vector products, whose kernel (and so the last
    bits of a row) depends on the number of rows in the stack.
    """
    t = rho[..., None, :] * fg
    return (t[..., :3] + t[..., 3:]).sum(axis=-1)


def moment_map(d: DerivedConeData, p) -> np.ndarray:
    """Phi(z, w) = sum_j A_j |z_j|^2 + B_j |w_j|^2 as a float 2-vector.

    ``p`` may also be a pair of stacked (n, 3) arrays; the result is then
    (n, 2).
    """
    return _moment(_weight_arrays(d).fg, np.abs(_state(p)) ** 2)


def check_float_range(d: DerivedConeData) -> None:
    """Raise ValueError unless every exact number that sampling and the
    certificates turn into floats is finite as a float: the entries of A,
    B and C, the moment scale and the coefficients of the mixed witnesses.
    This is d's one float conversion, which the rest of ``verify`` then
    reads."""
    _weight_arrays(d)


def _state(p) -> np.ndarray:
    """The complex state (z, w) of a point, or of a pair of stacked (n, 3)
    arrays, as (..., 6)."""
    if isinstance(p, LevelSetPoint):
        return np.concatenate([p.z, p.w])
    z, w = p
    return np.concatenate([np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)], axis=-1)


def _stack(points) -> np.ndarray:
    """The (n, 6) states of n >= 1 separate points, joined in one call."""
    return np.concatenate([v for p in points for v in (p.z, p.w)]).reshape(-1, 6)


def _usable(x: np.ndarray) -> np.ndarray:
    """Per row of (n, 6) states: max |z_j| and max |w_j| both exceed
    ``_NONZERO_FLOOR`` and are finite. A row holding an infinity or a NaN
    fails, so no non-finite value ever reaches a factorization."""
    top = np.abs(x).reshape(-1, 2, 3).max(axis=-1)
    return ((top > _NONZERO_FLOOR) & (top < math.inf)).all(axis=-1)


def _quadric_residual(x: np.ndarray) -> np.ndarray:
    """|sum z_j w_j| per row of (n, 6) states."""
    return np.abs((x[:, :3] * x[:, 3:]).sum(axis=-1))


def _level_sample(fd: _FloatData, rho: np.ndarray) -> LevelSample:
    """(n, 6) rows rho = (r, s) of the orbit space as a
    :class:`LevelSample`, raising the ValueError of the lowest failing row,
    as a sequential loop would.

    A row fails unless its moment residual |Phi - C| is at most its finite
    rounding bound K u (|C| + sum_g rho_g |g|), the README's forward error
    bound of the computed |Phi - C| at a row that
    :func:`certification_sample` draws; a row holding an infinity or a NaN
    fails so, since its residual or its bound is not a finite number. A
    row's bound depends on its own rho alone. Its quadric residual is 0 by
    the README's proposition (*The orbit space*), so no quadric column is
    built. Each residual, bound and verdict is one column. |Phi - C| is
    one hypot of its two components, so the residual of data near 1e300
    (about 1e284) is not squared into an overflow.
    """
    mom = np.hypot(*(_moment(fd.fg, rho) - fd.c).T)
    bound = fd.rounding[6] + np.add.reduce(rho * fd.rounding[:6], axis=-1)
    passing = (mom <= bound) & (bound < math.inf)
    if not passing.all():
        k = int(passing.argmin())
        raise ValueError(f"point misses the level set: row {k}, |Phi - C| = {mom[k]}, rounding bound {bound[k]}")
    return LevelSample(rho, mom)


# --- real-coordinate plumbing -------------------------------------------
# Layout: (Re z1, Im z1, ..., Re z3, Im z3, Re w1, Im w1, ..., Im w3), the
# memory order of a complex (..., 6) state, so ``x.view(float)`` is the
# real form of a contiguous x without a copy. Every helper acts on the
# last axes, so stacks of points need no loop.


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
    return np.concatenate([h[..., None].view(float), _moment(fd.fg, np.abs(x) ** 2) - fd.c], axis=-1)


def project_to_level(d: DerivedConeData, z0, w0, tol: float = 1e-12, max_iter: int = 50) -> LevelSetPoint:
    """Gauss-Newton projection of one ambient point (z0, w0) to the level set.

    Each of up to ``max_iter`` rounds reads F from one
    :func:`constraint_values` call, its moment rows divided by
    :func:`moment_scale` (so ``tol`` is relative), stops once |F| <= tol,
    and else steps by -J^+ F, the minimum-norm ``lstsq`` solution on the
    unit Jacobian, which covers rank-deficient (collinear) data too. The
    stopping test is the acceptance: the point comes back with the
    residuals (|sum z_j w_j|, |Phi - C|) of that last F, at most ``tol``
    and ``tol`` times the moment scale. A start within ``tol`` comes back
    unchanged. Raises ValueError for a start with a zero factor or a
    non-finite entry, and RuntimeError for a step that collapses a factor
    or leaves the finite range and for no convergence.
    """
    fd = _weight_arrays(d)
    x = _state((z0, w0)).reshape(1, 6)
    if not _usable(x)[0]:
        finite = np.isfinite(x).all()
        raise ValueError("starting point must have nonzero z and w" if finite else "starting point must be finite")
    rows, unit_fg = np.array([1.0, 1.0, fd.scale, fd.scale]), fd.fg / fd.scale
    for _ in range(max_iter):
        f = constraint_values(d, x[0, :3], x[0, 3:])
        unit = f / rows
        if np.sqrt(np.add.reduce(unit * unit)) <= tol:
            return LevelSetPoint(x[0, :3], x[0, 3:], tuple(np.hypot(f[0::2], f[1::2]).tolist()))
        x.view(float)[0] += np.linalg.lstsq(_jacobian(unit_fg, x)[0], -unit, rcond=None)[0]
        if not _usable(x)[0]:
            finite = np.isfinite(x).all()
            raise RuntimeError(
                "projection collapsed a factor toward zero" if finite else "projection left the finite range"
            )
    raise RuntimeError(f"no convergence to {tol} within {max_iter} iterations")


@dataclass(frozen=True)
class PointCertificate:
    """Outcome of certifying one point of the level set M.

    A certificate certifies the hypothesis of the README's proposition
    (*Numerical certificates*): the point is regular, that is, its 4 x 12
    constraint Jacobian has rank 4. At a regular point of M the
    proposition fixes everything else exactly: the rotated frame is
    transversal (combined rank 10), J_N squares to -1, rotates X to Y and
    is omega-compatible, and omega(J_N -, -) has spectrum
    (0, 0, 1, 1, 1, 1, 1, 1). So ``transversal`` and ``passed`` are
    ``regular``, and ``combined_rank`` is 10 at a regular point and 0
    otherwise. ``regularity_margin`` is sigma_min/sigma_max of the
    Jacobian on the unit data, the conditioning of the regularity
    decision, read off the Gram lemma in closed form (see
    :func:`certify_points`), not from an SVD, and exact up to rounding at
    every point of the quadric sum z_j w_j = 0.
    """

    jacobian_rank: int
    regularity_margin: float

    @property
    def regular(self) -> bool:
        return self.jacobian_rank == 4

    transversal = passed = regular  # the proposition's conclusions at a regular point of M

    @property
    def combined_rank(self) -> int:
        return 10 if self.regular else 0

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "transversal": self.transversal,
            "jacobian_rank": self.jacobian_rank,
            "combined_rank": self.combined_rank,
            "regularity_margin": self.regularity_margin,
            "pass": self.passed,
        }


def certify_points(d: DerivedConeData, points, tol: float = 1e-9) -> list[PointCertificate]:
    """Certify each point of the quadric by the singular values of its
    4 x 12 constraint Jacobian on the data divided by
    :func:`moment_scale`, in closed form by the Gram lemma (README,
    *Numerical certificates*), with no factorization.

    At a point with sum z_j w_j = 0 the Gram matrix of the Jacobian's rows
    is P I_2 (+) G, for P = sum_k |z_k|^2 + |w_k|^2 and
    G = 4 sum_g rho_g g g^T over the unit generators g, rho_g the squared
    modulus of g's coordinate; the lemma's proof uses q = 0 and nothing of
    Phi = C. So the squared singular values are P twice,
    lambda_+ = (G_11 + G_22 + hypot(G_11 - G_22, 2 G_12))/2 and
    lambda_- = det G / lambda_+, where Cauchy-Binet's
    det G = sum_{g<h} 16 cross(g, h)^2 rho_g rho_h is a sum of
    non-negative terms: lambda_- suffers no cancellation, however thin
    the data. The regularity margin is sqrt(min/max) of the squared ones.
    The Jacobian rank reads no float: by the README's regularity lemma it
    is 2 for a nonempty support plus the rank of its generators' span, one
    lookup of the support in d's table. Rescaling the data changes
    neither. Where the unit cross squares 16 cross(g, h)^2 underflow
    (below about 2^-1074), the margin reads 0.0; the rank stays exact.

    The points must lie on the quadric. A :class:`LevelSample` holds
    points (r, s) of the orbit space, which lie under points of M by the
    README's orbit-space proposition, and is read as it is, with ``tol``
    unread; in any other sequence of :class:`LevelSetPoint`, a point whose
    |sum z_j w_j| exceeds ``tol``, or is not a number, raises ValueError,
    since off the quadric the Gram matrix gains the off-diagonal block
    2 C (Re q, Im q). A listed point's distance to M is the caller's, so
    ``tol`` stays a parameter here. A point of the quadric off Phi = C,
    such as the irregular z = (2, 0, 0), w = 0, certifies exactly, but
    the proposition's
    conclusions are about the points of M, those that
    :func:`certification_sample` and :func:`project_to_level` accept. Rank
    failures are reported, not raised.
    """
    return list(map(PointCertificate, *_certificate_columns(d, points, tol)))


def _certificate_columns(d: DerivedConeData, points, tol: float = 1e-9) -> tuple[list[int], list[float]]:
    """The Jacobian ranks and regularity margins of :func:`certify_points`
    as two columns; ``verify`` renders them without building a certificate
    per point.

    rho = (r, s) is read from a :class:`LevelSample`, which summed its Phi
    from it, and formed here as |x|^2 for a list of points, after scaling
    each row by a power of two: the certificates are invariant under
    x -> t x, and no square overflows. The support, whose bits index the
    rank table, is rho > 0 for a sample and x != 0 for listed points,
    where the scaling can underflow a tiny coordinate's square. Every step
    is elementwise and every sum one ``np.add.reduce`` over the last axis,
    with no BLAS call, so a row's bits depend on its own point alone and a
    prefix of a sample certifies as the same rows of the whole. No value
    is divided by zero: lambda_- is 0 where lambda_+ is, and sigma_max is
    taken as 1 where every singular value is 0, as for an SVD.
    """
    if not len(points):
        return [], []
    fd = _weight_arrays(d)
    if isinstance(points, LevelSample):
        rho = points._rho
        support = rho > 0
    else:
        x = _stack(points)
        quad = _quadric_residual(x)
        missed = ~(quad <= tol)
        if missed.any():
            k = int(missed.argmax())
            raise ValueError(f"point {k} is off the quadric: |sum z_j w_j| = {float(quad[k])} > {tol}")
        size = np.abs(x)
        rho = np.ldexp(size, -np.frexp(size.max(axis=1))[1][:, None]) ** 2
        support = size > 0
    sums = np.add.reduce(rho[:, None, :] * fd.gram_weights, axis=-1)
    p, trace, diff, off = sums[:, :4].T  # P, G_11 + G_22, G_11 - G_22, 2 G_12
    lam = np.zeros((4, len(rho)))  # the squared singular values: P twice, lambda_+ and lambda_-
    lam[:2] = p
    lp = np.hypot(diff, off, out=lam[2])
    lp += trace
    lp *= 0.5
    np.divide(np.add.reduce(sums[:, 4:] * rho, axis=-1), lp, out=lam[3], where=lp > 0)
    top = lam.max(axis=0)
    top[top == 0] = 1.0
    return fd.ranks[support @ _BITS].tolist(), np.sqrt(lam.min(axis=0) / top).tolist()


def certify_point(d: DerivedConeData, p: LevelSetPoint, tol: float = 1e-9) -> PointCertificate:
    """:func:`certify_points` for one point."""
    return certify_points(d, [p], tol)[0]


def _heron(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """Heron's value H = 2(t_1 t_2 + t_2 t_3 + t_3 t_1) - sum t_k^2: 16
    times the squared area of the triangle with sides sqrt(t_k)."""
    return 2 * (t1 * t2 + t2 * t3 + t3 * t1) - (t1 * t1 + t2 * t2 + t3 * t3)


def _mixtures(weights: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixtures (r, s) = weights @ vertices, as (k, 6), and whether
    their t_k = r_k s_k pass Heron's test H > 0, as (k,); a non-finite H
    fails, and the caller silences numpy's overflow and invalid warnings
    where it can arise.

    Each mixture is summed vertex by vertex, in order: ``np.add.reduce``
    over the leading vertex axis of a (vertex, coordinate, mixture) array
    adds its slices in sequence. So a row depends on its own weights alone
    and equals the same sum in Python floats. The work runs coordinate by
    coordinate, each numpy loop over all the mixtures of the round.
    """
    rs = np.add.reduce(weights.T[:, None, :] * vertices[:, :, None], axis=0)  # (r, s) as (6, rows)
    return rs.T, _heron(*(rs[:3] * rs[3:])) > 0


def _lift(rho: np.ndarray) -> np.ndarray:
    """One point of the quadric over each row (r, s) of rho, as (n, 6)
    complex states with |z_k|^2 = r_k and |w_k|^2 = s_k: z_k = sqrt(r_k)
    and w_k = sqrt(s_k) p_k/|p_k| for the rows with H > 0, and
    w_k = sqrt(s_k) at a fixed point, where t = 0 and so H = 0. A sample's
    rows are of these two kinds.

    The p_k are p_1 = m_1, p_2 = m_2 e^{i alpha} and p_3 = -p_1 - p_2, for
    m_k = sqrt(t_k), the triangle's sides as vectors: cos alpha =
    (t_3 - t_1 - t_2)/(2 m_1 m_2) closes it, so sum z_k w_k = sum p_k = 0.
    With sin alpha = sqrt(H)/(2 m_1 m_2), the p_k are taken times 2 m_1,
    which leaves each p_k/|p_k| unchanged: 2 t_1, (t_3 - t_1 - t_2) +
    i sqrt(H) and minus their sum. No trigonometric call is made, and
    sin alpha suffers no cancellation in 1 - cos^2 alpha. Every step is
    elementwise, so a row's state depends on its own (r, s) alone.
    """
    t1, t2, t3 = rho.T[:3] * rho.T[3:]
    heron = _heron(t1, t2, t3)
    p = np.zeros((2, 3, len(rho)))  # 2 m_1 p_k: real parts, then imaginary parts
    p[0, 0] = 2 * t1
    p[0, 1], p[1, 1] = t3 - t1 - t2, np.sqrt(heron)
    p[:, 2] = -p[:, 0] - p[:, 1]
    p[0, :, heron <= 0], p[1, :, heron <= 0] = 1.0, 0.0  # H = 0 at a fixed point: w real
    root = np.sqrt(rho.T)
    x = np.zeros((len(rho), 6, 2))  # the real layout, (Re, Im) per coordinate
    x[:, :3, 0] = root[:3].T
    x[:, 3:] = (root[3:] * (p / np.sqrt(p[0] * p[0] + p[1] * p[1]))).T
    return x.reshape(-1, 12).view(complex)


def certification_sample(d: DerivedConeData, n: int, seed) -> LevelSample:
    """Deterministic batch of n level-set points for certification, as one
    :class:`LevelSample` of their points (r, s) of the orbit space.

    Point k < m is the k-th vertex of d's slice, r_i = a and s_j = b for
    the k-th mixed witness (i, j, a, b): the fixed points, where the
    Jacobian is the worst conditioned on the data measured so far. Each
    later point is a mixture of the slice's vertices (the mixed witnesses
    and the three diagonals r_i = s_i = 1), by Dirichlet(1, ..., 1)
    weights, one draw per point. While a mixture fails Heron's test H > 0
    (:func:`_mixtures`), its weights are pulled halfway to the centroid of
    the diagonals, w/2 on each fixed point and w/2 + 1/6 on each diagonal,
    and it is tested again. The moment equation is linear in (r, s), so
    every mixture meets it; the centroid r = s = (1/3, 1/3, 1/3) has
    H = 1/27 > 0 for every cone data, so by the README's centroid
    proposition every row passes within its bound on the rounds, and by
    the orbit-space proposition it lies under a whole T^4 orbit of points
    of M. Certificates are invariant under T^4, so they read (r, s)
    alone; ``states`` lifts each point to one point of its orbit by
    :func:`_lift`, with z real and w_1 real and positive, only when it is
    read.

    The draws come from ``SeedSequence(seed)`` alone, n - m weight rows
    made only when n > m, and row k is pulled on its own draw alone: a
    sample is reproducible, and the first points of a larger sample are
    the smaller sample. Every point is accepted on the orbit space when
    its |Phi - C|, rounding alone, is within the README's forward error
    bound of that rounding (see :func:`_level_sample`), and the error of
    the lowest-index point is raised; no other error is.
    """
    _check_int("sample count", n)
    if n < 1:
        raise ValueError("sample count must be >= 1")
    fd = _weight_arrays(d)
    m = len(fd.vertices) - 3
    rho = np.empty((n, 6))
    rho[:m] = fd.vertices[:min(n, m)]
    if n > m:
        weights = np.random.default_rng(np.random.SeedSequence(seed)).dirichlet(np.ones(m + 3), n - m)
        pull = np.repeat([0.0, 1 / 6], [m, 3])  # w/2 + pull: halfway to the diagonals' centroid
        rows = np.arange(m, n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H fails
            while len(rows):
                rho[rows], passing = _mixtures(weights, fd.vertices)  # a failing row is written again
                failing = ~passing
                rows, weights = rows[failing], weights[failing] * 0.5 + pull
    return _level_sample(fd, rho)
