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
:class:`LevelSample` of the validated (n, 6) rows (r, s), with Phi and
|Phi - C| as columns, and the certificates and the boundedness residual
read them as they are. ``verify`` builds no complex state: its states
are a view that :func:`_lift` makes from rho when a library caller reads
them. ``verify`` renders the ranks and margins as two columns
(:func:`_certificate_columns`) and builds no object per point; a
:class:`LevelSetPoint` or a :class:`PointCertificate` is made only when
a caller asks for one.

Exact numbers enter here once per cone data object: :func:`_float_data`
reads A, B and C, the integer mixed witnesses and the integer apex
functional of :class:`~su3kahler.weights.DerivedConeData`, and turns each
quotient n/den into a float by one correctly rounded int division, the
float ``float(Fraction(n, den))`` gives, without building a ``Fraction``;
so are the squared crosses of the generators on the data divided by the
moment scale, which the certificates read. The range check, the sample's
vertices, certificates and the boundedness residual all read that one
conversion.

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
    "boundedness_residual",
    "PointCertificate",
    "certify_point",
    "certify_points",
    "certification_sample",
    "constraint_values",
]

# Cone data of the round level set {sum |z|^2 = 1, sum |w|^2 = 1}.
ROUND_DATA = cone_data([(1, 0)] * 3, [(0, 1)] * 3)


_NONZERO_FLOOR = 1e-8  # max |z_j|, |w_j| must exceed this on the quadric
_SAMPLE_CHUNK = 128    # vertex mixtures certification_sample draws per round
_SAMPLE_PATIENCE = 32  # rounds in a row without an accepted mixture before it gives up
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
    (|z|^2, |w|^2), Phi at each row (``phi``, (n, 2)) and the residual
    column |Phi - C|. What :func:`certification_sample` returns;
    certificates and the boundedness residual read the columns. ``states``
    is the complex (n, 6) state array, made from rho by :func:`_lift` when
    it is first read. Indexing reads row k as a :class:`LevelSetPoint`
    whose z and w are views of it, with the residuals |sum z_j w_j| of
    that row and |Phi - C|, and a slice is the sample of its rows."""

    __slots__ = ("_rho", "phi", "_mom", "_states")

    def __init__(self, rho: np.ndarray, phi: np.ndarray, mom: np.ndarray, states: np.ndarray | None = None):
        self._rho, self.phi, self._mom, self._states = rho, phi, mom, states

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
            return LevelSample(self._rho[k], self.phi[k], self._mom[k], states)
        x = self.states[k]
        return LevelSetPoint(x[:3], x[3:], (float(_quadric_residual(x[None])[0]), float(self._mom[k])))


class _FloatData(NamedTuple):
    """The float form of one cone data object, made by :func:`_float_data`
    and shared through :func:`_weight_arrays`; read-only, since every
    reader shares it."""

    fg: np.ndarray  # (2, 6): row k holds component k of A_1, A_2, A_3, B_1, B_2, B_3,
    #                 the weights of z_1, z_2, z_3, w_1, w_2, w_3 in Phi's component k
    c: np.ndarray   # C as a float 2-vector
    scale: float    # moment scale, see :func:`moment_scale`
    # fg divided by the scale. Certificates and the projection's Jacobian
    # run on it: the level set and its tangent spaces are unchanged, while
    # ranks, margins and steps become invariant under rescaling the cone
    # data.
    unit_fg: np.ndarray
    # (m + 3, 6): the (r_1, r_2, r_3, s_1, s_2, s_3) = (|z|^2, |w|^2) of the
    # slice's vertices, r_i = a and s_j = b per mixed witness (i, j, a, b),
    # then the three diagonals r_i = s_i = 1 (C = A_i + B_i)
    vertices: np.ndarray
    apex: tuple[float, float, float] | None  # (alpha_1, alpha_2, alpha(C)) of the apex functional
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
    a float: each entry of A, B and C, the moment scale, each coefficient
    of a mixed witness, and the apex functional and its norm times the
    moment scale. Witness coefficients and the apex functional come from
    the integer evidence ``d._witness_evidence`` and ``d._apex``, each
    quotient one int division; alpha(C) is read off the sign table's
    cleared C, so it too is one. So is each cross square: with the
    moment scale p/q as a ratio of ints and the sign table's integer
    crosses of the cleared generators, 16 cross(g, h)^2 on the unit data
    is 16 cross^2 q^4 / (clearing^4 p^4), with no float rounding before
    the one division and no float overflow for large entries."""
    try:
        abc = np.array([*d.a, *d.b, d.c], dtype=float)
        vectors = abc.tolist()
        scale = max(math.hypot(*v) for v in vectors) or 1.0
        m = len(d._witness_evidence)
        vertices = np.zeros((m + 3, 6))
        vertices[m:] = _DIAGONALS
        for row, (i, j, na, nb, den) in zip(vertices, d._witness_evidence):
            row[i - 1], row[j + 2] = na / den, nb / den
        x, y, den = d._apex or (0, 0, 1)  # alpha = 0 without an apex functional
        alpha = (x / den, y / den)
        if not math.isfinite(scale):
            raise ValueError("cone data outside the float range: moment scale overflows")
        if not math.isfinite(scale * math.hypot(*alpha)):
            raise ValueError("cone data outside the float range: moment scale times |apex functional| overflows")
        table = d.sign_table
        (cx, cy), clearing = table.vectors[-1], table.scale  # C times the clearing factor
        apex = None if d._apex is None else (*alpha, (x * cx + y * cy) / (den * clearing))
    except OverflowError as exc:
        raise ValueError(f"cone data outside the float range: {exc}") from exc
    fg, c = np.ascontiguousarray(abc[:6].T), abc[6]
    # the Gram weights in Python floats and one array call: a numpy call per
    # row costs more than the arithmetic of these 60 entries
    units = [(x / scale, y / scale) for x, y in vectors[:6]]
    p, q = scale.as_integer_ratio()
    num, den4 = 16 * q**4, (clearing * p) ** 4
    gram = [1.0] * 6
    gram += [4 * (x * x + y * y) for x, y in units]
    gram += [4 * (x * x - y * y) for x, y in units]
    gram += [8 * x * y for x, y in units]
    gram += [num * row[h] ** 2 / den4 if h > g else 0.0 for g, row in enumerate(table.crosses[:6]) for h in range(6)]
    independent = tuple([v != 0 for row in table.crosses[:6] for v in row[:6]])
    ranks = _rank_table(tuple(map(any, table.vectors[:6])), independent)
    fd = _FloatData(fg, c, scale, fg / scale, vertices, apex, np.array(gram).reshape(10, 6), ranks)
    for arr in (fd.fg, fd.c, fd.unit_fg, fd.vertices, fd.gram_weights, fd.ranks):
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
    :func:`moment_scale`. (0.0, True) for data without an apex functional
    and for no points.

    The exact fact behind it, alpha > 0 on every generator, so that M is
    compact, is ``check``'s apex functional; this float reads the one
    component of Phi - C along alpha, which is at most |alpha| times the
    moment residual |Phi - C|. It is not that residual's acceptance rule
    restated: its bound is fixed and scale-covariant and does not follow
    the residual tolerance ``tol`` (``verify --tol``), which bounds
    |Phi - C| by tol * moment_scale. On a sample drawn in closed form it
    measures the rounding of the linear map Phi at the sample's (r, s).
    alpha and alpha(C) are the floats of d's one conversion; Phi of a
    :class:`LevelSample` is the one its residual check computed."""
    fd = _weight_arrays(d)
    if fd.apex is None or not len(points):
        return 0.0, True
    a1, a2, rhs = fd.apex
    phi = points.phi if isinstance(points, LevelSample) else _moment(fd.fg, np.abs(_stack(points)) ** 2)
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
    """The (n, 6) states of n >= 1 separate points, joined in one call."""
    return np.concatenate([v for p in points for v in (p.z, p.w)]).reshape(-1, 6)


def _usable(x: np.ndarray, floor: float = _NONZERO_FLOOR) -> np.ndarray:
    """Per row of (n, 6) states, or of their squared moduli against the
    squared floor: max |z_j| and max |w_j| both exceed ``floor`` and are
    finite. A row holding an infinity or a NaN fails, so no non-finite
    value ever reaches a factorization."""
    top = np.abs(x).reshape(-1, 2, 3).max(axis=-1)
    return ((top > floor) & (top < math.inf)).all(axis=-1)


def _quadric_residual(x: np.ndarray) -> np.ndarray:
    """|sum z_j w_j| per row of (n, 6) states."""
    return np.abs((x[:, :3] * x[:, 3:]).sum(axis=-1))


def _level_sample(fd: _FloatData, rho: np.ndarray, tol: float, states: np.ndarray | None = None) -> LevelSample:
    """(n, 6) squared moduli rho = (|z|^2, |w|^2) as a :class:`LevelSample`,
    raising the ValueError of the lowest failing row, as a sequential loop
    would.

    A row fails unless it is finite with max r_k and max s_k above
    ``_NONZERO_FLOOR ** 2``, and its moment residual |Phi - C| is at most
    ``tol`` times the moment scale; given the complex states over rho, also
    unless their quadric residual |sum z_j w_j| is at most ``tol``. Without
    them rho is a point of the orbit space, whose quadric residual is 0 by
    the README's proposition (*The orbit space*), so no quadric column is
    built, and a failing row reports 0.0 for it. Each residual and verdict
    is one column. Phi is kept for the boundedness residual. |Phi - C| is
    one hypot of its two components, so the residual of data near 1e300
    (about 1e284) is not squared into an overflow.
    """
    phi = _moment(fd.fg, rho)
    mom = np.hypot(*(phi - fd.c).T)
    usable = _usable(rho, _NONZERO_FLOOR**2)
    passing = usable & (mom <= tol * fd.scale)
    if states is not None:
        quad = _quadric_residual(states)
        passing &= quad <= tol
    if not passing.all():
        k = int(passing.argmin())
        if not usable[k]:
            raise ValueError("z and w must both be finite and nonzero on the quadric")
        residual = 0.0 if states is None else float(quad[k])
        raise ValueError(f"point misses the level set: residuals {(residual, float(mom[k]))}")
    return LevelSample(rho, phi, mom, states)


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


def project_to_level(
    d: DerivedConeData, z0, w0, tol: float = 1e-12, max_iter: int = 50, residual: float = 1e-9
) -> LevelSetPoint:
    """Gauss-Newton projection of one ambient point (z0, w0) to the level set.

    Each of up to ``max_iter`` rounds reads F from one
    :func:`constraint_values` call, its moment rows divided by
    :func:`moment_scale` (so ``tol`` is relative), stops once |F| <= tol,
    and else steps by -J^+ F, the minimum-norm ``lstsq`` solution on the
    unit Jacobian, which covers rank-deficient (collinear) data too. A
    start within ``tol`` comes back unchanged; the result is accepted
    against ``residual`` as :func:`certification_sample`'s points are.
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
        if np.sqrt(np.add.reduce(f * f)) <= tol:
            return _level_sample(fd, np.abs(x) ** 2, residual, x)[0]
        x.view(float)[0] += np.linalg.lstsq(_jacobian(fd.unit_fg, x)[0], -f, rcond=None)[0]
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
    README's orbit-space proposition, and is read as it is; in any other
    sequence of :class:`LevelSetPoint`, a point whose |sum z_j w_j|
    exceeds ``tol``, or is not a number, raises ValueError, since off the
    quadric the Gram matrix gains the off-diagonal block 2 C (Re q, Im q).
    A point of the quadric off Phi = C, such as the irregular
    z = (2, 0, 0), w = 0, certifies exactly, but the proposition's
    conclusions are about the points of M, those that
    :func:`certification_sample` and :func:`project_to_level` accept. Rank
    failures are reported, not raised.
    """
    return list(map(PointCertificate, *_certificate_columns(d, points, tol)))


def _certificate_columns(d: DerivedConeData, points, tol: float) -> tuple[list[int], list[float]]:
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


def _mixtures(weights: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The mixtures (r, s) = weights @ vertices whose t_k = r_k s_k pass
    Heron's test H > 0, in row order, as (k, 6); a non-finite H fails.

    Each mixture is summed vertex by vertex, in order: ``np.add.reduce``
    over the leading vertex axis of a (vertex, coordinate, mixture) array
    adds its slices in sequence. So a row depends on its own weights alone
    and equals the same sum in Python floats. The work runs coordinate by
    coordinate, each numpy loop over all the mixtures of the round.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H is rejected
        rs = np.add.reduce(weights.T[:, None, :] * vertices[:, :, None], axis=0)  # (r, s) as (6, rows)
        keep = _heron(*(rs[:3] * rs[3:])) > 0
    return rs[:, keep].T


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


def certification_sample(d: DerivedConeData, n: int, seed, tol: float = 1e-9) -> LevelSample:
    """Deterministic batch of n level-set points for certification, as one
    :class:`LevelSample` of their points (r, s) of the orbit space.

    Point k < m is the k-th vertex of d's slice, r_i = a and s_j = b for
    the k-th mixed witness (i, j, a, b): the fixed points, where the
    Jacobian is the worst conditioned on the data measured so far. Each
    later point is a Dirichlet(1, ..., 1) mixture of the slice's vertices
    (the mixed witnesses and the three diagonals r_i = s_i = 1), kept by
    :func:`_mixtures` when the sqrt(r_k s_k) are the sides of a triangle,
    H > 0. The moment equation is linear in (r, s), so every mixture meets
    it, and by the orbit-space proposition every kept mixture lies under a
    whole T^4 orbit of points of M. Certificates are invariant under T^4,
    so they read (r, s) alone; ``states`` lifts each point to one point of
    its orbit by :func:`_lift`, with z real and w_1 real and positive, only
    when it is read. No iteration runs.

    The draws come from ``SeedSequence(seed)`` alone, and are made only
    when n > m, in rounds of ``_SAMPLE_CHUNK``: a sample is reproducible,
    and the first points of a larger sample are the smaller sample. Every
    point is accepted against ``tol`` on the orbit space (see
    :func:`_level_sample`), and the error of the lowest-index point is
    raised; ValueError also when no mixture passes the triangle test in
    ``_SAMPLE_PATIENCE`` rounds in a row.
    """
    _check_int("sample count", n)
    if n < 1:
        raise ValueError("sample count must be >= 1")
    fd = _weight_arrays(d)
    m = len(fd.vertices) - 3
    if not m:
        raise ValueError("no realizable single-support point; nothing to sample")
    rho, count, idle = [fd.vertices[:min(n, m)]], n - m, 0
    rng = np.random.default_rng(np.random.SeedSequence(seed)) if count > 0 else None
    while count > 0:
        rs = _mixtures(rng.dirichlet(np.ones(m + 3), _SAMPLE_CHUNK), fd.vertices)
        idle = 0 if len(rs) else idle + 1
        if idle == _SAMPLE_PATIENCE:
            draws = _SAMPLE_PATIENCE * _SAMPLE_CHUNK
            raise ValueError(f"no vertex mixture passed Heron's test in {draws} draws in a row")
        rho.append(rs[:count])
        count -= len(rs)
    return _level_sample(fd, np.concatenate(rho), tol)
