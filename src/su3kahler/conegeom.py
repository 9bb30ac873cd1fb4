"""Exact rational geometry for plane cones and small integer lattices.

Everything here is exact: scalars are Python ints or `fractions.Fraction`,
vectors are plain ``(x, y)`` tuples, and predicates are decided by sign
tests on cross products. :func:`vec2`, :func:`scalar_to_json` and
:class:`SignTable`, the entry of every scalar cone predicate, reject
floats and bools. Cone membership
on a boundary ray must be *decided*, not approximated, because the
downstream condition checks distinguish strict from non-strict membership.

Membership decisions come from the signs of cross products: one rule for
independent generators, :func:`_independent_member`, and one for dependent
ones, over ring operations and comparisons only. Scalar decisions read one
:class:`SignTable`: plane vectors cleared of denominators by one positive
integer, with their pairwise cross products. Cone tests see only
directions, so the cleared table gives the decisions and, as quotients of
two of its integers, the witness coefficients of the input vectors.
:meth:`SignTable.decide` is the one membership rule: its evidence is four
integers, the status and the witness ``(n1/den, n2/den)``, with the strictly
positive combinations (:meth:`SignTable.positive`) and the apex functional
(:meth:`SignTable.apex`) in the same form. :meth:`SignTable.membership` is
the decision's ``Fraction`` view (:func:`_membership_of`), and
:func:`in_cone2` reads it off the table of its three vectors; a report
writes each quotient as text with :func:`_quotient_text`, without a
``Fraction``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Scalar",
    "Vec2",
    "MembershipStatus",
    "ConeMembership",
    "vec2",
    "cross",
    "dot",
    "vadd",
    "vsub",
    "vscale",
    "is_zero",
    "scalar_to_json",
    "vec_to_json",
    "INT64_MAX",
    "SignTable",
    "in_cone2",
    "find_apex_functional",
    "invariant_factors_from_divisors",
    "smith_invariant_factors",
]

Scalar = int | Fraction
Vec2 = tuple[Scalar, Scalar]


# An exact rational string: optional surrounding whitespace, an optional
# sign, ASCII digits, and optionally "/" and ASCII digits. Fraction's own
# grammar also takes decimal points, exponents, underscores and non-ASCII
# digits; an exponent builds its power without int()'s digit limit.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _scalar(x) -> Scalar:
    """The one rational gate of the exact layers: ints, Fractions and
    'p' or 'p/q' strings in the grammar above pass, as a Fraction;
    bools, floats, malformed strings, integers past int()'s digit limit,
    zero denominators and everything else raise TypeError or ValueError."""
    if isinstance(x, bool):
        raise TypeError(f"exact rational expected, got bool: {x!r}")
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        if m is None:
            raise ValueError(f"Invalid literal for Fraction: {x!r}")
        p, q = m.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


def vec2(x, y) -> Vec2:
    """Build an exact vector, accepting ints, Fractions or 'p/q' strings."""
    return (_scalar(x), _scalar(y))


def _vector(v, scalar=_scalar) -> tuple:
    """The one vector gate: a list or tuple of two entries, each passed
    through ``scalar`` (the rational gate by default); anything else
    raises TypeError, since a string or a dict would unpack into its
    characters or keys and another length would be cut or fail later."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise TypeError(f"vector [x, y] expected, got {v!r}")
    return (scalar(v[0]), scalar(v[1]))


def cross(u: Vec2, v: Vec2) -> Scalar:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec2, v: Vec2) -> Scalar:
    return u[0] * v[0] + u[1] * v[1]


def vadd(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] + v[0], u[1] + v[1])


def vsub(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] - v[0], u[1] - v[1])


def vscale(s: Scalar, u: Vec2) -> Vec2:
    return (s * u[0], s * u[1])


def is_zero(u: Vec2) -> bool:
    return u[0] == 0 and u[1] == 0


def scalar_to_json(s: Scalar) -> str:
    return str(_scalar(s))


def _quotient_text(n: int, d: int) -> str:
    """``scalar_to_json(Fraction(n, d))`` for ints n and d != 0, without
    the Fraction: the reduced quotient with the sign on the numerator, and
    no denominator when it is 1. A numerator or denominator longer than
    str() writes (4300 digits) raises ValueError, as str() of the Fraction
    does."""
    if d == 1:  # the diagonal 1s of a mixed table, a third of its quotients
        return str(n)
    g = gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def vec_to_json(u: Vec2) -> list[str]:
    return [scalar_to_json(u[0]), scalar_to_json(u[1])]


class MembershipStatus(enum.Enum):
    OUTSIDE = "outside"
    ON_BOUNDARY_RAY = "boundary"
    INTERIOR = "interior"


@dataclass(frozen=True)
class ConeMembership:
    """Decision for ``c in cone(g1, g2)`` with an exact witness.

    When the point is a member, ``coefficients`` are nonnegative rationals
    with ``lam1*g1 + lam2*g2 == c`` exactly. ``INTERIOR`` means both
    coefficients are strictly positive and the generators are linearly
    independent; with dependent generators the best status is
    ``ON_BOUNDARY_RAY``. :func:`_membership_of` makes every one from the
    integer evidence of :meth:`SignTable.decide`; a decision alone is
    :attr:`member`.
    """

    status: MembershipStatus
    coefficients: tuple[Fraction, Fraction] | None = None

    @property
    def member(self) -> bool:
        return self.status is not MembershipStatus.OUTSIDE

    def to_json(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.coefficients is not None:
            out["coefficients"] = [scalar_to_json(c) for c in self.coefficients]
        return out


_OUTSIDE = ConeMembership(MembershipStatus.OUTSIDE)

# The evidence of every non-member: no witness (den 0).
_OUTSIDE_EVIDENCE = (MembershipStatus.OUTSIDE, 0, 0, 0)


def _membership_of(evidence) -> ConeMembership:
    """The ``Fraction`` view of a decision's evidence (status, n1, n2, den):
    the status with the witness (n1/den, n2/den) for a member."""
    status, n1, n2, den = evidence
    if not den:
        return _OUTSIDE
    return ConeMembership(status, (Fraction(n1, den), Fraction(n2, den)))


# Largest magnitude an int64 holds, numpy's default integer type.
INT64_MAX = 2**63 - 1


def _independent_member(d, n1, n2) -> bool:
    """Whether c lies in ``{l1*g1 + l2*g2 : l1, l2 >= 0}`` for independent
    generators, from the signs of d = cross(g1, g2) != 0, n1 = cross(c, g2)
    and n2 = cross(g1, c): l1 = n1/d and l2 = n2/d, so c is a member
    exactly when n1 and n2 both have d's sign or are 0. Dependent
    generators take the ray rule of :meth:`SignTable.decide`."""
    return n1 >= 0 and n2 >= 0 if d > 0 else n1 <= 0 and n2 <= 0


class SignTable:
    """Plane vectors cleared of denominators, with their cross products.

    ``vectors`` are the input vectors, whose entries must be ints or
    Fractions (anything else, a bool or a float, raises TypeError), times
    one positive integer ``scale``, the lcm of every denominator (1, and
    nothing is cleared, for integer data), as int pairs; ``crosses[k][p]``
    is cross(vectors[k], vectors[p]). Scaling every vector by ``scale``
    keeps every sign, and every quotient of two crosses (or two dots), so
    the decisions and witness coefficients read here are those of the
    input vectors. Dot products are computed on use: only dependent
    generators (a zero cross) read them.
    """

    __slots__ = ("vectors", "crosses", "scale")

    def __init__(self, vectors):
        vs = tuple(vectors)
        n = 1
        if not all(type(x) is int and type(y) is int for x, y in vs):
            for z in (z for v in vs for z in v):
                if type(z) is bool or not isinstance(z, (int, Fraction)):
                    raise TypeError(f"exact rational expected, got {type(z).__name__}: {z!r}")
            n = lcm(*[z.denominator for v in vs for z in v])
            vs = tuple(
                (x.numerator * (n // x.denominator), y.numerator * (n // y.denominator)) for x, y in vs
            )
        self.vectors = vs
        self.scale = n
        self.crosses = [[x1 * y2 - y1 * x2 for x2, y2 in vs] for x1, y1 in vs]

    def decide(self, k: int, p: int, q: int) -> tuple:
        """Vector k against cone(vector p, vector q), the one membership
        rule, as integers (status, n1, n2, den): a member has the witness
        (n1/den, n2/den), exact coefficients of the input vectors, and a
        non-member is :data:`_OUTSIDE_EVIDENCE` (den 0).

        Independent generators, d = cross(g_p, g_q) != 0, are decided by
        :func:`_independent_member` with the witness (n1, n2, d). Dependent
        ones span a ray, a line or the origin: c is a member exactly when
        c = 0, witness (0, 0), or c lies on ray(g_p) or ray(g_q), that is
        cross(g, c) = 0 and e = dot(c, g) > 0 for g = g_p or g_q, witness
        e/dot(g, g) on g, using g_p whenever it can; their status is at best
        ON_BOUNDARY_RAY.
        """
        row = self.crosses[p]
        d = row[q]
        if d:
            n1, n2 = self.crosses[k][q], row[k]
            if not _independent_member(d, n1, n2):
                return _OUTSIDE_EVIDENCE
            return (_INTERIOR if n1 and n2 else _BOUNDARY, n1, n2, d)
        c = self.vectors[k]
        if is_zero(c):
            return (_BOUNDARY, 0, 0, 1)
        for r in (p, q):
            g = self.vectors[r]
            if self.crosses[r][k] == 0 and (e := dot(c, g)) > 0:
                gg = dot(g, g)
                return (_BOUNDARY, e, 0, gg) if r == p else (_BOUNDARY, 0, e, gg)
        return _OUTSIDE_EVIDENCE

    def membership(self, k: int, p: int, q: int) -> ConeMembership:
        """:meth:`decide` as a :class:`ConeMembership`, with exact witness
        coefficients for members.

        Total on degenerate input: zero or parallel generators reduce to
        ray, line or origin membership, and the witness then uses g_p
        whenever it can.
        """
        return _membership_of(self.decide(k, p, q))

    def positive(self, k: int, p: int, q: int) -> tuple[int, int, int] | None:
        """Integers (n1, n2, den) with n1/den, n2/den > 0 and
        (n1*g_p + n2*g_q)/den = vector k, or None when no strictly positive
        combination exists.

        Independent generators give the witness of an INTERIOR decision.
        Dependent ones leave a family of solutions on one line, so the
        witness is picked: with g_p = 0 and g_q = 0, (1, 1) when c = 0;
        with one of them zero, coefficient 1 on it and e/gg on the other g,
        for e = dot(c, g) > 0 and gg = dot(g, g); with both nonzero, c = s*g_p
        and g_q = t*g_p (s = dot(c, g_p)/gg, t = dot(g_q, g_p)/gg), the
        coefficient split (s/2, s/(2t)) for t > 0 and (s + |s| + 1, (|s| + 1)/|t|)
        for t < 0.
        """
        crosses = self.crosses
        if crosses[p][q]:
            status, n1, n2, den = self.decide(k, p, q)
            return (n1, n2, den) if status is _INTERIOR else None
        c, g1, g2 = self.vectors[k], self.vectors[p], self.vectors[q]
        g1_zero, g2_zero = is_zero(g1), is_zero(g2)
        if g1_zero and g2_zero:
            return (1, 1, 1) if is_zero(c) else None
        if g1_zero or g2_zero:
            r, g = (q, g2) if g1_zero else (p, g1)
            e = dot(c, g)
            if crosses[k][r] or e <= 0:
                return None
            gg = dot(g, g)
            return (gg, e, gg) if g1_zero else (e, gg, gg)
        if crosses[k][p]:
            return None
        s, gg, t = dot(c, g1), dot(g1, g1), dot(g2, g1)  # numerators over gg
        if t > 0:
            return (s * t, s * gg, 2 * gg * t) if s > 0 else None
        return ((s + abs(s) + gg) * -t, (abs(s) + gg) * gg, -gg * t)

    def apex(self, n: int) -> tuple[int, int, int] | None:
        """:func:`find_apex_functional` of the first n vectors, nonzero, as
        integers (x, y, den): the covector (x/den, y/den) of the input
        vectors, or None.

        The pair search reads the table's signs: the first pair (g_i, g_j),
        i < j, with d = cross(g_i, g_j) != 0 whose cone holds every g_k by
        the rule of :func:`_independent_member`, cross(g_i, g_k) and
        cross(g_k, g_j) having d's sign or being 0; that is, row i of the
        crosses has d's sign or 0 and row j the opposite, which the least
        and greatest entry of each row decide. The covector of the pair is the sum of their dual
        basis, (g_j[1] - g_i[1], g_i[0] - g_j[0]) / d on the input vectors;
        on the cleared ones that quotient is ``scale`` times smaller, so the
        numerators carry ``scale``. A single shared ray gives its direction
        g_0, which is the cleared g_0 over ``scale``.
        """
        rows = [row[:n] for row in self.crosses[:n]]
        lo = [min(row) for row in rows]
        hi = [max(row) for row in rows]
        vs = self.vectors
        for i in range(n):
            row = rows[i]
            for j in range(i + 1, n):
                d = row[j]
                if d > 0 and lo[i] >= 0 and hi[j] <= 0 or d < 0 and hi[i] <= 0 and lo[j] >= 0:
                    (xi, yi), (xj, yj) = vs[i], vs[j]
                    # dual basis: u(gi)=1, u(gj)=0 and v(gi)=0, v(gj)=1
                    return (self.scale * (yj - yi), self.scale * (xi - xj), d)
        g0 = vs[0]
        if all(rows[0][k] == 0 and dot(g0, vs[k]) > 0 for k in range(n)):
            return (g0[0], g0[1], self.scale)
        return None


_INTERIOR = MembershipStatus.INTERIOR
_BOUNDARY = MembershipStatus.ON_BOUNDARY_RAY


def in_cone2(c: Vec2, g1: Vec2, g2: Vec2) -> ConeMembership:
    """Decide whether ``c`` lies in ``{l1*g1 + l2*g2 : l1, l2 >= 0}``.

    :meth:`SignTable.membership` on the table of (c, g1, g2): exact
    witness coefficients are built only for members.
    """
    return SignTable((c, g1, g2)).membership(0, 1, 2)


def find_apex_functional(gens: list[Vec2]) -> Vec2 | None:
    """A covector strictly positive on every generator, if one exists.

    Existence is equivalent to all generators lying in an open half-plane
    (the cone has apex 0). Construction: find a pair of generators whose
    cone contains all the others and return the sum of the dual basis of
    that pair; if all generators share a single ray, the ray direction
    itself works. The search is :meth:`SignTable.apex` on the generators'
    sign table.
    """
    if not gens:
        raise ValueError("at least one generator required")
    for g in gens:
        if is_zero(g):
            raise ValueError("zero generator has no strictly positive functional")
    apex = SignTable(gens).apex(len(gens))
    return None if apex is None else (Fraction(apex[0], apex[2]), Fraction(apex[1], apex[2]))


def _check_int(name: str, x) -> None:
    """The int argument gate: bools, floats and numpy integers raise TypeError."""
    if type(x) is not int:
        raise TypeError(f"{name} must be an int, got {x!r}")


def _as_int(x) -> int:
    """The one integer gate of the exact layers: ints and integral
    Fractions pass; bools, floats and everything else raise ValueError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"integer entry expected, got {x!r}")


def invariant_factors_from_divisors(d1: int, d12: int) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors of a k x 2 integer matrix from its
    determinantal divisors: d1 = gcd of the entries, d12 = d1*d2 = gcd of
    the 2 x 2 minors (gcd of nothing is 0).

    The rank is 2 if some minor is nonzero, 1 if some entry is, else 0.
    """
    if d12:
        return 2, (d1, d12 // d1)
    if d1:
        return 1, (d1,)
    return 0, ()


def smith_invariant_factors(rows) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors of an integer matrix with two columns.

    Returns ``(rank, (d1, ..., d_rank))`` with the divisibility chain
    d1 | d2, read off the determinantal divisors by
    :func:`invariant_factors_from_divisors`.
    """
    mat = [[_as_int(x) for x in row] for row in rows]
    if not mat or any(len(row) != 2 for row in mat):
        raise ValueError("a k x 2 matrix with k >= 1 is required")
    minors = (
        xi * yj - yi * xj
        for i, (xi, yi) in enumerate(mat)
        for xj, yj in mat[i + 1:]
    )
    return invariant_factors_from_divisors(gcd(*(x for row in mat for x in row)), gcd(*minors))
