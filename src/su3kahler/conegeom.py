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
ones, :meth:`SignTable._dependent_membership`, over ring operations and
comparisons only. Scalar decisions read one :class:`SignTable`: plane
vectors cleared of denominators by one positive integer, with their
pairwise cross products. Cone tests see only directions, so the cleared
table gives the decisions and, as exact quotients, the witness
coefficients of the input vectors. :meth:`SignTable.membership` is the one
scalar entry to both rules, with its witness; :func:`in_cone2` reads it off
the table of its three vectors, and a decision alone is its ``member``.
Fractions are built only for the coefficients of members.
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
    ``ON_BOUNDARY_RAY``. :meth:`SignTable.membership` makes every one;
    a decision alone is :attr:`member`.
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
_F0 = Fraction(0)


# Largest magnitude an int64 holds, numpy's default integer type.
INT64_MAX = 2**63 - 1


def _independent_member(d, n1, n2) -> bool:
    """Whether c lies in ``{l1*g1 + l2*g2 : l1, l2 >= 0}`` for independent
    generators, from the signs of d = cross(g1, g2) != 0, n1 = cross(c, g2)
    and n2 = cross(g1, c): l1 = n1/d and l2 = n2/d, so c is a member
    exactly when n1 and n2 both have d's sign or are 0. Dependent
    generators read :meth:`SignTable._dependent_membership`."""
    return n1 >= 0 and n2 >= 0 if d > 0 else n1 <= 0 and n2 <= 0


class SignTable:
    """Plane vectors cleared of denominators, with their cross products.

    ``vectors`` are the input vectors, whose entries must be ints or
    Fractions (anything else, a bool or a float, raises TypeError), times
    one positive integer n, the lcm of every denominator (n = 1, and
    nothing is cleared, for integer data), as int pairs; ``crosses[k][p]`` is cross(vectors[k], vectors[p]).
    Scaling every vector by n > 0 keeps every sign, and every quotient of
    two crosses (or two dots), so the decisions and witness coefficients
    read here are those of the input vectors. Dot products are computed on
    use: only dependent generators (a zero cross) read them.
    """

    __slots__ = ("vectors", "crosses")

    def __init__(self, vectors):
        vs = tuple(vectors)
        if not all(type(x) is int and type(y) is int for x, y in vs):
            for z in (z for v in vs for z in v):
                if type(z) is bool or not isinstance(z, (int, Fraction)):
                    raise TypeError(f"exact rational expected, got {type(z).__name__}: {z!r}")
            n = lcm(*[z.denominator for v in vs for z in v])
            vs = tuple(
                (x.numerator * (n // x.denominator), y.numerator * (n // y.denominator)) for x, y in vs
            )
        self.vectors = vs
        self.crosses = [[x1 * y2 - y1 * x2 for x2, y2 in vs] for x1, y1 in vs]

    def membership(self, k: int, p: int, q: int) -> ConeMembership:
        """Vector k against cone(vector p, vector q), the one scalar entry
        to the membership rule: decided by :func:`_independent_member` when
        cross(g_p, g_q) != 0 and by :meth:`_dependent_membership` otherwise,
        with exact witness coefficients (l1, l2) of the input vectors for
        members.

        Total on degenerate input: zero or parallel generators reduce to
        ray, line or origin membership, and the witness then uses g_p
        whenever it can.
        """
        row = self.crosses[p]
        d = row[q]
        if d:
            n1, n2 = self.crosses[k][q], row[k]
            if not _independent_member(d, n1, n2):
                return _OUTSIDE
            status = MembershipStatus.INTERIOR if n1 and n2 else MembershipStatus.ON_BOUNDARY_RAY
            return ConeMembership(status, (Fraction(n1, d), Fraction(n2, d)))
        return self._dependent_membership(k, p, q)

    def _dependent_membership(self, k: int, p: int, q: int) -> ConeMembership:
        """Vector k against cone(vector p, vector q) for dependent
        generators, cross(g_p, g_q) = 0, where the cone is a ray, a line or
        the origin: c is a member exactly when c = 0 or c lies on ray(g_p)
        or ray(g_q), that is cross(g, c) = 0 and dot(c, g) > 0 for g = g_p
        or g_q. The witness is (0, 0) for c = 0 and otherwise uses g_p
        whenever it can; the status is at best ON_BOUNDARY_RAY."""
        c = self.vectors[k]
        if is_zero(c):
            return ConeMembership(MembershipStatus.ON_BOUNDARY_RAY, (_F0, _F0))
        for r in (p, q):
            g = self.vectors[r]
            if self.crosses[r][k] == 0 and (e := dot(c, g)) > 0:
                t = Fraction(e, dot(g, g))
                return ConeMembership(MembershipStatus.ON_BOUNDARY_RAY, (t, _F0) if r == p else (_F0, t))
        return _OUTSIDE


def in_cone2(c: Vec2, g1: Vec2, g2: Vec2) -> ConeMembership:
    """Decide whether ``c`` lies in ``{l1*g1 + l2*g2 : l1, l2 >= 0}``.

    :meth:`SignTable.membership` on the table of (c, g1, g2): exact
    witness coefficients are computed only for members.
    """
    return SignTable((c, g1, g2)).membership(0, 1, 2)


def _apex_functional(table: SignTable, gens) -> Vec2 | None:
    """:func:`find_apex_functional` of the nonzero generators ``gens``,
    whose table is ``table`` (it may hold more vectors after them).

    The pair search reads the table's signs; the covector is computed from
    ``gens`` themselves.
    """
    n = len(gens)
    crosses = table.crosses
    for i in range(n):
        row = crosses[i]
        for j in range(i + 1, n):
            d = row[j]
            if d and all(_independent_member(d, crosses[k][j], row[k]) for k in range(n)):
                gi, gj = gens[i], gens[j]
                det = cross(gi, gj)
                # dual basis: u(gi)=1, u(gj)=0 and v(gi)=0, v(gj)=1
                return (Fraction(gj[1] - gi[1], det), Fraction(gi[0] - gj[0], det))
    g0 = table.vectors[0]
    if all(crosses[0][k] == 0 and dot(g0, table.vectors[k]) > 0 for k in range(n)):
        return (Fraction(gens[0][0]), Fraction(gens[0][1]))
    return None


def find_apex_functional(gens: list[Vec2]) -> Vec2 | None:
    """A covector strictly positive on every generator, if one exists.

    Existence is equivalent to all generators lying in an open half-plane
    (the cone has apex 0). Construction: find a pair of generators whose
    cone contains all the others and return the sum of the dual basis of
    that pair; if all generators share a single ray, the ray direction
    itself works. The search is :func:`_apex_functional` on the generators'
    sign table.
    """
    if not gens:
        raise ValueError("at least one generator required")
    for g in gens:
        if is_zero(g):
            raise ValueError("zero generator has no strictly positive functional")
    return _apex_functional(SignTable(gens), gens)


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
