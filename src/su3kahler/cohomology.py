"""Finite-dimensional algebra models for the basic cohomology tables.

The basic cohomology ring of the construction has graded dimensions
(1, 2, 2, 1) in degrees 0, 2, 4, 6. We realize it concretely as the
coinvariant algebra Q[x1, x2, x3]/(e1, e2, e3) with deg x_i = 2 (the
cohomology of the full flag variety of rank two), which carries a hard
Lefschetz class; eliminating x3 = -x1 - x2 leaves the monomial basis
{1; x1, x2; x1^2, x1*x2; x1^2*x2}.

Tensoring with an exterior algebra on two degree-1 generators and sending
them to a basis of degree 2 produces a model whose cohomology is that of
the group itself, an exterior algebra on generators of degrees 3 and 5.
:func:`dga_cohomology` builds that complex A tensor Lambda(g0, g1) in one
grading, total degree, and reads its Betti numbers from
:func:`cohomology_of_complex`, which checks that d o d = 0. All its linear
algebra is exact (Gaussian elimination over the scalar field).

The bigraded variant places x_i in bidegree (1, 1), adds generators of
bidegrees (1, 0) and (0, 1), and sends the first to a class beta in the
(1, 1) part. Its Hodge numbers are a closed form (the README's
Hodge-branch corollary): all are fixed except one branch, decided by the
rank of multiplication by beta from bidegree (1, 1) to (2, 2), whose
determinant is the anisotropic form b1^2 - b1*b2 + b2^2. So
:func:`hodge_model` evaluates that form, in closed form on the rational
parts of its entries, and builds no complex; hitting the degenerate branch
requires scalars with a primitive cube root of unity adjoined, implemented
exactly by :class:`Eisenstein`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .conegeom import _scalar, _vector

__all__ = [
    "Eisenstein",
    "OMEGA",
    "exact_rank",
    "GradedAlgebra",
    "basic_model",
    "DGAModel",
    "build_derham_model",
    "cohomology_of_complex",
    "dga_cohomology",
    "HodgeTable",
    "hodge_model",
    "GENERIC_BETA",
    "DEGENERATE_BETA",
    "BASIC_BETTI",
    "SU3_DERHAM_BETTI",
]

BASIC_BETTI = (1, 0, 2, 0, 2, 0, 1)
SU3_DERHAM_BETTI = (1, 0, 0, 1, 0, 1, 0, 0, 1)


@dataclass(frozen=True)
class Eisenstein:
    """Exact element a + b*omega of Q(omega), omega a primitive cube root
    of unity (omega^2 = -1 - omega). Both parts pass the rational gate
    into Fractions (a bool, a float or a zero denominator raises)."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if type(self.a) is not Fraction or type(self.b) is not Fraction:  # arithmetic gives Fractions
            object.__setattr__(self, "a", Fraction(_scalar(self.a)))
            object.__setattr__(self, "b", Fraction(_scalar(self.b)))

    @staticmethod
    def of(x) -> "Eisenstein":
        return x if isinstance(x, Eisenstein) else Eisenstein(x, Fraction(0))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        o = Eisenstein.of(other)
        return Eisenstein(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Eisenstein(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-Eisenstein.of(other))

    def __rsub__(self, other):
        return Eisenstein.of(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Eisenstein):  # a rational scales both parts
            o = _scalar(other)
            return Eisenstein(self.a * o, self.b * o)
        return Eisenstein(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a - self.b * other.b,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Eisenstein.of(other)
        norm = o.a * o.a - o.a * o.b + o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(omega)")
        conj = Eisenstein(o.a - o.b, -o.b)
        num = self * conj
        return Eisenstein(num.a / norm, num.b / norm)

    def __eq__(self, other):
        if isinstance(other, Eisenstein):
            return self.a == other.a and self.b == other.b
        if type(other) is bool or not isinstance(other, (int, Fraction)):
            return NotImplemented  # bools fail the rational gate, like floats
        return self.b == 0 and self.a == other

    def __hash__(self):  # a rational element hashes as its rational, as it compares
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a}+{self.b}w)"


OMEGA = Eisenstein(Fraction(0), Fraction(1))


def exact_rank(rows: list[list]) -> int:
    """Rank by fraction-free-ish Gaussian elimination over any exact field
    (entries need +, -, *, / and truthiness)."""
    mat = [row[:] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for r in range(rank + 1, nrows):
            if mat[r][col]:
                factor = mat[r][col] / prow[col]
                mat[r] = [mat[r][j] - factor * prow[j] for j in range(ncols)]
        rank += 1
        col += 1
    return rank


def _matmul(a: list[list], b: list[list]) -> list[list]:
    if not a or not b:
        return []
    cols = list(zip(*b))
    return [
        [sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols]
        for row in a
    ]


@dataclass(frozen=True)
class GradedAlgebra:
    """Graded-commutative algebra given by basis labels and an exact
    multiplication table. Products landing above ``top`` vanish."""

    basis: dict[int, tuple[str, ...]]
    products: dict[tuple[int, int, int, int], tuple[Fraction, ...]]
    top: int
    lefschetz: tuple[Fraction, ...] | None = None  # class in degree 2

    def dim(self, deg: int) -> int:
        return len(self.basis.get(deg, ()))

    @property
    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def mul_basis(self, d1: int, i1: int, d2: int, i2: int) -> tuple[Fraction, ...]:
        target = d1 + d2
        if target > self.top:
            return ()
        if d1 == 0:  # unit in degree 0
            return tuple(
                Fraction(1) if k == i2 else Fraction(0) for k in range(self.dim(d2))
            )
        if d2 == 0:
            return tuple(
                Fraction(1) if k == i1 else Fraction(0) for k in range(self.dim(d1))
            )
        key = (d1, i1, d2, i2) if (d1, i1) <= (d2, i2) else (d2, i2, d1, i1)
        return self.products[key]

    def mul_class(self, d1: int, v1, d2: int, v2):
        """Product of two coefficient vectors; scalars may extend Q."""
        target = d1 + d2
        n = self.dim(target)
        zero = 0 * (list(v1) + list(v2) + [Fraction(0)])[0]
        out = [zero for _ in range(n)]
        for i1, c1 in enumerate(v1):
            if not c1:
                continue
            for i2, c2 in enumerate(v2):
                if not c2:
                    continue
                for k, s in enumerate(self.mul_basis(d1, i1, d2, i2)):
                    if s:
                        out[k] = out[k] + c1 * c2 * s
        return tuple(out)


def basic_model() -> GradedAlgebra:
    """The coinvariant algebra of the rank-two symmetric group action.

    Relations after eliminating x3: x2^2 = -x1^2 - x1*x2, x1^3 = 0 and
    x1*x2^2 = -x1^2*x2. Graded dimensions (1, 2, 2, 1) in degrees
    0, 2, 4, 6. The distinguished Lefschetz class is x1 - x3 = 2*x1 + x2.
    """
    F = Fraction
    basis = {
        0: ("1",),
        2: ("x1", "x2"),
        4: ("x1^2", "x1*x2"),
        6: ("x1^2*x2",),
    }
    products = {
        (2, 0, 2, 0): (F(1), F(0)),
        (2, 0, 2, 1): (F(0), F(1)),
        (2, 1, 2, 1): (F(-1), F(-1)),
        (2, 0, 4, 0): (F(0),),
        (2, 0, 4, 1): (F(1),),
        (2, 1, 4, 0): (F(1),),
        (2, 1, 4, 1): (F(-1),),
    }
    return GradedAlgebra(basis, products, top=6, lefschetz=(F(2), F(1)))


@dataclass(frozen=True)
class DGAModel:
    """The graded algebra tensored with an exterior algebra on two
    degree-1 generators, with the differential determined by their images
    in degree 2 (the differential vanishes on the algebra itself)."""

    algebra: GradedAlgebra
    d_gens: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]

    def __post_init__(self):
        for img in self.d_gens:
            if len(img) != self.algebra.dim(2):
                raise ValueError("generator images must live in degree 2")


def build_derham_model(dw1=(1, 0), dw2=(0, 1)) -> DGAModel:
    """The de Rham model with d(g0) = dw1 and d(g1) = dw2, each a list or
    tuple of two rationals over the basis (x1, x2) (TypeError otherwise)."""
    algebra = basic_model()
    images = tuple(tuple(map(Fraction, _vector(img))) for img in (dw1, dw2))
    return DGAModel(algebra, images)


def cohomology_of_complex(dims: list[int], mats: list[list[list]]) -> tuple[int, ...]:
    """Betti numbers of a cochain complex given by exact matrices.

    ``mats[n]`` is the matrix of d_n : C^n -> C^{n+1} (rows indexed by
    C^{n+1}); consecutive composites are verified to vanish.
    """
    if len(mats) != len(dims) - 1:
        raise ValueError("need one matrix per consecutive pair of degrees")
    for n, mat in enumerate(mats):
        if len(mat) != dims[n + 1] or any(len(row) != dims[n] for row in mat):
            raise ValueError(f"matrix {n} has the wrong shape")
    for n in range(len(mats) - 1):
        if dims[n] and dims[n + 2]:
            comp = _matmul(mats[n + 1], mats[n])
            if any(any(entry for entry in row) for row in comp):
                raise ValueError(f"d o d != 0 between degrees {n} and {n + 2}")
    ranks = [exact_rank(mat) if dims[n] and dims[n + 1] else 0 for n, mat in enumerate(mats)]
    betti = []
    for n, dim in enumerate(dims):
        rank_out = ranks[n] if n < len(ranks) else 0
        rank_in = ranks[n - 1] if n >= 1 else 0
        betti.append(dim - rank_out - rank_in)
    return tuple(betti)


# Exterior subsets in a fixed order; the pair (0, 1) maps by the Leibniz
# rule to +(d gen0) tensor gen1 - (d gen1) tensor gen0.
_SUBSETS = ((), (0,), (1,), (0, 1))


def dga_cohomology(model: DGAModel) -> tuple[int, ...]:
    """Betti numbers of the model, exact over Q: the complex
    A tensor Lambda(g0, g1) by total degree, with d = 0 on A,
    d(g_k) = d_gens[k] in A^2 and d(g0 g1) = +d(g0) g1 - d(g1) g0."""
    algebra = model.algebra
    basis: list[list] = [[] for _ in range(max(algebra.degrees) + 3)]
    for deg in algebra.degrees:
        for idx in range(algebra.dim(deg)):
            for s in _SUBSETS:
                basis[deg + len(s)].append((deg, idx, s))
    index = [{e: k for k, e in enumerate(elems)} for elems in basis]
    mats = [[[Fraction(0)] * len(basis[n]) for _ in basis[n + 1]] for n in range(len(basis) - 1)]
    for deg in algebra.degrees:
        for idx in range(algebra.dim(deg)):
            unit = [int(k == idx) for k in range(algebra.dim(deg))]
            for k, img in enumerate(model.d_gens):
                if not any(img):
                    continue
                prod = algebra.mul_class(deg, unit, 2, img)  # once per (deg, idx, k)
                for s, tail, sign in (((k,), (), 1), ((0, 1), (1 - k,), 1 - 2 * k)):
                    n = deg + len(s)
                    col = index[n][(deg, idx, s)]
                    for r, c in enumerate(prod):
                        if c:
                            mats[n][index[n + 1][(deg + 2, r, tail)]][col] += sign * c
    return cohomology_of_complex([len(elems) for elems in basis], mats)


@functools.lru_cache(maxsize=1)
def _derham_betti() -> tuple[int, ...]:
    """``dga_cohomology(build_derham_model())``, the Betti numbers of the
    one data-free model that ``cohomology`` prints: a constant, computed
    on the first call of a process."""
    return dga_cohomology(build_derham_model())


GENERIC_BETA = (Fraction(1), Fraction(0))
DEGENERATE_BETA = (Eisenstein(Fraction(0), Fraction(-1)), Eisenstein(Fraction(1), Fraction(0)))

# Entries of the Hodge diamond that do not depend on beta.
_FIXED_HODGE = {
    (0, 0): 1,
    (0, 1): 1,
    (1, 1): 1,
    (1, 2): 1,
    (3, 2): 1,
    (3, 3): 1,
    (4, 3): 1,
    (4, 4): 1,
}
# Every bidegree with |p - q| <= 1 in [0, 4], in order: _FIXED_HODGE's
# entry there, and 0 at the rest, the branch's three among them.
_HODGE_ENTRIES = {
    (p, q): _FIXED_HODGE.get((p, q), 0) for p in range(5) for q in range(max(0, p - 1), min(4, p + 1) + 1)
}


@dataclass(frozen=True)
class HodgeTable:
    entries: dict[tuple[int, int], int]

    @property
    def branch(self) -> tuple[int, int, int]:
        return (self.entries[(2, 1)], self.entries[(2, 2)], self.entries[(2, 3)])

    def diamond(self) -> list[list[int]]:
        rows = []
        for r in range(9):
            row = [
                self.entries.get((p, r - p), 0)
                for p in range(min(r, 4), max(0, r - 4) - 1, -1)
            ]
            rows.append(row)
        return rows

    def to_json(self) -> dict:
        return {"diamond": self.diamond(), "branch": list(self.branch)}


def _beta_entry(x):
    """An entry of beta as the rational parts (a, c) of a + c*omega: an
    :class:`Eisenstein`'s own parts, and (x, 0) for anything else passed
    through the rational gate, which :meth:`Eisenstein.of` applies too."""
    return (x.a, x.b) if isinstance(x, Eisenstein) else (_scalar(x), 0)


def hodge_model(beta) -> HodgeTable:
    """Hodge numbers of the bigraded model with d(u) = beta.

    ``beta`` is a list or tuple of two scalars (rationals or
    :class:`Eisenstein`; any other shape raises TypeError) expressing the
    image of the (1, 0) generator u in the (1, 1) part over the basis
    (x1, x2); the (0, 1) generator is closed. Every bidegree with
    |p - q| <= 1 in [0, 4] gets an entry: ``_FIXED_HODGE`` there, plus the
    branch at (2, 1), (2, 2), (2, 3), which is (1, 2, 1) where
    b1^2 - b1*b2 + b2^2 = 0 (multiplication by beta from A^{1,1} to A^{2,2}
    drops rank) and (0, 0, 0) elsewhere; the README's Hodge-branch
    corollary proves it. The form is evaluated in closed form on the
    entries' rational parts b_k = a_k + c_k*omega: with omega^2 =
    -1 - omega, its rational part is q(a) - q(c) and its omega part is
    2 a1 c1 + 2 a2 c2 - a1 c2 - a2 c1 - q(c), for q(x) = x1^2 - x1 x2 +
    x2^2, both evaluated in ints. A rational beta has c = 0, so its form
    is q(a), positive definite over Q, and its branch is (0, 0, 0).
    """
    (a1, c1), (a2, c2) = _vector(beta, _beta_entry)
    if not (a1 or c1 or a2 or c2):
        raise ValueError("beta must be nonzero")
    # the form is homogeneous: the parts times their denominators' product
    # are integers with the same zeros, and ints multiply fast
    den = a1.denominator * c1.denominator * a2.denominator * c2.denominator
    a1, c1, a2, c2 = [x.numerator * (den // x.denominator) for x in (a1, c1, a2, c2)]
    qc = c1 * c1 - c1 * c2 + c2 * c2
    rational = a1 * a1 - a1 * a2 + a2 * a2 - qc
    omega = 2 * (a1 * c1 + a2 * c2) - a1 * c2 - a2 * c1 - qc
    branch = (0, 0, 0) if rational or omega else (1, 2, 1)
    entries = dict(_HODGE_ENTRIES)
    entries.update(zip(((2, 1), (2, 2), (2, 3)), branch))
    return HodgeTable(entries)
