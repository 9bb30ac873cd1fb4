"""Isotropy groups and freeness of the weighted 2-torus action.

A point of the level set with z supported on I and w supported on J has
isotropy equal to the joint kernel of the characters t -> t^{A_i} (i in I)
and t -> t^{B_j} (j in J). Stacking those exponent vectors into an integer
matrix, the kernel is read off its Smith normal form, whose invariant
factors come from the determinantal divisors: d1 = gcd of the entries and
d1*d2 = gcd of the 2 x 2 minors. Full rank gives the finite group
Z/d1 x Z/d2, a rank drop gives a positive-dimensional stabilizer.
Freeness of the whole action reduces to every mixed pair (A_i, B_j),
i != j, being a lattice basis; under the cone condition this is also the
trivial left homomorphism with a torus isomorphism on the right (the
README's freeness corollary), which is therefore not computed.

The census is kept as integers, :func:`_census_numbers`: the
determinantal divisors d1 and d12 = d1*d2 of each support pattern and
d12/d1, in census order, read from per-side tables over the subsets of {1, 2, 3} of the
entries and minors in the cone data's sign table. ``isotropy`` writes its
census from them and the data's mixed witnesses in one compiled template,
since under the cone condition the census has one shape (the README's
census-shape proposition); :func:`singular_stratum_census` is their view,
one :class:`StratumReport` per pattern.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .conegeom import _check_int, invariant_factors_from_divisors, scalar_to_json
from .weights import (
    DerivedConeData,
    WeightSystem,
    _failing_pair,
    cone_condition_holds,
)

__all__ = [
    "SupportPattern",
    "IsotropyGroup",
    "FreenessVerdict",
    "Classification",
    "freeness_check",
    "classify_quotient",
    "StratumReport",
    "singular_stratum_census",
    "census_to_json",
]


@dataclass(frozen=True)
class SupportPattern:
    """Nonzero index sets (I for z, J for w), 1-based ints (a bool or a
    float raises TypeError).

    The quadric equation sum z_j w_j = 0 forces some i in I, j in J with
    i != j whenever both vectors are nonzero, so patterns without such a
    pair are rejected.
    """

    i_set: tuple[int, ...]
    j_set: tuple[int, ...]

    def __post_init__(self):
        i_set, j_set = tuple(self.i_set), tuple(self.j_set)
        for k in (*i_set, *j_set):
            _check_int("support index", k)
        i_set, j_set = tuple(sorted(set(i_set))), tuple(sorted(set(j_set)))
        if not i_set or not j_set:
            raise ValueError("support sets must be nonempty")
        if not set(i_set) <= {1, 2, 3} or not set(j_set) <= {1, 2, 3}:
            raise ValueError("support indices must lie in {1, 2, 3}")
        if not any(i != j for i in i_set for j in j_set):
            raise ValueError("supports must admit a pair i != j")
        object.__setattr__(self, "i_set", i_set)
        object.__setattr__(self, "j_set", j_set)

    @property
    def is_singleton(self) -> bool:
        return len(self.i_set) == 1 and len(self.j_set) == 1

    @property
    def is_full(self) -> bool:
        return self.i_set == (1, 2, 3) and self.j_set == (1, 2, 3)


@dataclass(frozen=True)
class IsotropyGroup:
    """The stabilizer as the Smith form gives it: the rank of the exponent
    rows and their invariant factors. Rank 2 is the finite group
    Z/d1 x Z/d2; a lower rank leaves a positive-dimensional stabilizer.
    The rank and the factors are ints (a bool or a float raises TypeError)."""

    rank: int
    factors: tuple[int, ...]

    def __post_init__(self):
        _check_int("isotropy rank", self.rank)
        for f in self.factors:
            _check_int("invariant factor", f)

    @property
    def is_finite(self) -> bool:
        return self.rank == 2

    @property
    def rank_deficit(self) -> int:
        return 2 - self.rank

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("positive-dimensional stabilizer has no order")
        return prod(self.factors)

    @property
    def is_trivial(self) -> bool:
        return self.is_finite and self.order == 1

    def to_json(self) -> dict:
        if self.is_finite:
            return {"kind": "finite", "order": self.order, "factors": list(self.factors)}
        return {"kind": "positive-dimensional", "rank_deficit": self.rank_deficit}


def _integer_generators(d: DerivedConeData) -> tuple[tuple[int, int], ...]:
    """(A_1, A_2, A_3, B_1, B_2, B_3) as int pairs, read from d's one
    integer view; non-integer data raise ValueError."""
    gens = d.integer_generators
    if gens is None:
        raise ValueError("integer cone data required for isotropy computations")
    return gens


@functools.lru_cache(maxsize=256)
def _group_from_divisors(d1: int, d12: int) -> IsotropyGroup:
    """The (immutable, shared) group of rows with determinantal divisors
    d1 and d12 = d1*d2."""
    return IsotropyGroup(*invariant_factors_from_divisors(d1, d12))


class Classification(enum.Enum):
    FREE_FLAG_CASE = "FreeFlagCase"
    ORBIFOLD_CASE = "OrbifoldCase"

    @classmethod
    def of(cls, free: bool) -> "Classification":
        """The quotient is the flag variety exactly when the action is free,
        as the lattice-pair test decides it (:attr:`WeightSystem.free`)."""
        return _CLASSIFICATION[free]


# The one free/orbifold mapping, by the freeness verdict.
_CLASSIFICATION = {True: Classification.FREE_FLAG_CASE, False: Classification.ORBIFOLD_CASE}


@dataclass(frozen=True)
class FreenessVerdict:
    """Lattice-pair freeness; ``classification`` is set when a weight system
    was supplied and the cone condition holds (not part of the JSON)."""

    failing_pair: tuple[int, int, int] | None  # (i, j, |det(A_i, B_j)|)
    classification: Classification | None = None

    @property
    def free(self) -> bool:
        return self.failing_pair is None

    @property
    def classification_consistent(self) -> bool:
        return self.classification in (None, Classification.of(self.free))

    def to_json(self) -> dict:
        return {
            "free": self.free,
            "failing_pair": None if self.failing_pair is None else list(self.failing_pair),
            "classification_consistent": self.classification_consistent,
        }


def freeness_check(d: DerivedConeData, ws: WeightSystem | None = None) -> FreenessVerdict:
    """The action is free iff every (A_i, B_j) with i != j is a lattice basis.

    Non-integer cone data raise ValueError, as in the census. When the
    originating weight system is supplied and d passes the cone condition,
    the classification of ws's freeness verdict (:attr:`WeightSystem.free`)
    is returned with it; when d is ws's own data (:attr:`WeightSystem.derived`),
    the failing pair found here must agree with that verdict, which the
    enumerator may have stamped (RuntimeError otherwise). Both the data and
    the cone condition's verdict are cached on their objects, so neither is
    computed again here.
    """
    _integer_generators(d)  # non-integer data raise ValueError first
    # the sign table clears nothing from integer data: its crosses are the data's
    failing = _failing_pair(d._nine_crosses)
    classification = None
    if ws is not None and cone_condition_holds(d):
        # ws's own data, the usual case, is told by identity, with no field comparison
        if (ws.derived is d or ws.derived == d) and ws.free != (failing is None):
            raise RuntimeError(
                f"freeness verdict {ws.free} of {ws!r} differs from the "
                f"lattice-pair test on its own data, {failing is None}"
            )
        classification = Classification.of(ws.free)
    return FreenessVerdict(failing, classification)


def classify_quotient(ws: WeightSystem) -> Classification:
    """Free quotient (the flag variety) versus genuine orbifold quotient.

    Under the cone condition the action is free exactly when every mixed
    pair (A_i, B_j), i != j, is a lattice basis, and by the README's
    freeness corollary exactly when the left homomorphism is trivial and
    the right one is a torus isomorphism. :attr:`WeightSystem.free` decides
    it by the pairs (ValueError without the cone condition) or carries the
    enumerator's verdict.
    """
    return _CLASSIFICATION[ws.free]


@dataclass(frozen=True)
class StratumReport:
    pattern: SupportPattern
    isotropy: IsotropyGroup
    realizable: bool | None  # None: not determined
    witness: tuple[Fraction, Fraction] | None

    @property
    def witness_point(self) -> list[str] | None:
        return None if self.witness is None else [scalar_to_json(x) for x in self.witness]

    def to_json(self) -> dict:
        return {
            "I": list(self.pattern.i_set),
            "J": list(self.pattern.j_set),
            "isotropy": self.isotropy.to_json(),
            "realizable": "not determined" if self.realizable is None else self.realizable,
            "witness_point": self.witness_point,
        }


# The nonempty subsets of {1, 2, 3}, singletons first, then pairs, then
# the whole set: the index order of every per-side table of the census.
_SUBSETS = tuple(s for size in (1, 2, 3) for s in itertools.combinations((1, 2, 3), size))


def _census_patterns():
    """For every valid pattern, in census order: (pattern, the index of I
    and of J in _SUBSETS, (i, j) for a singleton {i} x {j} or None,
    whether it is the full pattern)."""
    patterns = []
    for i_set in _SUBSETS:
        for j_set in _SUBSETS:
            try:
                patterns.append(SupportPattern(i_set, j_set))
            except ValueError:
                continue  # only I = J = {k} fails the mixed-pair requirement
    patterns.sort(key=lambda p: (len(p.i_set), len(p.j_set), p.i_set, p.j_set))
    return tuple(
        (
            pattern,
            _SUBSETS.index(pattern.i_set),
            _SUBSETS.index(pattern.j_set),
            (pattern.i_set[0], pattern.j_set[0]) if pattern.is_singleton else None,
            pattern.is_full,
        )
        for pattern in patterns
    )


_CENSUS_PATTERNS = _census_patterns()

# The index of I and of J in _SUBSETS for each census pattern, in order.
_CENSUS_INDICES = tuple((p, q) for _, p, q, _, _ in _CENSUS_PATTERNS)


def _census_report(k: int, d1: int, d12: int, witness) -> StratumReport:
    """The report of the k-th census pattern with these determinantal
    divisors and, for a singleton, this witness (a, b) or None: a
    singleton is realizable exactly when it has a witness, the full
    pattern always, and the others are not determined."""
    pattern, _, _, singleton, full = _CENSUS_PATTERNS[k]
    realizable = (witness is not None) if singleton else (True if full else None)
    return StratumReport(pattern, _group_from_divisors(d1, d12), realizable, witness)


def _subset_gcds(x: int, y: int, z: int) -> tuple[int, ...]:
    """The gcd of the values x, y, z at the indices of each subset in
    _SUBSETS, in its order, up to sign: x, y, z, then the pairs, then all
    three. Every divisor is a gcd of these, which drops the sign."""
    xy = gcd(x, y)
    return x, y, z, xy, gcd(x, z), gcd(y, z), gcd(xy, z)


def _minor_gcds(m12: int, m13: int, m23: int) -> tuple[int, ...]:
    """The gcd of the 2 x 2 minors of one side's rows at the indices of
    each subset in _SUBSETS, up to sign, from the minors of rows (1, 2),
    (1, 3) and (2, 3): a singleton has none, so its gcd is 0."""
    return 0, 0, 0, m12, m13, m23, gcd(m12, m13, m23)


def _census_numbers(d: DerivedConeData) -> list[int]:
    """The census's integers, three per census pattern, in census order:
    d12, d1 and d12 // d1, for the determinantal divisors of the pattern's
    rows, d1 the gcd of their entries and d12 the gcd of their 2 x 2
    minors; where d1 = 0 the rows are 0, so d12 = 0, and the third is 0.
    Where d12 != 0 they are the group's order and its invariant factors,
    in the order ``isotropy`` writes them in its census's one template;
    :func:`singular_stratum_census` reads the divisors.

    The rows of the pattern I x J are the A_i, i in I, and the B_j, j in J,
    so their entries split by side and their minors into A-pairs, B-pairs
    and mixed pairs. Each is one table over the 7 subsets of a side, read
    from the generators and the crosses of d's sign table: the gcd of the
    A_i's entries and of the A-pair minors for each I (0 for a singleton),
    the same for the B_j, and the gcd of the mixed minors cross(A_i, B_j)
    for each (I, J). A pattern's divisors are then gcd(eA[I], eB[J]) and
    gcd(mA[I], mB[J], mX[I][J]): a gcd of gcds is the gcd of them all."""
    a1, a2, a3, b1, b2, b3 = (gcd(x, y) for x, y in _integer_generators(d))
    # the table clears nothing from integer data: its crosses are the minors
    crosses = d.sign_table.crosses
    r1, r2, r3, s1, s2 = crosses[:5]
    e_a, e_b = _subset_gcds(a1, a2, a3), _subset_gcds(b1, b2, b3)
    m_a, m_b = _minor_gcds(r1[1], r1[2], r2[2]), _minor_gcds(s1[4], s1[5], s2[5])
    # the mixed minors of each I against a single B_j, then of each I
    # against each J
    columns = [_subset_gcds(r1[q], r2[q], r3[q]) for q in (3, 4, 5)]
    m_x = [_subset_gcds(*row) for row in zip(*columns)]
    numbers = []
    for p, q in _CENSUS_INDICES:  # one loop: a second one over the divisors costs a sixth more
        d1 = gcd(e_a[p], e_b[q])
        d12 = gcd(m_a[p], m_b[q], m_x[p][q])
        numbers += (d12, d1, d12 // d1 if d1 else 0)
    return numbers


def singular_stratum_census(d: DerivedConeData) -> list[StratumReport]:
    """Isotropy of every support pattern, with realizability where decidable.

    Each pattern's isotropy comes from its determinantal divisors, the
    census keys d1 and d12 of :func:`_census_numbers`.

    Singleton patterns {i} x {j}, i != j, are realizable exactly when
    C = a*A_i + b*B_j with a, b > 0; the witness stores (a, b) (d's mixed
    witness) and the point has z_i = sqrt(a), w_j = sqrt(b). The
    full-support pattern is realizable because the strata with a vanishing
    coordinate form finitely many proper closed subsets. Intermediate
    patterns would require a nonconvex phase-feasibility argument, so they
    are reported with isotropy only. Under the cone condition every group
    is finite and every singleton has its witness (the README's
    census-shape proposition).
    """
    numbers = _census_numbers(d)  # non-integer data raise ValueError here
    witnesses = {(i, j): (Fraction(na, den), Fraction(nb, den)) for i, j, na, nb, den in d._witness_evidence}
    return [
        _census_report(k, d1, d12, witnesses.get(singleton))  # a non-singleton looks up None
        for k, (d12, d1, (_, _, _, singleton, _)) in enumerate(zip(numbers[::3], numbers[1::3], _CENSUS_PATTERNS))
    ]


def census_to_json(census: list[StratumReport]) -> list[dict]:
    return [r.to_json() for r in census]
