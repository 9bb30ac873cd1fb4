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
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .conegeom import invariant_factors_from_divisors, scalar_to_json
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
            if type(k) is not int:  # rejects bools and floats
                raise TypeError(f"support index must be an int, got {k!r}")
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
    Z/d1 x Z/d2; a lower rank leaves a positive-dimensional stabilizer."""

    rank: int
    factors: tuple[int, ...]

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
        if ws.derived == d and ws.free != (failing is None):
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


def _pattern_rows(pattern: SupportPattern) -> tuple[int, ...]:
    """Indices of the pattern's exponent rows in (A_1, A_2, A_3, B_1, B_2, B_3)."""
    return tuple(i - 1 for i in pattern.i_set) + tuple(2 + j for j in pattern.j_set)


_GENERATOR_PAIRS = tuple(itertools.combinations(range(6), 2))


def _census_patterns():
    """For every valid pattern, in census order: (pattern, a getter of its
    generator rows, a getter of its row pairs' indices in _GENERATOR_PAIRS,
    (i, j) for a singleton {i} x {j} or None, whether it is the full
    pattern). A getter returns a tuple of its indices, the first repeated
    so that one index gives a tuple too; a gcd does not change."""
    subsets = [s for size in (1, 2, 3) for s in itertools.combinations((1, 2, 3), size)]
    patterns = []
    for i_set in subsets:
        for j_set in subsets:
            try:
                patterns.append(SupportPattern(i_set, j_set))
            except ValueError:
                continue  # only I = J = {k} fails the mixed-pair requirement
    patterns.sort(key=lambda p: (len(p.i_set), len(p.j_set), p.i_set, p.j_set))
    pair_index = {pair: k for k, pair in enumerate(_GENERATOR_PAIRS)}
    table = []
    for pattern in patterns:
        rows = _pattern_rows(pattern)
        pairs = tuple(pair_index[pair] for pair in itertools.combinations(rows, 2))
        singleton = (pattern.i_set[0], pattern.j_set[0]) if pattern.is_singleton else None
        getters = (operator.itemgetter(*rows, rows[0]), operator.itemgetter(*pairs, pairs[0]))
        table.append((pattern, *getters, singleton, pattern.is_full))
    return tuple(table)


_CENSUS_PATTERNS = _census_patterns()


# One pass over the audit pool (3870 censuses) meets 429 keys.
@functools.lru_cache(maxsize=512)
def _shared_report(k: int, d1: int, d12: int) -> StratumReport:
    """The (immutable, shared) report of the k-th census pattern, not a
    singleton, whose rows have determinantal divisors d1 and d12: it holds
    no witness, so these three numbers fix it."""
    pattern, _, _, _, full = _CENSUS_PATTERNS[k]
    return StratumReport(pattern, _group_from_divisors(d1, d12), True if full else None, None)


def singular_stratum_census(d: DerivedConeData) -> list[StratumReport]:
    """Isotropy of every support pattern, with realizability where decidable.

    Each pattern's isotropy comes from its determinantal divisors: the gcd
    of its rows' entries and the gcd of its rows' 2 x 2 minors, read from
    the 15 pairwise minors of the six generators in d's sign table. The 40
    patterns that are not singletons carry no witness, so their reports are
    shared between censuses, one per (pattern, d1, d12).

    Singleton patterns {i} x {j}, i != j, are realizable exactly when
    C = a*A_i + b*B_j with a, b > 0; the witness stores (a, b) and the
    point has z_i = sqrt(a), w_j = sqrt(b). The full-support pattern is
    realizable because the strata with a vanishing coordinate form finitely
    many proper closed subsets. Intermediate patterns would require a
    nonconvex phase-feasibility argument, so they are reported with
    isotropy only.
    """
    entry_gcds = [gcd(x, y) for x, y in _integer_generators(d)]
    # the table clears nothing from integer data: its crosses are the minors
    crosses = d.sign_table.crosses
    minors = [crosses[p][q] for p, q in _GENERATOR_PAIRS]
    witnesses = {(i, j): (a, b) for i, j, a, b in d.mixed_witnesses}
    reports = []
    for k, (pattern, rows, pairs, singleton, _) in enumerate(_CENSUS_PATTERNS):
        d1, d12 = gcd(*rows(entry_gcds)), gcd(*pairs(minors))
        if singleton is None:
            reports.append(_shared_report(k, d1, d12))
        else:
            witness = witnesses.get(singleton)
            group = _group_from_divisors(d1, d12)
            reports.append(StratumReport(pattern, group, witness is not None, witness))
    return reports


def census_to_json(census: list[StratumReport]) -> list[dict]:
    return [r.to_json() for r in census]
