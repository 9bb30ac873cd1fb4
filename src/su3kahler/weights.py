"""Weight systems of double-sided 2-torus actions on SU(3).

A weight system is a pair of integer homomorphism exponents
``wL = (w_1^L, w_2^L, w_3^L)`` and ``wR = (w_1^R, w_2^R, w_3^R)`` in Z^2,
each summing to zero so that the diagonal images land in the maximal
torus. From it we derive the plane configuration

    A_j = w_j^L - w_1^R,   B_j = -w_j^L + w_3^R,   C = -w_1^R + w_3^R,

whose cone geometry governs the whole construction. The separating cone
condition checked by :func:`check_cone_condition` requires C to avoid every cone
spanned by two A's or two B's (rays included) while lying in every mixed
cone(A_i, B_j). Its consequences are the nonemptiness, regularity and
compactness of the moment-map level set, checked independently by
:func:`check_level_set_conditions`, and the deformation path to the round level set,
checked by :func:`check_interpolation_path`.

All checks are exact rational arithmetic; nothing here touches floats.
The boolean condition is one rule (the nine-sign corollary in the
README): the nine crosses cross(A_i, B_j), i, j = 1..3, are all nonzero
with one sign. The scalar verdict :func:`cone_condition_holds` reads them
off one integer table per cone data, :attr:`DerivedConeData.sign_table`
(a :class:`~su3kahler.conegeom.SignTable`), which also gives, as
integers, the 27 decisions of :func:`check_cone_condition` (the nine mixed
ones are one tuple per cone data, which the mixed witnesses read too),
the mixed witnesses, regularity, compactness and the apex functional:
:func:`_condition_evidence`, from which ``check`` writes its report.
Where the condition holds, the nine crosses give all of these but the
apex by the corollary's own formula, with no membership decided; data
that fail it are decided pair by pair. The library's objects
(:class:`ConditionReport`, its memberships,
:attr:`DerivedConeData.mixed_witnesses`, the apex functional) are their
``Fraction`` views. The interpolation path
needs no crosses of its own: by the README's path corollary it holds on
all of [0, 1] exactly when the nine-sign rule holds at t = 1, so
:func:`check_interpolation_path` returns the same verdict. The enumerator
computes the nine crosses as one (9, n) integer array per outer wL block
against every wR, by :func:`derive`'s formulas broadcast over the grid,
decides the block with a few whole-array calls, and reads the freeness
of each survivor off the same array. Freeness is decided once, by the
lattice pairs (:func:`_failing_pair`: every (A_i, B_j), i != j, a lattice
basis); by the README's freeness corollary, under the cone condition that
is the homomorphism test (wL = 0 and |cross(w_1^R, w_3^R)| = 1), so the
latter is not computed. Every entry of a block is at most 8*bound**2 in
magnitude, so the block runs in the narrowest signed type that holds that
value (:func:`_block_dtype`: int8 up to bound 3 and int16 up to
:data:`MAX_BOUND`, the largest bound the search takes). Those arrays are
the module's only use of numpy, which the search's cached grid,
:func:`_weight_grid`, imports on its first call; the scalar checks run
without it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator

from .conegeom import (  # noqa: F401 (in_cone2 re-exported: the benchmark binds weights.in_cone2)
    ConeMembership,
    SignTable,
    Vec2,
    _INTERIOR,
    _OUTSIDE_EVIDENCE,
    _check_int,
    _membership_of,
    _vector,
    cross,
    in_cone2,
    is_zero,
    scalar_to_json,
    vadd,
    vec_to_json,
    vscale,
    vsub,
)

__all__ = [
    "WeightSystem",
    "DerivedConeData",
    "cone_data",
    "derive",
    "LevelSetConditions",
    "ConditionReport",
    "check_cone_condition",
    "cone_condition_holds",
    "check_level_set_conditions",
    "positive_combination",
    "WeightSolution",
    "weights_from_cone_data",
    "default_interpolation_times",
    "check_interpolation_path",
    "enumerate_admissible_systems",
    "MAX_BOUND",
]

IVec2 = tuple[int, int]


class _fact:
    """A fact of an instance, computed by ``func`` on its first read and
    stored in the instance's ``__dict__`` under the attribute's name, as
    the standard library's cached property does it from Python 3.12 on,
    without the lock that Python 3.11's takes on every first read.

    It has ``__get__`` alone, so a value in ``__dict__`` shadows it: every
    later read is a plain attribute lookup, and a value put there before
    the first read (the enumerator's ``free``) is read without a call.
    Writing to ``__dict__`` directly works on frozen dataclasses, whose
    ``==``, hash and repr read their fields only. An exception is not
    cached: the next read calls ``func`` again."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _weight_rows(*named_sides) -> tuple[tuple[IVec2, IVec2, IVec2], ...]:
    """The one row check, shared by :class:`WeightSystem` and the
    enumeration grid: each (name, side) pair as three int pairs summing
    to zero.

    Every side must be a list or tuple. Every entry is checked next, as a
    list or tuple of two ints (bools and floats are rejected: a string or
    a dict would unpack into its characters or keys), then every side's
    length, then each side's sum (``name`` labels it in the message); the
    first failure raises ValueError. One pass over the sides: a side that
    is not a list raises at once, and every other fault is held, the first
    of the earliest kind (an entry, a length, a sum), until the pass ends.
    """
    rows = []
    kind, message = 3, None  # the held fault: 0 an entry, 1 a length, 2 a sum
    for name, side in named_sides:
        if not isinstance(side, (list, tuple)):
            raise ValueError(f"{name} must be a list of three weight vectors, got {side!r}")
        for v in side:
            if not isinstance(v, (list, tuple)) or len(v) != 2 or type(v[0]) is not int or type(v[1]) is not int:
                if kind > 0:
                    kind, message = 0, f"integer weight vector expected, got {v!r}"
                break
        else:
            if len(side) != 3:
                if kind > 1:
                    kind, message = 1, "exactly three weight vectors per side"
                continue
            (x1, y1), (x2, y2), (x3, y3) = side
            row = ((x1, y1), (x2, y2), (x3, y3))
            if (x1 + x2 + x3 or y1 + y2 + y3) and kind > 2:
                kind, message = 2, f"{name} must sum to zero, got {row}"
            rows.append(row)
    if message is not None:
        raise ValueError(message)
    return tuple(rows)


@dataclass(frozen=True, order=True)
class WeightSystem:
    """Six integer exponent vectors, three per side, each side summing to 0."""

    wl: tuple[IVec2, IVec2, IVec2]
    wr: tuple[IVec2, IVec2, IVec2]

    def __post_init__(self):
        wl, wr = _weight_rows(("wL", self.wl), ("wR", self.wr))
        object.__setattr__(self, "wl", wl)
        object.__setattr__(self, "wr", wr)

    @classmethod
    def from_json(cls, obj: dict) -> "WeightSystem":
        try:
            return cls(obj["wL"], obj["wR"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed weight system object: {exc}") from exc

    def to_json(self) -> dict:
        (a, b, c), (d, e, f) = self.wl, self.wr
        return {"wL": [[*a], [*b], [*c]], "wR": [[*d], [*e], [*f]]}

    @_fact
    def derived(self) -> "DerivedConeData":
        """The cone data of this system, built by :func:`derive` on first
        use and cached on the instance (not a field, like :attr:`free`)."""
        return derive(self)

    @_fact
    def free(self) -> bool:
        """Whether the torus action is free (the quotient is the flag variety).

        Decided on first use through the scalar path on :attr:`derived`:
        raise ValueError unless the cone condition holds, then apply the
        lattice-pair test, :func:`_failing_pair`. By the README's freeness
        corollary this is also the homomorphism test (wL = 0 and
        |cross(w_1^R, w_3^R)| = 1). :func:`enumerate_admissible_systems`
        fills it in from the same test on its block array. It is not a
        field, so ==, hash and repr ignore it.
        """
        d = self.derived
        if not cone_condition_holds(d):
            raise ValueError("classification requires the cone condition to hold")
        return _failing_pair(d._nine_crosses) is None


@dataclass(frozen=True)
class DerivedConeData:
    """The plane configuration (A_1..A_3, B_1..B_3, C) with A_j + B_j = C."""

    a: tuple[Vec2, Vec2, Vec2]
    b: tuple[Vec2, Vec2, Vec2]
    c: Vec2

    def __post_init__(self):
        for j in range(3):
            if vadd(self.a[j], self.b[j]) != self.c:
                raise ValueError(f"A_{j + 1} + B_{j + 1} != C")

    @_fact
    def integer_generators(self) -> tuple[IVec2, ...] | None:
        """The one integer view of the data: (A_1, A_2, A_3, B_1, B_2, B_3)
        as int pairs, read off :attr:`sign_table`, or None when some entry
        (C included) is not an integer: the table clears a denominator
        (its scale is not 1) or refuses the entry, as it does a float such
        as 1.0 or a bool. Cached on the instance like
        :attr:`mixed_witnesses`; the isotropy computations read it."""
        try:
            table = self.sign_table
        except TypeError:
            return None
        return table.vectors[:_C] if table.scale == 1 else None

    @property
    def is_integer(self) -> bool:
        return self.integer_generators is not None

    def generators(self) -> list[Vec2]:
        return [*self.a, *self.b]

    @_fact
    def _nine_crosses(self) -> list[int]:
        """The sign table's cross(A_i, B_j), 0-based, at position 3*i + j:
        the crosses of the cleared vectors, so the data's own crosses for
        integer data. Read once per instance."""
        return [x for row in self.sign_table.crosses[:3] for x in row[3:_C]]

    @_fact
    def _holds(self) -> bool:
        """The separating cone condition, decided once per instance by the
        nine-sign rule on the sign table and cached; read it through
        :func:`cone_condition_holds`."""
        nine = self._nine_crosses
        return _one_strict_sign(min(nine), max(nine))

    @_fact
    def sign_table(self) -> SignTable:
        """The one sign table of this data: A_1, A_2, A_3, B_1, B_2, B_3 and
        C (rows 0-5 and :data:`_C`) cleared of denominators, with their
        cross products. Every cone decision and witness of
        :func:`check_cone_condition`, :func:`check_level_set_conditions`,
        :func:`check_interpolation_path` and the isotropy census reads it. Built
        on first use and cached on the instance, like
        :attr:`mixed_witnesses`; it is not a field."""
        return SignTable((*self.a, *self.b, self.c))

    @_fact
    def _apex(self) -> tuple[int, int, int] | None:
        """The apex functional as integers (x, y, den), the covector
        (x/den, y/den), searched on the sign table
        (:meth:`~su3kahler.conegeom.SignTable.apex`), or None when a
        generator is zero or none exists. Computed once per instance."""
        table = self.sign_table
        if any(is_zero(g) for g in table.vectors[:_C]):
            return None
        return table.apex(_C)

    @_fact
    def apex_functional(self) -> Vec2 | None:
        """A covector strictly positive on all six generators, found in
        :func:`~su3kahler.conegeom.find_apex_functional`'s order, or None
        when a generator is zero or none exists: the ``Fraction`` view of
        :attr:`_apex`, which :func:`check_level_set_conditions` reports.
        No command reads it: ``check`` writes :attr:`_apex`'s quotients."""
        apex = self._apex
        return None if apex is None else (Fraction(apex[0], apex[2]), Fraction(apex[1], apex[2]))

    @_fact
    def _mixed_evidence(self) -> tuple[tuple, ...]:
        """C against cone(A_i, B_j), 0-based, at position 3*i + j, as the
        integer evidence (status, n1, n2, den) that the sign table's
        :meth:`~su3kahler.conegeom.SignTable.decide` gives, read once per
        instance: the condition report, its text and the mixed witnesses
        all read it. A diagonal one with cross(A_i, B_i) != 0 is the shared
        :data:`_DIAGONAL_EVIDENCE`, which C = A_i + B_i makes it.

        Where the condition holds (:attr:`_holds`), nothing is decided: by
        the README's nine-sign corollary C = (s_j A_i + s_i B_j)/d_ij with
        d_ij = cross(A_i, B_j) and s_k = d_kk, all of one sign, so the pair
        i != j is (INTERIOR, s_j, s_i, d_ij), read off the nine crosses.
        Elsewhere every pair but an independent diagonal one is decided."""
        nine = self._nine_crosses
        if self._holds:
            s = nine[::4]
            return tuple([
                _DIAGONAL_EVIDENCE if i == j else (_INTERIOR, s[j], s[i], d)
                for (i, j), d in zip(_ORDERED_PAIRS, nine)
            ])
        decide = self.sign_table.decide
        return tuple([
            _DIAGONAL_EVIDENCE if i == j and d else decide(_C, i, 3 + j)
            for (i, j), d in zip(_ORDERED_PAIRS, nine)
        ])

    @_fact
    def _witness_evidence(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """(i, j, na, nb, den), in order of (i, j), for every i != j
        (1-based) with C = (na*A_i + nb*B_j)/den and na/den, nb/den > 0:
        the integers of :attr:`mixed_witnesses`, built once per instance.
        For independent A_i, B_j they are the witness of an INTERIOR
        decision in :attr:`_mixed_evidence` (strictly positive exactly
        then); dependent pairs take the sign table's
        :meth:`~su3kahler.conegeom.SignTable.positive`, which picks one
        from the family of solutions."""
        table = self.sign_table
        crosses = table.crosses
        witnesses = []
        for (i, j), (status, n1, n2, den) in zip(_ORDERED_PAIRS, self._mixed_evidence):
            if i == j:
                continue
            if crosses[i][3 + j]:
                w = (n1, n2, den) if status is _INTERIOR else None
            else:
                w = table.positive(_C, i, 3 + j)
            if w is not None:
                witnesses.append((i + 1, j + 1, *w))
        return tuple(witnesses)

    @_fact
    def mixed_witnesses(self) -> tuple[tuple[int, int, Fraction, Fraction], ...]:
        """(i, j, a, b), in order of (i, j), for every i != j (1-based) with
        C = a*A_i + b*B_j and a, b > 0.

        The one table of positive mixed combinations, the ``Fraction``
        view of :attr:`_witness_evidence`, built on first use and cached on
        the instance; it is not a field, so == and hash ignore it. No
        command reads it: ``isotropy`` and ``verify`` read the integers.
        """
        return tuple((i, j, Fraction(na, den), Fraction(nb, den)) for i, j, na, nb, den in self._witness_evidence)

    def to_json(self) -> dict:
        return {
            "A": [vec_to_json(v) for v in self.a],
            "B": [vec_to_json(v) for v in self.b],
            "C": vec_to_json(self.c),
        }


# The row of C in a DerivedConeData's sign table, after the six generators.
_C = 6

# C against cone(A_i, B_i) for independent A_i, B_i: C = A_i + B_i is
# interior with coefficients (1, 1), as SignTable.decide finds it.
_DIAGONAL_EVIDENCE = (_INTERIOR, 1, 1, 1)

# The nine index pairs (i, j), 0-based, in the order of (i, j).
_ORDERED_PAIRS = tuple(itertools.product(range(3), repeat=2))

# The A-pair and B-pair tables of data where the condition holds: C lies
# in none of the nine cones (the nine-sign corollary).
_OUTSIDE_TABLE = (_OUTSIDE_EVIDENCE,) * 9


def cone_data(a_vectors, b_vectors) -> DerivedConeData:
    """Build cone data from A's and B's, each a list or tuple of three
    vectors (ValueError naming the side otherwise), requiring A_j + B_j
    constant."""
    for name, side in (("A", a_vectors), ("B", b_vectors)):
        if not isinstance(side, (list, tuple)) or len(side) != 3:
            raise ValueError(f"{name} must be a list of three vectors, got {side!r}")
    a = tuple(_vector(v) for v in a_vectors)
    b = tuple(_vector(v) for v in b_vectors)
    return DerivedConeData(a, b, vadd(a[0], b[0]))  # the type checks A_j + B_j = C


def _configuration(wl, w1r, w3r):
    """(A, B, C) with A_j = w_j^L - w_1^R, B_j = -w_j^L + w_3^R and
    C = w_3^R - w_1^R; w1r and w3r may be vectors of integer arrays, and then
    every component is an array."""
    a = tuple(vsub(w, w1r) for w in wl)
    b = tuple(vsub(w3r, w) for w in wl)
    return a, b, vsub(w3r, w1r)


def derive(ws: WeightSystem) -> DerivedConeData:
    """Derived cone data A_j = w_j^L - w_1^R, B_j = -w_j^L + w_3^R."""
    # A_j + B_j = C re-asserted by the type
    return DerivedConeData(*_configuration(ws.wl, ws.wr[0], ws.wr[2]))


# The six mixed pairs (i, j), i != j, 0-based, in the order freeness
# evidence reports the first failing one.
_MIXED_PAIRS = tuple((i, j) for j in range(3) for i in range(3) if i != j)


def _failing_pair(nine) -> tuple[int, int, int] | None:
    """Freeness by the lattice pairs, the one freeness test: the first
    (i, j, |det|), 1-based, with i != j and (A_i, B_j) not a lattice basis,
    |cross(A_i, B_j)| != 1, or None when the action is free. Read at
    position 3*i + j of the nine crosses in row-major order
    (:attr:`DerivedConeData._nine_crosses` of integer data). Under the
    cone condition it is also the homomorphism test (the README's freeness
    corollary). The specification of the enumerator's block test, which
    reads the same six rows of its (9, n) array at once."""
    for i, j in _MIXED_PAIRS:
        det = abs(nine[3 * i + j])
        if det != 1:
            return (i + 1, j + 1, det)
    return None


def positive_combination(c: Vec2, g1: Vec2, g2: Vec2) -> tuple[Fraction, Fraction] | None:
    """Exact (a, b) with a, b > 0 and a*g1 + b*g2 == c, or None.

    Unlike plain cone membership this demands strictly positive
    coefficients, so degenerate generator configurations need their own
    branches (parallel generators leave a 1-parameter family to pick from).
    The ``Fraction`` view of :meth:`~su3kahler.conegeom.SignTable.positive`
    on the sign table of the three vectors, as :func:`in_cone2` reads them
    (a bool or a float raises TypeError).
    """
    w = SignTable((c, g1, g2)).positive(0, 1, 2)
    return None if w is None else (Fraction(w[0], w[2]), Fraction(w[1], w[2]))


@dataclass(frozen=True)
class LevelSetConditions:
    """Level-set nonemptiness, regularity and compactness with witnesses."""

    nonempty: bool
    nonempty_witness: tuple[int, int, Fraction, Fraction] | None
    regular: bool
    compact: bool
    apex_functional: Vec2 | None

    @property
    def all_hold(self) -> bool:
        return self.nonempty and self.regular and self.compact

    def to_json(self) -> dict:
        witness = None
        if self.nonempty_witness is not None:
            i, j, a, b = self.nonempty_witness
            witness = {"i": i, "j": j, "a": scalar_to_json(a), "b": scalar_to_json(b)}
        return {
            "nonempty": self.nonempty,
            "nonempty_witness": witness,
            "regular": self.regular,
            "compact": self.compact,
            "apex_functional": None
            if self.apex_functional is None
            else vec_to_json(self.apex_functional),
        }


def _level_set_evidence(d: DerivedConeData) -> tuple:
    """The integers of :func:`check_level_set_conditions`: (witness,
    regular, compact, apex), with the first mixed witness (i, j, na, nb,
    den) of :attr:`DerivedConeData._witness_evidence` or None, and the apex
    functional (x, y, den) of :attr:`DerivedConeData._apex` or None.

    Where the condition holds, the nine-sign corollary decides the rest:
    every mixed cross is nonzero, so the data are regular, and C lies in
    no A-pair cone, so they are compact exactly when an apex exists.
    Elsewhere regularity reads the six mixed crosses and compactness the
    two A-pair memberships that decide it."""
    witnesses = d._witness_evidence
    apex = d._apex
    if d._holds:
        return witnesses[0], True, apex is not None, apex
    table = d.sign_table
    crosses = table.crosses
    regular = all(crosses[i][3 + j] for i, j in _MIXED_PAIRS)
    compact = apex is not None and all(table.decide(_C, 0, q) is _OUTSIDE_EVIDENCE for q in (1, 2))
    return witnesses[0] if witnesses else None, regular, compact, apex


def check_level_set_conditions(d: DerivedConeData) -> LevelSetConditions:
    """Check the three level-set conditions directly (not via the cone test).

    nonempty: some C = a*A_i + b*B_j with i != j and a, b > 0;
    regular:  A_i, B_j linearly independent for all i != j;
    compact:  C outside cone(A_1,A_2,A_3) and cone(B_1,B_2,B_3), all six
              generators nonzero, and the cone of all six has an apex.
    With an apex and A_j + B_j = C, C is in cone(A) iff it is in cone(B), and
    the pointed cone(A) is cone(A_1,A_2) | cone(A_1,A_3) (proof in the README),
    so two memberships decide compactness. Every test reads d's sign table;
    the apex pair is searched in :func:`~su3kahler.conegeom.find_apex_functional`'s
    order. The ``Fraction`` view of :func:`_level_set_evidence`.
    """
    witness, regular, compact, _ = _level_set_evidence(d)
    if witness is not None:
        i, j, na, nb, den = witness
        witness = (i, j, Fraction(na, den), Fraction(nb, den))
    return LevelSetConditions(witness is not None, witness, regular, compact, d.apex_functional)


@dataclass(frozen=True)
class ConditionReport:
    """Full evidence for the separating cone condition.

    ``a_pairs``/``b_pairs``/``mixed_pairs`` map 1-based index pairs (i, j)
    to exact membership results for C against cone(A_i, A_j),
    cone(B_i, B_j) and cone(A_i, B_j); the mixed clause is checked for all
    nine pairs including i == j.
    """

    holds: bool
    a_pairs: dict[tuple[int, int], ConeMembership]
    b_pairs: dict[tuple[int, int], ConeMembership]
    mixed_pairs: dict[tuple[int, int], ConeMembership]
    level_set: LevelSetConditions

    def to_json(self) -> dict:
        def table(pairs):
            return {f"{i},{j}": m.to_json() for (i, j), m in sorted(pairs.items())}

        return {
            "holds": self.holds,
            "A_pairs": table(self.a_pairs),
            "B_pairs": table(self.b_pairs),
            "mixed_pairs": table(self.mixed_pairs),
            "level_set": self.level_set.to_json(),
        }


def _condition_evidence(d: DerivedConeData) -> tuple:
    """The integers of :func:`check_cone_condition`: (holds, tables, level
    set), with the three tables (A-pairs, B-pairs, mixed pairs) as the nine
    evidence tuples (status, n1, n2, den) of C against cone(A_i, A_j),
    cone(B_i, B_j) and cone(A_i, B_j) in order of (i, j), and the level
    set as :func:`_level_set_evidence` gives it. ``check`` writes its
    report from these; :func:`check_cone_condition` is their view.

    Where the condition holds, the nine-sign corollary gives every table
    without a decision: both pair tables are the shared
    :data:`_OUTSIDE_TABLE`, and the mixed one is
    :attr:`DerivedConeData._mixed_evidence`, read off the nine crosses.
    Elsewhere each pair is decided by the sign table's
    :meth:`~su3kahler.conegeom.SignTable.decide`."""
    if d._holds:
        return True, (_OUTSIDE_TABLE, _OUTSIDE_TABLE, d._mixed_evidence), _level_set_evidence(d)
    decide = d.sign_table.decide
    a_pairs = [decide(_C, i, j) for i, j in _ORDERED_PAIRS]
    b_pairs = [decide(_C, 3 + i, 3 + j) for i, j in _ORDERED_PAIRS]
    return False, (a_pairs, b_pairs, d._mixed_evidence), _level_set_evidence(d)


def check_cone_condition(d: DerivedConeData) -> ConditionReport:
    """The separating cone condition's verdict, :func:`cone_condition_holds`,
    with all 27 sub-results as its evidence: the ``Fraction`` views of
    :func:`_condition_evidence`, read off d's nine crosses where the
    condition holds and decided on d's sign table by
    :meth:`~su3kahler.conegeom.SignTable.decide` where it fails (the nine
    mixed ones are d's one tuple of them, which
    :attr:`DerivedConeData.mixed_witnesses` reads too). By the nine-sign
    corollary the verdict holds exactly when no A-pair or B-pair
    membership is a member and all nine mixed ones are."""
    holds, tables, _ = _condition_evidence(d)
    a_pairs, b_pairs, mixed = (
        {(i + 1, j + 1): _membership_of(e) for (i, j), e in zip(_ORDERED_PAIRS, table)} for table in tables
    )
    return ConditionReport(holds, a_pairs, b_pairs, mixed, check_level_set_conditions(d))


def cone_condition_holds(d: DerivedConeData) -> bool:
    """The separating cone condition, decided once per cone data object by
    the nine-sign rule; :func:`check_cone_condition` reports it with its
    evidence."""
    return d._holds


@dataclass(frozen=True)
class WeightSolution:
    """Rational weight system solving the derivation equations, plus the
    minimal integer rescaling."""

    wl_rational: tuple[Vec2, Vec2, Vec2]
    wr_rational: tuple[Vec2, Vec2, Vec2]
    scale: int
    system: WeightSystem

    def to_json(self) -> dict:
        return {
            "rational": {
                "wL": [vec_to_json(v) for v in self.wl_rational],
                "wR": [vec_to_json(v) for v in self.wr_rational],
            },
            "scale": self.scale,
            "integer": self.system.to_json(),
        }


def weights_from_cone_data(d: DerivedConeData) -> WeightSolution:
    """Solve A_j = w_j^L - w_1^R, B_j = -w_j^L + w_3^R for the weights of
    the validated cone data d (built by :func:`cone_data`).

    The linear system is underdetermined; the zero-sum constraints fix the
    particular solution

        w_j^L = A_j - S_A/3,  w_1^R = -S_A/3,
        w_2^R = S_A/3 - S_B/3,  w_3^R = S_B/3,

    with S_A, S_B the coordinate sums. The returned scale is the least
    positive integer clearing every denominator, and the integer system
    derives back to scale * (A, B, C) exactly.
    """
    third = Fraction(1, 3)
    sa = vadd(vadd(d.a[0], d.a[1]), d.a[2])
    sb = vadd(vadd(d.b[0], d.b[1]), d.b[2])
    sa3 = vscale(third, sa)
    sb3 = vscale(third, sb)
    wl = tuple(vsub(aj, sa3) for aj in d.a)
    wr = (vscale(-1, sa3), vsub(sa3, sb3), sb3)
    denominators = [Fraction(x).denominator for v in (*wl, *wr) for x in v]
    scale = lcm(*denominators)

    def rescaled(v: Vec2) -> IVec2:
        return (int(scale * Fraction(v[0])), int(scale * Fraction(v[1])))

    system = WeightSystem(tuple(rescaled(v) for v in wl), tuple(rescaled(v) for v in wr))
    return WeightSolution(wl, wr, scale, system)


def default_interpolation_times(steps: int = 8) -> tuple[Fraction, ...]:
    """k/steps for k = 0..steps, the times a ``check`` report lists."""
    return tuple(Fraction(k, steps) for k in range(steps + 1))


def check_interpolation_path(d: DerivedConeData) -> bool:
    """Whether the straight-line deformation toward the round configuration
    keeps the separating cone condition for every time in [0, 1].

    At time t the generators are A_j(t) = t*A_j + (1-t)*A_1 and
    B_j(t) = t*B_j + (1-t)*B_1 while C = A_1 + B_1 stays fixed; t = 1
    restores the input. Raises ValueError unless A_1 and B_1 are
    independent (C interior to cone(A_1, B_1), with coefficients (1, 1)).
    The nine crosses along the path are forms in t whose coefficients are
    sums of the nine at t = 1, so by the README's path corollary the path
    holds exactly when :func:`cone_condition_holds` does.
    """
    if d._nine_crosses[0] == 0:
        raise ValueError("C must lie in the interior of cone(A_1, B_1)")
    return cone_condition_holds(d)


# The largest bound the search takes, checked before anything is allocated.
# Memory no longer sets it: a grid has (3*bound**2 + 3*bound + 1)**2 rows,
# and building it raises the process's peak by about 0.4 KB per row at
# bounds 5-11, to 72 MB at bound 10 (109561 rows) and 91 MB at bound 11.
# A larger bound would change what ``enumerate`` accepts, so it stays 10.
MAX_BOUND = 10


def _block_dtype(bound: int) -> str:
    """The name of the narrowest signed integer type holding every value
    the enumeration block of this bound, at most :data:`MAX_BOUND`,
    computes: int8 up to bound 3 and int16 beyond.

    Grid entries are at most bound in magnitude, so the components of A_i
    and B_j are at most 2*bound, each product in a cross at most
    4*bound**2 and the cross itself at most 8*bound**2, the largest value
    the block computes; int16 holds it up to bound 63, past
    :data:`MAX_BOUND`.
    """
    return "int8" if 8 * bound * bound <= 2**7 - 1 else "int16"


@functools.lru_cache(maxsize=2)
def _weight_grid(bound: int):
    """Every zero-sum weight triple with entries in [-bound, bound], in
    lexicographic order of (w_1, w_2); the same rows as one (n, 3, 2)
    array and their (4, n) columns x_1, y_1, x_3, y_3 (of w_1^R and w_3^R),
    both in :func:`_block_dtype`'s type for the bound; and the rows of the
    six off-diagonal pairs in the block's nine, as a column, which the
    freeness gather reads. Both sides of a weight system range over this
    grid. Built on first use per bound, with every row passed once through
    the row check of :class:`WeightSystem`; the arrays are read-only because
    the cache shares them. The one place the search imports numpy: a
    process that never searches never loads it.
    """
    import numpy as np

    rng = range(-bound, bound + 1)
    rows = tuple(
        _weight_rows(("grid row", ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))))[0]
        for x1, y1, x2, y2 in itertools.product(rng, rng, rng, rng)
        if abs(x1 + x2) <= bound and abs(y1 + y2) <= bound
    )
    triples = np.array(rows, dtype=_block_dtype(bound))  # (n, 3, 2)
    wr = np.ascontiguousarray(triples[:, (0, 2)].reshape(-1, 4).T)
    mixed = np.array([[3 * i + j] for i, j in _MIXED_PAIRS])
    for arr in (triples, wr, mixed):
        arr.setflags(write=False)
    return rows, triples, wr, mixed


def _block_crosses(wl, wr):
    """The (9, n) crosses of one wL block, row 3*i + j cross(A_i, B_j)
    against every wR, in the grid's type: A_i = w_i^L - w_1^R and
    B_j = w_3^R - w_j^L, :func:`_configuration`'s formulas, with the three
    A's broadcast as (3, 1, n) against the three B's as (3, n)."""
    left = wl.T[:, :, None]  # w_i^L's components as (3, 1) columns
    a = vsub(left[:, :, None], wr[:2])  # the A_i as (3, 1, n)
    return cross(a, vsub(wr[2:], left)).reshape(9, -1)


def _one_strict_sign(lo, hi):
    """The nine-sign rule (README) from the least and the greatest of the
    nine crosses cross(A_i, B_j): all nonzero with one sign. On ints (a
    bool) or, elementwise, integer arrays (a bool array)."""
    return (lo > 0) | (hi < 0)


def enumerate_admissible_systems(
    bound: int, part: tuple[int, int] | None = None
) -> Iterator[WeightSystem]:
    """All weight systems with entries in [-bound, bound] passing the cone
    condition, in lexicographic order of the flattened (wL, wR) tuple.

    ``part=(k, n)`` yields the k-th of n deterministic slices (split over
    the outer wL blocks); merging and sorting the slices reproduces the
    full stream, so the enumeration parallelizes over processes.

    Each outer wL block is decided at once against every wR: the nine
    crosses cross(A_i, B_j) of every candidate form one (9, n) array,
    :func:`_block_crosses` of the wL row and the grid's wR columns in the
    narrowest integer type that holds them (:func:`_block_dtype`), and the
    nine-sign rule reads its least and greatest entry per candidate.
    Survivors come out in grid order, so the stream stays lexicographic.
    The block also decides each survivor's freeness by the lattice-pair
    test (:func:`_failing_pair`) off the six off-diagonal rows of the same
    array and fills in :attr:`WeightSystem.free`. Yielded systems are
    built from grid rows validated once per bound, without a second check.
    Arguments are checked when this is called: a bound or a part entry
    that is not an int (a bool or a float) raises TypeError, and a
    negative bound, a bound past :data:`MAX_BOUND` or an invalid part
    raises ValueError, before anything is allocated.
    """
    _check_int("bound", bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > MAX_BOUND:
        raise ValueError(f"bound must be <= {MAX_BOUND}")
    if part is not None:
        k, n = part
        _check_int("part index", k)
        _check_int("part count", n)
        if not (n >= 1 and 0 <= k < n):
            raise ValueError(f"invalid partition {part!r}")
    return _admissible_stream(bound, part)


def _admissible_stream(bound: int, part: tuple[int, int] | None) -> Iterator[WeightSystem]:
    rows, triples, wr, mixed = _weight_grid(bound)
    k, n = (0, 1) if part is None else part
    new = object.__new__
    for row in range(k, len(rows), n):
        nine = _block_crosses(triples[row], wr)
        keep = _one_strict_sign(nine.min(0), nine.max(0)).nonzero()[0]
        if not keep.size:
            continue
        wl = rows[row]
        free = (abs(nine[mixed, keep]) == 1).all(0).tolist()  # as _failing_pair
        for i, verdict in zip(keep.tolist(), free):
            # a system of two checked grid rows, with its verdict: nothing
            # is checked again
            ws = new(WeightSystem)
            fields = ws.__dict__
            fields["wl"] = wl
            fields["wr"] = rows[i]
            fields["free"] = verdict
            yield ws
