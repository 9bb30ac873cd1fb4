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
The boolean condition runs the 8 tests of :data:`_CONDITION_TESTS`
through the sign kernel :func:`~su3kahler.conegeom.cone_member`; the
enumerator evaluates them on int64 arrays, one outer wL block against
every wR at once, each test only on the candidates that passed the ones
before, and decides the freeness of each survivor in the same block.
Evidence reads one integer table per cone data,
:attr:`DerivedConeData.sign_table` (a :class:`~su3kahler.conegeom.SignTable`):
the 27 memberships of :func:`check_cone_condition`, the mixed witnesses,
regularity, compactness and the apex functional, and the base of the
interpolation path. Only dependent mixed pairs build their witness with
:func:`positive_combination`, and the path evaluates its 8 tests as
forms in the time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator

import numpy as np

from .conegeom import (  # noqa: F401 (in_cone2 re-exported: the benchmark binds weights.in_cone2)
    INT64_MAX,
    ConeMembership,
    MembershipStatus,
    SignTable,
    Vec2,
    _apex_functional,
    _as_int,
    _independent_member,
    _scalar,
    _sign_rule,
    cone_member,
    cross,
    dot,
    in_cone2,
    is_zero,
    scalar_to_json,
    vadd,
    vec2,
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
    "InterpolationSpec",
    "interpolation_spec",
    "default_interpolation_times",
    "check_interpolation_path",
    "enumerate_admissible_systems",
]

IVec2 = tuple[int, int]


def _ivec(v) -> IVec2:
    x, y = v
    if type(x) is not int or type(y) is not int:  # rejects bools and floats
        raise ValueError(f"integer weight vector expected, got {v!r}")
    return (x, y)


def _weight_rows(*named_sides) -> tuple[tuple[IVec2, IVec2, IVec2], ...]:
    """The one row check, shared by :class:`WeightSystem` and the
    enumeration grid: each (name, side) pair as three int pairs summing
    to zero.

    Every entry is checked first (bools and floats are rejected), then
    every side's length, then each side's sum (``name`` labels it in the
    message); the first failure raises ValueError.
    """
    triples = tuple(tuple(_ivec(v) for v in side) for _, side in named_sides)
    if any(len(t) != 3 for t in triples):
        raise ValueError("exactly three weight vectors per side")
    for (name, _), t in zip(named_sides, triples):
        if (sum(v[0] for v in t), sum(v[1] for v in t)) != (0, 0):
            raise ValueError(f"{name} must sum to zero, got {t}")
    return triples


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
    def _from_grid(cls, wl, wr, free: bool) -> "WeightSystem":
        """The system of two rows of the validated weight grid, with its
        freeness verdict already decided; nothing is checked again."""
        ws = object.__new__(cls)
        ws.__dict__.update(wl=wl, wr=wr, free=free)
        return ws

    @classmethod
    def from_json(cls, obj: dict) -> "WeightSystem":
        try:
            return cls(obj["wL"], obj["wR"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed weight system object: {exc}") from exc

    def to_json(self) -> dict:
        return {"wL": [list(v) for v in self.wl], "wR": [list(v) for v in self.wr]}

    @functools.cached_property
    def derived(self) -> "DerivedConeData":
        """The cone data of this system, built by :func:`derive` on first
        use and cached on the instance (not a field, like :attr:`free`)."""
        return derive(self)

    @functools.cached_property
    def free(self) -> bool:
        """Whether the torus action is free (the quotient is the flag variety).

        Decided on first use through the scalar path on :attr:`derived`:
        raise ValueError unless the cone condition holds, then require the
        homomorphism test and the lattice-pair test to agree (RuntimeError
        otherwise). :func:`enumerate_admissible_systems` fills it in from
        the same two tests on int64 arrays. It is not a field, so ==, hash
        and repr ignore it.
        """
        d = self.derived
        if not cone_condition_holds(d):
            raise ValueError("classification requires the cone condition to hold")
        by_homs = _free_by_homs(self.wl, _right_is_isomorphism(self.wr[0], self.wr[2]))
        by_pairs = _free_by_pairs(d.a, d.b)
        if by_homs != by_pairs:
            raise _freeness_disagreement(self, by_homs, by_pairs)
        return by_homs


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

    @functools.cached_property
    def integer_generators(self) -> tuple[IVec2, ...] | None:
        """The one integer view of the data: (A_1, A_2, A_3, B_1, B_2, B_3)
        as int pairs, or None when some entry (C included) fails conegeom's
        integer gate, as a float such as 1.0 does. Cached on the instance
        like :attr:`mixed_witnesses`; the isotropy computations read it."""
        try:
            rows = tuple((_as_int(x), _as_int(y)) for x, y in (*self.a, *self.b, self.c))
        except ValueError:
            return None
        return rows[:6]

    @property
    def is_integer(self) -> bool:
        return self.integer_generators is not None

    def generators(self) -> list[Vec2]:
        return [*self.a, *self.b]

    @functools.cached_property
    def _holds(self) -> bool:
        """The separating cone condition, decided once per instance by the
        8-test kernel and cached; read it through :func:`cone_condition_holds`."""
        return _condition_holds_raw(*self.a, *self.b, self.c)

    @functools.cached_property
    def sign_table(self) -> SignTable:
        """The one sign table of this data: A_1, A_2, A_3, B_1, B_2, B_3 and
        C (rows 0-5 and :data:`_C`) cleared of denominators, with their
        cross products. Every cone decision and witness of
        :func:`check_cone_condition`, :func:`check_level_set_conditions`,
        :func:`interpolation_spec` and the isotropy census reads it. Built
        on first use and cached on the instance, like
        :attr:`mixed_witnesses`; it is not a field."""
        return SignTable((*self.a, *self.b, self.c))

    @functools.cached_property
    def _mixed_memberships(self) -> dict[tuple[int, int], ConeMembership]:
        """C against cone(A_i, B_j) by 0-based (i, j), each read off the sign
        table on first use by :meth:`_mixed_membership`."""
        return {}

    def _mixed_membership(self, i: int, j: int) -> ConeMembership:
        """C against cone(A_i, B_j), 0-based, decided once per instance."""
        cache = self._mixed_memberships
        m = cache.get((i, j))
        if m is None:
            m = cache[i, j] = self.sign_table.membership(_C, i, 3 + j)
        return m

    @functools.cached_property
    def mixed_witnesses(self) -> tuple[tuple[int, int, Fraction, Fraction], ...]:
        """(i, j, a, b), in order of (i, j), for every i != j (1-based) with
        C = a*A_i + b*B_j and a, b > 0.

        The one table of positive mixed combinations, built on first use
        and cached on the instance; it is not a field, so == and hash
        ignore it. For independent A_i, B_j the pair is the coefficients of
        an INTERIOR mixed membership (strictly positive exactly then); only
        dependent pairs go through :func:`positive_combination`, which
        picks a witness from the family of solutions.
        """
        crosses = self.sign_table.crosses
        witnesses = []
        for i, j in _ORDERED_PAIRS:
            if i == j:
                continue
            if crosses[i][3 + j]:
                m = self._mixed_membership(i, j)
                ab = m.coefficients if m.status is MembershipStatus.INTERIOR else None
            else:
                ab = positive_combination(self.c, self.a[i], self.b[j])
            if ab is not None:
                witnesses.append((i + 1, j + 1, *ab))
        return tuple(witnesses)

    def to_json(self) -> dict:
        return {
            "A": [vec_to_json(v) for v in self.a],
            "B": [vec_to_json(v) for v in self.b],
            "C": vec_to_json(self.c),
        }


# The row of C in a DerivedConeData's sign table, after the six generators.
_C = 6

# The nine index pairs (i, j), 0-based, in the order of (i, j).
_ORDERED_PAIRS = tuple(itertools.product(range(3), repeat=2))


def _vector(v) -> Vec2:
    """An exact vector from a list or tuple of two scalars; a string or a
    dict would otherwise unpack into its characters or keys."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise TypeError(f"vector [x, y] expected, got {v!r}")
    return vec2(*v)


def cone_data(a_vectors, b_vectors) -> DerivedConeData:
    """Build cone data from A's and B's, requiring A_j + B_j constant."""
    a = tuple(_vector(v) for v in a_vectors)
    b = tuple(_vector(v) for v in b_vectors)
    if len(a) != 3 or len(b) != 3:
        raise ValueError("three A vectors and three B vectors required")
    return DerivedConeData(a, b, vadd(a[0], b[0]))  # the type checks A_j + B_j = C


def _configuration(wl, w1r, w3r):
    """(A, B, C) with A_j = w_j^L - w_1^R, B_j = -w_j^L + w_3^R and
    C = w_3^R - w_1^R; w1r and w3r may be vectors of int64 arrays, and then
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


def _right_is_isomorphism(w1r, w3r):
    """Whether the right homomorphism is a torus isomorphism:
    |det(w_1^R, w_2^R)| = 1, which is |det(w_1^R, w_3^R)| since
    w_2^R = -w_1^R - w_3^R. On ints or, elementwise, int64 arrays."""
    return abs(cross(w1r, w3r)) == 1


def _free_by_homs(wl, right_iso):
    """Freeness by the homomorphisms: the left one trivial and the right
    one an isomorphism (``right_iso``, a bool or a bool array)."""
    return all(v == (0, 0) for v in wl) & right_iso


def _free_by_pairs(a, b):
    """Freeness by the lattice: every (A_i, B_j) with i != j a lattice
    basis. On int vectors (a bool) or vectors of int64 arrays (a bool array)."""
    ok = True
    for i, j in _MIXED_PAIRS:
        ok = ok & (abs(cross(a[i], b[j])) == 1)
    return ok


def _freeness_disagreement(ws: WeightSystem, by_homs: bool, by_pairs: bool) -> RuntimeError:
    """The internal error for a system on which the two freeness
    characterizations differ; under the cone condition they cannot."""
    return RuntimeError(
        f"freeness characterizations disagree on {ws!r}: "
        f"homomorphism test {by_homs}, lattice-pair test {by_pairs}"
    )


def positive_combination(c: Vec2, g1: Vec2, g2: Vec2) -> tuple[Fraction, Fraction] | None:
    """Exact (a, b) with a, b > 0 and a*g1 + b*g2 == c, or None.

    Unlike plain cone membership this demands strictly positive
    coefficients, so degenerate generator configurations need their own
    branches (parallel generators leave a 1-parameter family to pick from).
    """
    d = cross(g1, g2)
    if d != 0:
        a = Fraction(cross(c, g2), d)
        b = Fraction(cross(g1, c), d)
        return (a, b) if a > 0 and b > 0 else None
    g1_zero, g2_zero = is_zero(g1), is_zero(g2)
    if g1_zero and g2_zero:
        return (Fraction(1), Fraction(1)) if is_zero(c) else None
    if g1_zero or g2_zero:
        g = g2 if g1_zero else g1
        if cross(c, g) != 0:
            return None
        t = Fraction(dot(c, g), dot(g, g))
        if t <= 0:
            return None
        return (Fraction(1), t) if g1_zero else (t, Fraction(1))
    if cross(c, g1) != 0:
        return None
    s = Fraction(dot(c, g1), dot(g1, g1))  # c == s * g1
    t = Fraction(dot(g2, g1), dot(g1, g1))  # g2 == t * g1
    if t > 0:
        if s <= 0:
            return None
        return (s / 2, s / (2 * t))
    b = (abs(s) + 1) / abs(t)
    return (s + b * abs(t), b)


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
    order, and the functional is computed from d's own generators.
    """
    witness = d.mixed_witnesses[0] if d.mixed_witnesses else None
    table = d.sign_table
    crosses = table.crosses
    regular = all(crosses[i][3 + j] for i, j in _MIXED_PAIRS)
    if any(is_zero(g) for g in table.vectors[:_C]):
        compact, apex = False, None
    else:
        apex = _apex_functional(table, d.generators())
        compact = apex is not None and not (table.member(_C, 0, 1) or table.member(_C, 0, 2))
    return LevelSetConditions(witness is not None, witness, regular, compact, apex)


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


def check_cone_condition(d: DerivedConeData) -> ConditionReport:
    """Evaluate the separating cone condition with all 27 sub-results, each
    read off d's sign table by :meth:`~su3kahler.conegeom.SignTable.membership`
    (the mixed ones are shared with :attr:`DerivedConeData.mixed_witnesses`)."""
    table = d.sign_table
    a_pairs = {(i + 1, j + 1): table.membership(_C, i, j) for i, j in _ORDERED_PAIRS}
    b_pairs = {(i + 1, j + 1): table.membership(_C, 3 + i, 3 + j) for i, j in _ORDERED_PAIRS}
    mixed = {(i + 1, j + 1): d._mixed_membership(i, j) for i, j in _ORDERED_PAIRS}
    holds = (
        all(not m.member for m in a_pairs.values())
        and all(not m.member for m in b_pairs.values())
        and all(m.member for m in mixed.values())
    )
    return ConditionReport(holds, a_pairs, b_pairs, mixed, check_level_set_conditions(d))


def cone_condition_holds(d: DerivedConeData) -> bool:
    """The verdict of :func:`check_cone_condition` without its evidence,
    decided once per cone data object."""
    return d._holds


# The condition as 8 membership tests (g, h, inside) on the generators
# (A_1, A_2, A_3, B_1, B_2, B_3): C must lie in cone(g, h) exactly when
# `inside`. Where A_j + B_j is one positive multiple of C they decide all 27
# memberships of check_cone_condition: the diagonal mixed cones always hold
# C, and once the 6 off-diagonal mixed tests pass, cone(A_1, A_2) and
# cone(B_1, B_3) decide every pair clause (README, with proof and minimality).
_CONDITION_TESTS = tuple((i, 3 + j, True) for i, j in _MIXED_PAIRS) + ((0, 1, False), (3, 5, False))


def _condition_holds_raw(a1, a2, a3, b1, b2, b3, c):
    """The condition on int or Fraction vectors (a bool), or elementwise on
    vectors of int64 component arrays (a bool array).

    Its domain is configurations with A_j + B_j one positive multiple of C
    for j = 1, 2, 3; elsewhere the 8 tests need not agree with
    :func:`check_cone_condition`."""
    gens = (a1, a2, a3, b1, b2, b3)
    ok = True
    for g, h, inside in _CONDITION_TESTS:
        ok = ok & (cone_member(c, gens[g], gens[h]) == inside)
    return ok


def _block_survivors(a, b, c) -> np.ndarray:
    """The ascending indices at which vectors of int64 component arrays
    pass the condition, ``np.flatnonzero(_condition_holds_raw(*a, *b, c))``.

    The first test runs on the whole block; each later one only on the
    entries still alive, their components gathered by index, and the loop
    stops once none are left. Over the bound-3 grid each mixed test passes
    38.6 % of the candidates and each pair test 46.3 %.
    """
    gens = (*a, *b)
    (g, h, inside), *rest = _CONDITION_TESTS
    alive = np.flatnonzero(cone_member(c, gens[g], gens[h]) == inside)
    for g, h, inside in rest:
        if not alive.size:
            break
        cc, gg, hh = ((x[alive], y[alive]) for x, y in (c, gens[g], gens[h]))
        alive = alive[cone_member(cc, gg, hh) == inside]
    return alive


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


@dataclass(frozen=True)
class InterpolationSpec:
    """Base coefficients C = a*A_1 + b*B_1 (both > 0) and sample times."""

    a: Fraction
    b: Fraction
    times: tuple[Fraction, ...]

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("base coefficients must be strictly positive")
        for t in self.times:
            if not 0 <= t <= 1:
                raise ValueError(f"sample time {t} outside [0, 1]")


# The audit pool asks for one step count (the default 8); a CLI run for one.
@functools.lru_cache(maxsize=8)
def default_interpolation_times(steps: int = 8) -> tuple[Fraction, ...]:
    """k/steps for k = 0..steps, built once per step count (the tuple and
    its Fractions are immutable)."""
    return tuple(Fraction(k, steps) for k in range(steps + 1))


def interpolation_spec(d: DerivedConeData, times=None) -> InterpolationSpec:
    """Interpolation data for d; requires C interior to cone(A_1, B_1), the
    mixed membership (1, 1) of d's sign table."""
    m = d._mixed_membership(0, 0)
    if m.status is not MembershipStatus.INTERIOR:
        raise ValueError("C must lie in the interior of cone(A_1, B_1)")
    assert m.coefficients is not None
    ts = default_interpolation_times() if times is None else tuple(_scalar(t) for t in times)
    return InterpolationSpec(m.coefficients[0], m.coefficients[1], ts)


def check_interpolation_path(d: DerivedConeData, spec: InterpolationSpec) -> bool:
    """Whether the straight-line deformation toward the round configuration
    keeps the separating cone condition at every sample time.

    At time t the generators are A_j(t) = t*A_j + (1-t)*a*A_1 and
    B_j(t) = t*B_j + (1-t)*b*B_1 while C stays fixed; t = 1 restores the
    input and t = 0 collapses each family onto a single ray.

    Cone tests see only directions, so denominators are cleared once: with
    n the lcm of every denominator in the data, the spec and the times,
    n**3 * A_j(t) = (n*t)*n*(n*A_j) + (n - n*t)*(n*a)*(n*A_1) is an integer
    vector on the same ray as A_j(t), and likewise for B_j(t) and n*C.
    Raises ValueError unless C = a*A_1 + b*B_1, as :func:`interpolation_spec`
    ensures; this keeps each cleared A_j(t) + B_j(t) at n**2 * (n*C), in the
    kernel's domain, which other base coefficients leave.

    So the cleared A_j(t) is s*G_j + r*H_j with (s, r) = (n*t, n - n*t),
    G_j = n*(n*A_j) and H_j = (n*a)*(n*A_1), and likewise B_j(t). Each of
    the 8 tests of :data:`_CONDITION_TESTS` is then a quadratic form in
    (s, r), the cross of its two generators, and two linear forms, their
    crosses with n*C; the coefficients are computed once, and a time
    evaluates the forms.
    Where the quadratic form vanishes (dependent generators, as at t = 0)
    the kernel's rule also reads the dots of n*C with the two generators,
    two more linear forms, evaluated there only.
    """
    n = lcm(
        *(x.denominator for x in (spec.a, spec.b, *spec.times)),
        *(x.denominator for v in (*d.a, *d.b, d.c) for x in v),
    )

    def cleared(x) -> int:
        return x.numerator * (n // x.denominator)

    a = [(cleared(x), cleared(y)) for x, y in d.a]
    b = [(cleared(x), cleared(y)) for x, y in d.b]
    c = (cleared(d.c[0]), cleared(d.c[1]))
    a0 = vscale(cleared(spec.a), a[0])
    b0 = vscale(cleared(spec.b), b[0])
    if vadd(a0, b0) != vscale(n, c):  # n**2 * (a*A_1 + b*B_1) against n**2 * C
        raise ValueError("base coefficients must satisfy C = a*A_1 + b*B_1")
    g = [vscale(n, v) for v in (*a, *b)]
    h = [a0] * 3 + [b0] * 3
    cg, ch = [cross(c, v) for v in g], [cross(c, v) for v in h]
    # per test: the cross of its generators (coefficients of s*s, s*r, r*r),
    # n1 = cross(C, q-th generator) and n2 = cross(p-th generator, C)
    # (coefficients of s, r)
    forms = [
        (
            cross(g[p], g[q]), cross(g[p], h[q]) + cross(h[p], g[q]), cross(h[p], h[q]),
            cg[q], ch[q], -cg[p], -ch[p],
            p, q, inside,
        )
        for p, q, inside in _CONDITION_TESTS
    ]
    c_zero = is_zero(c)
    for t in spec.times:
        s = cleared(t)
        r = n - s
        ss, sr, rr = s * s, s * r, r * r
        for d_ss, d_sr, d_rr, n1_s, n1_r, n2_s, n2_r, p, q, inside in forms:
            det = d_ss * ss + d_sr * sr + d_rr * rr
            n1, n2 = n1_s * s + n1_r * r, n2_s * s + n2_r * r
            if det:
                member = _independent_member(det, n1, n2)
            else:  # the dots of C with the p-th and q-th generators
                e1 = dot(c, g[p]) * s + dot(c, h[p]) * r
                e2 = dot(c, g[q]) * s + dot(c, h[q]) * r
                member = _sign_rule(0, n1, n2, e1, e2, c_zero)
            if member != inside:
                return False
    return True


@functools.lru_cache(maxsize=2)
def _weight_grid(bound: int):
    """Every zero-sum weight triple with entries in [-bound, bound], in
    lexicographic order of (w_1, w_2), its int64 columns (x1, y1, x3, y3)
    and, per triple taken as wR, whether the right homomorphism is an
    isomorphism.

    Both sides of a weight system range over this grid. Built on first use
    per bound, with every row passed once through the row check of
    :class:`WeightSystem`; the arrays are read-only because the cache
    shares them.
    """
    rng = range(-bound, bound + 1)
    rows = tuple(
        _weight_rows(("grid row", ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))))[0]
        for x1, y1, x2, y2 in itertools.product(rng, rng, rng, rng)
        if abs(x1 + x2) <= bound and abs(y1 + y2) <= bound
    )
    cols = np.array([(*w1, *w3) for w1, _, w3 in rows], dtype=np.int64).T.copy()
    right_iso = _right_is_isomorphism(cols[:2], cols[2:])
    for arr in (cols, right_iso):
        arr.setflags(write=False)
    return rows, cols, right_iso


def enumerate_admissible_systems(
    bound: int, part: tuple[int, int] | None = None
) -> Iterator[WeightSystem]:
    """All weight systems with entries in [-bound, bound] passing the cone
    condition, in lexicographic order of the flattened (wL, wR) tuple.

    ``part=(k, n)`` yields the k-th of n deterministic slices (split over
    the outer wL blocks); merging and sorting the slices reproduces the
    full stream, so the enumeration parallelizes over processes.

    Each outer wL block is decided at once against every wR with the sign
    rule on int64 arrays, each test only on the candidates still alive; survivors
    come out in grid order, so the stream stays lexicographic. The block
    also decides each survivor's freeness by both characterizations on
    int64 arrays, raises RuntimeError naming the first system on which they
    disagree, and fills in :attr:`WeightSystem.free`. Yielded systems are
    built from grid rows validated once per bound, without a second check.
    Arguments are checked when this is called, so a bound whose products
    could leave int64 is rejected before anything is allocated.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    # entries of A, B, C are at most 2*bound, so every cross product and
    # dot product is at most 8*bound**2: exact in int64 below this bound
    if 8 * bound * bound > INT64_MAX:
        raise ValueError(f"bound {bound} too large for exact int64 sign tests")
    if part is not None:
        k, n = part
        if not (n >= 1 and 0 <= k < n):
            raise ValueError(f"invalid partition {part!r}")
    return _admissible_stream(bound, part)


def _admissible_stream(bound: int, part: tuple[int, int] | None) -> Iterator[WeightSystem]:
    rows, (u1, v1, u3, v3), right_iso = _weight_grid(bound)
    k, n = (0, 1) if part is None else part
    for wl in rows[k::n]:
        keep = _block_survivors(*_configuration(wl, (u1, v1), (u3, v3)))
        if not keep.size:
            continue
        a, b, _ = _configuration(wl, (u1[keep], v1[keep]), (u3[keep], v3[keep]))
        by_homs = _free_by_homs(wl, right_iso[keep])
        by_pairs = _free_by_pairs(a, b)
        disagree = np.flatnonzero(by_homs != by_pairs)
        if disagree.size:
            k = disagree[0]
            ws = WeightSystem(wl, rows[keep[k]])
            raise _freeness_disagreement(ws, bool(by_homs[k]), bool(by_pairs[k]))
        for i, free in zip(keep.tolist(), by_homs.tolist()):
            yield WeightSystem._from_grid(wl, rows[i], free)
