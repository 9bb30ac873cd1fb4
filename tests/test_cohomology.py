import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from su3kahler import cohomology
from su3kahler.cohomology import (
    BASIC_BETTI,
    DEGENERATE_BETA,
    GENERIC_BETA,
    OMEGA,
    DGAModel,
    SU3_DERHAM_BETTI,
    Eisenstein,
    basic_model,
    build_derham_model,
    cohomology_of_complex,
    dga_cohomology,
    exact_rank,
    hodge_model,
)

F = Fraction


# --- scalars ------------------------------------------------------------------


def test_eisenstein_cube_root():
    w = OMEGA
    assert w * w * w == 1
    assert w * w + w + 1 == Eisenstein.of(0)
    assert (w / w) == 1
    x = Eisenstein(F(3, 2), F(-1, 3))
    assert x * (Eisenstein.of(1) / x) == 1
    with pytest.raises(ZeroDivisionError):
        Eisenstein.of(1) / Eisenstein.of(0)


def test_eisenstein_keeps_the_eq_hash_contract():
    """A rational element equals and hashes as its rational, so sets and
    dict lookups treat the two as one key; an element compared with
    anything outside Q(omega) is unequal, not an error (it raised
    ValueError for a string and TypeError for None)."""
    one, half = Eisenstein.of(1), Eisenstein(F(1, 2), F(0))
    assert len({one, 1}) == 1 and len({half, F(1, 2)}) == 1
    assert {1: "a"}.get(one) == "a" and {F(1, 2): "b"}[half] == "b"
    assert {one: "c"}.get(1) == "c"
    assert len({OMEGA, 0, 1}) == 3 and OMEGA != 1 and 1 != OMEGA
    assert not (one == "x") and one != "x" and one != None  # noqa: E711
    assert one != True and not (Eisenstein.of(0) == False)  # noqa: E712 (bools fail the gate)
    assert one != 1.0 and one != [1, 0]


def test_exact_rank_small_cases():
    assert exact_rank([]) == 0
    assert exact_rank([[F(0), F(0)]]) == 0
    assert exact_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert exact_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    w = OMEGA
    assert exact_rank([[w, w * w], [w * w, w]]) == 2
    assert exact_rank([[w, w * w], [w * w, Eisenstein.of(1)]]) == 1  # w^4 = w


# --- the concrete basic algebra ---------------------------------------------------


def test_basic_dimensions():
    alg = basic_model()
    assert tuple(alg.dim(k) for k in range(7)) == BASIC_BETTI
    assert sum(alg.dim(k) for k in range(7)) == 6  # order of the symmetry group


def check_multiplication(alg):
    """Exhaustive unit, commutativity and associativity checks."""
    if alg.basis.get(0, ()) == ():
        raise ValueError("missing unit degree")
    elems = [(d, i) for d in alg.degrees for i in range(alg.dim(d))]
    for (d1, i1), (d2, i2) in itertools.product(elems, repeat=2):
        left = alg.mul_basis(d1, i1, d2, i2)
        right = alg.mul_basis(d2, i2, d1, i1)
        if left != right:  # all nonzero degrees here are even
            raise ValueError(f"commutativity fails at {(d1, i1, d2, i2)}")
    for (d1, i1), (d2, i2), (d3, i3) in itertools.product(elems, repeat=3):
        e3 = [Fraction(1) if k == i3 else Fraction(0) for k in range(alg.dim(d3))]
        ab = alg.mul_basis(d1, i1, d2, i2)
        bc = alg.mul_basis(d2, i2, d3, i3)
        left = alg.mul_class(d1 + d2, ab, d3, e3)
        e1 = [Fraction(1) if k == i1 else Fraction(0) for k in range(alg.dim(d1))]
        right = alg.mul_class(d1, e1, d2 + d3, bc)
        if tuple(left) != tuple(right):
            raise ValueError(f"associativity fails at {(d1, i1, d2, i2, d3, i3)}")


def test_basic_multiplication_laws():
    check_multiplication(basic_model())


def test_basic_table_against_polynomial_oracle():
    """Reduce products of basis monomials modulo the symmetric-polynomial
    ideal with an independent Groebner-basis computation."""
    sympy = pytest.importorskip("sympy")
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    ideal = [x1 + x2 + x3, x1 * x2 + x1 * x3 + x2 * x3, x1 * x2 * x3]
    gb = sympy.groebner(ideal, x3, x2, x1, order="lex")
    monomials = {
        (0, 0): sympy.Integer(1),
        (2, 0): x1,
        (2, 1): x2,
        (4, 0): x1**2,
        (4, 1): x1 * x2,
        (6, 0): x1**2 * x2,
    }
    basis_order = [(0, 0), (2, 0), (2, 1), (4, 0), (4, 1), (6, 0)]

    def normal_form(p):
        return sympy.expand(gb.reduce(p)[1])

    alg = basic_model()
    for d1, i1 in basis_order:
        for d2, i2 in basis_order:
            product = normal_form(monomials[(d1, i1)] * monomials[(d2, i2)])
            target = d1 + d2
            expected = sympy.Integer(0)
            if target <= 6:
                for k, coeff in enumerate(alg.mul_basis(d1, i1, d2, i2)):
                    expected += sympy.Rational(coeff.numerator, coeff.denominator) * monomials[(target, k)]
            assert sympy.expand(product - expected) == 0, (d1, i1, d2, i2)
    # the distinguished class is x1 - x3 reduced to the basis
    lef = normal_form(x1 - x3)
    alg_lef = alg.lefschetz
    assert sympy.expand(lef - (alg_lef[0] * x1 + alg_lef[1] * x2)) == 0


def test_hard_lefschetz():
    alg = basic_model()
    lef = alg.lefschetz
    square = alg.mul_class(2, lef, 2, lef)
    cube = alg.mul_class(4, square, 2, lef)
    assert cube != (F(0),)  # the cube spans the top degree
    rows = [
        list(alg.mul_class(2, (F(1), F(0)), 2, lef)),
        list(alg.mul_class(2, (F(0), F(1)), 2, lef)),
    ]
    assert exact_rank(rows) == 2  # multiplication deg 2 -> deg 4 is injective


# --- de Rham model ------------------------------------------------------------------


def test_derham_betti():
    assert dga_cohomology(build_derham_model()) == SU3_DERHAM_BETTI


def test_zero_differential_gives_graded_dimensions():
    assert dga_cohomology(build_derham_model((0, 0), (0, 0))) == (1, 2, 3, 4, 4, 4, 3, 2, 1)


def test_negative_control_differs():
    control = dga_cohomology(build_derham_model((1, 0), (1, 0)))
    assert control == (1, 1, 1, 1, 0, 1, 1, 1, 1)
    assert control != SU3_DERHAM_BETTI


def test_derham_independent_of_degree2_basis():
    for dw1, dw2 in [((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, 3), (-1, 0)), ((1, -2), (2, 1))]:
        assert dga_cohomology(build_derham_model(dw1, dw2)) == SU3_DERHAM_BETTI


def test_euler_characteristics():
    derham = dga_cohomology(build_derham_model())
    assert sum((-1) ** k * b for k, b in enumerate(derham)) == 0
    assert sum((-1) ** k * b for k, b in enumerate(BASIC_BETTI)) == 6


def test_model_rejects_wrong_degree_images():
    from su3kahler.cohomology import DGAModel

    with pytest.raises(ValueError):
        DGAModel(basic_model(), ((F(1),), (F(0), F(1))))


def test_complex_validation():
    with pytest.raises(ValueError):
        cohomology_of_complex([1, 1], [])
    with pytest.raises(ValueError):
        cohomology_of_complex([1, 1, 1], [[[F(1)]], [[F(1)]]])  # d o d != 0
    assert cohomology_of_complex([1, 1, 1], [[[F(1)]], [[F(0)]]]) == (0, 0, 1)


# --- Hodge model ----------------------------------------------------------------------


def test_hodge_generic_branch():
    table = hodge_model(GENERIC_BETA)
    assert table.branch == (0, 0, 0)


def test_hodge_degenerate_branch():
    table = hodge_model(DEGENERATE_BETA)
    assert table.branch == (1, 2, 1)


def test_degenerate_beta_kills_multiplication_determinant():
    b1, b2 = DEGENERATE_BETA
    assert b1 * b1 - b1 * b2 + b2 * b2 == Eisenstein.of(0)


def test_rational_beta_always_generic():
    # the determinant form is positive definite over the rationals
    for beta in [(1, 0), (0, 1), (2, 3), (F(1, 2), F(-5, 7)), (-1, 1)]:
        assert hodge_model(beta).branch == (0, 0, 0)


RATIONALS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=10**4),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**6)),
    st.sampled_from(["0", "1/2", " -3/7 ", "+12"]),
)


@given(st.tuples(RATIONALS, RATIONALS))
@settings(max_examples=150, deadline=None)
def test_rational_beta_has_the_branch_of_its_eisenstein_lift(beta):
    """A rational beta, read with omega parts 0, has the table its lift
    into Eisenstein gives, entry for entry, alone or beside an
    Eisenstein."""
    lifted = tuple(map(Eisenstein.of, beta))
    assume(lifted[0] or lifted[1])
    table = hodge_model(beta)
    assert table == hodge_model(lifted) and table.branch == (0, 0, 0)
    assert hodge_model((beta[0], lifted[1])) == hodge_model((lifted[0], beta[1])) == table


BAD_BETAS = [
    (True, 1), (1, False), (0.5, 1), (1, float("nan")), ("1/0", 1), (1, "1.5"), ("x", 0), (None, 1),
    "12", [1], (1, 0, 5), {"1": 0, "2": 0}, 7,
]


@pytest.mark.parametrize("beta", BAD_BETAS, ids=repr)
def test_rational_beta_keeps_the_errors_of_its_gate(beta):
    """The bool, float, string and shape errors of a rational beta are
    those of reading it through Eisenstein.of, type and message."""
    from su3kahler.conegeom import _vector

    with pytest.raises((TypeError, ValueError)) as expected:
        _vector(beta, Eisenstein.of)
    with pytest.raises(expected.type) as raised:
        hodge_model(beta)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("beta", [(0, 0), (F(0), "0"), ("0", Eisenstein.of(0))])
def test_hodge_rejects_every_zero_beta(beta):
    with pytest.raises(ValueError, match="beta must be nonzero"):
        hodge_model(beta)


def test_hodge_rejects_zero_beta():
    with pytest.raises(ValueError):
        hodge_model((0, 0))


def test_hodge_fixed_entries_and_symmetry():
    for beta in (GENERIC_BETA, DEGENERATE_BETA):
        table = hodge_model(beta)
        e = table.entries
        assert e[(0, 0)] == e[(4, 4)] == 1
        assert e[(0, 1)] == e[(4, 3)] == 1
        assert e[(1, 1)] == e[(3, 3)] == 1
        assert e[(1, 2)] == e[(3, 2)] == 1
        assert e.get((1, 0), 0) == 0 and e.get((3, 4), 0) == 0
        # central duality of the printed diamond (complex dimension 4)
        for (p, q), v in e.items():
            assert e.get((4 - p, 4 - q), 0) == v
        assert table.branch in ((0, 0, 0), (1, 2, 1))


def test_hodge_diamond_rows():
    rows = hodge_model(GENERIC_BETA).diamond()
    assert rows[0] == [1]
    assert rows[1] == [0, 1]
    assert rows[2] == [0, 1, 0]
    assert rows[3] == [0, 0, 1, 0]
    assert rows[8] == [1]
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5, 4, 3, 2, 1]


# --- differential test against the hand-built models the builder replaced -----------------

_SUBSETS = ((), (0,), (1,), (0, 1))


def reference_dga_cohomology(model: DGAModel) -> tuple[int, ...]:
    """Betti numbers from a total-degree basis built by hand."""
    algebra = model.algebra
    basis = {}
    for deg in algebra.degrees:
        for idx in range(algebra.dim(deg)):
            for s in _SUBSETS:
                basis.setdefault(deg + len(s), []).append((deg, idx, s))
    top = max(basis)
    dims = [len(basis.get(n, [])) for n in range(top + 1)]
    index = {n: {elem: k for k, elem in enumerate(basis.get(n, []))} for n in range(top + 1)}

    def d_elem(deg, idx, s):
        unit = [F(1) if k == idx else F(0) for k in range(algebra.dim(deg))]
        if s == ():
            return []
        if len(s) == 1:
            img = algebra.mul_class(deg, unit, 2, model.d_gens[s[0]])
            return [((deg + 2, k, ()), c) for k, c in enumerate(img) if c]
        img0 = algebra.mul_class(deg, unit, 2, model.d_gens[0])
        img1 = algebra.mul_class(deg, unit, 2, model.d_gens[1])
        out = [((deg + 2, k, (1,)), c) for k, c in enumerate(img0) if c]
        out += [((deg + 2, k, (0,)), -c) for k, c in enumerate(img1) if c]
        return out

    mats = []
    for n in range(top):
        mat = [[F(0)] * dims[n] for _ in range(dims[n + 1])]
        for col, (deg, idx, s) in enumerate(basis.get(n, [])):
            for target, coeff in d_elem(deg, idx, s):
                mat[index[n + 1][target]][col] += coeff
        mats.append(mat)
    return cohomology_of_complex(dims, mats)


def reference_hodge_entries(beta) -> dict[tuple[int, int], int]:
    """Hodge numbers from a bidegree basis built by hand, with each
    differential's rank taken on its own (no d o d check)."""
    b = (Eisenstein.of(beta[0]), Eisenstein.of(beta[1]))
    algebra = basic_model()
    zero = Eisenstein.of(0)

    def bidegree(deg, s):
        return (deg // 2 + (1 if 0 in s else 0), deg // 2 + (1 if 1 in s else 0))

    basis = {}
    for deg in algebra.degrees:
        for idx in range(algebra.dim(deg)):
            for s in _SUBSETS:
                basis.setdefault(bidegree(deg, s), []).append((deg, idx, s))
    index = {pq: {e: k for k, e in enumerate(elems)} for pq, elems in basis.items()}

    def dbar(deg, idx, s):
        if s == () or s == (1,):
            return []
        unit = [Eisenstein.of(1) if k == idx else zero for k in range(algebra.dim(deg))]
        img = algebra.mul_class(deg, unit, 2, list(b))
        tail = () if s == (0,) else (1,)
        return [((deg + 2, k, tail), c) for k, c in enumerate(img) if c]

    mats = {}
    for pq, elems in basis.items():
        target_pq = (pq[0], pq[1] + 1)
        target = basis.get(target_pq, [])
        mat = [[zero] * len(elems) for _ in range(len(target))]
        for col, elem in enumerate(elems):
            for image_elem, coeff in dbar(*elem):
                mat[index[target_pq][image_elem]][col] += coeff
        mats[pq] = mat

    entries = {}
    for pq, elems in basis.items():
        rank_out = exact_rank(mats[pq]) if mats[pq] else 0
        below = (pq[0], pq[1] - 1)
        rank_in = exact_rank(mats[below]) if basis.get(below) and mats[below] else 0
        entries[pq] = len(elems) - rank_out - rank_in
    return entries


def _image_pairs(entries):
    return list(itertools.product(itertools.product(entries, repeat=2), repeat=2))


# every (dw1, dw2) with entries in {-1, 0, 1} (zero, parallel and independent
# images), every 11th with entries in [-3, 3], and rational ones
DERHAM_GRID = _image_pairs((-1, 0, 1)) + _image_pairs(range(-3, 4))[::11] + [
    ((3, -2), (-3, 2)),
    ((F(1, 2), 5), (2, F(-7, 3))),
]


def test_derham_matches_reference_on_grid():
    for dw1, dw2 in DERHAM_GRID:
        model = build_derham_model(dw1, dw2)
        assert dga_cohomology(model) == reference_dga_cohomology(model), (dw1, dw2)


def _eisenstein_betas():
    """Rational betas, scalar multiples of the degeneracy-conic points
    (b1, b2) = (-w b2, b2) and (-w^2 b2, b2), and off-conic Eisenstein pairs."""
    e = Eisenstein
    scalars = [e.of(1), e.of(-2), OMEGA, e(F(1, 2), F(3)), e(F(-1), F(1, 3))]
    yield from [(1, 0), (0, 1), (2, 3), (F(1, 2), F(-3, 7)), (-1, 1), (F(5), F(-5))]
    for b2 in scalars:
        yield (-OMEGA * b2, b2)
        yield (-OMEGA * OMEGA * b2, b2)
        yield (b2, b2 * e(F(2), F(1)))
    yield DEGENERATE_BETA
    yield GENERIC_BETA


def test_hodge_matches_reference_on_grid():
    branches = set()
    for beta in _eisenstein_betas():
        table = hodge_model(beta)
        assert table.entries == reference_hodge_entries(beta), beta
        branches.add(table.branch)
    assert branches == {(0, 0, 0), (1, 2, 1)}


def _eisenstein_scalars():
    small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    return st.builds(Eisenstein, small, small)


@st.composite
def _betas_over_q_omega(draw):
    """Nonzero rational and Eisenstein pairs, and nonzero multiples of the
    two degeneracy-conic points (-w b, b) and (-w^2 b, b)."""
    scalars = _eisenstein_scalars()
    kind = draw(st.sampled_from(("rational", "eisenstein", "conic w", "conic w^2")))
    if kind == "rational":
        small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
        beta = (draw(small), draw(small))
    elif kind == "eisenstein":
        beta = (draw(scalars), draw(scalars))
    else:
        b = draw(scalars.filter(bool))
        root = OMEGA if kind == "conic w" else OMEGA * OMEGA
        beta = (-root * b, b)
    assume(beta[0] or beta[1])
    return beta


@given(_betas_over_q_omega())
@settings(max_examples=80, deadline=None)
def test_hodge_closed_form_matches_reference_over_q_omega(beta):
    """The closed form against the hand-built bigraded complex: the table
    agrees entry by entry (zeros included), and the branch is degenerate
    exactly on the conic b1^2 - b1*b2 + b2^2 = 0."""
    table = hodge_model(beta)
    assert table.entries == reference_hodge_entries(beta)
    b1, b2 = map(Eisenstein.of, beta)
    on_conic = not (b1 * b1 - b1 * b2 + b2 * b2)
    assert table.branch == ((1, 2, 1) if on_conic else (0, 0, 0))


def test_hodge_model_builds_no_complex(monkeypatch):
    """The Hodge table is a closed form: it ranks no matrix and checks no
    complex."""

    def refuse(*args, **kwargs):
        raise AssertionError("hodge_model built a complex")

    monkeypatch.setattr(cohomology, "cohomology_of_complex", refuse)
    monkeypatch.setattr(cohomology, "exact_rank", refuse)
    assert hodge_model(GENERIC_BETA).branch == (0, 0, 0)
    assert hodge_model(DEGENERATE_BETA).branch == (1, 2, 1)


def _q_omega_scalars():
    """Elements of Q(omega) with parts of up to 30 digits over
    denominators up to 10^6, and rationals in the types the gate reads."""
    part = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
    return st.one_of(st.builds(Eisenstein, part, part), part, st.integers(-(10**12), 10**12))


@st.composite
def _random_pairs_over_q_omega(draw):
    """Random pairs, and pairs on the conic b1 = -w b2 or b1 = -w^2 b2,
    with b2 drawn the same way."""
    b2 = draw(_q_omega_scalars())
    kind = draw(st.sampled_from(("random", "conic w", "conic w^2")))
    if kind == "random":
        b1 = draw(_q_omega_scalars())
    else:
        b1 = -(OMEGA if kind == "conic w" else OMEGA * OMEGA) * Eisenstein.of(b2)
    assume(Eisenstein.of(b1) or Eisenstein.of(b2))
    return b1, b2


@given(_random_pairs_over_q_omega())
@settings(max_examples=300, deadline=None)
def test_hodge_branch_is_the_eisenstein_form_on_random_pairs(beta):
    """The closed form on the entries' rational parts decides the branch
    exactly as b1^2 - b1*b2 + b2^2 evaluated in Eisenstein arithmetic:
    degenerate where that element of Q(omega) is 0."""
    b1, b2 = map(Eisenstein.of, beta)
    degenerate = not (b1 * b1 - b1 * b2 + b2 * b2)
    assert hodge_model(beta).branch == ((1, 2, 1) if degenerate else (0, 0, 0))
