"""The cached facts of weight systems and cone data: one lock-free
descriptor, ``weights._fact``, computes each fact once per instance on its
first read and stores it in the instance's ``__dict__``, where it shadows
the descriptor. An exception is not cached, the fields alone make ==, hash
and repr, and a value put in ``__dict__`` beforehand (the enumerator's
freeness verdict) is read without a call."""

import functools
from fractions import Fraction

import pytest

from su3kahler import weights
from su3kahler.weights import DerivedConeData, WeightSystem, _fact, derive, enumerate_admissible_systems

FACTS = {
    WeightSystem: {"derived", "free"},
    DerivedConeData: {
        "integer_generators",
        "_nine_crosses",
        "_holds",
        "sign_table",
        "_apex",
        "apex_functional",
        "_mixed_evidence",
        "_witness_evidence",
        "mixed_witnesses",
    },
}

# The weight system of the worked orbifold example (three times its data).
ORBIFOLD_WL = ((-1, 1), (-1, 1), (2, -2))
ORBIFOLD_WR = ((-4, 1), (5, -5), (-1, 4))


def read_all(obj) -> dict:
    """Every fact of obj, read once."""
    return {name: getattr(obj, name) for name in FACTS[type(obj)]}


@pytest.mark.parametrize("cls", sorted(FACTS, key=lambda c: c.__name__))
def test_class_access_returns_the_descriptor_with_its_function(cls):
    facts = {name for name, v in vars(cls).items() if isinstance(v, _fact)}
    assert facts == FACTS[cls]
    assert not any(isinstance(v, functools.cached_property) for v in vars(cls).values())
    for name in facts:
        fact = getattr(cls, name)
        assert fact is vars(cls)[name] and fact.name == name
        assert fact.func.__name__ == name
        assert fact.__doc__ == fact.func.__doc__ and fact.__doc__


def test_a_fact_is_computed_once_and_lands_in_the_instance_dict(monkeypatch):
    built = []
    original = weights.SignTable

    def counted(vectors):
        built.append(vectors)
        return original(vectors)

    monkeypatch.setattr(weights, "SignTable", counted)
    ws = WeightSystem(ORBIFOLD_WL, ORBIFOLD_WR)
    d = ws.derived
    assert ws.__dict__ == {"wl": ws.wl, "wr": ws.wr, "derived": d}
    first = read_all(d)
    assert read_all(d) == first and len(built) == 1
    assert {k: v for k, v in d.__dict__.items() if k in first} == first
    assert d.sign_table is first["sign_table"]  # the stored object, not a new one
    assert ws.derived is d and ws.free is False and ws.__dict__["free"] is False


def test_a_fact_counts_its_calls_per_instance():
    calls = []

    class Probe:
        @_fact
        def value(self):
            """A value."""
            calls.append(self)
            return len(calls)

    one, two = Probe(), Probe()
    assert (one.value, one.value, two.value, one.value) == (1, 1, 2, 1)
    assert calls == [one, two] and one.__dict__ == {"value": 1}


def test_an_exception_is_not_cached():
    # (0, 0) for every weight: all nine crosses are zero, so the condition fails
    ws = WeightSystem(((0, 0),) * 3, ((0, 0),) * 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="requires the cone condition"):
            ws.free
    assert "free" not in ws.__dict__ and "derived" in ws.__dict__

    floats = DerivedConeData(((1.0, 0.0),) * 3, ((0.0, 1.0),) * 3, (1.0, 1.0))
    for _ in range(2):
        with pytest.raises(TypeError, match="exact rational expected"):
            floats.sign_table
    assert "sign_table" not in floats.__dict__
    assert floats.integer_generators is None and floats.__dict__["integer_generators"] is None


def test_equality_hash_and_repr_ignore_cached_values():
    fresh, read = WeightSystem(ORBIFOLD_WL, ORBIFOLD_WR), WeightSystem(ORBIFOLD_WL, ORBIFOLD_WR)
    read_all(read)
    read_all(read.derived)
    assert fresh == read and hash(fresh) == hash(read) and repr(fresh) == repr(read)
    d = derive(fresh)
    assert d == read.derived and hash(d) == hash(read.derived) and repr(d) == repr(read.derived)
    assert not (fresh < read or read < fresh)


def test_the_enumerators_verdict_is_read_without_a_call(monkeypatch):
    verdicts = [ws.free for ws in enumerate_admissible_systems(1)]

    def refuse(self):
        raise AssertionError("WeightSystem.free computed")

    fact = _fact(refuse)
    fact.__set_name__(WeightSystem, "free")
    monkeypatch.setattr(WeightSystem, "free", fact)
    systems = list(enumerate_admissible_systems(1))
    assert [ws.free for ws in systems] == verdicts and sum(verdicts) == 24
    assert all("derived" not in ws.__dict__ for ws in systems)
    with pytest.raises(AssertionError, match="computed"):
        WeightSystem(ORBIFOLD_WL, ORBIFOLD_WR).free


def test_integer_generators_read_the_sign_tables_gate():
    """The one integer gate: the sign table's scale is 1 exactly when
    every entry, C included, is an integer; a float or a bool is refused."""
    d = derive(WeightSystem(ORBIFOLD_WL, ORBIFOLD_WR))
    assert d.integer_generators == (*d.a, *d.b)
    whole = DerivedConeData(
        tuple((Fraction(x), Fraction(y)) for x, y in d.a), tuple((Fraction(x), Fraction(y)) for x, y in d.b),
        (Fraction(d.c[0]), Fraction(d.c[1])),
    )
    assert whole.integer_generators == d.integer_generators
    assert all(type(x) is int for v in whole.integer_generators for x in v)
    half = DerivedConeData(((Fraction(1, 2), 0),) * 3, ((0, 1),) * 3, (Fraction(1, 2), 1))
    bools = DerivedConeData(((True, 0),) * 3, ((0, True),) * 3, (1, 1))
    assert half.integer_generators is None and bools.integer_generators is None
