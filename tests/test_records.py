"""Value semantics of the plain value classes: field-wise equality within one
class, hashing on the compared fields, and refused assignment when frozen."""

import copy
import pickle
from fractions import Fraction

import pytest

from zpmeasures.magnus import X, FreeWord, NcSeries
from zpmeasures.measures import DiracCombo, LevelFamily
from zpmeasures.padic import PrimeContext
from zpmeasures.suites import RunConfig


def level_family(dim, value):
    # a tuple stands in for each level's dict, which is unhashable
    return LevelFamily(3, dim, ((((0,) * dim, value),),), 0)


# (constructor, field, a construction equal to it but for that field)
FROZEN = [
    (lambda: PrimeContext(3, 2), "n_max", lambda: PrimeContext(3, 3)),
    # equal words may be written with different letters; the normal form decides
    (lambda: FreeWord(3, 1, ((0, 1), (X, 1), (X, 1))), "letters",
     lambda: FreeWord(3, 1, ((0, 1), (X, 3)))),
    (lambda: level_family(1, 1), "denom_bound", lambda: LevelFamily(3, 1, ((((0,), 1),),), 1)),
    (lambda: DiracCombo.make(1, [((2,), Fraction(1, 2))]), "atoms",
     lambda: DiracCombo.make(1, [((5,), Fraction(1, 2))])),
]


@pytest.mark.parametrize("make, field, other", FROZEN,
                         ids=["PrimeContext", "FreeWord", "LevelFamily", "DiracCombo"])
def test_frozen_value_semantics(make, field, other):
    a, b, c = make(), make(), other()
    assert a == b and hash(a) == hash(b)
    assert a != c and getattr(a, field) != getattr(c, field)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(c, field))
    assert a == b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_mutable_value_semantics():
    s = NcSeries(3, 1, 2, {(0,): Fraction(1), (X, 0): Fraction(-1, 2)})
    assert s == NcSeries(3, 1, 2, {(0,): 1, (X, 0): Fraction(-1, 2)})
    assert s != NcSeries(3, 1, 3, dict(s.coeffs))
    with pytest.raises(TypeError):
        hash(s)
    assert copy.deepcopy(s) == s
    cfg = RunConfig(p=5, n_max=2, suite="octagon", sigma_rep=2)
    assert RunConfig(**cfg.__dict__) == cfg
    assert RunConfig(**{**cfg.__dict__, "tamper": True}) != cfg
