import random
from fractions import Fraction

import pytest

from zpmeasures import classical
from zpmeasures.classical import (e1_relation_suite, make_D2, make_E1, make_M,
                                  make_N2, make_dirac)
from zpmeasures.magnus import FreeWord, X, commutator, parse_word, word_tower
from zpmeasures.measures import (LevelFamily, linear_combine, pushforward,
                                 validate_distribution)
from zpmeasures.octagon import SymPoly
from zpmeasures.padic import PIntegralityError, PrimeContext, repr_mod

from levelref import e1_value_reference, is_zero, total_mass, value

CTX = PrimeContext(3, 3)


def test_dirac_tables_are_indicators():
    d = make_dirac([2], CTX)
    for n, table in enumerate(d.tables):
        for a, v in table.items():
            assert v in (0, 1)
            assert (v == 1) == (a[0] == 2 % 3 ** n)
    assert validate_distribution(d) is None


@pytest.mark.parametrize("p, level, point", [(5, 3, (1, 2)), (3, 3, (Fraction(-1, 2),)),
                                             (2, 3, (0, -3, Fraction(1, 3))), (5, 2, (7,))])
def test_dirac_matches_a_scan_of_every_entry(p, level, point):
    # reference: the indicator of the point's residues, tested entry by entry
    ctx = PrimeContext(p, level)
    scan = LevelFamily.build(p, len(point), lambda n, b: int(all(
        x == repr_mod(a, p, n) for x, a in zip(b, point))), level)
    d = make_dirac(point, ctx)
    assert d.tables == scan.tables and d.denom_bound == scan.denom_bound
    with pytest.raises(PIntegralityError):
        make_dirac([Fraction(1, p)], ctx)


def test_interpolation_measure_tables():
    M = make_M(-1, PrimeContext(3, 1))
    assert [value(M, 1, (i,)) for i in range(3)] == [-1, 0, -1]
    assert is_zero(make_M(1, CTX))
    for c in (7, -2, Fraction(1, 2), 3, 9, 0):
        M = make_M(c, CTX)
        assert validate_distribution(M) is None
        assert total_mass(M) == Fraction(c) - 1


def test_mazur_measure_basics():
    for c in (7, -2, Fraction(1, 2)):
        E = make_E1(c, CTX)
        assert validate_distribution(E) is None
        assert total_mass(E) == (Fraction(c) - 1) / 2
        # reflection relation holds exactly at every level
        rel = linear_combine([1, 1, -(Fraction(c) - 1)],
                             [E, pushforward(E, units=[-1]), make_dirac([0], CTX)])
        assert is_zero(rel)
    assert is_zero(make_E1(1, CTX))
    with pytest.raises(ValueError):
        make_E1(3, CTX)


@pytest.mark.parametrize("s, pn", [(1, 1), (1, 2), (1, 3), (2, 3), (4, 5), (7, 9),
                                   (3, 8), (13, 25), (24, 25), (48, 49)])
def test_e1_value_matches_the_three_term_formula(s, pn):
    for t in (0, 3, -2, Fraction(-1, 2), Fraction(5, 7), SymPoly.t()):
        for x in range(pn):
            assert classical.e1_value(x, s, pn, t) == e1_value_reference(x, s, pn, t), (x, t)


def test_two_variable_companion():
    for c in (7, -2, Fraction(1, 2)):
        N = make_N2(c, CTX)
        assert validate_distribution(N) is None
        for n in range(N.n_max + 1):
            for (a, b), v in N.tables[n].items():
                assert N.tables[n][(b, a)] == -v
    assert is_zero(make_N2(1, CTX))


def word_tables(word):
    """Per-level alpha and gamma lists of a word: its Y_i and X Y_i coefficients."""
    tower = word_tower(word, [2] * (word.level + 1))
    return ([[s.coeff((i,)) for i in range(word.p ** n)] for n, s in enumerate(tower)],
            [[s.coeff((X, i)) for i in range(word.p ** n)] for n, s in enumerate(tower)])


def test_dilog_measure_from_word():
    word = commutator(FreeWord(3, 2, ((X, 1),)), FreeWord(3, 2, ((0, 1),)))
    D2 = make_D2(word)
    assert D2.p == 3 and D2.n_max == 2
    # a depth-2 D2 combines with a depth-3 N2 at the levels both store
    assert linear_combine([1, 1], [D2, make_N2(7, CTX)]) == \
        linear_combine([1, 1], [D2, make_N2(7, PrimeContext(3, 2))])
    assert validate_distribution(D2) is None
    _, gammas = word_tables(word)
    for n in range(D2.n_max + 1):
        width = 3 ** n
        for (a, b), v in D2.tables[n].items():
            assert D2.tables[n][(b, a)] == -v
            if a == b:
                assert v == gammas[n][(-b) % width] - gammas[n][(-a) % width]


def test_dilog_measure_rejects_bad_tables():
    # corrupt one dilogarithm entry of otherwise-consistent tables: the
    # twisted compatibility breaks and the distribution check reports it
    word = commutator(FreeWord(3, 2, ((X, 1),)), FreeWord(3, 2, ((0, 1),)))
    alphas, gammas = word_tables(word)

    def d2_from_tables():
        return LevelFamily.build(3, 2, lambda n, ab: classical.d2_value(
            ab[0], ab[1], 3 ** n, alphas[n].__getitem__, gammas[n].__getitem__), 2)

    assert d2_from_tables().tables == make_D2(word).tables
    gammas[2][4] += 1
    assert validate_distribution(d2_from_tables()) == (1, (0, 2), -3)


@pytest.mark.parametrize("text", ["x*y0", "x", "y0*x^2"])
def test_d2_refuses_a_word_outside_the_kernel(text):
    with pytest.raises(ValueError, match="^D2 needs a kernel word$"):
        make_D2(parse_word(text, 3, 2))


def test_e1_relation_suite_passes():
    rng = random.Random(3)
    for p in (3, 5):
        ctx = PrimeContext(p, 3)
        cs = []
        while len(cs) < 5:
            c = rng.randrange(2, 40)
            if c % p:
                cs.append(c)
        cs.append(-2)
        for c in cs:
            checks = e1_relation_suite(c, ctx, 3)
            assert [miss for _, miss in checks] == [None] * 3, (p, c, checks)


def test_e1_relation_suite_degenerate():
    checks = e1_relation_suite(1, CTX, 3)
    assert [miss for _, miss in checks] == [None] * 3


def test_failed_e1_relation_names_level_point_valuation(monkeypatch):
    real = classical.make_M

    def perturbed(c, ctx):  # M(c) off by p at level 2, point 1
        mu = real(c, ctx)
        tables = list(mu.tables)
        tables[2] = dict(tables[2])
        tables[2][(1,)] += ctx.p
        return LevelFamily(ctx.p, 1, tuple(tables), mu.denom_bound)

    monkeypatch.setattr(classical, "make_M", perturbed)
    checks = dict(e1_relation_suite(7, CTX, 3))
    assert checks["reflection"] is None
    for name in ("translation", "translated-reflection"):
        assert checks[name].endswith(" == 0 mod p^3; level=2 point=(1,) valuation=1")
