import itertools
import json
import math
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zpmeasures import cli
from zpmeasures.classical import make_M, make_N2, make_dirac, make_E1
from zpmeasures.measures import (DiracCombo, box_integral, iwasawa_P,
                                 iwasawa_flip, iwasawa_swap, iwasawa_tensor,
                                 linear_combine, pushforward, transform_F,
                                 transform_F_via_P)
from zpmeasures.padic import PrimeContext, bernoulli, binom, vp

from levelref import fraction_tables, normal_form
from polyref import MPoly

CTX = PrimeContext(3, 4)
CTX5 = PrimeContext(5, 3)


def series_division_expected(c, k):
    # ((1+T)^c - (1+T))/T has T^k coefficient binom(c, k+1) - [k = 0]
    return binom(c, k + 1) - (1 if k == 0 else 0)


def test_iwasawa_of_dirac_is_binomial():
    P = iwasawa_P(make_dirac([5], CTX), 6, 4)
    for k in range(7):
        assert P.coefficient((k,)) == binom(5, k)


def test_iwasawa_of_translated_dirac():
    P = iwasawa_P(pushforward(make_dirac([0], CTX), shift=[1]), 4, 4)
    for k in range(5):
        assert P.coefficient((k,)) == (1 if k <= 1 else 0)


def test_iwasawa_of_interpolation_measure():
    for c in (7, Fraction(1, 2)):
        M = make_M(c, CTX)
        P = iwasawa_P(M, 6, 4)
        for k in range(7):
            e = P.guarantees[(k,)]
            assert e == 4 - vp(math.factorial(k), 3)
            assert vp(P.coefficient((k,)) - series_division_expected(c, k), 3) >= e


def test_iwasawa_zero_measure():
    P = iwasawa_P(make_M(1, CTX), 4, 3)
    assert all(v == 0 for v in P.coeffs.values())


def test_translation_functoriality():
    # P(T_c mu) = P(mu) (1+T)^c coefficientwise within guarantees
    mu = linear_combine([1, 2], [make_dirac([1], CTX), make_dirac([3], CTX)])
    c = 4
    lhs = iwasawa_P(pushforward(mu, shift=[c]), 5, 4)
    base = iwasawa_P(mu, 5, 4)
    for k in range(6):
        want = sum(base.coefficient((j,)) * binom(c, k - j) for j in range(k + 1))
        assert vp(lhs.coefficient((k,)) - want, 3) >= lhs.guarantees[(k,)]


def test_scale_functoriality_general_unit():
    # P(m_d mu)(T) = P(mu)((1+T)^d - 1) within guarantees, d = 2
    mu = linear_combine([1, 2], [make_dirac([1], CTX5), make_dirac([3], CTX5)])
    K = 4
    base = iwasawa_P(mu, K, 3)
    direct = iwasawa_P(pushforward(mu, units=[2]), K, 3)
    # ((1+T)^2 - 1)^j = (2T + T^2)^j, composed exactly on the truncation
    subst = [Fraction(0)] * (K + 1)
    comp = {0: {0: Fraction(1)}}
    for j in range(1, K + 1):
        prev = comp[j - 1]
        cur = {}
        for deg, cf in prev.items():
            for d_, c_ in ((1, Fraction(2)), (2, Fraction(1))):
                if deg + d_ <= K:
                    cur[deg + d_] = cur.get(deg + d_, Fraction(0)) + cf * c_
        comp[j] = cur
    for k in range(K + 1):
        want = sum(base.coefficient((j,)) * comp[j].get(k, Fraction(0))
                   for j in range(K + 1))
        e = min(direct.guarantees[(k,)], base.guarantees[(k,)])
        assert vp(direct.coefficient((k,)) - want, 5) >= e


def test_scale_functoriality_via_flip():
    # P(m_{-1} mu)(T) = P(mu)((1+T)^{-1} - 1) within guarantees
    mu = linear_combine([1, 2], [make_dirac([1], CTX5), make_dirac([3], CTX5)])
    P = iwasawa_P(mu, 4, 3)
    flipped = iwasawa_flip(P, {0}, 5)
    direct = iwasawa_P(pushforward(mu, units=[-1]), 4, 3)
    for k in range(5):
        e = min(flipped.guarantees[(k,)], direct.guarantees[(k,)])
        assert vp(flipped.coefficient((k,)) - direct.coefficient((k,)), 5) >= e


def test_exponential_transform_of_dirac():
    F = transform_F(make_dirac([2], CTX), 5, 4)
    for k in range(6):
        assert F.coefficient((k,)) == Fraction(2 ** k, math.factorial(k))


def test_exponential_transform_two_routes():
    mu = linear_combine([1, 2], [make_dirac([1], CTX), make_dirac([3], CTX)])
    F1 = transform_F(mu, 5, 4)
    F2 = transform_F_via_P(iwasawa_P(mu, 5, 4), 3)
    for k in range(6):
        e = min(F1.guarantees[(k,)], F2.guarantees[(k,)])
        assert vp(F1.coefficient((k,)) - F2.coefficient((k,)), 3) >= e
        assert F1.coefficient((k,)) == Fraction(1 ** k + 2 * 3 ** k, math.factorial(k))


def test_e1_exponential_coefficients():
    E = make_E1(2, CTX5)
    F = transform_F(E, 5, 3)
    for k in range(1, 7):
        want = Fraction(bernoulli(k), k) * (1 - Fraction(2) ** k) / math.factorial(k - 1)
        assert vp(F.coefficient((k - 1,)) - want, 5) >= F.guarantees[(k - 1,)]


def test_swap_and_tensor():
    a = linear_combine([1, 1], [make_dirac([1], CTX5), make_dirac([2], CTX5)])
    b = make_dirac([3], CTX5)
    P = iwasawa_P(linear_combine([1], [a]), 3, 2)
    Q = iwasawa_P(b, 3, 2)
    T = iwasawa_tensor(P, Q)
    S = iwasawa_swap(T, (1, 0))
    for e in itertools.product(range(4), repeat=2):
        assert S.coefficient(e) == T.coefficient((e[1], e[0]))


def test_iwasawa_json_shape(capsys):
    assert cli.main(["emit", "iwasawa", "--measure", "dirac", "--a", "1", "--p", "3",
                     "--nmax", "4", "--level", "2", "--terms", "2"]) == cli.EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"dim", "terms", "coeffs"}
    assert all(set(row) == {"exp", "value", "guarantee"} for row in d["coeffs"])


def binom_factor(dim, k, j):
    x = MPoly.var(dim, k)
    out = MPoly.const(dim, Fraction(1, math.factorial(j)))
    for i in range(j):
        out = out * (x - i)
    return out


def power_factor(dim, k, j):
    return MPoly.var(dim, k) ** j * Fraction(1, math.factorial(j))


FRACTION_WEIGHTS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def dirac_combos(draw, weights=FRACTION_WEIGHTS):
    """(combination, context, evaluation level) of up to four weighted Dirac masses."""
    dim = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    level = draw(st.integers(0, 2))
    # the reference below walks every point of the table, so keep it small
    assume(p ** (level * dim) <= 729)
    points = st.tuples(*[st.integers(-20, 20)] * dim)
    atoms = draw(st.lists(st.tuples(points, weights), min_size=1, max_size=4))
    return DiracCombo.make(dim, atoms), PrimeContext(p, max(level, 1)), level


def dirac_measures():
    return dirac_combos().map(lambda case: (case[0].to_level_family(case[1]), case[2]))


@given(case=dirac_measures(), terms=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_axis_contraction_matches_box_integral(case, terms):
    # reference: one box_integral of the expanded product integrand per coefficient
    mu, level = case
    dim, p = mu.dim, mu.p
    for transform, factor in ((iwasawa_P, binom_factor), (transform_F, power_factor)):
        pt = transform(mu, terms, level)
        assert sorted(pt.coeffs) == sorted(itertools.product(range(terms + 1), repeat=dim))
        for j, value in pt.coeffs.items():
            poly = MPoly.const(dim, 1)
            for k, jk in enumerate(j):
                poly = poly * factor(dim, k, jk)
            want, _ = box_integral(mu, (0,) * dim, 0, poly, level)
            assert value == want
            assert pt.guarantees[j] == level - mu.denom_bound - sum(
                vp(math.factorial(jk), p) for jk in j)


def transforms_both_ways(build, terms, level):
    """P, F and the two substitutions on build() with the library's tables and
    with `Fraction` tables: the same coefficients and guarantees, in normal form."""
    mu = build()
    with fraction_tables():
        ref = build()
    assert all(type(v) is Fraction for t in ref.tables for v in t.values())
    p = mu.p
    for transform in (iwasawa_P, transform_F):
        got, want = transform(mu, terms, level), transform(ref, terms, level)
        assert got.coeffs == want.coeffs and got.guarantees == want.guarantees
        assert all(map(normal_form, got.coeffs.values()))
        assert all(map(normal_form, want.coeffs.values()))
    for substitute in (lambda P: transform_F_via_P(P, p),
                       lambda P: iwasawa_flip(P, range(mu.dim), p)):
        got, want = (substitute(iwasawa_P(m, terms, level)) for m in (mu, ref))
        assert got.coeffs == want.coeffs and got.guarantees == want.guarantees
        assert all(map(normal_form, got.coeffs.values()))


@given(case=st.one_of(dirac_combos(st.integers(-9, 9)), dirac_combos()), terms=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
@example(case=(DiracCombo.make(2, [((1, 4), 3), ((-2, 0), -1)]), PrimeContext(3, 2), 2), terms=4)
@example(case=(DiracCombo.make(1, [((3,), Fraction(1, 2)), ((7,), Fraction(5, 6))]),
               PrimeContext(2, 2), 2), terms=5)
def test_transforms_of_dirac_masses_match_fraction_tables(case, terms):
    # the first example is integral (one denominator, 1); the second has
    # denominators 2 and 6, which share primes with j!
    combo, ctx, level = case
    transforms_both_ways(lambda: combo.to_level_family(ctx), terms, level)


@given(pc=st.tuples(st.sampled_from([2, 3, 5]), st.integers(-30, 30), st.integers(1, 6)),
       n_max=st.integers(1, 2), terms=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
@example(pc=(3, 7, 1), n_max=2, terms=5)
@example(pc=(5, -1, 2), n_max=2, terms=5)
def test_transforms_of_named_measures_match_fraction_tables(pc, n_max, terms):
    p, num, den = pc
    c = Fraction(num, den)
    assume(c.denominator % p)
    ctx = PrimeContext(p, n_max)
    transforms_both_ways(lambda: make_M(c, ctx), terms, n_max)
    if c.numerator % p:  # a unit
        transforms_both_ways(lambda: make_E1(c, ctx), terms, n_max)
        transforms_both_ways(lambda: make_N2(c, ctx), terms, n_max)
