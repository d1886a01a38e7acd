import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zpmeasures.classical import make_D2, make_dirac, make_E1, make_M, make_N2
from zpmeasures.corrections import LinearFormIntegrand
from zpmeasures.magnus import parse_word
from zpmeasures.measures import (DiracCombo, LevelFamily,
                                 box_integral, exterior_product, iwasawa_P, lifts,
                                 linear_combine, measures_equal, pinpoint,
                                 pushforward, signed_group, star_convolution,
                                 transform_F, validate_distribution)
from zpmeasures.padic import INF, PIntegralityError, PrimeContext, vp

from levelref import (assert_stored_form, exterior_reference, fraction_tables, is_zero,
                      linear_combine_reference, measures_equal_reference, pushforward_reference,
                      raised, star_reference, total_mass, unit_sequence,
                      validate_distribution_reference, value)
from polyref import MPoly

CTX = PrimeContext(3, 3)
CTX5 = PrimeContext(5, 2)


def dirac_pair():
    return make_dirac([1], CTX5), make_dirac([2], CTX5)


def test_validate_distribution_negative_control():
    bad = raised(make_M(-1, CTX), 2, (4,))
    assert validate_distribution(bad) == (1, (1,), -1)


def test_linear_combine_identities():
    a, b = dirac_pair()
    assert linear_combine([1, 0], [a, b]) == a
    assert is_zero(linear_combine([1, -1], [a, a]))


@pytest.mark.parametrize("coeffs", [[1], [1, 1, 1]])
def test_linear_combine_rejects_a_coefficient_count_mismatch(coeffs):
    # zip would drop the measures, or the coefficients, past the shorter list
    with pytest.raises(ValueError, match=f"{len(coeffs)} coefficients for 2 measures"):
        linear_combine(coeffs, list(dirac_pair()))


def test_pushforward_affine_maps_every_coordinate():
    half, w = Fraction(1, 2), Fraction(-1, 3)
    combo = DiracCombo.make(2, [((1, 2), 1), ((0, half), w)])
    assert combo.pushforward_affine(-1, 1).atoms == (((0, -1), 1), ((1, half), w))
    assert combo.pushforward_affine(1, half).atoms == \
        (((Fraction(3, 2), Fraction(5, 2)), 1), ((half, 1), w))


def test_translate_and_errors():
    a = make_dirac([2], CTX)
    assert pushforward(a, shift=[3]) == make_dirac([5], CTX)
    assert pushforward(a, shift=[0]) == a
    with pytest.raises(PIntegralityError):
        pushforward(a, shift=[Fraction(1, 3)])
    with pytest.raises(ValueError):
        pushforward(a, shift=[1, 1])
    with pytest.raises(ValueError):
        pushforward(make_dirac([0, 0], CTX5), perm=(0, 0))


@pytest.mark.parametrize("keyword, values", [
    ("perm", (0,)), ("perm", (0, 1, 2)), ("units", [1]), ("units", [1, 1, 1]),
    ("shift", [0]), ("shift", [0, 0, 0])])
def test_pushforward_refuses_a_map_of_another_dimension(keyword, values):
    # a list shorter or longer than mu.dim names a map of another dimension
    with pytest.raises(ValueError, match="^map dimension mismatch$"):
        pushforward(make_dirac([0, 1], CTX5), **{keyword: values})


def test_scale_action_unit_only():
    a, _ = dirac_pair()
    assert pushforward(a, units=[1]) == a
    assert pushforward(a, units=[-1]) == make_dirac([-1], CTX5)
    with pytest.raises(ValueError):
        pushforward(a, units=[5])


def test_scale_action_moments():
    mu = linear_combine([1, 1], list(dirac_pair()))
    md = pushforward(mu, units=[2])
    x2 = MPoly.var(1, 0) ** 2
    v1, _ = box_integral(md, (0,), 0, x2, 2)
    v2, _ = box_integral(mu, (0,), 0, x2, 2)
    assert vp(v1 - 4 * v2, 5) >= 2


def test_scale_translate_composition():
    mu = linear_combine([1, 2], list(dirac_pair()))
    lhs = pushforward(pushforward(mu, shift=[3]), units=[2])
    rhs = pushforward(pushforward(mu, units=[2]), shift=[6])
    assert lhs == rhs
    assert pushforward(mu, units=[2], shift=[6]) == lhs


# Each door into the exact domain, as a call with one scalar put in from outside.
COMBO = DiracCombo.make(1, [((2,), 1), ((0,), 5)])
FAM, ONE = COMBO.to_level_family(CTX), LinearFormIntegrand((0, 0), (0,), 3)
DOORS = {
    "box_sum base": lambda x: COMBO.box_sum((x,), 1, ONE, 3),
    "box_integral base": lambda x: box_integral(FAM, (x,), 1, ONE, 2),
    "linear_combine coefficient": lambda x: linear_combine([1, x], [FAM, FAM]),
    "pushforward unit": lambda x: pushforward(FAM, units=[x]),
    "pushforward shift": lambda x: pushforward(FAM, shift=[x]),
    "DiracCombo point": lambda x: DiracCombo.make(1, [((x,), 1)]),
    "DiracCombo coefficient": lambda x: DiracCombo.make(1, [((1,), x)]),
    "make_M c": lambda x: make_M(x, CTX),
    "make_E1 c": lambda x: make_E1(x, CTX),
    "make_N2 c": lambda x: make_N2(x, CTX),
    "integrand scale": lambda x: LinearFormIntegrand((0, 0), (0,), 3, scale=x),
    "integrand lift": lambda x: LinearFormIntegrand((1, 0), (0,), 3, 0, x),
}


@settings(max_examples=100, deadline=None)
@given(x=st.one_of(st.floats(), st.booleans()), door=st.sampled_from(sorted(DOORS)))
@example(x=2.0, door="make_M c")
@example(x=True, door="linear_combine coefficient")
def test_floats_and_bools_are_refused_at_every_door(x, door):
    # Fraction(x) would take 1.9 as 4278419646001971/2251799813685248, and
    # True as 1
    with pytest.raises(ValueError, match=re.escape(f"{x} is a {type(x).__name__}, not an exact")):
        DOORS[door](x)


@pytest.mark.parametrize("e", [Fraction(1, 2), 1.9, Fraction(-5, 3)])
def test_pushforward_affine_refuses_a_non_integer_e(e):
    # int(e) would move the atom at 3 to 0 (e = 1/2) or keep it (e = 1.9)
    combo = DiracCombo.make(1, [((3,), 1)])
    with pytest.raises(ValueError, match=f"integer e, got e = {e}"):
        combo.pushforward_affine(e, 0)
    assert combo.pushforward_affine(Fraction(2), 0).atoms == (((6,), 1),)


def test_pushforward_affine():
    mu = linear_combine([1, 2], list(dirac_pair()))
    assert pushforward(make_dirac([0], CTX5), units=[-1], shift=[1]) == \
        make_dirac([1], CTX5)
    twice = pushforward(pushforward(mu, units=[-1], shift=[1]), units=[-1], shift=[1])
    assert twice == mu


def test_signed_perm_action():
    d00 = make_dirac([0, 0], CTX5)
    assert pushforward(d00, (0, 1), (1, 1)) == d00
    # a one-coordinate flip carries the sign character -1
    mu = linear_combine([1, 2], list(dirac_pair()))
    one_flip = linear_combine([-1], [pushforward(mu, (0,), (-1,))])
    assert one_flip == linear_combine(
        [-1, -2], [make_dirac([-1], CTX5), make_dirac([-2], CTX5)])
    # the sign character sums to zero over the group
    group = list(signed_group(2))
    parts = [pushforward(d00, perm, eps) for perm, eps in group]
    assert is_zero(linear_combine([eps[0] * eps[1] for _, eps in group], parts))


def test_signed_perm_semidirect_composition():
    mu = exterior_product(*dirac_pair())
    perm, eps = (1, 0), (-1, 1)
    combined = pushforward(mu, perm, eps)
    staged = pushforward(pushforward(mu, (0, 1), eps), perm, (1, 1))
    assert combined == staged


@st.composite
def affine_maps(draw):
    """A Dirac combination on Z^dim and a map y_{perm[j]} = eps_j x_j + c_j."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-9, 9)] * dim)
    atoms = draw(st.lists(st.tuples(point, st.integers(-3, 3)), min_size=1, max_size=4))
    perm = tuple(draw(st.permutations(range(dim))))
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    shift = draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim))
    return DiracCombo.make(dim, atoms), perm, eps, shift


@settings(max_examples=60, deadline=None)
@given(affine_maps())
def test_pushforward_matches_exact_dirac_image(case):
    combo, perm, eps, shift = case
    ctx = PrimeContext(3, 2)
    # coordinate j of the moved point lands in slot perm[j]
    moved = [[e * x + c for x, e, c in zip(pt, eps, shift)] for pt, _ in combo.atoms]
    placed = DiracCombo.make(combo.dim, [([pt[perm.index(k)] for k in range(combo.dim)], w)
                                         for pt, (_, w) in zip(moved, combo.atoms)])
    got = pushforward(combo.to_level_family(ctx), perm, eps, shift)
    assert got == placed.to_level_family(ctx)


def test_exterior_product():
    a, b = dirac_pair()
    ab = exterior_product(a, b)
    assert ab == make_dirac([1, 2], CTX5)
    c = make_dirac([0], CTX5)
    assert exterior_product(exterior_product(a, b), c) == \
        exterior_product(a, exterior_product(b, c))


def test_exterior_transform_factorizes():
    from zpmeasures.measures import iwasawa_P, iwasawa_tensor
    alpha = linear_combine([1, 1], list(dirac_pair()))
    beta = make_dirac([0], CTX5)
    P = iwasawa_P(exterior_product(alpha, beta), 3, 2)
    Pt = iwasawa_tensor(iwasawa_P(alpha, 3, 2), iwasawa_P(beta, 3, 2))
    for e in itertools.product(range(4), repeat=2):
        assert P.coefficient(e) == Pt.coefficient(e)


def test_star_convolution_unit_and_associativity():
    a, b = dirac_pair()
    A = (unit_sequence(CTX5, 0)[0], a, exterior_product(a, a))
    B = (unit_sequence(CTX5, 0)[0], b, exterior_product(b, b))
    unit = unit_sequence(CTX5, 2)
    for i in range(3):
        assert star_convolution(A, unit)[i] == A[i]
        assert star_convolution(unit, A)[i] == A[i]
    # degree-1 entry of A*B with unit degree-0 parts
    assert star_convolution(A, B)[1] == linear_combine([1, 1], [a, b])
    C = (unit_sequence(CTX5, 0)[0], make_dirac([3], CTX5),
         exterior_product(make_dirac([3], CTX5), make_dirac([3], CTX5)))
    left = star_convolution(star_convolution(A, B), C)
    right = star_convolution(A, star_convolution(B, C))
    for i in range(3):
        assert left[i] == right[i]


def test_box_integral_basics():
    M = make_M(7, CTX)
    v, e = box_integral(M, (0,), 0, MPoly.const(1, 1), 3)
    assert v == total_mass(M) == 6
    assert e == 3
    d = make_dirac([2], CTX)
    x = MPoly.var(1, 0)
    v, _ = box_integral(d, (0,), 0, x, 3)
    assert v == 2
    v2, _ = box_integral(make_M(-1, CTX), (0,), 0, x, 2)
    v3, _ = box_integral(make_M(-1, CTX), (0,), 0, x, 3)
    assert vp(v2 - v3, 3) >= 2
    with pytest.raises(ValueError):
        box_integral(M, (0,), 2, MPoly.const(1, 1), 1)


def test_measures_equal_modes():
    a, b = dirac_pair()
    assert measures_equal(a, a, INF) is None
    assert measures_equal(make_dirac([0], CTX5), make_dirac([1], CTX5), 1) == (1, (0,), 1)
    shifted = raised(linear_combine([1], [a]), 2, (3,), 25)
    assert measures_equal(a, shifted, 2) is None
    assert measures_equal(a, shifted, 3) == (2, (3,), -25)


def test_measures_equal_names_its_miss():
    a = make_M(7, CTX5)
    shifted = raised(a, 2, (3,), 25)
    miss = measures_equal(a, shifted, 3)
    assert miss == (2, (3,), -25)
    assert pinpoint(miss, 5) == "level=2 point=(3,) valuation=2"
    # a miss at a level that one of the tables does not store is not seen;
    # a pass names nothing
    shallow = LevelFamily(5, 1, shifted.tables[:2], shifted.dens[:2], a.denom_bound)
    assert measures_equal(a, shallow, INF) is None
    assert measures_equal(shallow, a, INF) is None
    # tables built to depths 2 and 3 compare and combine at levels 0..2
    m2, m3 = make_M(7, PrimeContext(3, 2)), make_M(7, CTX)
    assert measures_equal(m2, m3, INF) is None and measures_equal(m3, m2, INF) is None
    diff = linear_combine([1, -1], [m3, m2])
    assert diff.n_max == 2 and is_zero(diff)


M7 = make_M(7, CTX5)
M7_TO_1 = LevelFamily(5, 1, M7.tables[:2], M7.dens[:2], M7.denom_bound)
M7_AT_0 = LevelFamily(5, 1, M7.tables[:1], M7.dens[:1], 0)
CONST1 = MPoly.const(1, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: box_integral(M7, (0,), 0, CONST1, 3),
     "box level 0 and evaluation level 3 not in order within the stored range 0..2"),
    (lambda: box_integral(M7, (0,), -1, CONST1, 0),
     "box level -1 and evaluation level 0 not in order within the stored range 0..2"),
    (lambda: iwasawa_P(M7, 2, 3), "evaluation level 3 out of stored range 0..2"),
    (lambda: transform_F(M7, 2, -1), "evaluation level -1 out of stored range 0..2"),
], ids=["box_integral-past-n_max", "box_integral-negative",
        "iwasawa_P", "transform_F"])
def test_a_level_outside_the_tables_is_a_value_error_naming_it(call, message):
    # not an IndexError, a KeyError, a vacuous pass or a read of tables[-1]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("family", [M7, M7_TO_1, M7_AT_0], ids=["n_max=2", "n_max=1", "n_max=0"])
def test_checks_with_no_level_argument_read_every_stored_level(family):
    # validate_distribution, pushforward and measures_equal take their levels
    # from the family: every stored level, the top one included, down to n_max = 0
    assert validate_distribution(family) is None
    flipped = pushforward(family, units=[-1])
    assert flipped.n_max == family.n_max
    assert pushforward(flipped, units=[-1]) == family
    top = raised(family, family.n_max, (0,))
    assert measures_equal(family, family, INF) is None
    assert measures_equal(family, top, INF) == (family.n_max, (0,), -1)


def test_dirac_combo_matches_level_tables():
    rng = random.Random(5)
    atoms = [((rng.randrange(-9, 9),), Fraction(rng.randrange(-3, 4))) for _ in range(4)]
    combo = DiracCombo.make(1, atoms)
    fam = combo.to_level_family(CTX)
    assert validate_distribution(fam) is None
    # box integral against the level family agrees mod p^m with the exact one
    poly = LinearFormIntegrand((0, 2), (0,), 1)  # x^2
    exact = poly.factor * combo.box_sum((1,), 1, poly, 3)
    riemann, e = box_integral(fam, (1,), 1, poly, 3)
    assert vp(exact - riemann, 3) >= e


def test_distribution_relation_lift_count():
    assert len(list(lifts((0, 0), 3, 1, 2))) == 9


# ---------------------------------------------------------------------------
# Stored form: every level is int numerators over one positive denominator, in
# lowest terms and residues() order, and the family equals the all-Fraction
# build's, denom_bound included.


def same_both_ways(build, reference=None):
    """build() with the library's builders and kernels, and again with every
    table tabulated by `levelref.build_fraction`: `reference()`, when given,
    is build() with each kernel replaced by its `levelref` reference.  build()
    gives one family or a tuple of them."""
    got = build()
    with fraction_tables():
        want = (reference or build)()
    assert got == want
    for mu in got if type(got) is tuple else (got,):
        assert_stored_form(mu)
    return got


p_integral = st.builds(lambda p, num, den: (p, Fraction(num, den)),
                       st.sampled_from([2, 3, 5]), st.integers(-60, 60), st.integers(1, 6)
                       ).filter(lambda pc: pc[1].denominator % pc[0])


@settings(max_examples=40, deadline=None)
@given(pc=p_integral, n_max=st.integers(1, 3))
@example(pc=(3, Fraction(7)), n_max=3)
@example(pc=(5, Fraction(7, 2)), n_max=2)
@example(pc=(2, Fraction(-1, 3)), n_max=3)
def test_named_measures_match_the_fraction_reference(pc, n_max):
    p, c = pc
    ctx = PrimeContext(p, n_max)
    same_both_ways(lambda: make_M(c, ctx))
    if c.numerator % p:  # a unit
        same_both_ways(lambda: make_E1(c, ctx))
        same_both_ways(lambda: make_N2(c, PrimeContext(p, min(n_max, 2))))


@pytest.mark.parametrize("word, p, level", [("[x,y0]", 3, 2), ("[[x,y1],y2]", 2, 3),
                                             ("[x,y5]*y0", 3, 2), ("[x,y3]*[y1,y2]", 5, 1)])
def test_d2_matches_the_fraction_reference(word, p, level):
    same_both_ways(lambda: make_D2(parse_word(word, p, level)))


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("value", [1, Fraction(1, 3)])
def test_build_refuses_a_level_of_the_wrong_size(extra, value):
    # level 2 of a 2-dim table at p = 3 has 81 points; the level function is
    # read as one list in residues() order, so 80 or 82 values are refused
    def fn(n):
        return [value] * (3 ** (2 * n) + (extra if n == 2 else 0))

    assert LevelFamily.build(3, 2, fn, 1).n_max == 1
    with pytest.raises(ValueError, match="zip"):
        LevelFamily.build(3, 2, fn, 2)


@st.composite
def combinations(draw):
    """Integer-weighted Dirac masses and one rational coefficient for each."""
    mus = [DiracCombo.make(1, [((draw(st.integers(-9, 9)),), draw(st.integers(-3, 3)))])
           for _ in range(draw(st.integers(1, 3)))]
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                           min_size=len(mus), max_size=len(mus)))
    return mus, coeffs


@st.composite
def named_combinations(draw):
    """A unit c, rational or not, and one coefficient for each of E1(c), E1(c) o (-1),
    M(c) and delta_0, some sharing primes with the tables' denominators, some zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    c = draw(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)).filter(
        lambda c: c.numerator % p and c.denominator % p))
    shared = [0, Fraction(1, 2), Fraction(1, p), Fraction(p, 2)]
    coeff = st.one_of(st.sampled_from(shared), st.builds(Fraction, st.integers(-9, 9),
                                                         st.integers(1, 12)))
    return p, c, draw(st.integers(1, 3)), draw(st.lists(coeff, min_size=4, max_size=4))


@settings(max_examples=40, deadline=None)
@given(combinations(), named_combinations())
@example(case=([DiracCombo.make(1, [((2,), 1)])], [Fraction(3)]),
         named=(3, Fraction(7), 2, [Fraction(1, 3), 0, Fraction(3, 2), Fraction(1, 2)]))
@example(case=([DiracCombo.make(1, [((2,), 1)])], [Fraction(3)]),
         named=(5, Fraction(-1, 2), 2, [Fraction(5, 2), Fraction(1, 5), 0, 0]))
def test_linear_combine_matches_the_fraction_reference(case, named):
    combos, coeffs = case

    def both(coeffs, combos):
        def build(combine):
            return combine(coeffs, [mu.to_level_family(CTX) for mu in combos])
        return same_both_ways(lambda: build(linear_combine),
                              lambda: build(linear_combine_reference))

    both(coeffs, combos)
    zero = both(coeffs + [-c for c in coeffs], combos + combos)
    assert is_zero(zero) and zero.denom_bound == 0
    halves = both([Fraction(1, 2)] * 2 * len(combos), combos + combos)
    assert set(halves.dens) == {1}

    p, c, n_max, named_coeffs = named
    ctx = PrimeContext(p, n_max)

    def parts(push):
        E = make_E1(c, ctx)
        return [E, push(E, units=[-1]), make_M(c, ctx), make_dirac([0], ctx)]

    same_both_ways(lambda: linear_combine(named_coeffs, parts(pushforward)),
                   lambda: linear_combine_reference(named_coeffs, parts(pushforward_reference)))

    def translation_plus_delta_1(combine, push):
        E, _, M, d0 = parts(push)
        return combine([1, -1, -1, c - 1, 1],
                       [push(E, shift=[c]), E, M, d0, make_dirac([1], ctx)])

    # T_c(E) - E - M(c) - (1-c) delta_0 vanishes exactly, so adding delta_1 leaves
    # delta_1's integer tables, whatever the denominators of E and M
    one = same_both_ways(lambda: translation_plus_delta_1(linear_combine, pushforward),
                         lambda: translation_plus_delta_1(linear_combine_reference,
                                                          pushforward_reference))
    assert one == make_dirac([1], ctx) and one.denom_bound == 0
    assert set(one.dens) == {1}


@settings(max_examples=30, deadline=None)
@given(pc=p_integral, unit=st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-4, 7)]),
       shift=st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 4, 7])))
def test_pushforward_and_products_match_the_fraction_reference(pc, unit, shift):
    p, c = pc
    assume(vp(unit, p) == 0 and vp(shift, p) >= 0)
    ctx = PrimeContext(p, 2)

    def images(push, product):
        out = (push(make_M(c, ctx), units=[unit]), push(make_M(c, ctx), shift=[shift]),
               product(make_M(c, ctx), make_dirac([shift], ctx)))
        if c.numerator % p:
            out += (push(make_E1(c, ctx), units=[unit], shift=[shift]),
                    product(make_E1(c, ctx), make_M(c, ctx)))
        return out

    same_both_ways(lambda: images(pushforward, exterior_product),
                   lambda: images(pushforward_reference, exterior_reference))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 5]), k=st.integers(1, 3), others=st.lists(st.tuples(
    st.integers(-20, 20), st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))),
    max_size=3))
def test_dirac_combinations_match_the_fraction_reference(p, k, others):
    ctx = PrimeContext(p, 3)
    # two halves share a box below level k and sum to 1 there
    pair = DiracCombo.make(1, [((0,), Fraction(1, 2)), ((p ** k,), Fraction(1, 2))])
    mu = same_both_ways(lambda: pair.to_level_family(ctx))
    assert all(value(mu, n, (0,)) == 1 and type(value(mu, n, (0,))) is int for n in range(k))
    combo = pair + DiracCombo.make(1, [((x,), w) for x, w in others])
    same_both_ways(lambda: combo.to_level_family(ctx))
    # points at odd halves, moved by a half onto integers
    halves = DiracCombo.make(2, [((Fraction(2 * x + 1, 2), Fraction(-1, 2)), w) for x, w in others]
                             + [((Fraction(1, 2), Fraction(1, 2)), Fraction(3, 3))])
    moved = halves.pushforward_affine(1, Fraction(1, 2))
    assert all(type(x) is int for pt, w in moved.atoms for x in pt)
    assert all(type(w) is int or w.denominator > 1 for pt, w in moved.atoms)
    same_both_ways(lambda: moved.to_level_family(PrimeContext(p, 2)))


# ---------------------------------------------------------------------------
# The table kernels against their Fraction references, on Dirac combinations


@st.composite
def kernel_inputs(draw):
    """A prime; Dirac combinations a1, b1 on Z and a2, b2 on Z^2 with rational
    weights, some atoms cancelling; two coefficients, cancelling or not; a unit
    and a shift per coordinate."""
    p = draw(st.sampled_from([2, 3, 5]))
    weight = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, p, p * p]))

    def combo(dim):
        atoms = draw(st.lists(st.tuples(st.tuples(*[st.integers(-9, 9)] * dim), weight),
                              min_size=1, max_size=4))
        if draw(st.booleans()):  # an atom that cancels the first
            atoms.append((atoms[0][0], -atoms[0][1]))
        return DiracCombo.make(dim, atoms)

    c = draw(weight)
    coeffs = draw(st.sampled_from([[c, -c], [c, draw(weight)], [0, c]]))
    unit = st.sampled_from([u for u in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 7))
                            if vp(u, p) == 0])
    units = draw(st.lists(unit, min_size=2, max_size=2))
    shift = draw(st.lists(weight.filter(lambda w: w.denominator % p), min_size=2, max_size=2))
    return p, [combo(1), combo(2), combo(1), combo(2)], coeffs, units, shift


def same_as_reference(got, want):
    assert got == want
    assert_stored_form(got)


@settings(max_examples=40, deadline=None)
@given(kernel_inputs())
@example((3, [DiracCombo.make(1, [((1,), Fraction(1, 3)), ((1,), Fraction(-1, 3))]),
              DiracCombo.make(2, [((0, 4), Fraction(1, 9))]),
              DiracCombo.make(1, [((2,), Fraction(1, 2)), ((5,), Fraction(1, 2))]),
              DiracCombo.make(2, [((1, 1), 3), ((4, 4), Fraction(-1, 3))])],
          [Fraction(1, 2), Fraction(-1, 2)], [2, -1], [Fraction(1, 2), 0]))
def test_table_kernels_match_the_fraction_reference(case):
    # every value, every level's lowest terms and key order, and denom_bound
    p, combos, coeffs, units, shift = case
    ctx = PrimeContext(p, 2)
    a1, a2, b1, b2 = (combo.to_level_family(ctx) for combo in combos)
    with fraction_tables():
        for mu, combo in zip((a1, a2, b1, b2), combos, strict=True):
            same_as_reference(mu, combo.to_level_family(ctx))
    for mu in (a1, a2):
        for perm in itertools.permutations(range(mu.dim)):
            same_as_reference(pushforward(mu, perm, units[:mu.dim], shift[:mu.dim]),
                              pushforward_reference(mu, perm, units[:mu.dim], shift[:mu.dim]))
    for pair in ([a1, b1], [a2, b2], [a2, a2]):
        same_as_reference(linear_combine(coeffs, pair), linear_combine_reference(coeffs, pair))
    for alpha, beta in ((a1, b1), (b2, a1)):
        same_as_reference(exterior_product(alpha, beta), exterior_reference(alpha, beta))
    one = unit_sequence(ctx, 0)
    a, b = one + (a1, a2), one + (linear_combine(coeffs[1:], [b1]), b2)
    for got, want in zip(star_convolution(a, b), star_reference(a, b), strict=True):
        same_as_reference(got, want)
    # the two checks read values, not numerators: the valuation of a difference
    # and a defect counts the denominators
    for mu, nu in ((a1, b1), (a2, b2), (a2, linear_combine([1, 1], [a2, b2]))):
        for mod_exp in (INF, 0, 1, 2, 3):
            assert measures_equal(mu, nu, mod_exp) == measures_equal_reference(mu, nu, mod_exp)
    for mu in (a1, a2, b1, b2):
        point = (1,) * mu.dim
        for fault in (mu, raised(mu, 1, point, coeffs[1].numerator or 1),
                      raised(mu, 2, point, -1)):
            assert validate_distribution(fault) == validate_distribution_reference(fault)
