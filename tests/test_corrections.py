import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpmeasures.corrections import (LinearFormIntegrand, change_of_variables,
                                    four_term_sum)
from zpmeasures.measures import DiracCombo, box_integral, residues
from zpmeasures.padic import PIntegralityError, PrimeContext, repr_mod, vp
from zpmeasures.suites import RunConfig, run_suite

from polyref import expanded_standard_integrand

SHAPES = [s for s in itertools.product(range(3), repeat=3) if sum(s) <= 2]
# (e, c) of x -> e*x + c: the sign change, the reflection through 1, the shift
MAPS = [(-1, 0), (-1, 1), (1, 1)]


def random_combo(rng, dim, natoms=4):
    atoms = [(tuple(rng.randrange(-6, 7) for _ in range(dim)),
              Fraction(rng.randrange(-3, 4), rng.choice((1, 2))))
             for _ in range(natoms)]
    return DiracCombo.make(dim, atoms)


def value(integrand, point):
    """The integrand at a point: its constant factor times its forms."""
    return integrand.factor * integrand.forms(point)


def test_integrand_shape():
    poly = LinearFormIntegrand((1, 1, 0), (0, 1), 3)
    # ((0 - x1)/3)^1 * ((x1 - x2 - 0 + 1)/3)^1
    assert value(poly, (3, 4)) == Fraction(-3, 3) * Fraction(0, 3)
    assert value(poly, (0, 1)) == 0


@pytest.mark.parametrize("shape", [(1, 1), (1, 1, 0, 0), ()])
def test_integrand_needs_one_more_exponent_than_variables(shape):
    with pytest.raises(ValueError, match="need r\\+1 exponents for r variables"):
        LinearFormIntegrand(shape, (0, 1), 3)


def test_change_of_variable_identities_exact():
    rng = random.Random(99)
    for _ in range(10):
        beta = random_combo(rng, 2)
        for shape in SHAPES:
            for base in [(0, 1), (1, 2), (2, 0), (1, 1)]:
                for e, c in MAPS:
                    l, r = change_of_variables(beta, beta, base, shape, 3, 1, e, c)
                    assert l == r


def test_four_term_sum_even_measures():
    rng = random.Random(12)
    for _ in range(5):
        g = random_combo(rng, 2)
        beta = g + g.pushforward_affine(-1, 0)
        for shape in SHAPES:
            for base in [(0, 1), (1, 2), (2, 2)]:
                assert four_term_sum(beta, base, shape, 3, 1) == 0


def test_four_term_sum_detects_odd_measures():
    # a generic non-even measure leaves a nonzero sum for some shape
    beta = DiracCombo.make(2, [((1, 2), Fraction(1))])
    hits = [four_term_sum(beta, base, shape, 3, 1)
            for shape in SHAPES for base in itertools.product(range(3), repeat=2)]
    assert any(h != 0 for h in hits)


def test_identities_in_higher_rank():
    rng = random.Random(7)
    shapes = [s for s in itertools.product(range(2), repeat=4) if sum(s) <= 2]
    for _ in range(3):
        beta = random_combo(rng, 3)
        for shape in shapes:
            l, r = change_of_variables(beta, beta, (0, 1, 2), shape, 2, 1, -1, 0)
            assert l == r
            l, r = change_of_variables(beta, beta, (1, 1, 0), shape, 2, 1, 1, 1)
            assert l == r


@st.composite
def integrand_cases(draw, max_r=3, max_exp=3):
    r = draw(st.integers(1, max_r))
    shape = tuple(draw(st.lists(st.integers(0, max_exp), min_size=r + 1, max_size=r + 1)))
    base = tuple(draw(st.lists(st.integers(-10, 10), min_size=r, max_size=r)))
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 2))
    lifts = draw(st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])))
    scale = draw(st.sampled_from([1, Fraction(1, math.prod(math.factorial(k) for k in shape))]))
    return shape, base, p, n, lifts, scale


@settings(max_examples=120, deadline=None)
@given(case=integrand_cases(),
       points=st.lists(st.lists(st.one_of(st.integers(-30, 30),
                                          st.fractions(-9, 9, max_denominator=6)),
                                min_size=3, max_size=3), min_size=1, max_size=3))
def test_linear_form_integrand_matches_expanded_polynomial(case, points):
    # the integrand keeps its linear forms; the reference multiplies them out
    shape, base, p, n, lifts, scale = case
    fast = LinearFormIntegrand(shape, base, p ** n, *lifts, scale=scale)
    ref = expanded_standard_integrand(shape, base, p ** n, *lifts, scale=scale)
    assert fast.nvars == ref.nvars == len(base)
    for pt in points:
        pt = pt[:len(base)]
        assert value(fast, pt) == value(ref, pt) == ref.evaluate(pt)
    for q in (2, 3, 5):
        assert fast.denominator_valuation(q) == ref.denominator_valuation(q)


# Atoms lie in [-6, 6]^dim, so by level SEPARATED[p] (p^level > 12) they sit
# in distinct residue classes and the stored tables show every denominator
# of the measure: box_integral's guarantee trusts denom_bound to do so.
SEPARATED = {2: 4, 3: 3, 5: 2}


@settings(max_examples=80, deadline=None)
@given(case=integrand_cases(max_r=2, max_exp=2), data=st.data())
def test_box_integral_meets_its_guarantee(case, data):
    shape, base, p, n, lifts, scale = case
    dim, top = len(base), SEPARATED[p]
    atoms = data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-6, 6)] * dim),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))), min_size=1, max_size=4))
    eval_level = data.draw(st.integers(n, top))
    combo = DiracCombo.make(dim, atoms)
    fam = combo.to_level_family(PrimeContext(p, top))
    integrand = LinearFormIntegrand(shape, base, p ** n, *lifts, scale=scale)
    exact = integrand.factor * combo.box_sum(base, n, integrand, p)
    value, guarantee = box_integral(fam, base, n, integrand, eval_level)
    assert vp(exact - value, p) >= guarantee


@pytest.mark.parametrize("depth", [4, pytest.param(3, marks=pytest.mark.xfail(
    strict=True, reason="denom_bound reads the stored levels only: the atoms' 1/2 "
                        "first shows in a level-4 table, so depth 3 claims guarantee 3"))])
def test_box_integral_guarantee_with_denominators_below_the_stored_depth(depth):
    # the atoms at 0 and 8 share every box down to level 3, where they sum to 1
    combo = DiracCombo.make(1, [((0,), Fraction(1, 2)), ((8,), Fraction(1, 2))])
    integrand = LinearFormIntegrand((0, 1), (0,), 1)
    exact = integrand.factor * combo.box_sum((0,), 0, integrand, 2)
    value, guarantee = box_integral(combo.to_level_family(PrimeContext(2, depth)),
                                    (0,), 0, integrand, 3)
    assert vp(exact - value, 2) >= guarantee


@pytest.mark.parametrize("base", [(1, 2), (1, 2, 0), ()])
def test_box_integral_rejects_a_base_of_the_wrong_length(base):
    # zip would drop the extra coordinates, or find no box at all
    fam = DiracCombo.make(1, [((1,), 1), ((4,), Fraction(1, 2))]).to_level_family(
        PrimeContext(3, 3))
    integrand = LinearFormIntegrand((1, 0), (1,), 3)
    assert box_integral(fam, (1,), 1, integrand, 3) == (Fraction(-1, 2), 1)
    with pytest.raises(ValueError, match="box base dimension mismatch"):
        box_integral(fam, base, 1, integrand, 3)


@pytest.mark.parametrize("base", [(1, 2), (1, 2, 0), ()])
def test_box_sum_rejects_a_base_of_the_wrong_length(base):
    combo = DiracCombo.make(1, [((1,), 1), ((4,), Fraction(1, 2))])
    integrand = LinearFormIntegrand((1, 0), (1,), 3)
    # the atom at 4 alone: 1/2 * (1 - 4), then the factor 1/3 once
    assert combo.box_sum((1,), 1, integrand, 3) == Fraction(-3, 2)
    assert integrand.factor * combo.box_sum((1,), 1, integrand, 3) == Fraction(-1, 2)
    with pytest.raises(ValueError, match="box base dimension mismatch"):
        combo.box_sum(base, 1, integrand, 3)


def scan_box(atoms, base, level, p):
    """Reference box membership: reduce every coordinate of every atom."""
    pl = p ** level
    return [(pt, w) for pt, w in atoms
            if all(repr_mod(x, p, level) == int(b) % pl for x, b in zip(pt, base))]


@st.composite
def p_integral_combos(draw):
    """p and a combination whose points are negative, non-integer (1/3 at
    p = 2) or repeated, but always p-integral."""
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, 2))
    coord = st.builds(Fraction, st.integers(-20, 20),
                      st.sampled_from([d for d in range(1, 10) if d % p]))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(points), min_size=1, max_size=5))
    weights = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
    return p, DiracCombo.make(dim, [(pt, draw(weights)) for pt in picks])


@settings(max_examples=60, deadline=None)
@given(case=p_integral_combos(), level=st.integers(0, 2), data=st.data())
def test_box_index_matches_scan(case, level, data):
    p, combo = case
    dim, pl = combo.dim, p ** level
    shape = tuple(data.draw(st.lists(st.integers(0, 2), min_size=dim + 1, max_size=dim + 1)))
    lift = data.draw(st.sampled_from([(0, 0), (-1, 1)]))  # plain and reflected boxes
    scale = data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(-3, 4)]))
    e, c = data.draw(st.sampled_from([-1, 1])), data.draw(st.integers(-4, 4))
    image = combo.pushforward_affine(e, c)
    assert image.atoms == tuple((tuple(e * x + c for x in pt), w) for pt, w in combo.atoms)
    assert combo.pushforward_affine(e, c) is image
    ctx = PrimeContext(p, 2)
    for beta in (combo, image):
        for base in residues(p, level, dim):
            integrand = LinearFormIntegrand(shape, base, pl, *lift, scale=scale)
            # the box is named by an unreduced base; the index must reduce it
            moved = tuple(b - pl for b in base)
            scanned = scan_box(beta.atoms, moved, level, p)
            # the unscaled sum, times the factor once, equals a scaled
            # evaluation per atom
            total = beta.box_sum(moved, level, integrand, p)
            assert total == sum(w * integrand.forms(pt) for pt, w in scanned)
            assert integrand.factor * total == sum(
                (w * value(integrand, pt) for pt, w in scanned), Fraction(0))
        fam = beta.to_level_family(ctx)
        for n in range(ctx.n_max + 1):
            for a in residues(p, n, dim):
                assert fam.tables[n][a] == sum(w for _, w in scan_box(beta.atoms, a, n, p))
    # the memo takes no part in equality or hashing
    fresh = DiracCombo.make(dim, combo.atoms)
    assert fresh == combo and hash(fresh) == hash(combo)



@settings(max_examples=80, deadline=None)
@given(case=p_integral_combos(), level=st.integers(0, 2), data=st.data())
def test_a_rational_base_names_the_box_of_its_residue(case, level, data):
    # the base is any p-integral rational: an atom moved within its box by
    # p^level * k/d, or a free int or Fraction
    p, combo = case
    dim, pl = combo.dim, p ** level
    coprime = st.sampled_from([d for d in range(1, 10) if d % p])
    near = st.builds(lambda pt, k, d: tuple(x + Fraction(pl * k, d) for x in pt),
                     st.sampled_from([pt for pt, _ in combo.atoms]), st.integers(-5, 5), coprime)
    coord = st.one_of(st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30), coprime))
    base = data.draw(st.one_of(near, st.tuples(*[coord] * dim)))
    inside = [(pt, w) for pt, w in combo.atoms
              if all(vp(x - b, p) >= level for x, b in zip(pt, base))]
    shape = tuple(data.draw(st.lists(st.integers(0, 2), min_size=dim + 1, max_size=dim + 1)))
    integrand = LinearFormIntegrand(shape, tuple(range(dim)), pl)
    assert combo.box_sum(base, level, integrand, p) == \
        sum(w * integrand.forms(pt) for pt, w in inside)
    # a constant integrand: the box integral of a level table is the box's mass
    mass = LinearFormIntegrand((0,) * (dim + 1), (0,) * dim, pl)
    fam = combo.to_level_family(PrimeContext(p, 2))
    assert box_integral(fam, base, level, mass, 2)[0] == sum(w for _, w in inside)
    for wrong in (base[:-1], base + (0,)):
        with pytest.raises(ValueError, match="box base dimension mismatch"):
            combo.box_sum(wrong, level, integrand, p)
        with pytest.raises(ValueError, match="box base dimension mismatch"):
            box_integral(fam, wrong, level, mass, 2)


def test_the_base_one_half_at_3_is_the_box_of_2():
    combo = DiracCombo.make(1, [((2,), 1), ((0,), 5)])
    fam = combo.to_level_family(PrimeContext(3, 2))
    mass = LinearFormIntegrand((0, 0), (0,), 3)
    assert combo.box_sum((Fraction(1, 2),), 1, mass, 3) == 1
    assert box_integral(fam, (Fraction(1, 2),), 1, mass, 2)[0] == 1
    for base in [(1.9,), (True,)]:
        with pytest.raises(ValueError, match=f"{base[0]} is a"):
            combo.box_sum(base, 1, mass, 3)
        with pytest.raises(ValueError, match=f"{base[0]} is a"):
            box_integral(fam, base, 1, mass, 2)
    with pytest.raises(PIntegralityError):
        combo.box_sum((Fraction(1, 3),), 1, mass, 3)
    with pytest.raises(PIntegralityError):
        box_integral(fam, (Fraction(1, 3),), 1, mass, 2)

def moved_integral(beta, base, shape, p, n, e, c, scale=1):
    """The integral of beta over the box that x -> e*x + c sends onto the box
    at `base`, one scaled Fraction evaluation per atom; a reflection lifts the
    end factors by -1, +1."""
    pn = p ** n
    if e < 0:
        box, lifts = [pn + c - a for a in base], (-1, 1)
    else:
        box, lifts = [a - c for a in base], (0, 0)
    integrand = LinearFormIntegrand(shape, box, pn, *lifts, scale=scale)
    return sum((w * value(integrand, pt) for pt, w in scan_box(beta.atoms, box, n, p)),
               Fraction(0))


@settings(max_examples=60, deadline=None)
@given(case=p_integral_combos(), n=st.integers(0, 2), data=st.data())
def test_change_of_variables_sides_over_their_factor_are_the_integrals(case, n, data):
    p, beta = case
    dim, pn = beta.dim, p ** n
    shape = tuple(data.draw(st.lists(st.integers(0, 2), min_size=dim + 1, max_size=dim + 1)))
    base = data.draw(st.sampled_from(list(residues(p, n, dim))))
    e, c = data.draw(st.sampled_from(MAPS))
    scale = data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(-3, 4)]))
    # a left-hand measure apart from beta, so each side meets its own atoms
    lhs_beta = beta + DiracCombo.make(dim, [(beta.atoms[0][0], Fraction(1, 3))])
    integrand = LinearFormIntegrand(shape, base, pn, scale=scale)
    left, right = change_of_variables(lhs_beta, beta, base, shape, p, n, e, c)
    image = [(tuple(e * x + c for x in pt), w) for pt, w in lhs_beta.atoms]
    assert integrand.factor * left == sum(
        (w * value(integrand, pt) for pt, w in scan_box(image, base, n, p)), Fraction(0))
    assert integrand.factor * right == \
        e ** sum(shape) * moved_integral(beta, base, shape, p, n, e, c, scale)
    left, right = change_of_variables(beta, beta, base, shape, p, n, e, c)
    assert left == right


@settings(max_examples=60, deadline=None)
@given(case=p_integral_combos(), n=st.integers(0, 2), data=st.data())
def test_four_term_sum_equals_the_four_integral_formula(case, n, data):
    p, beta = case
    shape = tuple(data.draw(st.lists(st.integers(0, 2), min_size=beta.dim + 1,
                                     max_size=beta.dim + 1)))
    base = data.draw(st.sampled_from(list(residues(p, n, beta.dim))))
    sign = (-1) ** sum(shape)
    t1, t2, t3, t4 = (moved_integral(beta, base, shape, p, n, e, c)
                      for e, c in ((1, 0), (-1, 0), (-1, 1), (1, 1)))
    assert four_term_sum(beta, base, shape, p, n) == t1 - sign * t2 + sign * t3 - t4


def test_tampered_sign_change_names_its_first_box():
    report = run_suite(RunConfig(p=3, suite="corrections", tamper=True))[0]
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == \
        [("change-of-variables:trial0", "sign shape=(0, 0, 0) base=(0, 0)")]


@pytest.mark.parametrize("boxes_first", [True, False])
def test_box_index_and_pushforward_images_keep_apart_in_the_memo(boxes_first):
    # boxes(p=2, level=1) and the image under x -> 2x + 1 are memoized side by side
    combo = DiracCombo.make(1, [((1,), 1), ((4,), Fraction(1, 2))])
    if boxes_first:
        index, image = combo.boxes(2, 1), combo.pushforward_affine(2, 1)
    else:
        image, index = combo.pushforward_affine(2, 1), combo.boxes(2, 1)
    assert index == {(1,): [((1,), 1)], (0,): [((4,), Fraction(1, 2))]}
    assert type(image) is DiracCombo and image.atoms == (((3,), 1), ((9,), Fraction(1, 2)))
    assert combo.boxes(2, 1) is index and combo.pushforward_affine(2, 1) is image


def test_non_p_integral_atom_raises_for_every_box():
    combo = DiracCombo.make(2, [((1, Fraction(1, 2)), 3)])
    assert combo.box_sum((0, 0), 0, LinearFormIntegrand((0, 0, 0), (0, 0), 1), 2) == 3
    for base in itertools.product(range(2), repeat=2):
        with pytest.raises(PIntegralityError):
            combo.box_sum(base, 1, LinearFormIntegrand((0, 0, 0), base, 2), 2)
