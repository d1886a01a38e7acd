import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpmeasures import octagon
from zpmeasures.classical import e1_row, m_row, make_E1, make_M, make_N2, n2_row
from zpmeasures.magnus import NcSeries, X, embed_E, word_log2
from zpmeasures.octagon import (FACTOR_ORDER, ONE, ZERO, SymPoly, a_sym, b_sym, build_factor,
                                build_factors, deg1_relations, degree2_displays,
                                degree2_symmetry_check, derive_factor_by_subst, g_sym,
                                octagon_product, reduce, reflection_map,
                                reflection_relations, residue_free_factors,
                                substitution_images, unit_series)
from zpmeasures.padic import PrimeContext
from zpmeasures.suites import RunConfig, octagon_suite

from levelref import values
from lieref import series_log
from octagonref import (amended_part, chi1_residuals_reference, degree2_display, eliminate,
                        generic_series_by_subst, half_system, shuffle_substitution,
                        standard_substitution, symbols)
from polyref import FracSymPoly, sympoly
from test_faults import shuffle_term_in_product

GRID = [(3, 1), (5, 1), (2, 2)]


def units(p, n):
    return [s for s in range(1, p ** n) if s % p]


def factors_at(p, n, s):
    return build_factors(s, residue_free_factors(p, n))


def product(p, n, s):
    return octagon_product(p, n, s, factors_at(p, n, s))


def row_polys(rows):
    """A report's residual rows as {(a, b): poly string}."""
    return {(row["a"], row["b"]): row["poly"] for row in rows}


def strings(residuals):
    """{(a, b): SymPoly} as {(a, b): str}; str of a normalized SymPoly is canonical."""
    return {k: str(r) for k, r in residuals.items()}


def in_lowest_terms(poly):
    """SymPoly's invariant: nonzero int numerators over an int den > 0, gcd 1."""
    nums = list(poly.terms.values())
    return (type(poly.den) is int and poly.den > 0 and gcd(poly.den, *nums) == 1
            and all(type(c) is int and c for c in nums))


def test_sympoly_arithmetic():
    t = SymPoly.t()
    a0 = SymPoly.symbol(("a", 0))
    q = (t + a0) * (t - a0)
    assert q == t * t - a0 * a0
    assert not (q - q)
    assert str(SymPoly.const(Fraction(-3, 2)) * t) == "-3/2*t"
    assert q.at_t0() == -(a0 * a0)


def test_sympoly_substitute_quadratic():
    a0, a1 = SymPoly.symbol(("a", 0)), SymPoly.symbol(("a", 1))
    q = a0 * a0 + a0 * a1
    out = reduce(q, {("a", 0): a1 + SymPoly.const(1)}, {})
    assert out == (a1 + 1) * (a1 + 1) + (a1 + 1) * a1


def test_factor_degenerations():
    at_t0 = {m: c.at_t0() for m, c in build_factor("B", 3, 1, 1).coeffs.items()}
    assert {m: c for m, c in at_t0.items() if c} == {(): SymPoly.const(1)}
    assert build_factor("J", 3, 1, 1).coeffs == {(): SymPoly.const(1)}
    A = build_factor("A", 3, 1, 2)
    assert A.coeff((1,)) == a_sym(1, 3)
    assert A.coeff((X, 2)) == g_sym(2, 3)
    assert A.coeff((2, X)) == -g_sym(2, 3)
    with pytest.raises(ValueError):
        build_factor("A", 3, 1, 3)
    with pytest.raises(ValueError):
        build_factor("Q", 3, 1, 1)


def test_product_constant_and_x_coefficient():
    for p, n in GRID:
        for s in units(p, n):
            prod = product(p, n, s)
            assert prod.coeff(()) == SymPoly.const(1)
            assert not prod.coeff((X,))


def test_product_with_everything_zero_is_one():
    prod = product(3, 1, 1)
    kill = {sym: ZERO for c in prod.coeffs.values() for sym in symbols(c)}
    vals = {m: reduce(c, kill, {}).at_t0() for m, c in prod.coeffs.items()}
    assert {m: c for m, c in vals.items() if c} == {(): SymPoly.const(1)}


def test_chi1_degree1_coefficients():
    prod = product(3, 1, 1)
    for i in range(3):
        got = prod.coeff((i,)).at_t0()
        want = a_sym(i, 3) - a_sym(-i, 3) + a_sym(1 - i, 3) - a_sym(i - 1, 3)
        assert got == want


def test_deg1_elimination_telescopes():
    rels = [r.at_t0() for r in deg1_relations(product(3, 1, 1))]
    subst = eliminate(rels)
    assert not reduce(a_sym(2, 3) - a_sym(1, 3), subst, {})
    assert len(subst) == 1
    rels2 = [r.at_t0() for r in deg1_relations(product(2, 1, 1))]
    assert len(eliminate(rels2)) <= 1


def test_relations_reduce_idempotent_and_vanish():
    for p, n, s in [(3, 1, 2), (2, 2, 3)]:
        mapping, images = reflection_map(p, n, s), {}
        for r in reflection_relations(p, n, s) + deg1_relations(product(p, n, s)):
            assert not reduce(r, mapping, images)
        q = a_sym(1, p ** n) * a_sym(2 % p ** n, p ** n) + SymPoly.t()
        once = reduce(q, mapping, images)
        assert reduce(once, mapping, images) == once


def test_inconsistent_relations_detected():
    with pytest.raises(ValueError, match=r"unresolvable relation: 1\*1"):
        eliminate([SymPoly.const(1)])


@pytest.mark.parametrize("p, n, s, mono, extra, pinpoint", [
    (3, 1, 1, (1,), SymPoly.const(1), "nonzero at [1]"),
    (3, 1, 2, (1,), SymPoly.t(), "nonzero at [1]"),
    (3, 1, 1, (0,), a_sym(0, 3) * (ONE + SymPoly.t()), "nonzero at [0]")])
def test_inconsistent_degree1_relations_fail_the_check(p, n, s, mono, extra, pinpoint):
    # a degree-1 coefficient that contradicts the reflection relations is a
    # failed identity, pinpointed by its Y index, not bad input; it joins no
    # relation, so the degree-2 residuals stay those of the clean product
    prod = product(p, n, s)
    _, _, _, clean = degree2_symmetry_check(s, prod)
    prod.add_term(mono, extra)
    _, deg1_miss, miss, rep = degree2_symmetry_check(s, prod)
    assert rep["passed"] is False and clean["passed"] is True
    assert deg1_miss == pinpoint and miss is None
    assert (rep["residuals"], rep["deg1_rank"]) == (clean["residuals"], clean["deg1_rank"])


def test_level_constants_vanish_at_chi_1():
    # at c = 1 (s = 1, t = 0) every E_{1,c}, M and N2 term of the degree-2
    # display is zero, so the s = 1 display at t = 0 is the chi = 1 display
    for p, n in GRID:
        width = p ** n
        assert e1_row(1, width, 0) == [0] * width and m_row(1, width, 0) == [0] * width
        for a in range(width):
            assert n2_row(a, 1, width, 0) == [0] * width


def test_chi1_residuals_are_the_reference_comparison():
    for p, n in GRID:
        prod = product(p, n, 1)
        _, _, _, rep = degree2_symmetry_check(1, prod)
        reference = chi1_residuals_reference(p, n, prod)
        assert row_polys(rep["chi1_residuals"]) == strings(reference), (p, n)


@pytest.mark.parametrize("additions", [
    # a degree-2 constant
    [((0, 0), SymPoly.const(1))],
    # a t-dependent term; only its constant survives at t = 0
    [((1, 2), SymPoly.t() * a_sym(1, 3) + SymPoly.const(Fraction(1, 2)))],
    # a degree-1 term, which joins no relation, and a g_0 term read at (0, 0)
    [((1,), b_sym(1, 2, 3) + g_sym(0, 3)), ((0, 0), g_sym(0, 3))],
])
def test_chi1_residuals_match_the_reference_on_perturbed_products(additions):
    prod = product(3, 1, 1)
    for mono, extra in additions:
        prod.add_term(mono, extra)
    _, _, miss, rep = degree2_symmetry_check(1, prod)
    reference = chi1_residuals_reference(3, 1, prod)
    assert row_polys(rep["chi1_residuals"]) == strings(reference)
    assert any(reference.values()) and miss is not None and not rep["passed"]


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1)])
def test_a_term_only_the_shuffle_relations_clear_fails_every_residue(p, n, monkeypatch):
    # b_{1,0} + b_{0,1} - a_0 a_1 vanishes under the shuffle relations, which
    # the check does not assume: every residue of the sweep fails at (0, 0),
    # and at s = 1 the chi = 1 rows are still the reference comparison
    shuffle_term_in_product(monkeypatch)
    rep = octagon_suite(RunConfig(p=p, n_max=n, suite="octagon"))
    lines = {c.name: c for c in rep.checks if c.name.startswith("degree2-residuals")}
    assert list(lines) == [f"degree2-residuals:s={s}" for s in units(p, n)]
    assert {(c.passed, c.detail) for c in lines.values()} == {(False, "nonzero at [(0, 0)]")}
    assert all(a["extra_relations_used"] == [] and not a["passed"] for a in rep.artifacts)
    prod = octagon.octagon_product(p, n, 1, factors_at(p, n, 1))
    reference = chi1_residuals_reference(p, n, prod)
    assert row_polys(rep.artifacts[0]["chi1_residuals"]) == strings(reference)
    assert [k for k, r in reference.items() if r] == [(0, 0)]


def test_chi1_residuals_precede_the_shuffle_retry():
    # b_{1,0} + b_{0,1} - a_0 a_1 vanishes only under the shuffle relations;
    # no shuffle retry follows the standard reduction, so the residuals fail
    # first, and the chi = 1 rows are their t = 0 image, the reference
    prod = product(3, 1, 1)
    prod.add_term((0, 0), b_sym(1, 0, 3) + b_sym(0, 1, 3) - a_sym(0, 3) * a_sym(1, 3))
    _, _, miss, rep = degree2_symmetry_check(1, prod)
    reference = chi1_residuals_reference(3, 1, prod)
    assert rep["extra_relations_used"] == []
    assert [row["poly"] != "0" for row in rep["residuals"]].count(True) == 1
    assert row_polys(rep["chi1_residuals"]) == strings(reference)
    assert [k for k, r in reference.items() if r] == [(0, 0)]
    assert miss == "nonzero at [(0, 0)]"
    assert rep["passed"] is False


def test_reflection_relations_structure():
    rels = reflection_relations(3, 1, 2)
    assert not rels[0]  # the x = 0 relation collapses
    # x = 1 at s = 2: <2^{-1} * 1> = 2, so the inhomogeneous part is
    # 1/3 - (2+3t)*2/3 + (1+3t)/2 = -1/2 - t/2
    want = a_sym(1, 3) - a_sym(2, 3) + SymPoly.const(Fraction(1, 2)) \
        + SymPoly.t() * Fraction(1, 2)
    assert rels[1] == want
    # at s=1, t=0 the relations say a_x = a_{-x}
    rels1 = [r.at_t0() for r in reflection_relations(3, 1, 1)]
    assert not reduce(a_sym(1, 3) - a_sym(2, 3), eliminate(rels1, prefer=half_system(3)), {})


def test_deg1_implied_by_reflection_grid():
    for p, n in GRID:
        for s in units(p, n):
            _, deg1_miss, _, _ = degree2_symmetry_check(s, product(p, n, s))
            assert deg1_miss is None, (p, n, s)


def test_degree2_symmetry_grid():
    for p, n in GRID:
        for s in units(p, n):
            x_miss, _, miss, rep = degree2_symmetry_check(s, product(p, n, s))
            assert x_miss is None and miss is None, (p, n, s)
            assert rep["x_coeff_zero"]
            assert set(row_polys(rep["residuals"]).values()) == {"0"}
            assert len(rep["residuals"]) == p ** (2 * n)
            assert rep["extra_relations_used"] == []
            if s == 1:
                assert set(row_polys(rep["chi1_residuals"]).values()) == {"0"}
            else:
                assert "chi1_residuals" not in rep
            assert rep["passed"]


def test_report_serialization():
    _, _, _, d = degree2_symmetry_check(1, product(3, 1, 1))
    assert list(d) == ["config", "x_coeff_zero", "deg1_rank", "residuals",
                       "extra_relations_used", "passed", "chi1_residuals"]
    assert d["config"] == {"p": 3, "n": 1, "s": 1}
    assert d["x_coeff_zero"] is True
    assert all(row["poly"] == "0" for row in d["residuals"])


def test_symbolic_shuffle_symmetrization():
    # beta_{a,b} + beta_{b,a} reduces to a_a a_b under the shuffle rewrite
    width = 3
    sub = shuffle_substitution(width)
    for a, b in itertools.product(range(width), repeat=2):
        q = reduce(b_sym(a, b, width) + b_sym(b, a, width), sub, {})
        assert q == a_sym(a, width) * a_sym(b, width)


def test_factor_derivation_grid():
    for p, n in GRID:
        for s in units(p, n):
            factors = factors_at(p, n, s)
            for name in "CEG":
                diff = derive_factor_by_subst(name, s, factors["A"], factors[name])
                assert not diff, (p, n, s, name, diff)
    A = build_factor("A", 3, 1, 1)
    with pytest.raises(ValueError):
        derive_factor_by_subst("A", 1, A, A)


@pytest.mark.parametrize("p, n, s", [(p, n, s) for p, n in GRID for s in units(p, n)]
                         + [(3, 3, 1), (3, 3, 2)])
def test_substituted_A_is_the_hand_expanded_series(p, n, s):
    A = build_factor("A", p, n, s)
    for name in "CEG":
        logs = {gen: word_log2(word) for gen, word in substitution_images(name, p, n, s).items()}
        assert A.substitute(logs).coeffs == generic_series_by_subst(name, p, n, s).coeffs


def test_derivation_fails_on_a_perturbed_display():
    factors = factors_at(3, 1, 2)
    factors["C"].add_term((1, 0), SymPoly.const(1))
    diff = derive_factor_by_subst("C", 2, factors["A"], factors["C"])
    assert strings(diff) == {(1, 0): "1*1"}


def test_derivation_fails_on_a_perturbed_g_term_of_A():
    factors = factors_at(3, 1, 2)
    factors["A"].add_term((X, 1), SymPoly.const(1))  # g_1 + 1 at X Y_1
    diffs = [derive_factor_by_subst(name, 2, factors["A"], factors[name]) for name in "CEG"]
    assert any(diffs)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (2, 2), (3, 2)])
def test_closed_form_log2_on_substitution_images(p, n):
    for s in units(p, n):
        for name in "CEG":
            for word in substitution_images(name, p, n, s).values():
                assert word_log2(word).coeffs == series_log(embed_E(word, 2)).coeffs


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (3, 2)])
def test_symbolic_measures_are_the_tabulated_ones(p, n):
    """E_{1,chi}, M(chi) and N2(chi) with chi = s + p^n t, specialized at t,
    are the level-n tables of make_E1, make_M and make_N2 at c = chi."""
    width, t = p ** n, SymPoly.t()
    ctx = PrimeContext(p, n)
    for s in units(p, n):
        for tv in (-1, 0, 2):
            c = s + width * tv
            E, M, N = (values(make(c, ctx))[n] for make in (make_E1, make_M, make_N2))
            e1, m = octagon.e1_sympoly(p, n, s), m_row(s, width, t)
            for x in range(width):
                assert FracSymPoly.of(e1[x]).subs_t(tv) == E[(x,)]
                assert FracSymPoly.of(ZERO + m[x]).subs_t(tv) == M[(x,)]
            for a in range(width):
                row = n2_row(a, s, width, t)
                for b in range(width):
                    assert FracSymPoly.of(ZERO + row[b]).subs_t(tv) == N[(a, b)]


# Small random SymPolys, and width-2 series over both coefficient rings:
# SymPoly truncated past degree 2 (the octagon's) and Fraction truncated past
# degree 3.  Input monomials one longer than the degree check that the
# product drops them as the all-pairs product does.
SYMBOLS = [(), (("a", 0),), (("a", 1),), (("a", 0), ("g", 1)), (("b", 0, 1),)]
poly_keys = st.tuples(st.integers(0, 2), st.sampled_from(SYMBOLS))
polys = st.dictionaries(poly_keys, st.fractions(-3, 3, max_denominator=4),
                        max_size=4).map(sympoly)


def series(coeffs, degree):
    monos = st.lists(st.sampled_from([X, 0, 1]), max_size=degree + 1).map(tuple)
    return st.dictionaries(monos, coeffs, max_size=6).map(
        lambda c: NcSeries(2, 1, degree, {m: v for m, v in c.items() if v}))


sym_series = series(polys, 2)
rat_series = series(st.fractions(-3, 3, max_denominator=4), 3)


def all_pairs_product(left, right):
    out = {}
    for m1, c1 in left.coeffs.items():
        for m2, c2 in right.coeffs.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c and len(m) <= left.degree}


@settings(max_examples=60, deadline=None)
@given(sym_series, sym_series, rat_series, rat_series)
def test_graded_product_matches_all_pairs(sym_left, sym_right, rat_left, rat_right):
    for left, right, one in ((sym_left, sym_right, ONE), (rat_left, rat_right, Fraction(1))):
        unit = NcSeries(left.p, left.level, left.degree, {(): one})
        # in (1 + f)(1 - f) the cross terms f and -f cancel, which the
        # product must prune as the all-pairs product does
        for a, b in ((left, right), (unit + left, unit + left.scaled(-1))):
            assert (a * b).coeffs == all_pairs_product(a, b)


def image_maps(coeffs, degree):
    """A constant-free image of degree <= `degree` for each of X, Y0, Y1."""
    monos = st.lists(st.sampled_from([X, 0, 1]), min_size=1, max_size=degree).map(tuple)
    image = st.dictionaries(monos, coeffs, max_size=5).map(
        lambda c: NcSeries(2, 1, degree, {m: v for m, v in c.items() if v}))
    return st.fixed_dictionaries({g: image for g in (X, 0, 1)})


def substitute_reference(f, images):
    """Each monomial's letters replaced by their whole, uncut images."""
    out = NcSeries(f.p, f.level, f.degree, {})
    for mono, c in f.coeffs.items():
        term = NcSeries(f.p, f.level, f.degree, {(): c})
        for g in mono:
            term = term * images[g]
        out = out + term
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_matches_whole_image_products(data):
    rings = [polys, st.fractions(-3, 3, max_denominator=4)]
    degree = data.draw(st.sampled_from([2, 3]), label="degree")
    coeffs = data.draw(st.sampled_from(rings), label="series ring")
    f, g = data.draw(series(coeffs, degree)), data.draw(series(coeffs, degree))
    images = data.draw(image_maps(data.draw(st.sampled_from(rings), label="image ring"), degree))
    image = f.substitute(images)
    assert image.degree == degree
    assert image.coeffs == substitute_reference(f, images).coeffs
    assert (f * g).substitute(images).coeffs == (image * g.substitute(images)).coeffs


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_sympoly_terms_stay_nonzero_fractions(f, g):
    # scalars scale the coefficients directly; a partial substitution keeps
    # the unmapped symbols in the key
    scalars = [(f * 0, 0), (0 * f, 0), (f * Fraction(-3, 2), Fraction(-3, 2)),
               (Fraction(1, 2) * f, Fraction(1, 2))]
    partial = {("a", 0): g, ("g", 1): ZERO}
    subst = reduce(f * g, partial, {})
    results = [f + g, f - g, f * g, -f, f + 1, 3 * g, f - f, f.at_t0(), subst]
    for r in results + [r for r, _ in scalars]:
        assert in_lowest_terms(r)
    for r, c in scalars:
        assert r == f * SymPoly.const(c)
    assert f * 0 is not octagon.ZERO and not (f * 0)
    identity = {sym: SymPoly.symbol(sym) for sym in symbols(f * g)}
    assert subst == reduce(f * g, {**identity, **partial}, {})
    assert not (f - f)
    assert (f * g).at_t0() == f.at_t0() * g.at_t0()
    assert (f + g).at_t0() == f.at_t0() + g.at_t0()


# The same operations on SymPoly (integer numerators over one denominator)
# and on the reference with one Fraction per coefficient, over denominators
# up to 8.
rat8 = st.fractions(-3, 3, max_denominator=8)
polys8 = st.dictionaries(poly_keys, rat8, max_size=4).map(sympoly)


def assert_agree(got, want):
    assert str(got) == str(want)
    assert FracSymPoly.of(got) == want
    assert in_lowest_terms(got)


def test_halves_that_sum_to_an_integer():
    half = SymPoly.const(Fraction(1, 2)) * SymPoly.t()
    assert (half + half).den == 1 and half + half == SymPoly.t()
    assert (half - half).den == 1 and not (half - half)


@settings(max_examples=150, deadline=None)
@given(polys8, polys8, rat8)
def test_sympoly_matches_the_fraction_reference(f, g, c):
    rf, rg = FracSymPoly.of(f), FracSymPoly.of(g)
    half_f, half_g = f * Fraction(1, 2), Fraction(1, 2) * g
    pairs = [(f + g, rf + rg), (f - g, rf - rg), (f * g, rf * rg), (-f, -rf),
             (f * 3, rf * 3), (-2 * g, rg * -2), (f * c, rf * c), (c * g, rg * c),
             (f * 0, rf * 0), (f - f, rf - rf), (f * g - g * f, rf - rf),
             (half_f + half_f, rf), (half_f - half_g + half_f + half_g, rf),
             (f.at_t0(), rf.subs_t(0)),
             (reduce(f, {("a", 0): g, ("g", 1): f * c}, {}),
              rf.substitute({("a", 0): rg, ("g", 1): rf * c}))]
    for got, want in pairs:
        assert_agree(got, want)
    assert (f == g) == (rf == rg)
    assert f == sympoly(rf.terms) and in_lowest_terms(sympoly(rf.terms))


def test_octagon_suite_builds_one_product_per_residue(monkeypatch):
    calls = []
    real = octagon.octagon_product

    def counting(p, n, s, *factors):
        calls.append((p, n, s))
        return real(p, n, s, *factors)

    monkeypatch.setattr(octagon, "octagon_product", counting)
    assert octagon_suite(RunConfig(p=5, n_max=1, suite="octagon")).passed
    assert calls == [(5, 1, s) for s in units(5, 1)]


def test_octagon_suite_builds_residue_free_work_once_per_sweep(monkeypatch):
    built, derived = [], []
    real_build, real_derive = octagon.build_factor, octagon.derive_factor_by_subst

    def counting_build(name, p, n, s):
        built.append(name)
        return real_build(name, p, n, s)

    def counting_derive(name, s, *series):
        derived.append(name)
        return real_derive(name, s, *series)

    monkeypatch.setattr(octagon, "build_factor", counting_build)
    monkeypatch.setattr(octagon, "derive_factor_by_subst", counting_derive)
    assert octagon_suite(RunConfig(p=5, n_max=1, suite="octagon")).passed
    residues = len(units(5, 1))
    assert sorted(built) == sorted(list("ACD") + list("BEFGHJ") * residues)
    assert sorted(derived) == sorted(["C"] + list("EG") * residues)


def test_a_fault_in_the_shared_c_reaches_every_residue(monkeypatch):
    real = octagon.build_factor

    def faulty(name, p, n, s):
        out = real(name, p, n, s)
        if name == "C":
            out.add_term((0, 0), SymPoly.const(1))
        return out

    monkeypatch.setattr(octagon, "build_factor", faulty)
    rep = octagon_suite(RunConfig(p=5, n_max=1, suite="octagon"))
    checks = {c.name: c for c in rep.checks}
    details = set()
    for s in units(5, 1):
        derivation = checks[f"substitution-derivation:C:s={s}"]
        assert not derivation.passed
        details.add(derivation.detail)
        assert not checks[f"degree2-residuals:s={s}"].passed
    assert details == {"[((0, 0), '1*1')]"}


def test_octagon_series_have_sympoly_coefficients():
    factors = factors_at(3, 1, 2)
    prod = octagon_product(3, 1, 2, factors)
    assert list(factors) == list(FACTOR_ORDER)
    for s in list(factors.values()) + [prod]:
        assert s.degree == 2 and s.coeff(()) == ONE
        assert all(type(c) is SymPoly and c for c in s.coeffs.values())


def test_checks_read_the_product_they_are_given():
    prod = product(3, 1, 1)
    x_miss, deg1_miss, miss, rep = degree2_symmetry_check(1, prod)
    assert rep["passed"] and x_miss is None and deg1_miss is None and miss is None
    bad = product(3, 1, 1)
    bad.add_term((0, 0), SymPoly.const(1))
    _, deg1_miss, miss, rep = degree2_symmetry_check(1, bad)
    assert not rep["passed"]
    assert miss == "nonzero at [(0, 0)]"
    assert [k for k, r in row_polys(rep["residuals"]).items() if r != "0"] == [(0, 0)]
    assert deg1_miss is None
    bad.add_term((1,), SymPoly.const(1))
    _, deg1_miss, miss, rep = degree2_symmetry_check(1, bad)
    assert deg1_miss == "nonzero at [1]"
    # the degree-1 fault joins no relation: the degree-2 verdict is unchanged
    assert miss == "nonzero at [(0, 0)]" and not rep["passed"]


def test_the_x_coefficient_is_decided_once_by_the_check():
    # the X coefficient fails its own miss, and the artifact reads that miss
    bad = product(3, 1, 1)
    bad.add_term((X,), SymPoly.t() + 2)
    x_miss, deg1_miss, miss, rep = degree2_symmetry_check(1, bad)
    assert x_miss == "X coefficient 2*1 + 1*t"
    assert deg1_miss is None and miss is None
    assert rep["x_coeff_zero"] is False and rep["passed"] is False


def test_a_sweep_solves_one_relation_set_per_residue(monkeypatch):
    # the degree-1 and degree-2 checks reduce by the one reflection map of their residue
    calls = []
    real = octagon.reflection_map
    monkeypatch.setattr(octagon, "reflection_map", lambda *args: calls.append(args) or real(*args))
    rep = octagon_suite(RunConfig(p=3, n_max=2, suite="octagon"))
    assert rep.passed
    assert calls == [(3, 2, s) for s in units(3, 2)]


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                                  for n in range(1, 5) if p ** n <= 27] + [(7, 2)])
def test_reflection_map_is_the_reference_elimination(p, n):
    # the closed form is the substitution a general elimination of the
    # reflection and degree-1 relations solves; past degree 1 the product
    # needs only its factors' degree-1 parts (each factor starts with 1)
    free = {name: build_factor(name, p, n, 1) for name in "ACD"}
    for s in units(p, n)[:6 if p ** n > 27 else None]:
        prod = unit_series(p, n).truncated(1)
        for name in "JHGFEDCBA":
            factor = free[name] if name in free else build_factor(name, p, n, s)
            prod = prod * factor.truncated(1)
        assert reflection_map(p, n, s) == standard_substitution(p, n, s, prod), (p, n, s)


def test_shuffle_retry_reads_the_extended_substitution():
    # the same term at s = 2, which a shuffle retry would clear: the check
    # reads the standard substitution alone, with no retry, and fails
    prod = product(3, 1, 2)
    prod.add_term((0, 0), b_sym(1, 0, 3) + b_sym(0, 1, 3) - a_sym(0, 3) * a_sym(1, 3))
    _, _, miss, rep = degree2_symmetry_check(2, prod)
    assert rep["extra_relations_used"] == []
    assert miss == "nonzero at [(0, 0)]" and not rep["passed"]


def test_octagon_tamper_fails_inside_the_real_check():
    rep = octagon_suite(RunConfig(p=3, n_max=1, sigma_rep=1, suite="octagon",
                                  tamper=True))
    failed = [c for c in rep.checks if not c.passed]
    assert [c.name for c in failed] == ["degree2-residuals:s=1"]
    assert failed[0].detail == "nonzero at [(0, 0)]"
    assert rep.artifacts[0]["passed"] is False


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (7, 1)])
def test_all_points_display_matches_the_point_formula(p, n):
    width = p ** n
    for s in units(p, n):
        displays = degree2_displays(s, unit_series(p, n))
        assert list(displays) == list(itertools.product(range(width), repeat=2))
        for (a, b), display in displays.items():
            assert display == degree2_display(a, b, p, n, s), (p, n, s, a, b)


@pytest.mark.parametrize("p, n, s", [(3, 1, 2), (5, 1, 2), (2, 2, 3), (7, 1, 3)])
def test_the_display_as_the_paper_prints_it_fails_at_every_point(p, n, s):
    # README, "Where the checked identity departs from the paper": without
    # the (a_{a-s} - E_{1,chi}(a)) M(chi)(b) part, the residual reduces to
    # that part negated, and the part survives the reflection relations at
    # every point
    prod, mapping, images = product(p, n, s), reflection_map(p, n, s), {}
    for a, b in itertools.product(range(p ** n), repeat=2):
        printed = degree2_display(a, b, p, n, s, amended=False) - prod.coeff((a, b))
        residual = reduce(printed, mapping, images)
        assert residual == reduce(ZERO - amended_part(a, b, p, n, s), mapping, images)
        assert residual, (a, b)


# Random SymPolys over the symbols of the reflection and degree-1 relations
# at (3, 2, 2), up to three symbols and t^2 per monomial.  Each map keeps its
# image memo across examples, so later examples also read images memoized by
# earlier ones.
RELATIONS = reflection_relations(3, 2, 2) + deg1_relations(product(3, 2, 2))
REDUCE_MAP = reflection_map(3, 2, 2)
# SHUFFLED_MAP: the reflection map, with the reduced shuffle images joining it
SHUFFLED_MAP = {**REDUCE_MAP, **{sym: reduce(val, REDUCE_MAP, {})
                                 for sym, val in shuffle_substitution(9).items()}}
# per map: the map, its image memo and its Fraction reference
MAPS = [(mapping, {}, {sym: FracSymPoly.of(img) for sym, img in mapping.items()})
        for mapping in (REDUCE_MAP, SHUFFLED_MAP)]
SET_SYMBOLS = sorted({sym for rel in RELATIONS for sym in symbols(rel)}
                     | set(shuffle_substitution(9)) | {("g", 4), ("b", 2, 7)})
set_keys = st.tuples(
    st.integers(0, 2),
    st.lists(st.sampled_from(SET_SYMBOLS), max_size=3).map(lambda s: tuple(sorted(s))))
set_polys = st.dictionaries(set_keys, st.fractions(-3, 3, max_denominator=4),
                            max_size=6).map(sympoly)


@settings(max_examples=150, deadline=None)
@given(set_polys)
def test_memoized_reduce_is_the_substitution(poly):
    for mapping, images, ref_substitution in MAPS:
        got = reduce(poly, mapping, images)
        assert got == reduce(poly, mapping, {})
        assert FracSymPoly.of(got) == FracSymPoly.of(poly).substitute(ref_substitution)
        assert in_lowest_terms(got)


set_polys8 = st.dictionaries(set_keys, rat8, max_size=6).map(sympoly)
# a relation with a denominator: its multiples reduce to zero through the lcm
FRACTIONAL_RELATION = next(rel for rel in RELATIONS if rel.den > 1)


@settings(max_examples=100, deadline=None)
@given(set_polys8)
def test_reduce_matches_the_fraction_reference(poly):
    for mapping, images, ref_substitution in MAPS:
        assert_agree(reduce(poly, mapping, images),
                     FracSymPoly.of(poly).substitute(ref_substitution))
        assert_agree(reduce(poly * FRACTIONAL_RELATION, mapping, images), FracSymPoly())
