import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpmeasures.classical import make_dirac
from zpmeasures import cli, magnus
from zpmeasures.magnus import (FreeWord, NcSeries, WordSyntaxError, X,
                               beta_measures, commutator,
                               embed_E, kernel_check,
                               log_lie_check, parse_word, project_word,
                               shuffle_check, shuffle_words,
                               word_coefficient_congruence, word_log2,
                               word_tower)
from zpmeasures.measures import LevelFamily, star_convolution, validate_distribution
from zpmeasures.padic import PrimeContext, vp
from zpmeasures.suites import RunConfig, magnus_suite

import lieref
from seriesref import (exp_gen, exp_transform_roundtrip, project_series,
                       reference_embedding)

CTX2 = PrimeContext(2, 2)


def random_kernel_word(p, level, rng, length=6):
    gens = [X] + list(range(p ** level))
    letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]
    bal = sum(e for g, e in letters if g == X)
    letters += [(X, -1 if bal > 0 else 1)] * abs(bal)
    w = FreeWord(p, level, tuple(letters))
    return w if w.letters else FreeWord(p, level, ((0, 1), (1, 1)))


def test_word_parsing():
    w = parse_word("[y0,y1]", 3, 1)
    assert w.letters == ((0, 1), (1, 1), (0, -1), (1, -1))
    w = parse_word("y0^3 x y1 x^-1", 3, 1)
    assert w.letters == ((0, 3), (X, 1), (1, 1), (X, -1))
    assert parse_word("x^2 x^-5 [y0,y1]^-2", 3, 1).letters == \
        ((X, -3),) + ((1, 1), (0, 1), (1, -1), (0, -1)) * 2
    assert parse_word("y0 * y1", 3, 1).letters == ((0, 1), (1, 1))
    with pytest.raises(WordSyntaxError):
        parse_word("w0", 3, 1)
    with pytest.raises(ValueError):
        parse_word("y7", 3, 1)


def test_free_reduction_and_kernel():
    w = parse_word("x y0 y0^-1 x^-1 y1", 3, 1)
    assert w.letters == ((1, 1),)
    assert w == parse_word("y1", 3, 1)
    for identity in ("x^0", "x^-0", "y0 y0^-1", "[x,x]", "x^3 x^-3"):
        assert parse_word(identity, 3, 1).letters == ()
    for empty in ("", "*", "[,]", "[*,]^2"):
        with pytest.raises(WordSyntaxError, match="empty word"):
            parse_word(empty, 3, 1)
    for bad in (Fraction(1), 1.0, "1"):
        with pytest.raises(ValueError, match="integers"):
            FreeWord(3, 1, ((0, bad),))
    assert kernel_check(parse_word("[x,y0]", 3, 1))
    assert not kernel_check(parse_word("x", 3, 1))
    assert kernel_check(parse_word("y0^3 x y1 x^-1", 3, 1))


def test_embedding_single_generator():
    E = embed_E(parse_word("y0", 3, 1), 3)
    assert E.coeff(()) == 1
    assert E.coeff((0,)) == 1
    assert E.coeff((0, 0)) == Fraction(1, 2)
    assert E.coeff((0, 0, 0)) == Fraction(1, 6)
    assert embed_E(parse_word("y0 y0^-1", 3, 1), 3).coeffs == {(): Fraction(1)}


def test_embedding_commutator():
    E = embed_E(parse_word("[y0,y1]", 3, 1), 3)
    assert E.coeff((0,)) == 0 and E.coeff((1,)) == 0
    assert E.coeff((0, 1)) == 1 and E.coeff((1, 0)) == -1


def test_embedding_is_multiplicative():
    rng = random.Random(11)
    for _ in range(3):
        a = random_kernel_word(3, 1, rng)
        b = random_kernel_word(3, 1, rng)
        assert (embed_E(a, 3) * embed_E(b, 3)).coeffs == embed_E(a * b, 3).coeffs


def test_kernel_word_x_coefficient_antisymmetry():
    rng = random.Random(4)
    for _ in range(4):
        g = random_kernel_word(3, 1, rng)
        E = embed_E(g, 2)
        assert E.coeff((X,)) == 0
        for i in range(3):
            assert E.coeff((X, i)) + E.coeff((i, X)) == 0


def test_log_and_lie_criterion():
    assert lieref.series_log(embed_E(parse_word("y0", 3, 1), 3)).coeff((0,)) == 1
    assert log_lie_check(embed_E(parse_word("y0", 3, 1), 3))
    assert log_lie_check(embed_E(parse_word("[y0,y1]", 3, 1), 3))
    bad = NcSeries(3, 1, 3, {(): Fraction(1), (0, 1): Fraction(1)})
    assert not log_lie_check(bad)


def test_shuffle_relations():
    s = embed_E(parse_word("y0", 3, 1), 3)
    assert shuffle_check(s, (0,), (0,))
    s2 = embed_E(parse_word("[y0,y1] y0 y1", 3, 1), 3)
    assert shuffle_check(s2, (0,), (1,))
    bad = NcSeries(3, 1, 3, {(): Fraction(1), (0, 1): Fraction(1)})
    assert not shuffle_check(bad, (0,), (1,))
    assert sum(shuffle_words((0,), (0, 1)).values()) == 3


def test_gamma_of_x_y_commutator():
    E = embed_E(parse_word("[x,y0]", 3, 1), 3)
    assert E.coeff((X, 0)) == 1
    assert E.coeff((0, X)) == -1


def test_projection_on_words():
    assert project_word(FreeWord(2, 2, ((0, 1),)), 1).letters == ((0, 1),)
    x1 = FreeWord(3, 1, ((X, 1),))
    assert project_word(x1, 0).letters == ((X, 3),)
    y3 = FreeWord(2, 2, ((3, 1),))
    assert project_word(y3, 1).letters == ((X, -1), (1, 1), (X, 1))
    # the projection is the word spelled at level 1: equal, and it multiplies and adds
    down, spelled = project_word(y3, 1), FreeWord(2, 1, ((X, -1), (1, 1), (X, 1)))
    assert down == spelled and hash(down) == hash(spelled)
    assert down * spelled == FreeWord(2, 1, ((X, -1), (1, 2), (X, 1)))
    assert (embed_E(down, 2) + embed_E(spelled, 2)).coeffs == embed_E(spelled, 2).scaled(2).coeffs


def test_projection_commutes_with_embedding():
    w = FreeWord(2, 2, ((2, 1),)) * commutator(
        FreeWord(2, 2, ((X, 1),)), FreeWord(2, 2, ((1, 1),)))
    rng = random.Random(17)
    words = [w] + [random_kernel_word(2, 2, rng, length=4) for _ in range(2)]
    for word in words:
        for n in (0, 1):
            assert project_series(embed_E(word, 3), n).coeffs == \
                embed_E(project_word(word, n), 3).coeffs


def tower(g, degree):
    return word_tower(g, [degree] * (g.level + 1))


def test_beta_measures_dirac_case():
    g = FreeWord(2, 2, ((0, 1),))
    assert beta_measures(g, 1, tower(g, 1)).tables == make_dirac([0], CTX2).tables
    b0 = beta_measures(g, 0, tower(g, 1))
    assert b0.dim == 0 and b0.tables == ({(): 1},) * 3 and b0.denom_bound == 0
    with pytest.raises(ValueError):
        beta_measures(FreeWord(2, 2, ((X, 1),)), 1, ())
    with pytest.raises(ValueError):  # a tower too shallow for r = 2
        beta_measures(g, 2, tower(g, 1))


def test_beta_measures_distribution_and_denominators():
    rng = random.Random(21)
    for _ in range(4):
        g = random_kernel_word(2, 2, rng)
        for r in (1, 2, 3):
            br = beta_measures(g, r, tower(g, 3))
            assert validate_distribution(br) is None
            assert br.denom_bound <= vp(math.factorial(r), 2)


def test_graded_star_identity():
    def graded(g):  # (beta_0, beta_1, beta_2) of the word
        return tuple(beta_measures(g, r, tower(g, 2)) for r in range(3))

    rng = random.Random(31)
    for _ in range(3):
        g = random_kernel_word(2, 2, rng)
        h = random_kernel_word(2, 2, rng)
        S = star_convolution(graded(g), graded(h))
        C = graded(g * h)
        assert len(S) == len(C) == 3
        for i in range(3):
            assert S[i].tables == C[i].tables


def test_permutation_sum_gives_products():
    rng = random.Random(41)
    g = random_kernel_word(2, 2, rng)
    b1 = beta_measures(g, 1, tower(g, 2))
    b2 = beta_measures(g, 2, tower(g, 2))
    for n in range(3):
        for a in itertools.product(range(2 ** n), repeat=2):
            lhs = b2.tables[n][a] + b2.tables[n][(a[1], a[0])]
            assert lhs == b1.tables[n][(a[0],)] * b1.tables[n][(a[1],)]


def test_word_coefficient_congruence():
    g = commutator(FreeWord(3, 3, ((X, 1),)), FreeWord(3, 3, ((0, 1),)))
    t = tower(g, 2)
    b1 = beta_measures(g, 1, t)
    achieved, guaranteed = word_coefficient_congruence((1, 0), (0,), 2, t[1], b1)
    assert achieved >= guaranteed
    # all-zero X-blocks: the identity is definitional
    achieved0, guaranteed0 = word_coefficient_congruence((0, 0), (1,), 2, t[1], b1)
    assert achieved0 >= guaranteed0
    # larger m tightens the guaranteed congruence
    _, g1 = word_coefficient_congruence((1, 0), (0,), 1, t[1], b1)
    _, g2 = word_coefficient_congruence((1, 0), (0,), 2, t[1], b1)
    assert g2 > g1
    with pytest.raises(ValueError):  # degree 2 cannot hold X^2 Y_0
        word_coefficient_congruence((2, 0), (0,), 2, t[1], b1)


def test_congruence_failure_carries_level_and_exponents():
    g = commutator(FreeWord(3, 3, ((X, 1),)), FreeWord(3, 3, ((0, 1),)))
    t = tower(g, 2)
    b1 = beta_measures(g, 1, t)
    coefficient = t[1].coeff((X, 0))
    bad = t[1].truncated(2)
    bad.add_term((X, 0), Fraction(1, 3))
    achieved, guaranteed = word_coefficient_congruence((1, 0), (0,), 2, bad, b1)
    good = word_coefficient_congruence((1, 0), (0,), 2, t[1], b1)
    assert good[0] >= good[1]
    # the 1/3 added to the coefficient is the miss: valuation -1
    assert achieved == -1 < guaranteed == good[1]
    assert t[1].coeff((X, 0)) == coefficient  # the tower stayed as it was


def test_congruence_failure_detail_in_suite(monkeypatch):
    real = magnus.word_coefficient_congruence

    def perturbed(ns, idx, m, series, beta_r):
        bad = series.truncated(series.degree)
        bad.add_term((X,) * ns[0] + (idx[0],) + (X,) * ns[1], Fraction(1, 3))
        return real(ns, idx, m, bad, beta_r)

    monkeypatch.setattr(magnus, "word_coefficient_congruence", perturbed)
    rep = magnus_suite(RunConfig(p=3, n_max=2, seed=1))
    check = [c for c in rep.checks if c.name == "coefficient-congruence"][0]
    assert not check.passed
    # the first failure is the one reported
    assert check.detail == "shape=(0, 0) i=0 level=2 guaranteed=1 achieved=-1"


def test_beta_distribution_failure_names_level_point_valuation(monkeypatch):
    real, words = magnus.beta_measures, []

    def perturbed(g, r, tower):  # word 0's beta_2 off by p^2 at one level-1 point
        beta = real(g, r, tower)
        words.append(g)
        if (g, r) != (words[0], 2):
            return beta
        tables = list(beta.tables)
        tables[1] = dict(tables[1])
        tables[1][(1, 2)] += 9
        return LevelFamily(beta.p, 2, tuple(tables), beta.denom_bound)

    monkeypatch.setattr(magnus, "beta_measures", perturbed)
    rep = magnus_suite(RunConfig(p=3, n_max=2, seed=1))
    failed = [c for c in rep.checks if c.name.startswith("beta-distribution:") and not c.passed]
    # the level-0 total misses the lifts' sum by -9; level 1 is not reached
    assert [(c.name, c.detail) for c in failed] == \
        [("beta-distribution:word0:r=2", "level=0 point=(0, 0) valuation=2")]


def test_exp_transform_roundtrip():
    g = commutator(FreeWord(2, 2, ((0, 1),)), FreeWord(2, 2, ((1, 1),)))
    _, _, ok = exp_transform_roundtrip(g, 2, 3)
    assert all(ok.values())
    g2 = FreeWord(2, 2, ((0, 1), (1, 1)))
    _, _, ok = exp_transform_roundtrip(g2, 1, 4)
    assert all(ok.values())
    _, _, ok = exp_transform_roundtrip(FreeWord(2, 2, ((0, 1),)), 1, 3)
    assert all(ok.values())


def test_series_json_shape(capsys):
    assert cli.main(["emit", "nc-series", "--word", "[y0,y1]", "--p", "3",
                     "--n", "1", "--degree", "2"]) == cli.EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"level", "degree", "terms"}
    assert d["terms"][0] == {"mono": "1", "value": "1"}
    monos = {row["mono"] for row in d["terms"]}
    assert "1" in monos and "Y0.Y1" in monos


@pytest.mark.parametrize("other", [NcSeries.one(2, 2, 2), NcSeries.one(2, 1, 3),
                                   NcSeries.one(3, 1, 2)], ids=["level", "degree", "prime"])
def test_series_of_different_shapes_do_not_combine(other):
    # a check that `python -O` keeps: with the shapes unchecked, the level-1
    # and level-2 unit series add to a constant term of 2
    one = NcSeries.one(2, 1, 2)
    for combine in (one.__add__, one.__mul__):
        with pytest.raises(ValueError, match="series differ in prime, level or degree"):
            combine(other)


@pytest.mark.parametrize("image", [
    NcSeries(2, 2, 2, {(3,): Fraction(1)}), NcSeries(2, 1, 1, {(1,): Fraction(1)}),
    NcSeries(3, 1, 2, {(1,): Fraction(1)})], ids=["level", "degree", "prime"])
def test_substitute_refuses_images_of_another_shape(image):
    # the result takes its prime and level from the first image: a level-2
    # image of Y1 would leave a Y3 term in a level-1 series
    s = NcSeries(2, 1, 2, {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="images differ"):
        s.substitute({0: NcSeries(2, 1, 2, {(0,): Fraction(1)}), 1: image})


def test_substitute_refuses_no_images():
    s = NcSeries(2, 1, 2, {(0,): Fraction(1)})
    with pytest.raises(ValueError, match="^no images to substitute$"):
        s.substitute({})


def test_substitute_names_a_generator_with_no_image():
    # the series holds X, Y0 and Y1; with only Y1 mapped, X (the least) is named
    s = NcSeries(2, 1, 2, {(0, 1): Fraction(1), (X,): Fraction(2), (1,): Fraction(3)})
    with pytest.raises(ValueError, match="^no image for generator X$"):
        s.substitute({1: NcSeries(2, 1, 2, {(1,): Fraction(1)})})
    with pytest.raises(ValueError, match="^no image for generator Y0$"):
        s.substitute({X: NcSeries(2, 1, 2, {(1,): Fraction(1)}),
                      1: NcSeries(2, 1, 2, {(1,): Fraction(1)})})


# Level-1 series at p = 2 (generators X, Y0, Y1) truncated past degree 3.
nc_series = st.dictionaries(st.lists(st.sampled_from([X, 0, 1]), max_size=3).map(tuple),
                            st.fractions(-3, 3, max_denominator=4), max_size=6).map(
    lambda c: NcSeries(2, 1, 3, {m: v for m, v in c.items() if v}))


@settings(max_examples=150, deadline=None)
@given(nc_series, nc_series, nc_series)
def test_nc_series_terms_stay_nonzero_fractions(f, g, h):
    minus_f, minus_g = f.scaled(-1), g.scaled(-1)
    for r in (f + g, f + minus_g, f * g, f + minus_f, (f + minus_g) * (f + g)):
        assert all(type(c) is Fraction and c != 0 for c in r.coeffs.values())
    assert not (f + minus_f).coeffs
    assert ((f + g) * h).coeffs == (f * h + g * h).coeffs


@st.composite
def kernel_words(draw):
    p = draw(st.sampled_from([2, 3]))
    level = draw(st.integers(1, 2))
    gens = st.sampled_from([X] + list(range(p ** level)))
    letters = draw(st.lists(st.tuples(gens, st.sampled_from([1, -1])), max_size=6))
    bal = sum(e for g, e in letters if g == X)
    letters += [(X, -1 if bal > 0 else 1)] * abs(bal)
    return FreeWord(p, level, tuple(letters))


@settings(max_examples=60, deadline=None)
@given(g=kernel_words(), data=st.data())
def test_truncating_a_tower_level_equals_embedding_at_lower_degree(g, data):
    n = data.draw(st.integers(0, g.level))
    top = data.draw(st.integers(0, 3))
    d = data.draw(st.integers(0, top))
    low = embed_E(project_word(g, n), top).truncated(d)
    want = embed_E(project_word(g, n), d)
    assert (low.level, low.degree, low.coeffs) == (want.level, want.degree, want.coeffs)


@st.composite
def log_cases(draw):
    """A series with constant term 1 at degree 2-4: a seeded kernel word's
    embedding, the same with one coefficient moved by a random Fraction, or
    random coefficients with denominators 2-12."""
    p, level = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]))
    degree = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["word", "perturbed", "denominators"]))
    gens = [X] + list(range(p ** level))
    monos = st.lists(st.sampled_from(gens), min_size=1, max_size=degree).map(tuple)
    if kind == "denominators":
        coeffs = draw(st.dictionaries(monos, st.builds(
            Fraction, st.integers(-12, 12), st.integers(2, 12)), max_size=8))
        return NcSeries(p, level, degree, {(): Fraction(1), **coeffs})
    w = random_kernel_word(p, level, random.Random(draw(st.integers(0, 10 ** 6))))
    s = embed_E(w, degree)
    if kind == "perturbed":
        s.add_term(draw(st.sampled_from(sorted(s.coeffs, key=len)[1:]) | monos),
                   draw(st.fractions(-5, 5, max_denominator=12).filter(bool)))
    return s


@settings(max_examples=150, deadline=None)
@given(log_cases())
def test_integer_log_kernel_matches_fraction_reference(s):
    # the library keeps one integer kernel over one denominator; the
    # reference sums one Fraction per term
    kernel, q = magnus._log_kernel(s)
    assert kernel.scaled(Fraction(1, q)).coeffs == lieref.series_log(s).coeffs
    assert log_lie_check(s) == lieref.log_lie_check(s)


@st.composite
def raw_letters(draw, exponents=(1, -1)):
    """(p, level, letters): letters in X and the Y's with repeated letters,
    inverse pairs and runs of three X letters left in, each exponent drawn
    from `exponents`."""
    p = draw(st.sampled_from([2, 3]))
    level = draw(st.integers(1, 2))
    gens = st.sampled_from([X] + list(range(p ** level)))
    runs = st.tuples(gens, st.sampled_from(exponents),
                     st.sampled_from(["once", "twice", "cancel", "x-run"]))
    letters = []
    for g, e, kind in draw(st.lists(runs, max_size=8)):
        letters += {"once": [(g, e)], "twice": [(g, e)] * 2, "cancel": [(g, e), (g, -e)],
                    "x-run": [(X, e)] * 3}[kind]
    return p, level, letters


def reference_normal_form(letters):
    """Spell each letter (g, e) as |e| letters of exponent +-1, cancel
    adjacent inverse pairs, then merge each run."""
    out = []
    for g, e in letters:
        for _ in range(abs(e)):
            unit = (g, 1 if e > 0 else -1)
            if out and out[-1] == (g, -unit[1]):
                out.pop()
            else:
                out.append(unit)
    return tuple((g, sum(e for _, e in run))
                 for g, run in itertools.groupby(out, key=lambda letter: letter[0]))


def reference_projection(p, letters, n, m):
    """project_word spelled letter by letter: x -> p^m letters x,
    y_{i + k p^n} -> k letters x^-1, then y_i, then k letters x."""
    out = []
    for g, e in letters:
        if g == X:
            out += [(X, e)] * p ** m
        else:
            i, k = g % p ** n, g // p ** n
            out += [(X, -1)] * k + [(i, e)] + [(X, 1)] * k
    return out


@settings(max_examples=100, deadline=None)
@given(raw_letters(exponents=(1, -1, 2, -2, 3, -3)), st.sampled_from(range(6)), st.data())
def test_normal_form_matches_letter_by_letter_reference(word, degree, data):
    p, level, letters = word
    w = FreeWord(p, level, tuple(letters))
    assert w.letters == reference_normal_form(letters)
    n = data.draw(st.integers(0, level))
    unrolled = reference_projection(p, letters, n, level - n)
    projected = project_word(w, n)
    assert projected == FreeWord(p, n, tuple(unrolled))
    for normal, raw in ((w, letters), (projected, unrolled)):
        got = embed_E(normal, degree)
        assert got.coeffs == reference_embedding(p, normal.level, raw, degree).coeffs
        # `_numerators` branches on type: an int coefficient would change its route
        assert all(type(c) is Fraction and c for c in got.coeffs.values())


@pytest.mark.parametrize("k", [-2, 0, 3])
def test_exp_gen_stores_no_zero(k):
    s = exp_gen(3, 1, 3, X, k)
    assert all(c for c in s.coeffs.values())
    assert len(s.coeffs) == (4 if k else 1)
    if k == 0:
        assert s == NcSeries.one(3, 1, 3)


@settings(max_examples=150, deadline=None)
@given(raw_letters(exponents=(1, -1, 2, -2, 3, -3)))
def test_closed_form_log2_matches_series_log(word):
    p, level, letters = word
    w = FreeWord(p, level, tuple(letters))
    got, want = word_log2(w), lieref.series_log(embed_E(w, 2))
    assert (got.level, got.degree, got.coeffs) == (want.level, want.degree, want.coeffs)
    assert all(type(c) is Fraction and c != 0 for c in got.coeffs.values())


def test_truncated_is_a_fresh_copy():
    s = embed_E(parse_word("[x,y0]", 3, 1), 2)
    t = s.truncated(2)
    t.add_term((0, 0), Fraction(1))
    assert s.coeff((0, 0)) == 0
    with pytest.raises(ValueError):
        s.truncated(3)


@pytest.mark.parametrize("p, n_max, seed", [(2, 2, 7), (3, 2, 4), (3, 3, 32)])
def test_magnus_suite_embeds_each_projected_word_once(monkeypatch, p, n_max, seed):
    seen = []
    real = magnus.embed_E

    def counting(w, degree):
        seen.append((w.level, w.letters))
        return real(w, degree)

    monkeypatch.setattr(magnus, "embed_E", counting)
    assert magnus_suite(RunConfig(p=p, n_max=n_max, seed=seed)).passed
    assert len(seen) == len(set(seen))
    assert len(seen) <= 11 * (n_max + 1)  # ten words and one product, one per level
