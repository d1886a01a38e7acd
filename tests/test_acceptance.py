"""End-to-end acceptance battery.

Each test here pins one headline guarantee of the library at its stated
tolerance and prints a PASS/FAIL line (run with `pytest -s` to see them all).
"""

import itertools
import math
import random
import time
from fractions import Fraction

from zpmeasures.classical import (e1_relation_suite, make_D2, make_E1, make_M,
                                  make_N2, make_dirac)
from zpmeasures.corrections import change_of_variables, four_term_sum
from zpmeasures.magnus import (FreeWord, X, beta_measures, commutator, embed_E,
                               log_lie_check, shuffle_check,
                               word_coefficient_congruence, word_tower)
from zpmeasures.measures import (DiracCombo, box_integral, exterior_product,
                                 iwasawa_P, iwasawa_flip, iwasawa_swap,
                                 iwasawa_tensor, linear_combine, measures_equal,
                                 pushforward, signed_group, star_convolution,
                                 validate_distribution)
from zpmeasures.octagon import (build_factors, degree2_symmetry_check,
                                derive_factor_by_subst, octagon_product,
                                residue_free_factors)
from zpmeasures.padic import PrimeContext, bernoulli, binom, vp
from zpmeasures.suites import SUITE_RUNNERS, RunConfig

from levelref import is_zero, value
from polyref import MPoly
from reportref import first_failure

OCTAGON_GRID = [(3, 1), (5, 1), (2, 2)]


def report(ok: bool, label: str):
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label


def seeded_units(seed, p, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = rng.randrange(2, 40 * p)
        if c % p:
            out.append(c)
    return out


def test_01_interpolation_transform_coefficients():
    # P(M(c)) coefficient k is binom(c, k+1) - [k=0] mod p^(4 - vp(k!))
    start = time.monotonic()
    ok = True
    for p in (3, 5):
        ctx = PrimeContext(p, 4)
        for c in (7, -2, Fraction(1, 2)):
            P = iwasawa_P(make_M(c, ctx), 6, 4)
            for k in range(7):
                want = binom(c, k + 1) - (1 if k == 0 else 0)
                e = P.guarantees[(k,)]
                ok = ok and e == 4 - vp(math.factorial(k), p)
                ok = ok and vp(P.coefficient((k,)) - want, p) >= e
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(ok, f"interpolation-measure transform coefficients ({elapsed:.2f}s < 5s)")


def test_02_e1_relation_suite_seeded_units():
    start = time.monotonic()
    ok = True
    for p in (3, 5):
        ctx = PrimeContext(p, 3)
        for c in seeded_units(p, p, 5):
            checks = e1_relation_suite(c, ctx, 3)
            ok = ok and all(miss is None for _, miss in checks)
            # the reflection identity must additionally hold exactly
            E = make_E1(c, ctx)
            rel = linear_combine([1, 1, -(Fraction(c) - 1)],
                                 [E, pushforward(E, units=[-1]), make_dirac([0], ctx)])
            ok = ok and is_zero(rel)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(ok, f"E1 relation suite, 5 seeded units per prime ({elapsed:.2f}s < 10s)")


def test_03_e1_moments_match_bernoulli():
    ctx = PrimeContext(5, 4)
    ok = True
    for c in (2, 7):
        E = make_E1(c, ctx)
        for k in range(1, 7):
            val, e = box_integral(E, (0,), 0, MPoly.var(1, 0) ** (k - 1), 4)
            want = Fraction(bernoulli(k), k) * (1 - Fraction(c) ** k)
            ok = ok and vp(val - want, 5) >= e
    report(ok, "E1 moments equal (B_k/k)(1 - c^k) within box-integral guarantees")


def test_04_constructors_satisfy_distribution_relation():
    ctx = PrimeContext(3, 3)
    ok = validate_distribution(make_dirac([2], ctx)) is None
    for c in (7, -2, Fraction(1, 2)):
        ok = ok and validate_distribution(make_M(c, ctx)) is None
        ok = ok and validate_distribution(make_E1(c, ctx)) is None
        ok = ok and validate_distribution(make_N2(c, ctx)) is None
    word = commutator(FreeWord(3, 2, ((X, 1),)), FreeWord(3, 2, ((0, 1),)))
    ok = ok and validate_distribution(make_D2(word)) is None
    report(ok, "distribution relation exact for dirac, M, E1, N2 (n_max=3) and D2 (n_max=2)")


def test_05_octagon_symbolic_suite():
    ok = True
    worst = 0.0
    for p, n in OCTAGON_GRID:
        shared = residue_free_factors(p, n)
        for s in range(1, p ** n):
            if s % p == 0:
                continue
            start = time.monotonic()
            prod = octagon_product(p, n, s, build_factors(s, shared))
            ok = ok and not prod.coeff((X,))
            x_miss, deg1_miss, miss, rep = degree2_symmetry_check(s, prod)
            ok = ok and x_miss is None and deg1_miss is None and miss is None
            ok = ok and rep["passed"]
            ok = ok and all(row["poly"] == "0" for row in rep["residuals"])
            elapsed = time.monotonic() - start
            worst = max(worst, elapsed)
            ok = ok and elapsed < 60.0
    report(ok, f"octagon symbolic suite on the full grid (worst config {worst:.2f}s < 60s)")


def test_06_factor_rederivation_from_substitutions():
    ok = True
    for p, n in OCTAGON_GRID:
        shared = residue_free_factors(p, n)
        for s in range(1, p ** n):
            if s % p == 0:
                continue
            factors = build_factors(s, shared)
            for name in "CEG":
                ok = ok and not derive_factor_by_subst(name, s, factors["A"], factors[name])
    report(ok, "factors C, E, G re-derived exactly from generator substitutions")


def _random_kernel_word(rng, p, level, length=6):
    gens = [X] + list(range(p ** level))
    letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]
    bal = sum(e for g, e in letters if g == X)
    letters += [(X, -1 if bal > 0 else 1)] * abs(bal)
    w = FreeWord(p, level, tuple(letters))
    return w if w.letters else FreeWord(p, level, ((0, 1), (1, 1)))


def test_07_magnus_suite_seeded_words():
    ok = True
    for p, n_max in ((2, 2), (3, 1)):
        rng = random.Random(100 + p)
        words = [_random_kernel_word(rng, p, n_max) for _ in range(10)]
        width = p ** n_max
        ys = range(width)
        pairs = [((a,), (b,)) for a in ys for b in ys]
        pairs += [((a,), (b, c)) for a in ys for b in ys for c in ys]
        pairs += [((b, c), (a,)) for a in ys for b in ys for c in ys]
        towers = [word_tower(g, [3] * (n_max + 1)) for g in words]
        for g, tower in zip(words, towers):
            s = embed_E(g, 3)
            ok = ok and all(shuffle_check(s, u, v) for u, v in pairs)
            ok = ok and log_lie_check(s)
            for r in (1, 2, 3):
                ok = ok and validate_distribution(beta_measures(g, r, tower)) is None
        g, h = words[0], words[1]
        gh_tower = word_tower(g * h, [2] * (n_max + 1))
        S = star_convolution(tuple(beta_measures(g, r, towers[0]) for r in range(3)),
                             tuple(beta_measures(h, r, towers[1]) for r in range(3)))
        C = tuple(beta_measures(g * h, r, gh_tower) for r in range(3))
        ok = ok and all(S[i] == C[i] for i in range(3))
        b1 = beta_measures(g, 1, towers[0])
        b2 = beta_measures(g, 2, towers[0])
        for a in itertools.product(range(p), repeat=2):
            lhs = value(b2, 1, a) + value(b2, 1, (a[1], a[0]))
            ok = ok and lhs == value(b1, 1, (a[0],)) * value(b1, 1, (a[1],))
        n_box = n_max - 1
        for n0 in range(3):
            for n1 in range(3 - n0):
                for i in range(p ** n_box):
                    achieved, guaranteed = word_coefficient_congruence(
                        (n0, n1), (i,), 1, towers[0][n_box], b1)
                    ok = ok and achieved >= guaranteed
    report(ok, "magnus suite: shuffle, Lie, distribution, star, symmetrization, congruences")


def test_08_signed_symmetrization_and_transform():
    ctx = PrimeContext(5, 2)
    rng = random.Random(8)
    c = 7
    g = linear_combine([rng.randrange(-3, 4) for _ in range(3)],
                       [make_dirac([rng.randrange(0, 25)], ctx) for _ in range(3)])
    nu = linear_combine([1, 1], [g, pushforward(g, units=[-1])])
    rho = linear_combine([1, Fraction(1 - c, 2)],
                         [make_E1(c, ctx), make_dirac([0], ctx)])
    alpha = linear_combine([1, Fraction(1, 2)], [nu, rho])
    beta2 = linear_combine([Fraction(1, 2)], [exterior_product(alpha, alpha)])
    group = list(signed_group(2))
    lhs = linear_combine([eps[0] * eps[1] for _, eps in group],
                         [pushforward(beta2, perm, eps) for perm, eps in group])
    rhs = exterior_product(rho, rho)
    ok = measures_equal(lhs, rhs, 3) is None

    K = 3
    P2 = iwasawa_P(beta2, K, 2)
    exps = list(itertools.product(range(K + 1), repeat=2))
    acc = {e: Fraction(0) for e in exps}
    guar = {e: None for e in exps}
    for perm, eps in signed_group(2):
        pt = iwasawa_flip(iwasawa_swap(P2, perm),
                          {k for k in range(2) if eps[k] == -1}, 5)
        sign = eps[0] * eps[1]
        for e in exps:
            acc[e] += sign * pt.coefficient(e)
            guar[e] = pt.guarantees[e] if guar[e] is None else min(guar[e], pt.guarantees[e])
    P1 = iwasawa_P(rho, K, 2)
    rhs_t = iwasawa_tensor(P1, P1)
    for e in exps:
        bound = min(guar[e], rhs_t.guarantees[e])
        ok = ok and vp(acc[e] - rhs_t.coefficient(e), 5) >= bound
    report(ok, "signed symmetrization of the squared measure + its transform identity")


def test_09_change_of_variable_identities():
    rng = random.Random(9)
    shapes = [s for s in itertools.product(range(3), repeat=3) if sum(s) <= 2]
    bases = [(0, 1), (1, 2), (2, 0), (1, 1), (2, 2)]
    ok = True
    for _ in range(10):
        beta = DiracCombo.make(2, [(tuple(rng.randrange(-6, 7) for _ in range(2)),
                                    Fraction(rng.randrange(-3, 4))) for _ in range(4)])
        for shape in shapes:
            for base in bases:
                for e, c in ((-1, 0), (-1, 1), (1, 1)):  # x -> -x, 1 - x, x + 1
                    l, r = change_of_variables(beta, beta, base, shape, 3, 1, e, c)
                    ok = ok and l == r
    for _ in range(5):
        g = DiracCombo.make(2, [(tuple(rng.randrange(-6, 7) for _ in range(2)),
                                 Fraction(rng.randrange(-3, 4))) for _ in range(4)])
        beta = g + g.pushforward_affine(-1, 0)
        for shape in shapes:
            for base in bases:
                ok = ok and four_term_sum(beta, base, shape, 3, 1) == 0
    report(ok, "sign/shift change-of-variable identities exact; four-term sums vanish")


def test_10_negative_controls_fail_every_suite():
    configs = {
        "measures": RunConfig(p=3, n_max=3, suite="measures", tamper=True),
        "transforms": RunConfig(p=5, n_max=2, terms=4, suite="transforms", tamper=True),
        "magnus": RunConfig(p=2, n_max=2, suite="magnus", tamper=True),
        "octagon": RunConfig(p=3, n_max=1, sigma_rep=1, suite="octagon", tamper=True),
        "corrections": RunConfig(p=3, suite="corrections", tamper=True),
    }
    ok = True
    for name, cfg in configs.items():
        rep = SUITE_RUNNERS[name](cfg)
        failure = first_failure(rep)
        ok = ok and (not rep.passed) and failure is not None and failure.name
        clean = SUITE_RUNNERS[name](RunConfig(**{**cfg.__dict__, "tamper": False}))
        ok = ok and clean.passed
    report(ok, "each suite fails with a pinpointed check under tamper, passes clean")
