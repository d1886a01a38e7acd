"""Constructors for the named measures and their relation suites.

* dirac          delta_a, unit mass at a point
* interpolation  M(c), the measure with transform ((1+T)^c - (1+T))/T
* mazur          E_{1,c}, the regularized Bernoulli measure
* two-variable   N2(c) and the dilogarithm-coefficient measure D2

Level formulas index residues as 1..p^n with p^n standing for the residue 0;
`mpos` below realizes that ordering.  For M(c) the branch threshold is the
representative of c in (0, p^n] — with the [0, p^n) representative the
distribution relation fails at level 0 and at levels where p^n divides c.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .corrections import standard_integrand
from .measures import LevelFamily, box_integral, linear_combine, measures_equal, \
    pushforward
from .padic import INF, PrimeContext, Rat, bernoulli_poly, repr_mod, repr_mod_pos, vp


def mpos(a: int, pn: int) -> int:
    """Map a residue in [0, p^n) to the 1..p^n indexing (0 becomes p^n)."""
    return pn if a == 0 else a


def make_dirac(point, ctx: PrimeContext, n_max=None) -> LevelFamily:
    point = [Fraction(a) for a in point]
    dim = len(point)

    def fn(n, b):
        return 1 if all(x == repr_mod(a, ctx.p, n) for x, a in zip(b, point)) else 0

    return LevelFamily.build(ctx, dim, fn, n_max)


def make_M(c, ctx: PrimeContext, n_max=None) -> LevelFamily:
    """The measure with total mass c - 1 interpolating binomial coefficients."""
    c = Fraction(c)
    if vp(c, ctx.p) < 0:
        raise ValueError("c must be p-integral")

    def fn(n, a):
        s = repr_mod_pos(c, ctx.p, n)
        base = (c - s) / ctx.p ** n
        return base + 1 if 1 <= a[0] < s else base

    return LevelFamily.build(ctx, 1, fn, n_max)


def make_E1(c, ctx: PrimeContext, n_max=None) -> LevelFamily:
    """The Mazur-Bernoulli measure: moments (B_k/k)(1 - c^k)."""
    c = Fraction(c)
    if vp(c, ctx.p) != 0:
        raise ValueError("c must be a unit")
    cinv = 1 / c

    def fn(n, a):
        pn = ctx.p ** n
        return Fraction(a[0], pn) - c * Fraction(repr_mod(cinv * a[0], ctx.p, n), pn) \
            + (c - 1) / 2

    return LevelFamily.build(ctx, 1, fn, n_max)


def make_N2(c, ctx: PrimeContext, n_max=None) -> LevelFamily:
    """Antisymmetric two-variable companion of M(c); c must be a unit."""
    c = Fraction(c)
    if vp(c, ctx.p) != 0:
        raise ValueError("c must be a unit")

    def fn(n, ab):
        pn = ctx.p ** n
        s = repr_mod(c, ctx.p, n)
        t = (c - s) / pn
        a, b = mpos(ab[0], pn), mpos(ab[1], pn)
        val = Fraction(0)
        if (1 <= a < b < s) or (s <= a < b <= pn):
            val -= t
        elif (1 <= b < a < s) or (s <= b < a <= pn):
            val += t
        if 1 <= a < b < s:
            val -= 1
        elif 1 <= b < a < s:
            val += 1
        return val

    return LevelFamily.build(ctx, 2, fn, n_max)


def make_D2(alpha, gamma, ctx: PrimeContext, n_max=None) -> LevelFamily:
    """Two-variable measure assembled from degree-1 and dilogarithm tables.

    alpha[n][i] and gamma[n][i] are level-indexed coefficient tables; alpha
    must satisfy the distribution relation and gamma its twisted analogue
    (gamma_i at level n = sum_k p gamma_{i+k p^n} - sum_k k alpha_{i+k p^n}
    one level up), which hold automatically for tables extracted from a
    kernel word.  Violations surface through validate_distribution.
    """
    if n_max is None:
        n_max = min(len(alpha), len(gamma)) - 1

    def fn(n, ab):
        pn = ctx.p ** n
        a, b = ab
        na, nb = (-a) % pn, (-b) % pn
        val = gamma[n][nb] - gamma[n][na]
        ma, mb = mpos(a, pn), mpos(b, pn)
        if ma < mb:
            val += alpha[n][na]
        elif mb < ma:
            val -= alpha[n][nb]
        return val

    return LevelFamily.build(ctx, 2, fn, n_max)


# ---------------------------------------------------------------------------
# Relation suite for E_{1,c}


def e1_relation_suite(c, ctx: PrimeContext, up_to_level: int, mod_exp: int):
    """The three checkable relations tying E_{1,c} to M(c) and Dirac masses.

    i)  E + E o(-1) = (c-1) delta_0            (exact)
    ii) T_c(E) = E + M(c) + (1-c) delta_0      (mod p^mod_exp, and in fact exact)
    iv) T_c(E) - T_c(E o(-1)) = 2E + 2M(c) + 2(1-c) delta_0 + (1-c) delta_c,
        the form obtained by pushing i) through T_c and using ii) twice.

    The reflection relation for the degree-1 cocycle measure itself (the
    analogue of i/ii with alpha(sigma) in place of E) is an external input;
    it is checked symbolically in the octagon module, not here.

    Returns a list of (name, passed, detail) triples.
    """
    c = Fraction(c)
    E = make_E1(c, ctx)
    M = make_M(c, ctx)
    d0 = make_dirac([0], ctx)
    dc = make_dirac([c], ctx)
    Em = pushforward(E, units=[-1])
    TcE = pushforward(E, shift=[c])
    TcEm = pushforward(E, units=[-1], shift=[c])
    zero = LevelFamily.zero(ctx, 1)
    checks = []

    rel_i = linear_combine([1, 1, -(c - 1)], [E, Em, d0])
    checks.append(("reflection", measures_equal(rel_i, zero, min(up_to_level, E.n_max), INF),
                   "E + E o(-1) - (c-1) delta_0 == 0 exactly"))

    rel_ii = linear_combine([1, -1, -1, -(1 - c)], [TcE, E, M, d0])
    checks.append(("translation", measures_equal(rel_ii, zero, min(up_to_level, E.n_max), mod_exp),
                   f"T_c(E) - E - M(c) - (1-c) delta_0 == 0 mod p^{mod_exp}"))

    rel_iv = linear_combine([1, -1, -2, -2, -2 * (1 - c), -(1 - c)],
                            [TcE, TcEm, E, M, d0, dc])
    checks.append(("translated-reflection",
                   measures_equal(rel_iv, zero, min(up_to_level, E.n_max), mod_exp),
                   f"T_c(E) - T_c(E o(-1)) - 2E - 2M(c) - 2(1-c) delta_0 - (1-c) delta_c"
                   f" == 0 mod p^{mod_exp}"))
    return checks


# ---------------------------------------------------------------------------
# Defect evaluator for the coefficient inversion formula


def inversion_defect(beta1: LevelFamily, c, i: int, mu_exp: int, n: int, m: int) -> Rat:
    """LHS minus RHS of the dilogarithm-coefficient inversion display.

    Both integrals are Riemann sums at level n + m.  The evaluator makes no
    claim that the defect vanishes: for the cocycle measures it would, by an
    external reflection formula, but synthetic inputs only get evaluated.
    """
    ctx = beta1.ctx
    p, pn = ctx.p, ctx.p ** n
    if not 0 < i < pn:
        raise ValueError("need 0 < i < p^n")
    c = Fraction(c)
    lhs, _ = box_integral(beta1, (i,), n, standard_integrand((0, mu_exp), (i,), pn), n + m)
    lhs2, _ = box_integral(beta1, (pn - i,), n,
                           standard_integrand((0, mu_exp), (pn - i,), pn), n + m)
    lhs += (-1) ** (mu_exp + 1) * lhs2

    rhs = Fraction(0)
    for j in range(mu_exp):
        term, _ = box_integral(beta1, (i,), n, standard_integrand((0, j), (i,), pn), n + m)
        rhs += math.comb(mu_exp, j) * term
    rhs += Fraction((-1) ** mu_exp, pn ** mu_exp) * _bernoulli_sum(c, i, mu_exp, p, n)
    return lhs - rhs


def _bernoulli_sum(c: Fraction, i: int, mu_exp: int, p: int, n: int) -> Rat:
    pn = p ** n
    total = Fraction(0)
    for j in range(mu_exp + 1):
        bracket = bernoulli_poly(j + 1, Fraction(pn - i, pn)) \
            - c ** (j + 1) * bernoulli_poly(j + 1, Fraction(repr_mod((pn - i) / c, p, n), pn))
        total += math.comb(mu_exp, j) * (i - pn) ** (mu_exp - j) \
            * Fraction(pn ** j, j + 1) * bracket
    return total


def inversion_defect_linear(beta1: LevelFamily, c, i: int, n: int, m: int) -> Rat:
    """The mu = 1 defect written out term by term.

    Independent of the generic evaluator: the two Bernoulli brackets are
    hard-coded, so this pins the mu = 1 specialization of inversion_defect.
    """
    ctx = beta1.ctx
    p, pn = ctx.p, ctx.p ** n
    c = Fraction(c)
    lhs, _ = box_integral(beta1, (i,), n, standard_integrand((0, 1), (i,), pn), n + m)
    lhs2, _ = box_integral(beta1, (pn - i,), n,
                           standard_integrand((0, 1), (pn - i,), pn), n + m)
    lhs += lhs2
    mass, _ = box_integral(beta1, (i,), n, standard_integrand((0, 0), (i,), pn), n + m)
    u = Fraction(repr_mod((pn - i) / c, p, n), pn)
    b1 = bernoulli_poly(1, Fraction(pn - i, pn)) - c * bernoulli_poly(1, u)
    b2 = bernoulli_poly(2, Fraction(pn - i, pn)) - c ** 2 * bernoulli_poly(2, u)
    rhs = mass + Fraction(pn - i, pn) * b1 - Fraction(1, 2) * b2
    return lhs - rhs
