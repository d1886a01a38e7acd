"""Constructors for the named measures and their relation suites.

* dirac          delta_a, unit mass at a point
* interpolation  M(c), the measure with transform ((1+T)^c - (1+T))/T
* mazur          E_{1,c}, the regularized Bernoulli measure
* two-variable   N2(c) and the dilogarithm-coefficient measure D2

Each named measure has one point formula (`m_value`, `e1_value`, `n2_value`,
`d2_value`) in the level constants c = s + p^n t.  The `make_*` builders
tabulate it with t rational (an int when c is); the octagon module
evaluates the same formulas with t a symbol, at chi = s + p^n t.

Level formulas index residues as 1..p^n with p^n standing for the residue 0;
`mpos` below realizes that ordering.  For M(c) the branch threshold is the
representative of c in (0, p^n] — with the [0, p^n) representative the
distribution relation fails at level 0 and at levels where p^n divides c.
"""

from __future__ import annotations

from fractions import Fraction

from .magnus import FreeWord, X, kernel_check, word_tower
from .measures import (DiracCombo, LevelFamily, linear_combine, measures_equal, pinpoint,
                       pushforward)
from .padic import INF, PrimeContext, exact, repr_mod, vp


def mpos(a: int, pn: int) -> int:
    """Map a residue in [0, p^n) to the 1..p^n indexing (0 becomes p^n)."""
    return pn if a == 0 else a


def m_value(x: int, s: int, t):
    """M(c) at x: t plus the indicator of 1 <= x < s."""
    return t + 1 if 1 <= x < s else t


def e1_value(x: int, s: int, pn: int, t):
    """E_{1,c}(x) = x/p^n - c <c^{-1} x>/p^n + (c - 1)/2 with c = s + p^n t,
    written over the one denominator 2p^n."""
    c = s + pn * t
    u = (pow(s, -1, pn) * x) % pn
    return (pn * (c - 1) - 2 * u * c + 2 * x) * Fraction(1, 2 * pn)


def n2_value(a: int, b: int, s: int, pn: int, t):
    """N2(c) at (a, b): -t - 1 on 1 <= a < b < s, -t on s <= a < b <= p^n
    (in the 1..p^n order), and antisymmetric."""
    ma, mb = mpos(a, pn), mpos(b, pn)
    if ma < mb:
        if mb < s:
            return -t - 1
        return -t if s <= ma else 0
    if mb < ma:
        if ma < s:
            return t + 1
        return t if s <= mb else 0
    return 0


def d2_value(a: int, b: int, pn: int, alpha, gamma):
    """D2 at (a, b) from residue -> coefficient maps alpha and gamma:
    gamma(-b) - gamma(-a), plus alpha(-a) if a < b, minus alpha(-b) if b < a
    (in the 1..p^n order)."""
    na, nb = (-a) % pn, (-b) % pn
    val = gamma(nb) - gamma(na)
    ma, mb = mpos(a, pn), mpos(b, pn)
    if ma < mb:
        return val + alpha(na)
    if mb < ma:
        return val - alpha(nb)
    return val


def _levels(c, ctx: PrimeContext, unit: bool) -> list:
    """(s, p^n, t) per level: c = s + p^n t, s in (0, p^n], t in normal form.
    c must be p-integral, and a unit when `unit` is set."""
    c = exact(c)
    v = vp(c, ctx.p)
    if v < 0 or (unit and v != 0):
        raise ValueError("c must be a unit" if unit else "c must be p-integral")
    out = []
    for n in range(ctx.n_max + 1):
        pn = ctx.p ** n
        s = mpos(repr_mod(c, ctx.p, n), pn)
        out.append((s, pn, exact(Fraction(c - s, pn))))
    return out


def make_dirac(point, ctx: PrimeContext) -> LevelFamily:
    return DiracCombo.make(len(point), [(point, 1)]).to_level_family(ctx)


def make_M(c, ctx: PrimeContext) -> LevelFamily:
    """The measure with total mass c - 1 interpolating binomial coefficients."""
    levels = _levels(c, ctx, unit=False)
    return LevelFamily.build(ctx, 1, lambda n, a: m_value(a[0], levels[n][0], levels[n][2]))


def make_E1(c, ctx: PrimeContext) -> LevelFamily:
    """The Mazur-Bernoulli measure: moments (B_k/k)(1 - c^k)."""
    levels = _levels(c, ctx, unit=True)
    return LevelFamily.build(ctx, 1, lambda n, a: e1_value(a[0], *levels[n]))


def make_N2(c, ctx: PrimeContext) -> LevelFamily:
    """Antisymmetric two-variable companion of M(c); c must be a unit."""
    levels = _levels(c, ctx, unit=True)
    return LevelFamily.build(ctx, 2, lambda n, ab: n2_value(ab[0], ab[1], *levels[n]))


def make_D2(word: FreeWord) -> LevelFamily:
    """Two-variable measure read off a kernel word's degree-2 tower.

    At level n, alpha(i) and gamma(i) are the coefficients of Y_i and X Y_i
    in the word's level-n series.  These satisfy the distribution relation
    and its twisted analogue (gamma_i at level n = sum_k p gamma_{i+k p^n}
    - sum_k k alpha_{i+k p^n} one level up) because the word is in the kernel.
    """
    if not kernel_check(word):
        raise ValueError("D2 needs a kernel word")
    levels = []
    for n, s in enumerate(word_tower(word, [2] * (word.level + 1))):
        width = word.ctx.p ** n
        levels.append((width, [s.coeff((i,)) for i in range(width)].__getitem__,
                       [s.coeff((X, i)) for i in range(width)].__getitem__))

    def fn(n, ab):
        return d2_value(ab[0], ab[1], *levels[n])

    return LevelFamily.build(word.ctx, 2, fn, word.level)


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

    Returns a list of (name, miss) pairs: miss is None when the relation
    holds, else its claim followed by the level, point and valuation of its
    first miss.
    """
    c = exact(c)
    E = make_E1(c, ctx)
    M = make_M(c, ctx)
    d0 = make_dirac([0], ctx)
    dc = make_dirac([c], ctx)
    Em = pushforward(E, units=[-1])
    TcE = pushforward(E, shift=[c])
    TcEm = pushforward(E, units=[-1], shift=[c])
    zero, level = LevelFamily.zero(ctx, 1), min(up_to_level, E.n_max)
    relations = (
        ("reflection", linear_combine([1, 1, -(c - 1)], [E, Em, d0]), INF,
         "E + E o(-1) - (c-1) delta_0 == 0 exactly"),
        ("translation", linear_combine([1, -1, -1, -(1 - c)], [TcE, E, M, d0]), mod_exp,
         f"T_c(E) - E - M(c) - (1-c) delta_0 == 0 mod p^{mod_exp}"),
        ("translated-reflection",
         linear_combine([1, -1, -2, -2, -2 * (1 - c), -(1 - c)], [TcE, TcEm, E, M, d0, dc]),
         mod_exp, f"T_c(E) - T_c(E o(-1)) - 2E - 2M(c) - 2(1-c) delta_0 - (1-c) delta_c"
                  f" == 0 mod p^{mod_exp}"),
    )
    checks = []
    for name, rel, exp, claim in relations:
        miss = measures_equal(rel, zero, level, exp)
        checks.append((name, miss and f"{claim}; {pinpoint(miss, ctx.p)}"))
    return checks
