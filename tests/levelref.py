"""Level-table references for the tests.

A `LevelFamily` stores level n as int numerators over one denominator
`dens[n] > 0`, in lowest terms, keyed in `residues()` order.
`build_fraction` is `LevelFamily.build` through one `Fraction` per value:
each level goes over the lcm of its values' denominators, and `denom_bound`
is read off each nonzero value's valuation.  Within `fraction_tables()`
every builder tabulates through it, and the named measures M, E_{1,c} and
N2 are tabulated from their point references, one call per point, so the
tests can check that the two give the same family.  `pointwise` turns a
point function into the per-level function `build` takes.
`pushforward_reference`, `linear_combine_reference`, `exterior_reference`
and `star_reference` are the table kernels written point by point over
`Fraction` values and tabulated by `build_fraction`;
`measures_equal_reference` and `validate_distribution_reference` are the
two table checks, value by value.
`assert_stored_form` checks the stored form itself.

`m_value_reference`, `e1_value_reference` and `n2_value_reference` are the
named measures point by point, E_{1,c} by its three-term formula with one
`Fraction` per term; the rows `classical.m_row`, `e1_row` and `n2_row` are
checked against them.

`value` is the one way a test reads a stored value, `values` all of them and
`raised` writes one fault.  `normal_form`, `unit_sequence`, `is_zero` and
`total_mass` are conveniences only the tests read.
"""

from __future__ import annotations

import itertools
import math
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

from zpmeasures import classical
from zpmeasures.classical import mpos
from zpmeasures.measures import LevelFamily, residues
from zpmeasures.padic import PrimeContext, repr_mod, vp


def build_fraction(cls, p: int, dim: int, fn, n_max: int) -> LevelFamily:
    """Tabulate fn(n), level n's values in residues() order, for the levels
    0..n_max, one Fraction per value."""
    tables, dens = [], []
    worst = 0
    for n in range(n_max + 1):
        level = {a: Fraction(v) for a, v in zip(residues(p, n, dim), fn(n), strict=True)}
        den = math.lcm(*[v.denominator for v in level.values()])
        tables.append({a: (v * den).numerator for a, v in level.items()})
        dens.append(den)
        for v in level.values():
            if v:
                worst = max(worst, -min(0, vp(v, p)))
    return cls(p, dim, tuple(tables), tuple(dens), worst)


def assert_stored_form(mu: LevelFamily):
    """Every level in lowest terms over a positive denominator, keyed in
    residues() order, and denom_bound the worst -vp of a stored value."""
    for n, (table, den) in enumerate(zip(mu.tables, mu.dens, strict=True)):
        assert type(den) is int and den > 0
        assert all(type(v) is int for v in table.values())
        assert math.gcd(den, *table.values()) == 1
        assert list(table) == list(residues(mu.p, n, mu.dim))
    assert mu.denom_bound == max([0] + [-vp(v, mu.p) for t in values(mu)
                                        for v in t.values() if v])


def pointwise(p: int, dim: int, fn):
    """The per-level function of `build` that calls fn(n, point) at every
    level-n point, in residues() order."""
    return lambda n: [fn(n, a) for a in residues(p, n, dim)]


def m_value_reference(x: int, s: int, t):
    """M(c) at x: t plus the indicator of 1 <= x < s."""
    return t + 1 if 1 <= x < s else t


def e1_value_reference(x: int, s: int, pn: int, t):
    """E_{1,c}(x) = x/p^n - c <c^{-1} x>/p^n + (c - 1)/2 with c = s + p^n t."""
    c = s + pn * t
    u = (pow(s, -1, pn) * x) % pn
    return c * Fraction(-u, pn) + Fraction(x, pn) + (c - 1) * Fraction(1, 2)


def n2_value_reference(a: int, b: int, s: int, pn: int, t):
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


# classical's rows, each written as its point reference called once per point
POINT_ROWS = {
    "m_row": lambda s, pn, t: [m_value_reference(x, s, t) for x in range(pn)],
    "e1_row": lambda s, pn, t: [e1_value_reference(x, s, pn, t) for x in range(pn)],
    "n2_row": lambda a, s, pn, t: [n2_value_reference(a, b, s, pn, t) for b in range(pn)],
}


@contextmanager
def fraction_tables():
    """Within the block, `LevelFamily.build` is `build_fraction`, and the
    named measures' builders read their point references, not the rows."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(LevelFamily, "build", classmethod(build_fraction)))
        for name, row in POINT_ROWS.items():
            stack.enter_context(mock.patch.object(classical, name, row))
        yield


def pushforward_reference(mu: LevelFamily, perm=None, units=None, shift=None) -> LevelFamily:
    """The image under y_{perm[j]} = units[j] x_j + shift[j]: at y, mu's value
    at x_j = (y_{perm[j]} - shift[j]) / units[j], reduced mod p^n."""
    m = mu.dim
    perm, units, shift = perm or range(m), units or [1] * m, shift or [0] * m

    def fn(n, y):
        x = tuple(repr_mod((y[k] - Fraction(c)) / Fraction(u), mu.p, n)
                  for k, u, c in zip(perm, units, shift, strict=True))
        return value(mu, n, x)

    return build_fraction(LevelFamily, mu.p, mu.dim, pointwise(mu.p, mu.dim, fn), mu.n_max)


def linear_combine_reference(coeffs, mus) -> LevelFamily:
    def fn(n, a):
        return sum(Fraction(c) * value(mu, n, a) for c, mu in zip(coeffs, mus, strict=True))

    p, dim = mus[0].p, mus[0].dim
    return build_fraction(LevelFamily, p, dim, pointwise(p, dim, fn), min(m.n_max for m in mus))


def exterior_reference(alpha: LevelFamily, beta: LevelFamily) -> LevelFamily:
    def fn(n, ab):
        return value(alpha, n, ab[:alpha.dim]) * value(beta, n, ab[alpha.dim:])

    p, dim = alpha.p, alpha.dim + beta.dim
    return build_fraction(LevelFamily, p, dim, pointwise(p, dim, fn), min(alpha.n_max, beta.n_max))


def star_reference(a: tuple, b: tuple) -> tuple:
    """Entry i at (x_1..x_i) is sum_j a_j(x_1..x_j) b_{i-j}(x_{j+1}..x_i)."""
    def entry(i):
        def fn(n, pt):
            return sum(value(a[j], n, pt[:j]) * value(b[i - j], n, pt[j:]) for j in range(i + 1))

        return build_fraction(LevelFamily, a[0].p, i, pointwise(a[0].p, i, fn),
                              min(m.n_max for m in a[:i + 1] + b[:i + 1]))

    return tuple(entry(i) for i in range(min(len(a), len(b))))


def measures_equal_reference(mu: LevelFamily, nu: LevelFamily, mod_exp):
    """The first (level, point, mu - nu) with vp(mu - nu) < mod_exp, value by value."""
    for n in range(min(mu.n_max, nu.n_max) + 1):
        for a in residues(mu.p, n, mu.dim):
            diff = value(mu, n, a) - value(nu, n, a)
            if vp(diff, mu.p) < mod_exp:
                return n, a, diff
    return None


def validate_distribution_reference(mu: LevelFamily):
    """The first (level, point, defect) where a value is not the sum of its lifts'."""
    for n in range(mu.n_max):
        for a in residues(mu.p, n, mu.dim):
            lifts = itertools.product(*[[x + k * mu.p ** n for k in range(mu.p)] for x in a])
            defect = value(mu, n, a) - sum(value(mu, n + 1, b) for b in lifts)
            if defect:
                return n, a, defect
    return None


def normal_form(v) -> bool:
    """v is an int, or a Fraction that is not integral."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def unit_sequence(ctx: PrimeContext, top: int) -> tuple:
    """(1, 0, 0, ...): the two-sided identity for the star product."""
    entries = [LevelFamily.build(ctx.p, 0, lambda n: [1], ctx.n_max)]
    for i in range(1, top + 1):
        entries.append(LevelFamily.zero(ctx.p, i, ctx.n_max))
    return tuple(entries)


def value(mu: LevelFamily, n: int, point):
    """The stored value at a level-n point, in normal form."""
    return mu.value(n, tuple(point))


def values(mu: LevelFamily) -> tuple:
    """Per level, point -> stored value in normal form."""
    return tuple({a: mu.value(n, a) for a in table} for n, table in enumerate(mu.tables))


def raised(mu: LevelFamily, level: int, point: tuple, by: int = 1) -> LevelFamily:
    """`mu` with one stored value raised by the integer `by`: its numerator
    gains by * den, which keeps the level in lowest terms."""
    tables = list(mu.tables)
    tables[level] = {**tables[level], point: tables[level][point] + by * mu.dens[level]}
    return LevelFamily(mu.p, mu.dim, tuple(tables), mu.dens, mu.denom_bound)


def is_zero(mu: LevelFamily) -> bool:
    return all(not v for t in mu.tables for v in t.values())


def total_mass(mu: LevelFamily):
    return value(mu, 0, (0,) * mu.dim)
