"""Level-table references for the tests.

`build_fraction` is `LevelFamily.build` with every stored value a `Fraction`
and `denom_bound` read off each nonzero entry's valuation.  The library's
build stores each value in normal form (an `int` when integral, otherwise a
`Fraction`) and reads the valuation of the non-integral ones only; within
`fraction_tables()` every builder tabulates through the reference, so the
tests can check the two give the same tables and bound.

`e1_value_reference` is E_{1,c} by its three-term formula, one `Fraction`
per term, against which `classical.e1_value` is checked.

`normal_form`, `unit_sequence`, `is_zero`, `total_mass` and `value` are
conveniences only the tests read.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from zpmeasures.measures import LevelFamily, residues
from zpmeasures.padic import PrimeContext, vp


def build_fraction(cls, p: int, dim: int, fn, n_max: int) -> LevelFamily:
    """Tabulate fn(n, point) for the levels 0..n_max, one Fraction per value."""
    tables = []
    worst = 0
    for n in range(n_max + 1):
        table = {}
        for a in residues(p, n, dim):
            v = Fraction(fn(n, a))
            table[a] = v
            if v:
                worst = max(worst, -min(0, vp(v, p)))
        tables.append(table)
    return cls(p, dim, tuple(tables), worst)


def e1_value_reference(x: int, s: int, pn: int, t):
    """E_{1,c}(x) = x/p^n - c <c^{-1} x>/p^n + (c - 1)/2 with c = s + p^n t."""
    c = s + pn * t
    u = (pow(s, -1, pn) * x) % pn
    return c * Fraction(-u, pn) + Fraction(x, pn) + (c - 1) * Fraction(1, 2)


@contextmanager
def fraction_tables():
    """Within the block, `LevelFamily.build` is `build_fraction`."""
    real = LevelFamily.__dict__["build"]
    LevelFamily.build = classmethod(build_fraction)
    try:
        yield
    finally:
        LevelFamily.build = real


def normal_form(v) -> bool:
    """v is an int, or a Fraction that is not integral."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def unit_sequence(ctx: PrimeContext, top: int) -> tuple:
    """(1, 0, 0, ...): the two-sided identity for the star product."""
    entries = [LevelFamily.build(ctx.p, 0, lambda n, a: 1, ctx.n_max)]
    for i in range(1, top + 1):
        entries.append(LevelFamily.zero(ctx.p, i, ctx.n_max))
    return tuple(entries)


def is_zero(mu: LevelFamily) -> bool:
    return all(not v for t in mu.tables for v in t.values())


def total_mass(mu: LevelFamily):
    return mu.tables[0][(0,) * mu.dim]


def value(mu: LevelFamily, n: int, point):
    return mu.tables[n][tuple(point)]
