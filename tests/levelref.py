"""Level-table references for the tests.

`build_fraction` is `LevelFamily.build` with every stored value a `Fraction`
and `denom_bound` read off each nonzero entry's valuation.  The library's
build stores each value in normal form (an `int` when integral, otherwise a
`Fraction`) and reads the valuation of the non-integral ones only; within
`fraction_tables()` every builder tabulates through the reference, so the
tests can check the two give the same tables and bound.

`unit_sequence`, `is_zero`, `total_mass` and `value` are conveniences only
the tests read.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from zpmeasures.measures import GradedSequence, LevelFamily, residues
from zpmeasures.padic import PrimeContext, vp


def build_fraction(cls, ctx: PrimeContext, dim: int, fn, n_max=None) -> LevelFamily:
    """Tabulate fn(n, point) for all stored levels, one Fraction per value."""
    if n_max is None:
        n_max = ctx.n_max
    tables = []
    worst = 0
    for n in range(n_max + 1):
        table = {}
        for a in residues(ctx.p, n, dim):
            v = Fraction(fn(n, a))
            table[a] = v
            if v:
                worst = max(worst, -min(0, vp(v, ctx.p)))
        tables.append(table)
    return cls(ctx, dim, tuple(tables), worst)


@contextmanager
def fraction_tables():
    """Within the block, `LevelFamily.build` is `build_fraction`."""
    real = LevelFamily.__dict__["build"]
    LevelFamily.build = classmethod(build_fraction)
    try:
        yield
    finally:
        LevelFamily.build = real


def unit_sequence(ctx: PrimeContext, top: int) -> GradedSequence:
    """(1, 0, 0, ...): the two-sided identity for the star product."""
    entries = [LevelFamily.build(ctx, 0, lambda n, a: 1)]
    for i in range(1, top + 1):
        entries.append(LevelFamily.zero(ctx, i))
    return GradedSequence(tuple(entries))


def is_zero(mu: LevelFamily) -> bool:
    return all(not v for t in mu.tables for v in t.values())


def total_mass(mu: LevelFamily):
    return mu.tables[0][(0,) * mu.dim]


def value(mu: LevelFamily, n: int, point):
    return mu.tables[n][tuple(point)]
