"""Point-by-point references for the octagon's degree-2 display.

`degree2_display` writes the named-measure display of the degree-2 symmetry
at one point (a, b), rebuilding every term it needs.  The library builds the
display at all width^2 points at once (`octagon.degree2_displays`), sharing
what the points have in common; the tests compare the two.

`chi1_residuals_reference` is the chi = 1 comparison written on its own: the
chi = 1 display (`degree2_display_chi1`) against the product's t = 0
coefficients, reduced by the substitution eliminated from the t = 0
reflection relations.  The library reads the same comparison off the s = 1
residuals at t = 0.

`eliminate` is a general Gauss-style elimination: it solves any relations
linear in some symbol, picking pivots in a preferred order, and back-
substitutes to keep the substitution triangular.  `standard_substitution`
eliminates the reflection and degree-1 relations together from scratch.  The
library solves the reflection relations in closed form
(`octagon.reflection_map`), with the degree-1 relations joining nothing;
the tests check that both give the same substitution.

`shuffle_substitution` rewrites each b_{x,y} with x >= y by the shuffle
relations, which a group-like series satisfies.  The library's degree-2
check reduces modulo the reflection relations only; the tests extend the
reflection map with this rewrite to exercise `octagon.reduce`.

`generic_series_by_subst` writes out the generic cocycle series under the
C, E or G generator substitution term by term.  The library substitutes the
image logs into factor A's display (`NcSeries.substitute`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from zpmeasures.classical import d2_value, m_value, n2_value
from zpmeasures.magnus import NcSeries, X, word_log2
from zpmeasures.octagon import (ONE, ZERO, SymPoly, a_sym, b_sym, chi_sympoly,
                                deg1_relations, e1_sympoly, g_sym, reduce,
                                reflection_relations, substitution_images, unit_series)

from seriesref import accumulate, homogeneous


def degree2_display(a: int, b: int, p: int, n: int, s: int) -> SymPoly:
    """The sum of named-measure terms expressing the degree-2 symmetry,
    evaluated at the point (a, b) of level n."""
    width = p ** n
    one_m_chi = ONE - chi_sympoly(p, n, s)
    half = one_m_chi * Fraction(1, 2)
    t = SymPoly.t()
    al = lambda x: a_sym(x, width)
    g = lambda x: g_sym(x, width)
    M = lambda x: m_value(x, s, t)
    E = lambda x: e1_sympoly(x, p, n, s)
    # E(b) plus the (1 - chi) [b = 0] terms that share its cofactor
    Eb = E(b) + one_m_chi if b == 0 else E(b)

    total = b_sym(a, b, width) - b_sym(-a, -b, width) \
        + b_sym(s - a, s - b, width) - b_sym(a - s, b - s, width)
    total = total + (al(a - s) - al(-a) - E(a)) * Eb
    total = total + (al(a - s) - E(a)) * M(b)
    total = total + d2_value(a, b, width, al, g) \
        - d2_value((a - s) % width, (b - s) % width, width, al, g)
    total = total + (-(M(a) * M(b)) + n2_value(a, b, s, width, t)) * Fraction(1, 2)
    if a == 0:
        total = total + half * al(b) - one_m_chi * (E(b) + M(b))
        if b == 0:
            total = total - one_m_chi * one_m_chi * Fraction(7, 8)
    if a == s:
        total = total + (half - ONE) * al(s - b)
        if b == s:
            total = total + one_m_chi * one_m_chi * Fraction(1, 8)
    if b == s:
        total = total + al(s - a)
    return total


def degree2_display_chi1(a: int, b: int, width: int) -> SymPoly:
    """The chi = 1 form of the degree-2 identity (s = 1, t = 0) at (a, b)."""
    s = 1
    al = lambda x: a_sym(x, width)
    g = lambda x: g_sym(x, width)
    total = b_sym(a, b, width) - b_sym(-a, -b, width) \
        + b_sym(s - a, s - b, width) - b_sym(a - s, b - s, width)
    total = total + d2_value(a, b, width, al, g) \
        - d2_value((a - s) % width, (b - s) % width, width, al, g)
    if b == s:
        total = total + al(s - a)
    if a == s:
        total = total - al(s - b)
    return total


def chi1_residuals_reference(p: int, n: int, prod) -> dict:
    """The chi = 1 residual at every point (a, b), from the t = 0 reflection relations."""
    width = p ** n
    subst = eliminate([r.at_t0() for r in reflection_relations(p, n, 1)],
                      prefer=half_system(width))
    return {(a, b): reduce(degree2_display_chi1(a, b, width)
                           - prod.coeffs.get((a, b), ZERO).at_t0(), subst, {})
            for a, b in itertools.product(range(width), repeat=2)}


def symbols(poly: SymPoly) -> set:
    """Every symbol that occurs in `poly`."""
    return {sym for (_, syms) in poly.terms for sym in syms}


def symbol_coefficient(poly: SymPoly, sym) -> Fraction:
    """The rational coefficient of the bare symbol (t-free, linear); 0 if the
    symbol only occurs with t or in products."""
    return Fraction(poly.terms.get((0, (tuple(sym),)), 0), poly.den)


def half_system(width: int) -> list:
    """The symbols a_{-x} for x in the half-system 0 < x < width - x."""
    return [("a", width - x) for x in range(1, width) if width - x > x]


def eliminate(relations, prefer=()) -> dict:
    """The triangular substitution solving `relations`, one at a time.

    Each relation is reduced by the substitution so far; if anything is left,
    its pivot is the first `prefer` symbol with a rational coefficient, else
    the last such symbol, and the solved pivot is back-substituted into the
    earlier images.  Raises ValueError for a relation left with no pivot (a
    nonzero constant, say) and for a relation the finished substitution does
    not reduce to zero.
    """
    subst = {}
    for rel in relations:
        rel = reduce(rel, subst, {})
        if not rel:
            continue
        candidates = [sym for sym in sorted(symbols(rel)) if symbol_coefficient(rel, sym)]
        if not candidates:
            raise ValueError(f"unresolvable relation: {rel}")
        pick = next((want for want in prefer if want in candidates), candidates[-1])
        solved = SymPoly.symbol(pick) - rel * (1 / symbol_coefficient(rel, pick))
        for k in subst:
            subst[k] = reduce(subst[k], {pick: solved}, {})
        subst[pick] = solved
    for rel in relations:
        if reduce(rel, subst, {}):
            raise ValueError(f"reduction is not idempotent on input: {rel}")
    return subst


def standard_substitution(p: int, n: int, s: int, prod) -> dict:
    """The reflection and degree-1 relations of `prod`, eliminated together."""
    rels = reflection_relations(p, n, s) + deg1_relations(prod)
    return eliminate(rels, prefer=half_system(p ** n))


def shuffle_substitution(width: int) -> dict:
    """b_{x,y} with x > y rewrites to a_x a_y - b_{y,x}; b_{x,x} to a_x^2/2."""
    mapping = {}
    for x in range(width):
        mapping[("b", x, x)] = a_sym(x, width) * a_sym(x, width) * Fraction(1, 2)
        for y in range(x):
            mapping[("b", x, y)] = a_sym(x, width) * a_sym(y, width) - b_sym(y, x, width)
    return mapping


def generic_series_by_subst(name: str, p: int, n: int, s: int):
    """1 + sum a_i Y_i + sum b_{a,b} Y_a Y_b + sum g_i [X, Y_i] with each
    generator replaced by the log of its image word, past degree 2: Y_i by
    the whole log, and in the quadratic terms each letter by the log's
    degree-1 part."""
    width = p ** n
    logs = {gen: word_log2(word) for gen, word in substitution_images(name, p, n, s).items()}
    deg1 = {gen: NcSeries(log.p, log.level, log.degree, homogeneous(log, 1))
            for gen, log in logs.items()}
    result = unit_series(p, n)

    def add(series, sym):
        accumulate(result.coeffs, series.scaled(sym).coeffs.items())

    for i in range(width):
        add(logs[i], a_sym(i, width))
    for a, b in itertools.product(range(width), repeat=2):
        add(deg1[a] * deg1[b], b_sym(a, b, width))
    for i in range(width):
        add(deg1[X] * deg1[i] + (deg1[i] * deg1[X]).scaled(-1), g_sym(i, width))
    return result
