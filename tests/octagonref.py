"""Point-by-point reference for the octagon's degree-2 display.

`degree2_display` writes the named-measure display of the degree-2 symmetry
at one point (a, b), rebuilding every term it needs.  The library builds the
display at all width^2 points at once (`octagon.degree2_displays`), sharing
what the points have in common; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from zpmeasures.classical import d2_value, m_value, n2_value
from zpmeasures.octagon import ONE, SymPoly, a_sym, b_sym, chi_sympoly, e1_sympoly, g_sym


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
    total = total + (n2_value(a, b, s, width, t) - M(a) * M(b)) * Fraction(1, 2)
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
