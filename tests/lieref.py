"""The `Fraction` reference for the Lie check.

`series_log` sums (-1)^(k+1) (s - 1)^k / k with one `Fraction` per term, and
`log_lie_check` reads the Dynkin-Specht-Wever criterion off that log.  The
library's `magnus.log_lie_check` runs on an integer kernel
(`magnus._log_kernel`), K L^D log s for L the lcm of the denominators, D the
degree and K = lcm(1..D); the tests check the two agree.
"""

from __future__ import annotations

from fractions import Fraction

from zpmeasures.magnus import NcSeries

from seriesref import accumulate, homogeneous


def series_log(s: NcSeries) -> NcSeries:
    """log of a series with constant term 1, truncated at the series degree."""
    if s.coeff(()) != 1:
        raise ValueError("log needs constant term 1")
    u = NcSeries(s.p, s.level, s.degree, {m: c for m, c in s.coeffs.items() if m})  # s - 1
    out = NcSeries(s.p, s.level, s.degree, {})
    power = NcSeries.one(s.p, s.level, s.degree)
    for k in range(1, s.degree + 1):
        power = power * u
        out = out + power.scaled(Fraction((-1) ** (k + 1), k))
    return out


def left_bracketing(mono: tuple) -> dict:
    """Dynkin map on one monomial: w = g1..gd -> [[g1,g2],...,gd]."""
    out = {mono[:1]: Fraction(1)}
    for g in mono[1:]:
        nxt = {}
        for m, c in out.items():
            accumulate(nxt, ((m + (g,), c), ((g,) + m, -c)))
        out = nxt
    return out


def log_lie_check(s: NcSeries) -> bool:
    """True iff each homogeneous part L of degree d of log(s) has
    left-bracketing image d * L."""
    logs = series_log(s)
    for d in range(1, s.degree + 1):
        comp = homogeneous(logs, d)
        image = {}
        for m, c in comp.items():
            accumulate(image, ((mm, c * cc) for mm, cc in left_bracketing(m).items()))
        if image != {m: d * c for m, c in comp.items()}:
            return False
    return True
