"""Expanded-polynomial reference for the tests.

`MPoly` is a plain dense-dict polynomial over Q.  It stands in for the
library's integrands wherever a test wants an integrand written out term by
term (moments, products of binomials) or an independent expansion of the
standard integrand to compare the product-of-linear-forms form against.
"""

from __future__ import annotations

from fractions import Fraction

from zpmeasures.mpoly import accumulate
from zpmeasures.padic import vp


class MPoly:
    """Polynomial in x_0..x_{nvars-1}; coeffs maps exponent tuples to Fraction."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                self.coeffs[tuple(e)] = c

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        return cls(nvars, {tuple(int(k == i) for k in range(nvars)): 1})

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return MPoly.const(self.nvars, other)

    def __add__(self, other):
        out = dict(self.coeffs)
        accumulate(out, self._coerce(other).coeffs.items())
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            accumulate(out, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                             for e2, c2 in other.coeffs.items()))
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = MPoly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                term *= Fraction(x) ** k
            total += term
        return total

    def denominator_valuation(self, p: int) -> int:
        """max_k max(0, -vp(coeff_k)); 0 for the zero polynomial."""
        return max((max(0, -vp(c, p)) for c in self.coeffs.values()), default=0)


def expanded_standard_integrand(shape, base, pn, lift_first=0, lift_last=0, scale=1) -> MPoly:
    """The standard box integrand multiplied out into monomials."""
    r = len(base)
    first = (MPoly.const(r, base[0]) - MPoly.var(r, 0)) * Fraction(1, pn) + lift_first
    poly = first ** shape[0]
    for k in range(1, r):
        mid = (MPoly.var(r, k - 1) - MPoly.var(r, k) - base[k - 1] + base[k]) * Fraction(1, pn)
        poly = poly * mid ** shape[k]
    last = (MPoly.var(r, r - 1) - base[r - 1]) * Fraction(1, pn) + lift_last
    return poly * last ** shape[r] * Fraction(scale)
