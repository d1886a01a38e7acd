"""Expanded-polynomial references for the tests.

`MPoly` is a plain dense-dict polynomial over Q.  It stands in for the
library's integrands wherever a test wants an integrand written out term by
term (moments, products of binomials) or an independent expansion of the
standard integrand to compare the product-of-linear-forms form against.

`FracSymPoly` is the octagon's polynomial in t and the indexed symbols with
one `Fraction` per coefficient.  The library's `octagon.SymPoly` keeps
integer numerators over one denominator; the tests check the two agree, and
`sympoly` builds the library's form from rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from zpmeasures.octagon import SymPoly, sym_name
from zpmeasures.padic import vp

from seriesref import accumulate


class MPoly:
    """Polynomial in x_0..x_{nvars-1}; coeffs maps exponent tuples to Fraction."""

    __slots__ = ("nvars", "coeffs")
    factor = 1  # as a `measures.box_integral` integrand: its value is factor * forms(point)

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

    forms = evaluate

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


def sympoly(terms: dict) -> SymPoly:
    """The `octagon.SymPoly` with these rational coefficients: their numerators
    over the lcm of their denominators, which the constructor cancels."""
    terms = {k: Fraction(c) for k, c in terms.items() if c}
    den = lcm(*(c.denominator for c in terms.values()))
    return SymPoly({k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den)


class FracSymPoly:
    """Sparse polynomial in t and the indexed symbols, one Fraction per
    coefficient; keys are (t exponent, sorted symbol tuple)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, c) -> "FracSymPoly":
        return cls({(0, ()): c})

    @classmethod
    def of(cls, poly) -> "FracSymPoly":
        """The reference copy of an `octagon.SymPoly`."""
        return cls({k: Fraction(c, poly.den) for k, c in poly.terms.items()})

    def _coerce(self, other) -> "FracSymPoly":
        return other if isinstance(other, FracSymPoly) else FracSymPoly.const(other)

    def __add__(self, other):
        out = dict(self.terms)
        accumulate(out, self._coerce(other).terms.items())
        return FracSymPoly(out)

    def __neg__(self):
        return FracSymPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracSymPoly({k: c * other for k, c in self.terms.items()})
        out = {}
        for (t1, s1), c1 in self.terms.items():
            accumulate(out, (((t1 + t2, tuple(sorted(s1 + s2))), c1 * c2)
                             for (t2, s2), c2 in other.terms.items()))
        return FracSymPoly(out)

    def __eq__(self, other):
        return self.terms == self._coerce(other).terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def subs_t(self, value) -> "FracSymPoly":
        value = Fraction(value)
        out = {}
        accumulate(out, (((0, syms), c * value ** te)
                         for (te, syms), c in self.terms.items() if value or not te))
        return FracSymPoly(out)

    def substitute(self, mapping) -> "FracSymPoly":
        out = {}
        for (te, syms), c in self.terms.items():
            term = FracSymPoly({(te, tuple(x for x in syms if x not in mapping)): c})
            for sym in syms:
                if sym in mapping:
                    term = term * mapping[sym]
            accumulate(out, term.terms.items())
        return FracSymPoly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (te, syms) in sorted(self.terms, key=lambda k: (len(k[1]), k[1], k[0])):
            factors = [sym_name(s) for s in syms]
            if te == 1:
                factors.append("t")
            elif te > 1:
                factors.append(f"t^{te}")
            bits.append(f"{self.terms[(te, syms)]}*{'*'.join(factors) or '1'}")
        return " + ".join(bits)
