"""Small exact multivariate polynomials over Q.

Used for the polynomial integrands fed to Riemann sums (powers of
(x_k - i_k)/p^n and friends) and for truncated one-variable series work.
Coefficients are Fractions keyed by exponent tuples; nothing is ever
floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import vp


def accumulate(out: dict, pairs) -> None:
    """Add (key, coefficient) pairs into `out`, dropping keys that cancel.

    The one add-and-prune loop behind every sparse algebra of the package:
    coefficients may be Fractions or anything whose truth value says
    "nonzero" (such as the octagon module's SymPoly).
    """
    for k, c in pairs:
        if k in out:
            c = out[k] + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)


class MPoly:
    """Polynomial in x_0..x_{nvars-1}; coeffs maps exponent tuples to Fraction."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[tuple(e)] = c

    @classmethod
    def _trusted(cls, nvars: int, coeffs: dict) -> "MPoly":
        """Wrap a dict that already maps exponent tuples to nonzero Fractions."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.coeffs = coeffs
        return out

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        accumulate(out, other.coeffs.items())
        return MPoly._trusted(self.nvars, out)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return MPoly._trusted(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            accumulate(out, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                             for e2, c2 in other.coeffs.items()))
        return MPoly._trusted(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k: int):
        out = MPoly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return MPoly.const(self.nvars, other)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.coeffs == other.coeffs

    def evaluate(self, point) -> Fraction:
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= x ** k
            total += term
        return total

    def denominator_valuation(self, p: int) -> int:
        """max_k max(0, -vp(coeff_k)); 0 for the zero polynomial."""
        worst = 0
        for c in self.coeffs.values():
            worst = max(worst, -min(0, vp(c, p)))
        return worst

    def __repr__(self):
        if not self.coeffs:
            return "MPoly(0)"
        bits = []
        for e in sorted(self.coeffs):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"{self.coeffs[e]}*{mono}")
        return "MPoly(" + " + ".join(bits) + ")"

