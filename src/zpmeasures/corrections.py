"""Change-of-variable identities for box integrals of the standard integrand.

The integrand over a box a + p^n (Z_p)^r is

    ((a_1 - x_1)/p^n)^{n_0} * prod_k ((x_k - x_{k+1} - a_k + a_{k+1})/p^n)^{n_k}
                            * ((x_r - a_r)/p^n)^{n_r}

a product of linear forms.  It is kept as that product, never expanded: each
factor is evaluated at the point in integers.  `box_integral` sums the
weighted products over a box and divides by p^(n * sum(shape)) once per box;
the identities here compare the sums themselves, over that shared factor, and
divide at most once per identity.  The integrand's worst coefficient
valuation, as an expanded polynomial, is known without expanding it: every
factor's coefficients have valuation >= -n, and the lex-leading monomial of
the product has coefficient exactly +-1/p^(n * sum(shape)).

These identities relate its integral against sign/shift pushforwards of a
measure to integrals over reflected/shifted boxes.  They are exact only when
the integrand is evaluated at the true points of the measure, so they are
stated for exact Dirac combinations, not for level tables.
"""

from __future__ import annotations

from fractions import Fraction

from .measures import DiracCombo
from .padic import Rat, exact, vp


class LinearFormIntegrand:
    """scale * prod of the standard linear forms over the box at `base`.

    lift_first/lift_last add the +-1 corrections that appear after
    reflecting a box: the first factor becomes (a_1 - x_1)/p^n + lift_first
    and the last (x_r - a_r)/p^n + lift_last.
    """

    __slots__ = ("shape", "base", "pn", "lift_first", "lift_last", "scale", "nvars")

    def __init__(self, shape, base, pn: int, lift_first=0, lift_last=0, scale=1):
        if len(shape) != len(base) + 1:
            raise ValueError("need r+1 exponents for r variables")
        self.shape, self.base, self.pn = tuple(shape), tuple(base), pn
        self.lift_first, self.lift_last = exact(lift_first), exact(lift_last)
        self.scale = exact(scale)
        self.nvars = len(self.base)

    @property
    def factor(self) -> Rat:
        """scale / p^(n * sum(shape)), the one division of a box integral."""
        return Fraction(self.scale, self.pn ** sum(self.shape))

    def forms(self, point):
        """The unscaled product of the linear forms: an integer at an integer point."""
        a, pn, shape, r = self.base, self.pn, self.shape, len(self.base)
        value = (a[0] - point[0] + pn * self.lift_first) ** shape[0]
        for k in range(1, r):
            value *= (point[k - 1] - point[k] - a[k - 1] + a[k]) ** shape[k]
        return value * (point[r - 1] - a[r - 1] + pn * self.lift_last) ** shape[r]

    def denominator_valuation(self, p: int) -> int:
        """Worst denominator valuation of the expanded polynomial's coefficients."""
        if not self.scale:
            return 0
        return max(0, -vp(self.scale, p) + vp(self.pn, p) * sum(self.shape))


def _moved_box_sum(beta: DiracCombo, base, shape, p: int, n: int, e: int, c: int) -> Rat:
    """The integral of beta over the box that x -> e*x + c (e = +-1) sends onto
    the box at `base`, over its factor 1/p^(n * sum(shape)) (`DiracCombo.box_sum`);
    a reflection (e = -1) lifts the end factors by -1, +1."""
    pn = p ** n
    if e < 0:
        box, lifts = [pn + c - a for a in base], (-1, 1)
    else:
        box, lifts = [a - c for a in base], (0, 0)
    return beta.box_sum(box, n, LinearFormIntegrand(shape, box, pn, *lifts), p)


def change_of_variables(lhs_beta: DiracCombo, beta: DiracCombo, base, shape,
                        p: int, n: int, e: int, c: int):
    """The change of variables x -> e*x + c (e = +-1), as its two sides over
    their shared factor 1/p^(n * sum(shape)): the integral over the base box
    against the pushforward of lhs_beta, and e^sum(shape) times the integral
    of beta over the box that the map sends onto the base box.  They are equal
    exactly when the integrals are, as when lhs_beta is beta.  The suite runs
    (e, c) = (-1, 0), x -> -x; (-1, 1), x -> 1 - x; and (1, 1), x -> x + 1."""
    moved = lhs_beta.pushforward_affine(e, c)
    return (_moved_box_sum(moved, base, shape, p, n, 1, 0),
            e ** sum(shape) * _moved_box_sum(beta, base, shape, p, n, e, c))


def four_term_sum(beta: DiracCombo, base, shape, p: int, n: int) -> Rat:
    """The alternating four-box sum, scaled by its shared factor once; zero
    for measures fixed by the sign flip (beta even), the degenerate case of
    the symmetry defect."""
    sign = (-1) ** sum(shape)
    t1, t2, t3, t4 = (_moved_box_sum(beta, base, shape, p, n, e, c)
                      for e, c in ((1, 0), (-1, 0), (-1, 1), (1, 1)))
    return Fraction(t1 - sign * t2 + sign * t3 - t4, p ** (n * sum(shape)))
