"""Change-of-variable identities for box integrals of the standard integrand.

The integrand over a box a + p^n (Z_p)^r is

    ((a_1 - x_1)/p^n)^{n_0} * prod_k ((x_k - x_{k+1} - a_k + a_{k+1})/p^n)^{n_k}
                            * ((x_r - a_r)/p^n)^{n_r}

These identities relate its integral against sign/shift pushforwards of a
measure to integrals over reflected/shifted boxes.  They are exact only when
the integrand is evaluated at the true points of the measure, so they are
stated for exact Dirac combinations, not for level tables.
"""

from __future__ import annotations

from fractions import Fraction

from .measures import DiracCombo
from .mpoly import MPoly
from .padic import Rat


def standard_integrand(shape, base, pn: int, lift_first=0, lift_last=0) -> MPoly:
    """The box integrand; lift_first/lift_last add the +-1 corrections that
    appear after reflecting a box."""
    r = len(base)
    if len(shape) != r + 1:
        raise ValueError("need r+1 exponents for r variables")
    first = (MPoly.const(r, base[0]) - MPoly.var(r, 0)) * Fraction(1, pn) \
        + MPoly.const(r, lift_first)
    poly = first ** shape[0]
    for k in range(1, r):
        mid = (MPoly.var(r, k - 1) - MPoly.var(r, k)
               - base[k - 1] + base[k]) * Fraction(1, pn)
        poly = poly * mid ** shape[k]
    last = (MPoly.var(r, r - 1) - MPoly.const(r, base[r - 1])) * Fraction(1, pn) \
        + MPoly.const(r, lift_last)
    return poly * last ** shape[r]


def sign_change_identity(beta: DiracCombo, base, shape, p: int, n: int):
    """x -> -x: integral over the base box against the sign pushforward
    equals (-1)^m times the integral over the reflected box."""
    pn = p ** n
    m = sum(shape)
    flipped = beta.pushforward_affine([(-1, 0)] * beta.dim)
    lhs = flipped.box_integral_exact(base, n, standard_integrand(shape, base, pn), p)
    refl = [pn - a for a in base]
    rhs = (-1) ** m * beta.box_integral_exact(
        refl, n, standard_integrand(shape, refl, pn, -1, 1), p)
    return lhs, rhs


def reflect_shift_identity(beta: DiracCombo, base, shape, p: int, n: int):
    """x -> 1 - x: same pattern with the box reflected through 1."""
    pn = p ** n
    m = sum(shape)
    moved = beta.pushforward_affine([(-1, 1)] * beta.dim)
    lhs = moved.box_integral_exact(base, n, standard_integrand(shape, base, pn), p)
    refl = [pn + 1 - a for a in base]
    rhs = (-1) ** m * beta.box_integral_exact(
        refl, n, standard_integrand(shape, refl, pn, -1, 1), p)
    return lhs, rhs


def shift_identity(beta: DiracCombo, base, shape, p: int, n: int):
    """x -> x - 1: the box and the base both slide down by one."""
    pn = p ** n
    moved = beta.pushforward_affine([(1, 1)] * beta.dim)
    lhs = moved.box_integral_exact(base, n, standard_integrand(shape, base, pn), p)
    down = [a - 1 for a in base]
    rhs = beta.box_integral_exact(down, n, standard_integrand(shape, down, pn), p)
    return lhs, rhs


def four_term_sum(beta: DiracCombo, base, shape, p: int, n: int) -> Rat:
    """The alternating four-box sum; identically zero for measures fixed by
    the sign flip (beta even), the degenerate case of the symmetry defect."""
    pn = p ** n
    m = sum(shape)
    t1 = beta.box_integral_exact(base, n, standard_integrand(shape, base, pn), p)
    refl = [pn - a for a in base]
    t2 = beta.box_integral_exact(refl, n, standard_integrand(shape, refl, pn, -1, 1), p)
    refl1 = [pn + 1 - a for a in base]
    t3 = beta.box_integral_exact(refl1, n, standard_integrand(shape, refl1, pn, -1, 1), p)
    down = [a - 1 for a in base]
    t4 = beta.box_integral_exact(down, n, standard_integrand(shape, down, pn), p)
    return t1 + (-1) ** (m + 1) * t2 + (-1) ** m * t3 - t4
