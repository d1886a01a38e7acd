"""Exact rational arithmetic with p-adic views.

All scalars in this package are exact rationals, `int` or `fractions.Fraction`.
`exact` is the one gate into that domain: it puts a number in normal form and
refuses a float or a bool.  A "p-adic number" is an exact rational inspected
through its p-adic valuation and its residues (`repr_mod`).  Nothing here is
approximate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .record import Frozen

Rat = Fraction

#: valuation of zero; compares correctly against any integer valuation
INF = math.inf


class PIntegralityError(ValueError):
    """Raised when an operation needs a p-integral value and got none."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeContext(Frozen):
    """The fixed prime and the deepest stored level."""

    __slots__ = _fields = ("p", "n_max")

    def __init__(self, p: int, n_max: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        self._init(p, n_max)


def vp(x, p: int):
    """p-adic valuation of a rational; INF for x = 0."""
    if type(x) not in (int, Fraction):
        x = exact(x)
    num, den = x.as_integer_ratio()
    if num == 0:
        return INF
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def exact(x):
    """The normal form of a rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, (float, bool)):
            raise ValueError(f"{x} is a {type(x).__name__}, not an exact rational")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def repr_mod(c, p: int, n: int) -> int:
    """Canonical representative of c in [0, p^n).

    Works for any rational with denominator coprime to p: the denominator is
    inverted mod p^n, which matters because representatives of values such as
    chi(sigma)^{-1} * a are needed throughout.
    """
    m = p ** n
    if type(c) is int:
        return c % m
    c = exact(c)
    if m == 1:
        return 0
    if c.denominator % p == 0:
        raise PIntegralityError(f"{c} is not p-integral at p = {p}")
    return c.numerator * pow(c.denominator, -1, m) % m


def binom(c, k: int) -> Rat:
    """Generalized binomial coefficient c(c-1)...(c-k+1)/k!."""
    if k < 0:
        raise ValueError("k must be >= 0")
    c = exact(c)
    out = Fraction(1)
    for j in range(k):
        out *= (c - j)
    return out / math.factorial(k)


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Rat:
    """k-th Bernoulli number, convention B_1 = -1/2.

    Computed from sum_{j=0}^{k} C(k+1, j) B_j = 0 with B_0 = 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)
