"""Series helpers only the tests read.

`accumulate` is the references' own add-and-prune loop.  It is written apart
from the library's `magnus.accumulate`, so a fault in the engine's loop
cannot pass both the engine and its references.

`homogeneous`, `project_series` and `exp_transform_roundtrip` check the
library's series against facts no report reads: the covering projection of
a whole series, and the exponential transform of a word's measure rebuilt
from its level-0 coefficients.

`exp_gen` and `reference_embedding` spell the embedding letter by letter, one
`NcSeries` product of Fraction series per raw letter, against which the
library's divided-power `embed_E` is checked.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from zpmeasures.magnus import NcSeries, X, beta_measures, word_tower
from zpmeasures.measures import transform_F
from zpmeasures.padic import vp


def accumulate(out: dict, pairs) -> None:
    """Add (key, coefficient) pairs into `out`; a key whose sum is zero leaves."""
    for k, c in pairs:
        total = out[k] + c if k in out else c
        if total:
            out[k] = total
        else:
            out.pop(k, None)


def homogeneous(s: NcSeries, d: int) -> dict:
    return {m: c for m, c in s.coeffs.items() if len(m) == d}


def exp_gen(p, level, degree, gen: int, k: int) -> NcSeries:
    """exp(k * generator), k an integer; k = 0 gives the unit series."""
    return NcSeries(p, level, degree,
                    {(gen,) * j: Fraction(k ** j, math.factorial(j))
                     for j in range(degree + 1 if k else 1)})


def reference_embedding(p, level, letters, degree) -> NcSeries:
    """embed_E spelled letter by letter: one exp_gen factor per raw letter."""
    out = NcSeries.one(p, level, degree)
    for g, e in letters:
        out = out * exp_gen(p, level, degree, g, e)
    return out


def project_series(s: NcSeries, n: int) -> NcSeries:
    """`NcSeries.substitute` of X -> p^m X, Y_{i+k p^n} -> exp(-kX) Y_i exp(kX)."""
    if n > s.level:
        raise ValueError("can only project downward")
    p = s.p
    pn = p ** n
    pm = p ** (s.level - n)
    images = {X: NcSeries(p, n, s.degree, {(X,): Fraction(pm)})}
    for g in range(p ** s.level):
        i, k = g % pn, g // pn
        images[g] = exp_gen(p, n, s.degree, X, -k) \
            * NcSeries(p, n, s.degree, {(i,): Fraction(1)}) \
            * exp_gen(p, n, s.degree, X, k)
    return s.substitute(images)


def exp_transform_roundtrip(g, r: int, terms: int):
    """Build the exponential transform of the dimension-r measure two ways.

    Route A evaluates moments of the level tables.  Route B rebuilds the same
    series from the level-0 coefficients of the word, summing
    lambda_w * prod_k (-(X_{k+1} + ... + X_r))^{n_k} over X-block shapes.
    Returns (route_a, route_b, per-coefficient ok) with comparisons made
    within route A's congruence guarantees; route B maps exponent tuples to
    coefficients.
    """
    tower = word_tower(g, [r + terms] + [r] * g.level)
    beta_r = beta_measures(g, r, tower)
    route_a = transform_F(beta_r, terms, g.level)

    s0 = tower[0]
    total = {}
    for shape in itertools.product(range(terms + 1), repeat=r):
        if sum(shape) > terms:
            continue
        mono = ()
        for nk in shape:
            mono += (X,) * nk + (0,)
        lam = s0.coeff(mono)
        if not lam:
            continue
        term = {(0,) * r: lam}
        for k, nk in enumerate(shape):
            for _ in range(nk):  # multiply by -(X_{k+1} + ... + X_r)
                nxt = {}
                for e, c in term.items():
                    accumulate(nxt, ((e[:i] + (e[i] + 1,) + e[i + 1:], -c)
                                     for i in range(k, r)))
                term = nxt
        accumulate(total, term.items())

    ok = {}
    for j in itertools.product(range(terms + 1), repeat=r):
        if sum(j) > terms:
            continue
        diff = route_a.coefficient(j) - total.get(j, Fraction(0))
        ok[j] = vp(diff, g.p) >= route_a.guarantees[j]
    return route_a, total, ok
