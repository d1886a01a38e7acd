"""Symbolic verification of the octagonal relation mod cubes of the
augmentation ideal.

Coefficients live in a polynomial ring with formal symbols a_i (degree-1
coefficients of the cocycle series), b_{a,b} (degree-2), g_i (the
dilogarithm coefficients at X Y_i) and the deviation parameter t: the
cyclotomic value is modeled as chi = s + p^n t with s a fixed unit residue,
which turns every coefficient into an exact polynomial in t.  The named
measures M, E_{1,chi}, N2 and D2 are the point formulas of `classical`,
evaluated with this symbolic t.

The nine factors of the octagonal product are defined explicitly below, and
the product is truncated past degree 2.  The external reflection relation
a_x - a_{-x} = E_{1,chi}(x) (+ (1 - chi)/2 at x = 0) is solved in closed
form, a_{-x} -> a_x - E_{1,chi}(x) for x in a half-system
(`reflection_map`); no image holds a mapped symbol, so one substitution is
a normal form modulo the reflection ideal.  Under it each degree-1
coefficient of the product (one relation per Y_i) must reduce to 0, and the
degree-2 coefficients must reduce to the named-measure form of the symmetry
of the two-variable cocycle measure.  Three of the factors are additionally
re-derived as substitution images of factor A, an independent cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .classical import d2_value, e1_value, m_value, mpos, n2_value
from .magnus import FreeWord, NcSeries, X, accumulate, word_log2
from .padic import exact, is_prime

# Symbols are tuples: ('a', i), ('b', i, j), ('g', i).  t is tracked as a
# separate exponent in each monomial key (t_exp, symbol_tuple).


def sym_name(sym) -> str:
    kind = sym[0]
    if kind == "b":
        return f"b_{{{sym[1]},{sym[2]}}}"
    return f"{kind}_{sym[1]}"


class SymPoly:
    """Sparse polynomial in t and the indexed symbols, exact coefficients:
    nonzero integer numerators over one positive denominator `den`, in lowest
    terms.  Each result is normalized once, not once per coefficient."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int = 1):
        """Nonzero integer numerators over den > 0; their gcd with den is cancelled."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms, den = {k: c // g for k, c in terms.items()}, den // g
        self.terms, self.den = terms, den

    @classmethod
    def const(cls, c) -> "SymPoly":
        c = exact(c)
        return cls({(0, ()): c.numerator} if c else {}, c.denominator)

    @classmethod
    def t(cls) -> "SymPoly":
        return cls({(1, ()): 1})

    @classmethod
    def symbol(cls, sym) -> "SymPoly":
        return cls({(0, (tuple(sym),)): 1})

    def __add__(self, other, sign: int = 1):
        other = _coerce(other)
        out = dict(self.terms)
        return SymPoly(out, _merge(out, self.den, other.terms, other.den, sign))

    __radd__ = __add__

    def __neg__(self):
        return SymPoly({k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar: no coercion, no key sort
            terms = {k: c * other.numerator for k, c in self.terms.items()} if other else {}
            return SymPoly(terms, self.den * other.denominator)
        out = {}
        for (t1, s1), c1 in self.terms.items():
            accumulate(out, (((t1 + t2, tuple(sorted(s1 + s2))), c1 * c2)
                             for (t2, s2), c2 in other.terms.items()))
        return SymPoly(out, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        return self.den == other.den and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def at_t0(self) -> "SymPoly":
        """The image under t = 0: the t-free terms."""
        return SymPoly({k: c for k, c in self.terms.items() if not k[0]}, self.den)

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
            c = str(Fraction(self.terms[(te, syms)], self.den))
            bits.append(f"{c}*{'*'.join(factors) or '1'}")
        return " + ".join(bits)

    __repr__ = __str__


def _merge(out: dict, den: int, terms: dict, tden: int, mult: int = 1) -> int:
    """Add mult * terms / tden into the numerators `out` over `den`, in place;
    return the common denominator, lcm(den, tden)."""
    if den % tden:
        scale = tden // gcd(den, tden)
        for k in out:
            out[k] *= scale
        den *= scale
    f = mult * (den // tden)
    accumulate(out, terms.items() if f == 1 else
               zip(terms, map(f.__mul__, terms.values()), strict=True))
    return den


def _coerce(x) -> SymPoly:
    if isinstance(x, SymPoly):
        return x
    return SymPoly.const(x)


ZERO = SymPoly({})
ONE = SymPoly.const(1)


def a_sym(i: int, width: int) -> SymPoly:
    return SymPoly.symbol(("a", i % width))

def b_sym(i: int, j: int, width: int) -> SymPoly:
    return SymPoly.symbol(("b", i % width, j % width))

def g_sym(i: int, width: int) -> SymPoly:
    return SymPoly.symbol(("g", i % width))


def chi_sympoly(p: int, n: int, s: int) -> SymPoly:
    """The cyclotomic value chi = s + p^n t."""
    return SymPoly.const(s) + SymPoly.const(p ** n) * SymPoly.t()


# ---------------------------------------------------------------------------
# Octagon series: NcSeries of degree 2 with SymPoly coefficients


def unit_series(p: int, n: int) -> NcSeries:
    """The series 1 at level n, truncated past degree 2."""
    return NcSeries(p, n, 2, {(): ONE})


# ---------------------------------------------------------------------------
# The nine factors


def check_config(p: int, n: int, s: int):
    if not is_prime(p):
        raise ValueError("p must be prime")
    width = p ** n
    if not (1 <= s < width) or s % p == 0:
        raise ValueError("s must be a unit residue in [1, p^n)")
    return width


def bracket(series: NcSeries, g, h, c) -> None:
    """Add c[g, h] = c (gh - hg) to the series."""
    series.add_term((g, h), c)
    series.add_term((h, g), -c)


def build_factor(name: str, p: int, n: int, s: int) -> NcSeries:
    """One of the nine displayed factors, verbatim, with chi = s + p^n t.

    Index p^n is read as 0 and empty products of generators are 1.
    """
    width = check_config(p, n, s)
    t = SymPoly.t()
    half = (ONE - chi_sympoly(p, n, s)) * Fraction(1, 2)  # (1 - chi)/2
    out = unit_series(p, n)

    if name == "A":
        for i in range(width):
            out.add_term((i,), a_sym(i, width))
        for a, b in itertools.product(range(width), repeat=2):
            out.add_term((a, b), b_sym(a, b, width))
        for i in range(width):
            bracket(out, X, i, g_sym(i, width))
        return out

    if name == "B":
        out.add_term((0,), half)
        out.add_term((0, 0), half * half * Fraction(1, 2))
        return out

    if name == "C":
        for i in range(width):
            out.add_term((i,), -a_sym(width - i, width))
        # the mixed terms start at i = 1: the y_0 image is y_0 itself, so the
        # substitution that produces this factor yields no X Y_0 bracket
        for i in range(1, width):
            bracket(out, X, i, -a_sym(width - i, width))
        for b in range(1, width):
            for a in range(b + 1, width + 1):
                out.add_term((a % width, b), -a_sym(width - b, width))
        for a in range(1, width):
            for b in range(a + 1, width + 1):
                out.add_term((a, b % width), a_sym(width - a, width))
        for a, b in itertools.product(range(width), repeat=2):
            out.add_term((a, b), -b_sym(-a, -b, width))
        for b in range(width):
            out.add_term((X, b), g_sym(-b, width))
            for a in range(width):
                out.add_term((a, b), g_sym(-b, width))
        for a in range(width):
            out.add_term((a, X), -g_sym(-a, width))
            for b in range(width):
                out.add_term((a, b), -g_sym(-a, width))
        for a, b in itertools.product(range(width), repeat=2):
            out.add_term((a, b), a_sym(width - a, width) * a_sym(width - b, width))
        return out

    if name == "D":
        out.add_term((X,), t)
        for i in range(width):
            out.add_term((i,), t)
        bracket(out, 0, X, t * Fraction(1, 2))
        for i in range(width):
            bracket(out, X, i, t * Fraction(1, 2))
        for a, b in itertools.product(range(width), repeat=2):
            ma, mb = mpos(a, width), mpos(b, width)
            if mb < ma:
                out.add_term((a, b), t * Fraction(1, 2))
            elif ma < mb:
                out.add_term((a, b), -t * Fraction(1, 2))
        half_t2 = t * t * Fraction(1, 2)
        for a, b in itertools.product(range(width), repeat=2):
            out.add_term((a, b), half_t2)
        for i in range(width):
            out.add_term((X, i), half_t2)
            out.add_term((i, X), half_t2)
        return out

    if name == "E":
        for a in range(1, s + 1):
            coef = a_sym(s - a, width)
            out.add_term((a,), coef)
            for j in range(1, a):
                bracket(out, a, j, coef)
        out.add_term((0,), a_sym(s, width))
        for a in range(s + 1, width):
            coef = a_sym(s - a, width)
            out.add_term((a,), coef)
            bracket(out, a, X, -coef)
            for j in range(a + 1, width + 1):
                bracket(out, a, j % width, -coef)
        for a, b in itertools.product(range(width), repeat=2):
            out.add_term((a, b), b_sym(s - a, s - b, width))
        for j in range(width):
            coef = g_sym(s - j, width)
            bracket(out, X, j, -coef)
            for k in range(width):
                bracket(out, k, j, -coef)
        return out

    if name == "F":
        out.add_term((s,), half)
        out.add_term((s, s), half * half * Fraction(1, 2))
        for i in range(1, s):
            bracket(out, s, i, half)
        return out

    if name == "G":
        for i in range(width):
            coef = a_sym(i - s, width)
            out.add_term((i,), -coef)
            for j in range(1, s):
                bracket(out, i, j, -coef)
        for i in range(s):
            coef = a_sym(i - s, width)
            bracket(out, i, X, -coef)
        for a, b in itertools.product(range(width), repeat=2):
            out.add_term((a, b), -b_sym(a - s, b - s, width))
        for i in range(width):
            bracket(out, X, i, -g_sym(i - s, width))
        for a, b in itertools.product(range(width), repeat=2):
            out.add_term((a, b), a_sym(a - s, width) * a_sym(b - s, width))
        return out

    if name == "H":
        out.add_term((X,), -t)
        for i in range(1, s):
            bracket(out, X, i, t)
        out.add_term((X, X), t * t * Fraction(1, 2))
        return out

    if name == "J":
        for i in range(1, s):
            out.add_term((i,), ONE)
        for j in range(1, s):
            for i in range(j + 1, s):
                bracket(out, i, j, SymPoly.const(Fraction(1, 2)))
        for a, b in itertools.product(range(1, s), repeat=2):
            out.add_term((a, b), SymPoly.const(Fraction(1, 2)))
        return out

    raise ValueError(f"unknown factor {name!r}")


# A, C and D do not read s, so a sweep builds them and their run D·C once: terms
# past degree 2 form a two-sided ideal, so the truncated product is associative.
PRODUCT_ORDER = ("J", "H", "G", "F", "E", "DC", "B", "A")
FACTOR_ORDER = ("J", "H", "G", "F", "E", "D", "C", "DC", "B", "A")


def residue_free_factors(p: int, n: int) -> dict:
    """A, C, D and the run D·C at level n; 1 is a unit residue at every n >= 1."""
    factors = {name: build_factor(name, p, n, 1) for name in "ACD"}
    factors["DC"] = factors["D"] * factors["C"]
    return factors


def build_factors(s: int, shared: dict) -> dict:
    """The nine factors at residue s and D·C; `shared`: `residue_free_factors(p, n)`."""
    A = shared["A"]
    return {name: shared[name] if name in shared else build_factor(name, A.p, A.level, s)
            for name in FACTOR_ORDER}


# perfbench/tracer.py keys a residue by the positional args[:3], (p, n, s)
def octagon_product(p: int, n: int, s: int, factors: dict) -> NcSeries:
    """The product J·H·G·F·E·D·C·B·A of the `build_factors(s, shared)`, past degree 2."""
    check_config(p, n, s)
    out = unit_series(p, n)
    for name in PRODUCT_ORDER:
        out = out * factors[name]
    return out


# ---------------------------------------------------------------------------
# The reflection ideal


def deg1_relations(prod: NcSeries):
    """The degree-1 coefficients of the product, one SymPoly per Y_i."""
    if prod.coeff(()) != ONE:
        raise ValueError("product must have constant term 1")
    return [prod.coeffs.get((i,), ZERO) for i in range(prod.p ** prod.level)]


def e1_sympoly(x: int, p: int, n: int, s: int) -> SymPoly:
    """E_{1,chi}(x) as a polynomial in t."""
    return e1_value(x, s, p ** n, SymPoly.t())


def reflection_relations(p: int, n: int, s: int):
    """The external reflection axiom, one relation per point:
    a_x - a_{-x} - E_{1,chi}(x) - (1-chi)/2 [x = 0]."""
    width = check_config(p, n, s)
    rels = []
    for x in range(width):
        rel = a_sym(x, width) - a_sym(-x, width) - e1_sympoly(x, p, n, s)
        if x == 0:
            rel = rel - (ONE - chi_sympoly(p, n, s)) * Fraction(1, 2)
        rels.append(rel)
    return rels


def reflection_map(p: int, n: int, s: int) -> dict:
    """The reflection relations solved for a_{-x}, x in the half-system
    0 < x < p^n - x: a_{-x} -> a_x - E_{1,chi}(x).  No image holds a mapped
    symbol, so one substitution is a normal form modulo the ideal."""
    width = check_config(p, n, s)
    return {("a", width - x): a_sym(x, width) - e1_sympoly(x, p, n, s)
            for x in range(1, width) if width - x > x}


def reduce(poly: SymPoly, mapping: dict, images: dict) -> SymPoly:
    """`poly` with each mapped symbol replaced by its image.  A monomial's image,
    its unmapped symbols times its mapped ones' images, is built once into the
    memo `images`, which the caller keeps for this one mapping."""
    out, den = {}, 1
    for key, c in poly.terms.items():
        if key not in images:
            te, syms = key
            image = SymPoly({(te, tuple(x for x in syms if x not in mapping)): 1})
            for sym in syms:
                if sym in mapping:
                    image = image * mapping[sym]
            images[key] = image
        den = _merge(out, den, images[key].terms, images[key].den, c)
    return SymPoly(out, den * poly.den)


# ---------------------------------------------------------------------------
# The degree-2 identity between named measures


def degree2_displays(s: int, prod: NcSeries) -> dict:
    """The named-measure display of the degree-2 symmetry minus the Y_a Y_b
    coefficient of `prod`, at every point (a, b) of its level n.  What depends
    on the residue or on a alone is built once, and D2 is tabulated once, then
    read at (a, b) and at (a - s, b - s)."""
    p, n = prod.p, prod.level
    width = p ** n
    one_m_chi = ONE - chi_sympoly(p, n, s)
    t = SymPoly.t()
    al = lambda x: a_sym(x, width)
    g = lambda x: g_sym(x, width)
    d2 = {(a, b): d2_value(a, b, width, al, g) for a, b in itertools.product(range(width), repeat=2)}
    e1 = [e1_sympoly(x, p, n, s) for x in range(width)]
    M = [m_value(x, s, t) for x in range(width)]
    # E(b) plus the (1 - chi) [b = 0] terms that share its cofactor
    Eb = [e1[0] + one_m_chi] + e1[1:]
    # The translated-cocycle x interpolation-measure product appears in the
    # grouping step of the derivation but is dropped from the final displayed
    # statement; without it the residual is exactly -T_chi(alpha).M(chi).
    cofactors = [(al(a - s) - al(-a) - e1[a], al(a - s) - e1[a]) for a in range(width)]

    out = {}
    for a, b in d2:
        # (poly, num, div): the display is the sum of poly * num / div
        parts = [(b_sym(a, b, width), 1, 1), (b_sym(-a, -b, width), -1, 1),
                 (b_sym(s - a, s - b, width), 1, 1), (b_sym(a - s, b - s, width), -1, 1),
                 (cofactors[a][0] * Eb[b], 1, 1), (cofactors[a][1] * M[b], 1, 1),
                 (d2[a, b], 1, 1), (d2[(a - s) % width, (b - s) % width], -1, 1),
                 (_coerce(n2_value(a, b, s, width, t)), 1, 2), (M[a] * M[b], -1, 2),
                 (prod.coeffs.get((a, b), ZERO), -1, 1)]
        if a == 0:
            parts += [(one_m_chi * al(b), 1, 2), (one_m_chi * (e1[b] + M[b]), -1, 1)]
            if b == 0:
                parts.append((one_m_chi * one_m_chi, -7, 8))
        if a == s:
            parts.append(((one_m_chi - 2) * al(s - b), 1, 2))
            if b == s:
                parts.append((one_m_chi * one_m_chi, 1, 8))
        if b == s:
            parts.append((al(s - a), 1, 1))
        terms, den = {}, 1
        for poly, num, div in parts:
            den = _merge(terms, den, poly.terms, poly.den * div, num)
        out[a, b] = SymPoly(terms, den)
    return out


def _rows(residuals: dict) -> list:
    return [{"a": a, "b": b, "poly": str(r)} for (a, b), r in sorted(residuals.items())]


def degree2_symmetry_check(s: int, prod: NcSeries) -> tuple:
    """Match the named-measure display against the product's Y_a Y_b
    coefficients modulo the reflection ideal.

    `prod` is the octagon product at residue s, of prime p and level n, as
    built by the caller with `octagon_product` (a negative control passes a
    tampered one).  Both of its degrees are reduced by the one
    `reflection_map` and one image memo: each degree-1 coefficient must
    reduce to 0, and each Y_a Y_b coefficient must reduce to its display.
    The degree-1 relations join nothing, so a degree-1 fault leaves the
    degree-2 residuals as they were.

    Returns (x_miss, deg1_miss, miss, report), each miss None when its line
    holds.  `x_miss` is `X coefficient c` for a nonzero X coefficient c;
    `deg1_miss` names the first Y indices whose degree-1 relation does not
    reduce to 0; `miss` is the first of: the points x whose reflection
    relation does not reduce to 0, its constant E_{1,chi}(x) + E_{1,chi}(-x)
    or E_{1,chi}(0) + (1 - chi)/2 being nonzero (`reflection: nonzero at
    [x, ...]`), and the points whose residual survives (`nonzero at
    [(a, b), ...]`).  `report` is the JSON artifact: `x_coeff_zero` and
    `passed`, read from the three misses, residuals in full (all zero on
    success), the size of the map, an always empty `extra_relations_used`,
    and for s = 1 the chi = 1 rows, the t = 0 image of the residuals: at
    c = 1 every E_{1,c}, M and N2 term of the display and 1 - chi vanish, and
    t = 0 commutes with the substitution, which never maps t, so these rows
    vanish whenever the residuals do.
    """
    p, n = prod.p, prod.level
    x_coeff = prod.coeff((X,))
    x_miss = f"X coefficient {x_coeff}" if x_coeff else None
    mapping, images = reflection_map(p, n, s), {}
    left = [i for i, rel in enumerate(deg1_relations(prod)) if reduce(rel, mapping, images)]
    deg1_miss = f"nonzero at {left[:3]}" if left else None
    wrong = [x for x, rel in enumerate(reflection_relations(p, n, s))
             if reduce(rel, mapping, images)]
    residuals = {k: reduce(res, mapping, images)
                 for k, res in degree2_displays(s, prod).items()}
    nonzero = [k for k, r in residuals.items() if r]
    miss = (f"reflection: nonzero at {wrong[:3]}" if wrong
            else f"nonzero at {nonzero[:3]}" if nonzero else None)
    report = {"config": {"p": p, "n": n, "s": s}, "x_coeff_zero": x_miss is None,
              "deg1_rank": len(mapping), "residuals": _rows(residuals),
              "extra_relations_used": [],
              "passed": x_miss is None and deg1_miss is None and miss is None}
    if s == 1:
        report["chi1_residuals"] = _rows({k: r.at_t0() for k, r in residuals.items()})
    return x_miss, deg1_miss, miss, report


# ---------------------------------------------------------------------------
# Re-deriving the C, E, G factors from the generator substitutions


def _word(p: int, level: int, letters) -> FreeWord:
    return FreeWord(p, level, tuple(letters))


def _y_run(p, level, hi, lo):
    """y_hi y_{hi-1} ... y_lo as a word (empty when hi < lo)."""
    return _word(p, level, [(i, 1) for i in range(hi, lo - 1, -1)])


def _z_word(p, level, width) -> FreeWord:
    """z = (x y_{p^n-1} ... y_1)^{-1} y_0^{-1}."""
    head = _word(p, level, [(X, 1)]) * _y_run(p, level, width - 1, 1)
    return head.inverse() * _word(p, level, [(0, -1)])


def substitution_images(name: str, p: int, n: int, s: int) -> dict:
    """Generator image words for the C/E/G substitutions.

    Keys are generator ids (X or a Y index); values are level-n words.
    """
    width = check_config(p, n, s)
    z = _z_word(p, n, width)
    images = {}
    if name == "C":
        images[X] = z
        images[0] = _word(p, n, [(0, 1)])
        for k in range(1, width):
            prefix = _word(p, n, [(0, 1), (X, 1)]) * _y_run(p, n, width - 1, width - k + 1)
            images[k] = prefix * _word(p, n, [(width - k, 1)]) * prefix.inverse()
        return images
    if name == "E":
        images[X] = z
        for b in range(width):
            if b == s:
                images[b] = _word(p, n, [(0, 1)])
            elif b < s:
                run = _y_run(p, n, s - b - 1, 1)
                images[b] = run.inverse() * _word(p, n, [(s - b, 1)]) * run
            else:
                run = _y_run(p, n, width + s - b - 1, 1) * z
                images[b] = run.inverse() * _word(p, n, [((s - b) % width, 1)]) * run
        return images
    if name == "G":
        run = _y_run(p, n, s - 1, 1)
        images[X] = run.inverse() * _word(p, n, [(X, 1)]) * run
        for i in range(width):
            if i + s < width:
                images[i] = run.inverse() * _word(p, n, [(i + s, 1)]) * run
            else:
                xrun = _word(p, n, [(X, 1)]) * run
                images[i] = xrun.inverse() * _word(p, n, [((i + s) % width, 1)]) * xrun
        return images
    raise ValueError("only C, E and G are re-derived from substitutions")


def derive_factor_by_subst(name: str, s: int, A: NcSeries, factor: NcSeries) -> dict:
    """Substitute the logs of the name's generator images at residue s (and
    A's prime and level) into factor A's display `A`, giving A∘φ, and compare
    with the display F = `factor` term by term: E's display must equal A∘φ,
    and C's and G's must invert it, (A∘φ)·F = 1.  Returns the coefficients of
    A∘φ - F for E, of (A∘φ)·F - 1 for C and G; empty when they agree."""
    images = substitution_images(name, A.p, A.level, s)
    result = A.substitute({gen: word_log2(word) for gen, word in images.items()})
    if name in ("C", "G"):
        result, factor = result * factor, unit_series(A.p, A.level)
    return {} if result.coeffs == factor.coeffs else (result + factor.scaled(-1)).coeffs
