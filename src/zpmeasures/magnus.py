"""Free pro-p words, their exponential embedding, and derived measures.

A level-n word is spelled in generators x, y_0, ..., y_{p^n - 1}.  The
embedding sends each generator to the exponential of a non-commuting
variable; coefficients of the image series, collected across levels via the
covering projections, are exactly the level tables of measures on (Z_p)^r.

Generators are encoded as ints: -1 is X, i >= 0 is Y_i.  A word's letters are
(generator, nonzero int exponent) pairs in one normal form, freely reduced
with one letter per run, so x^k is the single letter (X, k).  Monomials are
tuples of generator ids.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .corrections import LinearFormIntegrand
from .measures import LevelFamily, _numerators, box_integral
from .padic import Rat, require_prime, vp
from .record import Frozen, Record

X = -1


class WordSyntaxError(ValueError):
    pass


class FreeWord(Frozen):
    """A word in the level-n generators, stored in normal form.

    Letters are (generator, nonzero int) pairs, no two neighbours share a
    generator, and runs that cancel are gone: two words are equal exactly
    when they are the same element of the free group.  Any letters may be
    passed in; one stack pass adds each exponent to a top letter of the same
    generator and drops a letter whose exponent reaches zero.
    """

    __slots__ = _fields = ("p", "level", "letters")

    def __init__(self, p: int, level: int, letters: tuple):
        width = p ** level
        out = []
        for g, e in letters:
            if not (g == X or 0 <= g < width):
                raise ValueError(f"generator {g} out of range at level {level}")
            if type(e) is not int:
                raise ValueError("letter exponents must be integers")
            if out and out[-1][0] == g:
                e += out.pop()[1]
            if e:
                out.append((g, e))
        self._init(p, level, tuple(out))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if (self.p, self.level) != (other.p, other.level):
            raise ValueError("level mismatch")
        return FreeWord(self.p, self.level, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.p, self.level,
                        tuple((g, -e) for g, e in reversed(self.letters)))


def kernel_check(w: FreeWord) -> bool:
    """True iff the total x-exponent vanishes (the word survives every level)."""
    return sum(e for g, e in w.letters if g == X) == 0


def commutator(a: FreeWord, b: FreeWord) -> FreeWord:
    return a * b * a.inverse() * b.inverse()


_TOKEN = re.compile(r"\s*(y\d+|x|\[|\]|,|\*|\^-?\d+)")


def parse_word(text: str, p: int, level: int) -> FreeWord:
    """Word grammar: generators x, y0..y{p^n-1}; ^-1 (or ^k) powers, x^0 the
    identity; [a,b] commutator sugar; concatenation by '*' or whitespace.
    A p that is not prime, and text that names no generator, are rejected."""
    require_prime(p)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise WordSyntaxError(f"bad token at: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)  # sentinel

    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_seq(stop) -> FreeWord:
        letters = []  # one normalization per sequence: a product per item is quadratic
        while peek() is not None and peek() not in stop:
            if peek() == "*":
                take()
                continue
            letters += parse_item().letters
        return FreeWord(p, level, tuple(letters))

    def power() -> int:
        return int(take()[1:]) if peek() and peek().startswith("^") else 1

    def parse_item() -> FreeWord:
        tok = take()
        if tok == "x" or (tok and tok.startswith("y")):
            g = X if tok == "x" else int(tok[1:])
            return FreeWord(p, level, ((g, power()),))
        if tok != "[":
            raise WordSyntaxError(f"unexpected token {tok!r}")
        a = parse_seq({","})
        if take() != ",":
            raise WordSyntaxError("expected ',' in commutator")
        b = parse_seq({"]"})
        if take() != "]":
            raise WordSyntaxError("expected ']'")
        item, k = commutator(a, b), power()
        return FreeWord(p, level, (item if k > 0 else item.inverse()).letters * abs(k))

    word = parse_seq(set())
    if not any(tok and tok[0] in "xy" for tok in tokens):
        raise WordSyntaxError("empty word")
    return word


# ---------------------------------------------------------------------------
# Truncated non-commutative power series


def accumulate(out: dict, pairs) -> None:
    """Add (key, coefficient) pairs into `out`, dropping keys that cancel.

    The one add-and-prune loop behind the package's sparse algebras:
    `NcSeries` (the Magnus and octagon series) and the octagon's `SymPoly`
    both add through it, so a cancelled coefficient never stays behind as a
    stored zero.  Coefficients may be Fractions or anything whose truth value
    says "nonzero" (such as SymPoly).
    """
    for k, c in pairs:
        if k in out:
            c = out[k] + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)


def mono_name(m) -> str:
    """A monomial as "X.Y0.Y2", the empty monomial as "1"."""
    return ".".join("X" if g == X else f"Y{g}" for g in m) or "1"


class NcSeries(Record):
    """Power series in X, Y_0..Y_{p^level - 1} truncated past `degree`.

    Coefficients are Fractions, or any ring elements whose truth value says
    "nonzero" (the octagon's series have SymPoly coefficients).
    """

    __slots__ = _fields = ("p", "level", "degree", "coeffs")

    def __init__(self, p: int, level: int, degree: int, coeffs: dict):
        # coeffs: monomial tuple -> coefficient
        self.p, self.level, self.degree, self.coeffs = p, level, degree, coeffs

    @classmethod
    def one(cls, p, level, degree) -> "NcSeries":
        return cls(p, level, degree, {(): Fraction(1)})

    def coeff(self, mono: tuple) -> Rat:
        return self.coeffs.get(mono, 0)

    def add_term(self, mono, c):
        accumulate(self.coeffs, ((tuple(mono), c),))

    def _check_shape(self, other):
        if (self.p, self.level, self.degree) != (other.p, other.level, other.degree):
            raise ValueError("series differ in prime, level or degree")

    def __add__(self, other: "NcSeries") -> "NcSeries":
        self._check_shape(other)
        out = dict(self.coeffs)
        accumulate(out, other.coeffs.items())
        return NcSeries(self.p, self.level, self.degree, out)

    def scaled(self, c) -> "NcSeries":
        if not c:
            return NcSeries(self.p, self.level, self.degree, {})
        return NcSeries(self.p, self.level, self.degree,
                        {m: c * v for m, v in self.coeffs.items()})

    def __mul__(self, other: "NcSeries") -> "NcSeries":
        """Graded product: a left monomial meets only the right monomials that
        fit in the degree, and a constant term 1 on either side multiplies nothing."""
        self._check_shape(other)
        left_unit = self.coeffs.get(()) == 1
        right_unit = other.coeffs.get(()) == 1
        by_len = [[] for _ in range(self.degree + 1)]
        for m, c in other.coeffs.items():
            if len(m) <= self.degree and (m or not right_unit):
                by_len[len(m)].append((m, c))
        fits = list(itertools.accumulate(by_len))  # fits[d]: the monomials of length <= d
        out = {m: c for m, c in self.coeffs.items()
               if c and len(m) <= self.degree} if right_unit else {}
        for m1, c1 in self.coeffs.items():
            room = self.degree - len(m1)
            if room < 0:
                continue
            if left_unit and not m1:
                accumulate(out, fits[room])
            else:
                accumulate(out, ((m1 + m2, c1 * c2) for m2, c2 in fits[room]))
        return NcSeries(self.p, self.level, self.degree, out)

    def truncated(self, d: int) -> "NcSeries":
        """A fresh copy truncated past degree d <= self.degree.

        Terms of degree > d form a two-sided ideal, so truncating a product
        equals the product of the truncations: a series computed once at the
        largest degree any reader needs serves every lower degree.
        """
        if d > self.degree:
            raise ValueError(f"cannot truncate a degree-{self.degree} series at {d}")
        return NcSeries(self.p, self.level, d,
                        {m: c for m, c in self.coeffs.items() if len(m) <= d})

    def substitute(self, images: dict) -> "NcSeries":
        """Replace each generator g by images[g] (constant-free, one shape, this
        degree), so a monomial of length L reads image terms of degree <= degree - L + 1."""
        if not images:
            raise ValueError("no images to substitute")
        unmapped = {g for mono in self.coeffs for g in mono}.difference(images)
        if unmapped:
            raise ValueError(f"no image for generator {mono_name((min(unmapped),))}")
        shape = next(iter(images.values()))
        p, level, degree = shape.p, shape.level, self.degree
        if any((im.p, im.level, im.degree) != (p, level, degree) for im in images.values()):
            raise ValueError("images differ in prime or level, or from the series' degree")
        cut = {(g, d): NcSeries(p, level, degree,
                                {m: c for m, c in im.coeffs.items() if len(m) <= d})
               for g, im in images.items() for d in range(1, degree + 1)}
        out = {m: c for m, c in self.coeffs.items() if not m}
        for mono, c in self.coeffs.items():
            if 0 < len(mono) <= degree:
                room = degree - len(mono) + 1
                term = cut[mono[0], room].scaled(c)
                for g in mono[1:]:
                    term = term * cut[g, room]
                accumulate(out, term.coeffs.items())
        return NcSeries(p, level, degree, out)


def embed_E(w: FreeWord, degree: int) -> NcSeries:
    """Product over the letters (g, e) of exp(e * g), truncated, in divided
    powers: the integer N[m] = len(m)! * coeff(m) of a degree-d monomial m
    sends e^j C(d+j, j) N[m] to m g^j, carried as c * e * (d + j) // j (an
    exact division), and each term is divided by len(m)! once at the end."""
    nums = {(): 1}
    for g, e in w.letters:
        out = {}
        for m, c in nums.items():
            d = len(m)
            terms = [(m, c)]
            for j in range(1, degree - d + 1):
                c = c * e * (d + j) // j
                terms.append((m + (g,) * j, c))
            accumulate(out, terms)
        nums = out
    return NcSeries(w.p, w.level, degree,
                    {m: Fraction(c, math.factorial(len(m))) for m, c in nums.items()})


def _log_kernel(s: NcSeries):
    """(N, Q), N an integer series with log s = N / Q: for L the lcm of the
    denominators, D the degree, K = lcm(1..D) and U = L (s - 1),
    K L^D log s = sum_k (-1)^(k+1) (K/k) L^(D-k) U^k."""
    if s.coeff(()) != 1:
        raise ValueError("log needs constant term 1")
    D, K = s.degree, math.lcm(*range(1, s.degree + 1))
    nums, L = _numerators({m: c for m, c in s.coeffs.items() if m})
    u = NcSeries(s.p, s.level, D, nums)
    out, power = NcSeries(s.p, s.level, D, {}), NcSeries.one(s.p, s.level, D)
    for k in range(1, D + 1):
        power = power * u
        out = out + power.scaled((-1) ** (k + 1) * (K // k) * L ** (D - k))
    return out, K * L ** D


def word_log2(w: FreeWord) -> NcSeries:
    """log embed_E(w) past degree 2 by Baker-Campbell-Hausdorff: log prod_i
    exp(e_i g_i) = sum_i e_i g_i + 1/2 sum_{i<j} e_i e_j [g_i, g_j] mod degree 3,
    in one pass over the (reduced) letters."""
    sums, pairs = {}, {}  # sums[h] = exponent of h so far; pairs[(h, g)] += sums[h] e
    for g, e in w.letters:
        for h, k in sums.items():
            pairs[(h, g)] = pairs.get((h, g), 0) + k * e
        sums[g] = sums.get(g, 0) + e
    coeffs = {(g,): Fraction(k) for g, k in sums.items() if k}
    for (h, g), k in pairs.items():
        c = k - pairs.get((g, h), 0)
        if c:
            coeffs[(h, g)], coeffs[(g, h)] = Fraction(c, 2), Fraction(-c, 2)
    return NcSeries(w.p, w.level, 2, coeffs)


def _left_bracketing(mono: tuple) -> dict:
    """Dynkin map on one monomial: w = g1..gd -> [[g1,g2],...,gd], int multiplicities."""
    out = {mono[:1]: 1}
    for g in mono[1:]:
        nxt = {}
        for m, c in out.items():
            accumulate(nxt, ((m + (g,), c), ((g,) + m, -c)))
        out = nxt
    return out


def log_lie_check(s: NcSeries) -> bool:
    """True iff log(s) is a Lie series degree by degree.

    Uses the Dynkin-Specht-Wever criterion: a homogeneous element L of
    degree d is Lie iff left-bracketing maps it to d * L.  Left-bracketing
    keeps degrees and is linear, so every degree is checked at once, on the
    integer Q log(s) of `_log_kernel`.
    """
    kernel = _log_kernel(s)[0].coeffs
    image = {}
    accumulate(image, ((mm, c * cc) for m, c in kernel.items()
                       for mm, cc in _left_bracketing(m).items()))
    return image == {m: len(m) * c for m, c in kernel.items()}


def shuffle_words(u: tuple, v: tuple) -> dict:
    """All interleavings of u and v with multiplicities."""
    if not u or not v:
        return {u + v: 1}
    out = {}
    accumulate(out, (((u[0],) + w, c) for w, c in shuffle_words(u[1:], v).items()))
    accumulate(out, (((v[0],) + w, c) for w, c in shuffle_words(u, v[1:]).items()))
    return out


def shuffle_check(s: NcSeries, u, v) -> bool:
    """<s,u><s,v> == sum of <s,w> over shuffles w of u and v."""
    u, v = tuple(u), tuple(v)
    if X in u or X in v:
        raise ValueError("shuffle arguments must be X-free")
    if len(u) + len(v) > s.degree:
        raise ValueError("total degree exceeds the truncation")
    total = sum((c * s.coeff(w) for w, c in shuffle_words(u, v).items()), Fraction(0))
    return s.coeff(u) * s.coeff(v) == total


# ---------------------------------------------------------------------------
# Level projections


def project_word(w: FreeWord, n: int) -> FreeWord:
    """Push a level n+m word down to level n: x^e -> the letter (X, e p^m),
    y_{i + k p^n}^e -> (X, -k) (i, e) (X, k), then normalize."""
    if n > w.level:
        raise ValueError("can only project downward")
    pn = w.p ** n
    pm = w.p ** (w.level - n)
    letters = []
    for g, e in w.letters:
        if g == X:
            letters.append((X, e * pm))
        else:
            i, k = g % pn, g // pn
            letters += [(X, -k), (i, e), (X, k)]
    return FreeWord(w.p, n, tuple(letters))


# ---------------------------------------------------------------------------
# Coefficient views and measures


def word_tower(g: FreeWord, degrees) -> tuple:
    """The level-n series of g for n = 0..g.level, level n at degrees[n].

    Each reader takes what it needs from these: a coefficient of degree
    <= degrees[n] is the same in every truncation that keeps it.
    """
    if len(degrees) != g.level + 1:
        raise ValueError("need one degree per level 0..g.level")
    return tuple(embed_E(project_word(g, n), d) for n, d in enumerate(degrees))


# perfbench/tracer.py reads the positional args[0], args[1] as the word and the rank
def beta_measures(g: FreeWord, r: int, tower) -> LevelFamily:
    """The dimension-r measure read off the X-free coefficients of the word.

    `tower` is the word's `word_tower`, of degree >= r at every level.
    """
    if not kernel_check(g):
        raise ValueError("word is not in the kernel (nonzero x-exponent)")
    if len(tower) != g.level + 1 or any(s.degree < r for s in tower):
        raise ValueError(f"need the word's series at levels 0..{g.level}, degree >= {r}")
    return LevelFamily.build(g.p, r, lambda n, a: tower[n].coeff(a), g.level)


def word_coefficient_congruence(ns, idx, m: int, series, beta_r):
    """Compare a series coefficient with its box-integral expression.

    ns = (n_0, ..., n_r) are the X-block sizes, idx = (i_1, ..., i_r) the
    Y indices of the monomial X^{n_0} Y_{i_1} X^{n_1} ... Y_{i_r} X^{n_r}
    at the level n of `series`, the word's level-n series, of degree >= r +
    sum(ns); `beta_r` is its dimension-r measure.  Returns (achieved,
    guaranteed): the valuation of the coefficient minus its Riemann sum at
    level n + m, and the exponent the box integral guarantees; the
    congruence holds when achieved >= guaranteed.
    """
    r = len(idx)
    if len(ns) != r + 1:
        raise ValueError("need r+1 X-block sizes for r Y-letters")
    if series.degree < r + sum(ns) or beta_r.dim != r:
        raise ValueError("series or measure does not match the monomial")
    p, n = series.p, series.level
    mono = (X,) * ns[0]
    for ik, nk in zip(idx, ns[1:], strict=True):
        mono += (ik,) + (X,) * nk
    lam = series.coeff(mono)

    integrand = LinearFormIntegrand(
        ns, idx, p ** n, scale=Fraction(1, math.prod(math.factorial(k) for k in ns)))
    value, guaranteed = box_integral(beta_r, idx, n, integrand, n + m)
    return vp(lam - value, p), guaranteed
