"""Measures on (Z_p)^m stored as compatible level families.

A measure is kept as its full table of values on (Z/p^n)^m for every
0 <= n <= n_max.  The defining compatibility is the distribution relation:
the value at a level-n point equals the sum of the values at its p^m lifts
one level up.  Everything downstream (box integrals, Iwasawa transforms,
the octagon checks) consumes these tables.

Finite Dirac combinations get a second, exact representation (`DiracCombo`)
whose box integrals are evaluated at the true integer points; the identities
about sign/shift changes of variables hold exactly only in that form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, itemgetter, mul

from .padic import INF, PrimeContext, Rat, exact, repr_mod, vp
from .record import Frozen, Record


def residues(p: int, n: int, dim: int):
    """All points of (Z/p^n)^dim as tuples."""
    return itertools.product(range(p ** n), repeat=dim)


class LevelFamily(Frozen):
    """A measure (or bounded-denominator distribution) at p, up to level n_max."""

    __slots__ = _fields = ("p", "dim", "tables", "dens", "denom_bound")

    def __init__(self, p: int, dim: int, tables: tuple, dens: tuple, denom_bound: int):
        # level n is tables[n] / dens[n]: tables[n] maps each point, in residues()
        # order, to an int numerator over dens[n] > 0, in lowest terms
        self._init(p, dim, tables, dens, denom_bound)

    @property
    def n_max(self) -> int:
        return len(self.tables) - 1

    def value(self, n: int, a) -> Rat:
        """The value at the level-n point a, in normal form (padic.exact)."""
        return exact(Fraction(self.tables[n][a], self.dens[n]))

    @classmethod
    def build(cls, p: int, dim: int, fn, n_max: int) -> "LevelFamily":
        """Tabulate the levels 0..n_max, fn(n) giving level n's values as one list in
        residues() order, each level over the lcm of its denominators."""
        levels = []
        for n in range(n_max + 1):
            vals = fn(n)
            denoms = [v.denominator for v in vals if type(v) is not int]
            den = math.lcm(*denoms)
            if denoms:
                vals = [v * den if type(v) is int else v.numerator * (den // v.denominator)
                        for v in vals]
            levels.append((vals, den))
        return cls._reduced(p, dim, levels)

    @classmethod
    def _reduced(cls, p: int, dim: int, levels) -> "LevelFamily":
        """The levels (numerators in residues() order, den > 0), each put in lowest terms."""
        tables, dens = [], []
        for n, (nums, den) in enumerate(levels):
            if den > 1 and (g := math.gcd(den, *nums)) > 1:
                nums, den = [v // g for v in nums], den // g
            tables.append(dict(zip(residues(p, n, dim), nums, strict=True)))
            dens.append(den)
        return cls(p, dim, tuple(tables), tuple(dens), max(vp(d, p) for d in dens))

    @classmethod
    def zero(cls, p: int, dim: int, n_max: int) -> "LevelFamily":
        return cls.build(p, dim, lambda n: [0] * p ** (n * dim), n_max)


def pinpoint(miss: tuple, p: int) -> str:
    """A table check's miss (level, point, defect), with the defect's p-adic valuation."""
    level, point, defect = miss
    return f"level={level} point={point} valuation={vp(defect, p)}"


@lru_cache(maxsize=None)
def _lift_offsets(p: int, n: int, dim: int) -> tuple:
    """The p^dim offsets k * p^n, k in [0, p)^dim, from a level-n point to its lifts."""
    return tuple(tuple(k * p ** n for k in ks) for ks in itertools.product(range(p), repeat=dim))


def lifts(point, p: int, n: int, dim: int) -> list:
    """The p^dim level-(n+1) points over a level-n point."""
    return [tuple(map(add, point, off)) for off in _lift_offsets(p, n, dim)]


def validate_distribution(mu: LevelFamily) -> tuple | None:
    """Check the distribution relation exactly at every stored level pair:
    None if it holds, else the first miss (level, point, defect)."""
    p = mu.p
    for n in range(mu.n_max):
        here, up = mu.tables[n], mu.tables[n + 1]
        den = math.lcm(mu.dens[n], mu.dens[n + 1])
        sh, su = den // mu.dens[n], den // mu.dens[n + 1]
        for a, v in here.items():
            defect = v * sh - su * sum(map(up.__getitem__, lifts(a, p, n, mu.dim)))
            if defect:
                return n, a, exact(Fraction(defect, den))
    return None


def linear_combine(coeffs, mus: list[LevelFamily]) -> LevelFamily:
    """sum_i c_i mu_i: per level, the numerator columns summed under int
    weights over one common denominator."""
    if not mus:
        raise ValueError("nothing to combine")
    if len(coeffs) != len(mus):
        raise ValueError(f"{len(coeffs)} coefficients for {len(mus)} measures")
    p, dim = mus[0].p, mus[0].dim
    for m in mus:
        if m.p != p or m.dim != dim:
            raise ValueError("prime/dimension mismatch")
    n_max = min(m.n_max for m in mus)
    pairs = [(c, m) for c, m in zip(map(exact, coeffs), mus, strict=True) if c]
    levels = []
    for n in range(n_max + 1):
        q = math.lcm(*[c.denominator * m.dens[n] for c, m in pairs])
        total = [0] * p ** (n * dim)
        for c, m in pairs:
            w = c.numerator * (q // (c.denominator * m.dens[n]))
            total = list(map(add, total, map(mul, itertools.repeat(w), m.tables[n].values())))
        levels.append((total, q))
    return LevelFamily._reduced(p, dim, levels)


def pushforward(mu: LevelFamily, perm=None, units=None, shift=None) -> LevelFamily:
    """Pushforward of mu under x -> y with y_{perm[j]} = units[j] * x_j + shift[j].

    perm defaults to the identity, units to all 1 and shift to all 0.  Each
    unit must have valuation 0 and each shift must be p-integral (`repr_mod`
    refuses one that is not).  The translation T_c, the scaling m_d (also
    written mu o d^{-1}) and the signed permutations are all special cases.
    """
    m, p = mu.dim, mu.p
    perm = tuple(range(m)) if perm is None else tuple(perm)
    units = [1] * m if units is None else [exact(u) for u in units]
    shift = [0] * m if shift is None else [exact(c) for c in shift]
    if sorted(perm) != list(range(m)) or len(units) != m or len(shift) != m:
        raise ValueError("map dimension mismatch")
    for u in units:
        if vp(u, p) != 0:
            raise ValueError(f"{u} is not a unit at p = {p}")
    # at level n, cols[perm[j]][y] = u_j^{-1} (y - c_j) mod p^n is x_j for y_{perm[j]} = y;
    # the source point of y is the columns' entries picked back into source order
    pick = None if perm == tuple(range(m)) else itemgetter(*perm)
    tables = []
    for n, table in enumerate(mu.tables):
        pn, cols = p ** n, [None] * m
        for k, u, c in zip(perm, units, shift, strict=True):
            ui, ci = repr_mod(Fraction(1, u), p, n), repr_mod(c, p, n)
            cols[k] = [(ui * (y - ci)) % pn for y in range(pn)]
        sources = itertools.product(*cols)
        if pick is not None:
            sources = map(pick, sources)
        tables.append(dict(zip(residues(p, n, m), map(table.__getitem__, sources), strict=True)))
    return LevelFamily(p, m, tuple(tables), mu.dens, mu.denom_bound)


def signed_group(m: int):
    """All 2^m * m! elements (perm, eps) of the signed permutation group."""
    for perm in itertools.permutations(range(m)):
        for eps in itertools.product((1, -1), repeat=m):
            yield perm, eps


def exterior_product(alpha: LevelFamily, beta: LevelFamily) -> LevelFamily:
    """(alpha . beta)^{(n)}(a, b) = alpha^{(n)}(a) * beta^{(n)}(b)."""
    if alpha.p != beta.p:
        raise ValueError("prime mismatch")
    n_max = min(alpha.n_max, beta.n_max)
    return LevelFamily._reduced(alpha.p, alpha.dim + beta.dim, (
        ([x * y for x in alpha.tables[n].values() for y in beta.tables[n].values()],
         alpha.dens[n] * beta.dens[n]) for n in range(n_max + 1)))


def star_convolution(a: tuple, b: tuple) -> tuple:
    """The star product of graded tuples (mu_0, mu_1, ...), entry i of
    dimension i: c_i = sum_{j+k=i} a_j . b_k, as long as the shorter input."""
    return tuple(linear_combine([1] * (i + 1), [exterior_product(a[j], b[i - j])
                                                for j in range(i + 1)])
                 for i in range(min(len(a), len(b))))


def box_of(point, dim: int, p: int, level: int) -> tuple:
    """The box point + p^level * (Z_p)^dim, named by its residues (`repr_mod`)."""
    if len(point) != dim:
        raise ValueError("box base dimension mismatch")
    return tuple(repr_mod(x, p, level) for x in point)


def box_integral(mu: LevelFamily, base, level: int, integrand, eval_level: int):
    """Riemann sum of integrand against mu over the box base + p^level * (Z_p)^dim.

    The integrand is any polynomial with `nvars`, `denominator_valuation(p)`
    (the worst denominator valuation of its coefficients) and its value at a
    point written as `factor * forms(point)`: the weighted `forms` are summed
    and multiplied by `factor` once.  Returns (value, guarantee): the true
    integral is congruent to the value mod p^guarantee.  The guarantee is
    computed pessimistically as
    (eval_level - level) - denom_bound - integrand.denominator_valuation(p).
    """
    p = mu.p
    if not 0 <= level <= eval_level <= mu.n_max:
        raise ValueError(f"box level {level} and evaluation level {eval_level} "
                         f"not in order within the stored range 0..{mu.n_max}")
    if integrand.nvars != mu.dim:
        raise ValueError("integrand variable count mismatch")
    base = box_of(base, mu.dim, p, level)
    m = eval_level - level
    pl, q = p ** level, p ** m
    total = 0
    table = mu.tables[eval_level]
    for ks in itertools.product(range(q), repeat=mu.dim):
        a = tuple(b + k * pl for b, k in zip(base, ks, strict=True))
        w = table[a]
        if w:
            total += w * integrand.forms(a)
    guarantee = m - mu.denom_bound - integrand.denominator_valuation(p)
    return integrand.factor * Fraction(total, mu.dens[eval_level]), guarantee


class IwasawaPoly(Record):
    """Truncated transform: coefficient table plus per-coefficient guarantees."""

    __slots__ = _fields = ("dim", "terms", "coeffs", "guarantees")

    def __init__(self, dim: int, terms: int, coeffs: dict, guarantees: dict):
        # coeffs: exponent tuple -> exact rational; guarantees: exponent tuple -> int
        self.dim, self.terms, self.coeffs, self.guarantees = dim, terms, coeffs, guarantees

    def coefficient(self, exps) -> Rat:
        return self.coeffs.get(tuple(exps), 0)


def _axis_transform(mu: LevelFamily, terms: int, eval_level: int, weight, scale) -> IwasawaPoly:
    """Integrals of prod_k weight(x_k, j_k) / scale(j_k) against mu, j in
    [0, terms]^dim, by contracting the level-eval_level table's numerators
    one axis at a time with the (terms+1) x p^eval_level int matrix weight(x, j),
    then dividing once per coefficient.  Both weights used here are integers over
    j!, hence the guarantee eval_level - denom_bound - sum vp(j_k!).
    """
    if not 0 <= eval_level <= mu.n_max:
        raise ValueError(f"evaluation level {eval_level} out of stored range 0..{mu.n_max}")
    p = mu.p
    rows = [[weight(x, j) for x in range(p ** eval_level)] for j in range(terms + 1)]
    nums, den = mu.tables[eval_level], mu.dens[eval_level]
    # keys are (j_1..j_k, x_{k+1}..x_dim) once k axes are contracted
    partial = {a: v for a, v in nums.items() if v}
    for k in range(mu.dim):
        nxt = {}
        for idx, v in partial.items():
            for j, row in enumerate(rows):
                key = idx[:k] + (j,) + idx[k + 1:]
                nxt[key] = nxt.get(key, 0) + row[idx[k]] * v
        partial = nxt
    coeffs, guars = {}, {}
    for j in itertools.product(range(terms + 1), repeat=mu.dim):
        coeffs[j] = exact(Fraction(partial.get(j, 0), den * math.prod(map(scale, j))))
        guars[j] = eval_level - mu.denom_bound - sum(vp(math.factorial(jk), p) for jk in j)
    return IwasawaPoly(mu.dim, terms, coeffs, guars)


def iwasawa_P(mu: LevelFamily, terms: int, eval_level: int) -> IwasawaPoly:
    """The transform determined by [1] -> 1 + T.

    Coefficient of prod T_k^{j_k} is the integral of prod binom(x_k, j_k);
    it is correct mod p^(eval_level - denom_bound - sum vp(j_k!)).
    """
    return _axis_transform(mu, terms, eval_level, math.comb, lambda j: 1)


def transform_F(mu: LevelFamily, terms: int, eval_level: int) -> IwasawaPoly:
    """Exponential form of the transform: coefficients are moments / factorials."""
    return _axis_transform(mu, terms, eval_level, pow, math.factorial)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def _substitute_T(pt: IwasawaPoly, col, p: int) -> IwasawaPoly:
    """Substitute sum_i col(k, i, j) T_k^i for each T_k^j in a truncation.

    A term's guarantee drops by the denominator of its factor.  Both
    substitutions here are triangular with a nonzero diagonal.
    """
    coeffs, guars = {}, {}
    for i in itertools.product(range(pt.terms + 1), repeat=pt.dim):
        total = 0
        gs = []
        for j in itertools.product(*(range(ik + 1) for ik in i)):
            factor = math.prod(col(k, ik, jk) for k, (ik, jk) in enumerate(zip(i, j, strict=True)))
            if not factor:
                continue
            total += pt.coefficient(j) * factor
            gs.append(pt.guarantees[j] + min(0, vp(factor, p)))
        coeffs[i] = exact(total)
        guars[i] = min(gs)
    return IwasawaPoly(pt.dim, pt.terms, coeffs, guars)


def transform_F_via_P(pt: IwasawaPoly, p: int) -> IwasawaPoly:
    """Substitute T_k = exp(X_k) - 1 into a truncated transform.

    Independent route to the exponential coefficients:
    (e^X - 1)^j = j! sum_i S(i, j) X^i / i!.
    """
    return _substitute_T(pt, lambda k, i, j: Fraction(math.factorial(j) * stirling2(i, j),
                                                      math.factorial(i)), p)


def iwasawa_swap(pt: IwasawaPoly, perm) -> IwasawaPoly:
    """Permute the T variables: coefficient of T^e moves to T^{e o perm}."""
    perm = tuple(perm)
    coeffs = {tuple(e[perm[k]] for k in range(pt.dim)): c for e, c in pt.coeffs.items()}
    guars = {tuple(e[perm[k]] for k in range(pt.dim)): g for e, g in pt.guarantees.items()}
    return IwasawaPoly(pt.dim, pt.terms, coeffs, guars)


def iwasawa_flip(pt: IwasawaPoly, coords, p: int) -> IwasawaPoly:
    """Substitute T_k -> (1+T_k)^{-1} - 1 in the listed coordinates.

    ((1+T)^{-1} - 1)^j has T^i coefficient (-1)^i C(i-1, j-1), so the
    substitution is exact on a truncation (the substituted series has
    valuation 1).  This is the transform-side image of a coordinate sign
    flip, valid within the coefficient guarantees.
    """
    coords = set(coords)

    def col(k, i, j):  # j <= i
        if k not in coords or j == 0:
            return int(i == j)
        return (-1) ** i * math.comb(i - 1, j - 1)

    return _substitute_T(pt, col, p)


def iwasawa_tensor(a: IwasawaPoly, b: IwasawaPoly) -> IwasawaPoly:
    """P(alpha . beta) = P(alpha)(T_1..) * P(beta)(..T_{i+j}) coefficientwise."""
    coeffs, guars = {}, {}
    terms = min(a.terms, b.terms)
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            if max(e1 + e2, default=0) > terms:
                continue
            coeffs[e1 + e2] = c1 * c2
            guars[e1 + e2] = min(a.guarantees[e1], b.guarantees[e2])
    return IwasawaPoly(a.dim + b.dim, terms, coeffs, guars)


def measures_equal(mu: LevelFamily, nu: LevelFamily, mod_exp) -> tuple | None:
    """None iff vp(mu - nu) >= mod_exp at every point of every level that
    both tables store, 0..min(mu.n_max, nu.n_max).

    Pass mod_exp = INF for exact equality.  Otherwise the first miss
    (level, point, defect), the defect being the difference mu - nu there.
    """
    if mu.p != nu.p or mu.dim != nu.dim:
        raise ValueError("prime/dimension mismatch")
    p = mu.p
    for n in range(min(mu.n_max, nu.n_max) + 1):
        den = math.lcm(mu.dens[n], nu.dens[n])
        sm, sn = den // mu.dens[n], den // nu.dens[n]
        # vp(d / den) < mod_exp, for a numerator d != 0, iff d % modulus
        modulus = None if mod_exp == INF else p ** max(0, mod_exp + vp(den, p))
        for a, v in mu.tables[n].items():
            d = v * sm - nu.tables[n][a] * sn
            if d % modulus if modulus else d:
                return n, a, exact(Fraction(d, den))
    return None


# ---------------------------------------------------------------------------
# Exact finite Dirac combinations


class DiracCombo(Frozen):
    """sum_j c_j * delta_{v_j} with the points v_j kept as exact integers.

    Box integrals here are evaluated at the true points, so change-of-variable
    identities that are only congruences for level tables hold exactly.
    """

    _fields = ("dim", "atoms")
    __slots__ = _fields + ("_memo",)

    def __init__(self, dim: int, atoms: tuple):
        # atoms: ((point tuple, coeff), ...), every scalar in normal form (padic.exact);
        # _memo: ("boxes", p, level) -> box index, ("affine", e, c) -> pushforward
        # image; the atoms never change
        self._init(dim, atoms, {})

    @classmethod
    def make(cls, dim: int, atoms) -> "DiracCombo":
        packed = tuple((tuple(exact(x) for x in pt), exact(c)) for pt, c in atoms)
        for pt, _ in packed:
            if len(pt) != dim:
                raise ValueError("point dimension mismatch")
        return cls(dim, packed)

    def __add__(self, other: "DiracCombo") -> "DiracCombo":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return DiracCombo(self.dim, self.atoms + other.atoms)

    def pushforward_affine(self, e: int, c) -> "DiracCombo":
        """The image under x -> e * x + c in every coordinate, built once per map."""
        if type(e) not in (int, Fraction) or e.denominator != 1:
            raise ValueError(f"x -> e * x + c needs an integer e, got e = {e}")
        e, c = exact(e), exact(c)
        key = ("affine", e, c)
        if key not in self._memo:
            self._memo[key] = DiracCombo(self.dim, tuple(
                (tuple(exact(e * x + c) for x in pt), w) for pt, w in self.atoms))
        return self._memo[key]

    def boxes(self, p: int, level: int) -> dict:
        """The atoms by box, residues mod p^level -> [(point, coeff)], built once
        per (p, level).  Every coordinate is reduced, so at level >= 1 a
        non-p-integral atom raises PIntegralityError for every box."""
        key = ("boxes", p, level)
        if key not in self._memo:
            index = {}
            for pt, w in self.atoms:
                index.setdefault(box_of(pt, self.dim, p, level), []).append((pt, w))
            self._memo[key] = index
        return self._memo[key]

    def box_sum(self, base, level: int, integrand, p: int) -> Rat:
        """sum w * integrand.forms(v) over the atoms in base + p^level (Z_p)^dim:
        the exact integral of a `corrections.LinearFormIntegrand` over that box
        is integrand.factor times it, a division left to the caller."""
        atoms = self.boxes(p, level).get(box_of(base, self.dim, p, level), ())
        return sum(w * integrand.forms(pt) for pt, w in atoms)

    def to_level_family(self, ctx: PrimeContext) -> LevelFamily:
        """Each box's mass at its flat index in residues() order, 0 elsewhere."""
        def level(n):
            pn, vals = ctx.p ** n, [0] * ctx.p ** (n * self.dim)
            for box, atoms in self.boxes(ctx.p, n).items():
                vals[reduce(lambda i, x: i * pn + x, box, 0)] = sum(w for _, w in atoms)
            return vals

        return LevelFamily.build(ctx.p, self.dim, level, ctx.n_max)
