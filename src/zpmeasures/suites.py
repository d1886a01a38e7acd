"""Named verification suites with machine-readable reports.

Each suite runs a battery of identity checks on synthetic seeded data and
returns a SuiteReport.  Reports are deterministic for a fixed config and
seed.  The tamper flag injects one controlled fault per suite so the
failure path (exit code 1 plus a pinpoint) stays tested.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from . import classical, corrections, magnus, octagon
from .measures import (DiracCombo, LevelFamily, exterior_product, iwasawa_P,
                       iwasawa_flip, iwasawa_swap, iwasawa_tensor,
                       linear_combine, measures_equal, pinpoint, pushforward,
                       signed_group, star_convolution,
                       transform_F, transform_F_via_P, validate_distribution)
from .padic import PrimeContext, bernoulli, binom, vp
from .record import Record

SUITES = ("octagon", "measures", "magnus", "transforms", "corrections", "all")


class RunConfig(Record):
    """One `verify` invocation; keeps a __dict__, so RunConfig(**cfg.__dict__) copies it."""

    _fields = ("p", "n_max", "degree", "mod_exp", "seed", "suite", "sigma_rep", "terms",
               "tamper")

    def __init__(self, p: int = 3, n_max: int = 3, degree: int = 3, mod_exp: int = 3,
                 seed: int = 0, suite: str = "all", sigma_rep: int | None = None,
                 terms: int = 6, tamper: bool = False):
        self.p, self.n_max, self.degree, self.mod_exp, self.seed = p, n_max, degree, mod_exp, seed
        self.suite, self.sigma_rep, self.terms, self.tamper = suite, sigma_rep, terms, tamper

    def ctx(self) -> PrimeContext:
        return PrimeContext(self.p, self.n_max)


class Check(Record):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail


class SuiteReport(Record):
    __slots__ = _fields = ("suite", "config", "checks", "artifacts")

    def __init__(self, suite: str, config: dict):
        self.suite, self.config, self.checks, self.artifacts = suite, config, [], []

    def add(self, name, miss, holds=""):
        """Record a check: it fails with detail `miss`, or passes with `holds` if `miss` is None."""
        self.checks.append(Check(name, miss is None, holds if miss is None else miss))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        out = {"suite": self.suite, "config": self.config,
               "passed": self.passed,
               "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                          for c in self.checks]}
        if self.artifacts:
            out["reports"] = self.artifacts
        return out

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines.append("config: " + json.dumps(self.config, sort_keys=True))
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  {mark} {c.name}" + (f"  [{c.detail}]" if c.detail else ""))
        lines.append(("PASS" if self.passed else "FAIL") + f" {self.suite}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["suite,check,passed,detail"]
        for c in self.checks:
            detail = c.detail.replace(",", ";")
            rows.append(f"{self.suite},{c.name},{int(c.passed)},{detail}")
        return "\n".join(rows)


def _seeded_units(rng: random.Random, p: int, count: int):
    units = []
    while len(units) < count:
        c = rng.randrange(2, 25 * p)
        if c % p:
            units.append(c)
    return units


def _random_dirac_combo(rng: random.Random, ctx: PrimeContext, dim: int) -> LevelFamily:
    span = ctx.p ** min(2, ctx.n_max)
    drawn = [([rng.randrange(0, span) for _ in range(dim)], rng.randrange(-3, 4))
             for _ in range(3)]  # per atom: its point, then its coefficient
    return DiracCombo.make(dim, drawn).to_level_family(ctx)


def _rho_and_beta2(rng: random.Random, cfg: RunConfig, c):
    """rho = E_{1,c} + (1-c)/2 delta_0 and beta2 = alpha^2/2 for
    alpha = nu + rho/2, nu a random even Dirac combination.

    Both callers read levels <= 2 only, so nothing deeper is tabulated.
    """
    ctx = PrimeContext(cfg.p, min(cfg.n_max, 2))
    g = _random_dirac_combo(rng, ctx, 1)
    nu = linear_combine([1, 1], [g, pushforward(g, units=[-1])])
    rho = linear_combine([1, Fraction(1 - c, 2)],
                         [classical.make_E1(c, ctx), classical.make_dirac([0], ctx)])
    alpha = linear_combine([1, Fraction(1, 2)], [nu, rho])
    return rho, linear_combine([Fraction(1, 2)], [exterior_product(alpha, alpha)])


def _random_kernel_word(rng: random.Random, p: int, level: int) -> magnus.FreeWord:
    gens = [magnus.X] + list(range(p ** level))
    letters = []
    for _ in range(6):
        letters.append((rng.choice(gens), rng.choice((1, -1))))
    bal = sum(e for g, e in letters if g == magnus.X)
    letters.append((magnus.X, -bal))
    word = magnus.FreeWord(p, level, tuple(letters))
    if not word.letters:
        return magnus.commutator(magnus.FreeWord(p, level, ((magnus.X, 1),)),
                                 magnus.FreeWord(p, level, ((0, 1),)))
    return word


# ---------------------------------------------------------------------------


def measures_suite(cfg: RunConfig) -> SuiteReport:
    ctx = cfg.ctx()
    rng = random.Random(cfg.seed)
    rep = SuiteReport("measures", {"p": cfg.p, "n_max": cfg.n_max,
                                   "mod_exp": cfg.mod_exp, "seed": cfg.seed})

    named = {"dirac(2)": classical.make_dirac([2], ctx)}
    units = _seeded_units(rng, cfg.p, 5)
    for c in units[:2]:
        named[f"M({c})"] = classical.make_M(c, ctx)
        named[f"E1({c})"] = classical.make_E1(c, ctx)
        named[f"N2({c})"] = classical.make_N2(c, ctx)
    named[f"M({cfg.p * units[0]})"] = classical.make_M(cfg.p * units[0], ctx)

    d2_level = min(cfg.n_max, 2)
    word = magnus.commutator(magnus.FreeWord(cfg.p, d2_level, ((magnus.X, 1),)),
                             magnus.FreeWord(cfg.p, d2_level, ((0, 1),)))
    named["D2([x,y0])"] = classical.make_D2(word)

    if cfg.tamper:
        bad = classical.make_M(units[0], ctx)
        level = min(2, cfg.n_max)
        tables = list(bad.tables)
        t = dict(tables[level])
        t[(1,) * 1] = t[(1,)] + 1
        tables[level] = t
        named[f"M({units[0]})+tamper"] = LevelFamily(cfg.p, 1, tuple(tables), bad.denom_bound)

    for name, mu in named.items():
        miss = validate_distribution(mu)
        rep.add(f"distribution:{name}", miss and
                f"level={miss[0]} point={miss[1]} defect={miss[2]}")

    for c in units:
        for nm, miss in classical.e1_relation_suite(c, ctx, cfg.mod_exp):
            rep.add(f"e1-relations:{nm}:c={c}", miss)

    if cfg.p >= 5:
        c = units[0]
        rho, beta2 = _rho_and_beta2(rng, cfg, c)
        group = list(signed_group(2))
        lhs = linear_combine([eps[0] * eps[1] for _, eps in group],
                             [pushforward(beta2, perm, eps) for perm, eps in group])
        rhs = exterior_product(rho, rho)
        miss = measures_equal(lhs, rhs, cfg.mod_exp)
        claim = f"group sum vs square, level {lhs.n_max} mod p^{cfg.mod_exp}"
        rep.add(f"signed-symmetrization:c={c}", miss and f"{claim}; {pinpoint(miss, cfg.p)}",
                claim)
    return rep


def _first_miss(p: int, label: str, rows):
    """The first (key, got, want, guarantee) row whose got - want has p-adic
    valuation below its guarantee: `label` formatted with its key, the row and
    the valuation reached.  None when every row holds."""
    return next((f"{label.format(key)} off: got={got} want={want} "
                 f"guarantee={guar} valuation={vp(got - want, p)}"
                 for key, got, want, guar in rows if vp(got - want, p) < guar), None)


def transforms_suite(cfg: RunConfig) -> SuiteReport:
    ctx = cfg.ctx()
    rng = random.Random(cfg.seed)
    rep = SuiteReport("transforms", {"p": cfg.p, "n_max": cfg.n_max,
                                     "terms": cfg.terms, "seed": cfg.seed})
    terms = cfg.terms
    units = _seeded_units(rng, cfg.p, 3)

    # a non-integral c that is still p-integral (1/2 is not at p = 2)
    for c in [units[0], -2, Fraction(1, 3 if cfg.p == 2 else 2)]:
        M = classical.make_M(c, ctx)
        P = iwasawa_P(M, terms, cfg.n_max)
        if cfg.tamper and c == units[0]:
            P.coeffs[(2,)] += 1
        rep.add(f"interpolation:M({c})", _first_miss(cfg.p, "coefficient k={}", (
            (k, P.coefficient((k,)), binom(c, k + 1) - (1 if k == 0 else 0), P.guarantees[(k,)])
            for k in range(terms + 1))))

    for c in units[:2]:
        F = transform_F(classical.make_E1(c, ctx), terms, cfg.n_max)
        rep.add(f"e1-moments:c={c}", _first_miss(cfg.p, "moment k={}", (
            (k, F.coefficient((k - 1,)), Fraction(bernoulli(k), k) * (1 - Fraction(c) ** k)
             / math.factorial(k - 1), F.guarantees[(k - 1,)]) for k in range(1, terms + 1))))

    mu = _random_dirac_combo(rng, ctx, 1)
    F1 = transform_F(mu, terms, cfg.n_max)
    F2 = transform_F_via_P(iwasawa_P(mu, terms, cfg.n_max), cfg.p)
    rep.add("exp-transform-two-routes", _first_miss(cfg.p, "coefficient k={}", (
        (k, F1.coefficient((k,)), F2.coefficient((k,)),
         min(F1.guarantees[(k,)], F2.guarantees[(k,)])) for k in range(terms + 1))))

    if cfg.p >= 5:
        c = units[0]
        lvl = min(cfg.n_max, 2)
        K = min(terms, 3)
        rho, beta2 = _rho_and_beta2(rng, cfg, c)
        P2 = iwasawa_P(beta2, K, lvl)
        exps = list(itertools.product(range(K + 1), repeat=2))
        acc = {e: Fraction(0) for e in exps}
        guar = {e: None for e in exps}
        for perm, eps in signed_group(2):
            pt = iwasawa_swap(P2, perm)
            pt = iwasawa_flip(pt, {k for k in range(2) if eps[k] == -1}, cfg.p)
            sign = eps[0] * eps[1]
            for e in exps:
                acc[e] += sign * pt.coefficient(e)
                guar[e] = pt.guarantees[e] if guar[e] is None \
                    else min(guar[e], pt.guarantees[e])
        P1 = iwasawa_P(rho, K, lvl)
        rhs = iwasawa_tensor(P1, P1)
        rep.add(f"symmetrized-transform:c={c}", _first_miss(cfg.p, "coefficient {}", (
            (e, acc[e], rhs.coefficient(e), min(guar[e], rhs.guarantees[e])) for e in exps)))
    return rep


def magnus_suite(cfg: RunConfig) -> SuiteReport:
    rng = random.Random(cfg.seed)
    rep = SuiteReport("magnus", {"p": cfg.p, "n_max": cfg.n_max,
                                 "degree": cfg.degree, "seed": cfg.seed})
    level = cfg.n_max
    D = cfg.degree
    words = [_random_kernel_word(rng, cfg.p, level) for _ in range(10)]
    n_box = max(0, level - 1)
    shapes = [(n0, n1) for n0 in range(3) for n1 in range(3) if n0 + n1 <= 2]

    # One tower per word: degree 2 for the measures, D at the top level for
    # the shuffle and Lie checks, 1 + n0 + n1 <= 3 at level n_box for the
    # congruences of word 0.
    towers, betas = [], []
    for w_i, g in enumerate(words):
        degrees = [2] * level + [max(D, 2)]
        if w_i == 0:
            degrees[n_box] = max(degrees[n_box], 3)
        towers.append(magnus.word_tower(g, degrees))
        s = towers[w_i][level].truncated(D)  # a copy: the fault stays out of the tower
        if cfg.tamper and w_i == 0:
            s.coeffs[(0, 0)] = s.coeff((0, 0)) + 1
        ys = range(cfg.p)  # the level-1 alphabet: shuffle pairs of Y_0..Y_{p-1}
        pairs = [((a,), (b,)) for a in ys for b in ys]
        pairs += [((a,), (b, c)) for a in ys for b in ys for c in ys if D >= 3]
        rep.add(f"shuffle:word{w_i}", next((f"fails at {pair}" for pair in pairs
                                             if not magnus.shuffle_check(s, *pair)), None))
        rep.add(f"lie:word{w_i}", None if magnus.log_lie_check(s) else
                "log fails Dynkin-Specht-Wever: not a Lie series")

        betas.append(tuple(magnus.beta_measures(g, r, towers[w_i]) for r in range(3)))
        for r in (1, 2):
            miss = validate_distribution(betas[w_i][r])
            rep.add(f"beta-distribution:word{w_i}:r={r}", miss and pinpoint(miss, cfg.p))

    # negative control: a perturbed series must fail the shuffle relations
    bad = towers[0][level].truncated(D)
    bad.coeffs[(0, 0)] = bad.coeff((0, 0)) + 1
    claim = "perturbed series must fail"
    rep.add("shuffle-negative-control", claim if magnus.shuffle_check(bad, (0,), (0,)) else None,
            claim)

    g = words[0]
    gh = g * words[1]
    gh_tower = magnus.word_tower(gh, [2] * (level + 1))
    C = tuple(magnus.beta_measures(gh, r, gh_tower) for r in range(3))
    S = star_convolution(betas[0], betas[1])
    claim = "graded product vs word product"
    rep.add("star-identity", next((f"{claim}: degree {i} differs" for i in range(3)
                                   if S[i].tables != C[i].tables), None), claim)

    b1, b2 = betas[0][1], betas[0][2]
    t1, t2 = b1.tables[1], b2.tables[1]
    claim = "degree-2 symmetrization vs products"
    rep.add("permutation-sum", next((f"{claim}: level 1 point {a} differs"
                                     for a in itertools.product(range(cfg.p), repeat=2)
                                     if t2[a] + t2[a[::-1]] != t1[a[:1]] * t1[a[1:]]), None),
            claim)

    results = ((shape, i, *magnus.word_coefficient_congruence(shape, (i,), 1,
                                                              towers[0][n_box], b1))
               for shape in shapes for i in range(cfg.p ** n_box))
    rep.add("coefficient-congruence", next(
        (f"shape={shape} i={i} level={n_box + 1} guaranteed={guaranteed} achieved={achieved}"
         for shape, i, achieved, guaranteed in results if achieved < guaranteed), None))
    return rep


def octagon_suite(cfg: RunConfig) -> SuiteReport:
    p, n = cfg.p, cfg.n_max
    rep = SuiteReport("octagon", {"p": p, "n": n, "sigma_rep": cfg.sigma_rep})
    reps = [cfg.sigma_rep] if cfg.sigma_rep is not None else [s for s in range(1, p ** n) if s % p]
    shared = octagon.residue_free_factors(p, n)
    # C does not depend on s: its one re-derivation is reported at every residue
    derived = {"C": octagon.derive_factor_by_subst("C", reps[0], shared["A"], shared["C"])}
    for s in reps:
        factors = octagon.build_factors(s, shared)
        prod = octagon.octagon_product(p, n, s, factors)
        if cfg.tamper:
            prod.add_term((0, 0), octagon.SymPoly.const(1))
        x_miss, deg1_miss, miss, report = octagon.degree2_symmetry_check(s, prod)
        rep.add(f"x-coefficient:s={s}", x_miss)
        rep.add(f"deg1-from-reflection:s={s}", deg1_miss)
        rep.add(f"degree2-residuals:s={s}", miss, "extra_relations=[]")
        rep.artifacts.append(report)
        for name in "EG":
            derived[name] = octagon.derive_factor_by_subst(name, s, shared["A"], factors[name])
        for name, diff in derived.items():
            rep.add(f"substitution-derivation:{name}:s={s}",
                    str(sorted((m, str(c)) for m, c in diff.items())[:2]) if diff else None)
    return rep


def corrections_suite(cfg: RunConfig) -> SuiteReport:
    rng = random.Random(cfg.seed)
    rep = SuiteReport("corrections", {"p": cfg.p, "n": 1, "r": 2, "seed": cfg.seed})
    p, n, r = cfg.p, 1, 2
    shapes = [s for s in itertools.product(range(3), repeat=3) if sum(s) <= 2]

    def random_combo(dim):
        atoms = [(tuple(rng.randrange(-6, 7) for _ in range(dim)),
                  Fraction(rng.randrange(-3, 4))) for _ in range(4)]
        return DiracCombo.make(dim, atoms)

    bases = list(itertools.product(range(p ** n), repeat=r))
    maps = (("sign", -1, 0), ("reflect", -1, 1), ("shift", 1, 1))  # (tag, e, c): x -> e*x + c
    for trial in range(10):
        beta = random_combo(r)
        lhs_beta = beta
        if cfg.tamper and trial == 0:
            # perturb one atom on the left-hand side of the sign change only
            (pt0, c0), rest = beta.atoms[0], beta.atoms[1:]
            lhs_beta = DiracCombo(r, ((pt0, c0 + 1),) + rest)
        sides = ((f"{tag} shape={shape} base={base}", corrections.change_of_variables(
                     lhs_beta if tag == "sign" else beta, beta, base, shape, p, n, e, c))
                 for shape, base in itertools.product(shapes, bases)
                 for tag, e, c in maps)
        rep.add(f"change-of-variables:trial{trial}",
                next((where for where, (l, rr) in sides if l != rr), None))

    for trial in range(5):
        g = random_combo(r)
        beta = g + g.pushforward_affine(-1, 0)
        sums = ((shape, base, corrections.four_term_sum(beta, base, shape, p, n))
                for shape, base in itertools.product(shapes, [(0, 1), (1, 2), (2, 2)]))
        rep.add(f"four-term-sum:trial{trial}", next(
            (f"shape={shape} base={base} sum={s}" for shape, base, s in sums if s),
            None))
    return rep


SUITE_RUNNERS = {
    "measures": measures_suite,
    "transforms": transforms_suite,
    "magnus": magnus_suite,
    "octagon": octagon_suite,
    "corrections": corrections_suite,
}


def run_suite(cfg: RunConfig):
    """Run one suite (or all); returns a list of SuiteReport."""
    if cfg.suite == "all":
        return [runner(cfg) for runner in SUITE_RUNNERS.values()]
    return [SUITE_RUNNERS[cfg.suite](cfg)]
