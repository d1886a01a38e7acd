"""A fault for each check that no `--tamper` run fails on its own.

A check that always passes keeps every passing-report digest the same, so
only a run in which that very check fails can show that it still checks.
Each case puts one fault into the check's own input, through the code path
the suite runs, and asserts that the named check line fails with a detail
naming its miss.
"""

import itertools

import pytest

from zpmeasures import classical, corrections, magnus, octagon
from zpmeasures.measures import DiracCombo, GradedSequence, LevelFamily
from zpmeasures.suites import RunConfig, run_suite


def bumped(mu: LevelFamily, level: int, point: tuple) -> LevelFamily:
    """`mu` with one table entry raised by 1."""
    tables = list(mu.tables)
    tables[level] = dict(tables[level])
    tables[level][point] += 1
    return LevelFamily(mu.ctx, mu.dim, tuple(tables), mu.denom_bound)


def bump_e1(monkeypatch):
    real = classical.make_E1
    monkeypatch.setattr(classical, "make_E1", lambda c, ctx: bumped(real(c, ctx), 1, (1,)))


def bump_graded_beta(call: int, r: int, point: tuple):
    """A fault in the degree-r measure of the `call`-th word the suite embeds."""
    def patch(monkeypatch):
        real, calls = magnus.graded_beta, itertools.count()

        def perturbed(*args):
            betas = real(*args)
            if next(calls) != call:
                return betas
            entries = list(betas.entries)
            entries[r] = bumped(entries[r], 1, point)
            return GradedSequence(tuple(entries))

        monkeypatch.setattr(magnus, "graded_beta", perturbed)
    return patch


def shuffle_check_accepts_all(monkeypatch):
    # the negative control must catch a shuffle check that holds for any series
    monkeypatch.setattr(magnus, "shuffle_check", lambda s, u, v: True)


def term_in_product(mono, term):
    """A fault that adds term(width) at `mono` of every octagon product."""
    def patch(monkeypatch):
        real = octagon.octagon_product

        def perturbed(p, n, *args):
            prod = real(p, n, *args)
            prod.add_term(mono, term(p ** n))
            return prod

        monkeypatch.setattr(octagon, "octagon_product", perturbed)
    return patch


x_term_in_product = term_in_product((magnus.X,), lambda width: octagon.SymPoly.const(1))
# b_{1,0} + b_{0,1} - a_0 a_1 vanishes under the shuffle relations, which the
# degree-2 check does not assume: it survives at (0, 0) of every residue
shuffle_term_in_product = term_in_product(
    (0, 0), lambda width: octagon.b_sym(1, 0, width) + octagon.b_sym(0, 1, width)
    - octagon.a_sym(0, width) * octagon.a_sym(1, width))


def term_in_display(name, mono):
    """A fault that adds 1 at `mono` of the display of factor `name`."""
    def patch(monkeypatch):
        real = octagon.build_factor

        def perturbed(factor, *args):
            out = real(factor, *args)
            if factor == name:
                out.add_term(mono, octagon.SymPoly.const(1))
            return out

        monkeypatch.setattr(octagon, "build_factor", perturbed)
    return patch


def wrong_e1(monkeypatch):
    # E_{1,chi}(1) raised by 1: E(1) + E(-1) = 0 fails, so the reflection
    # relation at x = -1 is left as a nonzero constant
    real = octagon.e1_sympoly
    monkeypatch.setattr(octagon, "e1_sympoly", lambda x, *args: real(x, *args) + int(x == 1))


def odd_measure(monkeypatch):
    # one extra atom whose negative is missing: beta is no longer even
    real = corrections.four_term_sum
    odd = DiracCombo.make(2, [((1, 2), 1)])
    monkeypatch.setattr(corrections, "four_term_sum",
                        lambda beta, *args: real(beta + odd, *args))


def no_fault(monkeypatch):
    pass


FAULTS = {
    "e1-relations:reflection:c=": (bump_e1, RunConfig(p=3, n_max=2, suite="measures")),
    "shuffle:word0": (no_fault, RunConfig(p=2, n_max=2, suite="magnus", tamper=True)),
    "lie:word0": (no_fault, RunConfig(p=2, n_max=2, suite="magnus", tamper=True)),
    "shuffle-negative-control": (shuffle_check_accepts_all,
                                 RunConfig(p=2, n_max=2, suite="magnus")),
    "star-identity": (bump_graded_beta(1, 1, (1,)), RunConfig(p=3, n_max=2, suite="magnus")),
    "permutation-sum": (bump_graded_beta(0, 2, (0, 1)),
                        RunConfig(p=3, n_max=2, suite="magnus")),
    "x-coefficient:s=1": (x_term_in_product,
                          RunConfig(p=3, n_max=1, suite="octagon", sigma_rep=1)),
    "degree2-residuals:s=1": (shuffle_term_in_product,
                              RunConfig(p=3, n_max=1, suite="octagon", sigma_rep=1)),
    "degree2-residuals:s=2": (shuffle_term_in_product,
                              RunConfig(p=3, n_max=1, suite="octagon", sigma_rep=2)),
    "degree2-residuals:s=4": (wrong_e1, RunConfig(p=5, n_max=1, suite="octagon", sigma_rep=4)),
    "substitution-derivation:E:s=": (term_in_display("E", (1, 0)),
                                     RunConfig(p=3, n_max=1, suite="octagon", sigma_rep=2)),
    "substitution-derivation:G:s=": (term_in_display("G", (1, 0)),
                                     RunConfig(p=3, n_max=1, suite="octagon", sigma_rep=2)),
    "four-term-sum:trial": (odd_measure, RunConfig(p=3, suite="corrections")),
}


@pytest.mark.parametrize("line", sorted(FAULTS))
def test_fault_fails_its_own_check_line(line, monkeypatch):
    fault, cfg = FAULTS[line]
    fault(monkeypatch)
    report = run_suite(cfg)[0]
    assert any(c.name.startswith(line) and not c.passed for c in report.checks)
    assert all(c.detail for c in report.checks if not c.passed)


def test_failed_lines_name_their_first_miss(monkeypatch):
    details = {}
    for line in ("e1-relations:reflection:c=", "lie:word0", "star-identity", "permutation-sum",
                 "x-coefficient:s=1", "degree2-residuals:s=1", "degree2-residuals:s=2",
                 "degree2-residuals:s=4", "substitution-derivation:E:s=",
                 "substitution-derivation:G:s=", "four-term-sum:trial"):
        fault, cfg = FAULTS[line]
        with monkeypatch.context() as m:
            fault(m)
            check = next(c for c in run_suite(cfg)[0].checks if c.name.startswith(line))
            details[check.name] = check.detail
    assert details["e1-relations:reflection:c=55"] == \
        "E + E o(-1) - (c-1) delta_0 == 0 exactly; level=1 point=(1,) valuation=0"
    assert details["lie:word0"] == "log fails Dynkin-Specht-Wever: not a Lie series"
    assert details["star-identity"] == "graded product vs word product: degree 1 differs"
    assert details["permutation-sum"] == \
        "degree-2 symmetrization vs products: level 1 point (0, 1) differs"
    assert details["x-coefficient:s=1"] == "X coefficient 1*1"
    assert details["degree2-residuals:s=1"] == "nonzero at [(0, 0)]"
    assert details["degree2-residuals:s=2"] == "nonzero at [(0, 0)]"
    assert details["degree2-residuals:s=4"] == "reflection: nonzero at [4]"
    # E must equal its image, so the miss is image - display; C and G must
    # invert theirs, so it is (A∘φ)·display - 1
    assert details["substitution-derivation:E:s=2"] == "[((1, 0), '-1*1')]"
    assert details["substitution-derivation:G:s=2"] == "[((1, 0), '1*1')]"
    assert details["four-term-sum:trial0"] == "shape=(0, 0, 0) base=(1, 2) sum=1"


def test_an_x_coefficient_fails_its_own_line_only(monkeypatch):
    # the degree-2 residuals do not read the X coefficient; the artifact's
    # verdict still does
    x_term_in_product(monkeypatch)
    report = run_suite(FAULTS["x-coefficient:s=1"][1])[0]
    checks = {c.name: c for c in report.checks}
    assert [name for name, c in checks.items() if not c.passed] == ["x-coefficient:s=1"]
    assert checks["degree2-residuals:s=1"].detail == "extra_relations=[]"
    assert report.artifacts[0]["passed"] is False
