from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zpmeasures.classical import mpos
from zpmeasures.cli import main
from zpmeasures.padic import (INF, PIntegralityError, PrimeContext, bernoulli,
                              binom, exact, repr_mod, vp)

rationals = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 60))


def test_prime_context_validation():
    PrimeContext(2, 1)
    PrimeContext(13, 4)
    with pytest.raises(ValueError):
        PrimeContext(6, 2)
    with pytest.raises(ValueError):
        PrimeContext(3, 0)


def test_vp_examples():
    assert vp(Fraction(9, 2), 3) == 2
    assert vp(0, 5) == INF
    assert vp(Fraction(3, 27), 3) == -2


@given(x=rationals, y=rationals)
@settings(max_examples=120)
def test_vp_multiplicative_and_ultrametric(x, y):
    p = 3
    if x != 0 and y != 0:
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
    assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


def test_repr_mod_examples():
    assert repr_mod(-1, 3, 2) == 8
    assert repr_mod(7, 3, 1) == 1
    # denominator inverted mod p^n: 2 * 5 == 10 == 1 mod 9
    assert repr_mod(Fraction(1, 2), 3, 2) == 5
    with pytest.raises(PIntegralityError):
        repr_mod(Fraction(1, 3), 3, 2)


@given(x=rationals, n=st.integers(1, 4))
@settings(max_examples=120)
def test_repr_mod_tower_compatible(x, n):
    p = 3
    if x.denominator % p == 0:
        return
    assert repr_mod(x, p, n + 1) % p ** n == repr_mod(x, p, n)
    r = repr_mod(x, p, n)
    assert vp(x - r, p) >= n


def test_mpos_of_repr_mod():
    # the 1..p^n indexing of the level formulas: p^n stands for the residue 0
    assert mpos(repr_mod(3, 3, 1), 3) == 3
    assert mpos(repr_mod(4, 3, 1), 3) == 1
    assert mpos(repr_mod(-1, 3, 2), 9) == 8
    assert mpos(repr_mod(Fraction(9, 2), 3, 2), 9) == 9
    assert mpos(repr_mod(7, 3, 0), 1) == 1  # level 0: the one residue is 1


def test_binom_examples():
    assert binom(-1, 3) == -1
    assert binom(Fraction(1, 2), 0) == 1
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)


@given(a=st.integers(-60, 60), k=st.integers(0, 10))
@settings(max_examples=120)
def test_binom_integer_arguments_are_integral(a, k):
    val = binom(a, k)
    assert val.denominator == 1
    for p in (2, 3, 5):
        assert vp(val, p) >= 0


def test_bernoulli_values():
    known = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
             Fraction(1, 42), 0, Fraction(-1, 30)]
    assert [bernoulli(k) for k in range(9)] == known


@given(x=rationals)
@example(x=Fraction(3, 1))
@example(x=Fraction(-7, 2))
@settings(max_examples=200)
def test_rational_round_trip(x):
    # reports print a rational with str and the CLI reads it back with Fraction
    for value in (x, exact(x)):
        text = str(value)
        assert Fraction(text) == x and not text.endswith("/1")
        assert text == (f"{x.numerator}/{x.denominator}" if x.denominator > 1
                        else str(x.numerator))


def test_cli_reads_rationals_with_surrounding_spaces(capsys):
    def emit(measure, *words):
        assert main(["emit", "measure", "--measure", measure, "--p", "3", "--nmax", "2",
                     *words]) == 0
        return capsys.readouterr().out

    assert emit("dirac", "--a", " 1/2 , 3") == emit("dirac", "--a", "1/2,3")
    assert emit("M", "--c", " 7 ") == emit("M", "--c", "7") != emit("M", "--c", "8")


@given(num=st.integers(-10 ** 6, 10 ** 6), den=st.integers(1, 60),
       p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200)
def test_int_fast_paths_match_the_fraction_path(num, den, p):
    # an int and the equal Fraction read the same; zero and negatives included
    for n in (num, -num, 0):
        assert vp(n, p) == vp(Fraction(n), p)
        assert str(n) == str(Fraction(n)) == str(exact(Fraction(n)))
        assert type(exact(n)) is int and type(exact(Fraction(n))) is int
        assert exact(Fraction(n)) == n
    x = Fraction(num, den)
    if num:
        assert vp(x, p) == vp(num, p) - vp(den, p)
    assert exact(x) == x
    assert type(exact(x)) is (int if x.denominator == 1 else Fraction)
    assert str(exact(x)) == str(x)


def test_exact_examples():
    assert exact(Fraction(6, 3)) == 2 and type(exact(Fraction(6, 3))) is int
    assert exact(Fraction(-3, 6)) == Fraction(-1, 2)
    assert exact("7/7") == 1 and type(exact("7/7")) is int
    assert str(exact(Fraction(-3, 6))) == "-1/2"
    assert vp(-12, 2) == 2 and vp(Fraction(-1, 12), 2) == -2
