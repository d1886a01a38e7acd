from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from polyref import MPoly

small = st.fractions(-3, 3, max_denominator=4)
mpolys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), small,
                         max_size=5).map(lambda c: MPoly(2, c))


@settings(max_examples=150, deadline=None)
@given(mpolys, mpolys, st.tuples(small, small))
def test_mpoly_terms_stay_nonzero_and_agree_with_evaluate(f, g, point):
    fv, gv = f.evaluate(point), g.evaluate(point)
    for r, want in ((f + g, fv + gv), (f - g, fv - gv), (f * g, fv * gv),
                    (f - f, 0), (-f, -fv), (f + 2, fv + 2)):
        assert all(type(c) is Fraction and c != 0 for c in r.coeffs.values())
        assert r.evaluate(point) == want
    assert not (f - f).coeffs
