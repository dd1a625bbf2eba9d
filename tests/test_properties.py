"""Properties checked with hypothesis where it is installed; skipped where it is not.

parse_matrix reads back every matrix format_matrix writes, over Q with
numerators and denominators past the interpreter's 4,300-digit int/str
limit, and over GF(p) with any int entry, which `Mat` reduces mod p.
"""

from fractions import Fraction

import pytest

from ratform import Mat, PrimeField, Rationals, format_matrix, parse_matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = [Rationals(), PrimeField(7), PrimeField(1000000007)]

# k * 10^d + r has 4,301 to about 6,000 digits, drawn from a few small numbers.
huge = st.builds(lambda k, d, r: k * 10**d + r, st.integers(1, 9999), st.integers(4300, 5990), st.integers(0, 10**9))
integers = st.one_of(st.integers(-(10**30), 10**30), huge, huge.map(lambda x: -x))


@st.composite
def matrices(draw):
    K = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if K.kind == "gf":
        scalar = integers
    else:
        scalar = st.builds(Fraction, integers, integers.filter(bool))
    row = st.lists(scalar, min_size=cols, max_size=cols)
    return Mat(K, draw(st.lists(row, min_size=rows, max_size=rows)))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(matrices())
def test_parse_reads_back_what_format_writes(m):
    assert parse_matrix(format_matrix(m)) == m
