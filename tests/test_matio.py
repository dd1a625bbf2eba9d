import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import rand_matrix
from ratform import Mat, PrimeField, Rationals, format_matrix, parse_matrix
from ratform.errors import MatrixParseError


SAMPLE = """\
# comment line
field rational
2 3
1/2 0 -3   # trailing comment
0 1 7
"""


def test_parse_basic():
    m = parse_matrix(SAMPLE)
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.field == Rationals()
    assert m.data[0][0] == Rationals().parse("1/2")


def test_parse_gf_header_and_reduction():
    m = parse_matrix("field gf 7\n1 3\n10 -3 6\n")
    assert m.field == PrimeField(7)
    assert m.data[0] == [3, 4, 6]


def test_square_size_shorthand():
    m = parse_matrix("field rational\n2\n1 2\n3 4\n")
    assert m == Mat.from_ints(Rationals(), [[1, 2], [3, 4]])


def test_field_override():
    text = "field rational\n1\n9\n"
    m = parse_matrix(text, field=PrimeField(7))
    assert m.field == PrimeField(7) and m.data[0][0] == 2


def test_parse_errors_name_line_numbers():
    with pytest.raises(MatrixParseError, match="line 1"):
        parse_matrix("")
    with pytest.raises(MatrixParseError, match="line 1"):
        parse_matrix("flied rational\n1\n1\n")
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix("field rational\nx y\n1\n")
    with pytest.raises(MatrixParseError, match="line 3"):
        parse_matrix("field rational\n2\n1 2 3\n4 5\n")
    with pytest.raises(MatrixParseError, match="line 4"):
        parse_matrix("field rational\n2\n1 2\n3 oops\n")
    with pytest.raises(MatrixParseError, match="line 5"):
        parse_matrix("field rational\n2\n1 2\n3 4\n5 6\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("field gf 6\n1\n0\n")  # composite modulus


def test_format_parse_round_trip_is_byte_stable():
    for K in (Rationals(), PrimeField(7)):
        rng = random.Random(113)
        for _ in range(40):
            m = rand_matrix(K, rng, rng.randint(1, 5), rng.randint(1, 5))
            text = format_matrix(m)
            again = parse_matrix(text)
            assert again == m
            assert format_matrix(again) == text


def printable_scalar(K, rng):
    """A scalar format_matrix may print: over Q, some of 4,301 to 6,000 digits a side."""
    if K.kind == "gf":
        return rng.randrange(K.p)
    sizes = (rng.randint(1, 30), rng.randint(4301, 6000))
    d, e = rng.choice(sizes), rng.choice(sizes)
    num = rng.randrange(10 ** (d - 1), 10**d) * rng.choice((-1, 1))
    return Fraction(num, rng.choice((1, 7, 10**e + 3)))


@pytest.mark.parametrize("K", [Rationals(), PrimeField(7), PrimeField(1000000007)], ids=["Q", "GF7", "GF1e9+7"])
def test_parse_reads_back_what_format_writes(K):
    rng = random.Random(4301)
    longest = 0
    for _ in range(10):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = Mat(K, [[printable_scalar(K, rng) for _ in range(cols)] for _ in range(rows)])
        text = format_matrix(m)
        assert parse_matrix(text) == m
        longest = max(longest, *map(len, text.split()))
    assert longest > 4300 or K.kind == "gf"


LOWEST_LIMIT = """\
import sys
sys.path.insert(0, sys.argv[1])
from ratform import Mat, Rationals, format_matrix, parse_matrix
from fractions import Fraction
K = Rationals()
entries = [Fraction((10**d - 1) // 3, 10**e + 1) for d, e in ((641, 1), (4300, 700), (4301, 6000))]
m = Mat(K, [entries])
assert parse_matrix(format_matrix(m)) == m
"""


def test_parse_reads_back_under_the_lowest_int_to_str_limit():
    """int() refuses strings past 640 digits when the interpreter is set to
    its least limit; what format_matrix writes still reads back."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-I", "-X", "int_max_str_digits=640", "-c", LOWEST_LIMIT, src],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
