"""Every matrix over a tiny field, for the paper's n = 2, 3 claim.

The similarity classes of n x n matrices over GF(q) are counted by the
sum over the partitions of n of q^(number of parts).  Grouping all
q^(n^2) matrices by the factor list `rnf` returns must give exactly
that many groups, and each group must be closed under conjugation by
generators of GL_n(q): the transvections I + E_ij, and diag(c, 1, ...,
1) for every c other than 0 and 1, a generator of GF(q)* among them.
Together the two checks say the factor list is constant on each class
and tells any two classes apart.  The conjugations are integer
arithmetic mod q written here, so they share no code with the library.
Conjugation is linear, so each generator's images of all q^(n^2)
matrices are built from its images of the n^2 unit matrices.
"""

import itertools

import pytest

from ratform import Mat, PrimeField, rnf


def partitions(n, largest=None):
    """The partitions of n with parts at most `largest`, as tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def conjugators(q, n):
    """(S, S^-1) over GF(q) for S = I + E_ij and diag(c, 1, ..., 1), which generate GL_n(q)."""
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = []
    edits = [(i, j, 1, q - 1) for i, j in itertools.permutations(range(n), 2)]
    edits += [(0, 0, c, pow(c, -1, q)) for c in range(2, q)]
    for i, j, x, y in edits:
        s, s_inv = [r[:] for r in unit], [r[:] for r in unit]
        s[i][j], s_inv[i][j] = x, y
        pairs.append((s, s_inv))
    return pairs


def mul_mod(q, x, y):
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*y)] for row in x]


def conjugated(q, n, s, s_inv, entries):
    a = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
    return tuple(itertools.chain(*mul_mod(q, mul_mod(q, s_inv, a), s)))


def conjugation_images(q, n, s, s_inv):
    """S^-1 * M * S for every M, in `itertools.product` order, by linearity.

    The map is linear on GF(q)^(n*n).  So M's image is the image of M
    less one unit term, found earlier in the list, plus that unit
    term's image: two products per unit matrix, not per matrix.
    """
    size = n * n
    units = [conjugated(q, n, s, s_inv, [int(k == i) for i in range(size)]) for k in range(size)]
    images = [(0,) * size]
    for index in range(1, q**size):
        k, step = size - 1, 1  # the last non-zero entry of M, and its place value
        while index // step % q == 0:
            k, step = k - 1, step * q
        images.append(tuple((x + y) % q for x, y in zip(images[index - step], units[k])))
    return images


@pytest.mark.parametrize("q, n, classes", [(2, 2, 6), (3, 2, 12), (2, 3, 14)])
def test_rnf_separates_exactly_the_similarity_classes(q, n, classes):
    assert sum(q ** len(parts) for parts in partitions(n)) == classes
    K = PrimeField(q)
    factors = {}
    for entries in itertools.product(range(q), repeat=n * n):
        got = rnf(Mat(K, [entries[i * n : (i + 1) * n] for i in range(n)])).factors
        assert sum(f.degree for f in got) == n
        factors[entries] = tuple(str(f) for f in got)
    groups = {}
    for entries, key in factors.items():
        groups[key] = groups.get(key, 0) + 1
    assert len(groups) == classes
    assert sum(groups.values()) == q ** (n * n)
    matrices = list(factors)  # in product order, as `conjugation_images` lists them
    for s, s_inv in conjugators(q, n):
        images = conjugation_images(q, n, s, s_inv)
        for index in range(0, len(matrices), 97):  # spot checks against the direct products
            assert images[index] == conjugated(q, n, s, s_inv, matrices[index])
        for entries, image in zip(matrices, images):
            assert factors[image] == factors[entries]
