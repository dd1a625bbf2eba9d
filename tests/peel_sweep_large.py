"""The trusting peel against the full scan on 2,000 seeded structured inputs.

The comparison of `test_trusting_peel.py` at n = 10-40 (n = 10-16 over
Q, where Fraction arithmetic dominates), over GF(2), GF(7), GF(101)
and Q: every family of `peel_families`, with its seeds fixed, must
give the factors and T of a run forced onto the full scan.  It prints
how many inputs trusted a block and how many were peeled again.  The
file name does not match `test_*.py`, so a plain `pytest` skips it; CI
runs it by name:

    PYTHONPATH=src python -m pytest -q -s tests/peel_sweep_large.py
"""

import collections
import itertools
import random

from ratform import PrimeField, Rationals, rnf
from test_trusting_peel import attempts, full_scan, peel_families

INPUTS = 2000
FIELDS = [PrimeField(2), PrimeField(7), PrimeField(101), Rationals()]


def _inputs():
    """(field, seed, family, A), the fields in turn, one seed per n."""
    for seed in itertools.count():
        K = FIELDS[seed % len(FIELDS)]
        rng = random.Random(seed)
        n = rng.randint(10, 40) if K.kind == "gf" else rng.randint(10, 16)
        for name, a in peel_families(K, rng, n):
            yield K, seed, name, a


def test_the_trusting_peel_matches_the_full_scan_large(monkeypatch):
    trusted, retried = collections.Counter(), collections.Counter()
    for K, seed, name, a in itertools.islice(_inputs(), INPUTS):
        with monkeypatch.context() as m:
            seen = attempts(m)
            got = rnf(a)
        with monkeypatch.context() as m:
            full_scan(m)
            want = rnf(a)
        assert got.factors == want.factors, (K.describe(), seed, name)
        assert got.transform == want.transform, (K.describe(), seed, name)
        trusted[K.describe()] += bool(seen[0])
        retried[K.describe()] += len(seen) - 1
    print(f"\n{INPUTS} inputs; per field, those that trusted a block / were peeled again:")
    for f in (K.describe() for K in FIELDS):
        print(f"  {f}: {trusted[f]} / {retried[f]}")
    assert all(trusted.values()) and retried <= trusted
