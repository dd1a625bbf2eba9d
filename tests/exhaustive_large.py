"""The exhaustive similarity-class check at GF(3) n=3 and GF(2) n=4.

The same test as `test_exhaustive.py`, on the two groups too slow for
tier-1: 19,683 and 65,536 matrices, with 39 and 34 classes.  The file
name does not match `test_*.py`, so a plain `pytest` skips it; CI runs
it by name:

    PYTHONPATH=src python -m pytest -q tests/exhaustive_large.py
"""

import pytest

from test_exhaustive import test_rnf_separates_exactly_the_similarity_classes as check_classes


@pytest.mark.parametrize("q, n, classes", [(3, 3, 39), (2, 4, 34)])
def test_rnf_separates_exactly_the_similarity_classes_large(q, n, classes):
    check_classes(q, n, classes)
