"""The names the benchmark's tracer rebinds must exist in the library.

`bench/spans.py` wraps library functions and methods by name, through
`getattr`, when `bench/run.py --trace 1` runs.  Deleting one of them
from `src/` passes every other test here and only breaks the traced
benchmark run, with an `AttributeError`.  This test imports the
tracer's tables from `bench/` and checks each name.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_tracer_rebinds_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    owners = [(module, attr) for module, attr, _ in spans.FUNCTIONS]
    owners += [(cls, attr) for cls, attr, _ in spans.METHODS]
    owners.append((spans.linalg.Mat, "__mul__"))
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in owners if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
