"""Each public name is declared once, in its module's `__all__`, and the README's API
list names exactly the public surface, `ratform.__all__`."""

import re
from pathlib import Path

import ratform
from ratform import canonical, cli, errors, field, linalg, matio, minpoly, poly

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_list_is_ratform_all():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)`", section)
    assert sorted(names) == sorted(ratform.__all__)
    assert len(set(names)) == len(names)
    assert all(hasattr(ratform, name) for name in names)


def test_each_public_name_is_declared_once_where_it_is_defined():
    modules = [field, poly, linalg, minpoly, canonical, matio, errors, cli]
    assert len(set(ratform.__all__)) == len(ratform.__all__)
    for name in ratform.__all__:
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(owners[0], name).__module__ == owners[0].__name__, name
