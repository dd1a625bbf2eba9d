"""The README's API list names exactly the public surface, `ratform.__all__`."""

import re
from pathlib import Path

import ratform

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_list_is_ratform_all():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)`", section)
    assert sorted(names) == sorted(ratform.__all__)
    assert len(set(names)) == len(names)
    assert all(hasattr(ratform, name) for name in names)
