"""The README's "Library API" list names exactly the package's exports."""

import importlib
import re
from pathlib import Path

import gybe

_README = Path(__file__).resolve().parents[1] / "README.md"


def _library_api() -> dict[str, list[str]]:
    """{module: names} from the README's "Library API" section."""
    section = _README.read_text(encoding="utf-8").split("## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^- `(gybe\.\w+)`: (.+)$", section, flags=re.MULTILINE):
        listed[module] = re.findall(r"`(\w+)`", names)
    return listed


def test_readme_api_list_matches_all():
    listed = _library_api()
    names = [name for module_names in listed.values() for name in module_names]
    assert sorted(names) == sorted(gybe.__all__)
    for module, module_names in listed.items():
        defining = importlib.import_module(module)
        for name in module_names:
            assert getattr(defining, name) is getattr(gybe, name), (module, name)
