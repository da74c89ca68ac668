"""Every library module is used by another library module.

A module that only tests import is a second implementation or dead code;
the entry points (``cli.py`` and ``__init__.py``) are the only exceptions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "foucast"
ENTRY_POINTS = {"cli", "__init__"}


def imported_modules(path: Path) -> set[str]:
    """Names of the sibling foucast modules that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                names.add(node.module.split(".")[0])
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("foucast."):
                names.add(node.module.split(".")[1])
            elif node.module == "foucast":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("foucast."))
    return names


def test_every_module_is_imported_by_another():
    modules = {p.stem: p for p in SRC.glob("*.py")}
    used = set()
    for name, path in modules.items():
        used |= imported_modules(path) - {name}
    orphans = sorted(set(modules) - used - ENTRY_POINTS)
    assert not orphans, f"modules no other src module imports: {orphans}"
