"""Every library module and every public library name is used by the library.

A module or function that only tests use is a second implementation or dead
code; the entry points (``cli.py`` and ``__init__.py``) and the names in
``UNUSED_ALLOWED`` are the only exceptions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "foucast"
ENTRY_POINTS = {"cli", "__init__"}
UNUSED_ALLOWED = {
    # criterion 4's finite-difference checker: it verifies the tape's reverse
    # rules, so the library ships it even though no library code calls it
    ("autodiff", "grad_check"),
    # the benchmark's forecast check scores predictions with it (perfbench/)
    ("metrics", "mse"),
}


def sibling_module(node: ast.ImportFrom) -> str | None:
    """The foucast module an import names: "" for the package, None if not foucast."""
    if node.level == 1:
        return node.module.split(".")[0] if node.module else ""
    if node.module and node.module.startswith("foucast."):
        return node.module.split(".")[1]
    return "" if node.module == "foucast" else None


def imported_modules(path: Path) -> set[str]:
    """Names of the sibling foucast modules that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = sibling_module(node)
            if module:
                names.add(module)
            elif module == "":
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


def mentions(module: str, tree: ast.Module) -> set[tuple[str, str, str, str | None]]:
    """(target module, name, mentioning module, enclosing top-level def) per mention.

    A mention is a bare name (resolved in ``module``), an attribute of an
    imported sibling module (``ad.cunit``) or an imported name.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and sibling_module(node) == "":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
    found = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add((module, node.id, module, owner))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                found.add((aliases[node.value.id], node.attr, module, owner))
            elif isinstance(node, ast.ImportFrom) and sibling_module(node):
                found.update((sibling_module(node), a.name, module, owner) for a in node.names)
    return found


def test_every_public_name_is_used_by_the_library():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert "autodiff" in trees, f"no library sources under {SRC}"
    seen = set().union(*(mentions(m, t) for m, t in trees.items()))
    # a def's mentions of itself (recursion) do not count as a use
    used = {(target, name) for target, name, src, owner in seen
            if not (src == target and owner == name)}
    public = {(m, node.name) for m, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unused = sorted(f"{m}.{n}" for m, n in public - used - UNUSED_ALLOWED)
    assert not unused, f"public names no src module uses: {unused}"
