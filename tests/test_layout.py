"""Every library module, public library name and dataclass field is used by the
library, and one module fans work out over threads.

A module or function that only tests use is a second implementation or dead
code; the entry points (``cli.py`` and ``__init__.py``) and the names in
``UNUSED_ALLOWED`` are the only exceptions.  ``pool.fan_out`` is the one
fan-out, so only ``pool.py`` imports ``concurrent.futures``, and training,
evaluation and dataset synthesis each fan out once.  Resampling and the
covariate blur are numpy, so no module imports scipy: the package needs numpy
alone, and the tests keep scipy as an oracle.  Only ``params.py`` reinterprets
an array's dtype, so parameters, gradients and moments keep one flat layout.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "foucast"
ENTRY_POINTS = {"cli", "__init__"}
UNUSED_ALLOWED = {
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


def dataclass_fields(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, field) for every field declared by a ``@dataclass`` class in ``tree``."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            found.update((node.name, stmt.target.id) for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
    return found


def attribute_reads(tree: ast.Module) -> set[tuple[str, str | None, str | None]]:
    """(attribute, enclosing class, enclosing method) for every attribute load in ``tree``."""
    found = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
        for member in stmt.body if owner else [stmt]:
            method = member.name if owner and isinstance(member, ast.FunctionDef) else None
            found.update((node.attr, owner, method) for node in ast.walk(member)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return found


# Fields that only a reader outside src/ or a planned reader needs, each with that reader.
UNREAD_FIELDS_ALLOWED = {
    ("Manifest", "path"),  # perfbench/workloads.py puts its checkpoint and reports beside it
}


def test_every_dataclass_field_is_read():
    """A field only its own checks read is state nothing uses; reads match by name."""
    trees = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    declared = set().union(*(dataclass_fields(t) for t in trees))
    reads = set().union(*(attribute_reads(t) for t in trees))
    read = {(cls, name) for cls, name in declared
            if any(attr == name and not (owner == cls and method in ("__post_init__", "validate"))
                   for attr, owner, method in reads)}
    unread = sorted(f"{c}.{n}" for c, n in declared - read - UNREAD_FIELDS_ALLOWED)
    assert not unread, f"dataclass fields src/ never reads: {unread}"


def absolute_imports(tree: ast.Module) -> set[str]:
    """Top-level package of every absolute import in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
    return names


def test_data_config_does_not_repeat_generator_fields():
    """[data] generator settings live on SyntheticEventConfig alone; DataConfig holds that."""
    from dataclasses import fields

    from foucast.config import DataConfig
    from foucast.synth import SyntheticEventConfig

    shared = {f.name for f in fields(DataConfig)} & {f.name for f in fields(SyntheticEventConfig)}
    assert shared == {"seed"}, f"fields declared on both: {sorted(shared)}"


def test_only_pool_imports_concurrent_futures():
    importers = sorted(p.stem for p in SRC.glob("*.py")
                       if "concurrent" in absolute_imports(ast.parse(p.read_text())))
    assert importers == ["pool"], f"modules importing concurrent.futures: {importers}"


def test_fan_out_has_one_call_site_per_caller():
    """Training, evaluation and dataset synthesis each fan out once: a train step runs
    each sample as one task, evaluation each test event, and synthesis each event."""
    calls = {}
    for p in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Call) and "fan_out" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls[p.stem] = calls.get(p.stem, 0) + 1
    assert calls == {"train": 1, "evaluate": 1, "synth": 1}, f"fan_out call sites per module: {calls}"


def test_only_params_reinterprets_dtypes():
    """``ParamSet`` owns the flat layout: complex parameters as (re, im) float64 pairs.
    Another module that calls ``ndarray.view`` with a dtype would fork that layout."""
    views = {}
    for p in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "view"
                    and (node.args or node.keywords)):
                views[p.stem] = views.get(p.stem, 0) + 1
    assert list(views) == ["params"], f"ndarray.view(dtype) calls per module: {views}"


def test_no_src_module_imports_scipy():
    importers = sorted(p.stem for p in SRC.glob("*.py")
                       if "scipy" in absolute_imports(ast.parse(p.read_text())))
    assert importers == [], f"modules importing scipy: {importers}"


def test_importing_the_cli_loads_no_scipy():
    """Also no scipy module that a third-party import pulls in, which the scan above misses."""
    import os
    import subprocess
    import sys

    code = "import sys, foucast.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
