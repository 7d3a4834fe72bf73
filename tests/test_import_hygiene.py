"""Import hygiene: scripts outside ``src/repro`` use the facade only,
and the package itself imports nothing it does not use.

``repro.api`` is the package's stability boundary; everything else may
be refactored freely between releases.  The examples and benchmarks are
the in-repo consumers that demonstrate the supported import surface, so
they must not reach into ``repro.codec``/``repro.sim`` (or any other
internal module) directly — a deep import that creeps in here is
exactly the kind that later breaks downstream users.

The check parses every script with :mod:`ast` (catching imports nested
inside functions too, which grep-style lint misses) and fails with a
file:line listing of the offenders.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Directories that must import only through the facade.
FACADE_ONLY_DIRS = ("examples", "benchmarks")

#: The only allowed module from the ``repro`` namespace.
ALLOWED = {"repro.api"}


def _facade_only_files() -> list[Path]:
    files = []
    for dirname in FACADE_ONLY_DIRS:
        files.extend(sorted((REPO_ROOT / dirname).glob("*.py")))
    assert files, "expected example/benchmark scripts to exist"
    return files


def _repro_imports(path: Path) -> list[tuple[int, str]]:
    """All ``repro``-namespace modules imported by ``path``, with lines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative import; not the repro namespace
                continue
            if module == "repro" or module.startswith("repro."):
                found.append((node.lineno, module))
    return found


@pytest.mark.parametrize(
    "path", _facade_only_files(), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_scripts_import_only_the_facade(path: Path):
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {module}"
        for line, module in _repro_imports(path)
        if module not in ALLOWED
    ]
    assert not offenders, (
        "deep repro imports outside the facade (use repro.api instead):\n"
        + "\n".join(offenders)
    )


def test_the_checker_sees_nested_imports(tmp_path):
    """Guard the guard: function-local deep imports must be caught."""
    script = tmp_path / "sneaky.py"
    script.write_text(
        "def f():\n"
        "    from repro.codec.encoder import Encoder\n"
        "    import repro.sim.pipeline\n"
        "    return Encoder\n"
    )
    modules = {module for _, module in _repro_imports(script)}
    assert modules == {"repro.codec.encoder", "repro.sim.pipeline"}


#: Modules whose imports exist to be re-exported, not used.
RE_EXPORT_MODULES = {"__init__.py", "api.py"}


def _unused_module_imports(path: Path) -> list[tuple[int, str]]:
    """Module-level imports of ``path`` whose bound name is never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_unused_module_imports():
    """Every module-level import under ``src/repro`` is used.

    ruff's F401 is switched off in pyproject.toml (some test imports
    only register fixtures), so this is the check for the package.
    """
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if path.name not in RE_EXPORT_MODULES
        for line, name in _unused_module_imports(path)
    ]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def test_the_unused_import_checker_sees_unused_names(tmp_path):
    """Guard the guard: unused plain, dotted and aliased imports."""
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import Optional, Sequence\n"
        "def f(items: Sequence[int]) -> int:\n"
        "    return len(items)\n"
    )
    names = {name for _, name in _unused_module_imports(module)}
    assert names == {"os", "codec", "Optional"}
