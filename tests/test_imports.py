"""Every name a module of the package imports is used in that module, and
no module imports a way to run code beside the one Python thread.

No linter runs on this code, so an import left behind by a refactor would
otherwise stay. This reads each module's syntax tree: a name bound by
``import`` or ``from ... import`` must be read somewhere else in the module.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "inquest"
# The package runs as one process on one Python thread.
CONCURRENCY = {"threading", "concurrent", "multiprocessing", "subprocess", "asyncio"}


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_name_imported_and_never_read_is_found():
    source = "import json\nfrom .errors import DomainError, IoError\nraise IoError(json)\n"
    assert unused_imports(source) == ["DomainError"]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute modules that ``source`` imports."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_concurrency(path):
    assert imported_modules(path.read_text(encoding="utf-8")) & CONCURRENCY == set()


def test_a_concurrency_import_is_found():
    source = ("from concurrent.futures import ThreadPoolExecutor\nimport os, threading\n"
              "from .errors import IoError\n")
    assert imported_modules(source) & CONCURRENCY == {"concurrent", "threading"}
