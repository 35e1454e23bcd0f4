"""Every name a module of the package imports is used in that module.

No linter runs on this code, so an import left behind by a refactor would
otherwise stay. This reads each module's syntax tree: a name bound by
``import`` or ``from ... import`` must be read somewhere else in the module.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "inquest"


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
