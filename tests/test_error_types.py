"""Every error type that ``errors.py`` declares is raised by the package.

An error class that no code raises is dead API: callers may catch it and
tests may name it, but nothing can reach it. This reads the syntax trees of
the package: each ``InquestError`` subclass declared in ``errors.py`` must be
raised somewhere in ``src/inquest``, or be a base of a class that is.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "inquest"


def declared_errors(source: str) -> dict[str, str | None]:
    """``{class: its base}`` for each class of ``source`` that derives,
    directly or not, from ``InquestError``; the root maps to None. A base is
    declared before its subclasses, so one pass in source order finds all."""
    errors = {"InquestError": None}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.ClassDef) and node.bases
                and getattr(node.bases[0], "id", None) in errors):
            errors[node.name] = node.bases[0].id
    return errors


def raised_names(source: str) -> set[str]:
    """The names that ``raise`` statements of ``source`` raise, called or not."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def unraised(errors: dict[str, str | None], raised: set[str]) -> list[str]:
    """The declared errors that are neither raised nor a base of one that is."""
    reached = set()
    for name in raised & errors.keys():
        while name is not None:
            reached.add(name)
            name = errors[name]
    return sorted(errors.keys() - reached)


def test_every_declared_error_is_raised_or_a_base_of_one_that_is():
    errors = declared_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8"))
                           for path in PACKAGE.glob("*.py")))
    assert len(errors) > 1
    assert unraised(errors, raised) == []


def test_an_error_type_nobody_raises_is_found():
    source = ("class InquestError(Exception): pass\n"
              "class ConfigError(InquestError): pass\n"
              "class DomainError(ConfigError): pass\n"
              "class Unused(InquestError): pass\n"
              "class Other(Exception): pass\n")
    errors = declared_errors(source)
    assert errors == {"InquestError": None, "ConfigError": "InquestError",
                      "DomainError": "ConfigError", "Unused": "InquestError"}
    raised = raised_names("def f(x):\n    if x:\n        raise DomainError('x')\n"
                          "    raise Other\n")
    assert raised == {"DomainError", "Other"}
    assert unraised(errors, raised) == ["Unused"]
