"""Exception types shared across the package, and the boundaries that raise
them: ``reading`` and ``fields`` (a JSON object's typed fields) for loaders,
``writing`` and ``json_line`` for writers, and ``check_setting``, the one
range rule for a setting or a numeric argument."""
import csv
import dataclasses
import json
import math
import numbers
from contextlib import contextmanager, suppress
from pathlib import Path


class InquestError(Exception):
    """Base class for all package-specific errors."""


class ParseError(InquestError):
    """A file row or record could not be parsed."""


class ValidationError(InquestError):
    """A structural invariant was violated."""


class ConfigError(InquestError):
    """A configuration value is out of range or inconsistent."""


class InconsistentEvidence(InquestError):
    """Observed evidence contradicts the hierarchy (confirmed child of denied parent)."""


class EmptyDataset(InquestError):
    """An operation that needs records received none."""


class EmptyInput(InquestError):
    """An aggregate metric received no inputs."""


class DigestMismatch(InquestError):
    """Two artifacts that must share an ontology or config digest do not."""


class ShapeError(InquestError):
    """Array dimensions do not match the declared model geometry."""


class DomainError(ConfigError):
    """A value falls outside its declared domain: a setting or numeric argument
    that breaks its ``SETTING_RULES`` rule, or a ternary entry not in {0,1,2}."""


class NonFinite(InquestError):
    """A numeric input contains NaN or infinity."""


class IllegalAction(InquestError):
    """A question violates the action legality rules for the current state."""


class NoLegalAction(InquestError):
    """The legality mask admits no action at all."""


class PairingError(InquestError):
    """Traces and source patients could not be matched one-to-one."""


class IoError(InquestError):
    """A file could not be written or read."""


@contextmanager
def reading(what: str):
    """Raise whatever goes wrong while loading ``what`` as an InquestError:
    IoError when the file cannot be read, ParseError when its bytes do not
    decode or its values do not convert. InquestErrors pass unchanged."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot read {what}: {exc}") from exc
    except (ValueError, TypeError, KeyError, IndexError, AttributeError, OverflowError,
            RecursionError, csv.Error) as exc:
        raise ParseError(f"malformed {what}: {exc}") from None


@contextmanager
def writing(path, binary: bool = False):
    """Open ``path`` for writing, as UTF-8 text with ``newline=""`` or as bytes,
    after creating its parent directory; any OSError raises IoError. Writers
    enter it only after every check, so a refused artifact leaves no file.

    If the body raises, the file is removed. A writer of several files nests
    one ``writing`` per file, so that a failure on any of them removes all."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
    except BaseException as exc:
        with suppress(OSError):
            Path(path).unlink()
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def json_line(obj, what: str, indent: int | None = None) -> str:
    """``obj`` as JSON with sorted keys, compact separators (or ``indent``) and a
    newline; tuples encode as arrays. A NaN or infinity raises NonFinite naming
    ``what``. Every payload is a tree the package builds itself, so the
    encoder skips the walk that looks for cycles."""
    try:
        return json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False,
                          check_circular=False,
                          separators=None if indent else (",", ":")) + "\n"
    except ValueError:
        raise NonFinite(f"{what} holds non-finite values; nothing written") from None


_KIND_NAMES = {int: "integer", float: "finite number", str: "string", bool: "boolean",
               dict: "object", list: "list"}


def _kind_name(kind, plural: bool = False) -> str:
    if isinstance(kind, list):
        return ("lists" if plural else "a list") + " of " + _kind_name(kind[0], plural=True)
    name = _KIND_NAMES[kind]
    return name + "s" if plural else ("an " if name[0] in "aeio" else "a ") + name


def typed(value, kind):
    """``value`` if it is a JSON value of ``kind``, else TypeError. ``kind`` is
    ``int`` (not a boolean), ``float`` (a finite int or float, returned as a
    float), ``str``, ``bool``, ``dict``, ``list``, or ``[kind]``, a list of
    that kind returned as a tuple."""
    if isinstance(kind, list) and type(value) is list:
        with suppress(TypeError):
            return tuple([typed(v, kind[0]) for v in value])
    elif kind is float and type(value) in (int, float):
        with suppress(OverflowError):  # an int too large for a float
            if math.isfinite(value):
                return float(value)
    elif type(value) is kind:
        return value
    raise TypeError(f"expected {_kind_name(kind)}, got {value!r:.60}")


def fields(obj, spec: dict, what: str) -> dict:
    """The fields that ``spec`` (``{field: kind}``) declares of the JSON object
    ``obj``, each ``typed``. Raises ParseError naming ``what`` when ``obj`` is
    not an object or a field is missing or of another kind."""
    if type(obj) is not dict:
        raise ParseError(f"{what} is not a JSON object")
    out = {}
    for key, kind in spec.items():
        if key not in obj:
            raise ParseError(f"{what} missing field {key!r}")
        try:
            out[key] = typed(obj[key], kind)
        except TypeError as exc:
            raise ParseError(f"{what} has a malformed {key!r}: {exc}") from None
    return out


# Each rule a settings field can declare: what it requires, and the test that
# a value of the field's kind (a finite number, or a tuple for "sizes") must pass.
SETTING_RULES = {
    "count": ("an integer >= 1", lambda v: v >= 1),
    "non-negative": ("non-negative", lambda v: v >= 0),
    "positive": ("positive", lambda v: v > 0),
    "rate": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "discount": ("in (0, 1]", lambda v: 0 < v <= 1),
    "finite": ("finite", lambda v: True),
    "sizes": ("a tuple of integers >= 1", lambda v: all(
        isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1 for n in v)),
}


def setting(default, rule: str):
    """A settings dataclass field with ``default`` and one of ``SETTING_RULES``,
    which the class's ``__post_init__`` applies through ``check_settings``."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def check_setting(name: str, value, rule: str, integral: bool) -> None:
    """Raise DomainError naming ``name`` unless ``value`` meets ``rule``, one
    of ``SETTING_RULES``. "sizes" asks for a tuple; every other rule asks for
    a finite number that is not a boolean, an integer where ``integral``, so
    NaN and infinity break them all."""
    says, holds = SETTING_RULES[rule]
    if rule == "sizes":
        ok = isinstance(value, tuple) and holds(value)
    else:
        kind = numbers.Integral if integral else numbers.Real
        ok = (isinstance(value, kind) and not isinstance(value, bool)
              and math.isfinite(value) and holds(value))
    if not ok:
        raise DomainError(f"{name} must be {says}, got {value!r}")


def check_settings(obj) -> None:
    """Raise DomainError naming the first field of the settings dataclass
    ``obj`` that breaks its rule (``check_setting``); a field whose default is
    an int must hold an integer."""
    for f in dataclasses.fields(obj):
        if "rule" in f.metadata:
            check_setting(f.name, getattr(obj, f.name), f.metadata["rule"],
                          integral=isinstance(f.default, int))
