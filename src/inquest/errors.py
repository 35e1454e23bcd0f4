"""Exception types shared across the package, and ``reading``, which gives
the file loaders one way to raise them."""
import csv
from contextlib import contextmanager


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


class DomainError(InquestError):
    """A value falls outside its declared domain (e.g. ternary entry not in {0,1,2})."""


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
