"""Exception types shared across the package."""


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
    """A report or trace file could not be written or read."""
