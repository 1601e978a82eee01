"""Typed errors shared across the package."""


class CycleWallError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CycleWallError):
    """Malformed input data (bad group table, bad presentation file, ...)."""


class GroupMismatchError(CycleWallError):
    """Operands belong to different groups or presentations."""


class InfiniteGroupError(CycleWallError):
    """An enumeration was requested over an infinite group."""


class EnumerationCapError(CycleWallError):
    """A finite group exceeds the configured brute-force bound."""


class ResourceLimitError(CycleWallError):
    """A construction would exceed the configured memory budget."""


class DecompositionError(CycleWallError):
    """Generator images are not consistent with any inner-times-local map.

    Carries a human-readable witness describing the first failed constraint.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantError(CycleWallError):
    """A complex breaks a structural invariant an audit relies on.

    Audits report it as a failed check; ``witness`` locates the fault.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FillError(CycleWallError):
    """A loop could not be filled by a disc diagram inside the given ball."""
