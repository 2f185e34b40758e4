"""Exception types shared across the package."""


class GraphStructureError(ValueError):
    """Base class for structural problems with graph input."""


class SelfLoopError(GraphStructureError):
    pass


class DuplicateEdgeError(GraphStructureError):
    pass


class VertexRangeError(GraphStructureError):
    pass


class DisconnectedError(GraphStructureError):
    pass


class GraphFormatError(ValueError):
    """Malformed graph or colouring text; carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GroupCapError(RuntimeError):
    """A permutation group grew past the configured element cap."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class DomainNotInvariantError(ValueError):
    """Orbit computation was asked for a domain the group does not preserve."""


class NotAPartitionActionError(ValueError):
    """The group does not permute the blocks of the given partition."""


class InternalInvariantError(RuntimeError):
    """A bound or invariant that the construction guarantees was violated.

    Raised only on internal-consistency failures; seeing one means a bug,
    not bad input.
    """


class AsymmetricGraphError(ValueError):
    """Motion was requested for a graph whose automorphism group is trivial."""


class SearchGuardError(ValueError):
    """An exhaustive oracle search would exceed its feasibility guard."""


class NoAsymmetricColouringError(ValueError):
    """No asymmetric colouring exists within the allowed number of colours."""
