"""Exception hierarchy shared across the package."""


class HermiteSofError(Exception):
    """Base class for all package errors."""


class InputError(HermiteSofError):
    """Malformed or dimensionally inconsistent user input."""


class DegenerateInputError(HermiteSofError):
    """Input is structurally valid but numerically degenerate (zero polynomial,
    vanishing leading/constant coefficient, ...)."""


class UnsupportedNodeError(HermiteSofError):
    """Interpolation nodes would produce a non-real symmetric matrix."""


class NodeCountError(HermiteSofError):
    """Selected polynomial part does not supply the required number of nodes."""


class BarrierDomainError(HermiteSofError):
    """Matrix argument left the domain of the shifted log barrier.  `top`
    is the largest eigenvalue of the matrix that crossed the domain limit,
    or None when the point was rejected before one was computed."""

    def __init__(self, message: str, top: float | None = None):
        super().__init__(message)
        self.top = top
