"""Exception types shared across the package."""

__all__ = ["VerificationError", "IntegrationError"]


class VerificationError(AssertionError):
    """A certified property failed to verify numerically.

    Raised when a self-check that should hold for every admissible
    parameter set fails: a spurious fixed or periodic point survives a
    scan, a scan's iterates are not finite, or a residual that must
    vanish does not.  Deliberately an AssertionError subclass: these
    are "stop and look" conditions, not recoverable input problems.
    """


class IntegrationError(RuntimeError):
    """The reference integrator left the region where the flow makes sense
    (non-finite values, or the larval count fell below -0.5), or the full
    map, the flow's unit-step Euler scheme, left the quadrant."""
