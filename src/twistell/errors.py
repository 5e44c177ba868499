"""Exception types shared across the library.

Evaluators raise rather than returning junk: domain violations, truncation
failures and near-pole arguments are all reported explicitly so callers can
resample or widen windows.
"""


class TwistellError(Exception):
    """Base class for all library errors."""


class DomainError(TwistellError):
    """Argument lies outside the convergence domain of the requested series."""


class NearPole(DomainError):
    """Argument is too close to a genuine pole to evaluate meaningfully."""


class NotConverged(TwistellError):
    """A truncated series or product failed to reach the target tolerance."""


class OddDimension(TwistellError):
    """Pfaffian requested for an odd-dimensional matrix."""


class NotAntisymmetric(TwistellError):
    """Matrix fails the antisymmetry tolerance required for a Pfaffian."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"matrix is not antisymmetric: max |M + M^T| entry = {defect:.3e}")


class RouteUnavailable(TwistellError):
    """Neither lattice-oracle route applies (both twist components trivial)."""


class BalanceError(DomainError):
    """Lattice charges do not balance (sum of m's != sum of n's)."""


class UnsupportedTwist(TwistellError):
    """Requested correlator has no closed form at this twist."""
