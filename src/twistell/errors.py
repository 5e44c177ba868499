"""Exception types shared across the library.

Evaluators raise rather than returning junk: domain violations, truncation
failures and near-pole arguments are all reported explicitly so callers can
resample or widen windows.
"""


class TwistellError(Exception):
    """Base class for all library errors.

    A batch form raises the error of its first refused point, which carries the batch's
    outcome: (values, statuses), statuses an object array holding each refused entry's
    Refusal and None elsewhere, laid out as the values. outcome is None on any other
    error.
    """

    outcome = None


class Refusal:
    """One refused entry of a batch: the type of its error, and the error itself, built
    only when it is raised: kind(message(at)), message(at) giving the message or the
    error; or message is the error already built."""

    __slots__ = ("kind", "message", "at")

    def __init__(self, kind: type, message, at=None):
        self.kind, self.message, self.at = kind, message, at

    @classmethod
    def of(cls, exc: TwistellError) -> "Refusal":
        return cls(type(exc), exc)

    def error(self) -> TwistellError:
        msg = self.message(self.at) if callable(self.message) else self.message
        return msg if isinstance(msg, TwistellError) else self.kind(msg)


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
