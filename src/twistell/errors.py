"""Exception types shared across the library, and the record of a batch's refusals.

Evaluators raise rather than returning junk: domain violations, truncation
failures and near-pole arguments are all reported explicitly so callers can
resample or widen windows. A batch form records in a dict, fails, each refused point's
error, built at its first failed check, and raises with its outcome (_settle).
"""

import numpy as np


class TwistellError(Exception):
    """Base class for all library errors.

    A batch form raises (a copy of) the error of its first refused point, which carries
    the batch's outcome: (values, statuses), statuses an object array laid out as the
    values, holding each refused entry's error and None elsewhere. outcome is None on any
    other error.
    """

    outcome = None


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


def _refuse(fails: dict, at, error) -> None:
    """Record at the points at (a mask or indexes) that have no error yet the error
    itself, or error(j) at point j where error is not one."""
    if isinstance(at, np.ndarray) and at.dtype == bool:
        at = np.flatnonzero(at).tolist()
    for j in at:
        if j not in fails:
            fails[j] = error if isinstance(error, TwistellError) else error(j)


def _settle(values, fails: dict, entries=None, first=None):
    """values when nothing is refused; else _refused, each refused point's error filling
    its column of the statuses, and entries mapping (row, point) to the error of one
    entry of a point that passes."""
    if not (fails or entries):
        return values
    statuses = np.empty(values.shape if isinstance(values, np.ndarray) else len(values), object)
    for at, exc in (entries or {}).items():
        statuses[at] = exc
    for j, exc in fails.items():
        statuses[..., j] = exc
    _refused(values, statuses, first)


def _refused(values, statuses: np.ndarray, first=None):
    """Raise the error first, by default the first refused entry of statuses in point
    order (point, then row), with the batch's outcome (values, statuses). It is raised as
    a copy: numpy's object arrays are invisible to the cycle collector, so an error that
    carried the statuses holding it would never be freed."""
    exc = first or next(e for e in statuses.T.flat if e is not None)
    raised = type(exc).__new__(type(exc), *exc.args)
    raised.__dict__.update(exc.__dict__, outcome=(values, statuses))
    raise raised.with_traceback(exc.__traceback__)


def _take_refusals(fails: dict, points, statuses, sizes=None) -> None:
    """Record in fails the errors of a batch over the given points in order, statuses
    its outcome's (None when it refused none): each point takes the first refused entry
    of its one column, or of its sizes[j] columns when sizes is given, in point order."""
    if statuses is None:
        return
    ends = np.cumsum([0, *sizes]).tolist() if sizes else range(len(points) + 1)
    for j, lo, hi in zip(points, ends, ends[1:]):
        first = next((e for e in statuses[..., lo:hi].T.flat if e is not None), None)
        if first is not None:
            fails.setdefault(j, first)


def _outcome(batch, *args) -> tuple:
    """(values, statuses) of the batch form call batch(*args): statuses None when no entry
    is refused, else the outcome its error carries."""
    try:
        return batch(*args), None
    except TwistellError as exc:
        if exc.outcome is None:
            raise
        return exc.outcome
