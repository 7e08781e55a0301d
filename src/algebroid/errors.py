"""Error taxonomy. Every domain error carries a CLI exit code.

A batch that integrates many paths at once holds each path's refusal (held,
then) until the batch ends; settle then raises the first in path order, the
refusal that doing the paths one after another would have raised.
"""


class AlgebroidError(Exception):
    """Base class for all domain errors."""

    exit_code = 1


class SchemaError(AlgebroidError):
    """Problem or path file does not match the published schema."""

    exit_code = 3


class DivisionByZeroPoly(AlgebroidError, ZeroDivisionError):
    """Division by an identically-zero polynomial or rational function."""

    exit_code = 4


class ZeroFunction(AlgebroidError):
    """Operation undefined for the identically-zero rational function."""

    exit_code = 4


class IdenticallyZeroDiscriminant(AlgebroidError):
    """Defining equation has a repeated factor (non-squarefree input)."""

    exit_code = 5


class RootFindingFailure(AlgebroidError):
    """Polynomial solver met a non-finite coefficient or did not reach the
    requested residual."""

    exit_code = 6


class NearCriticalPoint(AlgebroidError):
    """Requested base point lies inside the critical-point exclusion zone."""

    exit_code = 7


class PathTooCloseToCritical(AlgebroidError):
    """Path violates the safety margin around a critical point."""

    exit_code = 8


class TrackingCollision(AlgebroidError):
    """Two tracked sheets approached within the separation threshold."""

    exit_code = 9


class StepUnderflow(AlgebroidError):
    """Adaptive continuation step fell below the minimum step size."""

    exit_code = 10


class AnnulusTooWide(AlgebroidError):
    """Puiseux coefficients failed the two-radius consistency check."""

    exit_code = 11


class PrincipalPartTruncated(AlgebroidError):
    """Puiseux series has terms below B_(-n_max): the window cuts its principal part."""

    exit_code = 20


class QuadratureStall(AlgebroidError):
    """Adaptive bisection hit its depth or width limit before reaching tolerance."""

    exit_code = 12


class LiftNotClosed(AlgebroidError):
    """Closed base loop whose surface lift ends on a different sheet."""

    exit_code = 13

    def __init__(self, message, value=None, end_sheet=None):
        super().__init__(message)
        self.value = value
        self.end_sheet = end_sheet


class EndpointGermMismatch(AlgebroidError):
    """Path reaches the target base point on a different sheet."""

    exit_code = 14


class UnreachableSheet(AlgebroidError):
    """Monodromy orbit of the base sheet misses a target sheet."""

    exit_code = 15


class RefusedReducible(AlgebroidError):
    """Antiderivative construction refused: monodromy is intransitive."""

    exit_code = 16

    def __init__(self, message, orbits=None):
        super().__init__(message)
        self.orbits = orbits


class RefusedNonzeroResidue(AlgebroidError):
    """Antiderivative construction refused: a singular element has nonzero residue."""

    exit_code = 17

    def __init__(self, message, offenders=None):
        super().__init__(message)
        self.offenders = offenders


class FitNotConverged(AlgebroidError):
    """Rational fit residual stayed above tolerance at maximal degree bounds."""

    exit_code = 18


class SingleValuednessViolation(AlgebroidError):
    """Symmetric coefficient functions do not close up around a monodromy loop."""

    exit_code = 19

    def __init__(self, message, defect=None, generator=None):
        super().__init__(message)
        self.defect = defect
        self.generator = generator


def held(fn, *args):
    """fn(*args), or the AlgebroidError it raises, held in place of its result."""
    try:
        return fn(*args)
    except AlgebroidError as exc:
        return exc


def then(fn, outcomes, *columns) -> list:
    """held(fn, outcome, *entries) for each outcome of a batch and the matching
    entries of the columns; an outcome that is a held refusal stays one."""
    return [o if isinstance(o, AlgebroidError) else held(fn, o, *rest)
            for o, *rest in zip(outcomes, *columns)]


def settle(outcomes) -> list:
    """The outcomes of a batch, once none is a held refusal: the first one in
    path order is raised."""
    outcomes = list(outcomes)
    for o in outcomes:
        if isinstance(o, AlgebroidError):
            raise o
    return outcomes
