"""Error taxonomy. Every domain error carries a CLI exit code.

A batch that integrates many paths at once raises the first refusal it
meets, which need not be the first job's; in_order runs a batch so that a
refusal is the one doing the jobs one after another would raise.
"""


class AlgebroidError(Exception):
    """Base class for all domain errors; keeps each keyword detail as an attribute."""

    exit_code = 1

    def __init__(self, message, **details):
        super().__init__(message)
        self.__dict__.update(details)


class SchemaError(AlgebroidError, ValueError):
    """Problem file, flag or tolerance outside the published schema, or a
    sampling radius or Puiseux window that cannot be used (a ValueError)."""

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
    value = end_sheet = None


class EndpointGermMismatch(AlgebroidError):
    """Path reaches the target base point on a different sheet."""

    exit_code = 14


class UnreachableSheet(AlgebroidError):
    """Monodromy orbit of the base sheet misses a target sheet."""

    exit_code = 15


class RefusedReducible(AlgebroidError):
    """Antiderivative construction refused: monodromy is intransitive."""

    exit_code = 16
    orbits = None


class RefusedNonzeroResidue(AlgebroidError):
    """Antiderivative construction refused: a cycle about a pole has nonzero
    residue. offenders: (center, sheets in base-fiber positions, residue)."""

    exit_code = 17
    offenders = None


class FitNotConverged(AlgebroidError):
    """Rational fit residual stayed above tolerance at maximal degree bounds."""

    exit_code = 18


class SingleValuednessViolation(AlgebroidError):
    """The lift of base sheet `sheet` around monodromy generator `generator`
    has the nonzero period `period`; defect is |period| relative."""

    exit_code = 19
    defect = generator = sheet = period = None


def in_order(batch, jobs) -> list:
    """batch(jobs), for a batch that gives each job the values it gets alone.
    On a refusal each job is run again alone, in order, so the refusal raised
    is the first job's that refuses, as doing the jobs one after another
    raises; a batch of one job is not run again."""
    jobs = list(jobs)
    try:
        return batch(jobs)
    except AlgebroidError:
        if len(jobs) > 1:
            for job in jobs:
                batch([job])
        raise
