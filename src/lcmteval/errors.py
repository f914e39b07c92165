"""Exception hierarchy for the toolkit.

Two broad families: :class:`DataError` (bad or missing input files,
unresolved references) and :class:`StatError` (violated statistical
preconditions such as zero variance or too few samples).  Campaign
validation failures are reported through :class:`ValidationFailure`.
``cli.EXIT_CODES`` gives each kind's exit code.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationFailure(ToolkitError):
    """Campaign validation found missing or duplicate rating cells."""


class DataError(ToolkitError):
    """Ingestion, file-format, or cross-reference problem."""


class StatError(ToolkitError):
    """A statistical precondition does not hold for the given inputs."""


# --- ingestion -------------------------------------------------------------

class MissingFile(DataError):
    pass


class ParseError(DataError):
    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where += ": "
        super().__init__(where + message)


class UnresolvedReference(DataError):
    pass


class UnknownSegment(DataError):
    pass


class NonFiniteScore(DataError):
    pass


class DuplicateCell(DataError):
    pass


class IncompleteTable(DataError):
    pass


class CellMismatch(DataError):
    pass


class DuplicateMetricName(DataError):
    """Two score tables of a task would share a report name."""


class AlignmentMismatch(DataError):
    pass


class UnsupportedFormat(DataError):
    pass


# --- statistics ------------------------------------------------------------

class EmptyCorpus(StatError):
    pass


class ZeroLengthHypothesisCorpus(StatError):
    pass


class BrevityPenaltyUnderflow(StatError, ZeroDivisionError):
    """A corpus BLEU brevity penalty underflows to 0: a reference over 700
    times longer than its hypothesis.  ``row`` is the first row of the
    finished statistics whose penalty does."""

    def __init__(self, message: str, row: int):
        self.row = row
        super().__init__(message)


class EmptySet(StatError):
    pass


class NotEnoughSegments(StatError):
    pass


class ZeroVariance(StatError):
    pass


class InsufficientOverlap(StatError):
    pass


class NoPairableUnits(StatError):
    pass


class LengthMismatch(StatError):
    pass


class AllTied(StatError):
    pass


class SystemOnlyTable(StatError):
    pass


class TooFewSystems(StatError):
    pass


class NoVariants(StatError):
    pass


class DegenerateCorrelation(StatError):
    pass


class SampleTooSmall(StatError):
    pass
