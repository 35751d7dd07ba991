"""Exception hierarchy for the scoring pipeline.

Every exception carries the CLI exit code of its category: bad invocations
and invalid parameter combinations exit 2, malformed or inconsistent data
exits 3, numerical degeneracies exit 4.
"""


class PipelineError(Exception):
    exit_code = 3


class UsageError(PipelineError):
    exit_code = 2


class DataError(PipelineError):
    exit_code = 3


class NumericalError(PipelineError):
    exit_code = 4


class ValidationError(DataError):
    """A typed value violates one of its structural invariants."""


# vector primitives
class NormUnderflow(NumericalError):
    """Vector norm at or below the degeneracy floor."""


class NormOverflow(NumericalError):
    """Vector norm beyond the float64 range."""


class DimensionMismatch(DataError):
    pass


class EmptySet(DataError):
    pass


class DegenerateAverage(NumericalError):
    """Mean of normalized vectors cancelled to (near) zero."""


# prototype store
class IndexOutOfRange(DataError):
    pass


class KTooLarge(DataError):
    pass


# margin loss
class GradSingularity(NumericalError):
    """A cosine is too close to +/-1 for a stable arccos derivative."""


# batch planner
class ConfigInvalid(UsageError):
    pass


class InventoryGap(DataError):
    """A speaker has no utterances to sample from."""


class DomainTooSmall(DataError):
    pass


# language backend
class ClassTooSmall(DataError):
    pass


class CovarianceSingular(NumericalError):
    pass


class WeightOutOfRange(UsageError):
    pass


# scoring / normalization
class DegenerateCohort(NumericalError):
    """Selected cohort scores have zero variance."""


class MissingEmbedding(DataError):
    pass


class MissingLidDecision(DataError):
    pass


# calibration / fusion / metrics
class DegenerateLabels(DataError):
    """Both score classes are required but only one is present."""


class NonConvergence(NumericalError):
    pass


class KeyMismatch(DataError):
    pass


class WeightInvalid(UsageError):
    pass


class ParamInvalid(UsageError):
    pass


# synthetic corpus
class SpecInvalid(UsageError):
    pass


# file formats
class FormatError(DataError):
    pass


class VersionUnsupported(DataError):
    pass
