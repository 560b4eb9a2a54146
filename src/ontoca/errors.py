"""Exception hierarchy shared by all ontoca modules."""


class OntocaError(Exception):
    """Base class for all errors raised by this package."""


class SymmetryViolation(OntocaError):
    """S is not symmetric or A is not antisymmetric; carries the first bad index pair."""

    def __init__(self, matrix_name, row, col):
        self.matrix_name = matrix_name
        self.index_pair = (row, col)
        super().__init__(f"{matrix_name} violates its symmetry requirement at ({row}, {col})")


class DimensionMismatch(OntocaError):
    pass


class ZeroVector(OntocaError):
    pass


class UnknownPreset(OntocaError):
    pass


class CriticalSpectrum(OntocaError):
    """An eigenvalue sits on the |lambda| = 2 boundary where the closed form divides by zero."""


class DomainTooSmall(OntocaError):
    pass


class GeometryMismatch(OntocaError):
    pass


class MissingExtraPoint(OntocaError):
    pass


class LengthTooShort(OntocaError):
    pass


class EdgeNotInTopology(OntocaError):
    pass


class ScheduleExhausted(OntocaError):
    pass


class DimensionOverflow(OntocaError):
    pass


class NotPermutation(OntocaError):
    pass


class NotSelfAdjoint(OntocaError):
    pass


class FamilyTooNarrow(OntocaError):
    pass


class ConfigInvalid(OntocaError):
    """Configuration failed validation; carries the offending path for reporting."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
