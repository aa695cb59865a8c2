"""Exception and warning types shared across the package."""


class FinganError(Exception):
    """Base class for all library errors."""


class MissingColumn(FinganError):
    def __init__(self, name):
        super().__init__(f"column {name!r} missing from CSV header")
        self.name = name


class UnparseableNumeric(FinganError):
    def __init__(self, row, col, value):
        super().__init__(f"row {row}, column {col!r}: cannot parse {value!r} as a number")
        self.row = row
        self.col = col
        self.value = value


class UnknownCategory(FinganError):
    def __init__(self, row, col, value):
        super().__init__(f"row {row}, column {col!r}: unknown category {value!r}")
        self.row = row
        self.col = col
        self.value = value


class ShortRow(FinganError):
    def __init__(self, row, expected, actual):
        super().__init__(f"row {row}: {actual} fields, the header has {expected}")
        self.row = row
        self.expected = expected
        self.actual = actual


class EmptyFile(FinganError):
    pass


class SchemaMismatch(FinganError):
    pass


class DegenerateClass(FinganError):
    pass


class TooFewSamples(FinganError):
    def __init__(self, label, count, k):
        super().__init__(f"class {label} has {count} rows, fewer than k={k}")
        self.label = label
        self.count = count
        self.k = k


class ShapeMismatch(FinganError):
    pass


class NonFiniteInput(FinganError):
    pass


class NonFiniteGradient(FinganError):
    pass


class NonFiniteLoss(FinganError):
    def __init__(self, epoch, detail=""):
        super().__init__(f"non-finite loss at epoch {epoch}{': ' + detail if detail else ''}")
        self.epoch = epoch


class NonFiniteSample(FinganError):
    """A trained generator produced rows holding NaN or Inf."""


class EmptyMinority(FinganError):
    pass


class NoDiscreteColumns(FinganError):
    pass


class UnknownCondition(FinganError):
    """A sampling condition names no discrete column, or no category of it."""


class LengthMismatch(FinganError):
    pass


class UndefinedMetric(FinganError):
    pass


class NotATree(FinganError):
    pass


class AuditMismatch(FinganError):
    """Balanced row counts do not reconcile with the audit's parts."""


class ConstantColumnWarning(UserWarning):
    """A numeric column has zero spread; it is passed through unscaled."""


class SolverStallWarning(UserWarning):
    """The dual solver hit its iteration cap before reaching tolerance."""


class EmptyConditionBucketWarning(UserWarning):
    """A requested condition matches no real rows; fell back to unconditioned batches."""
