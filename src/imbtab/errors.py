"""Exception hierarchy shared by all imbtab modules."""


class ImbtabError(Exception):
    """Base class for every error raised by this package."""


# --- data ---------------------------------------------------------------

class HeaderMismatch(ImbtabError):
    def __init__(self, missing, extra):
        self.missing = sorted(missing)
        self.extra = sorted(extra)
        super().__init__(
            f"CSV header does not match schema (missing={self.missing}, extra={self.extra})"
        )


class MalformedRow(ImbtabError):
    def __init__(self, row_index, detail):
        self.row_index = row_index
        super().__init__(f"malformed row {row_index}: {detail}")


class UnknownColumn(ImbtabError):
    pass


class EmptyDataset(ImbtabError):
    pass


class UncastTarget(ImbtabError):
    pass


# --- encoding -----------------------------------------------------------

class UnseenCategory(ImbtabError):
    pass


class EmptyCategoryList(ImbtabError):
    pass


class NotCategorical(ImbtabError):
    pass


class UnmappedCategory(ImbtabError):
    pass


class ReservedCategory(ImbtabError):
    pass


# --- resampling ---------------------------------------------------------

class KTooLarge(ImbtabError):
    pass


class TooFewMinoritySamples(ImbtabError):
    pass


class EmptyMinority(ImbtabError):
    pass


class StrategyUnknown(ImbtabError):
    pass


# --- models -------------------------------------------------------------

class NonFiniteLoss(ImbtabError):
    pass


class NonFiniteScore(ImbtabError):
    pass


class NonFiniteFeature(ImbtabError):
    """A tree model or a neighbour search was given a NaN or infinite feature value."""


class EmptyInput(ImbtabError):
    pass


class DimensionMismatch(ImbtabError):
    pass


# --- metrics ------------------------------------------------------------

class LengthMismatch(ImbtabError):
    pass


# --- pipeline -----------------------------------------------------------

class ParseError(ImbtabError):
    pass


class ValidationError(ImbtabError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class PipelineError(ImbtabError):
    """Wraps a module error with the pipeline stage in which it occurred."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")
