"""Exception hierarchy shared by all imbtab modules, and the value checks that
the config dataclasses raise ValidationError from."""

import numbers

import numpy as np


class ImbtabError(Exception):
    """Base class for every error raised by this package."""


# --- data ---------------------------------------------------------------

class HeaderMismatch(ImbtabError):
    def __init__(self, missing, extra, repeated=()):
        self.missing = sorted(missing)
        self.extra = sorted(extra)
        self.repeated = sorted(repeated)
        super().__init__(
            f"CSV header does not match schema (missing={self.missing}, extra={self.extra}"
            + (f", repeated={self.repeated})" if self.repeated else ")")
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


# --- models -------------------------------------------------------------

class NonFiniteLoss(ImbtabError):
    pass


class LabelOutOfRange(ImbtabError):
    """A model was given a label that is NaN or outside [0, 1]."""


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
    """A config value that is not accepted. `path` names its field: the bare
    field (`k`) from a constructor, the full path (`resampler.k`) from
    `parse_config`."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def under(self, prefix):
        """This error with its path under `prefix`: `k` under `resampler` is `resampler.k`."""
        return type(self)(f"{prefix}.{self.path}", self.message)


class StrategyUnknown(ValidationError):
    """A resampler strategy that is not one of resampling.STRATEGIES."""


def check_integer(value, path, minimum=None, alternative=""):
    """Raise ValidationError(path) unless `value` is an integer >= minimum.

    Booleans, floats and strings are not integers; numpy integers are.
    `alternative` names what else the field accepts (" or null").
    """
    is_integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not is_integer or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(path, f"must be an integer{bound}{alternative}")


def check_number(value, path, minimum, maximum=None, exclusive=False):
    """Raise ValidationError(path) unless `value` is a real number, not a boolean,
    >= minimum and <= maximum (> and < when `exclusive`). NaN is rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if exclusive:
            inside = minimum < value and (maximum is None or value < maximum)
        else:
            inside = minimum <= value and (maximum is None or value <= maximum)
        if inside:
            return
    if maximum is None:
        raise ValidationError(path, f"must be a number >= {minimum}")
    low, high = "()" if exclusive else "[]"
    raise ValidationError(path, f"must be a number in {low}{minimum}, {maximum}{high}")


def check_flag(value, path):
    """Raise ValidationError(path) unless `value` is a boolean."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(path, "must be true or false")


def check_choice(value, path, choices, error=ValidationError):
    """Raise `error(path, ...)` unless `value` is one of the strings `choices`."""
    if not isinstance(value, str) or value not in choices:
        raise error(path, f"allowed: {list(choices)}")


class PipelineError(ImbtabError):
    """Wraps a module error with the pipeline stage in which it occurred."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")
