"""Exception hierarchy shared by all imbtab modules, the value checks that the
config dataclasses raise ValidationError from, the one feature-matrix check
(`check_features`) and every fitter's input check."""

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
    """A label NaN or outside [0, 1] (a fit), or not 0 or 1 (rebalance, confusion_matrix)."""


class NonFiniteScore(ImbtabError):
    pass


class NonFiniteFeature(ImbtabError):
    """A feature matrix holds a NaN or infinite value (`check_features`)."""


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


def check_features(X, width=None):
    """X as float64 (not copied if it is), checked by the one rule for a feature
    matrix, in this order: 2-D, with `width` columns when a width is given
    (else DimensionMismatch), and every value finite (NonFiniteFeature)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or (width is not None and X.shape[1] != width):
        columns = "" if width is None else f" with {width} columns"
        raise DimensionMismatch(f"a feature matrix must be 2-D{columns}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("a feature matrix must be finite (found NaN or inf)")
    return X


def check_fit_inputs(X, y):
    """X and y as float64 arrays (not copied if they are), checked for what
    every model fitter needs, in this order: X a feature matrix
    (`check_features`), y 1-D with a label per row (else DimensionMismatch),
    a row (EmptyInput), and labels in [0, 1], none NaN (LabelOutOfRange)."""
    X = check_features(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(X),):
        raise DimensionMismatch(f"a fit needs a label per row: {X.shape}, {y.shape}")
    if len(y) == 0:
        raise EmptyInput("cannot fit a model on zero rows")
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise LabelOutOfRange("a fit needs every label in [0, 1], none NaN")
    return X, y


class PipelineError(ImbtabError):
    """Wraps a module error with the pipeline stage in which it occurred."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")
