"""Exception types raised across the package."""


class ShufflegradError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ShufflegradError, ValueError):
    """A vector or matrix argument has the wrong shape."""


class InvalidParameter(ShufflegradError, ValueError):
    """A configuration value violates its documented constraints."""


class IndexOutOfRange(InvalidParameter, IndexError):
    """A data-point index is outside {0, ..., m-1}."""


class SingularCurvature(ShufflegradError, ValueError):
    """The quadratic term is numerically singular; no unique minimizer."""


class DataExhausted(ShufflegradError, RuntimeError):
    """A single-shuffle sampler was asked for more than m draws."""


class BatchesExhausted(ShufflegradError, RuntimeError):
    """The distributed simulation ran out of batches before finishing."""


class DivergenceError(ShufflegradError, RuntimeError):
    """An iterate became non-finite or exceeded the runtime safety bound.

    Attributes locate and size the failure; each is None where the raise
    site does not know it.  ``epoch`` is the 1-based epoch, ``step`` the
    1-based position of the offending iterate (an SVRG epoch's post-step
    iterate is step epoch_len + 1), ``value`` the offending suboptimality
    and ``bound`` the cap it crossed.
    """

    def __init__(self, message, *, epoch=None, step=None, value=None, bound=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.value = value
        self.bound = bound


class DataFormatError(ShufflegradError, ValueError):
    """A dataset file could not be parsed or violates invariants."""
