"""Exception hierarchy. The CLI maps the three base classes to exit codes, and
`float_errors` turns a float overflow or invalid value into one of them."""

import contextlib

import numpy as np


class BotDetectError(Exception):
    exit_code = 1


class ConfigError(BotDetectError):
    """Invalid configuration or incompatible option combination."""

    exit_code = 2


class DataError(BotDetectError):
    """Problem with input data: files, schemas, degenerate class structure."""

    exit_code = 3


class TrainingError(BotDetectError):
    """Training could not produce a model."""

    exit_code = 4


class EmptyInput(DataError):
    pass


class EmptyClass(DataError):
    pass


class SingleClass(DataError):
    pass


class HeaderMismatch(DataError):
    pass


class ExcessiveBadRows(DataError):
    pass


class ParseError(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class SchemaMismatch(DataError):
    pass


class InsufficientRows(DataError):
    pass


class DegenerateMinority(DataError):
    pass


class DegenerateData(DataError):
    pass


@contextlib.contextmanager
def float_errors(error: type[BotDetectError], message: str):
    """Run a block with float overflow and invalid values raised, as
    error(message); a `{}` in message stands for numpy's own text."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise error(message.format(exc)) from None
