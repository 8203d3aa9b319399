"""Exceptions: one class per exit code. The CLI prints the message of a
ConfigError (2), DataError (3) or TrainingError (4) as one line and exits with
its code; `float_errors` turns a float overflow or invalid value into one of
them, and `text_file` a byte that is not UTF-8."""

import contextlib
import io
import sys

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


@contextlib.contextmanager
def float_errors(error: type[BotDetectError], message: str):
    """Run a block with float overflow and invalid values raised, as
    error(message); a `{}` in message stands for numpy's own text."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise error(message.format(exc)) from None


@contextlib.contextmanager
def text_file(path):
    """The UTF-8 text file at `path` open for reading, or stdin for "-"; a
    byte that does not decode is a DataError naming the file. Stdin's bytes
    go through a strict UTF-8 reader of their own, whatever the locale or
    UTF-8 mode, split at "\n" only as POSIX stdin is; stdin stays open."""
    try:
        if path == "-":
            fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="\n")
            try:
                yield fh
            finally:
                fh.detach()
        else:
            with open(path, encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{'<stdin>' if path == '-' else path}: {exc}") from None
