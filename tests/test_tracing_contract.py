"""The benchmark's tracer (perfbench/tracing.py) wraps botdetect functions by
name, from outside the program. A rename or a moved argument would break it
only when the benchmark runs; these tests catch it in tier-1. They read the
tracer and change nothing in it."""

import importlib.util
import inspect
import os

import pytest

from botdetect.nnet.lstm import lstm_forward

TRACING_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()
# (module, attribute) of every span and every counted call.
TARGETS = [entry[1:3] for entry in TRACING.SPANS + TRACING.COUNTED_CALLS]


@pytest.mark.parametrize("module_name, attribute", TARGETS,
                         ids=[f"{m}:{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module_name, attribute):
    owner, name = TRACING._resolve(module_name, attribute)
    assert callable(getattr(owner, name, None))


def test_lstm_forward_takes_lengths_third():
    # The tracer's step counter reads lengths as the third positional argument.
    assert list(inspect.signature(lstm_forward).parameters)[2] == "lengths"
