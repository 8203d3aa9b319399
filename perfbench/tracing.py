"""Layer tracing for the benchmark: span recording inside a job process, and
per-layer metrics derived from the recorded spans.

Spans are recorded by wrapping the public functions of each botdetect layer
from here, outside the program: every module-level name and class attribute
that refers to a wrapped function is rebound to the wrapper, so calls made
through `from .x import f` aliases are traced too. The program itself is not
modified. Spans stay in memory and are written once, when the job ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_ingest(counts, args, kwargs, result):
    accounts, tweets, _ = result
    counts["ingest.rows"] += len(accounts) + len(tweets)


def _count_lstm_forward(counts, args, kwargs, result):
    lengths = np.asarray(_arg(args, kwargs, 2, "lengths"))
    if lengths.size:
        steps = int(lengths.max())
        counts["lstm.steps"] += steps
        counts["lstm.useful_slots"] += int(lengths.sum())
        counts["lstm.slots"] += int(lengths.size) * steps


def _count_knn(counts, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    query = _arg(args, kwargs, 1, "query_index")
    same_class = args[3] if len(args) > 3 else kwargs.get("same_class_only", False)
    if same_class:
        eligible = int(np.count_nonzero(matrix.labels == matrix.labels[query]))
    else:
        eligible = matrix.n_rows
    counts["resample.dist_evals"] += eligible - 1


def _count_enn(counts, args, kwargs, result):
    counts["resample.rows_in"] += _arg(args, kwargs, 0, "matrix").n_rows
    counts["resample.rows_out"] += result.n_rows


def _count_forest(counts, args, kwargs, result):
    counts["baselines.forest_trees"] += len(result)
    counts["baselines.forest_nodes"] += sum(int(t.shape[0]) for t in result.values())


def _count_boost(counts, args, kwargs, result):
    counts["baselines.boost_stumps"] += int(result["stumps"].shape[0])


def _count_save(counts, args, kwargs, result):
    counts["persist.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (span name, module, attribute, counter). The attribute may be
# `Class.method`. Two entries may share a span name; their times add up.
SPANS = (
    ("ingest.load", "botdetect.ingest", "load_corpus", _count_ingest),
    ("tokenizer", "botdetect.tokenizer", "tokenize", None),
    ("embedding.load", "botdetect.embedding", "load_glove", None),
    ("embedding.embed", "botdetect.embedding", "embed", None),
    ("lstm.forward", "botdetect.nnet.lstm", "lstm_forward", _count_lstm_forward),
    ("lstm.backward", "botdetect.nnet.lstm", "lstm_backward", None),
    ("nnet.dense", "botdetect.nnet.model", "ContextualLstmModel.forward_batch", None),
    ("nnet.dense", "botdetect.nnet.model", "ContextualLstmModel.backward_batch", None),
    ("nnet.adam", "botdetect.nnet.layers", "Adam.step", None),
    ("nnet.train", "botdetect.nnet.model", "train", None),
    ("nnet.stack", "botdetect.nnet.model", "stack_sequences", None),
    ("resample.smote", "botdetect.resample", "smote", None),
    ("resample.enn", "botdetect.resample", "enn_filter", _count_enn),
    ("resample.knn", "botdetect.resample", "knn_indices", _count_knn),
    ("baselines.forest_fit", "botdetect.baselines.forest", "fit_forest", _count_forest),
    ("baselines.boost_fit", "botdetect.baselines.boost", "fit_adaboost", _count_boost),
    ("baselines.predict", "botdetect.baselines", "predict_proba", None),
    ("persist.save", "botdetect.persist", "save_model", _count_save),
    ("persist.load", "botdetect.persist", "load_model", None),
    ("introspect.distributions", "botdetect.introspect", "unit_distributions", None),
    ("metrics.evaluate", "botdetect.metrics", "evaluate", None),
)

# Boundaries that are counted but get no span of their own.
COUNTED_CALLS = (
    ("introspect.forward_calls", "botdetect.nnet.model", "ContextualLstmModel.forward"),
)


def _resolve(module_name, attribute):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _rebind(owner, name, original, wrapper) -> None:
    """Point every botdetect name bound to `original` at `wrapper`."""
    setattr(owner, name, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("botdetect"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Tracer:
    """Records (name, start, end, parent, job) spans at layer boundaries."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.errors = 0
        self._open: list[int] = []

    def install(self) -> None:
        importlib.import_module("botdetect.cli")  # loads every layer module
        for span, module_name, attribute, counter in SPANS:
            owner, name = _resolve(module_name, attribute)
            original = getattr(owner, name)
            _rebind(owner, name, original, self._span_wrapper(span, original, counter))
        for metric, module_name, attribute in COUNTED_CALLS:
            owner, name = _resolve(module_name, attribute)
            original = getattr(owner, name)
            _rebind(owner, name, original, self._count_wrapper(metric, original))

    def _span_wrapper(self, span, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span_id = len(self.spans)
            self.spans.append(None)
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[span_id] = (span, start, end, parent)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, metric, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path) -> None:
        record = {
            "job": self.job_id,
            "columns": ["name", "start", "end", "parent", "job"],
            "spans": [list(s) + [self.job_id] for s in self.spans],
            "counts": dict(self.counts),
            "errors": self.errors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# -- per-layer metrics -------------------------------------------------------

# metric -> span whose self time it reports
SELF_TIME = {
    "lstm.forward_s": "lstm.forward",
    "lstm.backward_s": "lstm.backward",
    "nnet.dense_s": "nnet.dense",
    "nnet.adam_s": "nnet.adam",
    "nnet.train_self_s": "nnet.train",
    "nnet.stack_s": "nnet.stack",
    "tokenizer.s": "tokenizer",
    "embedding.embed_s": "embedding.embed",
    "embedding.load_s": "embedding.load",
    "ingest.load_s": "ingest.load",
    "resample.smote_s": "resample.smote",
    "resample.enn_s": "resample.enn",
    "resample.knn_s": "resample.knn",
    "baselines.forest_fit_s": "baselines.forest_fit",
    "baselines.boost_fit_s": "baselines.boost_fit",
    "baselines.predict_s": "baselines.predict",
    "persist.save_s": "persist.save",
    "persist.load_s": "persist.load",
    "introspect.distributions_s": "introspect.distributions",
    "metrics.evaluate_s": "metrics.evaluate",
}

# metric -> span whose number of calls it reports
CALLS = {
    "lstm.forward_calls": "lstm.forward",
    "nnet.adam_steps": "nnet.adam",
    "tokenizer.calls": "tokenizer",
    "resample.knn_calls": "resample.knn",
}

# metric -> (unit, spans that must occur for the metric to apply)
PER_LAYER = {
    **{m: ("s", (s,)) for m, s in SELF_TIME.items()},
    **{m: ("count", (s,)) for m, s in CALLS.items()},
    "lstm.steps": ("count", ("lstm.forward",)),
    "lstm.useful_step_frac": ("ratio", ("lstm.forward",)),
    "lstm.forward_call_ms.p50": ("ms", ("lstm.forward",)),
    "lstm.forward_call_ms.tail": ("ms", ("lstm.forward",)),
    "ingest.rows": ("count", ("ingest.load",)),
    "resample.dist_evals": ("count", ("resample.knn",)),
    "resample.rows_in": ("count", ("resample.enn",)),
    "resample.rows_out": ("count", ("resample.enn",)),
    "baselines.forest_nodes": ("count", ("baselines.forest_fit",)),
    "baselines.forest_trees": ("count", ("baselines.forest_fit",)),
    "baselines.boost_stumps": ("count", ("baselines.boost_fit",)),
    "persist.bytes": ("count", ("persist.save",)),
    "introspect.forward_calls": ("count", ("introspect.distributions",)),
    "cli.self_s": ("s", ()),
    "layer.errors": ("count", ()),
    "trace.overhead_s": ("s", ()),
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of n samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return None


def tail(values) -> tuple[float, float | None]:
    """(value, percentile) of the highest supported percentile; the median
    and None when no percentile above p50 is supported."""
    pct = tail_percentile(len(values))
    return float(np.percentile(values, pct if pct else 50.0)), pct


def describe(values, unit: str) -> str:
    """Median plus the highest percentile the sample count supports."""
    median = float(np.median(values))
    value, pct = tail(values)
    if pct is None:
        return (f"median {median:.4f} {unit} (n={len(values)}; no percentile above "
                f"p50 has 10 samples beyond it)")
    return f"median {median:.4f} {unit}, p{pct:g} {value:.4f} {unit} (n={len(values)})"


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the duration of direct children."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return totals


def job_metrics(record: dict, wall_s: float) -> tuple[dict[str, float], dict[str, int],
                                                      float | None]:
    """Per-layer metrics of one traced job, the span counts they rest on, and
    the tail percentile used for lstm.forward_call_ms.tail (None: too few calls)."""
    spans = record["spans"]
    counts = Counter(record["counts"])
    calls = Counter(name for name, *_ in spans)
    selves = self_times(spans)
    metrics = {m: selves.get(s, 0.0) for m, s in SELF_TIME.items()}
    metrics.update({m: float(calls[s]) for m, s in CALLS.items()})
    for name in ("lstm.steps", "ingest.rows", "resample.dist_evals", "resample.rows_in",
                 "resample.rows_out", "baselines.forest_nodes", "baselines.forest_trees",
                 "baselines.boost_stumps", "persist.bytes", "introspect.forward_calls"):
        metrics[name] = float(counts[name])
    slots = counts["lstm.slots"]
    metrics["lstm.useful_step_frac"] = counts["lstm.useful_slots"] / slots if slots else 0.0
    call_ms = [(end - start) * 1e3 for name, start, end, _, _ in spans
               if name == "lstm.forward"]
    metrics["lstm.forward_call_ms.p50"] = float(np.median(call_ms)) if call_ms else 0.0
    metrics["lstm.forward_call_ms.tail"], pct = tail(call_ms) if call_ms else (0.0, None)
    covered = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    metrics["cli.self_s"] = wall_s - covered
    metrics["layer.errors"] = float(record["errors"])
    return metrics, dict(calls), pct


def absent_metrics(calls: dict[str, int]) -> list[str]:
    """Per-layer metrics whose layer did not run in the job."""
    return sorted(m for m, (_, needs) in PER_LAYER.items()
                  if needs and not any(calls.get(s, 0) for s in needs))
