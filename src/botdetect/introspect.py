"""Hidden-state introspection: per-timestep activation traces for single
tweets and per-unit activation distributions over a corpus, split by class.

Every function reads tweets through the model's `TweetPipeline`, so it sees
the tokens training saw. A tweet's hidden-state and cell-state traces come
from its one run of the model's forward pass, so exported values are
bit-identical to what the classifier computed; the corpus distributions come
from one batched forward pass, bit-identical to ``predict_proba``'s batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import Label, TweetRecord, checked
from .embedding import TweetPipeline
from .errors import DataError
from .nnet.model import ContextualLstmModel

DEFAULT_BINS = 50


@checked
class ActivationTrace(NamedTuple):
    """LSTM outputs and cell states c_t (unbounded, unlike outputs) per
    timestep (true_length x 32 each), aligned with tokens."""

    matrix: np.ndarray
    cells: np.ndarray
    tokens: tuple[str, ...]
    empty: bool

    def _check(self):
        if not self.matrix.shape[0] == self.cells.shape[0] == len(self.tokens):
            raise ValueError("trace rows must align with tokens")


class UnitDistribution(NamedTuple):
    unit_index: int
    label: Label
    counts: np.ndarray


class UnitDistributionReport(NamedTuple):
    bin_edges: np.ndarray  # shared by every distribution
    distributions: tuple[UnitDistribution, ...]
    ks_by_unit: np.ndarray
    ranking: tuple[int, ...]  # unit indices, most class-separating first


def trace_tweet(
    model: ContextualLstmModel, pipeline: TweetPipeline, tweet: TweetRecord
) -> ActivationTrace:
    """Hidden and cell states of the forward pass, one row per embedded token.

    A tweet with zero tokens returns an empty trace flagged as such.
    """
    tokens, ids = pipeline.embed_tweet(tweet)
    _, _, hidden, cells = model.forward(pipeline.table.matrix, ids, len(tokens),
                                        np.array(tweet.metadata, dtype=np.float64))
    return ActivationTrace(matrix=hidden, cells=cells, tokens=tokens, empty=not tokens)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    pooled = np.concatenate([a, b])
    f_a = np.searchsorted(a, pooled, side="right") / a.shape[0]
    f_b = np.searchsorted(b, pooled, side="right") / b.shape[0]
    return float(np.max(np.abs(f_a - f_b)))


def unit_distributions(
    model: ContextualLstmModel,
    pipeline: TweetPipeline,
    tweets: list[TweetRecord],
    bins: int = DEFAULT_BINS,
) -> UnitDistributionReport:
    """Final-state value distributions per (unit, class) over a corpus.

    Histograms use uniform bins on [-1, 1] (the tanh-bounded output range)
    and conserve mass: each (unit, class) histogram sums to that class's
    tweet count. Units are ranked by the KS statistic between their per-class
    value distributions.
    """
    hidden_dim = model.config.hidden_dim
    labels = np.array([tweet.label for tweet in tweets])
    if not np.any(labels == Label.HUMAN) or not np.any(labels == Label.BOT):
        raise DataError("unit distributions need tweets from both classes")
    ids, lengths, metadata = pipeline.tensors(tweets)
    _, _, finals, _ = model.forward_batch(pipeline.table.matrix, ids, lengths, metadata)

    edges = np.linspace(-1.0, 1.0, bins + 1)
    distributions = []
    ks = np.zeros(hidden_dim)
    stacked = {lab: finals[labels == lab] for lab in (Label.HUMAN, Label.BOT)}
    for unit in range(hidden_dim):
        for label in (Label.HUMAN, Label.BOT):
            counts, _ = np.histogram(stacked[label][:, unit], bins=edges)
            distributions.append(UnitDistribution(unit, label, counts))
        ks[unit] = ks_statistic(stacked[Label.HUMAN][:, unit], stacked[Label.BOT][:, unit])
    ranking = tuple(int(u) for u in np.argsort(-ks, kind="stable"))
    return UnitDistributionReport(edges, tuple(distributions), ks, ranking)


def _heatmap_lines(matrix: np.ndarray, tokens: tuple[str, ...]) -> list[str]:
    header = "unit," + ",".join(f"t{t}" for t in range(len(tokens)))
    token_row = "token," + ",".join(tokens)
    lines = [header, token_row]
    for unit in range(matrix.shape[1] if matrix.size else 0):
        cells = ",".join(repr(float(v)) for v in matrix[:, unit])
        lines.append(f"unit_{unit:02d},{cells}")
    return lines


def trace_csv_lines(trace: ActivationTrace) -> list[str]:
    """Heat-map data: a token-alignment row, then one row per hidden unit."""
    return _heatmap_lines(trace.matrix, trace.tokens)


def cell_trace_csv_lines(trace: ActivationTrace) -> list[str]:
    """The same heat-map layout over the cell states."""
    return _heatmap_lines(trace.cells, trace.tokens)


def distribution_csv_lines(report: UnitDistributionReport) -> list[str]:
    edges = report.bin_edges.tolist()
    bins = [f"{low!r},{high!r}" for low, high in zip(edges[:-1], edges[1:])]
    lines = ["unit,class,bin_low,bin_high,count"]
    for dist in report.distributions:
        head = f"{dist.unit_index},{dist.label.name.lower()}"
        lines.extend(f"{head},{edge},{count}" for edge, count in zip(bins, dist.counts.tolist()))
    return lines


def ks_csv_lines(report: UnitDistributionReport) -> list[str]:
    lines = ["rank,unit,ks_statistic"]
    for rank, unit in enumerate(report.ranking):
        lines.append(f"{rank},{unit},{float(report.ks_by_unit[unit])!r}")
    return lines
