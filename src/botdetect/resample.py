"""SMOTE oversampling, ENN and Tomek-link undersampling, and their combos.

All neighbor searches run on per-column z-scored copies of the features
(count features span orders of magnitude; raw Euclidean distance would be
dominated by the largest column). Synthetic rows are interpolated in the raw
feature space, so they are exact convex combinations of two original rows.
Ties in distance break toward the lower row index.

Each stage computes its neighbors once, as a table (`neighbor_table`): row i
holds the k nearest rows to row i. The table is built in blocks of rows whose
temporaries take about 1 MiB each. A block first screens every candidate with
the Gram form |x|^2 - 2 q.x (the squared distance less |q|^2; one matrix
product per block) and keeps each candidate whose screened value lies within
a float64 rounding bound of the row's k-th smallest one. The bound follows
from d and the row norms (see `neighbor_table`), so no true neighbor is
screened out. The survivors are then ranked on the exact distances
`knn_indices` computes, sum((x - q)^2), by (distance, index), so the table
equals a `knn_indices` call per row, ties included.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import FeatureMatrix, Label, ResampleConfig, Standardizer, Strategy
from .errors import ConfigError, DataError

# Size of one (block rows, n) float64 temporary in `neighbor_table`.
_BLOCK_BYTES = 1 << 20
_UNIT_ROUNDOFF = 2.0 ** -53


class StageRecord(NamedTuple):
    """One stage's row accounting; the fields after `name` run in
    `resample.kv` order."""

    name: str
    rows_in: int
    rows_out: int
    added: int
    removed: int
    human: int
    bot: int


class ResampleDiagnostics(NamedTuple):
    strategy: Strategy
    stages: list[StageRecord]
    assumptions: list[str]

    def record(self, name: str, before: FeatureMatrix, after: FeatureMatrix) -> None:
        n_in, n_out = before.n_rows, after.n_rows
        self.stages.append(StageRecord(name, n_in, n_out, max(0, n_out - n_in),
                                       max(0, n_in - n_out), *after.class_counts()))

    def to_kv_lines(self) -> list[str]:
        lines = [f"strategy = {self.strategy.value}"]
        for s in self.stages:
            lines += [f"stage.{s.name}.{k} = {v}" for k, v in zip(s._fields[1:], s[1:])]
        lines += [f"assumption.{i} = {note}" for i, note in enumerate(self.assumptions)]
        return lines


def _standardized(matrix: FeatureMatrix) -> np.ndarray:
    return Standardizer.fit(matrix.features).transform(matrix.features)


def _nearest(features: np.ndarray, query: int, candidates: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k candidates nearest to the query row.

    Squared Euclidean distance; exact ties resolve to the lower row index.
    """
    diffs = features[candidates] - features[query]
    d2 = np.sum(diffs * diffs, axis=1)
    order = np.lexsort((candidates, d2))
    return candidates[order[:k]]


def knn_indices(
    matrix: FeatureMatrix,
    query_index: int,
    k: int,
    same_class_only: bool = False,
) -> np.ndarray:
    """k nearest rows to the query row (itself excluded), on raw features.

    The resampling pipelines call this on standardized copies of their input.
    """
    n = matrix.n_rows
    if not 0 <= query_index < n:
        raise IndexError(f"query index {query_index} out of range")
    mask = np.ones(n, dtype=bool)
    mask[query_index] = False
    if same_class_only:
        mask &= matrix.labels == matrix.labels[query_index]
    candidates = np.flatnonzero(mask)
    if k > candidates.size:
        raise DataError(f"need {k} neighbors but only {candidates.size} eligible rows")
    return _nearest(matrix.features, query_index, candidates, k)


def neighbor_table(std_features: np.ndarray, k: int) -> np.ndarray:
    """(n, k) table whose row i lists the k nearest rows to row i, nearest
    first, row i itself excluded. A same-class table is the table of one
    class's rows, mapped back: `rows[neighbor_table(features[rows], k)]`.

    Row i equals `knn_indices(matrix, i, k)`. Screen bound: for a query q and
    a candidate x, the screen g = |x|^2 - 2 q.x (the Gram form less |q|^2, the
    same for the whole row) and the exact distance r = sum((x - q)^2) are
    float64 sums whose terms' magnitudes add up to at most (|q| + |x|)^2, each
    term rounded at most d + 2 times. So |q|^2 + g and r both lie within gamma
    (|q| + |x|)^2 of the true squared distance, with gamma = m u / (1 - m u),
    u = 2^-53, m = d + 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.1). If t is the k-th smallest g of q, k candidates
    have r <= |q|^2 + t + E with E = 2 gamma (|q| + M)^2 and M the largest row
    norm; so every one of q's k nearest has g <= t + 2E and survives the
    screen. The code takes m = d + 3, which covers the rounding of the norms
    and of t + 2E.
    """
    features = np.asarray(std_features, dtype=np.float64)
    n, d = features.shape
    if k > n - 1:
        raise DataError(f"need {k} neighbors but only {max(n - 1, 0)} eligible rows")
    sq = np.sum(features * features, axis=1)
    norms = np.sqrt(sq)
    m = d + 3
    gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
    slack = 4.0 * gamma * (norms + norms.max()) ** 2
    table = np.empty((n, k), dtype=np.int64)
    block = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        local = np.arange(stop - start)
        # |x|^2 - 2 q.x: the Gram form less |q|^2, which is constant per row.
        screen = features[start:stop] @ features.T
        screen *= -2.0
        screen += sq
        screen[local, local + start] = np.inf
        kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
        flat = np.flatnonzero(screen <= (kth + slack[start:stop])[:, None])
        rows, cols = np.divmod(flat, n)
        diffs = features[cols] - features[rows + start]
        d2 = np.sum(diffs * diffs, axis=1)
        order = np.lexsort((cols, d2, rows))
        first = np.searchsorted(rows, local)
        table[start:stop] = cols[order[first[:, None] + np.arange(k)]]
    return table


def smote(matrix: FeatureMatrix, config: ResampleConfig) -> FeatureMatrix:
    """Append synthetic minority rows until minority/majority = target_ratio.

    Each synthetic row is x_i + u * (x_nn - x_i) with u ~ Uniform[0,1] and
    x_nn drawn uniformly from x_i's smote_k nearest minority neighbors. Base
    rows cycle through the minority in index order, so coverage is even.
    """
    human, bot = matrix.class_counts()
    minority = Label.BOT if bot <= human else Label.HUMAN
    n_min, n_maj = (bot, human) if minority == Label.BOT else (human, bot)
    if n_min < 2:
        raise DataError(f"minority class has {n_min} row(s); need >= 2")
    if config.smote_k >= n_min:
        raise DataError(f"smote_k={config.smote_k} must be < minority size {n_min}")
    target = config.target_ratio * n_maj
    if not np.isfinite(target):
        raise ConfigError(f"target_ratio {config.target_ratio} times {n_maj} majority rows "
                          "is not a finite row count")
    n_new = max(0, int(round(target)) - n_min)
    if n_new == 0:
        return matrix

    minority_rows = np.flatnonzero(matrix.labels == minority)
    # The table of the minority rows alone is their same-class table.
    neighbors = minority_rows[neighbor_table(_standardized(matrix)[minority_rows], config.smote_k)]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    raw = matrix.features
    synthetic = np.empty((n_new, matrix.n_features), dtype=np.float64)
    for j in range(n_new):
        base = int(minority_rows[j % n_min])
        nn = int(neighbors[j % n_min, rng.integers(0, config.smote_k)])
        u = rng.uniform()
        synthetic[j] = raw[base] + u * (raw[nn] - raw[base])
    return matrix.with_rows_appended(synthetic, np.full(n_new, minority, dtype=np.int8))


def tomek_links(matrix: FeatureMatrix) -> set[tuple[int, int]]:
    """All cross-class mutual nearest-neighbor pairs, as (low, high) tuples.
    The matrix needs at least 2 rows (`neighbor_table` refuses fewer);
    `apply_strategy` passes smote's output, which has at least 4."""
    nn = neighbor_table(_standardized(matrix), 1)[:, 0]
    rows = np.arange(matrix.n_rows)
    linked = (nn[nn] == rows) & (matrix.labels != matrix.labels[nn]) & (rows < nn)
    return set(zip(rows[linked].tolist(), nn[linked].tolist()))


def enn_filter(matrix: FeatureMatrix, enn_k: int = 3) -> FeatureMatrix:
    """Drop rows whose label loses the strict majority vote of their k nearest
    neighbors. A single pass: all votes are taken against the unedited input,
    so a second application may remove more rows.
    """
    n = matrix.n_rows
    if enn_k >= n:
        raise DataError(f"enn_k={enn_k} must be < row count {n}")
    neighbors = neighbor_table(_standardized(matrix), enn_k)
    opposite = np.count_nonzero(matrix.labels[neighbors] != matrix.labels[:, None], axis=1)
    return matrix.select(np.flatnonzero(opposite * 2 <= enn_k))


def apply_strategy(
    matrix: FeatureMatrix, config: ResampleConfig
) -> tuple[FeatureMatrix, ResampleDiagnostics]:
    """Run the configured pipeline and report per-stage row accounting."""
    defaults = ResampleConfig()
    assumptions = []
    if config.strategy != Strategy.NONE:
        if config.smote_k == defaults.smote_k:
            assumptions.append("smote_k defaulted to 5")
        if config.target_ratio == defaults.target_ratio:
            assumptions.append("target_ratio defaulted to 1.0 (full balance)")
    if config.strategy in (Strategy.SMOTENN,) and config.enn_k == defaults.enn_k:
        assumptions.append("enn_k defaulted to 3")
    diag = ResampleDiagnostics(config.strategy, [], assumptions)

    if config.strategy == Strategy.NONE:
        diag.record("none", matrix, matrix)
        return matrix, diag

    oversampled = smote(matrix, config)
    diag.record("smote", matrix, oversampled)
    if config.strategy == Strategy.SMOTE:
        return oversampled, diag

    if config.strategy == Strategy.SMOTENN:
        # Both classes are eligible for editing after oversampling.
        cleaned = enn_filter(oversampled, config.enn_k)
        diag.record("enn", oversampled, cleaned)
        return cleaned, diag

    links = tomek_links(oversampled)
    drop = sorted({i for pair in links for i in pair})
    keep = np.setdiff1d(np.arange(oversampled.n_rows), np.array(drop, dtype=np.int64))
    cleaned = oversampled.select(keep)
    diag.record("tomek", oversampled, cleaned)
    return cleaned, diag
