"""Random forest: bagged CART trees with Gini splits and sqrt(d) feature
subsampling per node.

Training rows are first sorted into a canonical order, and every tree draws
its bootstrap sample from a seed spawned off the master seed and indexed by
tree. Predictions are therefore invariant to the order of the training rows.

Trees are stored as flat (n_nodes, 5) arrays: feature, threshold, left child,
right child, leaf vote; feature == -1 marks a leaf. Rows with value <=
threshold go left.
"""

from __future__ import annotations

import numpy as np

from .common import BaselineConfig

_LEAF = -1.0


def _best_split(x, labels, idx, features, min_leaf, total):
    """Lowest weighted-Gini split over the candidate features, searched for
    all of them at once in one (rows, features) block.

    `labels` are y[idx] and `total` their sum. Returns (feature, threshold)
    or None. Ties keep the first candidate in feature order, then the lowest
    threshold position.
    """
    n = idx.shape[0]
    columns = np.arange(features.shape[0])
    values = x[idx[:, None], features]
    order = values.argsort(axis=0, kind="stable")
    sv = values[order, columns]
    # Row p splits off p + 1 rows to the left and n - p - 1 to the right.
    invalid = sv[:-1] >= sv[1:]
    if min_leaf > 1:
        invalid[: min_leaf - 1] = True
        invalid[n - min_leaf:] = True
    if invalid.all():
        return None
    left_pos = labels[order].cumsum(axis=0)[:-1]
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    pl = left_pos / left_n
    pr = (total - left_pos) / right_n
    ql = 1.0 - pl
    qr = 1.0 - pr
    gini_l = 1.0 - pl * pl - ql * ql
    gini_r = 1.0 - pr * pr - qr * qr
    weighted = (left_n * gini_l + right_n * gini_r) / n
    weighted[invalid] = np.inf
    pos = weighted.argmin(axis=0)
    column = int(weighted[pos, columns].argmin())
    at = pos[column]
    return int(features[column]), float((sv[at, column] + sv[at + 1, column]) / 2.0)


def _grow_tree(x, y, rng, config: BaselineConfig) -> np.ndarray:
    n, d = x.shape
    n_sub = max(1, int(round(np.sqrt(d))))
    bootstrap = rng.integers(0, n, size=n)
    nodes: list[list[float]] = []
    # Stack of (node_id, member indices into the bootstrap sample, depth);
    # iterative growth avoids recursion limits on deep, impure trees.
    nodes.append([_LEAF, 0.0, -1.0, -1.0, 0.0])
    stack = [(0, bootstrap, 1)]
    while stack:
        node_id, idx, depth = stack.pop()
        size = idx.shape[0]
        labels = y[idx]
        total = labels.sum()
        # A leaf votes for the majority class; exact ties vote bot.
        leaf = [_LEAF, 0.0, -1.0, -1.0, 1.0 if total / size >= 0.5 else 0.0]
        pure = total == 0 or total == size
        depth_capped = config.max_depth > 0 and depth >= config.max_depth
        if pure or depth_capped or size < 2 * config.min_leaf:
            nodes[node_id] = leaf
            continue
        features = np.sort(rng.choice(d, size=n_sub, replace=False))
        found = _best_split(x, labels, idx, features, config.min_leaf, total)
        if found is None:
            nodes[node_id] = leaf
            continue
        feature, threshold = found
        go_left = x[idx, feature] <= threshold
        left_id = len(nodes)
        nodes.append([_LEAF, 0.0, -1.0, -1.0, 0.0])
        right_id = len(nodes)
        nodes.append([_LEAF, 0.0, -1.0, -1.0, 0.0])
        nodes[node_id] = [float(feature), threshold, float(left_id), float(right_id), 0.0]
        stack.append((right_id, idx[~go_left], depth + 1))
        stack.append((left_id, idx[go_left], depth + 1))
    return np.array(nodes, dtype=np.float64)


def tree_names(n_trees: int) -> list[str]:
    return [f"tree_{t:03d}" for t in range(n_trees)]


def fit_forest(x: np.ndarray, y: np.ndarray, config: BaselineConfig) -> dict:
    order = np.lexsort((y,) + tuple(x[:, j] for j in reversed(range(x.shape[1]))))
    x_sorted = x[order]
    y_sorted = y[order]
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    params = {}
    for name, seed in zip(tree_names(config.n_trees), seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        params[name] = _grow_tree(x_sorted, y_sorted, rng, config)
    return params


def tree_votes(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Leaf vote of one stored tree for every row, traversed iteratively."""
    m = x.shape[0]
    at = np.zeros(m, dtype=np.int64)
    feature = nodes[:, 0]
    while True:
        live = feature[at] != _LEAF
        if not np.any(live):
            break
        rows = np.flatnonzero(live)
        node = at[rows]
        f = feature[node].astype(np.int64)
        go_left = x[rows, f] <= nodes[node, 1]
        at[rows] = np.where(go_left, nodes[node, 2], nodes[node, 3]).astype(np.int64)
    return nodes[at, 4]


def predict_forest(params: dict, x: np.ndarray) -> np.ndarray:
    trees = [params[name] for name in sorted(params)]
    votes = np.zeros(x.shape[0])
    for nodes in trees:
        votes += tree_votes(nodes, x)
    return votes / len(trees)
