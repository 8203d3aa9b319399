"""Random forest: bagged CART trees with Gini splits and sqrt(d) feature
subsampling per node.

Training rows are first sorted into a canonical order, and every tree draws
its bootstrap sample from a seed spawned off the master seed and indexed by
tree. Predictions are therefore invariant to the order of the training rows.

Only the bootstrap goes through `numpy.random.Generator`. A tree's feature
subsets come from its PCG64 raw words, whose stream NumPy keeps stable
across versions (NEP 19), in numpy passes over a chunk of nodes at a time
(`feature_subsets`): they are the subsets `Generator.choice` draws, sorted.

Trees are stored as flat (n_nodes, 5) arrays: feature, threshold, left child,
right child, leaf vote; feature == -1 marks a leaf. Rows with value <=
threshold go left.

All trees grow together, in rounds. Each tree keeps its own RNG and its own
depth-first stack, so its nodes are numbered, and its feature subsets drawn,
in the same preorder as when it grows alone: the i-th draw goes to the i-th
node that may split. A round pops the next such node of each tree in turn
until about `_ROUND_ROWS` rows are taken (a tree left out waits for the next
round, in the same place), searches every popped node at once, and writes
the children's rows back into one buffer of bootstrap rows, where each node
is a range of its tree's block.

The search sorts one packed integer key per (row, candidate feature):
(node, feature slot, rank of the value among the feature's distinct values,
label). In sorted order each (node, slot) group lists its rows by value, so
the last row of a run of equal ranks is a boundary between two values, with
the group position giving the left row count and the running label count
(minus the group's start) the left bot count. Those are exactly the counts a
per-node search reads at the same boundaries, and the weighted Gini is
evaluated from them with the same arithmetic, so the choices, ties included
(lowest slot, then lowest value), are the same and so are the trees.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

from ..errors import DataError
from .common import BaselineConfig

_LEAF = -1.0
# A round stops taking nodes once this many rows are taken. It bounds the
# round's temporaries (a few dozen arrays of rows x candidate features),
# whatever the number of trees.
_ROUND_ROWS = 4096
# Prediction walks at most this many (tree, row) pairs at once.
_PREDICT_PAIRS = 1 << 14
# Two leaf rows, appended when a node splits; the leaf vote is set later.
_CHILDREN = array("d", [_LEAF, 0.0, -1.0, -1.0, 0.0] * 2)
# A tree's first pull of raw words covers this many feature subsets, and
# each later pull twice as many as the one before. Every growing tree holds
# the subsets of its last pull, so the first is small.
_SUBSET_CHUNK = 16


def tree_names(n_trees: int) -> map:
    # Lazy: a checkpoint's reader stops at the first name it lacks.
    return map("tree_{:03d}".format, range(n_trees))


def _set_vote(table: array, node_id: int, total: int, size: int) -> None:
    # A leaf votes for the majority class; exact ties vote bot.
    table[5 * node_id + 4] = 1.0 if total / size >= 0.5 else 0.0


def _next_splittable(stack: list, table: array, config: BaselineConfig):
    """Pop the tree's stack to its next node that may split, making leaves of
    the nodes on the way; None once the tree is done."""
    while stack:
        node = stack.pop()
        node_id, start, end, depth, total = node
        size = end - start
        pure = total == 0 or total == size
        depth_capped = config.max_depth > 0 and depth >= config.max_depth
        if pure or depth_capped or size < 2 * config.min_leaf:
            _set_vote(table, node_id, total, size)
            continue
        return node
    return None


def feature_subsets(bit_generator, d: int, n_sub: int):
    """Yield, in order, the subsets that successive
    `np.sort(Generator(bit_generator).choice(d, n_sub, replace=False))`
    calls would return, computed from the raw words.

    With d <= 10000, or n_sub <= d // 50, `choice` is Floyd's algorithm: for
    j = d - n_sub ... d - 1 it draws v in [0, j] and takes v, or j when v is
    taken already. A Fisher-Yates shuffle follows, drawing in [0, i] for
    i = n_sub - 1 ... 1: the sort undoes it, but its draws use values. Each
    draw in [0, r] is Lemire's: the next 32-bit value w gives
    (w * (r + 1)) >> 32, unless the product's low half is below
    2**32 % (r + 1), when the next value is drawn in place of w. The 32-bit
    values are the half the generator's state holds pending, if any, then
    each raw word's low half and then its high half.

    Words are pulled in growing chunks and the last chunk runs past the last
    subset used, so nothing may draw from the generator afterwards. A draw
    in [0, 0], which only n_sub == d has, uses a value here and none in
    `choice`; every subset is then all of range(d) either way.
    """
    bounds = np.concatenate((np.arange(d - n_sub, d), np.arange(n_sub - 1, 0, -1))).astype(
        np.uint64) + 1
    state = bit_generator.state
    values = np.array([state["uinteger"]] if state["has_uint32"] else [], dtype=np.uint64)
    chunk = _SUBSET_CHUNK
    while True:
        # Enough raw words for `chunk` more subsets, each word read as two
        # 32-bit values, its low half first.
        count = -((values.shape[0] - chunk * bounds.shape[0]) // 2)
        values = np.concatenate(
            (values, bit_generator.random_raw(count).astype("<u8").view("<u4")))
        chunk *= 2
        while values.shape[0] >= bounds.shape[0]:
            table, values = _subset_table(values, bounds, d, n_sub)
            yield from table


def _subset_table(values, bounds, d, n_sub):
    """The sorted subsets drawn from the head of `values` (see
    `feature_subsets`) up to the first rejected value, and the values left
    after them, less that one: its node draws on from the value after it."""
    per_node = bounds.shape[0]
    nodes = values.shape[0] // per_node
    scaled = values[:nodes * per_node].reshape(nodes, per_node) * bounds
    rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < (1 << 32) % bounds)
    if rejected.shape[0]:
        nodes = rejected[0] // per_node
    chosen = scaled[:nodes, :n_sub] >> 32
    for k in range(1, n_sub):
        taken = (chosen[:, :k] == chosen[:, k:k + 1]).any(axis=1)
        chosen[taken, k] = d - n_sub + k
    return (np.sort(chosen, axis=1).astype(np.int64),
            np.delete(values[nodes * per_node:], rejected[:1] - nodes * per_node))


def _split_round(values, coded, levels, labels, rows, starts, sizes, totals, features,
                 min_leaf):
    """Best split of every node of a round, and each node's rows partitioned
    stably in place in `rows`: left rows first, then right rows.

    `values` and `coded` are feature-major: entry f * n + r is row r's value
    of feature f, and its rank * 2 + label. Node k owns
    rows[starts[k]:starts[k] + sizes[k]], holds totals[k] bots and searches
    the features features[k]. Returns, per node, the feature (-1 when no
    split is valid), the threshold, and the left child's row and bot counts.
    """
    n_nodes, n_sub = features.shape
    n_rows = labels.shape[0]
    width = levels.shape[1]
    offsets = np.cumsum(sizes) - sizes
    at = np.repeat(starts - offsets, sizes) + np.arange(offsets[-1] + sizes[-1])
    members = rows[at]

    # ((node * n_sub + slot) * width + rank) * 2 + label, sorted. Keys stay
    # below n_trees * n_sub * 2 * n, far inside int64.
    group_base = np.arange(n_nodes * n_sub).reshape(n_nodes, n_sub) * (2 * width)
    column = np.repeat(features * n_rows, sizes, axis=0) + members[:, None]
    keys = np.sort(coded[column] + np.repeat(group_base, sizes, axis=0), axis=None)
    run = keys >> 1
    cut = np.flatnonzero(run[1:] != run[:-1])
    group = run[cut] // width
    inner = group == run[cut + 1] // width
    cut, group = cut[inner], group[inner]
    node, slot = np.divmod(group, n_sub)
    first = n_sub * offsets[node] + slot * sizes[node]
    left_count = cut - first + 1
    if min_leaf > 1:
        keep = (left_count >= min_leaf) & (left_count <= sizes[node] - min_leaf)
        cut, node, slot, first, left_count = (
            cut[keep], node[keep], slot[keep], first[keep], left_count[keep])

    split_feature = np.zeros(n_nodes, dtype=np.int64)
    threshold = np.full(n_nodes, np.inf)
    found = np.zeros(n_nodes, dtype=bool)
    if cut.shape[0]:
        bots = np.zeros(keys.shape[0] + 1, dtype=np.int64)
        np.cumsum(keys & 1, out=bots[1:])
        left_pos = (bots[cut + 1] - bots[first]).astype(np.float64)
        left_n = left_count.astype(np.float64)
        n = sizes[node].astype(np.float64)
        right_n = n - left_n
        pl = left_pos / left_n
        pr = (totals[node] - left_pos) / right_n
        ql = 1.0 - pl
        qr = 1.0 - pr
        gini_l = 1.0 - pl * pl - ql * ql
        gini_r = 1.0 - pr * pr - qr * qr
        weighted = (left_n * gini_l + right_n * gini_r) / n
        # Candidates run in (node, slot, rank) order: the first minimum of
        # each node is its lowest slot, then its lowest value.
        heads = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
        best = np.minimum.reduceat(weighted, heads)
        hit = np.flatnonzero(weighted == np.repeat(best, np.diff(np.append(heads, cut.shape[0]))))
        hit = hit[np.concatenate(([True], node[hit[1:]] != node[hit[:-1]]))]
        chosen, at_cut = node[hit], cut[hit]
        f = features[chosen, slot[hit]]
        split_feature[chosen] = f
        found[chosen] = True
        threshold[chosen] = (levels[f, run[at_cut] % width]
                             + levels[f, run[at_cut + 1] % width]) / 2.0

    # A node without a split keeps its infinite threshold, so its rows all
    # stay on the left, where they are.
    value = values[np.repeat(split_feature * n_rows, sizes) + members]
    right = ~(value <= np.repeat(threshold, sizes))
    side = np.repeat(np.arange(0, 2 * n_nodes, 2, dtype=np.int16 if n_nodes < 1 << 14
                               else np.int64), sizes) + right
    rows[at] = members[np.argsort(side, kind="stable")]
    left = np.bincount(side, minlength=2 * n_nodes)[0::2]
    left_bots = np.bincount(side, weights=labels[members], minlength=2 * n_nodes)[0::2]
    split_feature[~found] = -1
    return (split_feature.tolist(), threshold.tolist(), left.tolist(),
            left_bots.astype(np.int64).tolist())


def fit_forest(x: np.ndarray, y: np.ndarray, config: BaselineConfig) -> dict:
    order = np.lexsort((y,) + tuple(x[:, j] for j in reversed(range(x.shape[1]))))
    x = x[order]
    labels = (y[order] != 0).astype(np.int64)
    n, d = x.shape
    n_sub = max(1, int(round(np.sqrt(d))))

    # Feature-major columns: each value, and its rank among its feature's
    # sorted distinct values with the label in the low bit. `levels` maps
    # ranks back to values.
    distinct = [np.unique(x[:, j], return_inverse=True) for j in range(d)]
    width = max(values.shape[0] for values, _ in distinct)
    levels = np.zeros((d, width))
    coded = np.empty((d, n), dtype=np.int64)
    for j, (values, rank) in enumerate(distinct):
        levels[j, : values.shape[0]] = values
        coded[j] = rank.reshape(-1) * 2 + labels
    columns = np.ascontiguousarray(x.T).reshape(-1)
    coded = coded.reshape(-1)

    seeds = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    rows = np.empty(config.n_trees * n, dtype=np.int64)
    tables, stacks, subsets = [], [], []
    for t, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        bootstrap = rng.integers(0, n, size=n)
        rows[t * n:(t + 1) * n] = bootstrap
        subsets.append(feature_subsets(rng.bit_generator, d, n_sub))
        tables.append(array("d", _CHILDREN[:5]))
        # (node_id, start, end, depth, bot count) of nodes still to grow.
        stacks.append([(0, t * n, (t + 1) * n, 1, int(labels[bootstrap].sum()))])

    waiting = deque(range(config.n_trees))
    while waiting:
        picked, drawn, taken = [], [], 0
        while waiting and taken < _ROUND_ROWS:
            t = waiting.popleft()
            node = _next_splittable(stacks[t], tables[t], config)
            if node is None:
                continue
            drawn.append(next(subsets[t]))
            picked.append((t, node))
            taken += node[2] - node[1]
        if not picked:
            break
        starts = np.array([node[1] for _, node in picked], dtype=np.int64)
        sizes = np.array([node[2] - node[1] for _, node in picked], dtype=np.int64)
        totals = np.array([node[4] for _, node in picked], dtype=np.float64)
        split = _split_round(columns, coded, levels, labels, rows, starts, sizes, totals,
                             np.array(drawn), config.min_leaf)
        for (t, (node_id, start, end, depth, total)), feature, threshold, left, left_bots in zip(
                picked, *split):
            table, stack = tables[t], stacks[t]
            if feature < 0:
                _set_vote(table, node_id, total, end - start)
            else:
                left_id = len(table) // 5
                table[5 * node_id:5 * node_id + 4] = array(
                    "d", (feature, threshold, left_id, left_id + 1))
                table.extend(_CHILDREN)
                stack.append((left_id + 1, start + left, end, depth + 1, total - left_bots))
                stack.append((left_id, start, start + left, depth + 1, left_bots))
            waiting.append(t)

    return {name: np.frombuffer(table, dtype=np.float64).reshape(-1, 5)
            for name, table in zip(tree_names(config.n_trees), tables)}


def forest_params(arrays, n_trees: int, width: int) -> dict:
    """The n_trees trees of a checkpoint (`persist.load_model`). No tree, or
    a tree that cannot score width-wide rows, is a DataError naming it: each
    row must hold a finite threshold and a vote of 0 or 1, and each inner
    node split on a feature in [0, width) and point at two later rows of its
    table, as `fit_forest` appends them, so every walk ends at a leaf."""
    params = {name: arrays[name] for name in tree_names(n_trees)}
    if not params:
        raise DataError(f"{arrays.path}: config.n_trees = {n_trees} names no tree")
    for name, nodes in params.items():
        if nodes.ndim == 2 and nodes.shape[1] == 5 and nodes.shape[0]:
            at = np.flatnonzero(nodes[:, 0] != _LEAF)
            inner = nodes[at][:, [0, 2, 3]]
            feature, left, right = inner.T
            if np.all(np.isfinite(nodes[:, 1]) & ((nodes[:, 4] == 0) | (nodes[:, 4] == 1))) \
                    and np.all(inner == np.floor(inner)) and np.all(
                        (0 <= feature) & (feature < width) & (at < left) & (at < right)
                        & (np.maximum(left, right) < len(nodes))):
                continue
        raise DataError(f"{arrays.path}: tensor {name!r} cannot score {width}-wide rows")
    return params


def predict_forest(params: dict, x: np.ndarray) -> np.ndarray:
    """Mean leaf vote over the trees. Every (tree, row) pair of a block of
    rows walks down one concatenated node table together, one level a step."""
    trees = [params[name] for name in sorted(params)]
    sizes = np.array([nodes.shape[0] for nodes in trees])
    roots = sizes.cumsum() - sizes
    table = np.concatenate(trees)
    # Children become indices into the concatenated table.
    shift = np.repeat(roots, sizes)
    inner = table[:, 0] != _LEAF
    left = np.where(inner, table[:, 2] + shift, -1).astype(np.int64)
    right = np.where(inner, table[:, 3] + shift, -1).astype(np.int64)
    feature = np.where(inner, table[:, 0], 0).astype(np.int64)

    votes = np.empty(x.shape[0])
    block = max(1, _PREDICT_PAIRS // len(trees))
    for lo in range(0, x.shape[0], block):
        rows = x[lo:lo + block]
        m = rows.shape[0]
        at = np.repeat(roots, m)
        live = np.flatnonzero(inner[at])
        while live.shape[0]:
            node = at[live]
            go_left = rows[live % m, feature[node]] <= table[node, 1]
            at[live] = np.where(go_left, left[node], right[node])
            live = live[inner[at[live]]]
        # Votes are 0 or 1, so the sum is exact in any order.
        votes[lo:lo + m] = table[at, 4].reshape(len(trees), m).sum(axis=0)
    return votes / len(trees)
