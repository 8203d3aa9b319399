"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive (exhaustive loops, scalar arithmetic)
and shares no code with the library paths it checks, beyond the documented
conventions (z-scored distances, lower-index tie breaks).
"""

from __future__ import annotations

import math
import re

import numpy as np

from botdetect import ingest, tokenizer
from botdetect.baselines import BaselineConfig
from botdetect.data import AccountRecord, FeatureMatrix, Label, Standardizer, TweetRecord
from botdetect.tokenizer import tokenize


def standardized_copy(matrix: FeatureMatrix) -> np.ndarray:
    return Standardizer.fit(matrix.features).transform(matrix.features)


def brute_knn(features: np.ndarray, query: int, k: int, candidates) -> list[int]:
    """The k candidates nearest to row `query` (itself excluded) by squared
    Euclidean distance, ties to the lower index.

    Sum-order contract: the squared differences are summed left to right.
    numpy's `np.sum`, which `resample` uses, sums pairwise in blocks of 8,
    so from 8 columns on the two sums can differ in the last bit and order
    near-ties differently. Compare against this oracle on integer features,
    where both sums are exact; on real-valued rows such as z-scored ones,
    use `resample.knn_indices` as the reference instead.
    """
    scored = []
    for j in candidates:
        if j == query:
            continue
        d = 0.0
        for a, b in zip(features[j], features[query]):
            d += (a - b) ** 2
        scored.append((d, j))
    scored.sort()
    return [j for _, j in scored[:k]]


def brute_tomek(matrix: FeatureMatrix) -> set[tuple[int, int]]:
    x = standardized_copy(matrix)
    n = matrix.n_rows
    nearest = [brute_knn(x, i, 1, range(n))[0] for i in range(n)]
    links = set()
    for a in range(n):
        b = nearest[a]
        if matrix.labels[a] != matrix.labels[b] and nearest[b] == a:
            links.add((min(a, b), max(a, b)))
    return links


def brute_enn_keep(matrix: FeatureMatrix, k: int) -> list[int]:
    x = standardized_copy(matrix)
    n = matrix.n_rows
    keep = []
    for i in range(n):
        neighbors = brute_knn(x, i, k, range(n))
        opposite = sum(1 for j in neighbors if matrix.labels[j] != matrix.labels[i])
        if not opposite * 2 > k:
            keep.append(i)
    return keep


def pair_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def loop_roc_points(scores, labels) -> list[tuple[float, float]]:
    """ROC points by walking the stably sorted scores one position at a
    time; each run of equal scores closes one step."""
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = sum(1 for lab in labels if lab == 1)
    n_neg = len(labels) - n_pos
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    return points


def is_convex_combination(row, originals: np.ndarray, tol: float = 1e-9) -> bool:
    """True if row = a + u*(b - a) for some original rows a, b and u in [0,1]."""
    n = originals.shape[0]
    for i in range(n):
        a = originals[i]
        if np.max(np.abs(row - a)) <= tol:
            return True
        for j in range(n):
            if j == i:
                continue
            b = originals[j]
            diff = b - a
            pivot = int(np.argmax(np.abs(diff)))
            if diff[pivot] == 0.0:
                continue
            u = (row[pivot] - a[pivot]) / diff[pivot]
            if not -tol <= u <= 1.0 + tol:
                continue
            if np.max(np.abs(a + u * diff - row)) <= tol:
                return True
    return False


def scalar_lstm_final(params: dict[str, np.ndarray], matrix: np.ndarray,
                      true_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Naive per-step, per-unit LSTM recurrence; returns (final_h, the
    (true_length x hidden) states after each step)."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hidden = params["W_i"].shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    states = []
    for t in range(true_length):
        x_t = matrix[t]
        h_new = np.zeros(hidden)
        c_new = np.zeros(hidden)
        for unit in range(hidden):
            a_i = params["b_i"][unit] + float(params["W_i"][unit] @ x_t) + float(params["U_i"][unit] @ h)
            a_f = params["b_f"][unit] + float(params["W_f"][unit] @ x_t) + float(params["U_f"][unit] @ h)
            a_o = params["b_o"][unit] + float(params["W_o"][unit] @ x_t) + float(params["U_o"][unit] @ h)
            a_c = params["b_c"][unit] + float(params["W_c"][unit] @ x_t) + float(params["U_c"][unit] @ h)
            c_new[unit] = sig(a_f) * c[unit] + sig(a_i) * np.tanh(a_c)
            h_new[unit] = sig(a_o) * np.tanh(c_new[unit])
        h, c = h_new, c_new
        states.append(h.copy())
    all_h = np.vstack(states) if states else np.zeros((0, hidden))
    return h, all_h


def scalar_bce(score: float, target: float, clamp: float = 1e-7) -> float:
    p = min(max(score, clamp), 1.0 - clamp)
    return -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))


def scalar_contextual_forward(model, x: np.ndarray, true_length: int,
                              metadata) -> tuple[float, float]:
    """Layer-by-layer trace of the full net using plain loops, on one tweet's
    (max_len x d) vectors."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    p = model.params
    final_h, _ = scalar_lstm_final(p, x, true_length)
    if model.config.use_metadata:
        u = np.concatenate([final_h, model.metadata_standardizer.transform(metadata)])
    else:
        u = final_h
    r1 = np.array([max(0.0, float(p["dense1.W"][i] @ u) + p["dense1.b"][i])
                   for i in range(p["dense1.W"].shape[0])])
    r2 = np.array([max(0.0, float(p["dense2.W"][i] @ r1) + p["dense2.b"][i])
                   for i in range(p["dense2.W"].shape[0])])
    main = sig(float(p["main.W"][0] @ r2) + p["main.b"][0])
    aux = sig(float(p["aux.W"][0] @ final_h) + p["aux.b"][0]) if model.config.use_aux else None
    return float(main), (float(aux) if aux is not None else None)


def scalar_lstm_cells(params: dict[str, np.ndarray], matrix: np.ndarray,
                      true_length: int) -> np.ndarray:
    """Naive per-step, per-unit LSTM recurrence; returns the cell states c_t
    (true_length x hidden)."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hidden = params["W_i"].shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    cells = np.zeros((true_length, hidden))
    for t in range(true_length):
        x_t = matrix[t]
        h_new = np.zeros(hidden)
        for unit in range(hidden):
            pre = {
                gate: params[f"b_{gate}"][unit] + float(params[f"W_{gate}"][unit] @ x_t)
                + float(params[f"U_{gate}"][unit] @ h)
                for gate in ("i", "f", "o", "c")
            }
            cells[t, unit] = sig(pre["f"]) * c[unit] + sig(pre["i"]) * np.tanh(pre["c"])
            h_new[unit] = sig(pre["o"]) * np.tanh(cells[t, unit])
        h, c = h_new, cells[t].copy()
    return cells


def padded_lstm_forward(params: dict[str, np.ndarray], x: np.ndarray,
                        lengths: np.ndarray) -> tuple[np.ndarray, dict]:
    """The masked training recurrence without an input table, on time-major
    (T, B, d) floats: every position of every row, padding included, is
    projected on its own (``inputs @ Wᵀ``, then ``+= b``) before the loop,
    and a padded row keeps its last state (``np.where``). Returns (final_h,
    cache) in `lstm_forward`'s cache layout, so `lstm_backward` reads
    either; its ``c_tanh`` block is the tanh of its masked cell states. Its
    float operations at live steps are the library's, in the same order, so
    a table whose gemm runs outside OpenBLAS's small-matrix sizes gives the
    same bits."""
    w, u, b = (np.stack([params[f"{kind}_{gate}"] for gate in "ifoc"]) for kind in "WUb")
    steps = int(lengths.max()) if len(lengths) else 0
    _, batch, dim = x.shape
    hidden = u.shape[1]
    inputs = x[:steps].reshape(-1, dim)
    projected = inputs @ w.transpose(0, 2, 1)
    projected += b[:, None, :]
    projected = projected.reshape(4, steps, batch, hidden)
    h = c = np.zeros((batch, hidden))
    gates, hs, cs = np.empty((steps, 4, batch, hidden)), [h], [c]
    for t in range(steps):
        a = h @ u.transpose(0, 2, 1) + projected[:, t]
        ifo = (np.tanh(a[:3] * 0.5) + 1.0) * 0.5  # `layers.sigmoid`'s operations
        cand = np.tanh(a[3])
        c_raw = ifo[1] * c + ifo[0] * cand
        live = (t < lengths)[:, None]
        h = np.where(live, ifo[2] * np.tanh(c_raw), h)
        c = np.where(live, c_raw, c)
        gates[t, :3], gates[t, 3] = ifo, cand
        hs.append(h)
        cs.append(c)
    cells = np.stack(cs)
    cache = dict(x=inputs, lengths=lengths, gates=gates, h=np.stack(hs), c=cells,
                 c_tanh=np.tanh(cells[1:]))
    return h, cache


# -- reference Adam --------------------------------------------------------
# The per-tensor update that `layers.Adam` replaced with whole-vector
# operations on one flat buffer, kept as it was. `Adam` must give the same
# bytes.

class PerTensorAdam:
    """Adam over a dict of named parameter arrays, one tensor at a time."""

    def __init__(self, params: dict[str, np.ndarray], lr=1e-3, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for key in self.params:
            g = grads[key]
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# -- reference forest ------------------------------------------------------
# The per-node CART grower that `baselines.forest` replaced with lockstep
# rounds, kept as it was: one tree at a time, one split search per node.
# `fit_forest` must return the same bytes.

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


def reference_forest(x, y, config) -> dict:
    order = np.lexsort((y,) + tuple(x[:, j] for j in reversed(range(x.shape[1]))))
    x_sorted = x[order]
    y_sorted = y[order]
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    params = {}
    for t, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        params[f"tree_{t:03d}"] = _grow_tree(x_sorted, y_sorted, rng, config)
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


# -- feature subsets -------------------------------------------------------
# `Generator.choice(d, n_sub, replace=False)` for small d, one 32-bit value
# at a time, sorted: Floyd's algorithm, then the draws of the Fisher-Yates
# shuffle that follows it, each bounded by Lemire's rejection method.


def _lemire_draw(values, r: int) -> int:
    """A draw in [0, r] from an iterator of 32-bit values; r == 0 takes none."""
    if r == 0:
        return 0
    while True:
        product = next(values) * (r + 1)
        if product & 0xFFFFFFFF >= (1 << 32) % (r + 1):
            return product >> 32


def floyd_subsets(values, d: int, n_sub: int, count: int) -> list[list[int]]:
    """The first `count` sorted subsets drawn from the 32-bit values."""
    values = iter(values)
    subsets = []
    for _ in range(count):
        chosen: list[int] = []
        for j in range(d - n_sub, d):
            value = _lemire_draw(values, j)
            chosen.append(j if value in chosen else value)
        for i in range(n_sub - 1, 0, -1):
            _lemire_draw(values, i)
        subsets.append(sorted(chosen))
    return subsets


# -- tweet ids -------------------------------------------------------------


def per_tweet_tensors(pipeline, tweets):
    """`TweetPipeline.tensors`, one tweet and one token at a time: tokenize,
    keep the first max_len tokens ("tail") or the last ("head"), and look
    each kept token up in the vocabulary, unknown tokens to the unknown row,
    in a row that starts as all pad ids."""
    table, max_len = pipeline.table, pipeline.max_len
    ids = np.full((len(tweets), max_len), table.pad_id, dtype=np.int32)
    lengths = np.zeros(len(tweets), dtype=np.int64)
    for i, tweet in enumerate(tweets):
        tokens = tokenize(tweet.text, repeat_tag=pipeline.repeat_tag)
        start = 0 if pipeline.truncation == "tail" else max(0, len(tokens) - max_len)
        kept = tokens[start:start + max_len]
        for j, token in enumerate(kept):
            ids[i, j] = table.vocabulary.get(token, table.unknown_id)
        lengths[i] = len(kept)
    metadata = np.array([tweet.metadata for tweet in tweets], dtype=np.float64)
    return ids, lengths, metadata


# -- tokenizer ---------------------------------------------------------------

# The URL, mention and hashtag patterns as the tokenizer first wrote them:
# a case-insensitive alternation with no first character, and patterns that
# open with their lookbehind, so that `re` tries a match at every position.
ALTERNATION_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)", re.IGNORECASE)
LOOKBEHIND_USER_RE = re.compile(r"(?<!\w)@\w+")
LOOKBEHIND_HASHTAG_RE = re.compile(r"(?<!\S)#(\w+)")


def lookbehind_tokenize(text: str, repeat_tag: bool = False) -> list[str]:
    """`tokenize`, with the first-written URL, mention and hashtag patterns
    in place of the library's, which open with a character class or their
    literal."""
    s = ALTERNATION_URL_RE.sub(f" {tokenizer.URL} ", text)
    s = LOOKBEHIND_USER_RE.sub(f" {tokenizer.USER} ", s)
    s = LOOKBEHIND_HASHTAG_RE.sub(lambda m: f" {tokenizer.HASHTAG} {m.group(1)} ", s)
    if repeat_tag:
        s = tokenizer._PUNCT_REPEAT_RE.sub(lambda m: f" {m.group(1)} {tokenizer.REPEAT} ", s)
    return [token for raw in s.split() for token in tokenizer._expand_token(raw)]


# -- synthetic corpora -------------------------------------------------------


def generator_synthetic(spec):
    """`ingest.generate_synthetic` drawn through `numpy.random.Generator`'s
    own `random`, `poisson` and `integers`, in the same order, in place of
    the library's raw-word stream."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    random, poisson, integers = rng.random, rng.poisson, rng.integers
    separation = spec.separation
    accounts, tweets = [], []
    for label, prefix in ((Label.HUMAN, "h"), (Label.BOT, "b")):
        class_words = ingest.BOT_WORDS if label == Label.BOT else ingest.HUMAN_WORDS
        account_params = [ingest._count_params(base, cap, separation, label)
                          for _, base, cap in ingest._ACCOUNT_COUNT_SPECS]
        tweet_params = [ingest._count_params(base, cap, separation, label)
                        for _, base, cap in ingest._TWEET_COUNT_SPECS]
        flag_probs = [0.5 + (drift if label == Label.BOT else -drift)
                      for drift in (0.35 * separation * d
                                    for d in ingest._ACCOUNT_BOOL_DIRECTIONS)]

        def counts(params):
            return [offset + int(min(poisson(lam), cap)) for lam, cap, offset in params]

        def word():
            if random() < separation:
                return class_words[integers(0, len(class_words))]
            return ingest.SHARED_WORDS[integers(0, len(ingest.SHARED_WORDS))]

        for a in range(spec.accounts):
            account_id = f"{prefix}{a:05d}"
            features = counts(account_params) + [int(random() < p) for p in flag_probs]
            accounts.append(AccountRecord(account_id, tuple(features), label))
            for _ in range(spec.tweets_per_account):
                metadata = tuple(counts(tweet_params))
                hashtags, urls, mentions = metadata[3:]
                words = [word() for _ in range(min(4 + int(poisson(4.0)), 16))]
                if random() < 0.10:
                    words[0] = words[0].upper()
                if random() < 0.10:
                    words[-1] = words[-1] + words[-1][-1] * 3
                extras = ["#" + word() for _ in range(hashtags)]
                for _ in range(urls):
                    extras.append("https://t.co/" + "".join(
                        ingest._URL_CHARS[i]
                        for i in integers(0, len(ingest._URL_CHARS), size=6)))
                extras += ["@user" + str(integers(1000, 9999)) for _ in range(mentions)]
                if random() < 0.25:
                    extras.append(str(integers(0, 10000)))
                if random() < 0.20:
                    extras.append(ingest._EMOTICONS[integers(0, len(ingest._EMOTICONS))])
                for extra in extras:
                    words.insert(integers(0, len(words) + 1), extra)
                tweets.append(TweetRecord(" ".join(words), metadata, label, account_id))
    return accounts, tweets


# -- GloVe files -------------------------------------------------------------


def per_element_glove_file(table, path) -> None:
    """`embedding.write_glove_file`, converting one numpy element at a time."""
    by_index = sorted(table.vocabulary.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        for token, idx in by_index:
            comps = " ".join(repr(float(v)) for v in table.matrix[idx])
            fh.write(f"{token} {comps}\n")


# -- Poisson draws -------------------------------------------------------------

# numpy's `random_loggam` coefficients a[0] ... a[9], as its C source lists them.
LOGGAM_COEFFS = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
                 -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
                 6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
                 -1.39243221690590e+00)


def loop_loggam(x: float) -> float:
    """numpy's `random_loggam` as its C source reads, Horner loop included."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = LOGGAM_COEFFS[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += LOGGAM_COEFFS[k]
    gl = gl0 / x0 + 0.5 * 1.8378770664093453e+00 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl
