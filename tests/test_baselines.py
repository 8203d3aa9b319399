import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdetect import baselines
from botdetect.baselines import (
    BaselineConfig,
    BaselineKind,
    BaselineModel,
    load_baseline,
    save_baseline,
)
from botdetect.baselines.boost import adaboost_margin, fit_adaboost
from botdetect.baselines.linear import fit_sgd
from botdetect.baselines import forest
from botdetect.baselines.forest import fit_forest, predict_forest
from botdetect.baselines.mlp import init_mlp_params
from botdetect.data import FeatureMatrix, Standardizer
from botdetect.errors import DataError
from botdetect.nnet.layers import bce_grad_wrt_logit, dense_backward, dense_forward, sigmoid
from botdetect.persist import load_model, save_model
from gradcheck import check_gradients
from helpers import mlp_loss
from oracles import floyd_subsets, reference_forest, tree_votes


def _matrix(features, labels):
    features = np.asarray(features, dtype=np.float64)
    return FeatureMatrix(
        features, tuple(f"f{i}" for i in range(features.shape[1])),
        np.asarray(labels, dtype=np.int8),
    )


def _separable(seed=0, n=60):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((n, 2)) + np.array([3.0, 3.0])
    b = rng.standard_normal((n, 2)) - np.array([3.0, 3.0])
    return _matrix(np.vstack([a, b]), [1] * n + [0] * n)


def _xor(seed=9, per_cluster=50):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, labels = [], []
    for cx, cy, lab in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        rows.append(rng.standard_normal((per_cluster, 2)) * 0.15 + np.array([cx, cy]))
        labels.extend([lab] * per_cluster)
    return _matrix(np.vstack(rows), labels)


def _accuracy(model, matrix):
    scores = baselines.predict_proba(model, matrix)
    return float(np.mean((scores >= 0.5) == (matrix.labels == 1)))


def test_logreg_separable_perfect():
    m = _separable()
    model = baselines.fit(BaselineKind.LOGREG, m, BaselineConfig(seed=0))
    assert _accuracy(model, m) == 1.0


@pytest.mark.parametrize("kind", list(BaselineKind))
@pytest.mark.parametrize("label", [1, 0])
def test_constant_label_confident(kind, label):
    rng = np.random.Generator(np.random.PCG64(3))
    m = _matrix(rng.standard_normal((64, 3)), [label] * 64)
    config = BaselineConfig(
        seed=0, logreg_epochs=2500, sgd_epochs=30, n_trees=10, n_stumps=10,
        mlp_layers=(8, 4, 1), mlp_epochs=1200, mlp_batch=16,
    )
    model = baselines.fit(kind, m, config)
    scores = baselines.predict_proba(model, m)
    confidence = scores if label == 1 else 1.0 - scores
    assert confidence.min() >= 0.99


def test_xor_separates_forest_from_logreg():
    m = _xor()
    logreg = baselines.fit(BaselineKind.LOGREG, m, BaselineConfig(seed=1))
    forest = baselines.fit(BaselineKind.FOREST, m, BaselineConfig(seed=1, n_trees=30))
    assert _accuracy(logreg, m) <= 0.75
    assert _accuracy(forest, m) >= 0.95


def test_fit_rejects_degenerate_data():
    with pytest.raises(DataError, match="need at least 2 training rows, got 1"):
        baselines.fit(BaselineKind.LOGREG, _matrix(np.zeros((1, 2)), [1]),
                      BaselineConfig())


def test_zero_weight_logreg_scores_half():
    model = BaselineModel(
        kind=BaselineKind.LOGREG,
        schema=("a", "b"),
        standardizer=Standardizer(mean=np.zeros(2), std=np.ones(2)),
        config=BaselineConfig(),
        params={"w": np.zeros(2), "b": np.zeros(1)},
    )
    scores = baselines.predict_proba(model, np.array([[5.0, -3.0], [0.0, 0.0]]))
    assert np.all(scores == 0.5)


def test_forest_unanimous_vote_scores_one():
    m = _separable(seed=2, n=40)
    model = baselines.fit(BaselineKind.FOREST, m, BaselineConfig(seed=2, n_trees=15))
    deep_bot = np.array([[8.0, 8.0]])
    assert baselines.predict_proba(model, deep_bot)[0] == 1.0


def _trace_tree_by_hand(nodes, row):
    at = 0
    while nodes[at, 0] != -1.0:
        feature = int(nodes[at, 0])
        at = int(nodes[at, 2]) if row[feature] <= nodes[at, 1] else int(nodes[at, 3])
    return nodes[at, 4]


def test_forest_scores_match_per_tree_hand_trace():
    m = _separable(seed=4, n=25)
    model = baselines.fit(BaselineKind.FOREST, m, BaselineConfig(seed=4, n_trees=3))
    rng = np.random.Generator(np.random.PCG64(5))
    queries = rng.standard_normal((10, 2)) * 3.0
    scores = baselines.predict_proba(model, queries)
    standardized = model.standardizer.transform(queries)
    trees = [model.params[name] for name in sorted(model.params)]
    for i, row in enumerate(standardized):
        votes = [_trace_tree_by_hand(nodes, row) for nodes in trees]
        assert scores[i] == pytest.approx(np.mean(votes), abs=1e-12)


def test_forest_invariant_to_training_row_order():
    m = _separable(seed=6, n=30)
    perm = np.random.Generator(np.random.PCG64(7)).permutation(m.n_rows)
    shuffled = m.select(perm)
    a = baselines.fit(BaselineKind.FOREST, m, BaselineConfig(seed=8, n_trees=12))
    b = baselines.fit(BaselineKind.FOREST, shuffled, BaselineConfig(seed=8, n_trees=12))
    queries = np.random.Generator(np.random.PCG64(9)).standard_normal((25, 2))
    assert np.array_equal(
        baselines.predict_proba(a, queries), baselines.predict_proba(b, queries)
    )


def test_adaboost_training_error_non_increasing_on_pinned_fixture():
    # Fixture chosen (seed 4) so per-step 0-1 error is monotone and every
    # stump clears the weighted-error < 0.5 premise.
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.standard_normal((80, 2))
    y = ((x @ np.array([1.0, 0.8])) > 0).astype(np.int8)
    m = _matrix(x, y)
    model = baselines.fit(BaselineKind.ADABOOST, m, BaselineConfig(seed=0, n_stumps=10))
    stumps = model.params["stumps"]
    assert stumps.shape[0] == 10
    assert np.all(stumps[:, 3] > 0.0)  # alpha > 0 <=> weighted error < 0.5
    # 0-1 training error of each prefix of the ensemble.
    xs = model.standardizer.transform(x)
    errors = [
        float(np.mean((adaboost_margin({"stumps": stumps[:k]}, xs) >= 0.0) != y))
        for k in range(1, len(stumps) + 1)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0]


def test_adaboost_exponential_bound_decreases():
    # The theorem behind the ensemble guarantee: mean exp(-sign * margin / 2)
    # shrinks with every stump whose weighted error is below one half.
    m = _xor(seed=12, per_cluster=40)
    model = baselines.fit(BaselineKind.ADABOOST, m, BaselineConfig(seed=0, n_stumps=30))
    x = model.standardizer.transform(m.features)
    signs = 2.0 * m.labels.astype(np.float64) - 1.0
    losses = []
    margins = np.zeros(m.n_rows)
    for feature, threshold, polarity, alpha in model.params["stumps"]:
        side = (x[:, int(feature)] >= threshold).astype(np.float64)
        votes = 2.0 * (side if polarity > 0 else 1.0 - side) - 1.0
        margins += alpha * votes
        losses.append(float(np.mean(np.exp(-signs * margins / 2.0))))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_adaboost_perfect_stump_short_circuits():
    m = _separable(seed=13, n=20)  # one threshold separates everything
    model = baselines.fit(BaselineKind.ADABOOST, m, BaselineConfig(seed=0, n_stumps=50))
    assert model.params["stumps"].shape[0] == 1
    assert _accuracy(model, m) == 1.0


def test_adaboost_stops_once_no_stump_beats_chance():
    # Constant features: every stump errs on half the weight. The first is
    # kept at the smallest alpha, the reweighted second just beats 0.5, and
    # the third does not.
    params = fit_adaboost(np.zeros((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]),
                          BaselineConfig(n_stumps=10))
    assert params["stumps"].shape == (2, 4)
    assert np.all(params["stumps"][:, 3] > 0.0)


def test_platt_on_zero_spread_margins_keeps_unit_scale():
    # Constant features give every row the same margin; its spread is taken as 1.
    params = fit_sgd(np.zeros((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]), BaselineConfig(),
                     np.random.Generator(np.random.PCG64(0)))
    assert params["platt"].tolist() == [1.0, 0.0, 0.0, 1.0]


def test_mlp_gradients_match_finite_differences():
    rng = np.random.Generator(np.random.PCG64(11))
    params = init_mlp_params(rng, 4, (8, 5, 1))
    x = rng.standard_normal((6, 4))
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    layers = [(f"W{i}", f"b{i}") for i in range(3)]
    logits, cache = dense_forward(params, layers, x)
    dlogits = bce_grad_wrt_logit(sigmoid(logits)[:, 0], y)[:, None]
    _, grads = dense_backward(params, layers, cache, dlogits)
    errors = check_gradients(lambda: mlp_loss(params, x, y), params, grads, seed=0)
    assert max(errors.values()) < 1e-4


def test_predict_rejects_schema_mismatch():
    m = _separable(seed=14, n=20)
    model = baselines.fit(BaselineKind.LOGREG, m, BaselineConfig(seed=0))
    with pytest.raises(DataError, match="row width 5 != training width 2"):
        baselines.predict_proba(model, np.zeros((2, 5)))
    other = FeatureMatrix(np.zeros((2, 2)), ("x", "y"), [0, 1])
    with pytest.raises(DataError, match=r"schema \('x', 'y'\) does not match training schema"):
        baselines.predict_proba(model, other)


def test_predict_refuses_rows_that_are_not_2d():
    model = baselines.fit(BaselineKind.LOGREG, _separable(seed=14, n=20), BaselineConfig(seed=0))
    for rows in (np.zeros(2), np.zeros((1, 2, 1))):
        with pytest.raises(DataError, match=f"rows must be 2-d, got ndim={rows.ndim}"):
            baselines.predict_proba(model, rows)


def test_fits_deterministic_under_seed():
    m = _xor(seed=15, per_cluster=25)
    for kind in BaselineKind:
        cfg = BaselineConfig(seed=21, n_trees=8, n_stumps=8,
                             mlp_layers=(6, 1), mlp_epochs=5)
        a = baselines.fit(kind, m, cfg)
        b = baselines.fit(kind, m, cfg)
        q = np.random.Generator(np.random.PCG64(1)).standard_normal((10, 2))
        assert np.array_equal(
            baselines.predict_proba(a, q), baselines.predict_proba(b, q)
        )


@pytest.mark.parametrize("kind", list(BaselineKind))
def test_save_load_round_trip(tmp_path, kind):
    m = _xor(seed=16, per_cluster=20)
    cfg = BaselineConfig(seed=3, n_trees=5, n_stumps=5,
                         mlp_layers=(6, 1), mlp_epochs=5)
    model = baselines.fit(kind, m, cfg)
    path = tmp_path / f"{kind.value}.txt"
    save_baseline(model, path)
    loaded = load_baseline(*load_model(path))
    assert loaded.kind == kind
    assert loaded.schema == m.schema
    q = np.random.Generator(np.random.PCG64(2)).standard_normal((15, 2))
    assert np.array_equal(
        baselines.predict_proba(model, q), baselines.predict_proba(loaded, q)
    )


def _with_cell(value, at):
    def change(a):
        a = a.copy()
        a[at] = value
        return a
    return change


# (kind, tensor, an edit after which the tensor cannot score 2-wide rows)
UNUSABLE = [
    ("logreg", "w", lambda a: a[:1]),
    ("sgd", "platt", lambda a: a[:3]),
    ("mlp", "W1", lambda a: a[:, :-1]),
    ("mlp", "b0", lambda a: a[:-1]),
    ("forest", "tree_000", lambda a: a[:, :4]),
    ("forest", "tree_000", _with_cell(2.0, (0, 0))),  # feature 2 of 2
    ("forest", "tree_000", _with_cell(0.5, (0, 2))),  # a child that is not a row
    ("forest", "tree_000", _with_cell(1e6, (0, 3))),  # a child past the table
    ("forest", "tree_000", _with_cell(np.nan, (0, 3))),
    ("adaboost", "stumps", _with_cell(-1.0, (0, 0))),
    ("adaboost", "stumps", lambda a: a[:, :3]),
    # Values no fit writes.
    pytest.param("logreg", "b", _with_cell(np.inf, 0), id="logreg-b-inf"),
    pytest.param("sgd", "platt", _with_cell(-np.inf, 2), id="sgd-platt-minus-inf"),
    pytest.param("mlp", "W0", _with_cell(np.inf, (0, 1)), id="mlp-W0-inf"),
    pytest.param("mlp", "b1", _with_cell(np.nan, 0), id="mlp-b1-nan"),
    pytest.param("forest", "tree_000", _with_cell(np.inf, (0, 1)), id="forest-root-threshold-inf"),
    pytest.param("forest", "tree_000", _with_cell(0.5, (-1, 4)), id="forest-leaf-vote-half"),
    pytest.param("adaboost", "stumps", _with_cell(np.inf, (0, 3)), id="adaboost-alpha-inf"),
    pytest.param("adaboost", "stumps", _with_cell(0.5, (0, 0)), id="adaboost-feature-half"),
    pytest.param("adaboost", "stumps", _with_cell(0.5, (0, 2)), id="adaboost-polarity-half"),
    pytest.param("adaboost", "stumps", lambda a: a[:0], id="adaboost-no-stumps"),
    # A meta entry, edited in place of a tensor: layers the tensors do not have.
    pytest.param("mlp", "config.mlp_layers", lambda text: "9,1", id="mlp-layers-9-1"),
]


@pytest.mark.parametrize("kind,name,change", UNUSABLE)
def test_load_refuses_tensors_that_cannot_score(tmp_path, kind, name, change):
    cfg = BaselineConfig(seed=3, n_trees=2, n_stumps=3, mlp_layers=(6, 1), mlp_epochs=2)
    path = tmp_path / "model.txt"
    save_baseline(baselines.fit(kind, _xor(seed=16, per_cluster=20), cfg), path)
    meta, arrays = load_model(path)
    load_baseline(meta, arrays)
    entries = meta if name in meta else arrays
    entries[name] = change(entries[name])
    # Layers of 9,1 are refused through W0, the first tensor they do not fit.
    refused = {"config.mlp_layers": "W0"}.get(name, name)
    with pytest.raises(DataError, match=re.escape(f"{path}: tensor '{refused}'")):
        load_baseline(meta, arrays)


def test_load_stops_at_the_first_missing_tree(tmp_path):
    # Names for the 10**9 trees a checkpoint's meta may claim would take about 65 GB.
    path = tmp_path / "model.txt"
    save_baseline(baselines.fit("forest", _xor(seed=16, per_cluster=20),
                                BaselineConfig(seed=3, n_trees=2)), path)
    meta, arrays = load_model(path)
    meta["config.n_trees"] = str(10**6)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="missing tensor 'tree_002'"):
            load_baseline(meta, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("kind,key,text,message", [
    ("forest", "config.n_trees", "0", "config.n_trees = 0 names no tree"),
    ("mlp", "config.mlp_layers", "6,2", "config.mlp_layers = 6,2 does not end in 1"),
], ids=["forest-no-trees", "mlp-layers-6-2"])
def test_load_refuses_config_the_tensors_cannot_follow(tmp_path, kind, key, text, message):
    cfg = BaselineConfig(seed=3, n_trees=2, mlp_layers=(6, 1), mlp_epochs=2)
    path = tmp_path / "model.txt"
    save_baseline(baselines.fit(kind, _xor(seed=16, per_cluster=20), cfg), path)
    meta, arrays = load_model(path)
    meta[key] = text
    with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
        load_baseline(meta, arrays)


def test_load_accepts_infinite_stump_thresholds(tmp_path):
    # `_stump_candidates` writes -inf below the minimum and inf above the maximum.
    cfg = BaselineConfig(seed=3, n_stumps=3)
    path = tmp_path / "model.txt"
    save_baseline(baselines.fit("adaboost", _xor(seed=16, per_cluster=20), cfg), path)
    meta, arrays = load_model(path)
    arrays["stumps"][:2, 1] = (-np.inf, np.inf)
    save_model(path, meta, arrays)
    assert np.array_equal(load_baseline(*load_model(path)).params["stumps"], arrays["stumps"])


@pytest.mark.parametrize("name,kind", [("fit_forest", "forest"), ("fit_adaboost", "adaboost")])
def test_registry_calls_through_module_globals(monkeypatch, name, kind):
    # A tracer rebinds these module names; the registry must pick that up.
    calls = []
    original = getattr(baselines, name)
    monkeypatch.setattr(baselines, name, lambda *args: calls.append(1) or original(*args))
    baselines.fit(kind, _xor(seed=3, per_cluster=5), BaselineConfig(n_trees=2, n_stumps=2))
    assert calls == [1]


def _pinned_fixture():
    # Count columns with many tied values next to rounded Gaussian columns.
    rng = np.random.Generator(np.random.PCG64(2024))
    counts = rng.integers(0, 4, size=(240, 6)).astype(np.float64)
    normal = np.round(rng.standard_normal((240, 4)), 1)
    x = np.hstack([counts, normal])
    y = ((x[:, 0] + x[:, 6] + rng.standard_normal(240) * 0.8) > 1.5).astype(np.float64)
    return x, y


def _params_digest(params):
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(params[name].tobytes())
    return digest.hexdigest()


# sha256 of the fitted arrays, captured before the split and stump searches
# were vectorized; any change to a tree or stump changes them.
@pytest.mark.parametrize("config,expected", [
    (BaselineConfig(seed=5, n_trees=15),
     "00a23652ffbc39bab2856f7318d19e0bb0a23a4d38583dfe89d2ab7a45c2aed5"),
    (BaselineConfig(seed=5, n_trees=15, min_leaf=3, max_depth=6),
     "7edc52ed5d23d6aeb40b4ca35e33a91c05eaa44e7164704127c0e820af9dda68"),
])
def test_forest_trees_pinned(config, expected):
    x, y = _pinned_fixture()
    assert _params_digest(fit_forest(x, y, config)) == expected


def _columns(seed, kinds, n):
    """One column per kind: few tied integers, rounded Gaussians (ties),
    continuous Gaussians (no ties) or a constant."""
    rng = np.random.Generator(np.random.PCG64(seed))
    make = {
        "ties": lambda: rng.integers(0, 4, size=n).astype(np.float64),
        "rounded": lambda: np.round(rng.standard_normal(n), 1),
        "continuous": lambda: rng.standard_normal(n),
        "constant": lambda: np.full(n, 2.5),
    }
    return np.column_stack([make[kind]() for kind in kinds]), rng


@pytest.mark.parametrize("round_rows", [forest._ROUND_ROWS, 7])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 80),
    kinds=st.lists(st.sampled_from(["ties", "rounded", "continuous", "constant"]),
                   min_size=1, max_size=6),
    labels=st.sampled_from(["mixed", "all_bot", "all_human"]),
    min_leaf=st.sampled_from([1, 3]),
    max_depth=st.sampled_from([0, 1, 6]),
    n_trees=st.sampled_from([1, 7]),
)
@settings(max_examples=60, deadline=None)
def test_forest_equals_per_node_reference(round_rows, seed, n, kinds, labels, min_leaf,
                                          max_depth, n_trees):
    # A budget of 7 rows makes most rounds leave trees waiting.
    x, rng = _columns(seed, kinds, n)
    y = {"mixed": lambda: rng.integers(0, 2, size=n), "all_bot": lambda: np.ones(n),
         "all_human": lambda: np.zeros(n)}[labels]().astype(np.float64)
    config = BaselineConfig(seed=seed, n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest, "_ROUND_ROWS", round_rows)
        fitted = fit_forest(x, y, config)
    expected = reference_forest(x, y, config)
    assert list(fitted) == list(expected)
    for name in expected:
        assert fitted[name].dtype == np.float64
        assert fitted[name].tobytes() == expected[name].tobytes()


@given(
    seed=st.integers(0, 2**64 - 1),
    d=st.integers(1, 64),
    n=st.integers(1, 50),
    pending=st.booleans(),
    count=st.integers(1, 300),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_feature_subsets_equal_sorted_generator_choice(seed, d, n, pending, count, data):
    # As in a tree: a bootstrap first, then the subsets. The bootstrap's
    # 32-bit draws may leave half a word pending, and a float32 draw flips
    # that. 300 subsets span five pulls of words.
    n_sub = data.draw(st.integers(1, d))
    mirror, rng = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for generator in (mirror, rng):
        generator.integers(0, n, size=n)
        if generator.bit_generator.state["has_uint32"] != pending:
            generator.random(dtype=np.float32)
    assert rng.bit_generator.state["has_uint32"] == pending
    subsets = forest.feature_subsets(rng.bit_generator, d, n_sub)
    for _ in range(count):
        expected = np.sort(mirror.choice(d, n_sub, replace=False))
        assert next(subsets).tolist() == expected.tolist()


class _GivenWords:
    """A bit generator that hands out the given raw words, in order."""

    def __init__(self, words, pending):
        self.words = words
        self.state = {"has_uint32": int(pending is not None), "uinteger": pending or 0}

    def random_raw(self, size):
        head, self.words = self.words[:size], self.words[size:]
        assert head.shape[0] == size
        return head


@given(
    seed=st.integers(0, 2**64 - 1),
    d=st.integers(2, 64),
    zeros=st.lists(st.integers(0, 1499), max_size=40),
    pending=st.sampled_from([None, 0, 12345]),
)
@settings(max_examples=60, deadline=None)
def test_feature_subsets_redraw_rejected_values(seed, d, zeros, pending):
    # A zero word is two zero values, which every range but a power-of-two
    # one rejects; the first ten words make the range-9 draw at d = 10
    # reject its value 0. 300 subsets cross the pulls' boundaries.
    n_sub = max(1, int(round(np.sqrt(d))))
    words = np.random.PCG64(seed).random_raw(8192)
    words[:10] = 0
    words[zeros] = 0
    values = [] if pending is None else [pending]
    for word in words.tolist():
        values += [word & 0xFFFFFFFF, word >> 32]
    expected = floyd_subsets(values, d, n_sub, 300)
    subsets = forest.feature_subsets(_GivenWords(words, pending), d, n_sub)
    assert [next(subsets).tolist() for _ in range(300)] == expected


def test_forest_fit_memory_is_bounded_by_the_round_budget():
    # The account-table training shape: without a row budget, the first
    # round alone searches every tree's root at once.
    rng = np.random.Generator(np.random.PCG64(11))
    x = rng.poisson(3.0, size=(1440, 10)).astype(np.float64)
    y = (x[:, 0] + rng.standard_normal(1440) * 0.5 > 4.0).astype(np.int8)
    tracemalloc.start()
    try:
        params = fit_forest(x, y, BaselineConfig(seed=3, n_trees=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(params) == 100
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("pairs", [forest._PREDICT_PAIRS, 48])
def test_predict_forest_equals_per_tree_vote_sum(monkeypatch, pairs):
    # 48 pairs over 16 trees walk 3 rows at a time, the last block 2 rows.
    monkeypatch.setattr(forest, "_PREDICT_PAIRS", pairs)
    x, y = _pinned_fixture()
    params = fit_forest(x, y, BaselineConfig(seed=5, n_trees=15))
    params["tree_015"] = np.array([[-1.0, 0.0, -1.0, -1.0, 1.0]])  # a single leaf
    queries = np.vstack([x, np.random.Generator(np.random.PCG64(6)).standard_normal((50, 10))])
    votes = np.zeros(queries.shape[0])
    for name in sorted(params):
        votes += tree_votes(params[name], queries)
    assert predict_forest(params, queries).tobytes() == (votes / len(params)).tobytes()


def test_adaboost_stumps_pinned():
    x, y = _pinned_fixture()
    # Copies of features 6 and 0 tie with them in every round; the lower
    # feature must win, so the copies change nothing.
    params = fit_adaboost(np.hstack([x, x[:, [6, 0]]]), y, BaselineConfig(n_stumps=40))
    assert params["stumps"].shape == (40, 4)
    assert _params_digest(params) == (
        "b0bdc371d37e2ce6b1a45335930802ee1dc23ab359d6f3924f10ac9ab0fbbed6")
