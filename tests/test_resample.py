import numpy as np
import pytest

from botdetect.data import FeatureMatrix, Label
from botdetect import resample
from botdetect.errors import DataError
from botdetect.resample import (
    ResampleConfig,
    Strategy,
    apply_strategy,
    enn_filter,
    knn_indices,
    neighbor_table,
    smote,
    tomek_links,
)

from oracles import (
    brute_enn_keep,
    brute_knn,
    brute_tomek,
    is_convex_combination,
    standardized_copy,
)


def _matrix(features, labels):
    features = np.asarray(features, dtype=np.float64)
    return FeatureMatrix(
        features, tuple(f"c{i}" for i in range(features.shape[1])),
        np.asarray(labels, dtype=np.int8),
    )


def _random_matrix(seed, n=None, d=None, min_per_class=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = n or int(rng.integers(10, 61))
    d = d or int(rng.integers(1, 6))
    features = rng.standard_normal((n, d)) * rng.uniform(0.5, 20.0, size=d)
    labels = rng.integers(0, 2, n).astype(np.int8)
    labels[:min_per_class] = 1
    labels[-min_per_class:] = 0
    return FeatureMatrix(features, tuple(f"c{i}" for i in range(d)), labels)


# -- knn -------------------------------------------------------------------

def test_knn_collinear():
    m = _matrix([[0.0], [1.0], [5.0]], [0, 1, 0])
    assert knn_indices(m, 1, 1).tolist() == [0]


def test_knn_tie_breaks_to_lower_index():
    m = _matrix([[0.0], [2.0], [4.0]], [0, 1, 0])
    assert knn_indices(m, 1, 1).tolist() == [0]


def test_knn_same_class_only():
    m = _matrix([[0.0], [0.1], [0.2], [9.0]], [0, 1, 0, 1])
    assert knn_indices(m, 1, 1, same_class_only=True).tolist() == [3]


def test_knn_insufficient_rows():
    m = _matrix([[0.0], [1.0]], [0, 1])
    with pytest.raises(DataError, match="need 2 neighbors but only 1 eligible rows"):
        knn_indices(m, 0, 2)


def test_knn_matches_brute_force():
    m = _random_matrix(3, n=50, d=3)
    for q in range(m.n_rows):
        got = knn_indices(m, q, 5).tolist()
        want = brute_knn(m.features, q, 5, range(m.n_rows))
        assert got == want


def _duplicate_heavy(seed, n, d, high):
    """Small-integer rows, so many rows are exact duplicates and many
    distances tie."""
    rng = np.random.Generator(np.random.PCG64(seed))
    features = rng.integers(0, high, size=(n, d)).astype(np.float64)
    labels = rng.integers(0, 2, n).astype(np.int8)
    labels[:6] = 1
    labels[-6:] = 0
    return FeatureMatrix(features, tuple(f"c{i}" for i in range(d)), labels)


def _same_class_table(features, k, labels):
    """Each class's neighbor table, mapped back to row numbers, as `smote`
    builds the minority's."""
    table = np.empty((len(features), k), dtype=np.int64)
    for label in np.unique(labels):
        peers = np.flatnonzero(labels == label)
        table[peers] = peers[neighbor_table(features[peers], k)]
    return table


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("seed,n,d,high", [(1, 60, 1, 4), (2, 90, 3, 3), (3, 120, 10, 2),
                                           (4, 80, 4, 10), (5, 100, 8, 7), (6, 70, 16, 40)])
def test_neighbor_table_matches_brute_force(seed, n, d, high, k):
    # Integer rows make every distance exact, whatever the summation order,
    # so the oracle's left-to-right sum holds at 8 columns and more too.
    m = _duplicate_heavy(seed, n, d, high)
    table = neighbor_table(m.features, k)
    same = _same_class_table(m.features, k, m.labels)
    assert table.shape == same.shape == (n, k)
    for q in range(n):
        assert table[q].tolist() == brute_knn(m.features, q, k, range(n))
        peers = np.flatnonzero(m.labels == m.labels[q])
        assert same[q].tolist() == brute_knn(m.features, q, k, peers)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("seed,n,d,high", [(2, 90, 3, 3), (3, 120, 10, 2)])
def test_neighbor_table_matches_knn_indices_on_standardized_rows(seed, n, d, high, k):
    # On z-scored rows a distance's last bit depends on the summation order,
    # which the brute-force oracle does not share; every row must still
    # equal the one-row search.
    m = _duplicate_heavy(seed, n, d, high)
    std = FeatureMatrix(standardized_copy(m), m.schema, m.labels)
    table = neighbor_table(std.features, k)
    same = _same_class_table(std.features, k, m.labels)
    for q in range(n):
        assert table[q].tolist() == knn_indices(std, q, k).tolist()
        assert same[q].tolist() == knn_indices(std, q, k, same_class_only=True).tolist()


def test_neighbor_table_blocks_agree_with_one_block(monkeypatch):
    m = _duplicate_heavy(5, 150, 3, 3)
    x = standardized_copy(m)
    whole = neighbor_table(x, 4)
    monkeypatch.setattr(resample, "_BLOCK_BYTES", 8 * 150 * 7)  # blocks of 7 rows
    assert np.array_equal(neighbor_table(x, 4), whole)


def test_neighbor_table_insufficient_rows():
    m = _matrix([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 1])
    assert neighbor_table(m.features, 3).tolist() == [[1, 2, 3], [0, 2, 3], [1, 3, 0], [2, 1, 0]]
    with pytest.raises(DataError, match="need 4 neighbors but only 3 eligible rows"):
        neighbor_table(m.features, 4)
    with pytest.raises(DataError, match="need 1 neighbors but only 0 eligible rows"):
        _same_class_table(m.features, 1, m.labels)  # the lone human has no peer


# -- smote -----------------------------------------------------------------

def test_smote_identical_minority_points():
    m = _matrix([[1.0, 1.0], [1.0, 1.0]] + [[5.0, 5.0]] * 6, [1, 1] + [0] * 6)
    out = smote(m, ResampleConfig(strategy=Strategy.SMOTE, smote_k=1, seed=0))
    synth = out.features[m.n_rows:]
    assert synth.shape[0] == 4
    assert np.all(synth == np.array([1.0, 1.0]))
    assert np.all(out.labels[m.n_rows:] == Label.BOT)


def test_smote_segment_geometry():
    m = _matrix([[0.0, 0.0], [1.0, 1.0]] + [[8.0, 0.0]] * 7, [1, 1] + [0] * 7)
    out = smote(m, ResampleConfig(strategy=Strategy.SMOTE, smote_k=1, seed=1))
    for row in out.features[m.n_rows:]:
        assert row[0] == pytest.approx(row[1], abs=1e-12)  # on y = x
        assert 0.0 <= row[0] <= 1.0


def test_smote_bounding_box_and_convexity():
    m = _random_matrix(11, n=60, d=4)
    out = smote(m, ResampleConfig(strategy=Strategy.SMOTE, smote_k=3, seed=2))
    human, bot = m.class_counts()
    minority = Label.BOT if bot <= human else Label.HUMAN
    originals = m.features[m.labels == minority]
    lo, hi = originals.min(axis=0), originals.max(axis=0)
    for row in out.features[m.n_rows:]:
        assert np.all(row >= lo - 1e-9) and np.all(row <= hi + 1e-9)
        assert is_convex_combination(row, originals)


def test_smote_balances_exactly():
    m = _random_matrix(5, n=40)
    out = smote(m, ResampleConfig(strategy=Strategy.SMOTE, smote_k=2, seed=3))
    human, bot = out.class_counts()
    assert human == bot


def test_smote_originals_untouched_and_deterministic():
    m = _random_matrix(6, n=30)
    cfg = ResampleConfig(strategy=Strategy.SMOTE, smote_k=2, seed=9)
    a = smote(m, cfg)
    b = smote(m, cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.features[: m.n_rows], m.features)


def test_smote_degenerate_minority():
    m = _matrix([[0.0], [1.0], [2.0], [3.0]], [1, 0, 0, 0])
    with pytest.raises(DataError, match=r"minority class has 1 row\(s\); need >= 2"):
        smote(m, ResampleConfig(strategy=Strategy.SMOTE, smote_k=1))


def test_smote_k_must_be_below_minority_size():
    m = _matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, 0, 0])
    with pytest.raises(DataError, match="smote_k=2 must be < minority size 2"):
        smote(m, ResampleConfig(strategy=Strategy.SMOTE, smote_k=2))


# -- tomek links -------------------------------------------------------------

def test_tomek_two_points():
    m = _matrix([[0.0], [1.0]], [0, 1])
    assert tomek_links(m) == {(0, 1)}


def test_tomek_separated_clusters_empty():
    cluster_a = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]
    cluster_b = [[9.0, 9.0], [9.1, 9.0], [9.0, 9.1]]
    m = _matrix(cluster_a + cluster_b, [0, 0, 0, 1, 1, 1])
    assert tomek_links(m) == set()


def test_tomek_matches_brute_force():
    for seed in range(5):
        m = _random_matrix(seed + 100, n=40, d=3)
        assert tomek_links(m) == brute_tomek(m)


def test_tomek_needs_two_rows():
    with pytest.raises(DataError, match="need 1 neighbors but only 0 eligible rows"):
        tomek_links(_matrix([[0.0]], [0]))


def test_tomek_links_are_cross_class():
    m = _random_matrix(200, n=30, d=2)
    for a, b in tomek_links(m):
        assert m.labels[a] != m.labels[b]
        assert a < b


# -- enn ---------------------------------------------------------------------

def test_enn_all_same_class_is_identity():
    m = _matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, 1])
    out = enn_filter(m, 3)
    assert np.array_equal(out.features, m.features)


def test_enn_removes_lone_intruder():
    cluster = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.05, 0.05]]
    m = _matrix(cluster + [[0.02, 0.02]], [0, 0, 0, 0, 1])
    out = enn_filter(m, 3)
    assert out.n_rows == 4
    assert np.all(out.labels == 0)


def test_enn_matches_brute_force():
    for seed in range(5):
        m = _random_matrix(seed + 300, n=60, d=3)
        got = enn_filter(m, 3)
        want = m.select(brute_enn_keep(m, 3))
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)


def test_enn_never_invents_rows():
    m = _random_matrix(400, n=45, d=2)
    out = enn_filter(m, 5)
    as_set = {tuple(r) for r in m.features}
    assert all(tuple(r) in as_set for r in out.features)


def test_enn_requires_enough_rows():
    m = _matrix([[0.0], [1.0]], [0, 1])
    with pytest.raises(DataError, match="enn_k=2 must be < row count 2"):
        enn_filter(m, 2)


# -- strategies ---------------------------------------------------------------

def test_strategy_none_is_identity():
    m = _random_matrix(7, n=20)
    out, diag = apply_strategy(m, ResampleConfig(strategy=Strategy.NONE))
    assert out is m
    assert diag.stages[0].added == 0 and diag.stages[0].removed == 0


def test_strategy_smote_noop_when_balanced():
    m = _matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, 0, 0])
    out, _ = apply_strategy(m, ResampleConfig(strategy=Strategy.SMOTE, smote_k=1))
    assert out.n_rows == 4


def test_smotenn_pipeline_on_gaussian_fixture():
    rng = np.random.Generator(np.random.PCG64(42))
    humans = rng.standard_normal((80, 2))
    bots = rng.standard_normal((20, 2)) + 1.0
    m = _matrix(np.vstack([humans, bots]), [0] * 80 + [1] * 20)
    out, diag = apply_strategy(m, ResampleConfig(strategy=Strategy.SMOTENN, seed=42))
    smote_stage = diag.stages[0]
    assert smote_stage.name == "smote"
    assert abs(smote_stage.bot - smote_stage.human) <= 0.05 * smote_stage.human
    assert diag.stages[1].name == "enn"
    assert diag.stages[1].removed >= 0
    assert any("enn_k" in a for a in diag.assumptions)


def test_smotomek_removes_both_endpoints():
    m = _random_matrix(900, n=50, d=3)
    cfg = ResampleConfig(strategy=Strategy.SMOTOMEK, smote_k=2, seed=0)
    oversampled = smote(m, cfg)
    links = tomek_links(oversampled)
    dropped = {i for pair in links for i in pair}
    out, diag = apply_strategy(m, cfg)
    assert out.n_rows == oversampled.n_rows - len(dropped)
    assert diag.stages[1].removed == len(dropped)


def test_strategies_deterministic_under_seed():
    m = _random_matrix(901, n=40, d=3)
    for strategy in Strategy:
        cfg = ResampleConfig(strategy=strategy, smote_k=2, seed=5)
        a, _ = apply_strategy(m, cfg)
        b, _ = apply_strategy(m, cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
