import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdetect.baselines.mlp import init_mlp_params
from botdetect.cli import NET_CONFIGS
from botdetect.data import Label, Standardizer, TweetRecord
from botdetect.embedding import TweetPipeline, fixture_table
from botdetect.errors import DataError, TrainingError
from botdetect.nnet.layers import Adam, bce, sigmoid
from botdetect.nnet.lstm import init_lstm_params, lstm_backward, lstm_forward
from botdetect.nnet.model import ContextualLstmModel, NetConfig, blended_loss, train
from botdetect.persist import load_model

from gradcheck import check_gradients
from helpers import adam_gradients, contextual_params, embedded, scoring_peak
from oracles import PerTensorAdam, padded_lstm_forward, scalar_bce, scalar_contextual_forward, \
    scalar_lstm_final


def _sequence(rng, length, dim, max_len=None):
    """A (max_len, dim) float sequence, zero past its length, and the length."""
    max_len = max_len or length
    matrix = np.zeros((max_len, dim))
    if length:
        matrix[:length] = rng.standard_normal((length, dim))
    return matrix, length


def _forward(model, sequence, metadata=None):
    """model.forward on a float sequence, read as row ids into itself."""
    x, length = sequence
    return model.forward(x, np.arange(len(x)), length, metadata)


def _pack(*parts):
    """One embedding matrix holding the rows of every (x, length, metadata,
    label) toy tweet, and per part the (ids, lengths, metadata, labels)
    arrays that gather them back."""
    flat = [tweet for part in parts for tweet in part]
    max_len = flat[0][0].shape[0]
    matrix = np.concatenate([x for x, _, _, _ in flat])
    ids = np.arange(len(flat) * max_len).reshape(len(flat), max_len)
    lengths = np.array([length for _, length, _, _ in flat])
    metadata = np.array([m for _, _, m, _ in flat])
    labels = np.array([label for _, _, _, label in flat])
    packed, start = [], 0
    for part in parts:
        rows = slice(start, start + len(part))
        packed.append((ids[rows], lengths[rows], metadata[rows], labels[rows]))
        start += len(part)
    return (matrix, *packed)


def _zero_cell(dim, hidden=4):
    params = {}
    for gate in ("i", "f", "o", "c"):
        params[f"W_{gate}"] = np.zeros((hidden, dim))
        params[f"U_{gate}"] = np.zeros((hidden, hidden))
        params[f"b_{gate}"] = np.zeros(hidden)
    return params


def test_lstm_zero_length_gives_zero_state():
    rng = np.random.Generator(np.random.PCG64(0))
    params = init_lstm_params(rng, 5, 32)
    x, length = _sequence(rng, 0, 5, max_len=4)
    matrix, ids = embedded(x[:, None])
    final_h, cache = lstm_forward(params, ids, np.array([length]), matrix, keep_cache=True)
    assert np.all(final_h[0] == 0.0)
    assert np.stack(cache["h"])[1:, 0].shape == (0, 32)
    assert np.all(np.stack(cache["h"]) == 0.0)


def test_lstm_zero_weights_give_zero_output():
    rng = np.random.Generator(np.random.PCG64(1))
    params = _zero_cell(3)
    x, _ = _sequence(rng, 6, 3)
    matrix, ids = embedded(x[:, None])
    final_h, cache = lstm_forward(params, ids, np.array([6]), matrix, keep_cache=True)
    assert np.all(final_h == 0.0)
    assert np.all(np.stack(cache["h"]) == 0.0)


def test_lstm_matches_scalar_reference():
    rng = np.random.Generator(np.random.PCG64(2))
    params = init_lstm_params(rng, 4, 8)
    x, length = _sequence(rng, 5, 4, max_len=7)
    matrix, ids = embedded(x[:, None])
    final_h, cache = lstm_forward(params, ids, np.array([length]), matrix, keep_cache=True)
    ref_final, ref_all = scalar_lstm_final(params, x, length)
    assert np.allclose(final_h[0], ref_final, atol=1e-12)
    assert np.allclose(np.stack(cache["h"])[1:, 0], ref_all, atol=1e-12)


@pytest.mark.parametrize("zero_weights", [False, True])
def test_lstm_cache_states_match_scalar_reference(zero_weights):
    # Each sample's cached hidden states are the oracle's per-step states up
    # to its length, and the state at its length is its final state (zero
    # for an empty sample).
    rng = np.random.Generator(np.random.PCG64(42))
    params = _zero_cell(3, hidden=6) if zero_weights else init_lstm_params(rng, 3, 6)
    sequences = [_sequence(rng, n, 3, max_len=7) for n in (5, 0, 7, 2)]
    matrix, ids = embedded(np.stack([m for m, _ in sequences], axis=1))
    lengths = np.array([length for _, length in sequences])
    final_h, cache = lstm_forward(params, ids, lengths, matrix, keep_cache=True)
    states = np.stack(cache["h"])
    assert states.shape == (8, 4, 6) and np.all(states[0] == 0.0)
    for i, (matrix, length) in enumerate(sequences):
        ref_final, ref_all = scalar_lstm_final(params, matrix, length)
        assert np.allclose(states[1:length + 1, i], ref_all, rtol=0.0, atol=1e-12)
        assert np.all(states[length, i] == final_h[i])
        assert np.allclose(final_h[i], ref_final, rtol=0.0, atol=1e-12)


def test_lstm_batch_masking_equals_per_sequence_runs():
    rng = np.random.Generator(np.random.PCG64(3))
    params = init_lstm_params(rng, 3, 6)
    sequences = [_sequence(rng, n, 3, max_len=5) for n in (5, 2, 0, 4)]
    matrix, ids = embedded(np.stack([m for m, _ in sequences], axis=1))
    lengths = np.array([length for _, length in sequences])
    batch_final, _ = lstm_forward(params, ids, lengths, matrix)
    for i, (sequence, _) in enumerate(sequences):
        solo_matrix, solo_ids = embedded(sequence[:, None])
        solo_final, _ = lstm_forward(params, solo_ids, lengths[i : i + 1], solo_matrix)
        assert np.allclose(batch_final[i], solo_final[0], atol=1e-12)


def test_lstm_dimension_mismatch():
    rng = np.random.Generator(np.random.PCG64(4))
    params = init_lstm_params(rng, 4, 8)
    matrix, ids = embedded(_sequence(rng, 3, 5)[0][:, None])
    with pytest.raises(DataError, match="sequence dimension 5 != cell input dim 4"):
        lstm_forward(params, ids, np.array([3]), matrix)


def test_sigmoid_exact_at_zero_and_symmetric():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    z = np.linspace(-40.0, 40.0, 8001)
    assert np.max(np.abs(sigmoid(-z) - (1.0 - sigmoid(z)))) <= 1e-15


def test_sigmoid_saturates_without_warnings():
    with np.errstate(all="raise"):
        out = sigmoid(np.array([-1e4, 1e4]))
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert out[0] == 0.0 and out[1] == 1.0


def test_sigmoid_matches_exp_form():
    z = np.linspace(-30.0, 30.0, 6001)
    assert np.max(np.abs(sigmoid(z) - 1.0 / (1.0 + np.exp(-z)))) <= 1e-15


def test_lstm_cache_does_not_change_outputs():
    rng = np.random.Generator(np.random.PCG64(40))
    params = init_lstm_params(rng, 4, 6)
    matrix, ids = embedded(rng.standard_normal((5, 7, 4)).transpose(1, 0, 2))
    lengths = np.array([7, 0, 3, 1, 6])
    final_a, cache_a = lstm_forward(params, ids, lengths, matrix)
    final_b, cache_b = lstm_forward(params, ids, lengths, matrix, keep_cache=True)
    assert cache_a is None and cache_b is not None
    assert np.array_equal(final_a, final_b)
    assert np.array_equal(cache_b["h"][lengths, np.arange(len(lengths))], final_b)


# Scoring batches as (hidden size, padded length, lengths): tied lengths,
# several empty rows, one full-length row among short ones, an all-empty
# batch, one row, and 300 rows at h = 32, past OpenBLAS's small-matrix sizes.
SCORING_BATCHES = {
    "tied": (6, 7, [3, 5, 3, 5, 3, 1, 5]),
    "zeros": (6, 7, [0, 2, 0, 0, 4, 0]),
    "one_full": (6, 7, [1, 7, 2, 1, 2]),
    "all_empty": (6, 7, [0, 0, 0]),
    "single": (6, 7, [4]),
    "b300_h32": (32, 30, np.random.Generator(np.random.PCG64(51)).integers(0, 31, 300)),
}


def _scoring_batch(case):
    hidden, max_len, lengths = SCORING_BATCHES[case]
    rng = np.random.Generator(np.random.PCG64(50))
    params = init_lstm_params(rng, 5, hidden)
    lengths = np.asarray(lengths)
    matrix, ids = embedded(rng.standard_normal((max_len, len(lengths), 5)))
    return params, ids, lengths, matrix, rng


@pytest.mark.parametrize("case", sorted(SCORING_BATCHES))
def test_scoring_loop_equals_training_loop_bitwise(case):
    # The sorted live-prefix loop and the masked loop read one input table
    # and run each h·Uᵀ at the same row count, so their final states agree
    # to the bit.
    params, ids, lengths, matrix, _ = _scoring_batch(case)
    scored, no_cache = lstm_forward(params, ids, lengths, matrix)
    trained, cache = lstm_forward(params, ids, lengths, matrix, keep_cache=True)
    assert no_cache is None and cache is not None
    assert np.array_equal(scored, trained)


@pytest.mark.parametrize("case", sorted(SCORING_BATCHES))
def test_scoring_permuted_rows_permute_final_states_bitwise(case):
    params, ids, lengths, matrix, rng = _scoring_batch(case)
    perm = rng.permutation(len(lengths))
    scored, _ = lstm_forward(params, ids, lengths, matrix)
    permuted, _ = lstm_forward(params, ids[perm], lengths[perm], matrix)
    assert np.array_equal(permuted, scored[perm])


@pytest.mark.parametrize("variant", [pytest.param(NET_CONFIGS["contextual"], id="contextual"),
                                     pytest.param(NET_CONFIGS["lstm"], id="tweet_only")])
def test_predict_proba_equals_training_forward_scores(variant):
    rng = np.random.Generator(np.random.PCG64(52))
    matrix = rng.standard_normal((40, 5))
    ids = rng.integers(0, 40, (300, 9)).astype(np.int32)
    lengths = rng.integers(0, 10, 300)
    metadata = rng.standard_normal((300, 6))
    model = ContextualLstmModel.initialize(NetConfig(embedding_dim=5, seed=53, **variant))
    model.metadata_standardizer = Standardizer(mean=np.full(6, 0.5), std=np.full(6, 2.0))
    scores = model.predict_proba(matrix, ids, lengths, metadata)
    main, _, _, _ = model.forward_batch(matrix, ids, lengths, metadata, keep_cache=True)
    assert np.array_equal(scores, main)


# Batches for the input table against the padded projection, as (lengths,
# ids, whether the bits must match): 300 rows of length <= 30 over a 420-row
# vocabulary (d 50, h 32), past OpenBLAS's small-matrix sizes in both gemms.
# The last vocabulary row is the zero pad row and the one before it the
# unknown row. A table of one token is a 1-row gemm, which OpenBLAS runs
# through its small-matrix kernel: its last bits may differ from the
# projection's, and only the two loops must still agree to the bit.
TABLE_VOCAB, TABLE_ROWS, TABLE_LEN = 420, 300, 30
_TABLE_RNG = np.random.Generator(np.random.PCG64(54))
_TABLE_LENGTHS = _TABLE_RNG.integers(0, TABLE_LEN + 1, TABLE_ROWS)
_TABLE_IDS = _TABLE_RNG.integers(0, TABLE_VOCAB, (TABLE_ROWS, TABLE_LEN))
_PADDED = np.where(np.arange(TABLE_LEN) < _TABLE_LENGTHS[:, None],
                   np.where(_TABLE_RNG.random(_TABLE_IDS.shape) < 0.1, TABLE_VOCAB - 2, _TABLE_IDS),
                   TABLE_VOCAB - 1)
TABLE_BATCHES = {
    "random_ids": (_TABLE_LENGTHS, _TABLE_IDS, True),
    "pad_and_unknown": (_TABLE_LENGTHS, _PADDED, True),
    "zero_length_rows": (np.where(np.arange(TABLE_ROWS) % 3 == 0, 0, _TABLE_LENGTHS), _PADDED,
                         True),
    "all_empty": (np.zeros(TABLE_ROWS, dtype=np.int64), _PADDED, True),
    "one_token": (_TABLE_LENGTHS, np.full_like(_TABLE_IDS, 7), False),
}


@pytest.mark.parametrize("case", sorted(TABLE_BATCHES))
def test_lstm_table_equals_padded_projection_bitwise(case):
    # One table row per distinct id gives the bits of projecting every padded
    # position, and the unmasked training loop the masked oracle's, in both
    # loops' final states and in every gradient.
    lengths, ids, exact = TABLE_BATCHES[case]
    rng = np.random.Generator(np.random.PCG64(55))
    params = init_lstm_params(rng, 50, 32)
    matrix = rng.standard_normal((TABLE_VOCAB, 50))
    matrix[-2], matrix[-1] = matrix[:-2].mean(axis=0), 0.0
    expected, oracle_cache = padded_lstm_forward(params, matrix[ids.T], lengths)
    scored, _ = lstm_forward(params, ids, lengths, matrix)
    trained, cache = lstm_forward(params, ids, lengths, matrix, keep_cache=True)
    d_final_h = rng.standard_normal(expected.shape)
    grads = lstm_backward(params, cache, d_final_h)
    oracle_grads = lstm_backward(params, oracle_cache, d_final_h)
    assert np.array_equal(scored, trained)
    same = np.array_equal if exact else partial(np.allclose, rtol=1e-12, atol=1e-12)
    assert same(trained, expected)
    for name in params:
        assert same(grads[name], oracle_grads[name]), name


def _table_gives_projection_bits(params, ids, lengths, matrix):
    """Whether the per-token table holds the padded projection's bits at
    every position: where it does, both recurrences read the same inputs."""
    w = np.stack([params[f"W_{gate}"] for gate in "ifoc"]).transpose(0, 2, 1)
    steps = int(lengths.max())
    tokens, rows = np.unique(ids[:, :steps], return_inverse=True)
    per_token = (matrix[tokens] @ w)[:, rows.reshape(ids[:, :steps].shape).T.ravel()]
    return np.array_equal(per_token, matrix[ids[:, :steps].T].reshape(-1, matrix.shape[1]) @ w)


@given(batch=st.integers(1, 130), hidden=st.integers(3, 32), dim=st.integers(1, 60),
       max_len=st.integers(1, 30), rows=st.sampled_from(["random", "some_empty", "all_empty",
                                                         "all_full"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_lstm_unmasked_training_equals_masked_oracle(batch, hidden, dim, max_len, rows, seed):
    # Padded steps run unmasked in training; the masked oracle gives the
    # same final states and all 12 gradients, to the bit where the table
    # gemm gives the projection's bits (past OpenBLAS's small-matrix sizes).
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_lstm_params(rng, dim, hidden)
    vocab = int(rng.integers(2, 3 * batch * max_len))
    matrix = rng.standard_normal((vocab, dim))
    ids = rng.integers(0, vocab, (batch, max_len))
    lengths = {"random": rng.integers(0, max_len + 1, batch),
               "some_empty": rng.integers(0, max_len + 1, batch) * rng.integers(0, 2, batch),
               "all_empty": np.zeros(batch, dtype=np.int64),
               "all_full": np.full(batch, max_len)}[rows]
    expected, oracle_cache = padded_lstm_forward(params, matrix[ids.T], lengths)
    trained, cache = lstm_forward(params, ids, lengths, matrix, keep_cache=True)
    d_final_h = rng.standard_normal(expected.shape)
    grads = lstm_backward(params, cache, d_final_h)
    oracle_grads = lstm_backward(params, oracle_cache, d_final_h)
    exact = _table_gives_projection_bits(params, ids, lengths, matrix)
    same = np.array_equal if exact else partial(np.allclose, rtol=1e-12, atol=1e-12)
    assert same(trained, expected)
    for name in params:
        assert same(grads[name], oracle_grads[name]), name


def test_lstm_padded_ids_change_no_state_or_gradient_bits():
    # Shuffling the ids among the padded positions refills them with ids the
    # batch already uses and keeps its distinct ids, so the table: it changes
    # only what the unmasked loop computes at padded steps.
    lengths, _, _ = TABLE_BATCHES["zero_length_rows"]
    ids = _TABLE_IDS
    rng = np.random.Generator(np.random.PCG64(56))
    params = init_lstm_params(rng, 50, 32)
    matrix = rng.standard_normal((TABLE_VOCAB, 50))
    live = np.arange(TABLE_LEN) < lengths[:, None]
    refilled = ids.copy()
    refilled[~live] = rng.permutation(ids[~live])
    assert not np.array_equal(refilled, ids)
    assert np.array_equal(np.unique(refilled), np.unique(ids))
    d_final_h = rng.standard_normal((TABLE_ROWS, 32))
    runs = [lstm_forward(params, batch_ids, lengths, matrix, keep_cache=True)
            for batch_ids in (ids, refilled)]
    (final, cache), (final_refilled, cache_refilled) = runs
    assert final.tobytes() == final_refilled.tobytes()
    grads = lstm_backward(params, cache, d_final_h)
    grads_refilled = lstm_backward(params, cache_refilled, d_final_h)
    for name in params:
        assert grads[name].tobytes() == grads_refilled[name].tobytes(), name


def test_predict_proba_peak_memory_stays_below_a_quarter_of_the_padded_projection():
    # The per-position projection alone would take S * B * 4h * 8 bytes.
    peak, bound = scoring_peak()
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_lstm_all_empty_batch_has_zero_gradients():
    rng = np.random.Generator(np.random.PCG64(41))
    params = init_lstm_params(rng, 4, 6)
    matrix, ids = embedded(rng.standard_normal((3, 5, 4)).transpose(1, 0, 2))
    final_h, cache = lstm_forward(params, ids, np.zeros(3, dtype=np.int64), matrix,
                                  keep_cache=True)
    assert np.all(final_h == 0.0) and np.all(np.stack(cache["h"]) == 0.0)
    grads = lstm_backward(params, cache, rng.standard_normal((3, 6)))
    assert set(grads) == set(params)
    for name, value in params.items():
        assert grads[name].shape == value.shape
        assert np.all(grads[name] == 0.0)


def test_zero_model_outputs_half():
    config = NetConfig(embedding_dim=3, hidden_dim=4, dense_sizes=(6, 5))
    model = ContextualLstmModel.initialize(config)
    for key in model.params:
        model.params[key] = np.zeros_like(model.params[key])
    rng = np.random.Generator(np.random.PCG64(5))
    main, aux, trace, cells = _forward(model, _sequence(rng, 4, 3), np.arange(6.0))
    assert main == 0.5 and aux == 0.5
    assert trace.shape == cells.shape == (4, 4)


def test_contextual_forward_batch_refuses_absent_metadata():
    model = ContextualLstmModel.initialize(NetConfig(embedding_dim=3, hidden_dim=4,
                                                     dense_sizes=(6, 5)))
    x, length = _sequence(np.random.Generator(np.random.PCG64(5)), 4, 3)
    with pytest.raises(DataError, match=re.escape("metadata must be a (B, 6) array")):
        model.forward_batch(x, np.arange(4)[None, :], np.array([length]), None)


def test_metadata_ignored_when_first_layer_weights_zeroed():
    config = NetConfig(embedding_dim=3, hidden_dim=4, dense_sizes=(6, 5), seed=8)
    model = ContextualLstmModel.initialize(config)
    model.params["dense1.W"][:, 4:] = 0.0  # zero the metadata columns
    rng = np.random.Generator(np.random.PCG64(6))
    seq = _sequence(rng, 4, 3)
    main_a = _forward(model, seq, np.zeros(6))[0]
    main_b = _forward(model, seq, np.array([9.0, -4.0, 2.0, 7.0, 1.0, 3.0]))[0]
    assert main_a == main_b


def test_forward_matches_scalar_trace():
    config = NetConfig(embedding_dim=4, hidden_dim=5, dense_sizes=(7, 6), seed=9)
    model = ContextualLstmModel.initialize(config)
    model.metadata_standardizer = Standardizer(
        mean=np.arange(6.0), std=np.linspace(1.0, 2.0, 6)
    )
    rng = np.random.Generator(np.random.PCG64(10))
    seq = _sequence(rng, 5, 4)
    meta = rng.standard_normal(6)
    main, aux, _, _ = _forward(model, seq, meta)
    ref_main, ref_aux = scalar_contextual_forward(model, *seq, meta)
    assert main == pytest.approx(ref_main, abs=1e-12)
    assert aux == pytest.approx(ref_aux, abs=1e-12)


def test_tweet_only_forward_has_no_aux():
    config = NetConfig(embedding_dim=4, hidden_dim=5, dense_sizes=(7, 6), seed=11,
                       **NET_CONFIGS["lstm"])
    model = ContextualLstmModel.initialize(config)
    rng = np.random.Generator(np.random.PCG64(12))
    main, aux, _, _ = _forward(model, _sequence(rng, 3, 4))
    assert aux is None
    assert "aux.W" not in model.params
    assert model.params["dense1.W"].shape == (7, 5)


def test_loss_blend_arithmetic():
    # main part 1.0 and aux part 0.5 blend to 0.9 at the fixed 0.8/0.2 weights
    target = 1.0
    main_score = float(np.exp(-1.0))
    aux_score = float(np.exp(-0.5))
    total, main_part, aux_part = blended_loss(main_score, aux_score, target)
    assert main_part == pytest.approx(1.0, abs=1e-12)
    assert aux_part == pytest.approx(0.5, abs=1e-12)
    assert total == pytest.approx(0.9, abs=1e-12)


def test_loss_perfect_prediction_near_zero():
    total, main_part, aux_part = blended_loss(1.0, 1.0, 1.0)
    assert total <= 1e-6 and main_part <= 1e-6 and aux_part <= 1e-6


def test_loss_matches_scalar_bce():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(20):
        main = float(rng.uniform(0.01, 0.99))
        aux = float(rng.uniform(0.01, 0.99))
        y = float(rng.integers(0, 2))
        total, main_part, aux_part = blended_loss(main, aux, y)
        assert main_part == pytest.approx(scalar_bce(main, y), abs=1e-12)
        assert aux_part == pytest.approx(scalar_bce(aux, y), abs=1e-12)
        assert total == pytest.approx(0.8 * main_part + 0.2 * aux_part, abs=1e-15)


def _toy_corpus(rng, n, dim=5, max_len=6, sep=2.0):
    corpus = []
    for i in range(n):
        label = Label.BOT if i % 2 else Label.HUMAN
        length = int(rng.integers(1, max_len + 1))
        matrix = np.zeros((max_len, dim))
        center = sep if label == Label.BOT else -sep
        matrix[:length] = rng.standard_normal((length, dim)) + center
        meta = rng.poisson(3.0, size=6).astype(np.float64)
        if label == Label.BOT:
            meta = meta + 2.0
        corpus.append((matrix, length, meta, label))
    return corpus


def test_state_resets_between_sequences():
    config = NetConfig(embedding_dim=5, seed=14)
    model = ContextualLstmModel.initialize(config)
    rng = np.random.Generator(np.random.PCG64(15))
    seq_a = _sequence(rng, 4, 5, max_len=6)
    seq_b = _sequence(rng, 6, 5, max_len=6)
    meta = np.zeros(6)
    first_then = [_forward(model, seq_a, meta)[0], _forward(model, seq_b, meta)[0]]
    reversed_order = [_forward(model, seq_b, meta)[0], _forward(model, seq_a, meta)[0]]
    assert first_then[0] == reversed_order[1]
    assert first_then[1] == reversed_order[0]


def test_gradients_match_finite_differences_quick():
    rng = np.random.Generator(np.random.PCG64(16))
    config = NetConfig(embedding_dim=5, hidden_dim=6, dense_sizes=(8, 7), seed=17)
    model = ContextualLstmModel.initialize(config)
    matrix, ids = embedded(rng.standard_normal((3, 5, 5)).transpose(1, 0, 2))
    lengths = np.array([5, 3, 1])
    meta = rng.standard_normal((3, 6))
    y = np.array([1.0, 0.0, 1.0])
    w_main, w_aux = config.loss_weights

    def loss_fn():
        main, aux, _, _ = model.forward_batch(matrix, ids, lengths, meta)
        return w_main * bce(main, y) + w_aux * bce(aux, y)

    main, aux, _, cache = model.forward_batch(matrix, ids, lengths, meta, keep_cache=True)
    grads = model.backward_batch(cache, main, aux, y)
    errors = check_gradients(loss_fn, model.params, grads, seed=0, coords_per_group=48)
    assert set(errors) == set(model.params)
    assert max(errors.values()) < 1e-4


def test_gradients_match_finite_differences_with_empty_rows():
    rng = np.random.Generator(np.random.PCG64(42))
    config = NetConfig(embedding_dim=4, hidden_dim=5, dense_sizes=(6, 5), seed=43)
    model = ContextualLstmModel.initialize(config)
    matrix, ids = embedded(rng.standard_normal((5, 6, 4)).transpose(1, 0, 2))
    lengths = np.array([6, 0, 3, 1, 0])
    meta = rng.standard_normal((5, 6))
    y = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    w_main, w_aux = config.loss_weights

    def loss_fn():
        main, aux, _, _ = model.forward_batch(matrix, ids, lengths, meta)
        return w_main * bce(main, y) + w_aux * bce(aux, y)

    main, aux, _, cache = model.forward_batch(matrix, ids, lengths, meta, keep_cache=True)
    grads = model.backward_batch(cache, main, aux, y)
    errors = check_gradients(loss_fn, model.params, grads, seed=1, coords_per_group=48)
    assert set(errors) == set(model.params)
    assert max(errors.values()) < 1e-4


def _mlp_params():
    return init_mlp_params(np.random.Generator(np.random.PCG64(65)), 9, (12, 7, 1))


@pytest.mark.parametrize("make_params,hyper", [
    (contextual_params, {}),
    (_mlp_params, dict(lr=3e-2, beta1=0.8, beta2=0.99, eps=1e-6)),
], ids=["contextual", "mlp"])
def test_flat_adam_equals_per_tensor_adam_bitwise(make_params, hyper):
    params, reference = make_params(), make_params()
    shapes = {name: value.shape for name, value in params.items()}
    optimizer, oracle = Adam(params, **hyper), PerTensorAdam(reference, **hyper)
    # Every tensor keeps its name, shape and bytes, as a view of one vector.
    assert list(params) == list(reference)
    assert {name: value.shape for name, value in params.items()} == shapes
    assert all(params[name].tobytes() == reference[name].tobytes() for name in params)
    flat = next(iter(params.values())).base
    assert flat is not None and flat.ndim == 1
    assert all(value.base is flat for value in params.values())
    for step, grads in enumerate(adam_gradients(params, 90, seed=66)):
        if step == 45:
            # A write through params[k], as the gradient check makes, is
            # what the next step updates.
            for tensors in (params, reference):
                tensors["b_f" if "b_f" in tensors else "b0"].reshape(-1)[1] = 0.25
        optimizer.step(grads)
        oracle.step(grads)
    for name in params:
        assert params[name].tobytes() == reference[name].tobytes(), name


def test_train_requires_both_classes():
    rng = np.random.Generator(np.random.PCG64(18))
    corpus = [(*_sequence(rng, 2, 3), np.zeros(6), Label.BOT) for _ in range(4)]
    matrix, arrays = _pack(corpus)
    with pytest.raises(DataError, match="training corpus must contain both classes"):
        train(NetConfig(embedding_dim=3, epochs=1), matrix, arrays)
    empty = (np.zeros((0, 2), dtype=np.int32), np.zeros(0), np.zeros((0, 6)), np.zeros(0))
    with pytest.raises(DataError, match="training corpus is empty"):
        train(NetConfig(embedding_dim=3, epochs=1), matrix, empty)


def test_train_refuses_a_loss_that_is_not_finite():
    # A NaN input raises no float error on its way through; the loss check
    # is what stops it.
    rng = np.random.Generator(np.random.PCG64(19))
    matrix, (ids, lengths, metadata, labels) = _pack(_toy_corpus(rng, 24))
    metadata[3, 0] = np.nan
    with pytest.raises(TrainingError, match="loss is not finite at epoch 0, step 0"):
        train(NetConfig(embedding_dim=5, epochs=1, batch_size=8), matrix,
              (ids, lengths, metadata, labels))


def test_train_deterministic_and_loss_identity():
    rng = np.random.Generator(np.random.PCG64(19))
    matrix, corpus = _pack(_toy_corpus(rng, 24))
    config = NetConfig(embedding_dim=5, epochs=3, batch_size=8, seed=20)
    model_a, trace_a = train(config, matrix, corpus)
    model_b, trace_b = train(config, matrix, corpus)
    for key in model_a.params:
        assert np.array_equal(model_a.params[key], model_b.params[key])
    assert trace_a.steps == trace_b.steps
    w_main, w_aux = config.loss_weights
    for _, _, main, aux, total in trace_a.steps:
        assert abs(total - (w_main * main + w_aux * aux)) <= 1e-12
    for record in trace_a.epochs:
        assert abs(record.total_loss -
                   (w_main * record.main_loss + w_aux * record.aux_loss)) <= 1e-12


def test_train_outputs_byte_identical_across_runs(tmp_path):
    rng = np.random.Generator(np.random.PCG64(44))
    corpus = _toy_corpus(rng, 24)
    x, _, meta, label = corpus[0]
    corpus[0] = (np.zeros_like(x), 0, meta, label)
    val = _toy_corpus(np.random.Generator(np.random.PCG64(45)), 8)
    matrix, corpus, val = _pack(corpus, val)
    config = NetConfig(embedding_dim=5, epochs=2, batch_size=8, seed=46)
    outputs = []
    for run in range(2):
        model, trace = train(config, matrix, corpus, validation=val)
        path = tmp_path / f"model_{run}.txt"
        model.save(path)
        outputs.append((path.read_bytes(), trace.to_csv_lines()))
    assert outputs[0] == outputs[1]


def test_training_reduces_loss_and_tracks_validation():
    rng = np.random.Generator(np.random.PCG64(21))
    matrix, corpus, val = _pack(_toy_corpus(rng, 40),
                                _toy_corpus(np.random.Generator(np.random.PCG64(22)), 12))
    config = NetConfig(embedding_dim=5, epochs=12, batch_size=8, seed=23)
    model, trace = train(config, matrix, corpus, validation=val)
    assert trace.epochs[-1].total_loss < trace.epochs[0].total_loss
    assert trace.epochs[-1].val_accuracy is not None
    assert trace.epochs[-1].val_auc > 0.9


def test_scores_stay_in_unit_interval():
    rng = np.random.Generator(np.random.PCG64(24))
    matrix, corpus = _pack(_toy_corpus(rng, 20))
    config = NetConfig(embedding_dim=5, epochs=2, batch_size=8, seed=25)
    model, _ = train(config, matrix, corpus)
    scores = model.predict_proba(matrix, *corpus[:3])
    assert np.all((scores > 0.0) & (scores < 1.0))


def test_contextual_with_zero_metadata_no_better_than_tweet_only():
    # With metadata identically zero it carries no information, so the
    # contextual model cannot beat the tweet-only model's achievable fit
    # (5% tolerance for optimizer noise).
    rng = np.random.Generator(np.random.PCG64(26))
    matrix, corpus = _pack([(x, length, np.zeros(6), label)
                            for x, length, _, label in _toy_corpus(rng, 40)])
    ctx_config = NetConfig(embedding_dim=5, epochs=10, batch_size=8, seed=27)
    tweet_config = NetConfig(embedding_dim=5, epochs=10, batch_size=8, seed=27,
                             **NET_CONFIGS["lstm"])
    _, ctx_trace = train(ctx_config, matrix, corpus)
    _, tweet_trace = train(tweet_config, matrix, corpus)
    ctx_main = ctx_trace.epochs[-1].main_loss
    tweet_main = tweet_trace.epochs[-1].main_loss
    assert ctx_main >= tweet_main - 0.05 * tweet_main


def test_save_load_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(28))
    matrix, corpus = _pack(_toy_corpus(rng, 16))
    for variant in NET_CONFIGS.values():
        config = NetConfig(embedding_dim=5, epochs=2, batch_size=8, seed=29, **variant)
        model, _ = train(config, matrix, corpus)
        path = tmp_path / f"net_{config.use_metadata}.txt"
        model.save(path, {"pipeline_hash": "abc123"})
        loaded = ContextualLstmModel.load(*load_model(path))
        assert loaded.config == model.config
        assert np.array_equal(
            model.predict_proba(matrix, *corpus[:3]), loaded.predict_proba(matrix, *corpus[:3])
        )


@pytest.mark.parametrize("key,value,tensor", [
    # The shapes come from the meta; no parameter is allocated from it.
    ("hidden_dim", "1000000000", "W_i"),
    ("embedding_dim", "4", "W_i"),
    ("dense_sizes", "4,3", "dense2.W"),
    ("use_metadata", "0", "dense1.W"),
    ("meta_standardizer.mean", np.zeros(5), "meta_standardizer.mean"),
    ("main.W", np.zeros((1, 63)), "main.W"),
])
def test_load_refuses_tensors_whose_shape_the_meta_does_not_give(tmp_path, key, value, tensor):
    config = NetConfig(embedding_dim=3, hidden_dim=2, dense_sizes=(4, 64))
    model = ContextualLstmModel.initialize(config)
    model.save(tmp_path / "net.txt")
    meta, arrays = load_model(tmp_path / "net.txt")
    ContextualLstmModel.load(meta, arrays)
    (arrays if isinstance(value, np.ndarray) else meta)[key] = value
    with pytest.raises(DataError, match=f"tensor '{tensor}' has shape"):
        ContextualLstmModel.load(meta, arrays)


def test_a_net_holds_a_metadata_standardizer_exactly_when_it_reads_metadata(tmp_path):
    # A fresh contextual net holds the identity, which changes no bit.
    contextual = ContextualLstmModel.initialize(NetConfig(embedding_dim=3, hidden_dim=2))
    x = np.random.Generator(np.random.PCG64(44)).standard_normal((5, 6)) * 1e3
    x[0, 0] = -0.0
    assert contextual.metadata_standardizer.transform(x).tobytes() == x.tobytes()
    tweet_only = ContextualLstmModel.initialize(
        NetConfig(embedding_dim=3, hidden_dim=2, **NET_CONFIGS["lstm"]))
    assert tweet_only.metadata_standardizer is None
    for model, expected in ((contextual, True), (tweet_only, False)):
        model.save(tmp_path / "net.txt")
        meta, arrays = load_model(tmp_path / "net.txt")
        assert sorted(name for name in arrays if name.startswith("meta_")) == \
            (["meta_standardizer.mean", "meta_standardizer.std"] if expected else [])
        loaded = ContextualLstmModel.load(meta, arrays)
        assert (loaded.metadata_standardizer is not None) is expected


@pytest.mark.parametrize("tensor", ["W_c", "aux.b", "dense2.W"])
def test_load_refuses_an_infinite_weight(tmp_path, tensor):
    model = ContextualLstmModel.initialize(NetConfig(embedding_dim=3, hidden_dim=2))
    model.save(tmp_path / "net.txt")
    meta, arrays = load_model(tmp_path / "net.txt")
    arrays[tensor] = np.full_like(arrays[tensor], -np.inf)
    with pytest.raises(DataError, match=f"tensor '{tensor}' is not finite"):
        ContextualLstmModel.load(meta, arrays)


def test_trace_csv_has_step_and_epoch_rows():
    rng = np.random.Generator(np.random.PCG64(30))
    matrix, corpus = _pack(_toy_corpus(rng, 16))
    config = NetConfig(embedding_dim=5, epochs=2, batch_size=8, seed=31)
    _, trace = train(config, matrix, corpus)
    lines = trace.to_csv_lines()
    assert lines[0].startswith("record,epoch,step")
    assert any(line.startswith("step,0,0,") for line in lines)
    assert any(line.startswith("epoch,1,") for line in lines)


def test_predict_proba_on_ids_equals_forward_batch_on_floats():
    # Scoring gathers rows from the table; the scores must be the bits the
    # same forward pass gives on the gathered floats, empty and all-unknown
    # tweets included.
    table = fixture_table(["alpha", "beta", "gamma", "<number>"], 5, seed=47)
    pipeline = TweetPipeline(table, max_len=6)
    meta = (1, 0, 2, 0, 0, 0)
    texts = ["alpha beta 42", "", "foo bar baz", "gamma " * 9, "beta nope alpha"]
    tweets = [TweetRecord(text=t, metadata=meta, label=Label.HUMAN, account_id="a")
              for t in texts]
    ids, lengths, metadata = pipeline.tensors(tweets)
    assert lengths.tolist() == [3, 0, 3, 6, 3]
    assert np.all(ids[2, :3] == table.unknown_id)
    for variant in NET_CONFIGS.values():
        model = ContextualLstmModel.initialize(NetConfig(embedding_dim=5, seed=48, **variant))
        model.metadata_standardizer = Standardizer(mean=np.full(6, 0.5), std=np.full(6, 2.0))
        scores = model.predict_proba(table.matrix, ids, lengths, metadata)
        x = np.stack([[table.matrix[i] for i in row] for row in ids], axis=1)
        expected, _, _, _ = model.forward_batch(*embedded(x), lengths, metadata)
        assert np.array_equal(scores, expected)
