import numpy as np
import pytest

from botdetect.data import Label, TweetRecord
from botdetect.embedding import TweetPipeline, embed, fixture_table, truncate
from botdetect.errors import DataError
from botdetect.introspect import (
    ActivationTrace,
    cell_trace_csv_lines,
    distribution_csv_lines,
    ks_csv_lines,
    ks_statistic,
    trace_csv_lines,
    trace_tweet,
    unit_distributions,
)
from botdetect.nnet.model import ContextualLstmModel, NetConfig, train
from botdetect.tokenizer import tokenize

from oracles import scalar_lstm_cells, scalar_lstm_final

META = (1, 0, 2, 0, 0, 0)


def _tweet(text, label=Label.HUMAN):
    return TweetRecord(text=text, metadata=META, label=label, account_id="a")


def _ids(text, table):
    """A tweet's row ids at max_len 30 and its true length."""
    tokens = tokenize(text)
    ids, lengths = embed([truncate(tokens, 30)], table, max_len=30)
    return ids[0], int(lengths[0])


@pytest.fixture(scope="module")
def table():
    vocab = {"alpha", "beta", "gamma", "delta", "echo", "<hashtag>", "<number>"}
    return fixture_table(vocab, 5, seed=1)


@pytest.fixture(scope="module")
def model():
    config = NetConfig(embedding_dim=5, hidden_dim=8, dense_sizes=(6, 4), seed=2)
    return ContextualLstmModel.initialize(config)


def test_empty_tweet_flagged(model, table):
    trace = trace_tweet(model, TweetPipeline(table), _tweet(""))
    assert trace.empty
    assert trace.matrix.shape == trace.cells.shape == (0, 8)
    assert trace.tokens == ()


def test_single_token_trace_equals_final_state(model, table):
    tweet = _tweet("alpha")
    trace = trace_tweet(model, TweetPipeline(table), tweet)
    assert trace.matrix.shape == (1, 8)
    ids, length = _ids(tweet.text, table)
    main, aux, hidden, _ = model.forward(table.matrix, ids, length,
                                         np.array(tweet.metadata, dtype=np.float64))
    assert np.array_equal(trace.matrix[0], hidden[-1])


def test_trace_matches_naive_recurrence(model, table):
    tweet = _tweet("alpha beta gamma delta echo")
    trace = trace_tweet(model, TweetPipeline(table), tweet)
    ids, length = _ids(tweet.text, table)
    _, ref_all = scalar_lstm_final(model.params, table.matrix[ids], length)
    assert trace.matrix.shape == ref_all.shape == (5, 8)
    assert np.allclose(trace.matrix, ref_all, atol=1e-12)


def test_trace_values_bounded(model, table):
    trace = trace_tweet(model, TweetPipeline(table), _tweet("alpha beta 42 #gamma"))
    assert np.all(np.abs(trace.matrix) <= 1.0)


def test_trace_aligns_tokens(model, table):
    trace = trace_tweet(model, TweetPipeline(table), _tweet("alpha 42 #beta"))
    assert trace.tokens == ("alpha", "<number>", "<hashtag>", "beta")
    assert trace.matrix.shape[0] == 4


def test_trace_rows_match_forward_bitwise(model, table):
    tweet = _tweet("beta alpha gamma")
    trace = trace_tweet(model, TweetPipeline(table), tweet)
    ids, length = _ids(tweet.text, table)
    _, _, hidden, cells = model.forward(table.matrix, ids, length,
                                        np.array(tweet.metadata, dtype=np.float64))
    assert np.array_equal(trace.matrix, hidden)
    assert np.array_equal(trace.cells, cells)


def test_ks_statistic_basics():
    same = np.array([0.1, 0.2, 0.3, 0.4])
    assert ks_statistic(same, same) == 0.0
    assert ks_statistic(np.zeros(50), np.ones(50)) == 1.0
    assert 0.0 < ks_statistic(np.linspace(0, 1, 50), np.linspace(0.3, 1.3, 50)) < 1.0


def test_unit_distributions_require_both_classes(model, table):
    with pytest.raises(DataError, match="unit distributions need tweets from both classes"):
        unit_distributions(model, TweetPipeline(table), [_tweet("alpha")])


def test_zero_model_concentrates_mass_at_zero(table):
    config = NetConfig(embedding_dim=5, hidden_dim=8, dense_sizes=(6, 4))
    zero = ContextualLstmModel.initialize(config)
    for key in zero.params:
        zero.params[key] = np.zeros_like(zero.params[key])
    tweets = [_tweet("alpha beta"), _tweet("gamma", Label.BOT)]
    report = unit_distributions(zero, TweetPipeline(table), tweets, bins=50)
    assert np.all(report.ks_by_unit == 0.0)
    zero_bin = 25  # [-1, 1] in 50 bins: bin 25 covers [0, 0.04)
    for dist in report.distributions:
        assert dist.counts.sum() == 1
        assert dist.counts[zero_bin] == 1


def test_histogram_mass_conservation(model, table):
    tweets = [_tweet("alpha beta"), _tweet("beta gamma"), _tweet("echo", Label.BOT),
              _tweet("delta echo alpha", Label.BOT), _tweet("gamma", Label.BOT)]
    report = unit_distributions(model, TweetPipeline(table), tweets)
    for dist in report.distributions:
        expected = 2 if dist.label == Label.HUMAN else 3
        assert dist.counts.sum() == expected
    assert len(report.distributions) == 2 * model.config.hidden_dim


def test_trained_model_separates_units():
    # At separation 1 the classes are disjoint; after a short training run at
    # least one hidden unit's activation distributions should split strongly.
    from botdetect.ingest import SyntheticCorpusSpec, generate_synthetic

    spec = SyntheticCorpusSpec(30, 4, seed=8, separation=1.0)
    _, tweets = generate_synthetic(spec)
    vocab = set()
    for tweet in tweets:
        vocab.update(tokenize(tweet.text))
    table = fixture_table(vocab, 25, seed=3)
    ids, lengths, metadata = TweetPipeline(table).tensors(tweets)
    labels = np.array([t.label for t in tweets])
    config = NetConfig(embedding_dim=25, epochs=6, batch_size=32, seed=9)
    model, _ = train(config, table.matrix, (ids, lengths, metadata, labels))
    report = unit_distributions(model, TweetPipeline(table), tweets)
    assert report.ks_by_unit.max() >= 0.5
    assert report.ranking[0] == int(np.argmax(report.ks_by_unit))


def test_csv_exports(model, table):
    tweets = [_tweet("alpha beta"), _tweet("gamma", Label.BOT)]
    trace = trace_tweet(model, TweetPipeline(table), tweets[0])
    lines = trace_csv_lines(trace)
    assert lines[0] == "unit,t0,t1"
    assert lines[1] == "token,alpha,beta"
    assert len(lines) == 2 + 8
    report = unit_distributions(model, TweetPipeline(table), tweets)
    dist_lines = distribution_csv_lines(report)
    assert dist_lines[0] == "unit,class,bin_low,bin_high,count"
    assert len(dist_lines) == 1 + 2 * 8 * 50
    ks_lines = ks_csv_lines(report)
    assert len(ks_lines) == 1 + 8


def test_cell_state_export(model, table):
    tweet = _tweet("alpha beta gamma")
    trace = trace_tweet(model, TweetPipeline(table), tweet)
    assert trace.cells.shape == (3, 8)
    lines = cell_trace_csv_lines(trace)
    assert lines[1] == "token,alpha,beta,gamma"
    # cell states are the pre-output-gate memory; first row c_1 = i_1 * g_1
    assert not np.array_equal(trace.cells, trace.matrix)


def test_activation_trace_validation():
    with pytest.raises(ValueError):
        ActivationTrace(matrix=np.zeros((2, 4)), cells=np.zeros((2, 4)), tokens=("a",),
                        empty=False)
    with pytest.raises(ValueError):
        ActivationTrace(matrix=np.zeros((1, 4)), cells=np.zeros((2, 4)), tokens=("a",),
                        empty=False)


def test_cell_states_match_scalar_oracle(model, table):
    for text in ("alpha beta gamma delta echo", "beta", ""):
        ids, length = _ids(text, table)
        states = trace_tweet(model, TweetPipeline(table), _tweet(text)).cells
        ref = scalar_lstm_cells(model.params, table.matrix[ids], length)
        assert states.shape == ref.shape == (length, 8)
        assert np.allclose(states, ref, rtol=0.0, atol=1e-12)


def test_distributions_use_batched_final_states(model, table):
    # An empty tweet keeps a zero final state; every other final state equals
    # the single-tweet forward pass's last row.
    tweets = [_tweet("alpha beta"), _tweet(""), _tweet("echo delta gamma", Label.BOT),
              _tweet("beta 42", Label.BOT)]
    report = unit_distributions(model, TweetPipeline(table), tweets)
    finals = {Label.HUMAN: [], Label.BOT: []}
    for tweet in tweets:
        ids, length = _ids(tweet.text, table)
        _, _, hidden, _ = model.forward(table.matrix, ids, length,
                                        np.array(tweet.metadata, dtype=np.float64))
        finals[tweet.label].append(hidden[-1] if hidden.shape[0] else np.zeros(8))
    for dist in report.distributions:
        values = np.array(finals[dist.label])[:, dist.unit_index]
        assert dist.counts.sum() == 2
        counts, _ = np.histogram(values, bins=report.bin_edges)
        assert np.array_equal(dist.counts, counts)
