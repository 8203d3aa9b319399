import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdetect.data import Label, TweetRecord
from botdetect.embedding import (
    TweetPipeline,
    embed,
    fixture_table,
    load_glove,
    most_frequent_tokens,
    truncate,
    write_glove_file,
)
from botdetect.errors import DataError

from oracles import per_element_glove_file, per_tweet_tensors

FIXTURE = "alpha 1.0 0.0\nbeta 0.0 1.0\ngamma 2.0 3.0\n"


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(FIXTURE, encoding="utf-8")
    return load_glove(path, 2)


def test_load_fixture(table):
    assert table.dimension == 2
    assert len(table.vocabulary) == 3
    assert table.matrix[table.vocabulary["alpha"]].tolist() == [1.0, 0.0]


def test_unknown_vector_is_mean(table):
    assert table.matrix[table.unknown_id].tolist() == [1.0, 4.0 / 3.0]
    assert table.matrix[table.pad_id].tolist() == [0.0, 0.0]


def test_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha 1.0 0.0\nbeta 0.5 0.5 0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: expected 3 fields, got 4")):
        load_glove(path, 2)


def test_file_without_vectors_is_a_data_error(tmp_path):
    path = tmp_path / "glove.txt"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(DataError, match="glove.txt: no embedding vector loaded"):
        load_glove(path, 2)
    path.write_text("alpha 1.0 0.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="glove.txt: no embedding vector loaded"):
        load_glove(path, 2, restrict_to={"beta"})


def test_parse_error_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha 1.0 0.0\nbeta 0.5 oops\n", encoding="utf-8")
    with pytest.raises(DataError,
                       match=re.escape(f"{path}:2: could not convert string to float: 'oops'")):
        load_glove(path, 2)


def test_unknown_vector_that_overflows_is_refused(tmp_path):
    # Every vector is finite; their mean is not. Outside the command line's
    # float_errors the overflow passes silently and the table's check refuses it.
    path = tmp_path / "vectors.txt"
    path.write_text("alpha 1e308 0.0\nbeta 1e308 1.0\n", encoding="utf-8")
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite entries"):
        load_glove(path, 2)


def test_duplicates_keep_first(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("tok 1.0 1.0\ntok 9.0 9.0\n", encoding="utf-8")
    table = load_glove(path, 2)
    assert table.matrix[table.vocabulary["tok"]].tolist() == [1.0, 1.0]


def test_restricted_load(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(FIXTURE, encoding="utf-8")
    table = load_glove(path, 2, restrict_to={"alpha", "gamma"})
    assert set(table.vocabulary) == {"alpha", "gamma"}
    assert table.matrix[table.unknown_id].tolist() == [1.5, 1.5]


def _embed_one(tokens, table, max_len, truncation="tail"):
    """One sequence's row ids, cut by `truncate` as the pipeline cuts it."""
    ids, _ = embed([truncate(tokens, max_len, truncation)], table, max_len)
    return ids[0]


def test_embed_empty(table):
    ids = _embed_one([], table, max_len=4)
    assert ids.dtype == np.int32 and ids.shape == (4,)
    assert np.all(ids == table.pad_id)
    assert np.all(table.matrix[ids] == 0.0)


def test_embed_single_token_pads(table):
    ids = _embed_one(["alpha"], table, max_len=3)
    assert np.count_nonzero(ids != table.pad_id) == 1
    assert table.matrix[ids][0].tolist() == [1.0, 0.0]
    assert np.all(table.matrix[ids][1:] == 0.0)


def test_embed_truncates_tail(table):
    tokens = ["alpha"] * 25 + ["beta"] * 15
    seq = table.matrix[_embed_one(tokens, table, max_len=30)]
    assert seq[29].tolist() == [1.0, 0.0][:2] or seq[29].tolist() == [0.0, 1.0]
    # tail truncation keeps the head: rows 0..24 alpha, 25..29 beta
    assert seq[0].tolist() == [1.0, 0.0]
    assert seq[25].tolist() == [0.0, 1.0]
    head = table.matrix[_embed_one(tokens, table, max_len=30, truncation="head")]
    assert head[0].tolist() == [0.0, 1.0] or head[0].tolist() == [1.0, 0.0]
    assert head[29].tolist() == [0.0, 1.0]


def test_embed_oov_rows_equal_unknown(table):
    seq = table.matrix[_embed_one(["nope", "alpha", "missing"], table, max_len=4)]
    assert np.array_equal(seq[0], table.matrix[table.unknown_id])
    assert np.array_equal(seq[2], table.matrix[table.unknown_id])
    assert np.array_equal(seq[1], table.matrix[table.vocabulary["alpha"]])


@given(st.lists(st.sampled_from(["alpha", "beta", "zzz"]), max_size=40),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_true_length_exact(tokens, max_len):
    table = fixture_table(["alpha", "beta"], 4, seed=0)
    ids = _embed_one(tokens, table, max_len=max_len)
    true_length = min(len(tokens), max_len)
    assert np.all(ids[:true_length] != table.pad_id)
    assert np.all(table.matrix[ids][true_length:] == 0.0)


def test_table_rows_are_one_matrix(table):
    # The vocabulary, unknown and pad rows live in one read-only matrix.
    assert table.matrix.shape == (len(table.vocabulary) + 2, table.dimension)
    assert not table.matrix.flags.writeable
    assert table.unknown_id == 3 and table.pad_id == 4


def _tweet(text):
    return TweetRecord(text=text, metadata=(1, 0, 2, 0, 0, 0),
                       label=Label.HUMAN, account_id="a")


def test_tensors_are_ids_lengths_and_metadata(table):
    tweets = [_tweet("alpha nope beta"), _tweet(""), _tweet("gamma " * 40)]
    ids, lengths, metadata = TweetPipeline(table, max_len=30).tensors(tweets)
    assert ids.dtype == np.int32 and ids.shape == (3, 30)
    assert lengths.tolist() == [3, 0, 30]
    assert metadata.shape == (3, 6)
    assert ids[0, :3].tolist() == [0, table.unknown_id, 1]
    assert np.all(ids[0, 3:] == table.pad_id) and np.all(ids[1] == table.pad_id)


PACKING_TEXTS = (
    "",  # tokenizes to nothing
    "alpha beta gamma alpha",  # exactly max_len tokens
    "alpha beta gamma nope beta alpha",  # longer than max_len
    "nope missing unseen",  # all out of vocabulary
    "alpha!!! beta?? gamma",  # <repeat> tags when repeat_tag is on
)


@pytest.mark.parametrize("truncation", ["tail", "head"])
@pytest.mark.parametrize("repeat_tag", [False, True])
def test_tensors_equal_per_tweet_reference(table, truncation, repeat_tag):
    pipeline = TweetPipeline(table, max_len=4, truncation=truncation, repeat_tag=repeat_tag)
    tweets = [_tweet(text) for text in PACKING_TEXTS]
    ids, lengths, metadata = pipeline.tensors(tweets)
    ref_ids, ref_lengths, ref_metadata = per_tweet_tensors(pipeline, tweets)
    assert ids.dtype == np.int32 and lengths.dtype == np.int64
    assert ids.tobytes() == ref_ids.tobytes() and ids.shape == ref_ids.shape
    assert lengths.tobytes() == ref_lengths.tobytes()
    assert metadata.tobytes() == ref_metadata.tobytes()
    assert lengths.tolist()[:4] == [0, 4, 4, 3]
    assert ids[3, :3].tolist() == [table.unknown_id] * 3
    # The single-tweet path reads each tweet exactly as the batch does.
    for i, tweet in enumerate(tweets):
        tokens, row = pipeline.embed_tweet(tweet)
        assert len(tokens) == lengths[i]
        assert row.dtype == np.int32 and row.tobytes() == ids[i].tobytes()


def test_tensors_of_no_tweets(table):
    ids, lengths, metadata = TweetPipeline(table, max_len=4).tensors([])
    ref_ids, ref_lengths, ref_metadata = per_tweet_tensors(TweetPipeline(table, max_len=4), [])
    assert ids.dtype == np.int32 and ids.shape == ref_ids.shape == (0, 4)
    assert lengths.dtype == np.int64 and lengths.shape == ref_lengths.shape == (0,)
    assert metadata.shape == ref_metadata.shape


def test_tensors_allocate_far_less_than_float_sequences():
    # The pipeline carries int32 ids, not a float64 (N, max_len, d) array.
    words = [f"w{i}" for i in range(200)]
    table = fixture_table(words, 50, seed=0)
    pipeline = TweetPipeline(table, max_len=30)
    tweets = [_tweet(" ".join(words[(7 * i + j) % 200] for j in range(30)))
              for i in range(2000)]
    pipeline.tensors(tweets[:10])  # warm the tokenizer's regexes
    tracemalloc.start()
    try:
        ids, _, _ = pipeline.tensors(tweets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    float_bytes = len(tweets) * 30 * 50 * 8
    assert ids.shape == (2000, 30)
    assert peak < float_bytes / 10, f"peak {peak} bytes against {float_bytes}"


def test_most_frequent_tokens():
    seqs = [["a", "b", "a"], ["b", "a", "c"], ["c"]]
    assert most_frequent_tokens(seqs, 2) == {"a", "b"}
    # ties resolve alphabetically: b and c both occur twice
    assert most_frequent_tokens(seqs, 2) == {"a", "b"}


def test_fixture_table_round_trips_through_file(tmp_path):
    table = fixture_table(["tok1", "tok2", "<hashtag>"], 25, seed=9)
    path = tmp_path / "fixture.txt"
    write_glove_file(table, path)
    loaded = load_glove(path, 25)
    assert loaded.vocabulary == table.vocabulary
    assert np.array_equal(loaded.matrix, table.matrix)
    assert TweetPipeline(loaded, 30).fingerprint() == TweetPipeline(table, 30).fingerprint()
    assert TweetPipeline(loaded, 20).fingerprint() != TweetPipeline(table, 30).fingerprint()


def test_glove_file_bytes_equal_the_per_element_writer(tmp_path):
    table = fixture_table([f"tok{i}" for i in range(40)] + ["<hashtag>"], 25, seed=9)
    matrix = table.matrix.copy()
    matrix[0, :7] = (-0.0, 5e-324, -2.5e-310, 1e300, 0.1, 123456789.0, 1 / 3)
    table = table._replace(matrix=matrix)
    write_glove_file(table, tmp_path / "rows.txt")
    per_element_glove_file(table, tmp_path / "elements.txt")
    assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "elements.txt").read_bytes()
