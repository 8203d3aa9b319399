import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdetect.embedding import (
    EmbeddedSequence,
    TweetPipeline,
    embed,
    fixture_table,
    load_glove,
    most_frequent_tokens,
    write_glove_file,
)
from botdetect.errors import DimensionMismatch, ParseError

FIXTURE = "alpha 1.0 0.0\nbeta 0.0 1.0\ngamma 2.0 3.0\n"


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(FIXTURE, encoding="utf-8")
    return load_glove(path, 2)


def test_load_fixture(table):
    assert table.dimension == 2
    assert len(table.vocabulary) == 3
    assert table.lookup("alpha").tolist() == [1.0, 0.0]


def test_unknown_vector_is_mean(table):
    assert table.unknown_vector.tolist() == [1.0, 4.0 / 3.0]
    assert table.pad_vector.tolist() == [0.0, 0.0]


def test_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha 1.0 0.0\nbeta 0.5 0.5 0.5\n", encoding="utf-8")
    with pytest.raises(DimensionMismatch, match="line 2"):
        load_glove(path, 2)


def test_parse_error_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha 1.0 0.0\nbeta 0.5 oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_glove(path, 2)


def test_duplicates_keep_first(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("tok 1.0 1.0\ntok 9.0 9.0\n", encoding="utf-8")
    table = load_glove(path, 2)
    assert table.lookup("tok").tolist() == [1.0, 1.0]


def test_restricted_load(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(FIXTURE, encoding="utf-8")
    table = load_glove(path, 2, restrict_to={"alpha", "gamma"})
    assert set(table.vocabulary) == {"alpha", "gamma"}
    assert table.unknown_vector.tolist() == [1.5, 1.5]


def test_embed_empty(table):
    seq = embed([], table, max_len=4)
    assert seq.true_length == 0
    assert np.all(seq.matrix == 0.0)


def test_embed_single_token_pads(table):
    seq = embed(["alpha"], table, max_len=3)
    assert seq.true_length == 1
    assert seq.matrix[0].tolist() == [1.0, 0.0]
    assert np.all(seq.matrix[1:] == 0.0)


def test_embed_truncates_tail(table):
    tokens = ["alpha"] * 25 + ["beta"] * 15
    seq = embed(tokens, table, max_len=30)
    assert seq.true_length == 30
    assert seq.matrix[29].tolist() == [1.0, 0.0][:2] or seq.matrix[29].tolist() == [0.0, 1.0]
    # tail truncation keeps the head: rows 0..24 alpha, 25..29 beta
    assert seq.matrix[0].tolist() == [1.0, 0.0]
    assert seq.matrix[25].tolist() == [0.0, 1.0]
    head = embed(tokens, table, max_len=30, truncation="head")
    assert head.matrix[0].tolist() == [0.0, 1.0] or head.matrix[0].tolist() == [1.0, 0.0]
    assert head.matrix[29].tolist() == [0.0, 1.0]


def test_embed_oov_rows_equal_unknown(table):
    seq = embed(["nope", "alpha", "missing"], table, max_len=4)
    assert np.array_equal(seq.matrix[0], table.unknown_vector)
    assert np.array_equal(seq.matrix[2], table.unknown_vector)
    assert np.array_equal(seq.matrix[1], table.vectors[table.vocabulary["alpha"]])


@given(st.lists(st.sampled_from(["alpha", "beta", "zzz"]), max_size=40),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_true_length_exact(tokens, max_len):
    table = fixture_table(["alpha", "beta"], 4, seed=0)
    seq = embed(tokens, table, max_len=max_len)
    assert seq.true_length == min(len(tokens), max_len)
    assert np.all(seq.matrix[seq.true_length:] == 0.0)


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
    assert np.array_equal(loaded.vectors, table.vectors)
    assert TweetPipeline(loaded, 30).fingerprint() == TweetPipeline(table, 30).fingerprint()
    assert TweetPipeline(loaded, 20).fingerprint() != TweetPipeline(table, 30).fingerprint()


def test_embedded_sequence_validation():
    with pytest.raises(ValueError):
        EmbeddedSequence(matrix=np.zeros((3, 2)), true_length=4)
