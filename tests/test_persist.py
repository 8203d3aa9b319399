import re

import numpy as np
import pytest

from botdetect import baselines
from botdetect.baselines import BaselineConfig
from botdetect.cli import NET_CONFIGS
from botdetect.data import FeatureMatrix
from botdetect.embedding import TweetPipeline, fixture_table
from botdetect.errors import DataError
from botdetect.nnet.model import ContextualLstmModel, NetConfig
from botdetect.persist import Entries, load_model, save_model


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    arrays = {
        "matrix": rng.standard_normal((3, 4)),
        "vector": rng.standard_normal(5),
        "scalarish": np.array([1e-300, -0.0, 3.141592653589793]),
    }
    meta = {"kind": "test", "note": "hello world", "count": 7}
    path = tmp_path / "model.txt"
    save_model(path, meta, arrays)
    loaded_meta, loaded = load_model(path)
    assert loaded_meta == {"kind": "test", "note": "hello world", "count": "7"}
    for name, arr in arrays.items():
        assert np.array_equal(loaded[name], np.asarray(arr, dtype=np.float64))


def test_tensor_lines_are_pinned_for_every_rank(tmp_path):
    # A 2-D tensor is one line per row (none for zero rows, empty lines for
    # zero columns); every other rank is one line of repr-formatted floats.
    arrays = {
        "scalar": np.array(-0.0),
        "vector": np.array([0.1, -2.5, 1e-300, 3.0]),
        "no_rows": np.zeros((0, 5)),
        "empty_rows": np.zeros((3, 0)),
        "matrix": np.array([[1 / 3, 2.0], [np.inf, -7.25]]),
    }
    path = tmp_path / "model.txt"
    save_model(path, {"kind": "test"}, arrays)
    assert path.read_text(encoding="utf-8") == (
        "botdetect-model v1\n"
        "meta kind = test\n"
        "tensor scalar 0\n-0.0\n"
        "tensor vector 1 4\n0.1 -2.5 1e-300 3.0\n"
        "tensor no_rows 2 0 5\n"
        "tensor empty_rows 2 3 0\n\n\n\n"
        "tensor matrix 2 2 2\n0.3333333333333333 2.0\ninf -7.25\n"
        "end\n"
    )
    _, loaded = load_model(path)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_identical_models_serialize_identically(tmp_path):
    arrays = {"w": np.linspace(-1, 1, 7)}
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_model(a, {"k": "v"}, arrays)
    save_model(b, {"k": "v"}, {"w": arrays["w"].copy()})
    assert a.read_bytes() == b.read_bytes()


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"junk\.txt: not a '.+' file"):
        load_model(path)


def test_rejects_truncated_file(tmp_path):
    path = tmp_path / "model.txt"
    save_model(path, {}, {"w": np.ones(3)})
    content = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(content[:-1]) + "\n", encoding="utf-8")  # drop "end"
    with pytest.raises(DataError, match=r"model\.txt: missing end marker"):
        load_model(path)


def test_rejects_newline_in_meta(tmp_path):
    with pytest.raises(ValueError):
        save_model(tmp_path / "x.txt", {"bad": "a\nb"}, {})


def _meta_lines(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith("meta ")]


NET_META = [
    "meta embedding_dim = 3", "meta hidden_dim = 2", "meta dense_sizes = 4,2",
]
NET_TAIL = [
    "meta learning_rate = 0.002", "meta beta1 = 0.9", "meta beta2 = 0.999",
    "meta adam_eps = 1e-08", "meta batch_size = 64", "meta epochs = 3", "meta seed = 5",
    "meta config_hash = 00000000",
    "meta pipeline_hash = 5c365d488ad5e538f1a0bff674d8f26713defacd1c5b41440c99e0597a4509c1",
    "meta max_len = 12", "meta truncation = head", "meta repeat_tag = 1",
]
# Meta lines as checkpoints wrote them before the config parser and the tweet
# pipeline were shared; checkpoints written since must keep these bytes.
PINNED_META = {
    "contextual_lstm": ["meta kind = contextual_lstm", *NET_META, "meta use_metadata = 1",
                        "meta use_aux = 1", "meta loss_weight_main = 0.8",
                        "meta loss_weight_aux = 0.2", *NET_TAIL],
    "tweet_lstm": ["meta kind = tweet_lstm", *NET_META, "meta use_metadata = 0",
                   "meta use_aux = 0", "meta loss_weight_main = 1.0",
                   "meta loss_weight_aux = 0.0", *NET_TAIL],
    "forest": ["meta kind = forest", "meta schema = a,b", "meta config.seed = 2",
               "meta config.n_trees = 2", "meta config.max_depth = 0",
               "meta config.min_leaf = 1", "meta config_hash = 00000000"],
    "mlp": ["meta kind = mlp", "meta schema = a,b", "meta config.seed = 2",
            "meta config.mlp_layers = 3,1", "meta config.mlp_lr = 0.001",
            "meta config.mlp_beta1 = 0.9", "meta config.mlp_beta2 = 0.999",
            "meta config.mlp_eps = 1e-08", "meta config.mlp_batch = 64",
            "meta config.mlp_epochs = 1", "meta config_hash = 00000000"],
}


@pytest.mark.parametrize("kind", sorted(PINNED_META))
def test_checkpoint_meta_lines_are_pinned(tmp_path, kind):
    path = tmp_path / "model.txt"
    extra = {"config_hash": "0" * 8}
    if kind in ("contextual_lstm", "tweet_lstm"):
        variant = NET_CONFIGS["contextual" if kind == "contextual_lstm" else "lstm"]
        config = NetConfig(embedding_dim=3, hidden_dim=2, dense_sizes=(4, 2), epochs=3, seed=5,
                           learning_rate=0.002, **variant)
        table = fixture_table(["alpha", "beta", "<hashtag>"], 3, seed=0)
        extra.update(TweetPipeline(table, 12, "head", True).meta())
        ContextualLstmModel.initialize(config).save(path, extra)
        loaded = ContextualLstmModel.load(*load_model(path))
        assert loaded.config == config
    else:
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.standard_normal((20, 2))
        matrix = FeatureMatrix(x, ("a", "b"), (x[:, 0] > 0).astype(np.int8))
        config = BaselineConfig(seed=2, n_trees=2, mlp_layers=(3, 1), mlp_epochs=1)
        baselines.save_baseline(baselines.fit(kind, matrix, config), path, extra)
        assert baselines.load_baseline(*load_model(path)).kind == kind
    assert _meta_lines(path) == PINNED_META[kind]


def test_malformed_tensor_header_is_a_parse_error(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("botdetect-model v1\ntensor w 1 three\n1 2 3\nend\n", encoding="utf-8")
    with pytest.raises(DataError,
                       match="model.txt:2: bad tensor: invalid literal for int"):
        load_model(path)


@pytest.mark.parametrize("body", [
    "tensor w 2 2 2\n1 2\n3\nend\n",  # ragged rows
    "tensor w 2 3 2\n1 2\n3 4\nend\n",  # a row short
    "tensor w 1 3\n1 2\nend\n",  # a value short
    "tensor w 1 2\n1 x\nend\n",  # not a float
    "tensor w 2 2 2\n1 2\n",  # the file ends inside the body
    "tensor w 1 2\n",
])
def test_malformed_tensor_body_is_a_parse_error(tmp_path, body):
    path = tmp_path / "model.txt"
    path.write_text("botdetect-model v1\n" + body, encoding="utf-8")
    with pytest.raises(DataError, match="model.txt:2: bad tensor"):
        load_model(path)


@pytest.mark.parametrize("body", ["tensor w 1 2\n1 nan\n", "tensor w 2 2 1\n0\n-nan\n"])
def test_nan_in_a_tensor_is_a_parse_error(tmp_path, body):
    # No fit writes a NaN weight; infinities are left to each kind's checks.
    path = tmp_path / "model.txt"
    path.write_text("botdetect-model v1\n" + body + "end\n", encoding="utf-8")
    with pytest.raises(DataError, match="model.txt:2: tensor 'w' holds NaN"):
        load_model(path)
    path.write_text("botdetect-model v1\ntensor w 1 2\n-inf inf\nend\n", encoding="utf-8")
    assert np.array_equal(load_model(path)[1]["w"], [-np.inf, np.inf])


@pytest.mark.parametrize("value,message", [
    (np.array([1.0, np.nan]), "tensor 'w' is not finite"),
    (np.array([np.inf, 1.0]), "tensor 'w' is not finite"),
    (np.array([1.0, -np.inf]), "tensor 'w' is not finite"),
    (np.zeros(3), "tensor 'w' has shape (3,), expected (2,)"),
], ids=["nan", "inf", "minus-inf", "shape"])
def test_shaped_refuses_what_no_fit_writes(value, message):
    arrays = Entries("model.txt", "tensor")
    arrays["w"] = np.array([1.0, 2.0])
    assert arrays.shaped("w", (2,)) is arrays["w"]
    arrays["w"] = value
    with pytest.raises(DataError, match=re.escape(f"model.txt: {message}")):
        arrays.shaped("w", (2,))


def test_missing_meta_key_is_a_parse_error(tmp_path):
    path = tmp_path / "model.txt"
    save_model(path, {"schema": "a"}, {})
    meta, _ = load_model(path)
    assert meta.get("kind") is None
    with pytest.raises(DataError, match="missing meta 'kind'"):
        meta["kind"]
