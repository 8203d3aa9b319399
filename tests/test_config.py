from dataclasses import fields
from typing import get_type_hints

import pytest

from botdetect.baselines import BaselineConfig
from botdetect.cli import NET_CONFIGS, RunConfig, _part
from botdetect.config import BOOL_WORDS, from_strings, to_strings
from botdetect.data import SplitSpec
from botdetect.embedding import TweetPipeline
from botdetect.errors import ConfigError
from botdetect.nnet.model import NetConfig
from botdetect.resample import ResampleConfig


@pytest.mark.parametrize("word", sorted(BOOL_WORDS) + ["TRUE", "Off", " yes "])
def test_bool_words(word):
    config = from_strings(RunConfig, {"stratified": word})
    assert config.stratified is BOOL_WORDS[word.strip().lower()]


@pytest.mark.parametrize("word", ["maybe", "", "2", "y", "truth"])
def test_other_bool_values_are_config_errors(word):
    with pytest.raises(ConfigError, match="stratified"):
        from_strings(RunConfig, {"stratified": word})


def test_field_types():
    config = from_strings(RunConfig, {
        "seed": "9", "train_fraction": "0.7", "model": "mlp", "mlp_layers": "16, 8,1",
    })
    assert config.seed == 9 and config.train_fraction == 0.7 and config.model == "mlp"
    assert config.mlp_layers == (16, 8, 1)
    net = from_strings(NetConfig, {"embedding_dim": "5", "dense_sizes": "4,2",
                                   "loss_weights": "0.5,0.5"})
    assert net.dense_sizes == (4, 2) and net.loss_weights == (0.5, 0.5)


# The CLI builds each sub-config from the RunConfig fields of the same name.
SHARED_FIELDS = {
    SplitSpec: {"train_fraction", "stratified", "seed"},
    ResampleConfig: {"smote_k", "enn_k", "target_ratio", "seed"},
    TweetPipeline: {"max_len", "truncation", "repeat_tag"},
    BaselineConfig: {"seed", "logreg_epochs", "n_trees", "n_stumps", "mlp_layers"},
    NetConfig: {"embedding_dim", "learning_rate", "batch_size", "epochs", "seed"},
}


@pytest.mark.parametrize("part", list(SHARED_FIELDS), ids=lambda part: part.__name__)
def test_fields_shared_with_run_config_have_its_types(part):
    run_types = get_type_hints(RunConfig)
    shared = {name: kind for name, kind in get_type_hints(part).items() if name in run_types}
    assert set(shared) == SHARED_FIELDS[part]
    assert shared == {name: run_types[name] for name in shared}
    # The CLI lets RunConfig's values win, while tests build sub-configs from
    # their own defaults; the two must agree. NetConfig.embedding_dim has no
    # default, and RunConfig's epochs of 0 means the net's 30.
    run_defaults = {f.name: f.default for f in fields(RunConfig)}
    defaults = {f.name: f.default for f in fields(part) if f.name in shared
                and (part, f.name) not in {(NetConfig, "embedding_dim"), (NetConfig, "epochs")}}
    assert defaults == {name: run_defaults[name] for name in defaults}


def test_part_takes_run_config_fields_and_given_values_over_them():
    config = RunConfig(seed=7, train_fraction=0.6, learning_rate=0.01, batch_size=16)
    assert _part(SplitSpec, config) == SplitSpec(0.6, True, 7)
    assert _part(SplitSpec, config, train_fraction=0.9) == SplitSpec(0.9, True, 7)
    assert _part(getattr(NetConfig, NET_CONFIGS["lstm"]), config, embedding_dim=5, epochs=30) == \
        NetConfig.tweet_only(embedding_dim=5, learning_rate=0.01, batch_size=16, epochs=30, seed=7)


@pytest.mark.parametrize("key,value", [
    ("seed", "abc"), ("seed", "1.5"), ("threshold", "high"), ("mlp_layers", "5,x"),
    ("mlp_layers", ""),
])
def test_bad_values_name_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        from_strings(RunConfig, {key: value})


def test_fixed_length_tuples_check_their_length():
    with pytest.raises(ConfigError, match="dense_sizes"):
        from_strings(NetConfig, {"embedding_dim": "5", "dense_sizes": "4,2,1"})


def test_dataclass_value_errors_become_config_errors():
    with pytest.raises(ConfigError, match="loss weights"):
        from_strings(NetConfig, {"embedding_dim": "5", "loss_weights": "0.9,0.9"})
    with pytest.raises(ConfigError, match="unknown config key"):
        from_strings(BaselineConfig, {"n_tree": "5"})


def test_typed_values_win():
    config = from_strings(RunConfig, {"out_dir": "a", "seed": "1"}, out_dir="b")
    assert config.out_dir == "b" and config.seed == 1


@pytest.mark.parametrize("config", [
    RunConfig(seed=4, stratified=False, mlp_layers=(8, 1), learning_rate=2e-3),
    BaselineConfig(seed=2, mlp_layers=(3, 1), sgd_l2=1e-5),
    NetConfig.tweet_only(embedding_dim=7, dense_sizes=(5, 3), adam_eps=1e-7),
])
def test_round_trip(config):
    assert from_strings(type(config), to_strings(config)) == config


def test_config_hash_is_pinned():
    # Captured before the config parser was shared; a change here would
    # change every artifact's config hash.
    config = RunConfig(task="tweet", model="contextual", manifest="corpus/manifest.txt",
                       embedding="glove_25d.txt", seed=7, stratified=False,
                       repeat_tag=True, learning_rate=0.002, mlp_layers=(64, 32, 1))
    assert "mlp_layers = 64,32,1" in config.to_kv_lines()
    assert "stratified = False" in config.to_kv_lines()
    assert config.config_hash() == (
        "27837eeb4c3e00907d532eb7422b56acf37aac6d7b0405f3f94a19273c652ff7"
    )
