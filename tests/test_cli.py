import copy
import os
import re
import shutil
import subprocess
import sys

import artifacts
import numpy as np
import pytest

import botdetect
from botdetect import baselines
from botdetect.baselines import BaselineConfig
from botdetect.cli import (
    NET_CONFIGS,
    RunConfig,
    _load_net,
    benchmark_suite,
    build_parser,
    main,
    run_experiment,
)
from botdetect.config import from_strings
from botdetect.data import (
    ACCOUNT_FEATURE_COLUMNS,
    FeatureMatrix,
    Standardizer,
    matrix_from_csv_lines,
    matrix_to_csv_lines,
    split_indices,
)
from botdetect.embedding import TweetPipeline, load_glove
from botdetect.errors import ConfigError, DataError
from botdetect.ingest import SyntheticCorpusSpec, load_corpus, parse_manifest
from botdetect.nnet import lstm
from botdetect.nnet.model import ContextualLstmModel, NetConfig
from botdetect.persist import load_model, save_model
from botdetect.resample import ResampleConfig


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = main([
        "synth", "--out", str(root), "--accounts", "30", "--tweets-per-account", "6",
        "--seed", "7", "--separation", "1.0", "--embedding-dim", "25",
    ])
    assert code == 0
    return root


def _base_config(corpus, out_dir, **overrides):
    values = dict(
        task="account",
        model="logreg",
        manifest=str(corpus / "manifest.txt"),
        out_dir=str(out_dir),
        seed=3,
        logreg_epochs=150,
    )
    values.update(overrides)
    return RunConfig(**values)


def test_synth_written_files(corpus):
    for rel in ("manifest.txt", "human/users.csv", "human/tweets.csv",
                "bot/users.csv", "bot/tweets.csv", "glove_25d.txt"):
        assert (corpus / rel).exists()


def test_synth_deterministic(tmp_path, corpus):
    other = tmp_path / "again"
    code = main([
        "synth", "--out", str(other), "--accounts", "30", "--tweets-per-account", "6",
        "--seed", "7", "--separation", "1.0", "--embedding-dim", "25",
    ])
    assert code == 0
    for rel in ("human/tweets.csv", "bot/users.csv", "glove_25d.txt"):
        assert (other / rel).read_bytes() == (corpus / rel).read_bytes()


def test_tokenize_subcommand(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("HAPPY world\n@bob #Wow\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["tokenize", "--input", str(source), "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "happy <allcaps> world\n<user> <hashtag> wow\n"


def test_ingest_subcommand(corpus, capsys):
    assert main(["ingest", "--manifest", str(corpus / "manifest.txt")]) == 0
    out = capsys.readouterr().out
    assert "accounts_total = 60" in out
    assert "tweets_total = 360" in out


# `ingest --kv` on tests/artifacts.py's messy corpus: filled cells, a skipped
# row of each kind, a column counted from the text, notes and a warning.
MESSY_INGEST = """\
accounts_total = 4
tweets_total = 3
group.h.accounts_loaded = 3
group.h.tweets_loaded = 0
group.h.accounts_skipped = 1
group.h.tweets_skipped = 0
group.h.filled.default_profile = 1
group.h.filled.favourites_count = 2
group.h.filled.followers_count = 1
group.h.filled.geo_enabled = 2
group.h.filled.listed_count = 1
group.h.filled.profile_use_background_image = 1
group.h.filled.protected = 1
group.h.filled.verified = 1
group.h.note.0 = tweets.csv absent
group.b.accounts_loaded = 1
group.b.tweets_loaded = 3
group.b.accounts_skipped = 0
group.b.tweets_skipped = 1
group.b.filled.favorite_count = 3
group.b.filled.followers_count = 1
group.b.filled.num_hashtags = 1
group.b.filled.num_mentions = 1
group.b.filled.retweet_count = 1
group.b.fallback_counted.num_urls = true
group.b.note.0 = column reply_count absent; filled with 0
warning.0 = group b: expected 4 tweets, loaded 3
"""


def test_ingest_kv_on_the_messy_corpus(tmp_path, capsys):
    for rel, text in artifacts._messy_corpus().items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    kv = tmp_path / "diagnostics.kv"
    assert main(["ingest", "--manifest", str(tmp_path / "messy" / "manifest.txt"),
                 "--kv", str(kv)]) == 0
    assert capsys.readouterr().out == MESSY_INGEST
    assert kv.read_text(encoding="utf-8") == MESSY_INGEST


def test_resample_subcommand_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    features = np.vstack([rng.standard_normal((30, 3)), rng.standard_normal((9, 3)) + 1.0])
    labels = np.array([0] * 30 + [1] * 9, dtype=np.int8)
    matrix = FeatureMatrix(features, ("a", "b", "c"), labels)
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    src.write_text("\n".join(matrix_to_csv_lines(matrix)) + "\n", encoding="utf-8")
    assert main(["resample", "--input", str(src), "--output", str(dst),
                 "--strategy", "smote", "--seed", "4"]) == 0
    result = matrix_from_csv_lines(dst.read_text(encoding="utf-8").splitlines(), dst)
    human, bot = result.class_counts()
    assert human == bot == 30
    assert np.array_equal(result.features[:39], matrix.features)


def test_run_experiment_writes_artifacts(corpus, tmp_path):
    config = _base_config(corpus, tmp_path / "runs")
    result = run_experiment(config)
    for name in ("report.kv", "report.txt", "roc.csv", "model.txt", "run.kv", "resample.kv"):
        path = os.path.join(result.run_dir, name)
        assert os.path.exists(path)
        assert config.config_hash() in open(path, encoding="utf-8").read()
    assert os.path.islink(os.path.join(str(tmp_path / "runs"), "latest"))


# The kv key order is the field order of EvalReport, StageRecord and
# GroupDiagnostics; these sequences were written before the kv lines were
# rendered from those fields.
REPORT_KEYS = [
    "config_hash", "precision", "recall", "f1", "accuracy", "auc", "threshold",
    "tp", "fp", "fn", "tn", "macro_precision", "macro_recall", "macro_f1",
    "precision_defined", "recall_defined",
]
SMOTENN_KEYS = ["config_hash", "strategy"] + [
    f"stage.{stage}.{name}" for stage in ("smote", "enn")
    for name in ("rows_in", "rows_out", "added", "removed", "human", "bot")
] + ["assumption.0", "assumption.1", "assumption.2"]
GROUP_KEYS = [
    f"group.{group}.{name}" for group in ("human", "bot")
    for name in ("accounts_loaded", "tweets_loaded", "accounts_skipped", "tweets_skipped")
]


def test_kv_key_order_is_pinned(corpus, tmp_path):
    config = _base_config(corpus, tmp_path / "runs", resample="smotenn")
    run_dir = run_experiment(config).run_dir

    def keys(name):
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            return [line.split(" = ")[0] for line in fh]

    report = keys("report.kv")
    assert report[:len(REPORT_KEYS)] == REPORT_KEYS
    assert report[len(REPORT_KEYS):] == [f"config.{key}" for key in sorted(config.echo())]
    assert keys("resample.kv") == SMOTENN_KEYS
    assert [key for key in keys("run.kv") if key.startswith("group.")] == GROUP_KEYS


def test_account_forest_on_disjoint_corpus_is_near_perfect(corpus, tmp_path):
    # separation 1.0 makes account count ranges disjoint between classes
    config = _base_config(corpus, tmp_path / "runs", model="forest", n_trees=30)
    result = run_experiment(config)
    assert result.report.auc >= 0.99


def test_rerun_byte_identical(corpus, tmp_path):
    config = _base_config(corpus, tmp_path / "runs")
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.run_dir != b.run_dir
    for name in ("report.kv", "model.txt", "roc.csv", "run.kv"):
        bytes_a = open(os.path.join(a.run_dir, name), "rb").read()
        bytes_b = open(os.path.join(b.run_dir, name), "rb").read()
        assert bytes_a == bytes_b


def test_train_cli_exit_codes(corpus, tmp_path):
    ok = main([
        "train", "--task", "account", "--model", "forest",
        "--manifest", str(corpus / "manifest.txt"),
        "--out", str(tmp_path / "r"), "--seed", "1", "--n-trees", "10",
    ])
    assert ok == 0
    missing_data = main([
        "train", "--task", "account", "--model", "forest",
        "--manifest", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "r"),
    ])
    assert missing_data == 3
    bad_config = main([
        "train", "--task", "tweet", "--model", "contextual", "--resample", "smotenn",
        "--manifest", str(corpus / "manifest.txt"), "--embedding", "x",
        "--out", str(tmp_path / "r"),
    ])
    assert bad_config == 2


def test_group_by_account_keeps_each_account_on_one_side_for_baselines(corpus, tmp_path,
                                                                       monkeypatch):
    splits = []

    def recorded(labels, spec, groups=None):
        splits.append(split_indices(labels, spec, groups=groups))
        return splits[-1]

    monkeypatch.setattr(botdetect.cli, "split_indices", recorded)
    _, tweets, _ = load_corpus(parse_manifest(corpus / "manifest.txt"))
    owners = np.array([t.account_id for t in tweets])
    for grouped in (True, False):
        run_experiment(_base_config(corpus, tmp_path / str(grouped), task="tweet",
                                    group_by_account=grouped))
    (train, test), (mixed_train, mixed_test) = splits
    assert len(train) and len(test)
    assert not set(owners[train]) & set(owners[test])
    # Without the flag, one account's tweets sit on both sides.
    assert set(owners[mixed_train]) & set(owners[mixed_test])


def test_embedding_file_without_vectors_is_a_data_error(corpus, tmp_path, capsys):
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("zzunseen " + " ".join(["0.5"] * 25) + "\n", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    train = ["train", "--task", "tweet", "--model", "lstm", "--embedding-dim", "25",
             "--manifest", str(corpus / "manifest.txt"), "--epochs", "1",
             "--out", str(tmp_path / "r")]
    # No vector at all, or none for the vocabulary cap's kept tokens.
    for embedding, extra in ((empty, []), (unseen, ["--vocab-cap", "50"])):
        assert main([*train, "--embedding", str(embedding), *extra]) == 3
        assert capsys.readouterr().err == f"data error: {embedding}: no embedding vector loaded\n"
    assert not list((tmp_path / "r").glob("run-*"))
    assert main([*train, "--embedding", str(unseen)]) == 0


def test_lstm_config_rules():
    with pytest.raises(ValueError, match="tweet-level only"):
        RunConfig(task="account", model="contextual", manifest="m")
    with pytest.raises(ValueError, match="resample=none"):
        RunConfig(task="tweet", model="lstm", manifest="m", resample="smote", embedding="e")
    with pytest.raises(ValueError, match="requires --embedding"):
        RunConfig(task="tweet", model="lstm", manifest="m")
    RunConfig(task="tweet", model="lstm", manifest="m", embedding="e")


@pytest.mark.parametrize("name,value", [
    ("max_len", 0), ("batch_size", 0), ("n_trees", 0), ("n_stumps", 0), ("embedding_dim", 0),
    ("logreg_epochs", 0), ("smote_k", 0), ("enn_k", -1), ("epochs", -1), ("vocab_cap", -1),
    ("target_ratio", 0.0), ("target_ratio", float("nan")),
])
def test_out_of_range_values_are_config_errors(name, value):
    RunConfig(manifest="m", max_len=1, n_trees=1, epochs=0, vocab_cap=0)
    with pytest.raises(ConfigError, match=name):
        from_strings(RunConfig, {"manifest": "m", name: str(value)})


def test_config_from_strings_types():
    config = from_strings(RunConfig, {
        "task": "tweet", "model": "lstm", "seed": "9", "train_fraction": "0.7",
        "stratified": "false", "manifest": "m", "embedding": "e",
    })
    assert config.seed == 9
    assert config.train_fraction == 0.7
    assert config.stratified is False
    with pytest.raises(ConfigError):
        from_strings(RunConfig, {"not_a_key": "1"})


def test_tweet_level_contextual_cli(corpus, tmp_path):
    code = main([
        "train", "--task", "tweet", "--model", "contextual",
        "--manifest", str(corpus / "manifest.txt"),
        "--embedding", str(corpus / "glove_25d.txt"), "--embedding-dim", "25",
        "--out", str(tmp_path / "net"), "--seed", "2", "--epochs", "4",
    ])
    assert code == 0
    run_dir = os.path.join(
        str(tmp_path / "net"), os.readlink(os.path.join(str(tmp_path / "net"), "latest"))
    )
    assert os.path.exists(os.path.join(run_dir, "trace.csv"))
    checkpoint = os.path.join(run_dir, "model.txt")

    eval_code = main([
        "eval", "--checkpoint", checkpoint, "--manifest", str(corpus / "manifest.txt"),
        "--embedding", str(corpus / "glove_25d.txt"), "--out", str(tmp_path / "eval"),
    ])
    assert eval_code == 0
    assert os.path.exists(os.path.join(str(tmp_path / "eval"), "report.kv"))

    inspect_code = main([
        "inspect", "--checkpoint", checkpoint, "--manifest", str(corpus / "manifest.txt"),
        "--embedding", str(corpus / "glove_25d.txt"), "--out", str(tmp_path / "ins"),
        "--tweet-index", "1", "--cell-state",
    ])
    assert inspect_code == 0
    for name in ("trace_1.csv", "cell_trace_1.csv", "distributions.csv", "ks.csv"):
        assert os.path.exists(os.path.join(str(tmp_path / "ins"), name))


def test_bench_suite(corpus, tmp_path):
    bench = tmp_path / "bench.kv"
    bench.write_text(
        "default.task = account\n"
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        "default.seed = 5\n"
        "default.n_trees = 8\n"
        "row.forest_none.model = forest\n"
        "row.forest_smotenn.model = forest\n"
        "row.forest_smotenn.resample = smotenn\n"
        "row.logreg_none.model = logreg\n"
        "row.logreg_none.logreg_epochs = 100\n"
        "row.broken.model = forest\n"
        "row.broken.manifest = /missing.txt\n",
        encoding="utf-8",
    )
    results = benchmark_suite(str(bench), str(tmp_path / "bench_out"))
    assert [r["name"] for r in results] == [
        "forest_none", "forest_smotenn", "logreg_none", "broken"
    ]
    assert [r["status"] for r in results] == ["ok", "ok", "ok", "error"]
    csv_path = tmp_path / "bench_out" / "bench.csv"
    txt_path = tmp_path / "bench_out" / "bench.txt"
    assert csv_path.exists() and txt_path.exists()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("forest_none,account,forest,none")



def test_bench_parses_each_manifest_once(corpus, tmp_path, monkeypatch):
    loads = []

    def counted(manifest):
        result = original(manifest)
        loads.append((result, copy.deepcopy(result)))
        return result

    original = botdetect.cli.load_corpus
    monkeypatch.setattr(botdetect.cli, "load_corpus", counted)
    bench = tmp_path / "shared.kv"
    bench.write_text(
        "default.task = account\n"
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        "default.n_trees = 4\n"
        "row.forest_none.model = forest\n"
        "row.forest_smotenn.model = forest\n"
        "row.forest_smotenn.resample = smotenn\n"
        "row.logreg_none.model = logreg\n"
        "row.gone_a.manifest = /missing.txt\n"
        "row.gone_b.manifest = /missing.txt\n",
        encoding="utf-8",
    )
    results = benchmark_suite(str(bench), str(tmp_path / "out"))
    assert [r["status"] for r in results] == ["ok", "ok", "ok", "error", "error"]
    # One parse serves the three rows, and none of them changed it; a
    # manifest that fails to parse fails every row that names it.
    assert len(loads) == 1
    shared, snapshot = loads[0]
    assert shared == snapshot
    assert results[3]["error"] == results[4]["error"]


def test_bench_row_on_a_manifest_that_is_not_utf8_records_exit_3(corpus, tmp_path):
    (tmp_path / "ff.txt").write_bytes(b"\xffgroup.human.path = human\n")
    bench = tmp_path / "bench.kv"
    bench.write_text(
        "default.task = account\n"
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        "default.n_trees = 4\n"
        f"row.latin.manifest = {tmp_path / 'ff.txt'}\n"
        "row.forest.model = forest\n",
        encoding="utf-8",
    )
    results = benchmark_suite(str(bench), str(tmp_path / "out"))
    assert [(r["status"], r.get("exit_code")) for r in results] == [("error", 3), ("ok", None)]
    assert "can't decode byte 0xff" in results[0]["error"]


def test_bench_tweet_level_net_rows(corpus, tmp_path):
    bench = tmp_path / "bench_net.kv"
    bench.write_text(
        "default.task = tweet\n"
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        f"default.embedding = {corpus / 'glove_25d.txt'}\n"
        "default.embedding_dim = 25\n"
        "default.seed = 2\n"
        "default.epochs = 3\n"
        "row.tweet_only.model = lstm\n"
        "row.contextual_25.model = contextual\n",
        encoding="utf-8",
    )
    results = benchmark_suite(str(bench), str(tmp_path / "net_out"))
    assert [r["name"] for r in results] == ["tweet_only", "contextual_25"]
    assert all(r["status"] == "ok" for r in results)
    assert all(float(r["auc"]) > 0.9 for r in results)


def test_bench_row_with_bad_value_is_recorded(corpus, tmp_path, capsys):
    bench = tmp_path / "bench_bad.kv"
    bench.write_text(
        "default.task = account\n"
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        "default.seed = 5\n"
        "row.forest_ok.model = forest\n"
        "row.forest_ok.n_trees = 4\n"
        "row.forest_bad.model = forest\n"
        "row.forest_bad.n_trees = x\n"
        "row.logreg_ok.model = logreg\n"
        "row.logreg_ok.logreg_epochs = 20\n",
        encoding="utf-8",
    )
    results = benchmark_suite(str(bench), str(tmp_path / "bench_out"))
    assert [r["status"] for r in results] == ["ok", "error", "ok"]
    assert "n_trees" in results[1]["error"]
    lines = (tmp_path / "bench_out" / "bench.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("forest_bad,account,forest,") and ",error," in lines[2]
    # The suite still writes every row, then exits with the first failure's
    # code: 2 for the bad value, ahead of a later missing corpus (3).
    with open(bench, "a", encoding="utf-8") as fh:
        fh.write("row.no_corpus.model = forest\nrow.no_corpus.manifest = /missing.txt\n")
    assert main(["bench", "--config", str(bench), "--out", str(tmp_path / "main_out")]) == 2
    assert "4 rows, 2 failed" in capsys.readouterr().out
    lines = (tmp_path / "main_out" / "bench.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5 and ",error," in lines[4]


def test_failed_bench_rows_have_one_shape(corpus, tmp_path):
    # A value that does not parse and values that RunConfig refuses fill a
    # row's config columns alike: from the row's values, or else from
    # RunConfig's defaults.
    bench = tmp_path / "failed.kv"
    bench.write_text(
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        "row.b.model = forest\n"
        "row.b.seed = x\n"
        "row.a.train_fraction = 1\n"
        "row.net.task = tweet\n"
        "row.net.model = lstm\n"
        "row.net.embedding_dim = 50\n",
        encoding="utf-8",
    )
    benchmark_suite(str(bench), str(tmp_path / "out"))
    lines = (tmp_path / "out" / "bench.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [
        "b,account,forest,none,25,,,,,,error,seed = 'x': expected int",
        "a,account,forest,none,25,,,,,,error,invalid RunConfig: train_fraction must lie in (0; 1)",
        "net,tweet,lstm,none,50,,,,,,error,invalid RunConfig: model lstm requires --embedding",
    ]


def test_bench_row_with_a_negative_seed_records_exit_2(corpus, tmp_path, capsys):
    bench = tmp_path / "seed.kv"
    bench.write_text(
        "default.task = account\n"
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        "default.n_trees = 4\n"
        "row.negative.model = forest\n"
        "row.negative.seed = -1\n"
        "row.later.model = forest\n",
        encoding="utf-8",
    )
    assert main(["bench", "--config", str(bench), "--out", str(tmp_path / "b")]) == 2
    assert "2 rows, 1 failed" in capsys.readouterr().out
    lines = (tmp_path / "b" / "bench.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("negative,") and lines[1].endswith(
        ",error,invalid RunConfig: seed must be >= 0; got -1")
    assert lines[2].startswith("later,") and lines[2].endswith(",ok,")


def test_bench_exit_status(corpus, tmp_path, capsys):
    common = ("default.task = account\n"
              f"default.manifest = {corpus / 'manifest.txt'}\n"
              "default.n_trees = 4\n")
    ok = tmp_path / "ok.kv"
    ok.write_text(common + "row.forest.model = forest\n", encoding="utf-8")
    assert main(["bench", "--config", str(ok), "--out", str(tmp_path / "ok_out")]) == 0
    assert "1 rows, 0 failed" in capsys.readouterr().out
    missing = tmp_path / "missing.kv"
    missing.write_text(common + "row.forest.model = forest\n"
                       "row.forest.manifest = /missing.txt\n", encoding="utf-8")
    assert main(["bench", "--config", str(missing), "--out", str(tmp_path / "m_out")]) == 3
    assert (tmp_path / "m_out" / "bench.txt").exists()


def _checkpoint_texts(corpus, tmp_path):
    """A contextual net checkpoint as `train` writes one (with its pipeline
    meta and metadata standardizer), a tweet-only net, a forest, an adaboost
    and a logreg checkpoint; all as text, by name."""
    table = load_glove(corpus / "glove_25d.txt", 25)
    pipeline_meta = {"config_hash": "0" * 8, **TweetPipeline(table).meta()}
    net = ContextualLstmModel.initialize(NetConfig(embedding_dim=25, seed=1))
    net.metadata_standardizer = Standardizer(mean=np.full(6, 0.5), std=np.full(6, 2.0))
    net.save(tmp_path / "net.txt", pipeline_meta)
    lstm = ContextualLstmModel.initialize(NetConfig(embedding_dim=25, seed=1,
                                                    **NET_CONFIGS["lstm"]))
    lstm.save(tmp_path / "lstm.txt", pipeline_meta)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal((20, 10))
    matrix = FeatureMatrix(x, ACCOUNT_FEATURE_COLUMNS, (x[:, 0] > 0).astype(np.int8))
    kinds = ("forest", "adaboost", "logreg")
    for kind in kinds:
        model = baselines.fit(kind, matrix, BaselineConfig(n_trees=2, n_stumps=3))
        baselines.save_baseline(model, tmp_path / f"{kind}.txt")
    return {name: (tmp_path / f"{name}.txt").read_text(encoding="utf-8")
            for name in ("net", "lstm", *kinds)}


def _without_tensors(text, prefix):
    """The checkpoint text less every tensor whose name starts with prefix."""
    lines = text.splitlines(keepends=True)
    kept, i = [], 0
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] == "tensor" and parts[1].startswith(prefix):
            i += 1 + (int(parts[3]) if parts[2] == "2" else 1)
        else:
            kept.append(lines[i])
            i += 1
    assert len(kept) < len(lines)
    return "".join(kept)


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def _absolute_manifest(corpus):
    """The corpus manifest's text with each group path made absolute, so that
    a copy of it reads the same corpus from any directory."""
    text = (corpus / "manifest.txt").read_text(encoding="utf-8")
    for name in ("human", "bot"):
        text = _edit(text, f".path = {name}\n", f".path = {corpus / name}\n")
    return text


def _listing(root):
    """Every path under root, relative to it, sorted."""
    return sorted(path.relative_to(root) for path in root.rglob("*"))


# id -> (expected exit code, what to run). Config files and checkpoints are
# written from the given text; "net"/"forest" are edited checkpoint texts.
MALFORMED = {
    "config_seed_abc": (2, "train_config", "seed = abc\n"),
    "config_repeated_key": (3, "train_config", "seed = 1\nseed = 2\n"),
    "config_stratified_maybe": (2, "train_config", "stratified = maybe\n"),
    "flag_mlp_layers": (2, "train_flags", ["--mlp-layers", "5,x"]),
    "net_hidden_dim_x": (2, "eval", ("net", "meta hidden_dim = 32", "meta hidden_dim = x")),
    "baseline_n_trees_x": (2, "eval", ("forest", "meta config.n_trees = 2",
                                       "meta config.n_trees = x")),
    "tensor_dim_not_int": (3, "eval", ("forest", "tensor standardizer.mean 1 10",
                                       "tensor standardizer.mean 1 ten")),
    "missing_kind": (3, "eval", ("net", "meta kind = contextual_lstm\n", "")),
    "unknown_kind": (3, "eval", ("forest", "meta kind = forest", "meta kind = tree")),
    "inspect_forest": (3, "inspect", ("forest", "", "")),
    "flag_max_len_0": (2, "train_flags", ["--max-len", "0"]),
    "flag_batch_size_0": (2, "train_flags", ["--batch-size", "0"]),
    "flag_n_trees_0": (2, "train_flags", ["--n-trees", "0"]),
    "flag_learning_rate_negative": (2, "train_flags", ["--learning-rate", "-1"]),
    "flag_learning_rate_0": (2, "train_flags", ["--learning-rate", "0"]),
    "flag_learning_rate_nan": (2, "train_flags", ["--learning-rate", "nan"]),
    "flag_target_ratio_inf": (2, "train_flags", ["--target-ratio", "inf",
                                                 "--resample", "smote"]),
    "flag_mlp_layers_not_ending_in_1": (2, "train_flags", ["--mlp-layers", "4,2"]),
    "flag_mlp_layers_0": (2, "train_flags", ["--mlp-layers", "0"]),
    # A finite ratio whose target row count is not finite.
    "flag_target_ratio_1e308": (2, "train_flags", ["--target-ratio", "1e308",
                                                   "--resample", "smote"]),
    # A new text of None drops every tensor whose name starts with the old.
    "forest_no_standardizer_mean": (3, "eval", ("forest", "standardizer.mean", None)),
    "forest_no_trees": (3, "eval", ("forest", "tree_", None)),
    "forest_n_trees_0": (3, "eval", ("forest", "meta config.n_trees = 2",
                                     "meta config.n_trees = 0")),
    "adaboost_no_stumps": (3, "eval", ("adaboost", "stumps", None)),
    # A callable new text edits the tensor named by the old.
    "forest_standardizer_std_0": (3, "eval", ("forest", "standardizer.std",
                                              lambda a: np.r_[0.0, a[1:]])),
    "forest_standardizer_mean_nan": (3, "eval", ("forest", "standardizer.mean",
                                                 lambda a: np.r_[np.nan, a[1:]])),
    "net_meta_standardizer_std_0": (3, "eval", ("net", "meta_standardizer.std", np.zeros_like)),
    "forest_root_threshold_nan": (3, "eval", ("forest", "tree_000",
                                              lambda a: np.vstack([[a[0, 0], np.nan, *a[0, 2:]],
                                                                   a[1:]]))),
    "adaboost_stump_alpha_inf": (3, "eval", ("adaboost", "stumps",
                                             lambda a: np.vstack([[*a[0, :3], np.inf], a[1:]]))),
    "net_U_i_inf": (3, "eval", ("net", "U_i", lambda a: np.where(a > 0, np.inf, a))),
    # Finite weights that overflow while scoring: numerically broken, exit 3.
    "logreg_w_1e308": (3, "eval", ("logreg", "w", lambda a: np.full_like(a, 1e308))),
    # The fixture's one perfect stump, twice: two agreeing votes overflow.
    "adaboost_stump_alphas_1e308": (3, "eval", ("adaboost", "stumps", lambda a: np.tile(
        np.c_[a[:, :3], np.full(len(a), 1e308)], (2, 1)))),
    "net_W_i_1e308_eval": (3, "eval", ("net", "W_i", lambda a: np.full_like(a, 1e308))),
    "net_dense1_W_1e308_inspect": (3, "inspect", ("net", "dense1.W",
                                                  lambda a: np.full_like(a, 1e308))),
    "net_no_lstm_tensor": (3, "eval", ("net", "U_f", None)),
    "net_no_dense_tensor": (3, "eval", ("net", "dense2.b", None)),
    "net_no_aux_tensor": (3, "inspect", ("net", "aux.W", None)),
    "net_no_meta_standardizer": (3, "eval", ("net", "meta_standardizer", None)),
    "net_kind_tweet_lstm": (3, "eval", ("net", "meta kind = contextual_lstm",
                                        "meta kind = tweet_lstm")),
    # A tensor the config does not name, or one named twice.
    "net_extra_tensor": (3, "eval", ("net", "\ntensor ", "\ntensor bogus 1 1\n0.0\ntensor ")),
    "forest_extra_tensor": (3, "eval", ("forest", "\ntensor ",
                                        "\ntensor bogus 1 1\n0.0\ntensor ")),
    "lstm_meta_standardizer": (3, "eval", ("lstm", "\nend\n",
                                           "\ntensor meta_standardizer.mean 1 6\n0 0 0 0 0 0"
                                           "\ntensor meta_standardizer.std 1 6\n1 1 1 1 1 1"
                                           "\nend\n")),
    "net_repeated_tensor": (3, "eval", ("net", "tensor meta_standardizer.mean 1 6\n",
                                        "tensor meta_standardizer.mean 1 6\n0.5 0.5 0.5 0.5 0.5 0.5"
                                        "\ntensor meta_standardizer.mean 1 6\n")),
    "net_max_len_0": (2, "eval", ("net", "meta max_len = 30", "meta max_len = 0")),
    "net_repeated_meta": (3, "eval", ("net", "meta max_len = 30\n",
                                      "meta max_len = 30\nmeta max_len = 2\n")),
    # Extra argv after a checkpoint edit is appended to the command.
    "eval_threshold_7": (2, "eval", ("forest", "", "", "--threshold", "7")),
    # Usage errors: a flag argparse types, an unknown flag, no command.
    "eval_threshold_x": (2, "eval", ("forest", "", "", "--threshold", "x")),
    "inspect_tweet_index_x": (2, "inspect", ("net", "", "", "--tweet-index", "x")),
    "train_unknown_flag": (2, "train_flags", ["--bogus"]),
    "no_command": (2, "cli", []),
    "train_seed_negative": (2, "train_flags", ["--seed", "-1"]),
    # Run values that RunConfig refuses: each exits before the corpus or
    # the embedding file (which does not exist) is read.
    "flag_task_bogus": (2, "train_flags", ["--task", "bogus"]),
    "flag_model_bogus": (2, "train_flags", ["--model", "bogus"]),
    "flag_resample_bogus": (2, "train_flags", ["--resample", "bogus"]),
    "flag_truncation_middle": (2, "train_flags", ["--truncation", "middle"]),
    "flag_train_fraction_1": (2, "train_flags", ["--train-fraction", "1"]),
    "flag_val_fraction_1": (2, "train_flags", ["--val-fraction", "1"]),
    "flag_threshold_0": (2, "train_flags", ["--threshold", "0"]),
    "flag_net_on_accounts": (2, "train_flags", ["--model", "lstm", "--embedding", "absent.txt"]),
    "flag_net_resample_smote": (2, "train_flags", ["--task", "tweet", "--model", "lstm",
                                                   "--embedding", "absent.txt",
                                                   "--resample", "smote"]),
    "flag_net_no_embedding": (2, "train_flags", ["--task", "tweet", "--model", "contextual"]),
    "eval_net_no_embedding": (2, "eval", ("net", "", "", "--embedding", "")),
    # Any other argv runs as given; {tmp} is the test's directory, which
    # holds a valid feature-matrix CSV at {tmp}/m.csv, and {corpus} is the
    # synthetic corpus.
    "synth_separation_2": (2, "cli", ["synth", "--out", "{tmp}/c", "--separation", "2"]),
    "synth_accounts_0": (2, "cli", ["synth", "--out", "{tmp}/c", "--accounts", "0"]),
    "synth_accounts_x": (2, "cli", ["synth", "--out", "{tmp}/c", "--accounts", "x"]),
    "synth_seed_negative": (2, "cli", ["synth", "--out", "{tmp}/c", "--seed", "-1"]),
    "synth_embedding_seed_negative": (2, "cli", ["synth", "--out", "{tmp}/c", "--embedding-dim",
                                                 "25", "--embedding-seed", "-1"]),
    "net_train_seed_negative": (2, "cli", ["train", "--task", "tweet", "--model", "lstm",
                                           "--manifest", "{corpus}/manifest.txt", "--embedding",
                                           "{corpus}/glove_25d.txt", "--out", "{tmp}/r",
                                           "--seed", "-1"]),
    "resample_smote_k_x": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                      "{tmp}/o.csv", "--strategy", "smote", "--smote-k", "x"]),
    "resample_strategy_bogus": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                           "{tmp}/o.csv", "--strategy", "bogus"]),
    "resample_seed_negative": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                          "{tmp}/o.csv", "--strategy", "smote", "--seed", "-1"]),
    "resample_no_output": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--strategy",
                                      "smote"]),
    "train_no_manifest": (2, "cli", ["train", "--task", "account", "--out", "{tmp}/r"]),
    # {tmp}/empty.txt is empty.
    "manifest_empty": (3, "cli", ["ingest", "--manifest", "{tmp}/empty.txt"]),
    # A command that cannot write its output or its diagnostics leaves neither.
    "resample_output_unwritable": (3, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                              "{tmp}/missing/o.csv", "--strategy", "smote",
                                              "--diagnostics", "{tmp}/d.kv"]),
    "resample_diagnostics_unwritable": (3, "cli", ["resample", "--input", "{tmp}/m.csv",
                                                   "--output", "{tmp}/o.csv", "--strategy",
                                                   "smote", "--diagnostics",
                                                   "{tmp}/missing/d.kv"]),
    "resample_smote_k_0": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                      "{tmp}/o.csv", "--strategy", "smote", "--smote-k", "0"]),
    "resample_target_ratio_0": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                           "{tmp}/o.csv", "--strategy", "smote",
                                           "--target-ratio", "0"]),
    "resample_target_ratio_1e308": (2, "cli", ["resample", "--input", "{tmp}/m.csv",
                                               "--output", "{tmp}/o.csv", "--strategy", "smote",
                                               "--target-ratio", "1e308"]),
    "resample_target_ratio_inf": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                             "{tmp}/o.csv", "--strategy", "none",
                                             "--target-ratio", "inf"]),
    "resample_target_ratio_nan": (2, "cli", ["resample", "--input", "{tmp}/m.csv", "--output",
                                             "{tmp}/o.csv", "--strategy", "none",
                                             "--target-ratio", "nan"]),
    # m_short.csv is m.csv with the label cell of its third line dropped.
    "resample_short_row": (3, "cli", ["resample", "--input", "{tmp}/m_short.csv", "--output",
                                      "{tmp}/o.csv", "--strategy", "smote"]),
    # m_nan.csv, m_inf.csv and m_1e300.csv are m.csv with its first cell replaced.
    "resample_nan_cell": (3, "cli", ["resample", "--input", "{tmp}/m_nan.csv", "--output",
                                     "{tmp}/o.csv", "--strategy", "smote"]),
    "resample_inf_cell": (3, "cli", ["resample", "--input", "{tmp}/m_inf.csv", "--output",
                                     "{tmp}/o.csv", "--strategy", "smote"]),
    # A finite cell whose square overflows while the columns are z-scored.
    "resample_1e300_cell": (3, "cli", ["resample", "--input", "{tmp}/m_1e300.csv", "--output",
                                       "{tmp}/o.csv", "--strategy", "smotenn"]),
    # {tmp}/ff.txt is not UTF-8: its first byte is 0xff.
    "tokenize_not_utf8": (3, "cli", ["tokenize", "--input", "{tmp}/ff.txt"]),
    "resample_not_utf8": (3, "cli", ["resample", "--input", "{tmp}/ff.txt", "--output",
                                     "{tmp}/o.csv", "--strategy", "smote"]),
    "ingest_not_utf8": (3, "cli", ["ingest", "--manifest", "{tmp}/ff.txt"]),
    # {tmp}/w2v.txt is the corpus's GloVe file under a word2vec-style count line.
    "glove_header_line": (3, "cli", ["train", "--task", "tweet", "--model", "lstm",
                                     "--manifest", "{corpus}/manifest.txt", "--embedding",
                                     "{tmp}/w2v.txt", "--embedding-dim", "25", "--out",
                                     "{tmp}/r"]),
    "eval_not_utf8": (3, "cli", ["eval", "--checkpoint", "{tmp}/ff.txt",
                                 "--manifest", "{corpus}/manifest.txt"]),
    "train_config_not_utf8": (3, "cli", ["train", "--config", "{tmp}/ff.txt"]),
    "bench_config_not_utf8": (3, "cli", ["bench", "--config", "{tmp}/ff.txt", "--out", "{tmp}/b"]),
    # Lines in place of the corpus manifest's line for their key (appended
    # when it sets no such key), which `ingest` then reads.
    "manifest_accounts_abc": (3, "manifest", "group.human.accounts = abc\n"),
    "manifest_accounts_1.5": (3, "manifest", "group.human.accounts = 1.5\n"),
    "manifest_tweets_abc": (3, "manifest", "group.bot.tweets = abc\n"),
    "manifest_misspelt_attribute": (3, "manifest", "group.human.acounts = 5\n"),
    "manifest_repeated_key": (3, "manifest",
                              "group.human.label = human\ngroup.human.label = human\n"),
    # A line appended to a one-row bench config.
    "bench_row_key_without_field": (2, "bench_config", "row.x = 1\n"),
    "bench_config_repeated_key": (3, "bench_config", "row.forest.model = forest\n"),
}
# The whole stderr of some cases, {tmp} standing for the test's directory.
MALFORMED_MESSAGES = {
    "resample_diagnostics_unwritable":
        "data error: [Errno 2] No such file or directory: '{tmp}/missing/d.kv'",
    "glove_header_line": "data error: {tmp}/w2v.txt:1: expected 26 fields, got 2",
    "resample_short_row": "data error: {tmp}/m_short.csv:3: expected 4 cells",
    "resample_target_ratio_inf": "config error: invalid ResampleConfig: "
                                 "target_ratio must be positive and finite, got inf",
    "resample_target_ratio_nan": "config error: invalid ResampleConfig: "
                                 "target_ratio must be positive and finite, got nan",
    "resample_strategy_bogus":
        "config error: strategy = 'bogus': expected one of none/smote/smotenn/smotomek",
    "resample_smote_k_x": "config error: smote_k = 'x': expected int",
    "synth_accounts_x": "config error: accounts = 'x': expected int",
    "synth_seed_negative": "config error: invalid SyntheticCorpusSpec: seed must be >= 0, got -1",
    "synth_embedding_seed_negative": "config error: embedding_seed must be >= 0, got -1",
    "resample_seed_negative": "config error: invalid ResampleConfig: seed must be >= 0, got -1",
    "train_seed_negative": "config error: invalid RunConfig: seed must be >= 0, got -1",
    "net_train_seed_negative": "config error: invalid RunConfig: seed must be >= 0, got -1",
    "train_unknown_flag": "config error: unrecognized arguments: --bogus",
    "flag_task_bogus": "config error: task = 'bogus': expected one of account/tweet",
    "flag_model_bogus": "config error: invalid RunConfig: model must be one of "
                        "logreg/sgd/forest/adaboost/mlp/lstm/contextual, got 'bogus'",
    "flag_resample_bogus":
        "config error: resample = 'bogus': expected one of none/smote/smotenn/smotomek",
    "flag_truncation_middle": "config error: truncation = 'middle': expected one of tail/head",
    "flag_train_fraction_1": "config error: invalid RunConfig: train_fraction must lie in (0, 1)",
    "flag_val_fraction_1": "config error: invalid RunConfig: val_fraction must lie in [0, 1)",
    "flag_threshold_0": "config error: invalid RunConfig: threshold must lie in (0, 1)",
    "flag_net_on_accounts": "config error: invalid RunConfig: model lstm is tweet-level only",
    "flag_net_resample_smote": "config error: invalid RunConfig: resampling applies only to "
                               "baseline pipelines; set resample=none for model lstm",
    "flag_net_no_embedding":
        "config error: invalid RunConfig: model contextual requires --embedding",
    "eval_net_no_embedding": "config error: net checkpoints need --embedding for evaluation",
    "train_no_manifest": "config error: a corpus manifest is required",
    "manifest_empty": "data error: {tmp}/empty.txt: manifest defines no groups",
    "net_max_len_0": "config error: invalid TweetPipeline: max_len must be >= 1, got 0",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_ends_in_one_line(corpus, tmp_path, case):
    expected, command, spec = MALFORMED[case]
    manifest = str(corpus / "manifest.txt")
    embedding = str(corpus / "glove_25d.txt")
    if command == "train_config":
        (tmp_path / "run.kv").write_text(
            f"task = account\nmodel = forest\nmanifest = {manifest}\n" + spec, encoding="utf-8"
        )
        argv = ["train", "--config", str(tmp_path / "run.kv"), "--out", str(tmp_path / "r")]
    elif command == "train_flags":
        argv = ["train", "--task", "account", "--model", "mlp", "--manifest", manifest,
                "--out", str(tmp_path / "r"), *spec]
    elif command == "manifest":
        key = spec.partition("=")[0]
        text, found = re.subn(f"^{re.escape(key)}=.*\n", lambda _: spec, _absolute_manifest(corpus),
                              count=1, flags=re.M)
        (tmp_path / "manifest.txt").write_text(text if found else text + spec, encoding="utf-8")
        argv = ["ingest", "--manifest", str(tmp_path / "manifest.txt")]
    elif command == "bench_config":
        (tmp_path / "bench.kv").write_text(
            f"default.manifest = {manifest}\nrow.forest.model = forest\n" + spec, encoding="utf-8"
        )
        argv = ["bench", "--config", str(tmp_path / "bench.kv"), "--out", str(tmp_path / "b")]
    elif command == "cli":
        rng = np.random.Generator(np.random.PCG64(0))
        matrix = FeatureMatrix(rng.standard_normal((20, 3)), ("a", "b", "c"), [0] * 14 + [1] * 6)
        lines = matrix_to_csv_lines(matrix)
        (tmp_path / "m.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for cell in ("nan", "inf", "1e300"):
            bad = [lines[0], cell + lines[1][lines[1].index(","):], *lines[2:]]
            (tmp_path / f"m_{cell}.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
        short = [*lines[:2], lines[2][:lines[2].rindex(",")], *lines[3:]]
        (tmp_path / "m_short.csv").write_text("\n".join(short) + "\n", encoding="utf-8")
        (tmp_path / "ff.txt").write_bytes(b"\xffa = b\n")
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        (tmp_path / "w2v.txt").write_text(
            "2 25\n" + (corpus / "glove_25d.txt").read_text(encoding="utf-8"), encoding="utf-8")
        argv = [arg.replace("{tmp}", str(tmp_path)).replace("{corpus}", str(corpus))
                for arg in spec]
    else:
        which, old, new, *extra = spec
        text = _checkpoint_texts(corpus, tmp_path)[which]
        if callable(new):
            (tmp_path / "bad.txt").write_text(text, encoding="utf-8")
            meta, arrays = load_model(tmp_path / "bad.txt")
            arrays[old] = new(arrays[old])
            save_model(tmp_path / "bad.txt", meta, arrays)
        else:
            text = _without_tensors(text, old) if new is None else _edit(text, old, new)
            (tmp_path / "bad.txt").write_text(text, encoding="utf-8")
        argv = [command, "--checkpoint", str(tmp_path / "bad.txt"), "--manifest", manifest,
                "--embedding", embedding, "--out", str(tmp_path / "o"), *extra]
    src = os.path.dirname(os.path.dirname(botdetect.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    before = _listing(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "botdetect.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == expected
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    if case.endswith("_not_utf8"):
        assert proc.stderr.startswith(f"data error: {tmp_path / 'ff.txt'}: 'utf-8' codec")
    if case.endswith("_repeated_key"):
        assert ": repeated key " in proc.stderr
    if case in MALFORMED_MESSAGES:
        assert proc.stderr == MALFORMED_MESSAGES[case].replace("{tmp}", str(tmp_path)) + "\n"
    assert not (tmp_path / "c").exists() and not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "d.kv").exists()
    # A failed command leaves no file or directory behind.
    assert _listing(tmp_path) == before


def _tokenize_stdin(data, env, *output):
    src = os.path.dirname(os.path.dirname(botdetect.__file__))
    env = {key: value for key, value in {**os.environ, **env, "PYTHONPATH": src}.items()
           if value is not None}
    return subprocess.run([sys.executable, "-m", "botdetect.cli", "tokenize", "--input", "-",
                           *output], input=data, capture_output=True, env=env, timeout=120)


# Stdin's decoding must not depend on how Python set sys.stdin up: UTF-8
# mode (PYTHONUTF8=1, the default in the C or POSIX locale) reads it with
# surrogateescape unless PYTHONIOENCODING says otherwise.
STDIN_ENVIRONMENTS = {
    "ioencoding_strict": {"PYTHONIOENCODING": "utf-8:strict"},
    "utf8_mode": {"PYTHONUTF8": "1", "PYTHONIOENCODING": None},
}
STDIN_NOT_UTF8 = ["data error: <stdin>: 'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte"]


def test_tokenize_stdin_that_is_not_utf8_is_named():
    proc = _tokenize_stdin(b"\xffa\n", STDIN_ENVIRONMENTS["ioencoding_strict"])
    assert proc.returncode == 3
    assert proc.stderr.decode().splitlines() == STDIN_NOT_UTF8


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output_file"])
def test_tokenize_stdin_that_is_not_utf8_is_named_in_utf8_mode(tmp_path, to_file):
    output = ["--output", str(tmp_path / "out.txt")] if to_file else []
    proc = _tokenize_stdin(b"\xffa b\n", STDIN_ENVIRONMENTS["utf8_mode"], *output)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == STDIN_NOT_UTF8
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("environment", sorted(STDIN_ENVIRONMENTS))
def test_tokenize_stdin_splits_lines_at_newline_only(environment):
    # CRLF ends a line with its "\r" kept, and a lone "\r" ends none; the
    # tokenizer reads "\r" as a space.
    proc = _tokenize_stdin(b"a b\r\nc\rd\n\r\nlast", STDIN_ENVIRONMENTS[environment])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"a b\nc d\n\nlast\n"


def test_absolute_manifest_reads_the_corpus(corpus, tmp_path, capsys):
    # The "manifest" cases above fail on their own line alone.
    (tmp_path / "manifest.txt").write_text(_absolute_manifest(corpus), encoding="utf-8")
    assert main(["ingest", "--manifest", str(tmp_path / "manifest.txt")]) == 0
    copied = capsys.readouterr().out
    assert main(["ingest", "--manifest", str(corpus / "manifest.txt")]) == 0
    assert copied == capsys.readouterr().out


# id -> (checkpoint, tensor, the edit that makes it unusable).
BAD_TENSORS = {
    "net_main_W_1_63": ("net", "main.W", lambda a: a[:, :63]),
    "forest_standardizer_9_wide": ("forest", "standardizer.mean", lambda a: a[:9]),
    "adaboost_stump_feature_12": ("adaboost", "stumps",
                                  lambda a: np.vstack([[12.0, *a[0, 1:]], a[1:]])),
}


@pytest.mark.parametrize("case", sorted(BAD_TENSORS))
def test_checkpoint_tensor_that_cannot_score_ends_in_one_line(corpus, tmp_path, capsys, case):
    which, name, change = BAD_TENSORS[case]
    path = tmp_path / "bad.txt"
    path.write_text(_checkpoint_texts(corpus, tmp_path)[which], encoding="utf-8")
    meta, arrays = load_model(path)
    arrays[name] = change(arrays[name])
    save_model(path, meta, arrays)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(path), "--manifest", str(corpus / "manifest.txt"),
                 "--embedding", str(corpus / "glove_25d.txt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith(f"data error: {path}: ")


def test_cyclic_tree_is_refused_on_load(corpus, tmp_path):
    # Scoring would walk from the root back to the root for ever.
    path = tmp_path / "forest.txt"
    path.write_text(_checkpoint_texts(corpus, tmp_path)["forest"], encoding="utf-8")
    meta, arrays = load_model(path)
    nodes = arrays["tree_000"].copy()
    assert nodes[0, 0] != -1.0  # the root splits
    nodes[0, 2:4] = 0.0
    arrays["tree_000"] = nodes
    with pytest.raises(DataError, match="tensor 'tree_000' cannot score 10-wide rows"):
        baselines.load_baseline(meta, arrays)


def _diverging_train_argv(corpus, out, model):
    # At this learning rate the first Adam step sends the weights to inf.
    return ["train", "--task", "tweet", "--model", model,
            "--manifest", str(corpus / "manifest.txt"),
            "--embedding", str(corpus / "glove_25d.txt"), "--embedding-dim", "25",
            "--epochs", "1", "--learning-rate", "1e300", "--out", str(out)]


@pytest.mark.parametrize("model", ["contextual", "lstm"])
def test_diverging_training_exits_4(corpus, tmp_path, model):
    src = os.path.dirname(os.path.dirname(botdetect.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = _diverging_train_argv(corpus, tmp_path / "r", model)
    proc = subprocess.run([sys.executable, "-m", "botdetect.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == ["error: loss is not finite at epoch 0, step 1"]


def test_failed_runs_leave_no_run_directory(corpus, tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["train", "--task", "account", "--model", "forest", "--n-trees", "4",
            "--manifest", str(corpus / "manifest.txt"), "--out", str(out)]
    assert main(argv) == 0
    (finished,) = [p.name for p in out.glob("run-*")]
    report = (out / "latest" / "report.kv").read_bytes()
    assert main([*argv, "--resample", "smote", "--target-ratio", "1e308"]) == 2
    assert main(_diverging_train_argv(corpus, out, "contextual")) == 4
    # Only the finished run is left, and `latest` still names it.
    assert [p.name for p in out.glob("run-*")] == [finished]
    assert os.readlink(out / "latest") == finished
    assert (out / "latest" / "report.kv").read_bytes() == report
    assert len(capsys.readouterr().err.splitlines()) == 2


def _one_class_corpus(corpus, tmp_path):
    """A manifest of the corpus's human group alone."""
    lines = _absolute_manifest(corpus).splitlines(keepends=True)
    (tmp_path / "human.txt").write_text(
        "".join(line for line in lines if not line.startswith("group.bot.")), encoding="utf-8")
    return str(tmp_path / "human.txt")


# id -> (exit code, argv), {tmp} being the test's directory, {corpus} the
# corpus, {one} a manifest of its human group and {net} a net checkpoint.
# Each fails after its checks of the command line, and must leave no --out.
FAILED_WITH_OUT = {
    "train_one_class": (3, ["train", "--task", "tweet", "--model", "lstm", "--manifest", "{one}",
                            "--embedding", "{corpus}/glove_25d.txt", "--out", "{tmp}/a/b/c"]),
    "inspect_tweet_index_999": (2, ["inspect", "--checkpoint", "{net}", "--manifest",
                                    "{corpus}/manifest.txt", "--embedding",
                                    "{corpus}/glove_25d.txt", "--tweet-index", "999",
                                    "--out", "{tmp}/a"]),
    "inspect_one_class": (3, ["inspect", "--checkpoint", "{net}", "--manifest", "{one}",
                              "--embedding", "{corpus}/glove_25d.txt", "--cell-state",
                              "--out", "{tmp}/a"]),
}


@pytest.mark.parametrize("case", sorted(FAILED_WITH_OUT))
def test_failed_command_leaves_no_out_directory(corpus, tmp_path, capsys, case):
    expected, spec = FAILED_WITH_OUT[case]
    (tmp_path / "net.txt").write_text(_checkpoint_texts(corpus, tmp_path)["net"],
                                      encoding="utf-8")
    names = {"tmp": tmp_path, "corpus": corpus, "net": tmp_path / "net.txt",
             "one": _one_class_corpus(corpus, tmp_path)}
    argv = [arg.format(**names) for arg in spec]
    assert main(argv) == expected
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "a").exists()


def _failing_save_model(path, meta, arrays):
    """A checkpoint writer whose disk fills after the first line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("botdetect-model v1\n")
    raise OSError(28, "No space left on device")


def test_write_that_fails_midway_leaves_nothing(corpus, tmp_path, capsys, monkeypatch):
    argv = ["train", "--task", "account", "--model", "forest", "--n-trees", "4",
            "--manifest", str(corpus / "manifest.txt")]
    out = tmp_path / "runs"
    assert main([*argv, "--out", str(out)]) == 0
    (finished,) = [p.name for p in out.glob("run-*")]
    monkeypatch.setattr(baselines, "save_model", _failing_save_model)
    assert main([*argv, "--out", str(out)]) == 3
    assert main([*argv, "--out", str(tmp_path / "a" / "b" / "c")]) == 3
    assert sorted(os.listdir(out)) == sorted([finished, "latest"])
    assert os.readlink(out / "latest") == finished
    assert not (tmp_path / "a").exists()
    assert capsys.readouterr().err.splitlines() == [
        "data error: [Errno 28] No space left on device"] * 2


def test_resample_output_that_is_a_directory_is_left_as_it_was(tmp_path, capsys):
    rng = np.random.Generator(np.random.PCG64(0))
    matrix = FeatureMatrix(rng.standard_normal((20, 3)), ("a", "b", "c"), [0] * 14 + [1] * 6)
    (tmp_path / "m.csv").write_text("\n".join(matrix_to_csv_lines(matrix)) + "\n",
                                    encoding="utf-8")
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "keep.txt").write_text("kept\n", encoding="utf-8")
    assert main(["resample", "--input", str(tmp_path / "m.csv"), "--output",
                 str(tmp_path / "o"), "--strategy", "smote"]) == 3
    assert os.listdir(tmp_path / "o") == ["keep.txt"]
    assert (tmp_path / "o" / "keep.txt").read_text(encoding="utf-8") == "kept\n"
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_inspect_out_holding_a_file_is_left_as_it_was(corpus, tmp_path, capsys):
    (tmp_path / "net.txt").write_text(_checkpoint_texts(corpus, tmp_path)["net"],
                                      encoding="utf-8")
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n", encoding="utf-8")
    assert main(["inspect", "--checkpoint", str(tmp_path / "net.txt"),
                 "--manifest", _one_class_corpus(corpus, tmp_path),
                 "--embedding", str(corpus / "glove_25d.txt"), "--cell-state",
                 "--out", str(out)]) == 3
    assert os.listdir(out) == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "mine\n"
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_bench_row_that_diverges_records_exit_4(corpus, tmp_path):
    bench = tmp_path / "diverge.kv"
    bench.write_text(
        "default.task = tweet\n"
        f"default.manifest = {corpus / 'manifest.txt'}\n"
        f"default.embedding = {corpus / 'glove_25d.txt'}\n"
        "default.embedding_dim = 25\n"
        "default.epochs = 1\n"
        "row.net.model = contextual\n"
        "row.net.learning_rate = 1e300\n",
        encoding="utf-8",
    )
    with np.errstate(all="ignore"):
        results = benchmark_suite(str(bench), str(tmp_path / "b"))
    assert results[0]["exit_code"] == 4
    assert results[0]["error"] == "loss is not finite at epoch 0; step 1"


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    root = tmp_path_factory.mktemp("seed0")
    assert main(["synth", "--out", str(root), "--seed", "0", "--accounts", "30",
                 "--embedding-dim", "25"]) == 0
    return root


def _huge_cell(corpus, out, rel, column):
    """A copy of corpus whose CSV rel holds 1e300 in column of its first row.
    The column comes after the tweet text, so it is counted from the end."""
    shutil.copytree(corpus, out)
    path = out / rel
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    names = header.split(",")
    parts = first.rsplit(",", len(names) - names.index(column))
    parts[1] = "1e300"
    path.write_text("\n".join([header, ",".join(parts), *rest]) + "\n", encoding="utf-8")
    return out


def _run_cli(argv):
    src = os.path.dirname(os.path.dirname(botdetect.__file__))
    return subprocess.run([sys.executable, "-m", "botdetect.cli", *map(str, argv)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)


def _huge_glove(seed0, tmp_path):
    """The seed-0 GloVe file with its first two vectors all 1e308: their
    sum, and so the unknown-token mean, overflows."""
    lines = (seed0 / "glove_25d.txt").read_text(encoding="utf-8").splitlines()
    for i in (0, 1):
        lines[i] = " ".join([lines[i].split()[0]] + ["1e308"] * 25)
    (tmp_path / "glove.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--manifest", seed0 / "manifest.txt", "--embedding", tmp_path / "glove.txt"]


# id -> argv (after `train` ... `--out`) for a float overflow that is finite in
# the input: each is a data error, and the run leaves no run directory.
HUGE_VALUES = {
    "account_forest_statuses_count_1e300": lambda seed0, tmp: [
        "--task", "account", "--model", "forest", "--n-trees", "4", "--manifest",
        _huge_cell(seed0, tmp / "c", "human/users.csv", "statuses_count") / "manifest.txt"],
    "contextual_retweet_count_1e300": lambda seed0, tmp: [
        "--task", "tweet", "--model", "contextual", "--epochs", "1", "--embedding-dim", "25",
        "--embedding", seed0 / "glove_25d.txt", "--manifest",
        _huge_cell(seed0, tmp / "c", "human/tweets.csv", "retweet_count") / "manifest.txt"],
    "lstm_glove_vectors_1e308": lambda seed0, tmp: [
        "--task", "tweet", "--model", "lstm", "--epochs", "1", "--embedding-dim", "25",
        *_huge_glove(seed0, tmp)],
}


@pytest.mark.parametrize("case", sorted(HUGE_VALUES))
def test_train_on_values_too_large_for_float64_ends_in_one_line(seed0, tmp_path, case):
    proc = _run_cli(["train", *HUGE_VALUES[case](seed0, tmp_path), "--out", tmp_path / "r"])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("data error: float arithmetic failed (")
    assert not list(tmp_path.glob("r/run-*"))


def test_bench_row_on_a_value_too_large_for_float64_records_exit_3(seed0, tmp_path):
    huge = _huge_cell(seed0, tmp_path / "c", "human/users.csv", "statuses_count")
    bench = tmp_path / "huge.kv"
    bench.write_text(
        "default.task = account\n"
        "default.model = forest\n"
        "default.n_trees = 4\n"
        f"row.huge.manifest = {huge / 'manifest.txt'}\n"
        f"row.clean.manifest = {seed0 / 'manifest.txt'}\n",
        encoding="utf-8",
    )
    proc = _run_cli(["bench", "--config", bench, "--out", tmp_path / "b"])
    # bench exits with its first failed row's code, and the suite goes on.
    assert proc.returncode == 3
    assert proc.stderr == ""
    header, huge_row, clean_row = (tmp_path / "b" / "bench.csv").read_text().splitlines()
    row = dict(zip(header.split(","), huge_row.split(",")))
    assert row["status"] == "error"
    assert row["error"].startswith("float arithmetic failed (")
    assert dict(zip(header.split(","), clean_row.split(",")))["status"] == "ok"
    assert not list(tmp_path.glob("b/rows/huge/run-*"))
    assert len(list(tmp_path.glob("b/rows/clean/run-*"))) == 1


def test_inspect_warns_on_pipeline_mismatch(corpus, tmp_path, capsys):
    net_text = _checkpoint_texts(corpus, tmp_path)["net"]
    common = ["--manifest", str(corpus / "manifest.txt"),
              "--embedding", str(corpus / "glove_25d.txt"), "--out", str(tmp_path / "o")]
    good = tmp_path / "good.txt"
    good.write_text(net_text, encoding="utf-8")
    assert main(["inspect", "--checkpoint", str(good), *common]) == 0
    assert "warning" not in capsys.readouterr().err
    stale = tmp_path / "stale.txt"
    stale.write_text(_edit(net_text, "meta max_len = 30", "meta max_len = 20"),
                     encoding="utf-8")
    assert main(["inspect", "--checkpoint", str(stale), *common]) == 0
    assert "differs from training" in capsys.readouterr().err



def test_inspect_cell_state_runs_the_lstm_once_for_the_traced_tweet(corpus, tmp_path,
                                                                     monkeypatch):
    checkpoint = tmp_path / "net.txt"
    checkpoint.write_text(_checkpoint_texts(corpus, tmp_path)["net"], encoding="utf-8")
    batches = []
    original = lstm.lstm_forward

    def counted(params, ids, lengths, matrix, keep_cache=False):
        batches.append(len(ids))
        return original(params, ids, lengths, matrix, keep_cache)

    # Every botdetect name bound to the recurrence is rebound, as a tracer does.
    for name, module in list(sys.modules.items()):
        if name.startswith("botdetect") and getattr(module, "lstm_forward", None) is original:
            monkeypatch.setattr(module, "lstm_forward", counted)
    out = tmp_path / "ins"
    assert main(["inspect", "--checkpoint", str(checkpoint), "--manifest",
                 str(corpus / "manifest.txt"), "--embedding", str(corpus / "glove_25d.txt"),
                 "--out", str(out), "--tweet-index", "7", "--cell-state"]) == 0
    # The traced tweet's one batch-1 run, then the corpus's one batch.
    assert len(batches) == 2 and batches[0] == 1 < batches[1]
    assert (out / "trace_7.csv").exists() and (out / "cell_trace_7.csv").exists()


def test_vocab_capped_checkpoint_scores_through_training_pipeline(corpus, tmp_path, capsys):
    embedding = str(corpus / "glove_25d.txt")
    common = ["--manifest", str(corpus / "manifest.txt"), "--embedding", embedding]
    assert main(["train", "--task", "tweet", "--model", "lstm", "--vocab-cap", "50",
                 "--embedding-dim", "25", "--epochs", "1", "--seed", "2",
                 "--out", str(tmp_path / "runs"), *common]) == 0
    checkpoint = str(tmp_path / "runs" / "latest" / "model.txt")
    meta, arrays = load_model(checkpoint)
    kept = meta["vocabulary"].split()
    assert 0 < len(kept) <= 50
    _, pipeline = _load_net(checkpoint, meta, arrays, embedding)
    assert list(pipeline.table.vocabulary) == kept
    assert pipeline.fingerprint() == meta["pipeline_hash"]
    capsys.readouterr()
    assert main(["eval", "--checkpoint", checkpoint, *common]) == 0
    assert main(["inspect", "--checkpoint", checkpoint, "--out", str(tmp_path / "ins"),
                 *common]) == 0
    assert "warning" not in capsys.readouterr().err


def test_train_flags_keep_their_spellings():
    parser = build_parser()
    train = parser._subparsers._group_actions[0].choices["train"]
    flags = {s for action in train._actions for s in action.option_strings}
    assert flags == {
        "-h", "--help", "--config", "--task", "--model", "--manifest", "--out", "--seed",
        "--resample", "--smote-k", "--enn-k", "--target-ratio", "--train-fraction",
        "--stratified", "--no-stratified", "--group-by-account", "--threshold",
        "--embedding", "--embedding-dim", "--max-len", "--truncation", "--vocab-cap",
        "--repeat-tag", "--epochs", "--batch-size", "--learning-rate", "--val-fraction",
        "--mlp-layers", "--n-trees", "--n-stumps", "--logreg-epochs",
    }


@pytest.mark.parametrize("command, record", [("resample", ResampleConfig),
                                             ("synth", SyntheticCorpusSpec)])
def test_record_flags_are_named_typed_and_defaulted_by_their_record(command, record):
    """Each field has a flag of its own name, which argparse neither types
    nor defaults: `from_strings` types it, and the record holds the only
    default."""
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    actions = {action.dest: action for action in sub._actions}
    for name in record._fields:
        action = actions[name]
        assert action.option_strings == ["--" + name.replace("_", "-")]
        assert (action.type, action.default, action.choices) == (None, None, None)
