"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 8 needs the real
corpus; it is skipped with a notice when the data is not present (point the
BOTDETECT_CRESCI2017 environment variable at the dataset root).
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from botdetect import baselines
from botdetect.baselines import BaselineConfig, BaselineKind
from botdetect.cli import NET_CONFIGS, RunConfig, run_experiment
from botdetect.data import (
    ACCOUNT_FEATURE_COLUMNS,
    FeatureMatrix,
    Label,
    SplitSpec,
    split_indices,
)
from botdetect.embedding import TweetPipeline, fixture_table
from botdetect.ingest import (
    CorpusManifest,
    ManifestGroup,
    SyntheticCorpusSpec,
    generate_synthetic,
    load_corpus,
    write_corpus,
)
from botdetect.introspect import trace_tweet, unit_distributions
from botdetect.metrics import auc, confusion_at
from botdetect.nnet.model import ContextualLstmModel, NetConfig, train
from botdetect.nnet.layers import bce
from botdetect.resample import ResampleConfig, Strategy, apply_strategy, smote, \
    enn_filter, tomek_links
from botdetect.tokenizer import tokenize

from gradcheck import check_gradients
from golden_tokenizer import GOLDEN_CASES, REPEAT_CASES, REPEAT_OFF_CASES
from helpers import embedded, split
from oracles import brute_enn_keep, brute_tomek, is_convex_combination, pair_auc


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


def _random_labeled_matrix(seed, max_n=60, max_d=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(12, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    features = rng.standard_normal((n, d)) * rng.uniform(0.5, 20.0, size=d)
    labels = rng.integers(0, 2, n).astype(np.int8)
    labels[:3] = 1
    labels[-3:] = 0
    return FeatureMatrix(features, tuple(f"c{i}" for i in range(d)), labels)


def test_criterion_1_tokenizer_golden_suite():
    with criterion(1, "tokenizer golden suite (40+ cases, < 1 s)"):
        started = time.monotonic()
        for text, expected in GOLDEN_CASES:
            assert tokenize(text) == expected, f"case {text!r}"
        for text, expected in REPEAT_CASES:
            assert tokenize(text, repeat_tag=True) == expected, f"repeat case {text!r}"
        for text, expected in REPEAT_OFF_CASES:
            assert tokenize(text) == expected, f"repeat-off case {text!r}"
        elapsed = time.monotonic() - started
        assert len(GOLDEN_CASES) >= 40
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_resampling_oracles():
    with criterion(2, "tomek/enn match brute force; SMOTE rows convex (< 10 s)"):
        started = time.monotonic()
        for seed in range(25):
            matrix = _random_labeled_matrix(1000 + seed)
            assert tomek_links(matrix) == brute_tomek(matrix), f"tomek seed {seed}"
            got = enn_filter(matrix, 3)
            want = matrix.select(brute_enn_keep(matrix, 3))
            assert np.array_equal(got.features, want.features), f"enn seed {seed}"
            assert np.array_equal(got.labels, want.labels)
            config = ResampleConfig(strategy=Strategy.SMOTE, smote_k=2, seed=seed)
            oversampled = smote(matrix, config)
            human, bot = matrix.class_counts()
            minority = Label.BOT if bot <= human else Label.HUMAN
            originals = matrix.features[matrix.labels == minority]
            for row in oversampled.features[matrix.n_rows:]:
                assert is_convex_combination(row, originals, tol=1e-9), f"seed {seed}"
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_3_auc_oracle():
    with criterion(3, "trapezoidal AUC matches pair counting; monotone-invariant"):
        for seed in range(100):
            rng = np.random.Generator(np.random.PCG64(2000 + seed))
            n = int(rng.integers(4, 51))
            labels = rng.integers(0, 2, n).astype(np.int8)
            labels[0], labels[1] = 0, 1
            scores = np.round(rng.uniform(size=n), 2)
            value = auc(scores, labels)
            assert abs(value - pair_auc(scores, labels)) <= 1e-9, f"seed {seed}"
            # Strictly monotone transforms preserve ranks, hence the AUC.
            assert auc(3.0 * scores - 1.0, labels) == value
            assert auc(scores**3, labels) == value


def test_criterion_4_gradient_verification():
    with criterion(4, "contextual LSTM gradients vs central differences (< 60 s)"):
        started = time.monotonic()
        worst = 0.0
        for batch in range(5):
            rng = np.random.Generator(np.random.PCG64(3000 + batch))
            config = NetConfig(embedding_dim=25, seed=4000 + batch)
            model = ContextualLstmModel.initialize(config)
            matrix, ids = embedded(rng.standard_normal((3, 6, 25)).transpose(1, 0, 2))
            lengths = np.array([6, int(rng.integers(2, 6)), int(rng.integers(1, 4))])
            metadata = rng.standard_normal((3, 6))
            targets = rng.integers(0, 2, 3).astype(np.float64)
            w_main, w_aux = config.loss_weights

            def loss_fn():
                main, aux, _, _ = model.forward_batch(matrix, ids, lengths, metadata)
                return w_main * bce(main, targets) + w_aux * bce(aux, targets)

            main, aux, _, cache = model.forward_batch(matrix, ids, lengths, metadata,
                                                      keep_cache=True)
            grads = model.backward_batch(cache, main, aux, targets)
            errors = check_gradients(
                loss_fn, model.params, grads, seed=batch, eps=1e-5,
                coords_per_group=512,
            )
            assert set(errors) == set(model.params)  # every group covered
            worst = max(worst, max(errors.values()))
        elapsed = time.monotonic() - started
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _tweet_dataset(spec, table, max_len=30):
    """(ids, lengths, metadata, labels) arrays of a synthetic corpus."""
    _, tweets = generate_synthetic(spec)
    ids, lengths, metadata = TweetPipeline(table, max_len).tensors(tweets)
    labels = np.array([t.label for t in tweets], dtype=np.int8)
    return ids, lengths, metadata, labels


def test_criterion_5_loss_identity():
    with criterion(5, "total loss = 0.8*main + 0.2*aux at every step (1e-12)"):
        spec = SyntheticCorpusSpec(30, 4, seed=50, separation=0.6)
        vocab = set()
        _, tweets = generate_synthetic(spec)
        for tweet in tweets:
            vocab.update(tokenize(tweet.text))
        table = fixture_table(vocab, 25, seed=51)
        dataset = _tweet_dataset(spec, table)
        config = NetConfig(embedding_dim=25, epochs=10, batch_size=32, seed=52)
        _, trace = train(config, table.matrix, dataset)
        assert trace.steps, "no steps recorded"
        assert len({epoch for epoch, *_ in trace.steps}) == 10
        for epoch, step, main, aux, total in trace.steps:
            assert abs(total - (0.8 * main + 0.2 * aux)) <= 1e-12, f"step {epoch}/{step}"
        for record in trace.epochs:
            assert abs(record.total_loss
                       - (0.8 * record.main_loss + 0.2 * record.aux_loss)) <= 1e-12


def test_criterion_6_tweet_level_desk_benchmark():
    with criterion(6, "contextual >= tweet-only - 0.01 and both >= 0.90 AUC (3 seeds)"):
        started = time.monotonic()
        contextual_aucs, tweet_only_aucs = [], []
        for seed in (0, 1, 2):
            spec = SyntheticCorpusSpec(50, 10, seed=600 + seed, separation=0.8)
            _, tweets = generate_synthetic(spec)
            vocab = set()
            for tweet in tweets:
                vocab.update(tokenize(tweet.text))
            table = fixture_table(vocab, 25, seed=700 + seed)
            dataset = _tweet_dataset(spec, table)
            labels = dataset[3]
            train_idx, test_idx = split_indices(labels, SplitSpec(0.8, True, seed))
            fit_set = tuple(a[train_idx] for a in dataset)
            test_ids, test_lengths, test_meta, _ = (a[test_idx] for a in dataset)
            for variant, bucket in (
                (NET_CONFIGS["contextual"], contextual_aucs),
                (NET_CONFIGS["lstm"], tweet_only_aucs),
            ):
                config = NetConfig(embedding_dim=25, epochs=12, batch_size=64, seed=seed,
                                   **variant)
                model, _ = train(config, table.matrix, fit_set)
                scores = model.predict_proba(table.matrix, test_ids, test_lengths, test_meta)
                bucket.append(auc(scores, labels[test_idx]))
        mean_ctx = float(np.mean(contextual_aucs))
        mean_tweet = float(np.mean(tweet_only_aucs))
        elapsed = time.monotonic() - started
        print(f"  contextual {mean_ctx:.4f} tweet-only {mean_tweet:.4f} ({elapsed:.0f}s)")
        assert mean_ctx >= 0.90, f"contextual mean AUC {mean_ctx:.4f}"
        assert mean_tweet >= 0.90, f"tweet-only mean AUC {mean_tweet:.4f}"
        assert mean_ctx >= mean_tweet - 0.01
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def _overlapping_accounts(seed, n_bot=120, ratio=4, d=4, delta=1.1):
    rng = np.random.Generator(np.random.PCG64(seed))
    shift = np.full(d, delta / np.sqrt(d))
    humans = rng.standard_normal((n_bot * ratio, d)) - shift / 2.0
    bots = rng.standard_normal((n_bot, d)) + shift / 2.0
    features = np.vstack([humans, bots])
    labels = np.array([0] * len(humans) + [1] * len(bots), dtype=np.int8)
    return FeatureMatrix(features, tuple(f"f{i}" for i in range(d)), labels)


def _bot_recall(model, matrix):
    scores = baselines.predict_proba(model, matrix)
    tp, _, fn, _ = confusion_at(scores, matrix.labels)
    return tp / (tp + fn)


def test_criterion_7_account_level_desk_benchmark():
    with criterion(7, "SMOTENN lifts bot recall of every baseline by >= 0.05 (5 seeds)"):
        started = time.monotonic()
        gains = {}
        for kind in BaselineKind:
            plain, resampled = [], []
            for seed in range(5):
                train_matrix = _overlapping_accounts(7000 + 2 * seed)
                test_matrix = _overlapping_accounts(7001 + 2 * seed)
                config = BaselineConfig(
                    seed=seed, mlp_layers=(64, 32, 1), mlp_epochs=40
                )
                model = baselines.fit(kind, train_matrix, config)
                plain.append(_bot_recall(model, test_matrix))
                balanced, _ = apply_strategy(
                    train_matrix,
                    ResampleConfig(strategy=Strategy.SMOTENN, seed=seed),
                )
                model = baselines.fit(kind, balanced, config)
                resampled.append(_bot_recall(model, test_matrix))
            print(f"  {kind.value:8s} bot recall plain {np.mean(plain):.4f} "
                  f"smotenn {np.mean(resampled):.4f}")
            gains[kind.value] = float(np.mean(resampled) - np.mean(plain))
        elapsed = time.monotonic() - started
        summary = " ".join(f"{k}:{v:+.3f}" for k, v in gains.items())
        print(f"  recall gains {summary} ({elapsed:.0f}s)")
        for kind, gain in gains.items():
            assert gain >= 0.05, f"{kind} gained only {gain:+.3f}"
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


CRESCI_GROUPS = (
    ("genuine_accounts", "human"),
    ("social_spambots_1", "bot"),
    ("social_spambots_2", "bot"),
    ("social_spambots_3", "bot"),
)


def _cresci_root():
    root = os.environ.get("BOTDETECT_CRESCI2017", "")
    if root and all(
        os.path.isfile(os.path.join(root, name, "users.csv"))
        for name, _ in CRESCI_GROUPS
    ):
        return root
    return None


def test_criterion_8_real_corpus_conditional():
    root = _cresci_root()
    if root is None:
        print("[criterion  8] SKIP  real corpus not present "
              "(set BOTDETECT_CRESCI2017 to the dataset root)")
        pytest.skip("cresci-2017 corpus not available")
    with criterion(8, "real corpus: forest AUC >= 0.95; adaboost+SMOTENN >= forest"):
        groups = tuple(
            ManifestGroup(
                name=name,
                path=os.path.join(root, name),
                label=Label.BOT if label == "bot" else Label.HUMAN,
            )
            for name, label in CRESCI_GROUPS
        )
        accounts, _, _ = load_corpus(CorpusManifest(groups=groups))
        features = np.array([a.features for a in accounts], dtype=np.float64)
        labels = np.array([a.label for a in accounts], dtype=np.int8)
        matrix = FeatureMatrix(features, ACCOUNT_FEATURE_COLUMNS, labels)
        train_matrix, test_matrix = split(matrix, SplitSpec(0.8, True, 0))

        forest = baselines.fit(BaselineKind.FOREST, train_matrix, BaselineConfig(seed=0))
        forest_auc = auc(baselines.predict_proba(forest, test_matrix), test_matrix.labels)

        balanced, _ = apply_strategy(
            train_matrix, ResampleConfig(strategy=Strategy.SMOTENN, seed=0)
        )
        boosted = baselines.fit(BaselineKind.ADABOOST, balanced, BaselineConfig(seed=0))
        boosted_auc = auc(baselines.predict_proba(boosted, test_matrix), test_matrix.labels)

        print(f"  forest none {forest_auc:.4f}; adaboost smotenn {boosted_auc:.4f}")
        assert forest_auc >= 0.95
        assert boosted_auc >= forest_auc


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical config+seed reproduces report and checkpoint bytes"):
        corpus_dir = tmp_path / "corpus"
        spec = SyntheticCorpusSpec(25, 6, seed=90, separation=0.9)
        accounts, tweets = generate_synthetic(spec)
        manifest_path = write_corpus(accounts, tweets, corpus_dir)
        vocab = set()
        for tweet in tweets:
            vocab.update(tokenize(tweet.text))
        from botdetect.embedding import write_glove_file

        table = fixture_table(vocab, 25, seed=91)
        glove_path = corpus_dir / "glove.txt"
        write_glove_file(table, glove_path)

        configs = [
            RunConfig(task="account", model="logreg", manifest=str(manifest_path),
                      out_dir=str(tmp_path / "acct"), seed=9, logreg_epochs=120,
                      resample="smotenn"),
            RunConfig(task="tweet", model="contextual", manifest=str(manifest_path),
                      out_dir=str(tmp_path / "net"), seed=9, epochs=3,
                      embedding=str(glove_path), embedding_dim=25),
        ]
        for config in configs:
            first = run_experiment(config)
            second = run_experiment(config)
            for name in ("report.kv", "model.txt"):
                bytes_a = open(os.path.join(first.run_dir, name), "rb").read()
                bytes_b = open(os.path.join(second.run_dir, name), "rb").read()
                assert bytes_a == bytes_b, f"{config.model}: {name} differs"


def test_criterion_10_introspection_conservation():
    with criterion(10, "histogram mass = class counts; traces match forward states"):
        spec = SyntheticCorpusSpec(20, 5, seed=100, separation=0.7)
        _, tweets = generate_synthetic(spec)
        vocab = set()
        for tweet in tweets:
            vocab.update(tokenize(tweet.text))
        table = fixture_table(vocab, 25, seed=101)
        ids, lengths, metadata = TweetPipeline(table).tensors(tweets)
        labels = np.array([t.label for t in tweets])
        config = NetConfig(embedding_dim=25, epochs=2, batch_size=32, seed=102)
        model, _ = train(config, table.matrix, (ids, lengths, metadata, labels))

        report = unit_distributions(model, TweetPipeline(table), tweets)
        n_human = sum(1 for t in tweets if t.label == Label.HUMAN)
        n_bot = len(tweets) - n_human
        for dist in report.distributions:
            expected = n_human if dist.label == Label.HUMAN else n_bot
            assert int(dist.counts.sum()) == expected

        for i, tweet in enumerate(tweets[:25]):
            trace = trace_tweet(model, TweetPipeline(table), tweet)
            _, _, hidden, cells = model.forward(table.matrix, ids[i], lengths[i],
                                                np.array(tweet.metadata, dtype=np.float64))
            assert np.array_equal(trace.matrix, hidden) and np.array_equal(trace.cells, cells)
