"""The benchmark's three workloads: inputs made from the seed, the CLI
commands of one job, and the checks on a job's outputs.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

from botdetect.cli import main as cli_main
from botdetect.data import Label, SplitSpec, split_indices
from botdetect.embedding import fixture_table, write_glove_file
from botdetect.ingest import SyntheticCorpusSpec, generate_synthetic, write_corpus
from botdetect.tokenizer import tokenize

EMBEDDING_DIM = 50
EMBEDDING_FILE = f"glove_{EMBEDDING_DIM}d.txt"
# At 0.25 test AUC is about 0.998; 0.15 keeps it near 0.97 so it can fall.
TWEET_SEPARATION = 0.15
# Classes must overlap so that ENN edits rows and the forest grows deep trees:
# at 0.25 ENN removes nothing and the forest fits in 0.14 s; at 0.04 ENN
# removes about 12 rows. At 0.02 ENN removes about 130 rows, trees hold about
# 230 nodes, and the forest's bot recall (about 0.7) varies less between
# seeds than at 0.01 (about 0.23).
ACCOUNT_SEPARATION = 0.02
# account-table tests on 40% of the accounts, so that bot recall rests on
# about 160 test bots and varies less between seeds.
ACCOUNT_TRAIN_FRACTION = 0.6
# The CLI's defaults, needed to count the rows a job trains on.
TRAIN_FRACTION = 0.8
VAL_FRACTION = 0.1
# Jobs write here, relative to the set-up directory. Every job uses the same
# path, because run configs (and so report bytes) echo their output path.
JOB_OUT = "job"


@dataclass(frozen=True)
class Size:
    accounts_per_class: int  # tweet-train corpus
    scored_accounts_per_class: int  # tweet-score corpora
    tweets_per_account: int
    epochs: int
    humans: int  # account-table corpus
    bots: int


# tweet-score scores 1,000 tweets and account-table holds 2,400 accounts, so
# that a job takes 2 to 5 s and a run holds enough jobs for a steady median.
SIZES = {
    "full": Size(accounts_per_class=200, scored_accounts_per_class=50,
                 tweets_per_account=10, epochs=2, humans=2000, bots=400),
    "tiny": Size(accounts_per_class=12, scored_accounts_per_class=12,
                 tweets_per_account=5, epochs=1, humans=150, bots=30),
}


@dataclass(frozen=True)
class Inputs:
    """What set-up wrote, and the job it was written for. Paths are relative
    to the set-up directory, which is the job's working directory."""

    files: tuple[str, ...]  # must be byte-identical across set-ups
    commands: list[list[str]]  # argv for each `botdetect` command of a job
    items: int  # work units per job, the numerator of items_per_s


@dataclass
class Outcome:
    """A job's checked outputs; `check` raises CheckFailed instead."""

    auc_min: float
    recall_min: float
    artifacts: dict[str, bytes]  # compared byte for byte across repetitions


class CheckFailed(Exception):
    pass


def _tweet_corpus(seed, accounts_per_class, size):
    spec = SyntheticCorpusSpec(accounts_per_class, size.tweets_per_account,
                               seed, TWEET_SEPARATION)
    return generate_synthetic(spec)


def _write_embeddings(root, tweet_sets, seed) -> None:
    vocab = set()
    for tweets in tweet_sets:
        for tweet in tweets:
            vocab.update(tokenize(tweet.text))
    write_glove_file(fixture_table(vocab, EMBEDDING_DIM, seed=seed),
                     os.path.join(root, EMBEDDING_FILE))


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CheckFailed(f"missing output {path}") from exc


def _kv(path) -> dict[str, str]:
    values = {}
    for line in _read(path).decode("utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    return values


def _report(path) -> tuple[float, float]:
    values = _kv(path)
    try:
        return float(values["auc"]), float(values["recall"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{path} lacks auc or recall") from exc


def _train_argv(corpus, seed, size, out) -> list[str]:
    return ["train", "--task", "tweet", "--model", "contextual",
            "--manifest", f"{corpus}/manifest.txt", "--embedding", EMBEDDING_FILE,
            "--embedding-dim", str(EMBEDDING_DIM), "--epochs", str(size.epochs),
            "--seed", str(seed), "--out", out]


class TweetTrain:
    """Contextual LSTM training on one synthetic tweet corpus."""

    name = "tweet-train"

    def setup(self, root, seed, size) -> Inputs:
        accounts, tweets = _tweet_corpus(seed, size.accounts_per_class, size)
        write_corpus(accounts, tweets, os.path.join(root, "corpus"))
        _write_embeddings(root, [tweets], seed)
        labels = [t.label for t in tweets]
        train, _ = split_indices(labels, SplitSpec(TRAIN_FRACTION, True, seed))
        fit, _ = split_indices([labels[i] for i in train],
                               SplitSpec(1.0 - VAL_FRACTION, True, seed))
        return Inputs(
            files=("corpus/manifest.txt", "corpus/human/tweets.csv",
                   "corpus/bot/tweets.csv", EMBEDDING_FILE),
            commands=[_train_argv("corpus", seed, size, JOB_OUT)],
            items=len(fit) * size.epochs,
        )

    def check(self, out) -> Outcome:
        run = os.path.join(out, "latest")
        auc, recall = _report(os.path.join(run, "report.kv"))
        return Outcome(auc, recall, {
            "report.kv": _read(os.path.join(run, "report.kv")),
            "model.txt": _read(os.path.join(run, "model.txt")),
        })


BENCH_ROWS = (("adaboost_smotenn", "adaboost", "smotenn"), ("forest", "forest", "none"))


def _forest_node_counts(model_text: bytes) -> list[int]:
    """Node count of every stored tree, read from the tensor headers."""
    counts = []
    for line in model_text.decode("utf-8").splitlines():
        if line.startswith("tensor tree_"):
            counts.append(int(line.split()[3]))
    return counts


class AccountTable:
    """The paper's account-level comparison on an imbalanced corpus, via
    `botdetect bench`: AdaBoost after SMOTENN, and a plain random forest."""

    name = "account-table"

    def setup(self, root, seed, size) -> Inputs:
        spec = SyntheticCorpusSpec(size.humans, 1, seed, ACCOUNT_SEPARATION)
        accounts, tweets = generate_synthetic(spec)
        # `synth` writes balanced corpora; keep the first bots for a 1:5 mix.
        bots = [a.account_id for a in accounts if a.label == Label.BOT][: size.bots]
        keep = {a.account_id for a in accounts if a.label == Label.HUMAN} | set(bots)
        accounts = [a for a in accounts if a.account_id in keep]
        tweets = [t for t in tweets if t.account_id in keep]
        write_corpus(accounts, tweets, os.path.join(root, "corpus"))
        lines = ["default.task = account", "default.manifest = corpus/manifest.txt",
                 f"default.seed = {seed}", f"default.train_fraction = {ACCOUNT_TRAIN_FRACTION}"]
        for row, model, resample in BENCH_ROWS:
            lines += [f"row.{row}.model = {model}", f"row.{row}.resample = {resample}"]
        with open(os.path.join(root, "bench.kv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        train, _ = split_indices([a.label for a in accounts],
                                 SplitSpec(ACCOUNT_TRAIN_FRACTION, True, seed))
        return Inputs(
            files=("corpus/manifest.txt", "corpus/human/users.csv",
                   "corpus/bot/users.csv", "bench.kv"),
            commands=[["bench", "--config", "bench.kv", "--out", JOB_OUT]],
            items=len(train) * len(BENCH_ROWS),
        )

    def check(self, out) -> Outcome:
        lines = _read(os.path.join(out, "bench.csv")).decode("utf-8").splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            if row.get("status") != "ok":
                raise CheckFailed(f"bench row {row.get('name')} failed: {row.get('error')}")
        aucs, recalls, artifacts = [], [], {}
        for row, _, _ in BENCH_ROWS:
            run = os.path.join(out, "rows", row, "latest")
            auc, recall = _report(os.path.join(run, "report.kv"))
            aucs.append(auc)
            recalls.append(recall)
            for name in ("report.kv", "model.txt"):
                artifacts[f"{row}/{name}"] = _read(os.path.join(run, name))
        resample = _kv(os.path.join(out, "rows", "adaboost_smotenn", "latest", "resample.kv"))
        if int(resample.get("stage.enn.removed", "0")) == 0:
            raise CheckFailed("ENN removed no rows")
        if max(_forest_node_counts(artifacts["forest/model.txt"]), default=0) <= 3:
            raise CheckFailed("the forest grew only single-split trees")
        return Outcome(min(aucs), min(recalls), artifacts)


class TweetScore:
    """Scoring a saved checkpoint on a fresh corpus: `eval`, then `inspect`."""

    name = "tweet-score"

    def setup(self, root, seed, size) -> Inputs:
        train_accounts, train_tweets = _tweet_corpus(seed, size.scored_accounts_per_class, size)
        write_corpus(train_accounts, train_tweets, os.path.join(root, "train"))
        accounts, tweets = _tweet_corpus(seed + 1, size.scored_accounts_per_class, size)
        write_corpus(accounts, tweets, os.path.join(root, "fresh"))
        _write_embeddings(root, [train_tweets, tweets], seed)
        # Train from inside `root` with relative paths, as the jobs run: the
        # checkpoint then holds the same config hash whichever set-up made it.
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(_train_argv("train", seed, size, "checkpoint"))
        finally:
            os.chdir(cwd)
        if code:
            raise RuntimeError(f"training the checkpoint exited with {code}")
        common = ["--checkpoint", "checkpoint/latest/model.txt",
                  "--manifest", "fresh/manifest.txt", "--embedding", EMBEDDING_FILE]
        return Inputs(
            files=("fresh/manifest.txt", "fresh/human/tweets.csv",
                   "fresh/bot/tweets.csv", EMBEDDING_FILE, "checkpoint/latest/model.txt"),
            commands=[["eval", *common, "--out", f"{JOB_OUT}/eval"],
                      ["inspect", *common, "--out", f"{JOB_OUT}/inspect"]],
            items=len(tweets),
        )

    def check(self, out) -> Outcome:
        auc, recall = _report(os.path.join(out, "eval", "report.kv"))
        return Outcome(auc, recall, {
            "report.kv": _read(os.path.join(out, "eval", "report.kv")),
            "distributions.csv": _read(os.path.join(out, "inspect", "distributions.csv")),
            "ks.csv": _read(os.path.join(out, "inspect", "ks.csv")),
        })


WORKLOADS = {w.name: w for w in (TweetTrain(), AccountTable(), TweetScore())}
