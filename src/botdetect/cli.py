"""Operator-facing command line: ingest, tokenize, resample, train, eval,
inspect, bench, and synth.

Every experiment is fully described by a RunConfig; config files, bench
rows and each flag that fills a record field are all typed by
`config.from_strings`, and RunConfig checks itself when built, before any
file is read. Artifacts land in a timestamped run directory and each
artifact file carries the config hash. Every command but `synth` (which
checks all its flags before its first write) works out all its files first
and writes them through `_write_files`, so a failed command leaves no file or
directory it created; the `latest` link moves only once a run has written its
last artifact. Artifact contents contain no wall-clock data, so a rerun with
an identical config and seed reproduces them byte for byte. `eval` and
`inspect` parse a checkpoint once and rebuild training's `TweetPipeline` from
it, warning when the embedding or tokenizer settings differ.

Each command imports the layer modules its own path needs inside its
handler, so scoring a net loads no baseline or resampler and an account run
loads no LSTM, tokenizer or embedding code.

Exit codes: 0 success, 2 config error, 3 data error, 4 training failure.
Each command, and each bench row, runs with float overflow and invalid
values raised. Outside a training step or validation pass (a training
failure), such an error is a data error: numbers too large for float64
arithmetic come from an input, such as a count, an embedding vector or a
checkpoint's weights.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from .config import from_strings, to_strings
from .data import (
    ACCOUNT_FEATURE_COLUMNS,
    CANONICAL_DIMENSIONS,
    CHECKPOINT_KINDS,
    TWEET_METADATA_COLUMNS,
    BaselineKind,
    FeatureMatrix,
    ResampleConfig,
    SplitSpec,
    Strategy,
    Task,
    Truncation,
    checked,
    matrix_from_csv_lines,
    matrix_to_csv_lines,
    split_indices,
)
from .errors import BotDetectError, ConfigError, DataError, float_errors, text_file
from .ingest import (
    SyntheticCorpusSpec,
    generate_synthetic,
    load_corpus,
    parse_manifest,
    read_kv_file,
    write_corpus,
)
from .metrics import EvalReport, evaluate

# The tweet-level net models, by RunConfig.model: the NetConfig values that
# set each apart.
NET_CONFIGS = {"lstm": {"use_metadata": False, "use_aux": False, "loss_weights": (1.0, 0.0)},
               "contextual": {}}
MODELS = (*(kind.value for kind in BaselineKind), *NET_CONFIGS)
# The data error of a float overflow or invalid value (see above).
FLOAT_ERROR = "float arithmetic failed ({})"


@checked
class RunConfig(NamedTuple):
    """Everything an experiment needs; flags and config files both map here."""

    task: Task = Task.ACCOUNT
    model: str = "forest"  # one of MODELS
    manifest: str = ""
    out_dir: str = "runs"
    seed: int = 0
    resample: Strategy = Strategy.NONE
    smote_k: int = 5
    enn_k: int = 3
    target_ratio: float = 1.0
    train_fraction: float = 0.8
    stratified: bool = True
    group_by_account: bool = False
    threshold: float = 0.5
    embedding: str = ""
    embedding_dim: int = 25
    max_len: int = 30
    truncation: Truncation = Truncation.TAIL
    vocab_cap: int = 0  # 0 = no vocabulary cap
    repeat_tag: bool = False
    epochs: int = 0  # 0 = model default
    batch_size: int = 64
    learning_rate: float = 1e-3
    val_fraction: float = 0.1
    mlp_layers: tuple[int, ...] = (500, 200, 1)
    n_trees: int = 100
    n_stumps: int = 100
    logreg_epochs: int = 500

    def _check(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {'/'.join(MODELS)}, got {self.model!r}")
        if self.model in NET_CONFIGS:
            if self.task != Task.TWEET:
                raise ValueError(f"model {self.model} is tweet-level only")
            if self.resample != Strategy.NONE:
                # Metadata is never resampled for the LSTM systems: a hard rule.
                raise ValueError("resampling applies only to baseline pipelines; "
                                 f"set resample=none for model {self.model}")
            if not self.embedding:
                raise ValueError(f"model {self.model} requires --embedding")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        for name, least in (("max_len", 1), ("batch_size", 1), ("n_trees", 1), ("n_stumps", 1),
                            ("embedding_dim", 1), ("logreg_epochs", 1), ("epochs", 0),
                            ("vocab_cap", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not self.mlp_layers or min(self.mlp_layers) < 1 or self.mlp_layers[-1] != 1:
            raise ValueError("mlp_layers widths must be >= 1 and end in 1, "
                             f"got {','.join(map(str, self.mlp_layers))}")
        _part(SplitSpec, self)
        _part(ResampleConfig, self, strategy=self.resample)

    def to_kv_lines(self) -> list[str]:
        return [f"{name} = {text}" for name, text in sorted(to_strings(self).items())]

    def config_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.to_kv_lines()).encode("utf-8"))
        return digest.hexdigest()

    def echo(self) -> dict[str, str]:
        return {**to_strings(self), "config_hash": self.config_hash()}


# -- experiment pipeline ---------------------------------------------------


class ExperimentResult(NamedTuple):
    report: EvalReport
    run_dir: str


def _write_files(files, out_dir="") -> None:
    """Write each `(path, lines)` pair, path joined to `out_dir`, which is
    made first; a checkpoint comes as `(path, write)`, and `write(path)`
    streams its rows. If anything fails, the files this call created or
    truncated and the directories it made are removed, deepest first, and
    the error is raised: a failed command leaves nothing it wrote."""
    made, written = [], []
    try:
        missing, head = [], os.path.normpath(out_dir)
        while head and not os.path.isdir(head):
            missing.append(head)
            head = os.path.dirname(head)
        for path in reversed(missing):
            os.mkdir(path)
            made.append(path)
        for path, content in files:
            path = os.path.join(out_dir, path)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                fh.write("" if callable(content) else "\n".join(content) + "\n")
            if callable(content):
                content(path)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _report_files(report: EvalReport, head: list[str], tail: list[str]) -> list:
    """`report.kv`, `report.txt` and `roc.csv`. The head lines open the kv
    file and, as comments, the csv; the tail lines close the text."""
    return [("report.kv", head + report.to_kv_lines()),
            ("report.txt", report.to_text().splitlines() + tail),
            ("roc.csv", [f"# {line}" for line in head] + report.roc_csv_lines())]


def _refuse_empty(records, what: str) -> None:
    """Every command's refusal of a corpus without the `what` it scores."""
    if not records:
        raise DataError(f"corpus contains no {what}")


def _baseline_matrix(on_accounts: bool, accounts, tweets) -> FeatureMatrix:
    """A baseline's input: the account features, or the tweet metadata."""
    if on_accounts:
        records, schema = accounts, ACCOUNT_FEATURE_COLUMNS
        rows = [r.features for r in records]
    else:
        records, schema = tweets, TWEET_METADATA_COLUMNS
        rows = [r.metadata for r in records]
    _refuse_empty(records, "accounts" if on_accounts else "tweets")
    labels = np.array([r.label for r in records], dtype=np.int8)
    return FeatureMatrix(np.array(rows, dtype=np.float64), schema, labels)


def _part(cls, config: RunConfig, **given):
    """A sub-config from the RunConfig fields it shares by name, and the given
    values."""
    shared = {name: getattr(config, name) for name in cls._fields if name in config._fields}
    return cls(**{**shared, **given})


def _run_dir(config: RunConfig) -> str:
    """A new run directory's name, stamped now; it is not created here."""
    name = f"run-{time.strftime('%Y%m%d-%H%M%S')}-{config.config_hash()[:8]}"
    run_dir, suffix = os.path.join(config.out_dir, name), 0
    while os.path.exists(run_dir):
        suffix += 1
        run_dir = os.path.join(config.out_dir, f"{name}-{suffix}")
    return run_dir


def _run_baseline_experiment(config, accounts, tweets, con_hash):
    from . import baselines
    from .resample import apply_strategy

    on_accounts = config.task == Task.ACCOUNT
    matrix = _baseline_matrix(on_accounts, accounts, tweets)
    records = accounts if on_accounts else tweets
    groups = [r.account_id for r in records] if config.group_by_account else None
    train_idx, test_idx = split_indices(matrix.labels, _part(SplitSpec, config), groups=groups)
    train_matrix = matrix.select(train_idx)
    test_matrix = matrix.select(test_idx)

    resample_cfg = _part(ResampleConfig, config, strategy=config.resample)
    train_matrix, diag = apply_strategy(train_matrix, resample_cfg)

    model = baselines.fit(BaselineKind(config.model), train_matrix,
                          _part(baselines.BaselineConfig, config))
    scores = baselines.predict_proba(model, test_matrix)
    report = evaluate(scores, test_matrix.labels, config.threshold, config.echo())
    return report, [
        ("resample.kv", [f"config_hash = {con_hash}"] + diag.to_kv_lines()),
        ("model.txt", lambda path: baselines.save_baseline(model, path,
                                                           {"config_hash": con_hash})),
    ]


def _run_net_experiment(config, accounts, tweets, con_hash):
    from .embedding import TweetPipeline, load_glove, most_frequent_tokens
    from .nnet.model import NetConfig, train as train_net
    from .tokenizer import tokenize

    _refuse_empty(tweets, "tweets")
    labels = np.array([t.label for t in tweets], dtype=np.int8)
    groups = [t.account_id for t in tweets] if config.group_by_account else None
    train_idx, test_idx = split_indices(labels, _part(SplitSpec, config), groups=groups)

    restrict = None
    if config.vocab_cap > 0:
        train_tokens = (
            tokenize(tweets[i].text, repeat_tag=config.repeat_tag) for i in train_idx
        )
        restrict = most_frequent_tokens(train_tokens, config.vocab_cap)
    table = load_glove(config.embedding, config.embedding_dim, restrict_to=restrict)
    pipeline = _part(TweetPipeline, config, table=table)

    ids, lengths, metadata = pipeline.tensors(tweets)

    def rows(idx):
        return ids[idx], lengths[idx], metadata[idx], labels[idx]

    fit_idx, val_idx = train_idx, np.array([], dtype=np.int64)
    if config.val_fraction > 0.0:
        inner = _part(SplitSpec, config, train_fraction=1.0 - config.val_fraction)
        sub_fit, sub_val = split_indices(labels[train_idx], inner)
        fit_idx, val_idx = train_idx[sub_fit], train_idx[sub_val]

    net_config = _part(NetConfig, config, **NET_CONFIGS[config.model],
                       embedding_dim=table.dimension, epochs=config.epochs or 30)
    model, trace = train_net(net_config, table.matrix, rows(fit_idx),
                             validation=rows(val_idx) if val_idx.size else None)

    scores = model.predict_proba(table.matrix, ids[test_idx], lengths[test_idx],
                                 metadata[test_idx])
    report = evaluate(scores, labels[test_idx], config.threshold, config.echo())

    meta = {"config_hash": con_hash, **pipeline.meta()}
    if restrict is not None:
        # The kept tokens, in table order, so that scoring loads this table.
        meta["vocabulary"] = " ".join(table.vocabulary)
    return report, [("trace.csv", [f"# config_hash = {con_hash}"] + trace.to_csv_lines()),
                    ("model.txt", lambda path: model.save(path, meta))]


def _read_corpus(manifest_path):
    return load_corpus(parse_manifest(manifest_path))


def run_experiment(config: RunConfig, read_corpus=_read_corpus) -> ExperimentResult:
    """Execute ingest -> features -> (resample) -> fit -> evaluate, writing
    the report, checkpoint, training trace, and a run manifest to disk.

    `read_corpus(manifest_path)` gives (accounts, tweets, diagnostics); the
    run reads them and changes none of them."""
    if not config.manifest:
        raise ConfigError("a corpus manifest is required")
    con_hash = config.config_hash()
    accounts, tweets, load_diag = read_corpus(config.manifest)
    run = _run_net_experiment if config.model in NET_CONFIGS else _run_baseline_experiment
    report, files = run(config, accounts, tweets, con_hash)
    head = [f"config_hash = {con_hash}"]
    run_lines = head + [f"config.{line}" for line in config.to_kv_lines()]
    run_lines += load_diag.to_kv_lines()
    run_lines.append("rule.lstm_resampling = forbidden (metadata never oversampled)")
    run_dir = _run_dir(config)
    _write_files(files + _report_files(report, head, [f"  config hash {con_hash}"])
                 + [("run.kv", run_lines)], run_dir)
    latest = os.path.join(config.out_dir, "latest")
    with contextlib.suppress(OSError):
        if os.path.islink(latest):
            os.unlink(latest)
        os.symlink(os.path.basename(run_dir), latest)
    return ExperimentResult(report, run_dir)


# The errors that `main` and each bench row report in one line.
FAILURES = (BotDetectError, OSError)


def _exit_code(exc: BotDetectError | OSError) -> int:
    """The exit code of an error: its own, or a data error's for a file that
    cannot be read."""
    return exc.exit_code if isinstance(exc, BotDetectError) else DataError.exit_code


# -- bench -----------------------------------------------------------------


def benchmark_suite(bench_path, out_dir) -> list[dict]:
    """Run every row of a bench config; rows keep file order, failures are
    recorded (with the exit code `main` would give them) and do not stop the
    suite."""
    entries = read_kv_file(bench_path)
    defaults: dict[str, str] = {}
    row_values: dict[str, dict[str, str]] = {}
    for key, value in entries.items():
        if key.startswith("default."):
            defaults[key[len("default."):]] = value
        elif key.startswith("row.") and key.count(".") >= 2:
            _, name, field = key.split(".", 2)
            row_values.setdefault(name, {})[field] = value
        else:
            raise ConfigError(f"unrecognized bench key {key!r}")
    if not row_values:
        raise ConfigError("bench config defines no rows")

    # Rows that share a manifest share one parse of it; a failed parse is
    # not kept, so every row that names the manifest records its error.
    read_corpus = functools.lru_cache(maxsize=None)(_read_corpus)
    # Each row's config columns show its own values, or else the defaults.
    shown = ("task", "model", "resample", "embedding_dim")
    fallback = to_strings(RunConfig())
    results = []
    for name, overrides in row_values.items():
        merged = dict(defaults)
        merged.update(overrides)
        row_out = os.path.join(out_dir, "rows", name)
        row = {"name": name, **{key: merged.get(key, fallback[key]) for key in shown}}
        try:
            config = from_strings(RunConfig, merged, out_dir=row_out)
            with float_errors(DataError, FLOAT_ERROR):
                result = run_experiment(config, read_corpus)
            rep = result.report
            row.update(
                precision=f"{rep.precision:.4f}", recall=f"{rep.recall:.4f}",
                f1=f"{rep.f1:.4f}", accuracy=f"{rep.accuracy:.4f}",
                auc=f"{rep.auc:.4f}", status="ok", error="",
            )
        except FAILURES as exc:
            message = str(exc).replace(",", ";").replace("\n", " ")
            row.update(status="error", error=message, exit_code=_exit_code(exc))
        results.append(row)

    columns = ["name", "task", "model", "resample", "embedding_dim",
               "precision", "recall", "f1", "accuracy", "auc", "status", "error"]
    csv_lines = [",".join(columns)]
    for row in results:
        csv_lines.append(",".join(row.get(c, "") for c in columns))

    widths = {c: max(len(c), *(len(row.get(c, "")) for row in results)) for c in columns}
    text_lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in results:
        text_lines.append("  ".join(row.get(c, "").ljust(widths[c]) for c in columns))
    _write_files([("bench.csv", csv_lines), ("bench.txt", text_lines)], out_dir)
    return results


# -- subcommands -------------------------------------------------------------


def _cmd_tokenize(args) -> int:
    from .tokenizer import tokenize

    with text_file(args.input) as source:
        lines = [tokenize(line.rstrip("\n"), repeat_tag=args.repeat_tag)
                 for line in source]
    rendered = [" ".join(tokens) for tokens in lines]
    if args.output == "-":
        for line in rendered:
            print(line)
    else:
        _write_files([(args.output, rendered or [""])])
    return 0


def _given(args, cls) -> dict[str, str]:
    """The record `cls`'s fields that the command line set, as strings for `from_strings`."""
    return {name: getattr(args, name) for name in cls._fields
            if getattr(args, name) is not None}


def _cmd_synth(args) -> int:
    spec = from_strings(SyntheticCorpusSpec, _given(args, SyntheticCorpusSpec))
    if args.embedding_seed < 0:
        raise ConfigError(f"embedding_seed must be >= 0, got {args.embedding_seed}")
    accounts, tweets = generate_synthetic(spec)
    manifest_path = write_corpus(accounts, tweets, args.out)
    print(f"wrote {len(accounts)} accounts / {len(tweets)} tweets; manifest: {manifest_path}")
    if args.embedding_dim:
        from .embedding import fixture_table, write_glove_file
        from .tokenizer import tokenize

        vocab = set()
        for tweet in tweets:
            vocab.update(tokenize(tweet.text))
        table = fixture_table(vocab, args.embedding_dim, seed=args.embedding_seed)
        path = os.path.join(args.out, f"glove_{args.embedding_dim}d.txt")
        write_glove_file(table, path)
        print(f"wrote fixture embeddings: {path}")
    return 0


def _cmd_ingest(args) -> int:
    accounts, tweets, diagnostics = _read_corpus(args.manifest)
    lines = [
        f"accounts_total = {len(accounts)}",
        f"tweets_total = {len(tweets)}",
    ] + diagnostics.to_kv_lines()
    if args.kv:
        _write_files([(args.kv, lines)])
    for line in lines:
        print(line)
    return 0


def _cmd_resample(args) -> int:
    from .resample import apply_strategy

    config = from_strings(ResampleConfig, _given(args, ResampleConfig))
    with text_file(args.input) as fh:
        matrix = matrix_from_csv_lines(fh, args.input)
    result, diag = apply_strategy(matrix, config)
    diag_lines = diag.to_kv_lines()
    files = [(args.output, matrix_to_csv_lines(result))]
    if args.diagnostics:
        files.append((args.diagnostics, diag_lines))
    _write_files(files)
    for line in diag_lines:
        print(line)
    return 0


def _cmd_train(args) -> int:
    values = read_kv_file(args.config) if args.config else {}
    result = run_experiment(from_strings(RunConfig, {**values, **_given(args, RunConfig)}))
    sys.stdout.write(result.report.to_text())
    print(f"artifacts: {result.run_dir}")
    return 0


def _load_net(path, meta, arrays, embedding):
    """The net and its tweet pipeline from a parsed checkpoint; warns when
    the embedding or tokenizer settings differ from training's. A checkpoint
    trained with a vocabulary cap lists its kept tokens, and only those are
    loaded."""
    from .embedding import TweetPipeline, load_glove
    from .nnet.model import ContextualLstmModel

    model = ContextualLstmModel.load(meta, arrays)
    vocabulary = meta["vocabulary"].split() if "vocabulary" in meta else None
    table = load_glove(embedding, model.config.embedding_dim, restrict_to=vocabulary)
    pipeline = TweetPipeline.from_meta(meta, table)
    if not pipeline.matches(meta):
        print("warning: embedding/tokenizer configuration differs from training",
              file=sys.stderr)
    return model, pipeline


def _cmd_eval(args) -> int:
    threshold = from_strings(RunConfig, {"threshold": args.threshold}).threshold
    from .persist import load_model

    meta, arrays = load_model(args.checkpoint)
    kind = meta["kind"]
    if kind in CHECKPOINT_KINDS and not args.embedding:
        raise ConfigError("net checkpoints need --embedding for evaluation")
    accounts, tweets, _ = _read_corpus(args.manifest)
    if kind in CHECKPOINT_KINDS:
        _refuse_empty(tweets, "tweets")
        model, pipeline = _load_net(args.checkpoint, meta, arrays, args.embedding)
        scores = model.predict_proba(pipeline.table.matrix, *pipeline.tensors(tweets))
        labels = np.array([t.label for t in tweets], dtype=np.int8)
    elif kind in {k.value for k in BaselineKind}:
        from . import baselines

        model = baselines.load_baseline(meta, arrays)
        matrix = _baseline_matrix(model.schema == ACCOUNT_FEATURE_COLUMNS, accounts, tweets)
        scores = baselines.predict_proba(model, matrix)
        labels = matrix.labels
    else:
        raise DataError(f"{args.checkpoint}: unknown model kind {kind!r}")
    report = evaluate(scores, labels, threshold)
    if args.out:
        _write_files(_report_files(report, [], []), args.out)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_inspect(args) -> int:
    from . import introspect
    from .persist import load_model

    meta, arrays = load_model(args.checkpoint)
    if meta["kind"] not in CHECKPOINT_KINDS:
        raise DataError(f"{args.checkpoint}: kind {meta['kind']!r} is not a tweet-level net")
    _, tweets, _ = _read_corpus(args.manifest)
    _refuse_empty(tweets, "tweets")
    model, pipeline = _load_net(args.checkpoint, meta, arrays, args.embedding)
    index = args.tweet_index
    if not 0 <= index < len(tweets):
        raise ConfigError(f"tweet index {index} outside corpus of {len(tweets)}")

    trace = introspect.trace_tweet(model, pipeline, tweets[index])
    files = [(f"trace_{index}.csv", introspect.trace_csv_lines(trace))]
    if args.cell_state:
        files.append((f"cell_trace_{index}.csv", introspect.cell_trace_csv_lines(trace)))
    report = introspect.unit_distributions(model, pipeline, tweets)
    files += [("distributions.csv", introspect.distribution_csv_lines(report)),
              ("ks.csv", introspect.ks_csv_lines(report))]
    _write_files(files, args.out)
    if trace.empty:
        print(f"note: tweet {index} tokenizes to nothing; trace is empty")
    best = report.ranking[0]
    print(f"most class-separating unit: {best} "
          f"(ks={report.ks_by_unit[best]:.3f}); outputs in {args.out}")
    return 0


def _cmd_bench(args) -> int:
    results = benchmark_suite(args.config, args.out)
    failures = [r for r in results if r["status"] != "ok"]
    print(f"bench: {len(results)} rows, {len(failures)} failed; outputs in {args.out}")
    return failures[0]["exit_code"] if failures else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error, reported in one line
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `botdetect` parser, built once per process."""
    parser = _Parser(
        prog="botdetect",
        description="Tweet-level and account-level bot detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="tokenize newline-delimited text")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.add_argument("--repeat-tag", dest="repeat_tag", action="store_true")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True)
    for name in SyntheticCorpusSpec._fields:
        p.add_argument("--" + name.replace("_", "-"))
    p.add_argument("--embedding-dim", type=int, default=0,
                   choices=(0,) + CANONICAL_DIMENSIONS,
                   help="also write fixture embeddings of this dimension")
    p.add_argument("--embedding-seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="load a corpus and report diagnostics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kv", default="", help="also write diagnostics to this file")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("resample", help="resample a feature-matrix CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--strategy", required=True,
                   help="one of " + "/".join(s.value for s in Strategy))
    for name in ResampleConfig._fields[1:]:  # the fields after strategy
        p.add_argument("--" + name.replace("_", "-"))
    p.add_argument("--diagnostics", default="")
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("train", help="run a full experiment")
    p.add_argument("--config", default="", help="key = value config file")
    # One flag per RunConfig field; values are strings, typed by from_strings.
    for name, default in RunConfig._field_defaults.items():
        flag = "--out" if name == "out_dir" else "--" + name.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, dest=name, action="store_const", const="true")
        else:
            p.add_argument(flag, dest=name)
    p.add_argument("--no-stratified", dest="stratified", action="store_const", const="false")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--embedding", default="")
    p.add_argument("--threshold", default="0.5")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inspect", help="hidden-state traces and distributions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tweet-index", type=int, default=0)
    p.add_argument("--cell-state", dest="cell_state", action="store_true")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("bench", help="run a manifest of experiment rows")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with float_errors(DataError, FLOAT_ERROR):
            return args.func(args)
    except FAILURES as exc:
        code = _exit_code(exc)
        kind = {ConfigError.exit_code: "config error", DataError.exit_code: "data error"}
        print(f"{kind.get(code, 'error')}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
