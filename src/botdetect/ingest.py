"""Corpus loading and synthetic corpus generation.

Real corpora arrive as per-group directories of ``users.csv`` and
``tweets.csv`` (cresci-2017 layout), described by a plain-text manifest:

    group.<name>.path = <directory>
    group.<name>.label = human | bot
    group.<name>.accounts = <expected count>   # optional
    group.<name>.tweets = <expected count>     # optional

Any other key, a key set twice, or a count that is not a whole number, is a
data error.

Both files go through one row reader, `_load_rows`, the one place that
keeps a file's accounting. It checks that the header names the file's
mandatory columns, gives a row without an id the id `<group>:<row index>`,
and parses each cell with `_parse_count` or `_parse_flag`, which read the
cell text only. A row with a cell that does not parse is skipped and counted;
past BAD_ROW_FRACTION of a file, loading fails. An empty cell of a loaded row
loads as 0 and is counted under `filled.<column>`; a skipped row's cells are
not. Records hold their counts (and flags, as 0/1) as a tuple in the column
order `data` declares.

The synthetic generator emits the same CSV schema, so every downstream path
is exercised identically for real and synthetic data.
"""

from __future__ import annotations

import csv
import math
import os
from typing import NamedTuple

import numpy as np

from .data import (
    ACCOUNT_BOOL_COLUMNS,
    ACCOUNT_COUNT_COLUMNS,
    ACCOUNT_FEATURE_COLUMNS,
    TWEET_METADATA_COLUMNS,
    AccountRecord,
    Label,
    TweetRecord,
    checked,
)
from .errors import DataError, text_file

# Skip-and-count tolerates stray corruption up to this fraction of a file;
# beyond it the file is considered schema-drifted and loading fails. Tiny
# fixture files are exempt from the percentage rule.
BAD_ROW_FRACTION = 0.10
BAD_ROW_MIN_ROWS = 20

# The attributes a manifest group may set.
GROUP_ATTRS = ("path", "label", "accounts", "tweets")

# What `_parse_count` and `_parse_flag` return for an empty cell: it loads as
# 0, and `_load_rows` counts it when its row loads.
_EMPTY = object()
_FLAG_VALUES = {**dict.fromkeys(("1", "true", "t", "yes", "y"), 1),
                **dict.fromkeys(("0", "false", "f", "no", "n", "nan", "null", "none"), 0),
                "": _EMPTY}


class ManifestGroup(NamedTuple):
    name: str
    path: str
    label: Label
    expected_accounts: int | None = None
    expected_tweets: int | None = None


class CorpusManifest(NamedTuple):
    groups: tuple[ManifestGroup, ...]  # one per name, as `parse_manifest` keys them


def read_kv_file(path) -> dict[str, str]:
    """The entries of a `key = value` file: the grammar of manifests and
    config files. A line without `=`, or a key set twice, is a DataError
    naming the file and the line."""
    out: dict[str, str] = {}
    with text_file(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
            key = key.strip()
            if key in out:
                raise DataError(f"{path}:{lineno}: repeated key {key!r}")
            out[key] = value.strip()
    return out


def parse_manifest(path) -> CorpusManifest:
    entries = read_kv_file(path)
    base = os.path.dirname(os.path.abspath(path))
    groups: dict[str, dict] = {}
    for key, value in entries.items():
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "group" or parts[2] not in GROUP_ATTRS:
            raise DataError(f"unrecognized manifest key {key!r}")
        _, name, attr = parts
        groups.setdefault(name, {})[attr] = value
    if not groups:
        raise DataError(f"{path}: manifest defines no groups")
    built = []
    for name, attrs in groups.items():
        if "path" not in attrs or "label" not in attrs:
            raise DataError(f"group {name!r} needs both path and label")
        label_text = attrs["label"].lower()
        if label_text not in ("human", "bot"):
            raise DataError(f"group {name!r}: label must be human or bot")
        group_path = attrs["path"]
        if not os.path.isabs(group_path):
            group_path = os.path.normpath(os.path.join(base, group_path))
        counts = {}
        for attr in ("accounts", "tweets"):
            text = attrs.get(attr)
            if text is not None and not text.isdecimal():
                raise DataError(f"group {name!r}: {attr} must be a whole number, got {text!r}")
            counts[f"expected_{attr}"] = None if text is None else int(text)
        built.append(
            ManifestGroup(
                name=name,
                path=group_path,
                label=Label.BOT if label_text == "bot" else Label.HUMAN,
                **counts,
            )
        )
    return CorpusManifest(groups=tuple(built))


class GroupDiagnostics(NamedTuple):
    """One group's load accounting; the four counters run in `run.kv` order."""

    name: str
    accounts_loaded: int
    tweets_loaded: int
    accounts_skipped: int
    tweets_skipped: int
    filled_cells: dict[str, int]
    fallback_columns: list[str]
    notes: list[str]


class LoadDiagnostics(NamedTuple):
    groups: list[GroupDiagnostics]
    warnings: list[str]

    def to_kv_lines(self) -> list[str]:
        lines = []
        for g in self.groups:
            p = f"group.{g.name}"
            lines += [f"{p}.{name} = {value}" for name, value in zip(g._fields[1:5], g[1:5])]
            for col in sorted(g.filled_cells):
                lines.append(f"{p}.filled.{col} = {g.filled_cells[col]}")
            for col in g.fallback_columns:
                lines.append(f"{p}.fallback_counted.{col} = true")
            for i, note in enumerate(g.notes):
                lines.append(f"{p}.note.{i} = {note}")
        for i, warning in enumerate(self.warnings):
            lines.append(f"warning.{i} = {warning}")
        return lines


def _parse_count(cell: str) -> int | None:
    """A count cell's value; `_EMPTY` for an empty, `nan`, `null` or `none`
    cell; None for any other cell that is not a finite number >= 0."""
    text = cell.strip()
    try:
        value = float(text)
    except ValueError:
        return _EMPTY if text.lower() in ("", "null", "none") else None
    if value != value:
        return _EMPTY if text.lower() == "nan" else None
    return int(value) if 0 <= value < math.inf else None


def _parse_flag(cell: str) -> int | None:
    """A flag cell's 0/1; `_EMPTY` for an empty cell; None for any other cell
    that is not a yes or a no."""
    return _FLAG_VALUES.get(cell.strip().lower())


def _load_rows(path, group: ManifestGroup, mandatory, id_column,
               layout) -> tuple[list, int, dict[str, int]]:
    """(records, skipped rows, filled cells by column) of one group file.

    The header must name every mandatory column. `layout(columns)` gets the
    column name -> index map and returns the row's `(column, index, parser)`
    cells and `make(id, row, values) -> record`. A row whose id cell is
    absent or empty gets the id `<group>:<row index>`; a short row reads ""
    for its missing cells. A row with a cell that does not parse is skipped;
    a loaded row's empty cells load as 0 and are counted by column.
    """
    with open(path, encoding="utf-8-sig", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file has no header row")
        columns = {name.strip(): i for i, name in enumerate(header)}
        missing = [c for c in mandatory if c not in columns]
        if missing:
            raise DataError(f"{path}: missing mandatory columns {missing}")
        cells, make = layout(columns)
        id_index = columns.get(id_column)
        width = len(header)
        records, filled = [], {}
        total = skipped = 0
        for row_idx, row in enumerate(reader):
            if not row:
                continue
            total += 1
            if len(row) < width:
                row += [""] * (width - len(row))
            values = [parse(row[index]) for _, index, parse in cells]
            if None in values:
                skipped += 1
                continue
            if _EMPTY in values:
                for (column, _, _), value in zip(cells, values):
                    if value is _EMPTY:
                        filled[column] = filled.get(column, 0) + 1
                values = [0 if value is _EMPTY else value for value in values]
            account_id = row[id_index].strip() if id_index is not None else ""
            records.append(make(account_id or f"{group.name}:{row_idx}", row, values))
    if total >= BAD_ROW_MIN_ROWS and skipped > BAD_ROW_FRACTION * total:
        raise DataError(f"{path}: {skipped} of {total} rows unparseable "
                        f"(> {BAD_ROW_FRACTION:.0%} threshold)")
    return records, skipped, filled


def _load_users(path, group: ManifestGroup) -> tuple[list[AccountRecord], int, dict[str, int]]:
    def layout(columns):
        cells = [(col, columns[col], _parse_count) for col in ACCOUNT_COUNT_COLUMNS]
        cells += [(col, columns[col], _parse_flag) for col in ACCOUNT_BOOL_COLUMNS]
        return cells, lambda account_id, _, values: AccountRecord(account_id, tuple(values),
                                                                  group.label)

    return _load_rows(path, group, ACCOUNT_FEATURE_COLUMNS, "id", layout)


_ENTITY_COLUMNS = ("num_hashtags", "num_urls", "num_mentions")


def _fallback_entity_counts(text: str) -> tuple[int, int, int]:
    """Hashtag / URL / mention counts recovered from the text itself."""
    hashtags = urls = mentions = 0
    for token in text.split():
        if token.startswith("#") and len(token) > 1:
            hashtags += 1
        elif token.startswith("http") or token.startswith("www."):
            urls += 1
        elif token.startswith("@") and len(token) > 1:
            mentions += 1
    return hashtags, urls, mentions


def _load_tweets(path, group: ManifestGroup):
    """(records, skipped rows, filled cells, fallback columns, notes) of a
    `tweets.csv`. Entity columns absent from its header are recovered from
    the text (the fallback columns); any other absent count column loads as
    0, with a note."""
    fallback, notes = [], []

    def layout(columns):
        nonlocal fallback, notes
        fallback = [c for c in _ENTITY_COLUMNS if c not in columns]
        notes = [f"column {col} absent; filled with 0" for col in TWEET_METADATA_COLUMNS
                 if col not in columns and col not in fallback]
        present = [col for col in TWEET_METADATA_COLUMNS if col in columns]
        text_index = columns["text"]

        def make(account_id, row, counts):
            text = row[text_index]
            if len(present) < len(TWEET_METADATA_COLUMNS):
                values = {}
                if fallback:
                    values.update(zip(_ENTITY_COLUMNS, _fallback_entity_counts(text)))
                values.update(zip(present, counts))
                counts = [values.get(col, 0) for col in TWEET_METADATA_COLUMNS]
            return TweetRecord(text, tuple(counts), group.label, account_id)
        return [(col, columns[col], _parse_count) for col in present], make

    records, skipped, filled = _load_rows(path, group, ("text",), "user_id", layout)
    return records, skipped, filled, fallback, notes  # the last two as `layout` set them


def load_corpus(
    manifest: CorpusManifest,
) -> tuple[list[AccountRecord], list[TweetRecord], LoadDiagnostics]:
    """Load every group in manifest order.

    Rows with unparseable mandatory fields are counted and skipped. Expected
    counts, when present, are verified and mismatches reported as warnings.
    """
    accounts: list[AccountRecord] = []
    tweets: list[TweetRecord] = []
    groups, warnings = [], []
    for group in manifest.groups:
        users_path = os.path.join(group.path, "users.csv")
        tweets_path = os.path.join(group.path, "tweets.csv")
        has_users = os.path.isfile(users_path)
        has_tweets = os.path.isfile(tweets_path)
        if not has_users and not has_tweets:
            raise FileNotFoundError(
                f"group {group.name!r}: neither {users_path} nor {tweets_path} exists"
            )
        group_accounts, accounts_skipped, filled = (
            _load_users(users_path, group) if has_users else ([], 0, {}))
        group_tweets, tweets_skipped, tweets_filled, fallback, notes = (
            _load_tweets(tweets_path, group) if has_tweets
            else ([], 0, {}, [], ["tweets.csv absent"]))
        if not has_users:
            notes = ["users.csv absent", *notes]
        for kind, expected, loaded in (("accounts", group.expected_accounts, group_accounts),
                                       ("tweets", group.expected_tweets, group_tweets)):
            if expected is not None and len(loaded) != expected:
                warnings.append(f"group {group.name}: expected {expected} {kind}, "
                                f"loaded {len(loaded)}")
        accounts += group_accounts
        tweets += group_tweets
        groups.append(GroupDiagnostics(group.name, len(group_accounts), len(group_tweets),
                                       accounts_skipped, tweets_skipped,
                                       {**filled, **tweets_filled}, fallback, notes))
    return accounts, tweets, LoadDiagnostics(groups, warnings)


# -- synthetic corpora ----------------------------------------------------

# Class vocabularies are disjoint from each other and from the shared pool;
# at separation 1 every plain word (including hashtag bodies) is class-owned.
SHARED_WORDS = tuple(f"word{i:03d}" for i in range(120))
HUMAN_WORDS = tuple(f"tone{i:03d}" for i in range(60))
BOT_WORDS = tuple(f"spam{i:03d}" for i in range(60))

# (column, base mean, cap) in column order: human draws min(Poisson(mean), cap); bots add a
# separation-scaled offset so ranges become disjoint at separation 1.
_TWEET_COUNT_SPECS = (
    ("retweet_count", 2.0, 8),
    ("reply_count", 1.0, 4),
    ("favorite_count", 3.0, 12),
    ("num_hashtags", 0.8, 4),
    ("num_urls", 0.5, 2),
    ("num_mentions", 0.7, 3),
)

_ACCOUNT_COUNT_SPECS = (
    ("statuses_count", 300.0, 1200),
    ("followers_count", 120.0, 480),
    ("friends_count", 180.0, 720),
    ("favourites_count", 90.0, 360),
    ("listed_count", 3.0, 12),
)

_ACCOUNT_BOOL_DIRECTIONS = (1.0, -1.0, 1.0, -1.0, 1.0)

_EMOTICONS = (":)", ":(", ":D", "<3", ":p", ":|")
_URL_CHARS = "abcdefghij0123456789"


@checked
class SyntheticCorpusSpec(NamedTuple):
    accounts: int = 50  # per class
    tweets_per_account: int = 10
    seed: int = 0
    separation: float = 0.8

    def _check(self):
        if self.accounts < 1 or self.tweets_per_account < 1:
            raise ValueError("corpus sizes must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.separation <= 1.0:
            raise ValueError("separation must lie in [0, 1]")


def _count_params(base: float, cap: int, separation: float, label: Label):
    if label == Label.HUMAN:
        return base, cap, 0
    offset = int(round(separation * (cap + 1)))
    return base * (1.0 + separation), cap, offset


def generate_synthetic(
    spec: SyntheticCorpusSpec,
) -> tuple[list[AccountRecord], list[TweetRecord]]:
    """Seeded synthetic corpus; byte-identical for identical specs.

    At separation 0 the two classes are identically distributed; at
    separation 1 plain-word vocabularies are disjoint and every metadata
    column's range is disjoint between classes.

    The sequence of draws is part of the corpus format: drawing the same
    numbers in another order, or through a call that consumes the stream
    differently, changes every corpus and so every benchmark input. They
    come from `wordstream.draws` over `PCG64(spec.seed)`, which gives what
    `Generator.random`, `integers` and `poisson` would, from the raw words
    with numpy's algorithms copied: so a corpus depends only on PCG64's raw
    words and libm's `exp` and `log`, not on numpy's distribution code. A
    URL's six characters are six `integers(0, 20)` draws indexing
    `_URL_CHARS`, the draws `Generator.choice(list(_URL_CHARS), size=6)` makes.
    """
    from .wordstream import draws

    random, integers, poisson = draws(np.random.PCG64(spec.seed))
    separation = spec.separation
    accounts: list[AccountRecord] = []
    tweets: list[TweetRecord] = []
    for label, prefix in ((Label.HUMAN, "h"), (Label.BOT, "b")):
        class_words = BOT_WORDS if label == Label.BOT else HUMAN_WORDS
        account_params = [_count_params(base, cap, separation, label)
                          for _, base, cap in _ACCOUNT_COUNT_SPECS]
        tweet_params = [_count_params(base, cap, separation, label)
                        for _, base, cap in _TWEET_COUNT_SPECS]
        flag_probs = [0.5 + (drift if label == Label.BOT else -drift)
                      for drift in (0.35 * separation * d for d in _ACCOUNT_BOOL_DIRECTIONS)]

        def counts(params) -> list[int]:
            return [offset + min(poisson(lam), cap) for lam, cap, offset in params]

        def word() -> str:
            if random() < separation:
                return class_words[integers(0, len(class_words))]
            return SHARED_WORDS[integers(0, len(SHARED_WORDS))]

        for a in range(spec.accounts):
            account_id = f"{prefix}{a:05d}"
            features = counts(account_params) + [int(random() < p) for p in flag_probs]
            accounts.append(AccountRecord(account_id, tuple(features), label))
            for _ in range(spec.tweets_per_account):
                metadata = tuple(counts(tweet_params))
                hashtags, urls, mentions = metadata[3:]  # the entity columns
                words = [word() for _ in range(min(4 + poisson(4.0), 16))]
                if random() < 0.10:
                    words[0] = words[0].upper()
                if random() < 0.10:
                    words[-1] = words[-1] + words[-1][-1] * 3
                extras = ["#" + word() for _ in range(hashtags)]
                for _ in range(urls):
                    extras.append("https://t.co/" + "".join(
                        _URL_CHARS[integers(0, len(_URL_CHARS))] for _ in range(6)))
                extras += ["@user" + str(integers(1000, 9999)) for _ in range(mentions)]
                if random() < 0.25:
                    extras.append(str(integers(0, 10000)))
                if random() < 0.20:
                    extras.append(_EMOTICONS[integers(0, len(_EMOTICONS))])
                for extra in extras:
                    words.insert(integers(0, len(words) + 1), extra)
                tweets.append(TweetRecord(" ".join(words), metadata, label, account_id))
    return accounts, tweets


def write_corpus(accounts, tweets, out_dir) -> str:
    """Write records as per-class group directories plus a manifest.

    Returns the manifest path. Output uses the same CSV schema the loader
    expects, with expected counts recorded for verification on reload.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_lines = []
    for label, name in ((Label.HUMAN, "human"), (Label.BOT, "bot")):
        group_dir = os.path.join(out_dir, name)
        os.makedirs(group_dir, exist_ok=True)
        group_accounts = [a for a in accounts if a.label == label]
        group_tweets = [t for t in tweets if t.label == label]
        with open(os.path.join(group_dir, "users.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id",) + ACCOUNT_FEATURE_COLUMNS)
            for acc in group_accounts:
                writer.writerow([acc.account_id, *map(int, acc.features)])
        with open(os.path.join(group_dir, "tweets.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("user_id", "text") + TWEET_METADATA_COLUMNS)
            for tw in group_tweets:
                writer.writerow([tw.account_id, tw.text, *map(int, tw.metadata)])
        manifest_lines.extend(
            [
                f"group.{name}.path = {name}",
                f"group.{name}.label = {name}",
                f"group.{name}.accounts = {len(group_accounts)}",
                f"group.{name}.tweets = {len(group_tweets)}",
            ]
        )
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest_lines) + "\n")
    return manifest_path
