"""Corpus loading and synthetic corpus generation.

Real corpora arrive as per-group directories of ``users.csv`` and
``tweets.csv`` (cresci-2017 layout), described by a plain-text manifest:

    group.<name>.path = <directory>
    group.<name>.label = human | bot
    group.<name>.accounts = <expected count>   # optional
    group.<name>.tweets = <expected count>     # optional

Any other key, a key set twice, or a count that is not a whole number, is a
data error.

Both files go through one row reader, `_load_rows`. It checks that the
header names the file's mandatory columns, gives a row without an id the id
`<group>:<row index>`, and hands each row to the file's row parser. A row
whose count or flag cell does not parse is skipped and counted; past
BAD_ROW_FRACTION of a file, loading fails. Records hold their counts (and
flags, as 0/1) as a tuple in the column order `data` declares.

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
from .errors import ConfigError, DataError, text_file

# Skip-and-count tolerates stray corruption up to this fraction of a file;
# beyond it the file is considered schema-drifted and loading fails. Tiny
# fixture files are exempt from the percentage rule.
BAD_ROW_FRACTION = 0.10
BAD_ROW_MIN_ROWS = 20

# The attributes a manifest group may set.
GROUP_ATTRS = ("path", "label", "accounts", "tweets")

_TRUE_VALUES = {"1", "true", "t", "yes", "y"}
_FALSE_VALUES = {"0", "false", "f", "no", "n", "", "nan", "null", "none"}


class ManifestGroup(NamedTuple):
    name: str
    path: str
    label: Label
    expected_accounts: int | None = None
    expected_tweets: int | None = None


@checked
class CorpusManifest(NamedTuple):
    groups: tuple[ManifestGroup, ...]

    def _check(self):
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ConfigError("manifest group names must be unique")
        if not self.groups:
            raise ConfigError("manifest defines no groups")


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


def _parse_count(cell: str, column: str, filled: dict[str, int]) -> int | None:
    """None means the row must be skipped; `filled` counts empty cells."""
    text = cell.strip()
    if text == "" or text.lower() in ("nan", "null", "none"):
        filled[column] = filled.get(column, 0) + 1
        return 0
    try:
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value) or value < 0:
        return None
    return int(value)


def _parse_flag(cell: str, column: str, filled: dict[str, int]) -> int | None:
    text = cell.strip().lower()
    if text in _TRUE_VALUES:
        return 1
    if text in _FALSE_VALUES:
        if text == "":
            filled[column] = filled.get(column, 0) + 1
        return 0
    return None


def _check_bad_rows(path, skipped: int, total: int) -> None:
    if total >= BAD_ROW_MIN_ROWS and skipped > BAD_ROW_FRACTION * total:
        raise DataError(f"{path}: {skipped} of {total} rows unparseable "
                        f"(> {BAD_ROW_FRACTION:.0%} threshold)")


def _cell(row: list[str], index: int | None) -> str:
    if index is None or index >= len(row):
        return ""
    return row[index]


def _parse_cells(row, cells, filled) -> tuple[int, ...] | None:
    """The parsed `(column, index, parser)` cells of a row, in order; None
    at the first cell that fails."""
    values = []
    for column, index, parse in cells:
        value = parse(_cell(row, index), column, filled)
        if value is None:
            return None
        values.append(value)
    return tuple(values)


def _load_rows(path, group: ManifestGroup, mandatory, id_column, row_parser) -> tuple[list, int]:
    """(records, skipped rows) of one group file.

    The header must name every mandatory column. `row_parser(columns)` gets
    the column name -> index map and returns the parse of one row:
    `(account id, row) -> record`, or None to skip and count the row. A
    non-empty row whose id cell is absent or empty gets the id
    `<group>:<row index>`.
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
        parse = row_parser(columns)
        id_index = columns.get(id_column)
        records = []
        total = skipped = 0
        for row_idx, row in enumerate(reader):
            if not row:
                continue
            total += 1
            record = parse(_cell(row, id_index).strip() or f"{group.name}:{row_idx}", row)
            if record is None:
                skipped += 1
            else:
                records.append(record)
        _check_bad_rows(path, skipped, total)
    return records, skipped


def _load_users(path, group: ManifestGroup, filled) -> tuple[list[AccountRecord], int]:
    def row_parser(columns):
        cells = [(col, columns[col], _parse_count) for col in ACCOUNT_COUNT_COLUMNS]
        cells += [(col, columns[col], _parse_flag) for col in ACCOUNT_BOOL_COLUMNS]

        def parse(account_id, row):
            features = _parse_cells(row, cells, filled)
            return None if features is None else AccountRecord(account_id, features, group.label)
        return parse

    return _load_rows(path, group, ACCOUNT_FEATURE_COLUMNS, "id", row_parser)


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


def _load_tweets(path, group: ManifestGroup, filled, fallback_columns,
                 notes) -> tuple[list[TweetRecord], int]:
    def row_parser(columns):
        # Entity columns absent from this dump are recovered from the text,
        # and the substitution is flagged.
        fallback = [c for c in _ENTITY_COLUMNS if c not in columns]
        fallback_columns.extend(fallback)
        for col in TWEET_METADATA_COLUMNS:
            if col not in columns and col not in fallback:
                notes.append(f"column {col} absent; filled with 0")
        present = [col for col in TWEET_METADATA_COLUMNS if col in columns]
        cells = [(col, columns[col], _parse_count) for col in present]
        text_index = columns["text"]

        def parse(account_id, row):
            counts = _parse_cells(row, cells, filled)
            if counts is None:
                return None
            text = _cell(row, text_index)
            if len(present) < len(TWEET_METADATA_COLUMNS):
                values = {}
                if fallback:
                    values.update(zip(_ENTITY_COLUMNS, _fallback_entity_counts(text)))
                values.update(zip(present, counts))
                counts = tuple(values.get(col, 0) for col in TWEET_METADATA_COLUMNS)
            return TweetRecord(text, counts, group.label, account_id)
        return parse

    return _load_rows(path, group, ("text",), "user_id", row_parser)


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
        filled, fallback, notes = {}, [], []
        group_accounts, accounts_skipped = [], 0
        if has_users:
            group_accounts, accounts_skipped = _load_users(users_path, group, filled)
        else:
            notes.append("users.csv absent")
        group_tweets, tweets_skipped = [], 0
        if has_tweets:
            group_tweets, tweets_skipped = _load_tweets(tweets_path, group, filled, fallback,
                                                        notes)
        else:
            notes.append("tweets.csv absent")
        for kind, expected, loaded in (("accounts", group.expected_accounts, group_accounts),
                                       ("tweets", group.expected_tweets, group_tweets)):
            if expected is not None and len(loaded) != expected:
                warnings.append(f"group {group.name}: expected {expected} {kind}, "
                                f"loaded {len(loaded)}")
        accounts += group_accounts
        tweets += group_tweets
        groups.append(GroupDiagnostics(group.name, len(group_accounts), len(group_tweets),
                                       accounts_skipped, tweets_skipped, filled, fallback, notes))
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


def raw_integers(bit_generator):
    """An `integers(low, high, size=None)` that returns what
    `Generator(bit_generator).integers` would, as Python ints (a list for
    `size`), for ranges of 1 to 2**32 - 1 values, computed from the raw words
    with Lemire's draw (see `forest.feature_subsets`).

    It takes over the generator's 32-bit stream: the half a word left
    pending is held here, so from then on draw every bounded integer through
    it. Draws that read whole words, as `random` and `poisson` do, may come
    in between."""
    raw = bit_generator.random_raw
    state = bit_generator.state
    pending = state["uinteger"] if state["has_uint32"] else None

    def integers(low, high, size=None):
        nonlocal pending
        if size is not None:
            return [integers(low, high) for _ in range(size)]
        n = high - low
        if n == 1:
            return low
        if not 1 < n < 1 << 32:
            raise ValueError(f"integers({low}, {high}) needs 1 to 2**32 - 1 values")
        threshold = (1 << 32) % n
        while True:
            if pending is None:
                word = raw()
                value, pending = word & 0xFFFFFFFF, word >> 32
            else:
                value, pending = pending, None
            product = value * n
            if product & 0xFFFFFFFF >= threshold:
                return low + (product >> 32)

    return integers


def generate_synthetic(
    spec: SyntheticCorpusSpec,
) -> tuple[list[AccountRecord], list[TweetRecord]]:
    """Seeded synthetic corpus; byte-identical for identical specs.

    At separation 0 the two classes are identically distributed; at
    separation 1 plain-word vocabularies are disjoint and every metadata
    column's range is disjoint between classes.

    The sequence of RNG calls is part of the corpus format: drawing the same
    numbers in another order, or through a call that consumes the stream
    differently, changes every corpus and so every benchmark input. Three
    substitutions are bit-identical and are used for speed: `rng.random()`
    for `rng.uniform()` (which returns `0.0 + 1.0 * random()`),
    `rng.integers(0, 20, size=6)` indexing `_URL_CHARS` for
    `rng.choice(list(_URL_CHARS), size=6)` (which draws through that call),
    and `raw_integers` for `rng.integers` (the same draw from the raw words,
    as `forest.feature_subsets` makes it, without numpy's per-call cost).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    random, poisson = rng.random, rng.poisson
    integers = raw_integers(rng.bit_generator)
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
            return [offset + int(min(poisson(lam), cap)) for lam, cap, offset in params]

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
                words = [word() for _ in range(min(4 + int(poisson(4.0)), 16))]
                if random() < 0.10:
                    words[0] = words[0].upper()
                if random() < 0.10:
                    words[-1] = words[-1] + words[-1][-1] * 3
                extras = ["#" + word() for _ in range(hashtags)]
                for _ in range(urls):
                    extras.append("https://t.co/"
                                  + "".join(_URL_CHARS[i]
                                            for i in integers(0, len(_URL_CHARS), size=6)))
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
