"""Core domain types: labels, feature schemas, feature matrices, seeded splits,
and the names the CLI checks before it loads the layer that owns them.

Records are NamedTuples, immutable after construction, and a FeatureMatrix
freezes its arrays; every randomized operation takes an explicit seed and is
bit-reproducible given it.
"""

from __future__ import annotations

import enum
import typing
from typing import NamedTuple

import numpy as np

from .errors import DataError


class Label(enum.IntEnum):
    """Binary class. Bot is the positive class for every metric in the package."""

    HUMAN = 0
    BOT = 1


# Column orders are frozen; model files and golden tests depend on them.
ACCOUNT_FEATURE_COLUMNS: tuple[str, ...] = (
    "statuses_count",
    "followers_count",
    "friends_count",
    "favourites_count",
    "listed_count",
    "default_profile",
    "geo_enabled",
    "profile_use_background_image",
    "verified",
    "protected",
)

TWEET_METADATA_COLUMNS: tuple[str, ...] = (
    "retweet_count",
    "reply_count",
    "favorite_count",
    "num_hashtags",
    "num_urls",
    "num_mentions",
)

ACCOUNT_COUNT_COLUMNS = ACCOUNT_FEATURE_COLUMNS[:5]
ACCOUNT_BOOL_COLUMNS = ACCOUNT_FEATURE_COLUMNS[5:]

# Dimensions of the published Twitter GloVe releases: `synth --embedding-dim`
# writes only these, and `train` takes any positive one (fixtures use d=2).
CANONICAL_DIMENSIONS = (25, 50, 100, 200)

# Checkpoint kinds of the contextual and the tweet-only net (`nnet.model`).
CHECKPOINT_KINDS = ("contextual_lstm", "tweet_lstm")


class BaselineKind(str, enum.Enum):
    """The classical baselines (`baselines.REGISTRY`)."""

    LOGREG = "logreg"
    SGD = "sgd"
    FOREST = "forest"
    ADABOOST = "adaboost"
    MLP = "mlp"


class Strategy(str, enum.Enum):
    """The resampling strategies (`resample.apply_strategy`)."""

    NONE = "none"
    SMOTE = "smote"
    SMOTENN = "smotenn"
    SMOTOMEK = "smotomek"


class Task(str, enum.Enum):
    """What a run classifies: accounts, or single tweets."""

    ACCOUNT = "account"
    TWEET = "tweet"


class Truncation(str, enum.Enum):
    """The end `embedding.truncate` drops from a tweet past max_len tokens."""

    TAIL = "tail"
    HEAD = "head"


def checked(cls):
    """Make the NamedTuple `cls` check every instance its constructor builds
    (a NamedTuple body cannot define `__new__`): an enum field's value
    ("smote") becomes its member, then `_check` raises on values the record
    refuses. `_make` and `_replace` skip both; the package calls neither."""
    new, hints = cls.__new__, typing.get_type_hints(cls)
    kinds = {i: hints[name] for i, name in enumerate(cls._fields)
             if isinstance(hints[name], enum.EnumMeta)}

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self = new(cls, *(kinds[i](v) if i in kinds else v for i, v in enumerate(self)))
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    return cls


class TweetRecord(NamedTuple):
    text: str
    metadata: tuple[int, ...]  # counts in TWEET_METADATA_COLUMNS order
    label: Label
    account_id: str


class AccountRecord(NamedTuple):
    account_id: str
    features: tuple[int, ...]  # ACCOUNT_FEATURE_COLUMNS order, flags as 0/1
    label: Label


class FeatureMatrix:
    """Dense numeric matrix with a per-column schema and parallel labels.

    The substrate every resampler and baseline operates on. Constructors
    reject non-finite entries and width/length mismatches; the arrays are
    frozen after construction.
    """

    __slots__ = ("features", "schema", "labels")

    def __init__(self, features, schema, labels):
        feats = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
        labs = np.asarray(labels, dtype=np.int8)
        schema = tuple(schema)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got ndim={feats.ndim}")
        if feats.shape[1] != len(schema):
            raise ValueError(
                f"row width {feats.shape[1]} != schema width {len(schema)}"
            )
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("labels must be 1-d and parallel to rows")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain NaN or infinite entries")
        if labs.size and not np.all((labs == 0) | (labs == 1)):
            raise ValueError("labels must be 0 (human) or 1 (bot)")
        feats.setflags(write=False)
        labs.setflags(write=False)
        self.features, self.schema, self.labels = feats, schema, labs

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(human count, bot count)."""
        bots = int(np.sum(self.labels == Label.BOT))
        return self.n_rows - bots, bots

    def select(self, indices) -> FeatureMatrix:
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureMatrix(self.features[idx], self.schema, self.labels[idx])

    def with_rows_appended(self, rows: np.ndarray, labels) -> FeatureMatrix:
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, self.n_features)
        labs = np.concatenate([self.labels, np.asarray(labels, dtype=np.int8)])
        return FeatureMatrix(np.vstack([self.features, rows]), self.schema, labs)


def matrix_to_csv_lines(matrix: FeatureMatrix) -> list[str]:
    """Serialize as CSV with a trailing `label` column (human/bot)."""
    lines = [",".join(matrix.schema + ("label",))]
    for row, lab in zip(matrix.features, matrix.labels):
        cells = [repr(float(v)) for v in row]
        cells.append(Label(int(lab)).name.lower())
        lines.append(",".join(cells))
    return lines


def matrix_from_csv_lines(lines, path) -> FeatureMatrix:
    """The matrix in the lines of the CSV file `path`, which errors name."""
    rows = [(lineno, ln.strip()) for lineno, ln in enumerate(lines, start=1)
            if ln.strip() and not ln.startswith("#")]
    if len(rows) < 2:
        raise DataError(f"{path}: matrix CSV has no data rows")
    header = rows[0][1].split(",")
    if len(header) < 2 or header[-1] != "label":
        raise DataError(f"{path}: matrix CSV must end with a `label` column")
    schema = tuple(h.strip() for h in header[:-1])
    feats, labels = [], []
    for lineno, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
        name = cells[-1].strip().lower()
        if name not in ("human", "bot"):
            raise DataError(f"{path}:{lineno}: unknown label {cells[-1]!r}")
        try:
            feats.append([float(c) for c in cells[:-1]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not np.all(np.isfinite(feats[-1])):
            raise DataError(f"{path}:{lineno}: a feature cell is NaN or infinite")
        labels.append(Label.BOT if name == "bot" else Label.HUMAN)
    return FeatureMatrix(np.array(feats, dtype=np.float64), schema, labels)


class Standardizer(NamedTuple):
    """Per-column z-score transform; zero-variance columns get std 1.0."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> Standardizer:
        features = np.asarray(features, dtype=np.float64)
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        mean.setflags(write=False)
        std.setflags(write=False)
        return cls(mean=mean, std=std)

    @classmethod
    def load(cls, arrays, prefix: str, width: int) -> Standardizer:
        """The width-wide standardizer a checkpoint's tensors
        (`persist.load_model`) hold as `<prefix>.mean` and `<prefix>.std`,
        read through `Entries.shaped`. A std that is not positive is a
        DataError too: `fit` writes none, and scoring would divide by it."""
        mean, std = (arrays.shaped(f"{prefix}.{name}", (width,)) for name in ("mean", "std"))
        if not np.all(std > 0.0):
            raise DataError(f"{arrays.path}: tensor '{prefix}.std' is not positive")
        return cls(mean=mean, std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


@checked
class SplitSpec(NamedTuple):
    train_fraction: float = 0.8
    stratified: bool = True
    seed: int = 0

    def _check(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


@checked
class ResampleConfig(NamedTuple):  # `resample.apply_strategy`'s settings
    strategy: Strategy = Strategy.NONE
    smote_k: int = 5
    enn_k: int = 3
    target_ratio: float = 1.0
    seed: int = 0

    def _check(self):
        if self.smote_k < 1 or self.enn_k < 1:
            raise ValueError(f"smote_k and enn_k must be >= 1, got {self.smote_k} and {self.enn_k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.target_ratio < np.inf:
            raise ValueError(f"target_ratio must be positive and finite, got {self.target_ratio}")


def split_indices(
    labels,
    spec: SplitSpec,
    groups=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition row indices into (train, test), deterministic under the seed.

    Stratified mode preserves the class ratio within one row per class.
    When ``groups`` is given, whole groups (e.g. accounts) are assigned to one
    side; stratification then applies at the group level.
    """
    labels = np.asarray(labels, dtype=np.int8)
    n = labels.shape[0]
    if n == 0:
        raise DataError("cannot split an empty matrix")
    rng = np.random.Generator(np.random.PCG64(spec.seed))

    if groups is not None:
        groups = np.asarray(groups)
        uniq, first_pos = np.unique(groups, return_index=True)
        group_labels = labels[first_pos]
        tr_g, te_g = _split_units(len(uniq), group_labels, spec, rng)
        train_groups = set(uniq[tr_g].tolist())
        member = np.array([g in train_groups for g in groups])
        return np.flatnonzero(member), np.flatnonzero(~member)

    return _split_units(n, labels, spec, rng)


def _split_units(n, labels, spec, rng):
    if spec.stratified:
        sides_train, sides_test = [], []
        for cls in (Label.HUMAN, Label.BOT):
            members = np.flatnonzero(labels == cls)
            if members.size == 0:
                raise DataError(f"stratified split requires both classes; {cls.name} absent")
            k = int(round(spec.train_fraction * members.size))
            k = min(max(k, 0), members.size)
            perm = rng.permutation(members.size)
            sides_train.append(members[perm[:k]])
            sides_test.append(members[perm[k:]])
        train = np.sort(np.concatenate(sides_train))
        test = np.sort(np.concatenate(sides_test))
    else:
        k = int(round(spec.train_fraction * n))
        perm = rng.permutation(n)
        train = np.sort(perm[:k])
        test = np.sort(perm[k:])
    return train, test
