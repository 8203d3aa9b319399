"""Versioned plain-text model file format shared by every trainable model.

Layout:

    botdetect-model v1
    meta <key> = <value>
    tensor <name> <n_dims> <d0> <d1> ...
    <row-major values, one row per line, repr-formatted floats>
    end

Float values are written with repr, which round-trips float64 exactly, so a
saved model reloads bit-identically and identical models serialize to
identical bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, text_file

FORMAT_HEADER = "botdetect-model v1"


class Entries(dict):
    """A checkpoint's meta entries or its tensors; reading a missing key is a
    DataError naming the file and the entry."""

    def __init__(self, path, sort: str):
        super().__init__()
        self.path = path
        self.sort = sort

    def __missing__(self, key):
        raise DataError(f"{self.path}: missing {self.sort} {key!r}")

    def shaped(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The tensor `name`; another shape, or a value that is not finite, is
        a DataError naming it."""
        if self[name].shape != shape:
            raise DataError(f"{self.path}: tensor {name!r} has shape {self[name].shape}, "
                            f"expected {shape}")
        if not np.all(np.isfinite(self[name])):
            raise DataError(f"{self.path}: tensor {name!r} is not finite")
        return self[name]

    def only(self, names) -> None:
        """An entry outside `names` is a DataError naming it."""
        extra = [name for name in self if name not in names]
        if extra:
            raise DataError(f"{self.path}: unexpected {self.sort} {extra[0]!r}")


def save_model(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the checkpoint row by row, so that no copy of the whole text is
    held; a meta entry with a newline is refused before the file is opened."""
    meta_lines = []
    for key, value in meta.items():
        text = str(value)
        if "\n" in text or "\n" in str(key):
            raise ValueError(f"meta entry {key!r} contains a newline")
        meta_lines.append(f"meta {key} = {text}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.writelines(meta_lines)
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"tensor {name} {arr.ndim} {dims}".rstrip() + "\n")
            # A 2-D tensor is one line per row; any other rank is one line.
            rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
            for row in rows.tolist():
                fh.write(" ".join(map(repr, row)) + "\n")
        fh.write("end\n")


def load_model(path) -> tuple[Entries, Entries]:
    with text_file(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise DataError(f"{path}: not a {FORMAT_HEADER!r} file")
    meta = Entries(path, "meta")
    arrays = Entries(path, "tensor")
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "end":
            return meta, arrays
        if line.startswith("meta "):
            body = line[len("meta "):]
            key, sep, value = body.partition(" = ")
            if not sep:
                raise DataError(f"{path}:{i + 1}: malformed meta line")
            if key in meta:
                raise DataError(f"{path}:{i + 1}: repeated meta {key!r}")
            meta[key] = value
            i += 1
            continue
        if line.startswith("tensor "):
            i += 1
            header = i  # the header's 1-based line number
            try:
                _, name, ndim, *dims = line.split()
                ndim = int(ndim)
                shape = tuple(int(d) for d in dims[:ndim])
                # A 2-D tensor is one line per row; any other rank is one line.
                count = shape[0] if ndim == 2 else 1
                rows = [[float(v) for v in row.split()] for row in lines[i:i + count]]
                arr = np.array(rows, dtype=np.float64).reshape(shape)
                i += count
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{header}: bad tensor: {exc}") from exc
            if name in arrays:
                raise DataError(f"{path}:{header}: repeated tensor {name!r}")
            if np.isnan(arr).any():  # no fit writes one
                raise DataError(f"{path}:{header}: tensor {name!r} holds NaN")
            arrays[name] = arr
            continue
        raise DataError(f"{path}:{i + 1}: unexpected line {line!r}")
    raise DataError(f"{path}: missing end marker")
