"""Dataset ingestion, validation, and per-feature preprocessing.

Supported input formats are comma-separated values (optional header row,
optional label column) and the sparse ``label idx:val idx:val`` line format
with 1-based, strictly increasing indices. Loaded datasets are immutable.
"""

from __future__ import annotations

import codecs
import csv
import math
import numbers
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

PREPROCESSING_SCHEMES = ("none", "normalize", "standardize")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_int64(v) -> bool:
    """Whether label ``v`` is an integer, or an integral float, within int64."""
    if isinstance(v, float):
        return v.is_integer() and -(2.0**63) <= v < 2.0**63
    return isinstance(v, numbers.Integral) and -(2**63) <= int(v) < 2**63


# Budget of one tile's temporaries, which every kernel reads at each call
# through ``_column_tiles``: per-column work runs over tiles of columns and
# the MI kernel over tiles of pairs, so no step holds a temporary the size
# of the matrix. Tiles of 1 MB left the heap ~0.6 MB larger at n=500, m=60,
# with no speed gain.
_TILE_BYTES = 768 << 10


def _column_tiles(n: int, m: int) -> list[slice]:
    """Slices of consecutive columns covering all ``m``, each as wide as an
    n-row float64 block within ``_TILE_BYTES`` allows, and one column at least."""
    width = max(_TILE_BYTES // (8 * n), 1)
    return [slice(a, min(a + width, m)) for a in range(0, m, width)]


class _Fresh:
    """A float64 matrix this package has just built for one ``Dataset``,
    which freezes it in place rather than copying it."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n-samples by m-features matrix with optional labels and names.

    Instances are validated on construction and hold read-only arrays of
    their own, never the caller's; they can be shared freely across workers.
    ``std`` holds each feature's population standard deviation, computed by
    the checks (bitwise ``feature_std()``), never passed in.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    name: str = ""
    std: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.values, _Fresh):
            values = self.values.array
        else:
            values = np.asarray(self.values, dtype=np.float64)
            if values is self.values:  # freeze a private copy, never the caller's array
                values = values.copy()
        if values.ndim != 2:
            raise DataError(f"dataset '{self.name}': values must be 2-D, got shape {values.shape}")
        n, m = values.shape
        if n < 2:
            raise DataError(f"dataset '{self.name}': need at least 2 samples, got {n}")
        if m < 1:
            raise DataError(f"dataset '{self.name}': need at least 1 feature, got {m}")
        # Each std is reduced as feature_std() reduces its column, on one tile
        # of transposed columns at a time: no temporary the size of the matrix.
        # A finite std bounds every deviation, so scaling and measures stay
        # finite, and a non-finite value makes its column's std non-finite.
        with np.errstate(over="ignore", invalid="ignore"):
            std = np.concatenate([np.ascontiguousarray(values[:, tile].T).std(axis=1)
                                  for tile in _column_tiles(n, m)])
        finite = np.isfinite(std)
        if not finite.all():
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                raise DataError(f"dataset '{self.name}': non-finite value at sample {bad[0, 0]}, feature {bad[0, 1]}")
            raise DataError(f"dataset '{self.name}': standard deviation of feature "
                            f"{np.argmin(finite)} overflows float64")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "std", _readonly(std))

        if self.labels is not None:
            labels = self.labels
            if not isinstance(labels, np.ndarray):  # object dtype: big ints never pass through float
                labels = np.asarray(labels, dtype=object)
            if labels.shape != (n,):
                raise DataError(
                    f"dataset '{self.name}': {labels.size} labels for {n} samples"
                )
            if labels.dtype != np.int64:
                for i, v in enumerate(labels.tolist()):
                    if not _is_int64(v):
                        raise DataError(f"dataset '{self.name}': label {v!r} of sample {i} "
                                        "is not an integer in the 64-bit range")
                labels = labels.astype(np.int64)
            elif labels is self.labels:
                labels = labels.copy()
            if np.unique(labels).size < 2:
                raise DataError(f"dataset '{self.name}': labels must have at least 2 classes")
            object.__setattr__(self, "labels", _readonly(labels))

        if self.feature_names is not None:
            if isinstance(self.feature_names, str):
                raise DataError(f"dataset '{self.name}': feature names must be a sequence of strings, not one string")
            names = tuple(self.feature_names)
            for x in names:
                if not isinstance(x, str):
                    raise DataError(f"dataset '{self.name}': feature name {x!r} is not a string")
            if len(names) != m:
                raise DataError(
                    f"dataset '{self.name}': {len(names)} feature names for {m} features"
                )
            if len(set(names)) != len(names):
                raise DataError(f"dataset '{self.name}': feature names are not unique")
            object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "Dataset":
        """A copy of this dataset with the value matrix replaced."""
        return Dataset(values, self.labels, self.feature_names, self.name)

    def feature_name(self, i: int) -> str:
        if self.feature_names is not None:
            return self.feature_names[i]
        return f"f{i}"


@dataclass(frozen=True, eq=False)
class FeatureScaler:
    """A fitted per-feature affine transform, ``(values - shift) / scale``.

    ``scale`` is 0 for features that were constant in the fitting data;
    those columns map to all-zeros when applied.
    """

    shift: np.ndarray
    scale: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        nonzero = self.scale > 0
        out = np.asarray(values, dtype=np.float64) - self.shift
        np.divide(out, self.scale, out=out, where=nonzero)
        out[:, ~nonzero] = 0.0
        return out


def fit_scaler(dataset: Dataset, scheme: str) -> FeatureScaler:
    """Fit per-feature preprocessing statistics on a checked dataset: standardize
    divides by ``dataset.std``, and a constant column (min equal to max) gets scale 0."""
    if scheme not in PREPROCESSING_SCHEMES:
        raise DataError(
            f"unknown preprocessing scheme {scheme!r}; expected one of {PREPROCESSING_SCHEMES}"
        )
    if scheme == "none":
        return FeatureScaler(np.zeros(dataset.m), np.ones(dataset.m))
    lo, hi = dataset.values.min(axis=0), dataset.values.max(axis=0)
    if scheme == "normalize":
        return FeatureScaler(lo, hi - lo)
    return FeatureScaler(dataset.values.mean(axis=0), np.where(hi > lo, dataset.std, 0.0))


def preprocess(dataset: Dataset, scheme: str) -> Dataset:
    """Apply a preprocessing scheme fitted on the dataset itself.

    ``normalize`` maps each feature affinely onto [0, 1]; ``standardize``
    maps each feature to zero mean and unit population variance (``dataset.std``);
    ``none`` is the identity. Constant features (min equal to max) become
    all-zeros under both non-trivial schemes. Labels and names are unchanged.
    """
    scaler = fit_scaler(dataset, scheme)
    return dataset.with_values(_Fresh(scaler.apply(dataset.values)))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# U+001C–U+001F: whitespace to str.strip() and numpy, not to float().
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _shown(token: str) -> str:
    # The cell as an error quotes it. str.strip() also removes the separators,
    # which float() and int() reject: quote the raw cell then, so a message
    # never names a token that parses.
    shown = token.strip()
    lead = len(token) - len(token.lstrip())
    if set(_SEPARATORS).intersection(token[:lead] + token[lead + len(shown):]):
        return token
    return shown


def _parse_cell(token: str, row: int, col: int, colname: str | None) -> float:
    # float() strips whitespace as str.strip() does, the separators apart; the
    # location is only formatted on the error path, which keeps loading cheap.
    try:
        value = float(token)
    except ValueError:
        value = None
    if value is not None and math.isfinite(value):
        return value
    where = f"row {row}, column {col}" + (f" ({colname})" if colname else "")
    shown = _shown(token)
    if not shown:
        raise DataError(f"empty cell at {where}")
    if value is None:
        raise DataError(f"non-numeric value {shown!r} at {where}")
    raise DataError(f"non-finite value {shown!r} at {where}")


def _parse_label(token: str, row: int, col: int) -> int:
    # int() first: float() would merge distinct labels above 2**53. Both strip
    # whitespace as str.strip() does, apart from the separators: they reject
    # those, so a label cell parses exactly when a feature cell would.
    where = f"row {row}, column {col}"
    try:
        value = int(token)
    except ValueError:
        real = float(token) if _is_number(token) else math.nan
        if not real.is_integer():
            raise DataError(f"non-integer label {_shown(token)!r} at {where}") from None
        value = int(real)
    if not -(2**63) <= value < 2**63:
        raise DataError(f"label {_shown(token)!r} at {where} is outside the 64-bit integer range")
    return value


def _header(path: str, first_row: list[str], n_rows: int) -> list[str] | None:
    """The header of a file of ``n_rows`` non-empty rows, or None if its
    first row is all numeric."""
    if all(_is_number(cell) for cell in first_row):
        return None
    if n_rows == 1:
        raise DataError(f"{path}: no data rows")
    return [cell.strip() for cell in first_row]


def _label_index(path: str, header: list[str] | None, label_column: str | None) -> int | None:
    if label_column is None:
        return None
    if header is None or label_column not in header:
        raise DataError(f"{path}: label column {label_column!r} not found in header")
    return header.index(label_column)


# csv-module syntax (quotes, CR line ends, NUL) and the separators that numpy
# strips as whitespace but float() rejects: text holding any of these is
# parsed cell by cell. Each is one ASCII byte, which no other UTF-8
# character contains.
_CELLWISE = tuple(c.encode() for c in ('"', "\r", "\0", *_SEPARATORS))
_CHUNK = 1 << 20  # bytes per read of the plain-file scan: one read up to 1 MiB


def _scan(fh) -> int | None:
    """One pass over a binary CSV file in ``_CHUNK``-byte reads.

    Returns the count of non-empty lines, or None if the bytes after an
    optional UTF-8 BOM hold a ``_CELLWISE`` byte, no non-empty line, or a
    line longer than ``csv.field_size_limit()`` bytes. Lines are found as
    newline offsets in each chunk; no Python object is made per line, and
    no byte is decoded here.
    """
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    limit = csv.field_size_limit()
    lines, pos, last = 0, 0, -1  # last: offset of the last newline in the pos bytes read
    while chunk := fh.read(_CHUNK):
        if any(c in chunk for c in _CELLWISE):
            return None
        ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + pos
        pos += len(chunk)
        if ends.size:
            lengths = np.diff(ends, prepend=last) - 1
            if lengths.max() > limit:
                return None
            lines += np.count_nonzero(lengths)
            last = int(ends[-1])
    lines += pos - last > 1  # a last line with no newline
    if not lines or pos - last - 1 > limit:
        return None
    return lines


def _parse_plain(path: str, label_column: str | None):
    """Parse a plain numeric CSV file in one ``np.loadtxt`` call, after a
    streamed ``_scan`` of its bytes.

    Returns ``(header, label_idx, values, labels)``, or None whenever the
    per-cell parse could read the file differently or would raise: it then
    words the error. ``np.loadtxt`` reads the file line by line, skipping
    empty lines. A file whose every byte decodes raises its header errors
    here, without that second read.
    """
    with open(path, "rb") as fh:
        n_lines = _scan(fh)
    if n_lines is None:
        return None
    # Default newline handling: ``_scan`` sent any file holding a CR to
    # ``_parse_cells``, so universal newlines translate nothing here, and
    # ``np.loadtxt`` reads this stream faster than a ``newline=""`` one.
    with open(path, encoding="utf-8-sig") as fh:
        try:  # a byte that is not UTF-8, wherever it is, raises a ValueError here
            first = fh.readline()
            while first == "\n":
                first = fh.readline()
            first_row = first.rstrip("\n").split(",")
            header = _header(path, first_row, n_lines)
            if header is None:
                fh.seek(0)  # the first line is data
            table = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            return None
    # Only now, as every byte has decoded: a bad byte outranks a header error.
    label_idx = _label_index(path, header, label_column)
    n_rows = n_lines - (header is not None)
    if table.shape != (n_rows, len(first_row)) or not np.isfinite(table).all():
        return None
    labels = None
    if label_idx is not None:
        labels = table[:, label_idx]
        # Below 2**53 the float of an integer token is exact.
        if not ((np.abs(labels) < 2.0**53) & (np.trunc(labels) == labels)).all():
            return None
        labels = labels.astype(np.int64)
        table = np.delete(table, label_idx, axis=1)
    return header, label_idx, table, labels


def _parse_cells(path: str, label_column: str | None):
    """Parse a CSV file with ``csv.reader`` and ``float()`` cell by cell;
    every parse error message of ``load_csv`` is worded here."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:  # non-UTF-8 bytes, over-long fields
        raise DataError(f"{path}: unparseable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")

    header = _header(path, rows[0], len(rows))
    label_idx = _label_index(path, header, label_column)
    data_rows = rows[1:] if header is not None else rows
    width = len(rows[0])
    values = np.empty((len(data_rows), width - (0 if label_idx is None else 1)))
    labels = np.empty(len(data_rows), dtype=np.int64) if label_idx is not None else None
    for r, row in enumerate(data_rows):
        rownum = r + (1 if header is None else 2)
        if len(row) != width:
            raise DataError(
                f"{path}: row {rownum} has {len(row)} cells, expected {width}"
            )
        k = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                labels[r] = _parse_label(cell, rownum, c + 1)
            else:
                colname = header[c] if header else None
                values[r, k] = _parse_cell(cell, rownum, c + 1, colname)
                k += 1
    return header, label_idx, values, labels


def load_csv(path: str, label_column: str | None = None) -> Dataset:
    """Load a comma-separated dataset.

    The first row is treated as a header iff any of its cells is
    non-numeric. When ``label_column`` names a header column, that column
    is parsed as integer class labels and excluded from the features.
    Error messages carry 1-based row/column coordinates.

    A plain numeric file is first scanned as raw bytes in fixed-size
    chunks (the characters below, line count and length), then decoded
    and parsed by ``np.loadtxt`` reading the open file line by line, in
    text mode with default newline handling: any file holding a CR takes
    the per-cell path, so that translation never changes a byte.
    Memory peaks near twice the value matrix, or a few chunks for a small
    file: the file's text is never held whole, nor all its lines at once.
    Quoted cells, CR line ends, NUL and the control separators
    U+001C..U+001F, non-UTF-8 bytes, lines longer than
    ``csv.field_size_limit()`` bytes, labels at or above 2**53 in magnitude
    and any file that fails to parse take the per-cell path, which reads
    the file again and words every error.
    """
    try:
        header, label_idx, values, labels = _parse_plain(path, label_column) or _parse_cells(path, label_column)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    feature_names = None
    if header is not None:
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    return Dataset(_Fresh(values), labels, feature_names, path)


def load_libsvm(path: str) -> Dataset:
    """Load a sparse ``label idx:val`` dataset.

    Indices are 1-based and must be strictly increasing within a line;
    absent indices are zero-filled. The width is the maximum index seen.
    One streamed pass fills flat buffers, then a few indexed assignments,
    one per chunk of rows, fill the zero matrix: traced by ``tracemalloc``,
    a half-dense file peaks near 2.1× its matrix, a dense one near 3.15×.
    A matrix too large to allocate is a ``DataError``.
    """
    labels, counts, cols, vals = array("q"), array("q"), array("q"), array("d")
    width = 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if not tokens:
                    continue
                labels.append(_parse_label(tokens[0], lineno, 1))
                prev = 0
                for tok in tokens[1:]:
                    idx_str, sep, val_str = tok.partition(":")
                    if not sep:
                        raise DataError(f"{path}: line {lineno}: malformed pair {tok!r}")
                    try:
                        idx = int(idx_str)
                    except ValueError:
                        raise DataError(f"{path}: line {lineno}: bad index in {tok!r}") from None
                    if idx < 1:
                        raise DataError(f"{path}: line {lineno}: index {idx} < 1")
                    if idx <= prev:
                        raise DataError(
                            f"{path}: line {lineno}: index {idx} not increasing (previous {prev})"
                        )
                    try:
                        val = float(val_str)
                    except ValueError:
                        raise DataError(f"{path}: line {lineno}: bad value in {tok!r}") from None
                    if not math.isfinite(val):
                        raise DataError(f"{path}: line {lineno}: non-finite value in {tok!r}")
                    try:
                        cols.append(idx - 1)
                    except OverflowError:  # past int64: the allocation below rejects the width
                        cols.append(0)
                    vals.append(val)
                    prev = idx
                width = max(width, prev)
                counts.append(len(tokens) - 1)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None

    if not labels:
        raise DataError(f"{path}: empty file")
    if width == 0:
        raise DataError(f"{path}: no feature values in any line")
    try:
        values = np.zeros((len(labels), width))
    except (MemoryError, ValueError):  # ValueError: a size past what numpy can address
        raise DataError(f"{path}: cannot allocate the {len(labels)} x {width} value matrix "
                        f"({8 * len(labels) * width} bytes)") from None
    # In chunks of consecutive rows, each closed once it holds a 256th of
    # the entries: a chunk's row index is a 256th of the column buffer plus
    # one row at most, and the chunks are too few to cost time.
    cols, vals = np.frombuffer(cols, dtype=np.int64), np.frombuffer(vals)
    step, first, start, end = len(vals) // 256 + 1, 0, 0, 0
    for row, count in enumerate(counts, start=1):
        end += count
        if end - start >= step or row == len(counts):
            values[np.repeat(np.arange(first, row), counts[first:row]), cols[start:end]] = vals[start:end]
            first, start = row, end
    del cols, vals  # before Dataset's checks add their temporaries
    return Dataset(_Fresh(values), np.frombuffer(labels, dtype=np.int64), None, path)
