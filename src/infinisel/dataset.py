"""Dataset ingestion, validation, and per-feature preprocessing.

Supported input formats are comma-separated values (optional header row,
optional label column) and the sparse ``label idx:val idx:val`` line format
with 1-based, strictly increasing indices. Loaded datasets are immutable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

PREPROCESSING_SCHEMES = ("none", "normalize", "standardize")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """An n-samples by m-features matrix with optional labels and names.

    Instances are validated on construction and never mutated afterwards;
    they can be shared freely across workers.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"dataset '{self.name}': values must be 2-D, got shape {values.shape}")
        n, m = values.shape
        if n < 2:
            raise DataError(f"dataset '{self.name}': need at least 2 samples, got {n}")
        if m < 1:
            raise DataError(f"dataset '{self.name}': need at least 1 feature, got {m}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"dataset '{self.name}': non-finite value at sample {bad[0]}, feature {bad[1]}"
            )
        object.__setattr__(self, "values", _readonly(values))

        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (n,):
                raise DataError(
                    f"dataset '{self.name}': {labels.size} labels for {n} samples"
                )
            if np.unique(labels).size < 2:
                raise DataError(f"dataset '{self.name}': labels must have at least 2 classes")
            object.__setattr__(self, "labels", _readonly(labels))

        if self.feature_names is not None:
            names = tuple(self.feature_names)
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


@dataclass(frozen=True)
class FeatureScaler:
    """A fitted per-feature affine transform.

    ``scale`` is 0 for features that were constant in the fitting data;
    those columns map to all-zeros when applied.
    """

    scheme: str
    shift: np.ndarray
    scale: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if self.scheme == "none":
            return values.copy()
        out = values - self.shift
        nonzero = self.scale > 0
        out[:, nonzero] /= self.scale[nonzero]
        out[:, ~nonzero] = 0.0
        return out


def validate_scheme(scheme: str) -> str:
    if scheme not in PREPROCESSING_SCHEMES:
        raise DataError(
            f"unknown preprocessing scheme {scheme!r}; expected one of {PREPROCESSING_SCHEMES}"
        )
    return scheme


def fit_scaler(values: np.ndarray, scheme: str) -> FeatureScaler:
    """Fit per-feature preprocessing statistics on a value matrix."""
    validate_scheme(scheme)
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[1]
    if scheme == "none":
        return FeatureScaler("none", np.zeros(m), np.ones(m))
    if scheme == "normalize":
        lo = values.min(axis=0)
        return FeatureScaler("normalize", lo, values.max(axis=0) - lo)
    # standardize: population variance (divide by n)
    return FeatureScaler("standardize", values.mean(axis=0), values.std(axis=0))


def preprocess(dataset: Dataset, scheme: str) -> Dataset:
    """Apply a preprocessing scheme fitted on the dataset itself.

    ``normalize`` maps each feature affinely onto [0, 1]; ``standardize``
    maps each feature to zero mean and unit population variance; ``none``
    is the identity. Constant features become all-zeros under both
    non-trivial schemes. Labels and names are unchanged.
    """
    scaler = fit_scaler(dataset.values, scheme)
    return dataset.with_values(scaler.apply(dataset.values))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_cell(token: str, row: int, col: int, colname: str | None) -> float:
    where = f"row {row}, column {col}" + (f" ({colname})" if colname else "")
    token = token.strip()
    if not token:
        raise DataError(f"empty cell at {where}")
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"non-numeric value {token!r} at {where}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {token!r} at {where}")
    return value


def _parse_label(token: str, row: int, col: int) -> int:
    # int() first: float() would merge distinct labels above 2**53.
    token = token.strip()
    where = f"row {row}, column {col}"
    try:
        value = int(token)
    except ValueError:
        real = float(token) if _is_number(token) else math.nan
        if not real.is_integer():
            raise DataError(f"non-integer label {token!r} at {where}") from None
        value = int(real)
    if not -(2**63) <= value < 2**63:
        raise DataError(f"label {token!r} at {where} is outside the 64-bit integer range")
    return value


def load_csv(path: str, label_column: str | None = None, name: str | None = None) -> Dataset:
    """Load a comma-separated dataset.

    The first row is treated as a header iff any of its cells is
    non-numeric. When ``label_column`` names a header column, that column
    is parsed as integer class labels and excluded from the features.
    Error messages carry 1-based row/column coordinates.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:  # non-UTF-8 bytes, over-long fields
        raise DataError(f"{path}: unparseable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")

    has_header = any(not _is_number(cell) for cell in rows[0])
    header = [cell.strip() for cell in rows[0]] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise DataError(f"{path}: no data rows")

    width = len(rows[0])
    label_idx: int | None = None
    if label_column is not None:
        if header is None or label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found in header")
        label_idx = header.index(label_column)

    values = np.empty((len(data_rows), width - (0 if label_idx is None else 1)))
    labels = np.empty(len(data_rows), dtype=np.int64) if label_idx is not None else None
    for r, row in enumerate(data_rows):
        rownum = r + (2 if has_header else 1)
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

    feature_names = None
    if header is not None:
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    try:
        return Dataset(values, labels, feature_names, name if name is not None else path)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_libsvm(path: str, name: str | None = None) -> Dataset:
    """Load a sparse ``label idx:val`` dataset.

    Indices are 1-based and must be strictly increasing within a line;
    absent indices are zero-filled. The width is the maximum index seen.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None

    parsed: list[tuple[int, list[tuple[int, float]]]] = []
    max_idx = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        label = _parse_label(tokens[0], lineno, 1)
        pairs: list[tuple[int, float]] = []
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
            pairs.append((idx, val))
            prev = idx
        max_idx = max(max_idx, prev)
        parsed.append((label, pairs))

    if not parsed:
        raise DataError(f"{path}: empty file")
    if max_idx == 0:
        raise DataError(f"{path}: no feature values in any line")

    values = np.zeros((len(parsed), max_idx))
    labels = np.empty(len(parsed), dtype=np.int64)
    for r, (label, pairs) in enumerate(parsed):
        labels[r] = label
        for idx, val in pairs:
            values[r, idx - 1] = val
    try:
        return Dataset(values, labels, None, name if name is not None else path)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
