"""Brute-force reference implementations shared by the test modules.

These deliberately avoid the library's histogram and linear-algebra code
paths: contingency tables are built by boolean masks, Spearman midranks by
explicit tie averaging with dot products in Python integers, and walk
energies go through an explicit eigendecomposition plus matrix inverse, or
through truncated path sums. CSV files are read by ``csv.reader`` and
parsed cell by cell. Mutual information is H(X) + H(Y) − H(X, Y), each
plug-in entropy ``math.fsum`` of c·log(n / c) over its cell counts c,
divided by n: counted by boolean masks in ``plugin_mi``, and by one
``np.bincount`` per pair in the per-pair loop (``_mi``), the kernel's
bitwise references. ``plugin_mi_cells`` keeps the textbook per-cell sum
of p·log(p / (pa·pb)) as a reference to within rounding. Bin codes have
the per-column discretization that the one-pass ``_discretize`` replaced.
``midranks_untiled`` and ``discretize_untiled`` rank and bin every column
in one pass, as the column-tiled ``_midranks`` and ``_discretize`` did
before they were tiled: their bitwise references.
"""

import csv
import math
from typing import NamedTuple

import numpy as np

from infinisel.dataset import Dataset, DataError, _is_number, _parse_cell, _parse_label
from infinisel.measures import BinningPolicy, _midranks


def plugin_entropy(counts, n):
    """Plug-in entropy (nats) of n samples in cells of these integer counts:
    the ``math.fsum`` of c·log(n / c) over the occupied cells, over n."""
    return math.fsum(c * math.log(n / c) for c in counts if c > 0) / n


def plugin_mi(x_codes, y_codes):
    """Plug-in MI (nats) as H(X) + H(Y) − H(X, Y), clipped at 0, with every
    cell counted by a boolean mask. It reads only the multisets of counts, so
    pairs whose counts agree tie bitwise."""
    n = len(x_codes)
    xs, ys = np.unique(x_codes), np.unique(y_codes)
    hx = plugin_entropy([int(np.sum(x_codes == a)) for a in xs], n)
    hy = plugin_entropy([int(np.sum(y_codes == b)) for b in ys], n)
    hxy = plugin_entropy([int(np.sum((x_codes == a) & (y_codes == b))) for a in xs for b in ys], n)
    return max((hx + hy) - hxy, 0.0)


def plugin_mi_cells(x_codes, y_codes):
    """The textbook per-cell form: ``math.fsum`` of p·log(p / (pa·pb)) over
    the occupied cells of the joint table. Equal to ``plugin_mi`` in exact
    arithmetic; the two round apart."""
    terms = []
    for a in np.unique(x_codes):
        for b in np.unique(y_codes):
            pxy = np.mean((x_codes == a) & (y_codes == b))
            if pxy > 0:
                terms.append(pxy * math.log(pxy / (np.mean(x_codes == a) * np.mean(y_codes == b))))
    return math.fsum(terms)


def entropy(codes):
    return -math.fsum(
        np.mean(codes == v) * math.log(np.mean(codes == v)) for v in np.unique(codes)
    )


def nmi(x_codes, y_codes):
    h = min(entropy(x_codes), entropy(y_codes))
    return 0.0 if h == 0 else plugin_mi(x_codes, y_codes) / h


def _twice_centred_midranks(values):
    # Twice the average 1-based position of each tie group, minus (n + 1).
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for k in order[start:end + 1]:
            ranks[k] = (start + 1) + (end + 1)
        start = end + 1
    return [r - (len(values) + 1) for r in ranks]


def auc_pairs(scores, labels, positive):
    """AUC as the share of (positive, negative) pairs ordered right, a tie
    worth one half: U / (n_pos * n_neg), counted pair by pair."""
    pos = [float(s) for s, y in zip(scores, labels) if y == positive]
    neg = [float(s) for s, y in zip(scores, labels) if y != positive]
    twice_u = sum(2 * (p > q) + (p == q) for p in pos for q in neg)
    return (twice_u / 2) / (len(pos) * len(neg))


def spearman_exact(x, y):
    """Spearman correlation with exact integer sums, then one float formula:
    dot / sqrt(sq_x * sq_y), clipped to [-1, 1], and 0 for a constant input."""
    a, b = _twice_centred_midranks(x), _twice_centred_midranks(y)
    dot = sum(p * q for p, q in zip(a, b))
    denom = math.sqrt(float(sum(p * p for p in a)) * float(sum(q * q for q in b)))
    return 0.0 if denom == 0.0 else min(max(float(dot) / denom, -1.0), 1.0)


def inverse_route_scores(a, c):
    """Walk energies via eigendecomposition and an explicit inverse."""
    a = np.asarray(a, dtype=float)
    rho = np.abs(np.linalg.eigvalsh(a)).max()
    r = c / rho
    m = a.shape[0]
    return (np.linalg.inv(np.eye(m) - r * a) - np.eye(m)) @ np.ones(m)


def truncated_energy_scores(a, r, max_len):
    """Partial walk-energy sums ``sum_{l=1..max_len} r^l A^l @ 1``, by
    repeated matrix-vector products."""
    a = np.asarray(a, dtype=float)
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    p = np.ones(a.shape[0])
    acc = np.zeros(a.shape[0])
    for _ in range(max_len):
        p = r * (a @ p)
        acc += p
    return acc


def truncation_length(c, tol=1e-10):
    """Path length at which the geometric tail drops below ``tol``."""
    return int(np.ceil(np.log(tol * (1.0 - c)) / np.log(c)))


def train_linear_reference(x, y, cost, epochs):
    """``train_linear``'s batch subgradient loop written plainly: margins
    recomputed at each epoch start, the hinge averaged by ``ndarray.mean``,
    and an ``accepted`` flag for the backtracking search. Returns the
    weights, the bias, the objective history and why the loop stopped
    ("cap", "gradient" or "no step")."""
    x = np.asarray(x, dtype=np.float64)
    classes = np.unique(y)
    t = np.where(np.asarray(y) == classes[1], 1.0, -1.0)
    n, k = x.shape
    lam = 1.0 / cost

    def objective(w, b):
        margins = t * (x @ w + b)
        return 0.5 * lam * float(w @ w) + float(np.maximum(0.0, 1.0 - margins).mean())

    w = np.zeros(k)
    b = 0.0
    obj = objective(w, b)
    history = [obj]
    step = 1.0
    for _ in range(epochs):
        margins = t * (x @ w + b)
        active = t * (margins < 1.0)
        gw = lam * w - (active @ x) / n
        gb = -float(active.sum()) / n
        if float(gw @ gw) + gb * gb <= 1e-24:
            return w, float(b), history, "gradient"
        step = min(step * 2.0, 1e6)
        accepted = False
        while step > 1e-18:
            w_new = w - step * gw
            b_new = b - step * gb
            obj_new = objective(w_new, b_new)
            if obj_new < obj:
                w, b, obj = w_new, b_new, obj_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return w, float(b), history, "no step"
        history.append(obj)
    return w, float(b), history, "cap"


def load_csv_reference(path, label_column=None):
    """``load_csv`` as a per-cell loop only: every row through
    ``csv.reader`` and every cell through ``float()`` or ``int()``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    return Dataset(values, labels, feature_names, path)


def discretize_reference(x: np.ndarray, ranks: np.ndarray, policy: BinningPolicy) -> tuple[np.ndarray, int]:
    """One column's bin codes and bin count, the per-column way
    ``measures._discretize`` replaced: distinct values counted on the
    midranks under either binning."""
    n = x.size
    occupied = np.bincount(ranks + n - 1, minlength=2 * n - 1) > 0
    distinct = int(occupied.sum())
    if distinct <= policy.bin_count:
        return np.cumsum(occupied)[ranks + n - 1] - 1, distinct
    bins = policy.bin_count
    if policy.kind == "equal_width":
        codes = np.floor((x - x.min()) / np.ptp(x) * bins).astype(np.int64)
    else:
        codes = np.floor((ranks + n) / 2 / n * bins).astype(np.int64)
    return np.clip(codes, 0, bins - 1), bins


def midranks_untiled(values: np.ndarray) -> np.ndarray:
    """``_midranks`` in one pass over all columns, in int64."""
    rows = np.ascontiguousarray(values.T)
    m, n = rows.shape
    order = np.argsort(rows, axis=1)
    ordered = np.take_along_axis(rows, order, axis=1)
    edge = np.ones((m, n + 1), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=edge[:, 1:n])
    k = np.arange(n + 1, dtype=np.int64)
    starts = np.where(edge, k, 0)
    np.maximum.accumulate(starts, axis=1, out=starts)
    ends = np.where(edge, k, n)[:, ::-1]
    np.minimum.accumulate(ends, axis=1, out=ends)
    sorted_ranks = starts[:, :n] + ends[:, ::-1][:, 1:] - n
    ranks = np.empty((m, n), dtype=np.int64)
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    return ranks.T


def discretize_untiled(values: np.ndarray, policy: BinningPolicy,
                       ranks: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_discretize`` in one pass over all columns: int64 codes and counts."""
    n = len(values)
    bins = min(policy.bin_count, n)
    if policy.kind == "equal_width":
        rows = np.ascontiguousarray(values.T)
    else:
        rows = (midranks_untiled(values) if ranks is None else ranks).T
    levels = np.sort(rows, axis=1)
    first = np.ones(rows.shape, dtype=bool)
    np.not_equal(levels[:, 1:], levels[:, :-1], out=first[:, 1:])
    distinct = first.sum(axis=1)
    categorical = distinct <= bins
    if policy.kind == "equal_width":
        wide = np.flatnonzero(~categorical & (levels[:, -1] / 2 - levels[:, 0] / 2 > np.finfo(np.float64).max / 2))
        if wide.size:
            lo, hi = float(levels[wide[0], 0]), float(levels[wide[0], -1])
            raise ValueError(f"column {wide[0]} spans {lo!r} to {hi!r}: its range overflows float64, "
                             "so equal-width bins cannot cut it")
        lo = np.where(categorical[:, None], 0.0, levels[:, :1])
        span = np.where(categorical[:, None], np.inf, levels[:, -1:]) - lo
        scaled = (rows - lo) / span * bins
    else:
        scaled = (rows + n) / 2 / n * bins
    codes = np.clip(np.floor(scaled), 0, bins - 1).astype(np.int64)
    cat = np.flatnonzero(categorical)
    if cat.size:
        sorted_runs = np.cumsum(first[cat], axis=1) - 1
        runs = np.empty_like(sorted_runs)
        np.put_along_axis(runs, np.argsort(rows[cat], axis=1), sorted_runs, axis=1)
        codes[cat] = runs
    return codes, np.where(categorical, distinct, bins)


class _MiState(NamedTuple):  # one feature or the labels, for MI
    codes: np.ndarray
    bins: int
    entropy: float


def _mi_state(codes: np.ndarray, bins: int) -> _MiState:
    return _MiState(codes, bins, plugin_entropy(np.bincount(codes, minlength=bins).tolist(), codes.size))


def _mi_states(values: np.ndarray, policy: BinningPolicy, ranks: np.ndarray | None = None) -> list[_MiState]:
    if ranks is None:
        ranks = _midranks(values)  # unless the caller has ranked already
    return [_mi_state(*discretize_reference(x, r, policy)) for x, r in zip(values.T, ranks.T)]


def _label_state(labels: np.ndarray) -> _MiState:
    # Labels are already discrete: each class is one bin, never re-binned.
    classes, codes = np.unique(labels, return_inverse=True)
    return _mi_state(codes.astype(np.int64), int(classes.size))


def _mi(a: _MiState, b: _MiState) -> float:
    """Raw plug-in MI (nats): the marginal entropies plus the joint table's,
    from one ``np.bincount`` of the pair's joint codes."""
    joint = np.bincount(a.codes * b.bins + b.codes, minlength=a.bins * b.bins)
    return max((a.entropy + b.entropy) - plugin_entropy(joint.tolist(), a.codes.size), 0.0)


def _nmi(a: _MiState, b: _MiState) -> float:
    h = min(a.entropy, b.entropy)
    return 0.0 if h == 0.0 else min(_mi(a, b) / h, 1.0)


def _symmetric_block(states: list, pair) -> np.ndarray:
    # One evaluation per pair i <= j fills both halves: exactly symmetric.
    m = len(states)
    block = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            block[i, j] = block[j, i] = pair(states[i], states[j])
    return block
