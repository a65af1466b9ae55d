"""Scalar association measures between features and labels.

Everything that feeds an adjacency matrix lives here: per-feature standard
deviation, Spearman rank correlation with midrank tie handling, plug-in
mutual information over discretized histograms, and the per-feature mean
redundancy aggregate.

Every MI-based measure (the pairwise block, the scalar measures, label
relevance and mRMR) shares one raw-MI kernel and per-column entropies.
Mutual information uses natural logarithms and is normalized by the smaller
marginal entropy wherever a [0, 1] scale is required. Histogram sums are
accumulated with ``math.fsum`` so that every measure is exactly symmetric
in its two arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .dataset import Dataset
from .errors import ConfigError

BINNING_KINDS = ("equal_width", "equal_frequency")


@dataclass(frozen=True)
class BinningPolicy:
    """Discretization rule for continuous features.

    The effective bin count for a feature never exceeds its number of
    distinct values, so constant or near-constant features degrade
    gracefully to fewer bins.
    """

    kind: str = "equal_frequency"
    bin_count: int = 10

    def __post_init__(self):
        if self.kind not in BINNING_KINDS:
            raise ConfigError(f"unknown binning kind {self.kind!r}; expected one of {BINNING_KINDS}")
        if self.bin_count < 2:
            raise ConfigError(f"bin_count must be >= 2, got {self.bin_count}")


@dataclass(frozen=True)
class MeasureCache:
    """Precomputed measure blocks for one dataset.

    ``mi`` holds pairwise mutual information normalized by the smaller
    marginal entropy; ``rdn`` is its row mean excluding the diagonal.
    Blocks that were not requested are ``None``.
    """

    std: np.ndarray
    spearman: np.ndarray | None = None
    mi: np.ndarray | None = None
    rdn: np.ndarray | None = None
    relevance: np.ndarray | None = None


def feature_std(dataset: Dataset, i: int) -> float:
    """Population standard deviation of feature ``i``."""
    return float(np.std(dataset.values[:, i]))


def _midranks(x: np.ndarray) -> np.ndarray:
    return rankdata(x, method="average")


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    # Pearson correlation of midranks; 0 when either vector is constant.
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    denom = math.sqrt(float(cx @ cx) * float(cy @ cy))
    if denom == 0.0:
        return 0.0
    return float(np.clip((cx @ cy) / denom, -1.0, 1.0))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with midranks for ties.

    Returns 0 when either vector is constant (no monotone association is
    expressible).
    """
    x, y = _check_pair(x, y)
    return _rank_correlation(_midranks(x), _midranks(y))


def discretize(x: np.ndarray, policy: BinningPolicy) -> tuple[np.ndarray, int]:
    """Map a real vector to integer bin codes; returns (codes, bin count).

    A vector with at most ``bin_count`` distinct values is treated as
    categorical and its values become the bins directly. Otherwise
    equal-frequency binning is computed on midranks, so tied values always
    share a bin; either way any strictly increasing transform of ``x``
    yields the same codes.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    distinct, inverse = np.unique(x, return_inverse=True)
    if distinct.size <= policy.bin_count:
        return inverse.astype(np.int64), max(int(distinct.size), 1)
    bins = policy.bin_count
    if policy.kind == "equal_width":
        lo = x.min()
        codes = np.floor((x - lo) / (x.max() - lo) * bins).astype(np.int64)
    else:
        codes = np.floor((_midranks(x) - 0.5) / n * bins).astype(np.int64)
    return np.clip(codes, 0, bins - 1), bins


def label_codes(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Codes for an already-discrete label vector (never re-binned)."""
    classes, codes = np.unique(labels, return_inverse=True)
    return codes.astype(np.int64), int(classes.size)


def _entropy(codes: np.ndarray, bins: int) -> float:
    p = np.bincount(codes, minlength=bins) / codes.size
    return -math.fsum(pi * math.log(pi) for pi in p if pi > 0.0)


def _mi(cx: np.ndarray, bx: int, cy: np.ndarray, by: int) -> float:
    """Raw plug-in MI (nats), summed over the occupied cells of the joint table."""
    n = cx.size
    counts = np.bincount(cx * by + cy, minlength=bx * by).reshape(bx, by)
    # Marginals from integer counts: exact sums, so histograms that are
    # permutations of each other give bitwise-identical MI values.
    px = counts.sum(axis=1) / n
    py = counts.sum(axis=0) / n
    a, b = np.nonzero(counts)
    joint = counts[a, b] / n
    ratio = joint / (px[a] * py[b])
    mi = math.fsum(p * math.log(r) for p, r in zip(joint.tolist(), ratio.tolist()))
    return max(mi, 0.0)


def _nmi(mi: float, h_i: float, h_j: float) -> float:
    h = min(h_i, h_j)
    if h == 0.0:
        return 0.0
    return min(mi / h, 1.0)


def _symmetric_block(m: int, pair) -> np.ndarray:
    # One evaluation per pair i <= j fills both halves: exactly symmetric.
    block = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            block[i, j] = block[j, i] = pair(i, j)
    return block


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    return x, y


def mutual_information(x: np.ndarray, y: np.ndarray, policy: BinningPolicy) -> float:
    """Plug-in mutual information (nats) over the discretized joint histogram."""
    x, y = _check_pair(x, y)
    return _mi(*discretize(x, policy), *discretize(y, policy))


def normalized_mi(x: np.ndarray, y: np.ndarray, policy: BinningPolicy) -> float:
    """Mutual information divided by the smaller marginal entropy.

    Lies in [0, 1]; defined as 0 when either discretized marginal has zero
    entropy.
    """
    x, y = _check_pair(x, y)
    cx, bx = discretize(x, policy)
    cy, by = discretize(y, policy)
    return _nmi(_mi(cx, bx, cy, by), _entropy(cx, bx), _entropy(cy, by))


def rdn(dataset: Dataset, i: int, policy: BinningPolicy) -> float:
    """Mean normalized mutual information between feature ``i`` and all others."""
    m = dataset.m
    if m < 2:
        raise ValueError("redundancy is undefined for a single feature")
    acc = 0.0
    for j in range(m):
        if j != i:
            acc += normalized_mi(dataset.values[:, j], dataset.values[:, i], policy)
    return acc / (m - 1)


def relevance_to_labels(dataset: Dataset, i: int, policy: BinningPolicy) -> float:
    """Normalized mutual information between feature ``i`` and the labels."""
    if dataset.labels is None:
        raise ConfigError("label relevance requires a labeled dataset")
    cx, bx = discretize(dataset.values[:, i], policy)
    cy, by = label_codes(dataset.labels)
    return _nmi(_mi(cx, bx, cy, by), _entropy(cx, bx), _entropy(cy, by))


def build_measure_cache(
    dataset: Dataset,
    policy: BinningPolicy,
    need_mi_matrix: bool = False,
    need_spearman: bool = False,
    need_relevance: bool = False,
) -> MeasureCache:
    """Compute the requested measure blocks for a dataset.

    Every cell is a pure function of its feature pair, so the result does
    not depend on evaluation order; pairwise blocks are exactly symmetric.
    """
    if need_relevance and dataset.labels is None:
        raise ConfigError("label relevance requires a labeled dataset")
    values = dataset.values
    m = dataset.m
    # Column-at-a-time keeps each entry bitwise equal to feature_std().
    std = np.array([np.std(values[:, i]) for i in range(m)])

    spearman_block = None
    if need_spearman:
        ranks = [_midranks(values[:, i]) for i in range(m)]
        spearman_block = _symmetric_block(m, lambda i, j: _rank_correlation(ranks[i], ranks[j]))

    mi_block = None
    rdn_block = None
    relevance_block = None
    if need_mi_matrix or need_relevance:
        codes = [discretize(values[:, i], policy) for i in range(m)]
        entropy = [_entropy(c, b) for c, b in codes]
    if need_mi_matrix:
        mi_block = _symmetric_block(
            m, lambda i, j: _nmi(_mi(*codes[i], *codes[j]), entropy[i], entropy[j])
        )
        rdn_block = np.empty(m)
        for i in range(m):
            acc = 0.0
            for j in range(m):
                if j != i:
                    acc += mi_block[i, j]
            rdn_block[i] = acc / (m - 1) if m > 1 else 0.0
    if need_relevance:
        cy, by = label_codes(dataset.labels)
        hy = _entropy(cy, by)
        relevance_block = np.array(
            [_nmi(_mi(ci, bi, cy, by), h, hy) for (ci, bi), h in zip(codes, entropy)]
        )

    return MeasureCache(std, spearman_block, mi_block, rdn_block, relevance_block)
