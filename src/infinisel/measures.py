"""Scalar association measures between features and labels.

Everything that feeds an adjacency matrix lives here: per-feature standard
deviation, Spearman rank correlation with midrank tie handling, plug-in
mutual information over discretized histograms, and the per-feature mean
redundancy aggregate.

Each measure keeps one state per column, built once per call, and one
pair function over two states. Spearman: centred midranks and their sum of
squares, paired by ``_rank_correlation``. Mutual information: bin codes,
bin count, marginal and entropy (the labels get the same state), paired by
raw ``_mi`` (nats) and ``_nmi`` (over the smaller marginal entropy, in
[0, 1]). Blocks, scalar measures, label relevance, ``rdn`` and mRMR all
call these, so a block cell is bitwise equal to its scalar measure.
Histogram sums use ``math.fsum``: every measure is exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if not isinstance(self.bin_count, (int, np.integer)):
            raise ConfigError(f"bin_count must be an integer, got {self.bin_count!r}")
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


class _RankState(NamedTuple):  # one feature, for Spearman
    centred: np.ndarray  # midranks minus their mean
    sum_sq: float


def _rank_states(values: np.ndarray) -> list[_RankState]:
    ranks = [rankdata(values[:, i], method="average") for i in range(values.shape[1])]
    centred = [r - r.mean() for r in ranks]
    return [_RankState(c, float(c @ c)) for c in centred]


def _rank_correlation(a: _RankState, b: _RankState) -> float:
    # Pearson correlation of midranks; 0 when either vector is constant.
    denom = math.sqrt(a.sum_sq * b.sum_sq)
    if denom == 0.0:
        return 0.0
    return float(np.clip((a.centred @ b.centred) / denom, -1.0, 1.0))


def _pair_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    return np.column_stack([x, y])


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with midranks for ties.

    Returns 0 when either vector is constant (no monotone association is
    expressible).
    """
    return _rank_correlation(*_rank_states(_pair_columns(x, y)))


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
        codes = np.floor((rankdata(x, method="average") - 0.5) / n * bins).astype(np.int64)
    return np.clip(codes, 0, bins - 1), bins


class _MiState(NamedTuple):  # one feature or the labels, for MI
    codes: np.ndarray
    bins: int
    marginal: np.ndarray  # integer bin counts / n: exact joint-table sums
    entropy: float


def _mi_state(codes: np.ndarray, bins: int) -> _MiState:
    marginal = np.bincount(codes, minlength=bins) / codes.size
    return _MiState(codes, bins, marginal, -math.fsum(p * math.log(p) for p in marginal if p > 0.0))


def _mi_states(values: np.ndarray, policy: BinningPolicy) -> list[_MiState]:
    return [_mi_state(*discretize(values[:, i], policy)) for i in range(values.shape[1])]


def _label_state(labels: np.ndarray) -> _MiState:
    # Labels are already discrete: each class is one bin, never re-binned.
    classes, codes = np.unique(labels, return_inverse=True)
    return _mi_state(codes.astype(np.int64), int(classes.size))


def _mi(a: _MiState, b: _MiState) -> float:
    """Raw plug-in MI (nats), summed over the occupied cells of the joint table."""
    (ca, ba, pa, _), (cb, bb, pb, _) = a, b
    counts = np.bincount(ca * bb + cb, minlength=ba * bb).reshape(ba, bb)
    i, j = np.nonzero(counts)
    joint = counts[i, j] / ca.size
    ratio = joint / (pa[i] * pb[j])
    mi = math.fsum(p * math.log(r) for p, r in zip(joint.tolist(), ratio.tolist()))
    return max(mi, 0.0)


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


def _mean_redundancy(others) -> float:
    # One left-to-right sum for the rdn block and scalar rdn(); 0 if alone.
    acc = 0.0
    for value in others:
        acc += value
    return acc / len(others) if len(others) else 0.0


def mutual_information(x: np.ndarray, y: np.ndarray, policy: BinningPolicy) -> float:
    """Plug-in mutual information (nats) over the discretized joint histogram."""
    return _mi(*_mi_states(_pair_columns(x, y), policy))


def normalized_mi(x: np.ndarray, y: np.ndarray, policy: BinningPolicy) -> float:
    """Mutual information divided by the smaller marginal entropy.

    Lies in [0, 1]; defined as 0 when either discretized marginal has zero
    entropy.
    """
    return _nmi(*_mi_states(_pair_columns(x, y), policy))


def rdn(dataset: Dataset, i: int, policy: BinningPolicy) -> float:
    """Mean normalized mutual information between feature ``i`` and all others."""
    m = dataset.m
    if m < 2:
        raise ValueError("redundancy is undefined for a single feature")
    states = _mi_states(dataset.values, policy)
    return _mean_redundancy([_nmi(states[j], states[i]) for j in range(m) if j != i])


def relevance_to_labels(dataset: Dataset, i: int, policy: BinningPolicy) -> float:
    """Normalized mutual information between feature ``i`` and the labels."""
    if dataset.labels is None:
        raise ConfigError("label relevance requires a labeled dataset")
    return _nmi(_mi_state(*discretize(dataset.values[:, i], policy)), _label_state(dataset.labels))


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

    spearman_block = mi_block = rdn_block = relevance_block = None
    if need_spearman:
        spearman_block = _symmetric_block(_rank_states(values), _rank_correlation)
    if need_mi_matrix or need_relevance:
        states = _mi_states(values, policy)
    if need_mi_matrix:
        mi_block = _symmetric_block(states, _nmi)
        rdn_block = np.array([_mean_redundancy(np.delete(r, i)) for i, r in enumerate(mi_block)])
    if need_relevance:
        label = _label_state(dataset.labels)
        relevance_block = np.array([_nmi(state, label) for state in states])

    return MeasureCache(std, spearman_block, mi_block, rdn_block, relevance_block)
