"""Scalar association measures between features and labels.

Everything that feeds an adjacency matrix lives here: per-feature standard
deviation, Spearman rank correlation with midrank tie handling, plug-in
mutual information over discretized histograms, and the per-feature mean
redundancy aggregate.

Each call ranks every column at most once, into one integer matrix of
twice the centred midranks from one vectorised sort (``_midranks``, which
also ranks AUC scores). Spearman is its Gram product, summed exactly in
int64 and rounded once to float64; bin codes read the same midranks.
Mutual information keeps one state per column: bin codes, bin count,
marginal and entropy (the labels get the same state), paired by raw
``_mi`` (nats) and ``_nmi`` (over the smaller marginal entropy, in [0, 1]).
Blocks, scalar measures, label relevance, ``rdn`` and mRMR (which reads the
raw MI block) all call these, so a block cell is bitwise equal to its
scalar measure. Histogram sums use ``math.fsum``: measures are symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def _midranks(values: np.ndarray) -> np.ndarray:
    # 2·midrank − (n + 1) per column: twice the centred midranks, integers.
    # One sort per column; a tie run at sorted positions [s, e) has midrank
    # (s + 1 + e) / 2, so its cells get s + e − n. −0.0 and 0.0 tie.
    rows = np.ascontiguousarray(values.T)
    m, n = rows.shape
    order = np.argsort(rows, axis=1)
    ordered = np.take_along_axis(rows, order, axis=1)
    edge = np.ones((m, n + 1), dtype=bool)  # a run starts at k; k = n ends the last
    edge[:, 1:n] = ordered[:, 1:] != ordered[:, :-1]
    k = np.arange(n + 1, dtype=np.int64)
    starts = np.maximum.accumulate(np.where(edge, k, 0), axis=1)[:, :n]
    ends = np.minimum.accumulate(np.where(edge, k, n)[:, ::-1], axis=1)[:, ::-1][:, 1:]
    ranks = np.empty((m, n), dtype=np.int64)
    np.put_along_axis(ranks, order, starts + ends - n, axis=1)
    return ranks.T


def _spearman_block(ranks: np.ndarray) -> np.ndarray:
    # Pearson correlation of midranks; 0 where either column is constant.
    # Each |product| is at most (n - 1)², so a chunk of that many rows sums
    # below 2⁶³; several chunks add up in Python integers: exact at any n.
    n = ranks.shape[0]
    rows = max((2**63 - 1) // max(n - 1, 1) ** 2, 1)
    grams = [c.T @ c for c in (ranks[s:s + rows] for s in range(0, n, rows))]
    dots = (grams[0] if len(grams) == 1 else sum(g.astype(object) for g in grams)).astype(np.float64)
    denom = np.sqrt(np.outer(np.diag(dots), np.diag(dots)))
    return np.clip(np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0), -1.0, 1.0)


def _pair_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("measures need finite values")
    return np.column_stack([x, y])


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with midranks for ties.

    Returns 0 when either vector is constant (no monotone association is
    expressible).
    """
    return float(_spearman_block(_midranks(_pair_columns(x, y)))[0, 1])


def discretize(x: np.ndarray, ranks: np.ndarray, policy: BinningPolicy) -> tuple[np.ndarray, int]:
    """Map a real vector to integer bin codes; returns (codes, bin count).

    ``ranks``, the column of ``_midranks``, counts the distinct values. A
    vector with at most ``bin_count`` of them is categorical and its values
    become the bins directly. Otherwise equal-frequency binning reads the
    ranks, so tied values always share a bin; either way any strictly
    increasing transform of ``x`` yields the same codes.
    """
    n = x.size
    occupied = np.bincount(ranks + n - 1, minlength=2 * n - 1) > 0
    distinct = int(occupied.sum())
    if distinct <= policy.bin_count:
        return np.cumsum(occupied)[ranks + n - 1] - 1, distinct
    bins = policy.bin_count
    if policy.kind == "equal_width":
        codes = np.floor((x - x.min()) / np.ptp(x) * bins).astype(np.int64)
    else:  # (ranks + n) / 2 is the midrank minus ½, exactly
        codes = np.floor((ranks + n) / 2 / n * bins).astype(np.int64)
    return np.clip(codes, 0, bins - 1), bins


class _MiState(NamedTuple):  # one feature or the labels, for MI
    codes: np.ndarray
    bins: int
    marginal: np.ndarray  # integer bin counts / n: exact joint-table sums
    entropy: float


def _mi_state(codes: np.ndarray, bins: int) -> _MiState:
    marginal = np.bincount(codes, minlength=bins) / codes.size
    return _MiState(codes, bins, marginal, -math.fsum(p * math.log(p) for p in marginal if p > 0.0))


def _mi_states(values: np.ndarray, policy: BinningPolicy, ranks: np.ndarray | None = None) -> list[_MiState]:
    if ranks is None:
        ranks = _midranks(values)  # unless the caller has ranked already
    return [_mi_state(*discretize(x, r, policy)) for x, r in zip(values.T, ranks.T)]


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
    return _nmi(_mi_states(dataset.values[:, [i]], policy)[0], _label_state(dataset.labels))


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
    # Column-at-a-time keeps each entry bitwise equal to feature_std().
    std = np.array([np.std(column) for column in values.T])

    spearman_block = mi_block = rdn_block = relevance_block = ranks = None
    if need_spearman:
        ranks = _midranks(values)
        spearman_block = _spearman_block(ranks)
    if need_mi_matrix or need_relevance:
        states = _mi_states(values, policy, ranks)
    if need_mi_matrix:
        mi_block = _symmetric_block(states, _nmi)
        rdn_block = np.array([_mean_redundancy(np.delete(r, i)) for i, r in enumerate(mi_block)])
    if need_relevance:
        label = _label_state(dataset.labels)
        relevance_block = np.array([_nmi(state, label) for state in states])

    return MeasureCache(std, spearman_block, mi_block, rdn_block, relevance_block)
