"""Scalar association measures between features and labels.

Everything that feeds an adjacency matrix lives here: per-feature standard
deviation, Spearman rank correlation with midrank tie handling, plug-in
mutual information over discretized histograms, and the per-feature mean
redundancy aggregate.

Each call ranks every column at most once, into one integer matrix of
twice the centred midranks (``_midranks``, which also ranks AUC scores);
a tile of columns with no tie scatters one shared row of ranks and skips
the tie-run bookkeeping.
Spearman is its Gram product: float64 BLAS calls small enough for OpenBLAS
to run on one thread, each an exact integer, added in int64 and rounded
once to float64; each chunk of rows is converted to float64 on its own.
``_discretize`` bins every column, by the same midranks under equal
frequency; equal-width binning never ranks (a column whose range overflows
float64 is a ``ValueError``). Every per-column kernel (ranks, bins,
marginal counts) works on tiles of columns (``dataset._column_tiles``)
within ``_TILE_BYTES``, so the only n×m arrays a cache or mRMR holds are
the ranks, in int32 below 2³⁰ rows, and the bin codes, in the narrowest
unsigned type, which the MI kernel casts into the type of its joint codes
one tile of rows at a time. The std is the ``Dataset``'s own, which its
checks reduce tile by tile, bitwise equal to ``feature_std``. Mutual
information is H(X) + H(Y) − H(X, Y), clipped at 0, each a plug-in entropy
of integer cell counts c: Σ T[c] / n with T[c] = c·log(n / c)
(``_entropy_terms``), each sum exact in int64 limbs of T·2⁵³ and rounded
once (``_entropy_sums``), so it equals ``math.fsum`` of its terms. It keeps
one table per set of columns (the features, or the labels): bin codes and
entropies. One kernel,
``_mi_pairs``, gives the raw plug-in MI (nats) of any list of column
pairs, tile by tile, from exact joint counts: one ``np.bincount`` over
joint codes in the narrowest unsigned type. MI thus depends only on the
multisets of counts: exactly symmetric, unchanged by relabelled bins,
H(X) for a column with itself and 0 for a one-bin column.
``_nmi_pairs`` divides by the smaller marginal entropy, into [0, 1].
Blocks, scalar measures, label relevance, ``rdn`` and mRMR (which reads the
raw MI block) all call the kernel, so a block cell is bitwise equal to its
scalar measure. ``rdn`` sums the NMI block's rows left to right with its
diagonal zeroed, as the scalar ``rdn`` sums its one column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import _TILE_BYTES, Dataset, _column_tiles
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


@dataclass(frozen=True, eq=False)
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


def _rank_type(n: int) -> type:
    # The narrowest integer type of n-row midranks: they and ranks + n lie
    # within ±(2n − 1).
    return np.int32 if 2 * n + 1 < 2**31 else np.int64


def _midranks(values: np.ndarray, dtype: type = np.int64) -> np.ndarray:
    # 2·midrank − (n + 1) per column: twice the centred midranks, integers,
    # in ``dtype`` (``_rank_type(n)`` is the narrowest that holds them).
    # One sort per column; a tie run at sorted positions [s, e) has midrank
    # (s + 1 + e) / 2, so its cells get s + e − n. −0.0 and 0.0 tie.
    # A tile with no tie has s = k and e = k + 1 at every sorted position k,
    # so it scatters the one row 2k + 1 − n and skips the run bookkeeping.
    # Columns are ranked tile by tile (``_column_tiles``), so the result is
    # the only n×m array: a tile's temporaries are freed or reused once
    # spent, at most three w×n 8-byte arrays and one boolean mask at once.
    n, m = values.shape
    ranks = np.empty((m, n), dtype=dtype)
    k = np.arange(n + 1, dtype=np.int64)
    untied = (2 * k[:n] + 1 - n).astype(dtype)[None, :]
    for tile in _column_tiles(n, m, _TILE_BYTES):
        rows = np.ascontiguousarray(values[:, tile].T)
        order = np.argsort(rows, axis=1)
        ordered = np.take_along_axis(rows, order, axis=1)
        del rows
        edge = np.ones((len(order), n + 1), dtype=bool)  # a run starts at k; k = n ends the last
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=edge[:, 1:n])
        del ordered
        if edge[:, 1:n].all():
            np.put_along_axis(ranks[tile], order, untied, axis=1)
            continue
        starts = np.where(edge, k, 0)
        np.maximum.accumulate(starts, axis=1, out=starts)
        ends = np.where(edge, k, n)[:, ::-1]
        np.minimum.accumulate(ends, axis=1, out=ends)
        sorted_ranks = starts[:, :n]
        sorted_ranks += ends[:, ::-1][:, 1:]
        sorted_ranks -= n
        del ends
        np.put_along_axis(ranks[tile], order, sorted_ranks, axis=1)
    return ranks.T


# One float64 BLAS call of the Spearman Gram: at most _GRAM_TILE × _GRAM_TILE
# outputs and 2¹⁸ multiply-adds, which OpenBLAS runs on the calling thread
# (a larger, threaded call left a worker spinning beside pinned jobs).
_GRAM_TILE = 64
_GRAM_CALL = 1 << 18


def _spearman_block(ranks: np.ndarray) -> np.ndarray:
    # Pearson correlation of midranks; 0 where either column is constant.
    # Each |product| is at most (n − 1)², so a float64 product over a chunk
    # of at most 2⁵³ / (n − 1)² rows is an exact integer whatever the order
    # of its sums; past ~9.5·10⁷ rows one product can pass 2⁵³, and chunks
    # multiply in int64, without BLAS. Each chunk of rows is converted once,
    # for every tile pair: no float copy of the whole ranks is made. Chunk
    # results add in int64 over groups of rows that stay below 2⁶³, and
    # groups add in Python integers: exact at any n.
    n, m = ranks.shape
    square = max(n - 1, 1) ** 2
    exact = 2**53 // square  # rows of a float64 chunk product that is exact
    group = max((2**63 - 1) // square, 1)
    step = min(exact or group, _GRAM_CALL // min(m, _GRAM_TILE) ** 2)
    group -= group % step  # whole chunks
    kind = np.float64 if exact else np.int64

    def gram(chunks: range) -> np.ndarray:  # the chunks of one group
        out = np.zeros((m, m), dtype=np.int64)
        for s in chunks:
            cols = ranks[s:s + step].T.astype(kind)  # m × step, exact: |rank| < n
            for a in range(0, m, _GRAM_TILE):
                for b in range(a, m, _GRAM_TILE):
                    out[a:a + _GRAM_TILE, b:b + _GRAM_TILE] += (
                        cols[a:a + _GRAM_TILE] @ cols[b:b + _GRAM_TILE].T).astype(np.int64, copy=False)
        for a in range(0, m, _GRAM_TILE):  # the lower tiles mirror the upper ones
            for b in range(a + _GRAM_TILE, m, _GRAM_TILE):
                out[b:b + _GRAM_TILE, a:a + _GRAM_TILE] = out[a:a + _GRAM_TILE, b:b + _GRAM_TILE].T
        return out

    grams = [gram(range(g, min(g + group, n), step)) for g in range(0, n, group)]
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


def _code_type(policy: BinningPolicy, n: int) -> type:
    # The narrowest type of n-row bin codes: every code is below the bin count.
    return np.min_scalar_type(min(policy.bin_count, n) - 1).type


def _discretize(
    values: np.ndarray, policy: BinningPolicy, ranks: np.ndarray | None = None, dtype: type = np.int64
) -> tuple[np.ndarray, np.ndarray]:
    # Bin codes of every column of an n × k matrix: k × n codes in ``dtype``
    # (``_code_type`` is the narrowest that holds them) and k bin counts. A
    # column with at most ``bin_count`` distinct values is categorical: its
    # codes index its sorted distinct values. Otherwise equal width splits
    # its range, and equal frequency cuts its midranks (``ranks``, the
    # caller's ``_midranks`` if it has them, else each tile's own), so tied
    # values share a bin; either way any strictly increasing transform of a
    # column yields the same codes. One sort per column counts its distinct
    # values (of the values under equal width, of the midranks under equal
    # frequency, which tie and order alike); only categorical columns are
    # argsorted, for their codes. Equal width never ranks. Columns are
    # binned tile by tile (``_column_tiles``): the codes are the only n×k
    # array.
    n, k = values.shape
    bins = min(policy.bin_count, n)  # past n every column is categorical; keeps huge counts out of numpy
    codes = np.empty((k, n), dtype=dtype)
    counts = np.empty(k, dtype=np.int64)
    for tile in _column_tiles(n, k, _TILE_BYTES):
        if policy.kind == "equal_width":
            rows = np.ascontiguousarray(values[:, tile].T)
        else:
            rows = (_midranks(values[:, tile]) if ranks is None else ranks[:, tile]).T
        levels = np.sort(rows, axis=1)
        first = np.ones(rows.shape, dtype=bool)  # a run of equal values starts here; −0.0 ties 0.0
        np.not_equal(levels[:, 1:], levels[:, :-1], out=first[:, 1:])
        distinct = first.sum(axis=1)
        categorical = distinct <= bins
        if policy.kind == "equal_width":
            # Halves never overflow, and their difference does exactly when the
            # range does; only a column that is cut needs its range.
            wide = np.flatnonzero(~categorical & (levels[:, -1] / 2 - levels[:, 0] / 2 > np.finfo(np.float64).max / 2))
            if wide.size:
                lo, hi = float(levels[wide[0], 0]), float(levels[wide[0], -1])
                raise ValueError(f"column {tile.start + wide[0]} spans {lo!r} to {hi!r}: its range overflows "
                                 "float64, so equal-width bins cannot cut it")
            # Categorical codes are replaced below: their rows scale by 0 / inf,
            # so no column that is never cut overflows or divides by zero.
            lo = np.where(categorical[:, None], 0.0, levels[:, :1])
            span = np.where(categorical[:, None], np.inf, levels[:, -1:]) - lo
            del levels
            scaled = (rows - lo) / span * bins
        else:  # (ranks + n) / 2 is the midrank minus ½, exactly
            del levels
            scaled = (rows + n) / 2 / n * bins
        np.floor(scaled, out=scaled)
        tile_codes = codes[tile]
        tile_codes[...] = np.clip(scaled, 0, bins - 1, out=scaled)
        del scaled
        cat = np.flatnonzero(categorical)
        if cat.size:  # the index of each value's run among the column's sorted runs
            sorted_runs = np.cumsum(first[cat], axis=1) - 1
            runs = np.empty_like(sorted_runs)
            np.put_along_axis(runs, np.argsort(rows[cat], axis=1), sorted_runs, axis=1)
            tile_codes[cat] = runs
        counts[tile] = np.where(categorical, distinct, bins)
    return codes, counts


class _MiTable(NamedTuple):  # several features, or the labels, for MI
    codes: np.ndarray  # k × n bin codes, one row per column
    width: int  # the widest bin count: every code lies in [0, width)
    entropy: np.ndarray  # k marginal entropies (nats)


@functools.lru_cache(maxsize=4)
def _entropy_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    # T[c] = c·log(n / c) for c = 0..n: a histogram of n samples with cell
    # counts c has plug-in entropy Σ T[c] / n. T[0] = 0 (an empty cell) and
    # T[n] = n·log 1 = 0, so one occupied cell gives entropy 0 exactly.
    # math.log, not np.log, which differs from it in the last bit on some
    # inputs. Every other T[c] is at least min(log n, 1 − 1/n) ≥ ½, so its
    # ulp is at least 2⁻⁵³ and T[c]·2⁵³ is an integer, below 2⁵³·n: it is
    # kept exactly as two int64 limbs, hi·2³² + lo with 0 ≤ lo < 2³² (the
    # float floor, product and difference below are all exact). Read-only:
    # the cache shares them between calls.
    scaled = np.zeros(n + 1)
    scaled[1:] = np.fromiter((c * math.log(n / c) for c in range(1, n + 1)), np.float64, n)
    scaled *= 2.0**53
    hi = np.floor(scaled / 2.0**32)
    limbs = hi.astype(np.int64), (scaled - hi * 2.0**32).astype(np.int64)
    for limb in limbs:
        limb.flags.writeable = False
    return limbs


def _entropy_sums(counts: np.ndarray, n: int) -> np.ndarray:
    """Σ T[c] over each row of a k × w array of counts of n samples,
    correctly rounded: the ``math.fsum`` of the row's terms, bitwise.

    Each limb of T·2⁵³ sums exactly in int64 (Σ hi ≤ 2²¹·n·log n and
    Σ lo < w·2³²). After the carry the row's exact sum is
    (hi·2³² + lo)·2⁻⁵³ with 0 ≤ lo < 2³². With a = fl(hi) and d = hi − a
    (|d| ≤ 2⁹, and 0 below 2⁵³), a·2³² and d·2³² + lo are exact floats, so
    one addition rounds the sum once, to nearest even as ``math.fsum``
    does.
    """
    hi_terms, lo_terms = _entropy_terms(n)
    hi = hi_terms[counts].sum(axis=1)
    lo = lo_terms[counts].sum(axis=1)
    hi += lo >> 32
    lo &= 0xFFFFFFFF
    a = hi.astype(np.float64)
    lo += (hi - a.astype(np.int64)) << 32
    return (a * 2.0**32 + lo) * 2.0**-53


def _bincounts(codes: np.ndarray, bins: int) -> np.ndarray:
    # Exact int64 counts of each row of codes in [0, bins): one np.bincount
    # once row p is offset by p·bins, in place (codes is a scratch array).
    rows = len(codes)
    codes += np.arange(0, rows * bins, bins, dtype=codes.dtype)[:, None]
    return np.bincount(codes.ravel(), minlength=rows * bins).reshape(rows, bins)


def _coded_table(codes: np.ndarray, width: int) -> _MiTable:
    # Marginal counts and entropies tile by tile, in an int64 scratch copy of
    # each tile's codes.
    k, n = codes.shape
    sums = [_entropy_sums(_bincounts(codes[tile].astype(np.int64), width), n)
            for tile in _column_tiles(n, k, _TILE_BYTES)]
    return _MiTable(codes, width, np.concatenate(sums) / n)


def _mi_table(
    values: np.ndarray, policy: BinningPolicy, ranks: np.ndarray | None = None, dtype: type = np.int64
) -> _MiTable:
    codes, bins = _discretize(values, policy, ranks, dtype)  # ranks: the caller's midranks, if it has them
    return _coded_table(codes, int(bins.max()))


def _label_table(labels: np.ndarray) -> _MiTable:
    # Labels are already discrete: each class is one bin, never re-binned.
    classes, codes = np.unique(labels, return_inverse=True)
    return _coded_table(codes.astype(np.int64).reshape(1, -1), int(classes.size))


def _mi_pairs(left: _MiTable, i, right: _MiTable, j) -> np.ndarray:
    """Raw plug-in MI (nats) of ``left`` column ``i[p]`` and ``right`` column
    ``j[p]``, for every p.

    MI is H(X) + H(Y) − H(X, Y), clipped at 0. The marginal entropies are
    the tables' own; a pair's joint entropy is ``_entropy_sums`` of its
    wl × wr slab of exact counts, over n (wl and wr being the two tables'
    widths), as the marginals are. So MI depends only on the multisets of
    counts: relabelling the bins of either column leaves it unchanged, a
    column paired with itself has H(X, X) = H(X) bitwise and MI = H(X), and
    a one-bin column has MI 0. Tiles of pairs keep the temporaries near
    ``_TILE_BYTES``: a pair's codes take at most two 8-byte arrays of n
    (joint codes plus row offsets are held in the narrowest unsigned type
    that fits them, and each tile's rows are gathered from the tables' own
    codes and cast there, so no table is copied whole), and its counts and
    one gathered limb at a time two int64 arrays of wl·wr.
    """
    n = left.codes.shape[1]
    cells = left.width * right.width
    step = max(_TILE_BYTES // (16 * max(n, cells)), 1)
    # Joint codes plus row offsets in the narrowest unsigned type that holds
    # them and the scale wr: the gathers and adds move 2–8 times fewer bytes
    # than in int64. Gathered rows are cast before they are scaled or added,
    # so narrow codes never wrap.
    code_type = np.min_scalar_type(min(step, len(i)) * cells)
    out = np.empty(len(i))
    for start in range(0, len(i), step):
        ti, tj = i[start:start + step], j[start:start + step]
        codes = left.codes[ti].astype(code_type, copy=False)  # a gather: a fresh array
        codes *= right.width  # joint codes a·wr + b
        codes += right.codes[tj].astype(code_type, copy=False)
        joint = _entropy_sums(_bincounts(codes, cells), n) / n
        out[start:start + len(ti)] = (left.entropy[ti] + right.entropy[tj]) - joint
    return np.maximum(out, 0.0)


def _nmi_pairs(left: _MiTable, i, right: _MiTable, j) -> np.ndarray:
    # MI over the smaller marginal entropy, in [0, 1]; 0 when that is 0.
    h = np.minimum(left.entropy[i], right.entropy[j])
    mi = _mi_pairs(left, i, right, j)
    return np.minimum(np.divide(mi, h, out=np.zeros_like(mi), where=h != 0.0), 1.0)


def _label_pairs(pairs, table: _MiTable, labels: np.ndarray) -> np.ndarray:
    # Raw or normalized MI of every column of the table with the labels.
    m = len(table.codes)
    return pairs(table, np.arange(m), _label_table(labels), np.zeros(m, dtype=np.int64))


def _pair_block(table: _MiTable, pairs) -> np.ndarray:
    # One evaluation per pair i <= j fills both halves: exactly symmetric.
    m = len(table.codes)
    i, j = np.triu_indices(m)
    block = np.empty((m, m))
    block[i, j] = block[j, i] = pairs(table, i, table, j)
    return block


def _rdn(nmi: np.ndarray) -> np.ndarray:
    # Each column's mean over its other m − 1 cells, its own cell being 0.0:
    # rows add left to right, bitwise the loop over j != i, since adding +0.0
    # to a nonnegative sum is exact. 0 for a lone feature.
    acc = np.zeros(nmi.shape[1])
    for row in nmi:
        acc += row
    return acc / max(len(nmi) - 1, 1)


def _column_pair(pairs, x: np.ndarray, y: np.ndarray, policy: BinningPolicy) -> float:
    table = _mi_table(_pair_columns(x, y), policy)
    return float(pairs(table, [0], table, [1])[0])


def mutual_information(x: np.ndarray, y: np.ndarray, policy: BinningPolicy) -> float:
    """Plug-in mutual information (nats) over the discretized joint histogram."""
    return _column_pair(_mi_pairs, x, y, policy)


def normalized_mi(x: np.ndarray, y: np.ndarray, policy: BinningPolicy) -> float:
    """Mutual information divided by the smaller marginal entropy.

    Lies in [0, 1]; defined as 0 when either discretized marginal has zero
    entropy.
    """
    return _column_pair(_nmi_pairs, x, y, policy)


def rdn(dataset: Dataset, i: int, policy: BinningPolicy) -> float:
    """Mean normalized mutual information between feature ``i`` and all others."""
    m = dataset.m
    if m < 2:
        raise ValueError("redundancy is undefined for a single feature")
    table = _mi_table(dataset.values, policy)
    column = _nmi_pairs(table, np.arange(m), table, np.full(m, i))
    column[i] = 0.0
    return float(_rdn(column[:, None])[0])


def relevance_to_labels(dataset: Dataset, i: int, policy: BinningPolicy) -> float:
    """Normalized mutual information between feature ``i`` and the labels."""
    if dataset.labels is None:
        raise ConfigError("label relevance requires a labeled dataset")
    return float(_label_pairs(_nmi_pairs, _mi_table(dataset.values[:, [i]], policy), dataset.labels)[0])


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
    n = dataset.n
    spearman_block = mi_block = rdn_block = relevance_block = ranks = None
    if need_spearman:
        ranks = _midranks(values, _rank_type(n))
        spearman_block = _spearman_block(ranks)
    if need_mi_matrix or need_relevance:
        table = _mi_table(values, policy, ranks, _code_type(policy, n))
    if need_mi_matrix:
        mi_block = _pair_block(table, _nmi_pairs)
        rdn_block = _rdn(np.where(np.eye(len(mi_block), dtype=bool), 0.0, mi_block))
    if need_relevance:
        relevance_block = _label_pairs(_nmi_pairs, table, dataset.labels)

    return MeasureCache(dataset.std, spearman_block, mi_block, rdn_block, relevance_block)
