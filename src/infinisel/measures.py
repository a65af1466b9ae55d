"""Scalar association measures between features and labels.

Everything that feeds an adjacency matrix lives here: per-feature standard
deviation, Spearman rank correlation with midrank tie handling, plug-in
mutual information over discretized histograms, and the per-feature mean
redundancy aggregate.

Each call ranks every column at most once, into one integer matrix of
twice the centred midranks (``_midranks``, which also ranks AUC scores).
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
information keeps one table per set of columns (the features, or the
labels): bin codes, distinct marginals and entropies. One kernel,
``_mi_pairs``, gives the raw plug-in MI (nats) of any list of column
pairs, tile by tile: exact joint counts from one ``np.bincount`` over
joint codes in the narrowest unsigned type; the ratio, ``math.log`` and
the term once per distinct integer (marginal pair, count) key; and each
pair's terms, or on a tile of few keys the exact multiples of its keys'
terms, summed correctly rounded by ``_rounded_sums`` (an error-free TwoSum
tree whose rounding is certified, with ``math.fsum`` for the rare row it
cannot certify). ``_nmi_pairs`` divides by the smaller marginal entropy,
into [0, 1]. Blocks, scalar measures, label relevance, ``rdn`` and mRMR
(which reads the raw MI block) all call the kernel, so a block cell is
bitwise equal to its scalar measure, and every histogram sum equals
``math.fsum`` of its terms: measures are exactly symmetric. ``rdn`` sums
the NMI block's rows left to right with its diagonal zeroed, as the scalar
``rdn`` sums its one column.
"""

from __future__ import annotations

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


def _rank_type(n: int) -> type:
    # The narrowest integer type of n-row midranks: they and ranks + n lie
    # within ±(2n − 1).
    return np.int32 if 2 * n + 1 < 2**31 else np.int64


def _midranks(values: np.ndarray, dtype: type = np.int64) -> np.ndarray:
    # 2·midrank − (n + 1) per column: twice the centred midranks, integers,
    # in ``dtype`` (``_rank_type(n)`` is the narrowest that holds them).
    # One sort per column; a tie run at sorted positions [s, e) has midrank
    # (s + 1 + e) / 2, so its cells get s + e − n. −0.0 and 0.0 tie.
    # Columns are ranked tile by tile (``_column_tiles``), so the result is
    # the only n×m array: a tile's temporaries are freed or reused once
    # spent, at most three w×n 8-byte arrays and one boolean mask at once.
    n, m = values.shape
    ranks = np.empty((m, n), dtype=dtype)
    k = np.arange(n + 1, dtype=np.int64)
    for tile in _column_tiles(n, m, _TILE_BYTES):
        rows = np.ascontiguousarray(values[:, tile].T)
        order = np.argsort(rows, axis=1)
        ordered = np.take_along_axis(rows, order, axis=1)
        del rows
        edge = np.ones((len(order), n + 1), dtype=bool)  # a run starts at k; k = n ends the last
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=edge[:, 1:n])
        del ordered
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
    levels: np.ndarray  # the distinct marginals (integer bin counts / n), ascending
    level: np.ndarray  # k × width index into levels of each bin's marginal (0.0 past a column's bins)
    entropy: np.ndarray  # k marginal entropies (nats)


_U = 2.0**-53  # float64 unit roundoff


def _rounded_sums(terms: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-D array: ``math.fsum`` bitwise.

    A pairwise tree of error-free TwoSums over a row's terms, zero-padded
    to K + 1 (a power of two), gives ``s`` and K errors ``e`` with
    ``s + Σe`` the row's exact sum. The errors add up in float to ``c``
    with ``|c − Σe| < bound``, and ``r = fl(s + c)`` with rounding error
    ``δ``. When ``|δ| + bound`` is below half the gap from ``r`` to
    its nearer neighbour, the exact sum rounds to ``r`` (Ogita, Rump &
    Oishi 2005). A row not so certified, or summing to zero (whose sign
    ``math.fsum`` decides), is summed by ``math.fsum``.
    """
    width = 1 << (terms.shape[1] - 1).bit_length()  # zero-padded to a power of two
    s = np.zeros((len(terms), width))
    s[:, :terms.shape[1]] = terms
    e = np.empty((len(terms), width - 1))  # the errors, level by level
    while width > 1:
        width //= 2
        a, b = s[:, :width], s[:, width:]
        s = a + b
        z = s - a
        np.add(a - (s - z), b - z, out=e[:, width - 1:2 * width - 1])
    s = s[:, 0]
    c = e.sum(axis=1)
    r = s + c
    z = r - s
    delta = (s - (r - z)) + (c - z)
    # 2(K+1)u·Σ|e| covers any order of the float sums of e and of |e|; the
    # smallest subnormal covers the rounding of u·Σ|e| near underflow.
    bound = 2.0 * (e.shape[1] + 1) * np.abs(e).sum(axis=1) * _U + 5e-324
    half_gap = 0.5 * np.minimum(np.nextafter(r, np.inf) - r, r - np.nextafter(r, -np.inf))
    for row in np.flatnonzero(~(np.abs(delta) + bound < half_gap) | (r == 0.0)):
        r[row] = math.fsum(terms[row].tolist())
    return r


def _bincounts(codes: np.ndarray, bins: int) -> np.ndarray:
    # Exact int64 counts of each row of codes in [0, bins): one np.bincount
    # once row p is offset by p·bins, in place (codes is a scratch array).
    rows = len(codes)
    codes += np.arange(0, rows * bins, bins, dtype=codes.dtype)[:, None]
    return np.bincount(codes.ravel(), minlength=rows * bins).reshape(rows, bins)


def _coded_table(codes: np.ndarray, width: int) -> _MiTable:
    # math.log once per distinct marginal: np.log differs from it in the last
    # bit on some inputs, and math.log is what the plug-in definition reads.
    # Marginal counts tile by tile, in an int64 scratch copy of each tile.
    k, n = codes.shape
    marginals = np.concatenate([_bincounts(codes[tile].astype(np.int64), width)
                                for tile in _column_tiles(n, k, _TILE_BYTES)]) / n
    levels, level = np.unique(marginals, return_inverse=True)
    level = level.reshape(marginals.shape)
    logs = np.array([math.log(p) if p > 0.0 else 0.0 for p in levels.tolist()])
    return _MiTable(codes, levels, level, -_rounded_sums(marginals * logs[level]))


def _mi_table(
    values: np.ndarray, policy: BinningPolicy, ranks: np.ndarray | None = None, dtype: type = np.int64
) -> _MiTable:
    codes, bins = _discretize(values, policy, ranks, dtype)  # ranks: the caller's midranks, if it has them
    return _coded_table(codes, int(bins.max()))


def _label_table(labels: np.ndarray) -> _MiTable:
    # Labels are already discrete: each class is one bin, never re-binned.
    classes, codes = np.unique(labels, return_inverse=True)
    return _coded_table(codes.astype(np.int64).reshape(1, -1), int(classes.size))


def _distinct_keys(pair: np.ndarray, count: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (pair, count) keys of some cells, and each cell's index
    into them: ``np.unique`` of the keys, with ``return_inverse``.

    Counts lie in [0, span). Returns the distinct pairs and counts, ascending
    by (pair, count), and an index array shaped as the cells. Below 2⁶³ a key
    is the exact int64 ``pair·span + count``, built in ``pair`` (a scratch
    array); a presence mask finds the distinct keys while their range is
    within twice the cell count, a sort otherwise, which bounds the mask's
    memory by the tile's. A feature tile on few distinct marginals takes the
    mask, which saves ~4 ms of a 500×60 MI block's ~13 over the sort; a tile
    of few cells on long columns takes the sort. A range past 2⁶³ keys on
    the (pair, count) rows themselves.
    """
    keys = (int(pair.max()) + 1) * span
    if keys > np.iinfo(np.int64).max:
        rows, inverse = np.unique(np.stack([pair.ravel(), count.ravel()], axis=1), axis=0, return_inverse=True)
        return rows[:, 0], rows[:, 1], inverse.reshape(pair.shape)
    pair *= span
    pair += count
    if keys <= 2 * pair.size:
        present = np.zeros(keys, dtype=bool)
        present[pair] = True
        distinct = np.flatnonzero(present)
        inverse = (np.cumsum(present) - 1)[pair]
    else:
        distinct, inverse = np.unique(pair, return_inverse=True)
    return distinct // span, distinct % span, inverse.reshape(pair.shape)


def _summed_by_key(terms: np.ndarray, inverse: np.ndarray, cells: int) -> np.ndarray:
    # The correctly rounded sum of terms[inverse[p]] for each row p of cells
    # key indices (inverse is a scratch array). With fewer than half as many
    # keys as cells, a row sums its keys' multiples: a multiplicity is at most
    # cells < 2^b, and Veltkamp's split by 2^b + 1 (Dekker 1971) leaves a
    # term's hi with 53 − b bits and its lo with b − 1, so mult·hi and
    # mult·lo are exact while 2b − 1 ≤ 53, and the row's 2K products add up
    # to its exact sum. Pairs of 2²⁶ cells or more sum per cell.
    keys, bits = len(terms), cells.bit_length()
    if 2 * keys >= cells or bits > 26:
        return _rounded_sums(terms[inverse])
    mult = _bincounts(inverse, keys)
    big = terms * float(2**bits + 1)
    hi = big - (big - terms)
    split = np.empty((len(mult), 2 * keys))
    np.multiply(mult, hi, out=split[:, :keys])
    np.multiply(mult, terms - hi, out=split[:, keys:])
    return _rounded_sums(split)


def _mi_pairs(left: _MiTable, i, right: _MiTable, j, tile_bytes: int = _TILE_BYTES) -> np.ndarray:
    """Raw plug-in MI (nats) of ``left`` column ``i[p]`` and ``right`` column
    ``j[p]``, for every p.

    A pair's joint table is a wl × wr slab of exact counts, wl and wr being
    the two tables' widest bin counts. A cell's term is
    ``joint · log(joint / (pa·pb))``, 0.0 when empty, and each pair sums its
    terms correctly rounded, as ``math.fsum`` does. A term depends only on
    its cell's count and two marginals, so each tile keys its cells by the
    integer (marginal pair, count) and computes the ratio, ``math.log`` and
    the term once per distinct key; a pair then sums either its cells' terms
    or, on a tile of few keys, its keys' exact multiples (``_summed_by_key``).
    Tiles of pairs keep the temporaries near ``tile_bytes``: the pair codes
    take two 8-byte arrays of n a pair at most (joint codes plus row offsets
    are held in the narrowest unsigned type that fits them, and each count
    tile's rows are gathered from the tables' own codes and cast there, so
    no table is copied whole); the cell stages about ten 8-byte arrays of
    wl·wr (counts, keys, their index, the gathered terms, the sum's padded
    rows and errors, and at most two for the presence mask's index).
    """
    n = left.codes.shape[1]
    wl, wr = left.level.shape[1], right.level.shape[1]
    cells = wl * wr
    count_step = max(tile_bytes // (16 * n), 1)
    # Joint codes plus row offsets in the narrowest unsigned type that holds
    # them and the scale wr: the gathers and adds move 2–8 times fewer bytes
    # than in int64. Gathered rows are cast before they are scaled or added,
    # so narrow codes never wrap.
    code_type = np.min_scalar_type(min(count_step, len(i)) * cells)
    nr = len(right.levels)
    left_pair = left.level * nr  # marginal pair index a·nr + b, left part
    out = np.empty(len(i))
    step = max(tile_bytes // (80 * cells), 1)
    for start in range(0, len(i), step):
        ti, tj = i[start:start + step], j[start:start + step]
        counts = []
        for k in range(0, len(ti), count_step):
            codes = left.codes[ti[k:k + count_step]].astype(code_type, copy=False)  # a gather: a fresh array
            codes *= wr  # joint codes a·wr + b
            codes += right.codes[tj[k:k + count_step]].astype(code_type, copy=False)
            counts.append(_bincounts(codes, cells))
        counts = np.concatenate(counts)
        pair = (left_pair[ti][:, :, None] + right.level[tj][:, None, :]).reshape(len(ti), cells)
        pairs, hits, inverse = _distinct_keys(pair, counts, n + 1)
        joint = hits / n
        expected = left.levels[pairs // nr] * right.levels[pairs % nr]
        ratio = np.divide(joint, expected, out=np.ones_like(joint), where=hits > 0)
        terms = joint * np.array([math.log(r) for r in ratio.tolist()])
        out[start:start + len(ti)] = _summed_by_key(terms, inverse, cells)
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
