"""The vectorised mutual-information kernel against the per-pair loop it
replaced (``oracles._mi``, ``_nmi`` and ``_symmetric_block``), bitwise; its
correctly rounded row sum and its sum by key multiplicity against
``math.fsum``; its key de-duplication against ``np.unique``; the one-pass
bin codes against the per-column discretization; and the one-reduction std
against ``feature_std``."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from infinisel import (
    BinningPolicy,
    Dataset,
    build_measure_cache,
    feature_std,
    measures,
    mutual_information,
    normalized_mi,
)
from infinisel.measures import (
    _TILE_BYTES,
    _discretize,
    _distinct_keys,
    _label_pairs,
    _label_table,
    _mi_pairs,
    _mi_table,
    _midranks,
    _nmi_pairs,
    _pair_block,
    _rounded_sums,
    _summed_by_key,
)

# Mantissa · 2^e from the smallest subnormal to about ±1e300.
WIDE = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 996))
PLAIN = st.one_of(WIDE, st.integers(-4, 4).map(float), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@st.composite
def rows(draw):
    """Rows of one length: cancelling pairs (x, −x), exact halfway ties
    (x, ½·ulp(x)), wide exponents, subnormals and all-zero rows."""
    length = draw(st.integers(1, 33))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["plain", "cancel", "tie", "zero"]))
        if kind == "zero":
            row = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=length, max_size=length))
        else:
            row = draw(st.lists(PLAIN, min_size=length, max_size=length))
            for k in range(0, length - 1, 2):
                if kind == "cancel":
                    row[k + 1] = -row[k]
                elif kind == "tie":
                    row[k + 1] = math.copysign(math.ulp(row[k]) / 2, draw(st.sampled_from([1.0, -1.0])))
        out.append(draw(st.permutations(row)))
    return out


@settings(max_examples=300, deadline=None)
@given(rows())
def test_rounded_sums_equal_fsum_bitwise(batch):
    expected = np.array([math.fsum(row) for row in batch])
    assert _rounded_sums(np.array(batch)).tobytes() == expected.tobytes()


def test_halfway_tie_takes_the_fsum_fallback(monkeypatch):
    # 1 + 2⁻⁵³ lies halfway between 1 and its successor: no float estimate
    # can certify the rounding, so that row, and only it, goes to fsum.
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: calls.append(list(terms)) or fsum(calls[-1]))
    got = _rounded_sums(np.array([[1.0, 2.0**-53], [1.0, 2.0]]))
    assert got.tolist() == [1.0, 3.0]
    assert calls == [[1.0, 2.0**-53]]


def column(rng, n, kind):
    if kind == "wide":  # 257–400 levels: past 256 bins, joint codes need 32 bits
        levels = rng.normal(size=int(rng.integers(257, 401)))
        return levels[rng.integers(0, levels.size, n)]
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "ties":
        return np.round(rng.normal(size=n), 1)
    if kind == "categorical":  # 1–8 levels: unequal bin counts, empty joint cells
        levels = rng.normal(size=int(rng.integers(1, 9)))
        return levels[rng.integers(0, levels.size, n)]
    if kind == "constant":
        return np.full(n, 2.5)
    return np.where(rng.random(n) < 0.9, 0.0, rng.normal(size=n))  # mostly zero


KINDS = ("normal", "ties", "categorical", "constant", "sparse")
POLICIES = [BinningPolicy(kind, bins) for kind in ("equal_frequency", "equal_width") for bins in (2, 3, 10)]


def assert_kernel_matches_loop(values, labels, policy):
    table, states = _mi_table(values, policy), oracles._mi_states(values, policy)
    assert table.entropy.tobytes() == np.array([s.entropy for s in states]).tobytes()
    label_state = oracles._label_state(labels)
    for pairs, pair in ((_mi_pairs, oracles._mi), (_nmi_pairs, oracles._nmi)):
        assert _pair_block(table, pairs).tobytes() == oracles._symmetric_block(states, pair).tobytes()
        got = _label_pairs(pairs, table, labels)
        assert got.tobytes() == np.array([pair(s, label_state) for s in states]).tobytes()
    cache = build_measure_cache(Dataset(values, labels=labels), policy, need_mi_matrix=True, need_relevance=True)
    assert cache.mi.tobytes() == oracles._symmetric_block(states, oracles._nmi).tobytes()
    assert cache.relevance.tobytes() == np.array([oracles._nmi(s, label_state) for s in states]).tobytes()


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.kind}-{p.bin_count}")
@pytest.mark.parametrize("n", [2, 3, 7, 40, 300])
def test_kernel_matches_per_pair_loop_bitwise(policy, n):
    rng = np.random.default_rng(1000 * n + policy.bin_count + len(policy.kind))
    for _ in range(4):
        values = np.column_stack([column(rng, n, kind) for kind in rng.choice(KINDS, 7)])
        # More classes than bins: the label table is wider than the features'.
        labels = rng.integers(0, int(rng.choice([2, 3, 13, 25])), n)
        labels[:2] = [0, 1]
        assert_kernel_matches_loop(values, labels, policy)


def test_one_pair_per_tile_gives_the_bytes_of_one_tile(monkeypatch):
    rng = np.random.default_rng(7)
    values = np.column_stack([column(rng, 500, kind) for kind in KINDS * 3])
    table, label = _mi_table(values, BinningPolicy()), _label_table(rng.integers(0, 4, 500))
    i, j = np.triu_indices(values.shape[1])
    cases = (table, i, table, j), (table, np.arange(15), label, np.zeros(15, dtype=np.int64))
    for left, a, right, b in cases:
        monkeypatch.setattr(measures, "_TILE_BYTES", 1)
        single = _mi_pairs(left, a, right, b)
        monkeypatch.setattr(measures, "_TILE_BYTES", 2**40)
        assert single.tobytes() == _mi_pairs(left, a, right, b).tobytes()
        monkeypatch.undo()
        assert single.tobytes() == _mi_pairs(left, a, right, b).tobytes()


@st.composite
def kernel_cases(draw):
    """Columns, labels, a policy and a tile budget. A small budget puts one
    pair or a few in a tile, so a tile of few distinct keys (many bins on
    short columns) sums by multiplicity and one of many (few bins) per
    cell; 400 bins keep a column of 257–400 levels categorical."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(257, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS + ("wide",)), min_size=1, max_size=5))
    values = np.column_stack([column(rng, n, kind) for kind in kinds])
    labels = rng.integers(0, draw(st.sampled_from([2, 3, 13])), n)
    kind = draw(st.sampled_from(["equal_width", "equal_frequency"]))
    policy = BinningPolicy(kind, draw(st.sampled_from([2, 3, 10, 400])))
    return values, labels, policy, draw(st.sampled_from([1, 4096, 65536, _TILE_BYTES]))


@settings(max_examples=100, deadline=None)
@given(kernel_cases())
def test_tiled_kernel_matches_per_pair_loop_bitwise(case):
    values, labels, policy, tile_bytes = case
    table, states = _mi_table(values, policy), oracles._mi_states(values, policy)
    i, j = np.triu_indices(len(states))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(measures, "_TILE_BYTES", tile_bytes)
        got = _mi_pairs(table, i, table, j)
        assert got.tobytes() == np.array([oracles._mi(states[a], states[b]) for a, b in zip(i, j)]).tobytes()
        label = oracles._label_state(labels)
        m = np.arange(len(states))
        got = _mi_pairs(table, m, _label_table(labels), np.zeros_like(m))
        assert got.tobytes() == np.array([oracles._mi(s, label) for s in states]).tobytes()


def test_small_tiles_take_both_sum_branches_and_wide_codes(monkeypatch):
    # Spies on the sum's row width (the cells of a pair, or twice a tile's
    # keys) and on the joint codes' dtype prove the cases above are reached.
    rng = np.random.default_rng(11)
    values = np.column_stack([column(rng, 600, kind) for kind in ("normal", "ties", "wide", "wide")])
    labels = rng.integers(0, 3, 600)
    tables = [(_mi_table(values, BinningPolicy(bin_count=bins)), _label_table(labels)) for bins in (2, 400)]
    widths, dtypes = [], set()
    rounded_sums, bincounts = measures._rounded_sums, measures._bincounts
    monkeypatch.setattr(measures, "_rounded_sums", lambda terms: widths.append(terms.shape[1]) or rounded_sums(terms))
    monkeypatch.setattr(measures, "_bincounts",
                        lambda codes, bins: dtypes.add(codes.dtype.name) or bincounts(codes, bins))
    monkeypatch.setattr(measures, "_TILE_BYTES", 1)
    branches = set()
    for table, label in tables:
        i, j = np.triu_indices(4)
        for left, a, right, b in ((table, i, table, j), (table, np.arange(4), label, np.zeros(4, dtype=np.int64))):
            cells = left.level.shape[1] * right.level.shape[1]
            del widths[:]
            _mi_pairs(left, a, right, b)
            branches |= {"cell" if w == cells else "key" for w in widths}
            assert all(w == cells or (w % 2 == 0 and w < cells) for w in widths)
    assert branches == {"cell", "key"}
    assert {"uint8", "uint32"} <= dtypes


@st.composite
def keyed_rows(draw):
    """MI-like terms (zero, or 1e-30 to 1e3 in magnitude), and rows of key
    indices into them: few keys to many cells, so multiplicities run high."""
    keys = draw(st.integers(1, 8))
    magnitude = st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-99, 10))
    term = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda t: -t))
    terms = draw(st.lists(term, min_size=keys, max_size=keys))
    cells = draw(st.integers(1, 300))
    inverse = draw(arrays(np.int64, (draw(st.integers(1, 4)), cells), elements=st.integers(0, keys - 1)))
    return np.array(terms), inverse, cells


@settings(max_examples=300, deadline=None)
@given(keyed_rows())
def test_sum_by_key_multiplicity_equals_fsum_bitwise(case):
    terms, inverse, cells = case
    expected = np.array([math.fsum(terms[row].tolist()) for row in inverse])
    assert _summed_by_key(terms, inverse.copy()).tobytes() == expected.tobytes()


@st.composite
def binned_columns(draw):
    """An n x k matrix of categorical, tied, constant, ±0.0 and continuous
    columns, with a policy whose bin count may pass n or 2⁶³."""
    n = draw(st.integers(2, 40))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["categorical", "tied", "constant", "zeros", "continuous"]))
        if kind == "continuous":
            cells = st.floats(-1e150, 1e150, allow_nan=False, allow_subnormal=True)
        elif kind == "constant":
            cells = st.just(draw(st.sampled_from([0.0, -0.0, 2.5, -1e-310])))
        elif kind == "zeros":
            cells = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0])
        else:
            levels = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=4 if kind == "categorical" else 12))
            cells = st.sampled_from(levels + [-v for v in levels if v == 0.0])
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    bins = draw(st.one_of(st.integers(2, 12), st.sampled_from([n - 1, n, n + 1, 2**70])))
    policy = BinningPolicy(draw(st.sampled_from(["equal_width", "equal_frequency"])), max(bins, 2))
    return np.array(columns).T, policy


@settings(max_examples=300, deadline=None)
@given(binned_columns())
def test_one_pass_codes_equal_per_column_discretize(case):
    values, policy = case
    ranks = _midranks(values)
    codes, bins = _discretize(values, policy)
    assert codes.dtype == np.int64 and bins.dtype == np.int64
    for col, (x, r) in enumerate(zip(values.T, ranks.T)):
        expected, count = oracles.discretize_reference(x, r, policy)
        assert codes[col].tolist() == expected.tolist() and bins[col] == count
        one, one_count = _discretize(x[:, None], policy, r[:, None])
        assert one[0].tolist() == expected.tolist() and one_count[0] == count
    assert _mi_table(values, policy).codes.tobytes() == codes.tobytes()
    assert _mi_table(values, policy, ranks).codes.tobytes() == codes.tobytes()


def test_categorical_column_is_never_scaled():
    # Two distinct values are the bins themselves: scaling the column's
    # range, which overflows float64 here, would only warn.
    x, y = np.array([-1e308, 1e308, -1e308, 1e308]), np.array([0.0, 1.0, 0.0, 1.0])
    policy = BinningPolicy("equal_width", 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mutual_information(x, y, policy) == mutual_information(y, y, policy) == math.log(2)


def test_equal_width_range_past_float64_is_a_clear_error():
    # The range of x overflows float64, so equal-width bins cannot cut it:
    # a ValueError before any arithmetic warns. Equal-frequency bins cut the
    # ranks, which equal those of z, and give z's value.
    x, y = np.array([-1e308, 1e308, 0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    z = np.array([0.0, 4.0, 1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in (mutual_information, normalized_mi):
            with pytest.raises(ValueError, match="column 0 spans -1e[+]308 to 1e[+]308: its range overflows float64"):
                measure(x, y, BinningPolicy("equal_width", 2))
            policy = BinningPolicy("equal_frequency", 2)
            assert measure(x, y, policy) == measure(z, y, policy) > 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=st.floats(-1e100, 1e100, allow_nan=False, allow_subnormal=True))))
def test_cache_std_equals_feature_std(values):
    # n from 2 to 300 covers numpy's unrolled blocks of 8 and the pairwise
    # split past 128 elements, with and without a remainder.
    dataset = Dataset(values)
    std = build_measure_cache(dataset, BinningPolicy()).std
    assert std.tobytes() == np.array([feature_std(dataset, i) for i in range(dataset.m)]).tobytes()


def unique_keys(pair, count):
    keys = sorted(set(zip(pair.ravel().tolist(), count.ravel().tolist())))
    index = {key: k for k, key in enumerate(keys)}
    inverse = [index[key] for key in zip(pair.ravel().tolist(), count.ravel().tolist())]
    return [p for p, _ in keys], [c for _, c in keys], np.reshape(inverse, pair.shape).tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(1, 12), st.integers(1, 8), st.sampled_from(["mask", "sort", "wide"]), st.data())
def test_distinct_keys_equal_unique(rows, cols, pairs, branch, data):
    # The span picks the branch: a key range within twice the cell
    # count, one up to 2⁶³ − 1, and one past it (no array of that size is
    # ever made: the keys are rows of (pair, count)).
    span = {"mask": 2, "sort": 10**12, "wide": 2**62}[branch]
    top = min(pairs, rows * cols) if branch == "mask" else pairs
    cells = st.lists(st.integers(0, top - 1), min_size=rows * cols, max_size=rows * cols)
    pair = np.array(data.draw(cells), dtype=np.int64).reshape(rows, cols)
    count = np.array(data.draw(st.lists(st.integers(0, min(span, 2**63) - 1), min_size=rows * cols,
                                        max_size=rows * cols)), dtype=np.int64).reshape(rows, cols)
    keys = (int(pair.max()) + 1) * span
    if branch == "mask":
        assert keys <= 2 * pair.size
    elif branch == "sort":
        assert 2 * pair.size < keys <= 2**63 - 1
    else:
        pair[0, 0] = 1  # at least two pair values: a range past 2⁶³
        assert (int(pair.max()) + 1) * span > 2**63 - 1
    expected = unique_keys(pair, count)
    got_pairs, got_counts, inverse = _distinct_keys(pair.copy(), count, span)
    assert (got_pairs.tolist(), got_counts.tolist(), inverse.tolist()) == expected
