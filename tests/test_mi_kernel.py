"""The vectorised mutual-information kernel against the per-pair loop
(``oracles._mi``, ``_nmi`` and ``_symmetric_block``), bitwise, and against
the textbook per-cell sum to within rounding; its invariance under
relabelled bins; its exact entropy-term sums against ``math.fsum``; the
one-pass bin codes against the per-column discretization; and the
one-reduction std against ``feature_std``."""

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
    _coded_table,
    _discretize,
    _entropy_sums,
    _entropy_terms,
    _label_pairs,
    _label_table,
    _mi_pairs,
    _mi_table,
    _midranks,
    _nmi_pairs,
    _pair_block,
)


def terms_of(n, counts):
    # The entropy terms c·log(n / c) of a row's occupied cells, in Python floats.
    return [c * math.log(n / c) for c in counts if c > 0]


def test_entropy_terms_are_exact_limbs():
    # Every T[c] = c·log(n / c) other than T[0] = T[n] = 0 is at least ½, so
    # T[c]·2⁵³ is an integer, and the limbs hold it exactly.
    for n in [*range(1, 300), 1000, 4096, 65537]:
        hi, lo = _entropy_terms(n)
        terms = [0.0, *(c * math.log(n / c) for c in range(1, n + 1))]
        assert terms[n] == 0.0 and min(terms[1:n], default=0.5) >= 0.5
        assert all((t * 2.0**53).is_integer() for t in terms)
        assert [h * 2**32 + l for h, l in zip(hi.tolist(), lo.tolist())] == [int(t * 2.0**53) for t in terms]
        assert 0 <= lo.min() and lo.max() < 2**32


@st.composite
def count_rows(draw):
    """Rows of counts of n samples: whole histograms, whose counts add up
    to n, and loose rows of any counts up to n."""
    n = draw(st.integers(1, 3000))
    width = draw(st.integers(1, 40))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            cuts = sorted(draw(st.lists(st.integers(0, n), min_size=width - 1, max_size=width - 1)))
            out.append(np.diff([0, *cuts, n]).tolist())
        else:
            out.append(draw(st.lists(st.integers(0, n), min_size=width, max_size=width)))
    return n, np.array(out, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(count_rows())
def test_entropy_sums_equal_fsum_bitwise(case):
    n, counts = case
    expected = np.array([math.fsum(terms_of(n, row)) for row in counts.tolist()])
    assert _entropy_sums(counts, n).tobytes() == expected.tobytes()


def test_entropy_sums_round_halfway_ties_to_even():
    # Rows of two counts and an empty cell whose exact sum lies halfway
    # between two floats, found by exact integer sums of T·2⁵³: one rounding
    # of the exact sum, as math.fsum does, goes to the even neighbour, up or
    # down.
    ties = {"up": [], "down": []}
    for n in range(2, 120):
        scaled = [int(t * 2.0**53) for t in [0.0, *(c * math.log(n / c) for c in range(1, n + 1))]]
        for row in ([a, b] for a in range(1, n) for b in range(a, n)):
            exact = sum(scaled[c] for c in row)
            drop = exact.bit_length() - 53
            if drop > 0 and exact % (1 << drop) == 1 << (drop - 1):
                kept = exact >> drop
                ties["up" if kept % 2 else "down"].append((n, row + [0]))
        if min(len(v) for v in ties.values()) >= 20:
            break
    assert min(len(v) for v in ties.values()) >= 20
    for n, row in ties["up"] + ties["down"]:
        got = _entropy_sums(np.array([row, row[::-1]]), n)
        assert got.tolist() == [math.fsum(terms_of(n, row))] * 2


def test_entropy_sums_round_once_past_2_to_the_53(monkeypatch):
    # A high limb sum past 2⁵³ (about 2·10⁸ samples or more) is not exact
    # as a float: its rounding error joins the low limb before the one
    # rounding. Limbs as large as int64 allows stand in for such a table.
    # Each high limb is 2⁸ past a multiple of 2¹⁰, so a pair's high sum, in
    # [2⁶², 2⁶³) where floats are 2¹⁰ apart, lies halfway between two of
    # them: rounding it alone would go to even, and the low limbs must
    # round the exact sum up.
    rng = np.random.default_rng(5)
    hi = 2**61 + rng.integers(0, 2**50, 64) * 2**10 + 2**8
    lo = rng.integers(1, 2**31, 64)
    monkeypatch.setattr(measures, "_entropy_terms", lambda n: (hi, lo))
    counts = rng.integers(0, 64, (500, 2))
    exact = [sum(int(hi[c]) * 2**32 + int(lo[c]) for c in row) for row in counts.tolist()]
    assert _entropy_sums(counts, 0).tolist() == [v / 2**53 for v in exact]  # int / int rounds once


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
    pair or a few in a tile, and in a count tile; 400 bins keep a column of
    257–400 levels categorical, so its joint codes need 32 bits."""
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


def test_small_tiles_reach_wide_joint_codes(monkeypatch):
    # A spy on the joint codes' dtype proves that one-pair tiles reach the
    # 8-bit codes of few bins and the 32-bit codes past 256 bins.
    rng = np.random.default_rng(11)
    values = np.column_stack([column(rng, 600, kind) for kind in ("normal", "ties", "wide", "wide")])
    labels = rng.integers(0, 3, 600)
    tables = [(_mi_table(values, BinningPolicy(bin_count=bins)), _label_table(labels)) for bins in (2, 400)]
    dtypes = set()
    bincounts = measures._bincounts
    monkeypatch.setattr(measures, "_bincounts",
                        lambda codes, bins: dtypes.add(codes.dtype.name) or bincounts(codes, bins))
    monkeypatch.setattr(measures, "_TILE_BYTES", 1)
    for table, label in tables:
        i, j = np.triu_indices(4)
        for left, a, right, b in ((table, i, table, j), (table, np.arange(4), label, np.zeros(4, dtype=np.int64))):
            _mi_pairs(left, a, right, b)
    assert {"uint8", "uint32"} <= dtypes


@st.composite
def coded_pairs(draw):
    """Two columns of bin codes of n samples (1–6 and 1–12 bins, some
    left empty), each with a permutation of its bin labels."""
    n = draw(st.integers(1, 60))
    columns = []
    for top in (6, 12):
        bins = draw(st.integers(1, top))
        codes = draw(arrays(np.int64, n, elements=st.integers(0, bins - 1)))
        columns.append((codes, bins, np.array(draw(st.permutations(range(bins))))))
    return columns


def pair_mi(x, y, width):
    table = _coded_table(np.stack([x, y]), width)
    return _mi_pairs(table, [0], table, [1])[0]


@settings(max_examples=300, deadline=None)
@given(coded_pairs())
def test_relabelled_bins_leave_mi_bitwise_unchanged(case):
    # MI reads only the multisets of marginal and joint counts.
    (x, bx, px), (y, by, py) = case
    width = max(bx, by)
    mi = pair_mi(x, y, width)
    assert pair_mi(px[x], y, width) == pair_mi(x, py[y], width) == pair_mi(px[x], py[y], width) == mi
    assert mi == oracles.plugin_mi(x, y)


@settings(max_examples=300, deadline=None)
@given(coded_pairs())
def test_mi_is_the_per_cell_sum_to_within_rounding(case):
    # H(X) + H(Y) − H(X, Y) and the sum of p·log(p / (pa·pb)) agree in exact
    # arithmetic; in float64 they differ by a few units of roundoff of the
    # entropies (at most 2.2e-15 observed at these sizes).
    (x, bx, _), (y, by, _) = case
    assert abs(pair_mi(x, y, max(bx, by)) - oracles.plugin_mi_cells(x, y)) <= 1e-12


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
