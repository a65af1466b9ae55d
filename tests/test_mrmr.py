import tracemalloc

import numpy as np
import pytest

from oracles import plugin_mi

from infinisel import BinningPolicy, ConfigError, Dataset, mrmr_select, mutual_information

POLICY = BinningPolicy()


def oracle_mrmr(values, labels, k):
    """Step-wise re-evaluation of the greedy difference criterion.

    Independent of the library's incremental bookkeeping: every step
    recomputes relevance minus mean redundancy for every candidate from
    scratch. Assumes integer-valued columns so the histograms are
    unambiguous.
    """
    m = values.shape[1]
    rel = [plugin_mi(values[:, i], labels) for i in range(m)]
    selected: list[int] = []
    trace: list[float] = []
    remaining = list(range(m))
    for _ in range(k):
        best, best_score = None, None
        for f in remaining:  # ascending scan keeps the first-max tie rule
            if selected:
                red = np.mean([plugin_mi(values[:, f], values[:, s]) for s in selected])
                score = rel[f] - red
            else:
                score = rel[f]
            if best is None or score > best_score:
                best, best_score = f, score
        selected.append(best)
        trace.append(best_score)
        remaining.remove(best)
    return selected, trace


class TestMrmrExamples:
    def test_first_pick_is_max_relevance(self):
        rng = np.random.default_rng(50)
        y = rng.integers(0, 2, 40)
        values = np.column_stack(
            [rng.integers(0, 3, 40).astype(float) for _ in range(4)] + [y.astype(float)]
        )
        d = Dataset(values, labels=y)
        sel = mrmr_select(d, 1, POLICY)
        rel = [plugin_mi(values[:, i].astype(int), y) for i in range(5)]
        assert sel.order == (int(np.argmax(rel)),)
        assert sel.objective_trace[0] == pytest.approx(max(rel), rel=1e-12)

    def test_duplicate_of_near_label_feature_skipped(self):
        # f0 is the label with one flip, f1 duplicates f0 exactly, f2 is
        # mildly informative, f3 is noise. After picking f0, the duplicate's
        # criterion is negative while f2's stays positive, so rank 2 must
        # skip the duplicate. Both facts are checked against the oracle.
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        f0 = np.array([1, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        f2 = np.array([0, 0, 1, 1, 0, 1, 1, 1], dtype=float)
        f3 = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float)
        values = np.column_stack([f0, f0, f2, f3])
        sel = mrmr_select(Dataset(values, labels=y), 2, POLICY)
        assert sel.order == (0, 2)

        crit_dup = plugin_mi(values[:, 1].astype(int), y) - plugin_mi(
            values[:, 1].astype(int), values[:, 0].astype(int)
        )
        crit_f2 = plugin_mi(values[:, 2].astype(int), y) - plugin_mi(
            values[:, 2].astype(int), values[:, 0].astype(int)
        )
        assert crit_f2 > crit_dup
        np.testing.assert_allclose(sel.objective_trace[1], crit_f2, rtol=1e-12)

    def test_exact_label_copy_ties_break_by_index(self):
        # When a feature replicates the labels exactly, every later
        # criterion value collapses to relevance minus itself; the ordering
        # then falls back to ascending index.
        y = np.array([0, 0, 1, 1, 0, 1])
        values = np.column_stack([y, y, 1 - y]).astype(float)
        sel = mrmr_select(Dataset(values, labels=y), 3, POLICY)
        assert sel.order == (0, 1, 2)


class TestMrmrOracle:
    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            n = int(rng.integers(12, 30))
            m = int(rng.integers(2, 11))
            k = int(rng.integers(1, min(m, 4) + 1))
            values = rng.integers(0, 3, (n, m)).astype(float)
            labels = rng.integers(0, 2, n)
            if np.unique(labels).size < 2:
                continue
            d = Dataset(values, labels=labels)
            sel = mrmr_select(d, k, POLICY)
            expected_order, expected_trace = oracle_mrmr(values.astype(int), labels, k)
            assert list(sel.order) == expected_order
            np.testing.assert_allclose(sel.objective_trace, expected_trace, atol=1e-12)


class TestMrmrScalarExactness:
    def test_trace_equals_stepwise_scalar_recomputation_bitwise(self):
        # With k = m every feature is picked. Each trace entry must equal
        # relevance minus the mean of the scalar MI to the earlier picks,
        # summed left to right in pick order, to the last bit.
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(20, 60))
            m = int(rng.integers(3, 13))
            values = rng.normal(size=(n, m))
            values[:, ::3] = np.round(values[:, ::3])
            labels = np.arange(n) % 2
            sel = mrmr_select(Dataset(values, labels=labels), m, POLICY)
            y = labels.astype(float)
            for step, f in enumerate(sel.order):
                relevance = mutual_information(values[:, f], y, POLICY)
                if step == 0:
                    assert sel.objective_trace[0] == relevance
                    continue
                acc = 0.0
                for s in sel.order[:step]:
                    acc += mutual_information(values[:, f], values[:, s], POLICY)
                assert sel.objective_trace[step] == relevance - acc / step


class TestMrmrContract:
    def test_partial_permutation(self):
        rng = np.random.default_rng(52)
        y = rng.integers(0, 2, 30)
        d = Dataset(rng.normal(size=(30, 6)), labels=y)
        sel = mrmr_select(d, 4, POLICY)
        assert len(sel.order) == 4
        assert len(set(sel.order)) == 4
        assert all(0 <= f < 6 for f in sel.order)

    def test_deterministic(self):
        rng = np.random.default_rng(53)
        y = rng.integers(0, 2, 25)
        values = rng.normal(size=(25, 5))
        a = mrmr_select(Dataset(values, labels=y), 5, POLICY)
        b = mrmr_select(Dataset(values, labels=y), 5, POLICY)
        assert a.order == b.order and a.objective_trace == b.objective_trace

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(54)
        y = rng.integers(0, 2, 30)
        values = rng.normal(size=(30, 5))
        perm = rng.permutation(5)
        base = mrmr_select(Dataset(values, labels=y), 5, POLICY)
        permuted = mrmr_select(Dataset(values[:, perm], labels=y), 5, POLICY)
        inverse = np.argsort(perm)
        np.testing.assert_array_equal([inverse[f] for f in base.order], permuted.order)

    def test_requires_labels(self):
        d = Dataset(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ConfigError, match="label"):
            mrmr_select(d, 1, POLICY)

    def test_k_out_of_range(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), labels=[0, 1, 0, 1])
        with pytest.raises(ConfigError, match="k must be"):
            mrmr_select(d, 3, POLICY)
        with pytest.raises(ConfigError, match="k must be"):
            mrmr_select(d, 0, POLICY)


def test_peak_memory_at_20000_by_100():
    # The bin codes (uint8, an eighth of the matrix) are the only full-size
    # array; binning runs in column tiles and the kernel in tiles of pairs.
    # With one-pass binning and int64 codes the peak was 3.1x.
    rng = np.random.default_rng(54)
    values = rng.normal(size=(20000, 100))
    values[:, :20] = np.round(values[:, :20])
    d = Dataset(values, labels=rng.integers(0, 2, 20000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mrmr_select(d, 100, POLICY)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * values.nbytes
