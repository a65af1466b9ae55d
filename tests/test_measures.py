import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import _twice_centred_midranks, discretize_untiled, midranks_untiled, plugin_mi, spearman_exact

from infinisel import (
    BinningPolicy,
    ConfigError,
    DataError,
    Dataset,
    build_measure_cache,
    feature_std,
    mutual_information,
    normalized_mi,
    rdn,
    relevance_to_labels,
    spearman,
)
import infinisel
from infinisel import dataset as dataset_module
from infinisel import measures
from infinisel.adjacency import GRAPHS
from infinisel.measures import (_code_type, _discretize, _mi_pairs, _mi_table, _midranks, _rank_type,
                                _spearman_block)
from infinisel.mrmr import mrmr_select

POLICY = BinningPolicy()


def oracle_mi(x_codes, y_codes):
    """Brute-force plug-in MI straight from the definition (independent of
    the library's histogram code)."""
    mi = 0.0
    for a in np.unique(x_codes):
        for b in np.unique(y_codes):
            pxy = np.mean((x_codes == a) & (y_codes == b))
            if pxy > 0:
                mi += pxy * math.log(pxy / (np.mean(x_codes == a) * np.mean(y_codes == b)))
    return mi


def oracle_entropy(codes):
    return -sum(
        np.mean(codes == v) * math.log(np.mean(codes == v)) for v in np.unique(codes)
    )


def oracle_nmi(x_codes, y_codes):
    h = min(oracle_entropy(x_codes), oracle_entropy(y_codes))
    return 0.0 if h == 0 else oracle_mi(x_codes, y_codes) / h


class TestFeatureStd:
    def test_zero_dispersion(self):
        d = Dataset(np.array([[2.0, 0], [2.0, 1], [2.0, 2]]))
        assert feature_std(d, 0) == 0.0

    def test_two_point(self):
        d = Dataset(np.array([[0.0], [1.0]]))
        assert feature_std(d, 0) == 0.5

    def test_balanced_binary(self):
        d = Dataset(np.array([[0.0], [0.0], [1.0], [1.0]]))
        assert feature_std(d, 0) == 0.5


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_monotone_decreasing(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_rank_preserving_nonlinear_map(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert spearman(x, x**3) == 1.0

    def test_constant_vector_returns_zero(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman([1, 2, 3], [1, 2])

    def test_exact_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            assert spearman(x, y) == spearman(y, x)

    def test_range_random_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.integers(0, 4, size=15).astype(float)
            y = rng.integers(0, 4, size=15).astype(float)
            assert -1.0 <= spearman(x, y) <= 1.0

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(13)
        x = rng.permutation(20).astype(float)  # tie-free
        y = rng.permutation(20).astype(float)
        base = spearman(x, y)
        assert spearman(np.exp(x / 10), y) == base
        assert spearman(x, y**3) == base


def test_spearman_needs_two_samples():
    with pytest.raises(ValueError, match="need at least 2 samples"):
        spearman([1.0], [2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "measure", [spearman, mutual_information, normalized_mi], ids=lambda f: f.__name__
)
def test_non_finite_input_rejected(measure, bad):
    extra = () if measure is spearman else (POLICY,)
    for x, y in (([bad, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, 2.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            measure(np.array(x), np.array(y), *extra)


class TestMutualInformation:
    def test_identical_balanced_binary(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(mutual_information(x, x, POLICY), math.log(2), rtol=1e-12)

    def test_factorizing_joint(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert mutual_information(x, y, POLICY) == 0.0

    def test_constant_marginal(self):
        x = np.array([5.0, 5.0, 5.0, 5.0])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert mutual_information(x, y, POLICY) == 0.0

    def test_exact_symmetry_random(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert mutual_information(x, y, POLICY) == mutual_information(y, x, POLICY)

    def test_matches_entropy_decomposition(self):
        # MI must equal H(x) + H(y) - H(x, y) on the same histograms.
        rng = np.random.default_rng(15)
        for _ in range(100):
            x = rng.integers(0, 5, size=40)
            y = rng.integers(0, 5, size=40)
            joint = x * 5 + y
            expected = oracle_entropy(x) + oracle_entropy(y) - oracle_entropy(joint)
            got = mutual_information(x.astype(float), y.astype(float), POLICY)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_bin_count_validation(self):
        with pytest.raises(ConfigError, match="bin_count"):
            BinningPolicy(bin_count=1)

    @pytest.mark.parametrize("bins", [2.5, 10.0, "10", None])
    def test_bin_count_must_be_integer(self, bins):
        with pytest.raises(ConfigError, match="bin_count must be an integer"):
            BinningPolicy(bin_count=bins)

    def test_numpy_integer_bin_count_accepted(self):
        x = np.arange(12.0)
        policy = BinningPolicy(bin_count=np.int64(3))
        assert mutual_information(x, x, policy) == mutual_information(x, x, BinningPolicy(bin_count=3))

    def test_unknown_binning_kind(self):
        with pytest.raises(ConfigError, match="binning kind"):
            BinningPolicy(kind="kmeans")

    def test_equal_width_binning(self):
        x = np.array([0.0, 0.1, 0.9, 1.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        policy = BinningPolicy(kind="equal_width", bin_count=2)
        np.testing.assert_allclose(mutual_information(x, y, policy), math.log(2), rtol=1e-12)


class TestNormalizedMi:
    def test_identical_features(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        assert normalized_mi(x, x, POLICY) == 1.0

    def test_independent_empirical_joint(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert normalized_mi(x, y, POLICY) == 0.0

    def test_constant_input(self):
        x = np.array([3.0, 3.0, 3.0, 3.0])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert normalized_mi(x, y, POLICY) == 0.0

    def test_self_nmi_is_one_random(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            x = rng.normal(size=25)
            assert normalized_mi(x, x, POLICY) == 1.0

    def test_in_unit_interval_random(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            x = rng.integers(0, 3, size=20).astype(float)
            y = rng.integers(0, 3, size=20).astype(float)
            assert 0.0 <= normalized_mi(x, y, POLICY) <= 1.0


class TestRdn:
    def test_duplicate_pair(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        d = Dataset(np.column_stack([x, x]))
        assert rdn(d, 0, POLICY) == 1.0

    def test_factorizing_pair(self):
        d = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
        assert rdn(d, 0, POLICY) == 0.0

    def test_three_features_half(self):
        # f0 = f1, f2 with an exactly factorizing joint against f0:
        # mean of (1, 0) over the two other features. Cross-checked with a
        # direct histogram oracle.
        f0 = np.array([0.0, 0.0, 1.0, 1.0])
        f2 = np.array([0.0, 1.0, 0.0, 1.0])
        d = Dataset(np.column_stack([f0, f0, f2]))
        expected = (oracle_nmi(f0, f0) + oracle_nmi(f2, f0)) / 2
        assert expected == 0.5
        assert rdn(d, 0, POLICY) == 0.5

    def test_single_feature_rejected(self):
        d = Dataset(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="single feature"):
            rdn(d, 0, POLICY)


class TestRelevanceToLabels:
    def test_feature_equals_labels(self):
        y = np.array([0, 0, 1, 1])
        d = Dataset(np.column_stack([y.astype(float), np.arange(4.0)]), labels=y)
        assert relevance_to_labels(d, 0, POLICY) == 1.0

    def test_independent_feature(self):
        y = np.array([0, 1, 0, 1])
        d = Dataset(np.column_stack([[0.0, 0.0, 1.0, 1.0], np.arange(4.0)]), labels=y)
        assert relevance_to_labels(d, 0, POLICY) == 0.0

    def test_one_flipped_of_eight(self):
        # Frozen from the direct plug-in evaluation of the 2x2 histogram
        # with joint counts ((3, 0), (1, 4)) out of 8.
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        x = y.astype(float).copy()
        x[0] = 1.0
        d = Dataset(np.column_stack([x, np.arange(8.0)]), labels=y)
        got = relevance_to_labels(d, 0, POLICY)
        np.testing.assert_allclose(got, 0.5749951688786838, rtol=1e-12)
        np.testing.assert_allclose(got, oracle_nmi(x.astype(int), y), rtol=1e-12)
        assert 0.0 < got < 1.0

    def test_requires_labels(self):
        d = Dataset(np.ones((4, 2)) * np.arange(4.0)[:, None])
        with pytest.raises(ConfigError, match="label"):
            relevance_to_labels(d, 0, POLICY)


class TestMeasureCache:
    def test_duplicate_pair_all_blocks(self):
        x = np.array([0.0, 1.0, 0.0, 1.0])
        d = Dataset(np.column_stack([x, x]), labels=x.astype(int))
        cache = build_measure_cache(
            d, POLICY, need_mi_matrix=True, need_spearman=True, need_relevance=True
        )
        np.testing.assert_array_equal(cache.spearman, [[1.0, 1.0], [1.0, 1.0]])
        assert cache.mi[0, 1] == 1.0 and cache.mi[1, 0] == 1.0
        np.testing.assert_array_equal(cache.rdn, [1.0, 1.0])
        np.testing.assert_array_equal(cache.relevance, [1.0, 1.0])

    def test_unrequested_blocks_absent(self):
        d = Dataset(np.arange(8.0).reshape(4, 2))
        cache = build_measure_cache(d, POLICY, need_spearman=True)
        assert cache.mi is None and cache.rdn is None and cache.relevance is None
        assert cache.spearman is not None

    def test_relevance_needs_labels(self):
        d = Dataset(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ConfigError, match="label"):
            build_measure_cache(d, POLICY, need_relevance=True)

    def test_matches_per_pair_recomputation(self):
        rng = np.random.default_rng(18)
        d = Dataset(rng.normal(size=(30, 5)), labels=rng.integers(0, 2, 30))
        cache = build_measure_cache(
            d, POLICY, need_mi_matrix=True, need_spearman=True, need_relevance=True
        )
        m = d.m
        for i in range(m):
            assert cache.std[i] == feature_std(d, i)
            assert cache.relevance[i] == relevance_to_labels(d, i, POLICY)
            for j in range(m):
                if i != j:
                    pair_nmi = normalized_mi(d.values[:, i], d.values[:, j], POLICY)
                    assert cache.mi[i, j] == pair_nmi
                    assert cache.spearman[i, j] == spearman(d.values[:, i], d.values[:, j])

    @pytest.mark.parametrize("kind", ["normal", "tied", "wide", "single"])
    def test_rdn_matches_brute_force_exactly(self, kind):
        rng = np.random.default_rng(19)
        values = rng.normal(size=(25, {"wide": 60, "single": 1}.get(kind, 6)))
        if kind == "tied":  # a constant column, a duplicate and a rounded one
            values[:, 1] = 2.0
            values[:, 2] = values[:, 0]
            values[:, 3] = np.round(values[:, 3])
        d = Dataset(values)
        cache = build_measure_cache(d, POLICY, need_mi_matrix=True)
        if kind == "single":
            assert cache.rdn.tolist() == [0.0]
            return
        for i in range(d.m):
            acc = 0.0
            for j in range(d.m):
                if j != i:
                    acc += normalized_mi(d.values[:, j], d.values[:, i], POLICY)
            assert cache.rdn[i] == acc / (d.m - 1)
            assert cache.rdn[i] == rdn(d, i, POLICY)

    @pytest.mark.parametrize("variant", sorted(GRAPHS))
    def test_std_is_the_datasets_own(self, variant):
        rng = np.random.default_rng(21)
        d = Dataset(rng.normal(size=(30, 5)), labels=rng.integers(0, 2, 30))
        cache = build_measure_cache(d, POLICY, **GRAPHS[variant].measure_flags)
        assert np.shares_memory(cache.std, d.std)
        assert not cache.std.flags.writeable and not d.std.flags.writeable
        assert d.std.tolist() == [feature_std(d, i) for i in range(d.m)]

    def test_spearman_diagonal_and_symmetry(self):
        rng = np.random.default_rng(20)
        d = Dataset(rng.normal(size=(20, 4)))
        cache = build_measure_cache(d, POLICY, need_spearman=True, need_mi_matrix=True)
        np.testing.assert_array_equal(np.diag(cache.spearman), np.ones(4))
        np.testing.assert_array_equal(cache.spearman, cache.spearman.T)
        np.testing.assert_array_equal(cache.mi, cache.mi.T)
        assert cache.mi.min() >= 0.0


class TestKernelExactness:
    """Categorical columns with unequal bin counts and empty joint cells."""

    @staticmethod
    def categorical(rng, n):
        levels = rng.normal(size=int(rng.integers(1, 9)))
        return levels[rng.integers(0, levels.size, n)]

    def test_scalar_mi_matches_oracle_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(6, 61))
            x, y = self.categorical(rng, n), self.categorical(rng, n)
            codes_x = np.unique(x, return_inverse=True)[1]
            codes_y = np.unique(y, return_inverse=True)[1]
            got = mutual_information(x, y, POLICY)
            assert got == max(plugin_mi(codes_x, codes_y), 0.0)
            assert got == mutual_information(y, x, POLICY)

    def test_blocks_match_scalar_measures_bitwise(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(6, 61))
            values = np.column_stack([self.categorical(rng, n) for _ in range(5)])
            labels = rng.integers(0, 3, n)
            labels[:2] = [0, 1]
            d = Dataset(values, labels=labels)
            cache = build_measure_cache(d, POLICY, need_mi_matrix=True, need_relevance=True)
            for i in range(d.m):
                assert cache.relevance[i] == relevance_to_labels(d, i, POLICY)
                assert cache.rdn[i] == rdn(d, i, POLICY)
                for j in range(d.m):
                    assert cache.mi[i, j] == normalized_mi(values[:, i], values[:, j], POLICY)

    def test_spearman_block_matches_scalar_on_ties_and_constants(self):
        # Midranks of tied and constant columns: the block must equal the
        # scalar measure in both triangles and on the diagonal, where a
        # constant column correlates 0 with itself.
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(6, 61))
            values = np.column_stack([self.categorical(rng, n) for _ in range(6)])
            values[:, 5] = values[0, 5]
            cache = build_measure_cache(Dataset(values), POLICY, need_spearman=True)
            np.testing.assert_array_equal(cache.spearman, cache.spearman.T)
            for i in range(6):
                for j in range(6):
                    assert cache.spearman[i, j] == spearman(values[:, i], values[:, j])


class TestSpearmanOracle:
    @pytest.mark.parametrize("n", [2, 3, 7, 50, 500, 3000])
    def test_block_matches_exact_integer_oracle_bitwise(self, n):
        # The oracle ranks by explicit tie averaging and sums in Python
        # integers; the block must equal it in every cell.
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        values = np.column_stack([
            x,
            np.round(x * 2) / 2,  # tied
            np.full(n, 3.0),  # constant
            np.round(rng.normal(size=n), 1),  # rounded
            rng.integers(0, 3, n),  # 3 levels
            np.round(-x + rng.normal(scale=0.5, size=n), 2),
        ])
        cache = build_measure_cache(Dataset(values), POLICY, need_spearman=True)
        for i in range(6):
            for j in range(6):
                assert cache.spearman[i, j] == spearman_exact(values[:, i], values[:, j])

    @pytest.mark.parametrize("m, n", [(65, 40), (130, 12), (65, 300)])
    def test_tiled_block_matches_exact_integer_oracle_bitwise(self, m, n):
        # The Gram runs in tiles of 64 columns, 64 rows a call at full
        # width: m = 65 and 130 take several tiles, n = 300 five row chunks.
        rng = np.random.default_rng(m * n)
        values = rng.normal(size=(n, m))
        values[:, 1::3] = np.round(values[:, 1::3])  # tied
        values[:, 2::7] = 1.5  # constant
        block = build_measure_cache(Dataset(values), POLICY, need_spearman=True).spearman
        assert block.tobytes() == block.T.tobytes()
        for i in range(m):
            for j in range(i, m):
                assert block[i, j] == spearman_exact(values[:, i], values[:, j])

    def test_gram_past_two_to_the_53_adds_chunks_exactly(self):
        # 2¹⁹ + 1 tied rows: the Gram's sums pass 2⁵³, where float64 keeps
        # only even integers, so the 17 exact chunks (32768 rows a call) must
        # add in integers; on this seed a float64 running sum moves the
        # correlation by an ulp.
        n = 2**19 + 1
        rng = np.random.default_rng(0)
        x = rng.integers(0, 3000, n).astype(float)
        y = np.round(x + rng.normal(scale=1500, size=n), -2)
        ranks = _midranks(np.column_stack([x, y]))
        assert (ranks[:, 0] * ranks[:, 1]).sum() > 2**53
        block = _spearman_block(ranks)
        assert block[0, 1] == block[1, 0] == spearman_exact(x, y)
        assert block[0, 0] == block[1, 1] == 1.0


def available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


SPIN_PROBE = """
import time
import numpy as np
from infinisel.measures import _midranks, _spearman_block
_spearman_block(_midranks(np.random.default_rng(0).normal(size=(5000, 40))))
start = time.process_time()
time.sleep(0.2)
print(time.process_time() - start)
"""


@pytest.mark.skipif(available_cpus() < 2, reason="a BLAS worker thread needs a second CPU")
def test_spearman_block_leaves_no_blas_worker_spinning():
    # A threaded OpenBLAS call leaves its workers spinning for ~0.1 s of CPU
    # after it returns; each Gram call stays under OpenBLAS's one-thread size,
    # so the process sleeps idle. The whole 40 × 40 product in one call spun.
    package_root = str(Path(infinisel.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    # Another process loading the host can push one probe over the bound; a
    # spinning worker pushes every probe over it.
    readings = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", SPIN_PROBE], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        readings.append(float(proc.stdout))
        if readings[-1] < 0.020:
            break
    assert min(readings) < 0.020, readings


class TestMidranks:
    @pytest.mark.parametrize("n", [2, 3, 9, 200])
    def test_matches_oracle_column_by_column(self, n):
        # ±0.0 tie; subnormals and ±1e300 are ordinary distinct values.
        rng = np.random.default_rng(500 + n)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
        values = np.column_stack([
            rng.normal(size=n),
            np.resize([0.0, -0.0], n),
            rng.choice(special, size=n),
            np.full(n, -0.0),  # all tied
            np.where(rng.random(n) < 0.5, rng.choice(special, size=n), np.round(rng.normal(size=n), 1)),
            rng.integers(0, 3, n).astype(float),
        ])
        ranks = _midranks(values)
        assert ranks.dtype == np.int64 and ranks.shape == values.shape and ranks.flags.f_contiguous
        for i in range(values.shape[1]):
            assert ranks[:, i].tolist() == _twice_centred_midranks(values[:, i])

    def test_peak_memory_at_5000_by_400(self):
        # The sort needs the transposed copy, the order and the sorted values;
        # later steps reuse or free them. Four result-sized arrays bound the
        # peak (three are live at most); holding every temporary took seven.
        rng = np.random.default_rng(510)
        values = rng.normal(size=(5000, 400))
        values[:, :100] = np.round(values[:, :100])  # tie runs too
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ranks = _midranks(values)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * ranks.nbytes


WIDTH = 4  # columns a tile in TestColumnTiles


def tile_columns(n, m, seed):
    """m columns of n rows, cycling through all-tied ±0.0, continuous, ±0.0
    tied beside 1.0, rounded and three-level categorical ones."""
    rng = np.random.default_rng(seed)
    kinds = [
        np.resize([0.0, -0.0], n),
        rng.normal(size=n),
        np.resize([-0.0, 1.0, 0.0], n),
        np.round(rng.normal(size=n)),
        rng.integers(0, 3, n).astype(float),
    ]
    return np.column_stack([kinds[j % len(kinds)] for j in range(m)])


class TestColumnTiles:
    """Tiled kernels against their one-pass references, with tiles of WIDTH
    columns: m = WIDTH − 1, WIDTH and WIDTH + 1 take one tile, one full tile
    and a full tile plus one column."""

    @pytest.fixture(autouse=True)
    def tiny_tiles(self, monkeypatch, n):
        for module in (measures, dataset_module):
            monkeypatch.setattr(module, "_TILE_BYTES", 8 * n * WIDTH)

    @pytest.mark.parametrize("m", [WIDTH - 1, WIDTH, WIDTH + 1])
    @pytest.mark.parametrize("n", [2, 9])
    def test_midranks_match_untiled_bitwise(self, n, m):
        values = tile_columns(n, m, seed=n * m)
        expected = midranks_untiled(values)
        ranks = _midranks(values)
        assert ranks.dtype == np.int64 and ranks.flags.f_contiguous
        assert ranks.tobytes(order="F") == expected.tobytes(order="F")
        narrow = _midranks(values, _rank_type(n))
        assert narrow.dtype == np.int32 and narrow.tolist() == expected.tolist()

    @pytest.mark.parametrize("policy", [BinningPolicy(bin_count=2), BinningPolicy(bin_count=3), POLICY,
                                        BinningPolicy("equal_width", 2), BinningPolicy("equal_width", 3)])
    @pytest.mark.parametrize("m", [WIDTH - 1, WIDTH, WIDTH + 1])
    @pytest.mark.parametrize("n", [2, 9])
    def test_discretize_matches_untiled_bitwise(self, n, m, policy):
        values = tile_columns(n, m, seed=n + m)
        expected, counts = discretize_untiled(values, policy)
        for ranks, dtype in ((None, np.int64), (_midranks(values, _rank_type(n)), _code_type(policy, n))):
            codes, bins = _discretize(values, policy, ranks, dtype)
            assert codes.dtype == dtype and codes.tolist() == expected.tolist()
            assert bins.dtype == np.int64 and bins.tobytes() == counts.tobytes()

    @pytest.mark.parametrize("m", [WIDTH - 1, WIDTH, WIDTH + 1])
    @pytest.mark.parametrize("n", [3, 9])
    def test_overflow_names_the_global_column(self, n, m):
        # The last column spans ±1e308 in n > 2 values: equal-width bins
        # cannot cut it, and the error names its index in the matrix, not in
        # its tile.
        values = tile_columns(n, m, seed=m)
        values[:, -1] = np.resize([-1e308, 0.0, 1e308], n)
        message = f"column {m - 1} spans -1e[+]308 to 1e[+]308: its range overflows float64"
        for discretize in (_discretize, discretize_untiled):
            with pytest.raises(ValueError, match=message):
                discretize(values, BinningPolicy("equal_width", 2))

    @pytest.mark.parametrize("m", [WIDTH - 1, WIDTH, WIDTH + 1])
    @pytest.mark.parametrize("n", [2, 9])
    def test_cache_and_mrmr_match_one_tile_bitwise(self, monkeypatch, n, m):
        d = Dataset(tile_columns(n, m, seed=2 * m), labels=np.arange(n) % 2)
        flags = dict(need_mi_matrix=True, need_spearman=True, need_relevance=True)
        tiled, tiled_mrmr = build_measure_cache(d, POLICY, **flags), mrmr_select(d, m, POLICY)
        monkeypatch.setattr(measures, "_TILE_BYTES", 768 << 10)
        whole = build_measure_cache(d, POLICY, **flags)
        for block in ("std", "spearman", "mi", "rdn", "relevance"):
            assert getattr(tiled, block).tobytes() == getattr(whole, block).tobytes(), block
        whole_mrmr = mrmr_select(d, m, POLICY)
        assert tiled_mrmr.order == whole_mrmr.order
        assert np.array(tiled_mrmr.objective_trace).tobytes() == np.array(whole_mrmr.objective_trace).tobytes()
        assert tiled.std.tolist() == [feature_std(d, i) for i in range(m)]

    @pytest.mark.parametrize("n", [9, 13])
    def test_gram_chunks_and_tiles_match_oracle_bitwise(self, monkeypatch, n):
        # Tiles of two columns and calls of 16 multiply-adds: chunks of four
        # rows, converted one at a time, and a last tile of one column.
        values = tile_columns(n, 5, seed=n)
        whole = _spearman_block(midranks_untiled(values))
        monkeypatch.setattr(measures, "_GRAM_TILE", 2)
        monkeypatch.setattr(measures, "_GRAM_CALL", 16)
        block = _spearman_block(_midranks(values, _rank_type(n)))
        assert block.tobytes() == whole.tobytes()
        for i in range(5):
            for j in range(5):
                assert block[i, j] == spearman_exact(values[:, i], values[:, j])

    @pytest.mark.parametrize("n", [9])
    def test_dataset_checks_name_the_global_feature(self, n):
        values = tile_columns(n, WIDTH + 2, seed=1)
        big = values.copy()
        big[:, WIDTH + 1] = np.linspace(0.0, 2e200, n)
        with pytest.raises(DataError, match=f"standard deviation of feature {WIDTH + 1} overflows float64"):
            Dataset(big)
        bad = big.copy()
        bad[3, WIDTH] = np.nan
        with pytest.raises(DataError, match=f"non-finite value at sample 3, feature {WIDTH}"):
            Dataset(bad)

    @pytest.mark.parametrize("n", [9])
    def test_nan_in_a_later_tile_wins_over_an_earlier_overflow(self, n):
        # Feature 0's std overflows in tile 0 and a NaN sits in tile 1: the
        # non-finite value is named, as when both faults share one tile.
        values = tile_columns(n, WIDTH + 2, seed=5)
        values[:, 0] = np.linspace(0.0, 2e200, n)
        values[6, WIDTH + 1] = np.nan
        with pytest.raises(DataError, match=f"non-finite value at sample 6, feature {WIDTH + 1}"):
            Dataset(values)

    @pytest.mark.parametrize("n", [9])
    def test_checks_make_no_whole_matrix_pass(self, n):
        # The std pass alone validates: a whole-matrix min or max fails here.
        class NoWholeReduction(np.ndarray):
            def min(self, *args, **kwargs):
                raise AssertionError("a whole-matrix reduction")

            max = min

        values = tile_columns(n, 2 * WIDTH + 1, seed=6)
        expected = [float(np.std(values[:, i])) for i in range(values.shape[1])]
        d = Dataset(dataset_module._Fresh(values.view(NoWholeReduction)))
        assert d.std.tolist() == expected


class TestPeakMemory:
    @pytest.mark.parametrize("variant", sorted(GRAPHS))
    def test_measure_cache_at_20000_by_100(self, variant):
        # Tiles hold every per-column temporary; ranks (int32) and bin codes
        # (uint8) are the only full-size arrays, half and an eighth of the
        # matrix. One-pass kernels peaked at 3.1x.
        rng = np.random.default_rng(530)
        values = rng.normal(size=(20000, 100))
        values[:, :20] = np.round(values[:, :20])
        d = Dataset(values, labels=rng.integers(0, 2, 20000))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_measure_cache(d, POLICY, **GRAPHS[variant].measure_flags)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * values.nbytes

    def test_mi_pairs_copies_no_code_table(self):
        # Each count tile gathers its rows from the narrow (uint8) codes and
        # casts them to the uint32 joint-code type there. Casting both whole
        # tables first peaked at 1.5x the float matrix.
        values = np.random.default_rng(531).normal(size=(500, 400))
        policy = BinningPolicy(bin_count=100)
        table = _mi_table(values, policy, dtype=_code_type(policy, 500))
        i, j = np.triu_indices(400)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _mi_pairs(table, i[:2000], table, j[:2000])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * values.nbytes
