import math

import numpy as np
import pytest

from oracles import plugin_mi

from infinisel import (
    BinningPolicy,
    ConfigError,
    Dataset,
    build_measure_cache,
    feature_std,
    mutual_information,
    normalized_mi,
    rdn,
    relevance_to_labels,
    spearman,
)

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

    def test_rdn_matches_brute_force_exactly(self):
        rng = np.random.default_rng(19)
        d = Dataset(rng.normal(size=(25, 6)))
        cache = build_measure_cache(d, POLICY, need_mi_matrix=True)
        for i in range(d.m):
            acc = 0.0
            for j in range(d.m):
                if j != i:
                    acc += normalized_mi(d.values[:, j], d.values[:, i], POLICY)
            assert cache.rdn[i] == acc / (d.m - 1)
            assert cache.rdn[i] == rdn(d, i, POLICY)

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
