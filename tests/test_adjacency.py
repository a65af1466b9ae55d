import numpy as np
import pytest

from infinisel import (
    AdjacencyMatrix,
    BinningPolicy,
    Dataset,
    MeasureCache,
    build_adjacency,
    build_measure_cache,
    preprocess,
)


def random_cache(rng, m):
    spr = rng.uniform(-1, 1, (m, m))
    spr = np.triu(spr, 1) + np.triu(spr, 1).T + np.eye(m)
    nmi = rng.uniform(0, 1, (m, m))
    nmi = np.triu(nmi, 1) + np.triu(nmi, 1).T + np.eye(m)
    rdn = np.array([(nmi[i].sum() - nmi[i, i]) / (m - 1) for i in range(m)])
    return MeasureCache(
        std=rng.uniform(0, 0.5, m),
        spearman=spr,
        mi=nmi,
        rdn=rdn,
        relevance=rng.uniform(0, 1, m),
    )


class TestIfs:
    def test_unit_std_alpha_one_constant(self):
        # Standardized data: every std is 1, so the pure-relevance mix is a
        # constant all-ones matrix and ranking degenerates to tie-breaking.
        cache = MeasureCache(std=np.ones(3), spearman=np.eye(3))
        a = build_adjacency(cache, "ifs", 1.0)
        np.testing.assert_array_equal(a.a, np.ones((3, 3)))

    def test_alpha_zero_duplicates(self):
        cache = MeasureCache(std=np.array([0.5, 0.5]), spearman=np.ones((2, 2)))
        a = build_adjacency(cache, "ifs", 0.0)
        assert a.a[0, 1] == 0.0

    def test_direct_arithmetic(self):
        spr = np.array([[1.0, 0.2], [0.2, 1.0]])
        cache = MeasureCache(std=np.array([0.5, 0.3]), spearman=spr)
        a = build_adjacency(cache, "ifs", 0.5)
        np.testing.assert_allclose(a.a[0, 1], 0.5 * 0.5 + 0.5 * 0.8)

    def test_missing_block(self):
        cache = MeasureCache(std=np.ones(2))
        with pytest.raises(ValueError, match="spearman"):
            build_adjacency(cache, "ifs", 0.5)

    def test_unknown_variant(self):
        cache = MeasureCache(std=np.ones(2), spearman=np.eye(2))
        with pytest.raises(ValueError, match="unknown adjacency variant 'mrmr'; expected one of"):
            build_adjacency(cache, "mrmr", 0.5)

    def test_alpha_outside_unit_interval(self):
        cache = MeasureCache(std=np.ones(2), spearman=np.eye(2))
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got 1.5"):
            build_adjacency(cache, "ifs", 1.5)


class TestMifs:
    def test_alpha_zero_fully_redundant_pair(self):
        cache = MeasureCache(std=np.array([0.5, 0.5]), rdn=np.array([1.0, 1.0]))
        assert build_adjacency(cache, "mifs", 0.0).a[0, 1] == 0.0

    def test_alpha_one_max_of_stds(self):
        cache = MeasureCache(std=np.array([0.5, 0.2, 0.4]), rdn=np.zeros(3))
        a = build_adjacency(cache, "mifs", 1.0)
        assert a.a[0, 1] == 0.5
        assert a.a[1, 2] == 0.4

    def test_direct_arithmetic(self):
        cache = MeasureCache(std=np.array([0.4, 0.2]), rdn=np.array([0.3, 0.7]))
        np.testing.assert_allclose(build_adjacency(cache, "mifs", 0.5).a[0, 1], 0.5 * 0.4 + 0.5 * 0.7)

    def test_missing_block(self):
        cache = MeasureCache(std=np.ones(2), spearman=np.eye(2))
        with pytest.raises(ValueError, match="rdn"):
            build_adjacency(cache, "mifs", 0.5)


class TestSifs:
    def test_alpha_one_relevance_rows(self):
        cache = MeasureCache(
            std=np.zeros(3), spearman=np.eye(3), relevance=np.array([1.0, 0.0, 0.0])
        )
        a = build_adjacency(cache, "sifs", 1.0)
        np.testing.assert_array_equal(a.a[0], np.ones(3))
        np.testing.assert_array_equal(a.a[:, 0], np.ones(3))
        assert a.a[1, 2] == 0.0

    def test_alpha_zero_equals_ifs(self):
        rng = np.random.default_rng(21)
        cache = random_cache(rng, 5)
        np.testing.assert_array_equal(build_adjacency(cache, "sifs", 0.0).a, build_adjacency(cache, "ifs", 0.0).a)

    def test_direct_arithmetic(self):
        spr = np.array([[1.0, -0.5], [-0.5, 1.0]])
        cache = MeasureCache(std=np.zeros(2), spearman=spr, relevance=np.array([0.6, 0.2]))
        np.testing.assert_allclose(build_adjacency(cache, "sifs", 0.5).a[0, 1], 0.5 * 0.6 + 0.5 * 0.5)

    def test_missing_relevance(self):
        cache = MeasureCache(std=np.ones(2), spearman=np.eye(2))
        with pytest.raises(ValueError, match="relevance"):
            build_adjacency(cache, "sifs", 0.5)


class TestMatrixProperties:
    @pytest.mark.parametrize("variant", ["ifs", "mifs", "sifs"], ids="build_{}".format)
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_symmetry_and_range(self, variant, alpha):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = build_adjacency(random_cache(rng, 6), variant, alpha)
            np.testing.assert_array_equal(a.a, a.a.T)
            assert a.a.min() >= 0.0
            assert a.a.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("variant", ["ifs", "mifs", "sifs"], ids="build_{}".format)
    def test_permutation_equivariance(self, variant):
        rng = np.random.default_rng(23)
        cache = random_cache(rng, 6)
        perm = rng.permutation(6)
        permuted = MeasureCache(
            std=cache.std[perm],
            spearman=cache.spearman[np.ix_(perm, perm)],
            mi=cache.mi[np.ix_(perm, perm)],
            rdn=cache.rdn[perm],
            relevance=cache.relevance[perm],
        )
        direct = build_adjacency(permuted, variant, 0.4).a
        reindexed = build_adjacency(cache, variant, 0.4).a[np.ix_(perm, perm)]
        np.testing.assert_array_equal(direct, reindexed)

    def test_standardized_alpha_one_constant_from_data(self):
        # End to end through the measure layer on exactly standardized data.
        cols = np.array(
            [
                [1, -1, 1, -1, 1, -1, 1, -1],
                [1, 1, -1, -1, 1, 1, -1, -1],
                [1, 1, 1, 1, -1, -1, -1, -1],
            ],
            dtype=float,
        ).T
        pre = preprocess(Dataset(cols), "standardize")
        cache = build_measure_cache(pre, BinningPolicy(), need_spearman=True, need_mi_matrix=True)
        for a in (build_adjacency(cache, "ifs", 1.0), build_adjacency(cache, "mifs", 1.0)):
            assert a.a.min() == a.a.max() == 1.0

    def test_constructor_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            AdjacencyMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]), "ifs", 0.5)

    def test_constructor_rejects_negatives(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AdjacencyMatrix(np.full((2, 2), -0.5), "ifs", 0.5)
