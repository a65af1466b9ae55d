import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import inverse_route_scores, nmi, truncated_energy_scores, truncation_length

from infinisel import (
    AdjacencyMatrix,
    BinningPolicy,
    ConfigError,
    Dataset,
    SelectorConfig,
    adjacency,
    energy_scores,
    mrmr_select,
    preprocess,
    rank_features,
    selection_order,
    scoring,
    spectral_radius,
)
from infinisel.scoring import rank_scaled


def random_symmetric(rng, m):
    a = rng.uniform(0, 1, (m, m))
    return np.triu(a) + np.triu(a, 1).T


class TestSpectralRadius:
    def test_two_cycle(self):
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-10)

    def test_scalar(self):
        assert spectral_radius(np.array([[0.5]])) == 0.5

    def test_all_ones_rank_one(self):
        assert spectral_radius(np.ones((3, 3))) == pytest.approx(3.0, rel=1e-10)

    def test_zero_matrix_reports_zero(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            a = random_symmetric(rng, int(rng.integers(2, 12)))
            expected = np.abs(np.linalg.eigvalsh(a)).max()
            assert spectral_radius(a) == pytest.approx(expected, rel=1e-8)

    def test_star_with_nearly_opposite_eigenvalues_converges(self):
        # Eigenvalues −1.73188 and 1.73222: plain power iteration cannot
        # settle within the step cap, and the shifted one does.
        a = np.zeros((5, 5))
        a[1, 1] = 0.001
        a[[1, 2, 3], 4] = a[4, [1, 2, 3]] = 1.0
        expected = np.abs(np.linalg.eigvalsh(a)).max()
        assert spectral_radius(a) == pytest.approx(expected, rel=1e-9)
        ranking = energy_scores(a, c=0.9)
        np.testing.assert_allclose(ranking.scores, inverse_route_scores(a, 0.9), rtol=1e-8)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(scoring, "_POWER_STEPS", 1)
        with pytest.raises(RuntimeError, match="converge"):
            spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestPlainMatrixChecks:
    # A plain array gets the checks an AdjacencyMatrix runs on construction.
    @pytest.mark.parametrize("a, message", [
        ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
        ([[0.0, 1.0], [0.2, 0.0]], "symmetric"),
        ([[0.0, np.inf], [np.inf, 0.0]], "finite"),
        ([[1.0, 2.0]], "square"),
    ], ids=["negative", "asymmetric", "infinite", "not-square"])
    @pytest.mark.parametrize("function", [spectral_radius, energy_scores])
    def test_rejected(self, function, a, message):
        with pytest.raises(ValueError, match=message):
            function(np.array(a))

    def test_accumulation_dust_reads_zero(self):
        a = np.array([[1.0, -1e-12], [-1e-12, 1.0]])
        assert spectral_radius(a) == 1.0
        np.testing.assert_array_equal(energy_scores(a).scores, energy_scores(np.eye(2)).scores)

    def test_energy_scores_checks_a_plain_array_once(self, monkeypatch):
        # AdjacencyMatrix checks through adjacency's binding, spectral_radius
        # through scoring's: both are counted.
        rng = np.random.default_rng(36)
        a = random_symmetric(rng, 6)
        expected = energy_scores(AdjacencyMatrix(a), 0.9).scores
        calls = []
        checked = adjacency._checked_matrix

        def counting(matrix):
            calls.append(1)
            return checked(matrix)

        monkeypatch.setattr(adjacency, "_checked_matrix", counting)
        monkeypatch.setattr(scoring, "_checked_matrix", counting)
        scores = energy_scores(a, 0.9).scores
        assert len(calls) == 1
        assert scores.tobytes() == expected.tobytes()

    def test_tiny_entries_underflow_to_a_zero_radius(self):
        # sqrt(x**2) underflows to 0 for x = 1e-200: the norm == 0 exit.
        assert spectral_radius(np.array([[0.0, 1e-200], [1e-200, 0.0]])) == 0.0


class TestTruncatedScores:
    def test_single_hop_is_row_sums(self):
        rng = np.random.default_rng(31)
        a = random_symmetric(rng, 5)
        np.testing.assert_allclose(
            truncated_energy_scores(a, 0.1, 1), 0.1 * a.sum(axis=1), rtol=1e-12
        )

    def test_scalar_partial_sum(self):
        got = truncated_energy_scores(np.array([[1.0]]), 0.9, 3)
        np.testing.assert_allclose(got, [0.9 + 0.81 + 0.729], rtol=1e-12)

    def test_monotone_in_length(self):
        rng = np.random.default_rng(32)
        a = random_symmetric(rng, 6)
        r = 0.9 / spectral_radius(a)
        prev = truncated_energy_scores(a, r, 1)
        for length in (2, 5, 10, 40):
            cur = truncated_energy_scores(a, r, length)
            assert np.all(cur >= prev)
            prev = cur


class TestEnergyScores:
    def test_scalar_geometric_series(self):
        ranking = energy_scores(np.array([[1.0]]), c=0.9)
        np.testing.assert_allclose(ranking.scores, [9.0], atol=1e-12)
        assert ranking.r_used == pytest.approx(0.9)

    def test_two_by_two_all_ones(self):
        ranking = energy_scores(np.ones((2, 2)), c=0.9)
        np.testing.assert_allclose(ranking.scores, [9.0, 9.0], atol=1e-10)
        np.testing.assert_array_equal(ranking.order, [0, 1])
        assert ranking.spectral_radius == pytest.approx(2.0)

    def test_matches_truncated_series(self):
        rng = np.random.default_rng(33)
        length = truncation_length(0.9)
        for _ in range(20):
            a = random_symmetric(rng, 6)
            ranking = energy_scores(a, c=0.9)
            approx = truncated_energy_scores(a, ranking.r_used, length)
            assert np.abs(ranking.scores - approx).max() <= 1e-8

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closed_form_matches_truncated_path_sums(self, data):
        # Random nonnegative symmetric matrices, sparse or dense, of 1–12
        # features: the solve equals the walk sums cut where the tail is
        # below 1e-10 (Roffo, Melzi & Cristani, ICCV 2015). Power iteration
        # may stop short only where a second eigenvalue's magnitude is within
        # 1% of ρ (a near-bipartite star, say), far slower than 10000 steps
        # can resolve; then it must say so.
        m = data.draw(st.integers(1, 12))
        entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
        a = np.array(data.draw(st.lists(entry, min_size=m * m, max_size=m * m))).reshape(m, m)
        a = np.triu(a) + np.triu(a, 1).T
        assume(a.any())
        c = data.draw(st.floats(0.05, 0.95))
        try:
            ranking = energy_scores(a, c)
        except RuntimeError as exc:
            assert "did not converge within 10000 iterations" in str(exc)
            magnitudes = np.sort(np.abs(np.linalg.eigvalsh(a)))
            assert magnitudes[-2] > 0.99 * magnitudes[-1]
            return
        expected = truncated_energy_scores(a, ranking.r_used, truncation_length(c))
        np.testing.assert_allclose(ranking.scores, expected, rtol=1e-8)

    def test_matches_inverse_route(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            a = random_symmetric(rng, 7)
            ranking = energy_scores(a, c=0.9)
            np.testing.assert_allclose(ranking.scores, inverse_route_scores(a, 0.9), rtol=1e-7)

    def test_zero_matrix_short_circuits(self):
        with pytest.warns(UserWarning, match="zero adjacency"):
            ranking = energy_scores(np.zeros((3, 3)), c=0.9)
        np.testing.assert_array_equal(ranking.scores, np.zeros(3))
        np.testing.assert_array_equal(ranking.order, [0, 1, 2])

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError, match="c must be"):
            energy_scores(np.ones((2, 2)), c=1.0)

    def test_order_sorts_descending_with_index_ties(self):
        ranking = energy_scores(np.array([[0.0, 0.2, 0.2], [0.2, 0.0, 0.2], [0.2, 0.2, 0.0]]), 0.9)
        np.testing.assert_array_equal(ranking.order, [0, 1, 2])

    def test_truncation_length_formula(self):
        assert truncation_length(0.9) == int(np.ceil(np.log(1e-10 * 0.1) / np.log(0.9)))

    def test_convergence_condition_held(self):
        rng = np.random.default_rng(35)
        a = random_symmetric(rng, 8)
        for c in (0.5, 0.9, 0.99):
            ranking = energy_scores(a, c=c)
            assert ranking.r_used * ranking.spectral_radius < 1.0
            assert np.all(np.isfinite(ranking.scores)) and np.all(ranking.scores >= 0.0)
            approx = truncated_energy_scores(a, ranking.r_used, truncation_length(c))
            assert np.abs(ranking.scores - approx).max() <= 1e-8


def binary_dataset(rng, n, columns):
    return Dataset(np.column_stack([c.astype(float) for c in columns]))


class TestRankFeatures:
    def test_duplicate_pair_not_both_on_top(self):
        # One duplicated informative pair among independent binary noise;
        # full pipeline cross-checked against a from-scratch recompute of
        # the adjacency mix and the inverse-route energies.
        rng = np.random.default_rng(36)
        n = 80
        sig = rng.integers(0, 2, n).astype(float)
        noise = [rng.integers(0, 2, n).astype(float) for _ in range(3)]
        d = Dataset(np.column_stack([sig, sig] + noise))
        config = SelectorConfig(variant="mifs", alpha=0.5)
        ranking = rank_features(d, config)

        pre = preprocess(d, "normalize").values
        m = d.m
        std = np.array([np.sqrt(np.mean((pre[:, i] - pre[:, i].mean()) ** 2)) for i in range(m)])
        red = np.array(
            [
                np.mean([nmi(pre[:, j], pre[:, i]) for j in range(m) if j != i])
                for i in range(m)
            ]
        )
        a = 0.5 * np.maximum.outer(std, std) + 0.5 * (1.0 - np.minimum.outer(red, red))
        expected = inverse_route_scores(a, 0.9)
        np.testing.assert_allclose(ranking.scores, expected, rtol=1e-7)
        np.testing.assert_array_equal(ranking.order, np.argsort(-expected, kind="stable"))
        assert set(ranking.order[:2]) != {0, 1}

    def test_standardized_alpha_one_identity_order(self):
        cols = np.array(
            [
                [1, -1, 1, -1, 1, -1],
                [1, 1, -1, -1, 1, -1],
                [1, 1, 1, -1, -1, -1],
                [-1, 1, -1, 1, 1, -1],
            ],
            dtype=float,
        ).T
        config = SelectorConfig(variant="ifs", alpha=1.0, preprocessing="standardize")
        ranking = rank_features(Dataset(cols), config)
        np.testing.assert_array_equal(ranking.order, np.arange(4))
        assert np.all(ranking.scores == ranking.scores[0])

    def test_sifs_alpha_one_perfect_feature_first(self):
        rng = np.random.default_rng(37)
        y = rng.integers(0, 2, 40)
        values = np.column_stack([y.astype(float), rng.normal(size=(40, 4))])
        config = SelectorConfig(variant="sifs", alpha=1.0)
        ranking = rank_features(Dataset(values, labels=y), config)
        assert ranking.order[0] == 0

    def test_rejects_single_feature(self):
        d = Dataset(np.arange(4.0).reshape(4, 1))
        with pytest.raises(ConfigError, match="at least 2 features"):
            rank_features(d, SelectorConfig(variant="ifs", alpha=0.5))

    def test_sifs_requires_labels(self):
        d = Dataset(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ConfigError, match="label"):
            rank_features(d, SelectorConfig(variant="sifs", alpha=0.5))

    def test_rejects_cv_alpha(self):
        d = Dataset(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ConfigError, match="cv"):
            rank_features(d, SelectorConfig(variant="ifs", alpha="cv"))

    def test_all_constant_features_warn_and_rank_by_index(self):
        d = Dataset(np.ones((5, 3)))
        config = SelectorConfig(variant="mifs", alpha=1.0)
        with pytest.warns(UserWarning, match="zero adjacency"):
            ranking = rank_features(d, config)
        np.testing.assert_array_equal(ranking.order, [0, 1, 2])
        np.testing.assert_array_equal(ranking.scores, np.zeros(3))


class TestRankingProperties:
    @pytest.mark.parametrize("variant", ["ifs", "mifs", "sifs"])
    def test_permutation_equivariance(self, variant):
        rng = np.random.default_rng(38)
        values = rng.normal(size=(40, 6))
        labels = rng.integers(0, 2, 40)
        perm = rng.permutation(6)
        config = SelectorConfig(variant=variant, alpha=0.3)
        base = rank_features(Dataset(values, labels=labels), config)
        permuted = rank_features(Dataset(values[:, perm], labels=labels), config)
        np.testing.assert_allclose(permuted.scores, base.scores[perm], rtol=1e-9)
        inverse = np.argsort(perm)
        np.testing.assert_array_equal(permuted.order, inverse[base.order])

    def test_monotone_transform_leaves_rank_redundancy_unchanged(self):
        # alpha = 0 isolates the |spearman| redundancy term, which only sees
        # ranks; scores must be bitwise identical after exp on one column.
        rng = np.random.default_rng(39)
        values = np.column_stack([rng.permutation(30).astype(float) for _ in range(5)])
        transformed = values.copy()
        transformed[:, 2] = np.exp(transformed[:, 2] / 10.0)
        config = SelectorConfig(variant="ifs", alpha=0.0)
        a = rank_features(Dataset(values), config)
        b = rank_features(Dataset(transformed), config)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.order, b.order)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(40)
        values = rng.normal(size=(30, 5))
        labels = rng.integers(0, 3, 30)
        for variant in ("ifs", "mifs", "sifs"):
            config = SelectorConfig(variant=variant, alpha=0.4)
            r1 = rank_features(Dataset(values, labels=labels), config)
            r2 = rank_features(Dataset(values, labels=labels), config)
            np.testing.assert_array_equal(r1.order, r2.order)
            np.testing.assert_array_equal(r1.scores, r2.scores)


class TestSelectionOrder:
    def test_graph_variant_scores_by_rank(self):
        rng = np.random.default_rng(41)
        d = Dataset(rng.normal(size=(25, 4)))
        config = SelectorConfig(variant="mifs", alpha=0.5)
        order, scores = selection_order(d, config)
        ranking = rank_features(d, config)
        np.testing.assert_array_equal(order, ranking.order)
        np.testing.assert_array_equal(scores, ranking.scores[ranking.order])
        assert np.all(np.diff(scores) <= 0)

    def test_mrmr_variant_full_permutation(self):
        rng = np.random.default_rng(42)
        y = rng.integers(0, 2, 30)
        d = Dataset(rng.normal(size=(30, 5)), labels=y)
        order, scores = selection_order(d, SelectorConfig(variant="mrmr"))
        assert sorted(order.tolist()) == list(range(5))
        assert scores.shape == (5,)

    def test_rank_features_rejects_mrmr(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), labels=[0, 1, 0, 1])
        with pytest.raises(ConfigError) as exc:
            rank_features(d, SelectorConfig(variant="mrmr"))
        assert str(exc.value) == "variant 'mrmr' does not produce a graph-energy ranking"


class TestRankScaled:
    def test_each_config_gets_the_ranking_it_gets_alone(self):
        # One call over several variants, alphas and binnings shares measure
        # blocks within each (variant, binning) group, and gives every config
        # a FeatureRanking or, for mrmr, an MrmrSelection of every feature.
        rng = np.random.default_rng(43)
        y = rng.integers(0, 3, 40)
        values = rng.normal(size=(40, 6))
        values[:, [0, 3]] += y[:, None]
        d = Dataset(values, labels=y)
        configs = [
            SelectorConfig(variant=variant, alpha=alpha, preprocessing="standardize",
                           binning=BinningPolicy(kind, 4))
            for kind in ("equal_frequency", "equal_width")
            for variant in ("ifs", "mifs", "sifs", "mrmr")
            for alpha in (0.2, 0.7)
        ]
        scaled = preprocess(d, "standardize")
        rankings = rank_scaled(scaled, configs)
        assert rankings.keys() == set(configs)
        for config, ranking in rankings.items():
            if config.variant == "mrmr":
                assert ranking == mrmr_select(scaled, d.m, config.binning)
            else:
                alone = rank_features(d, config)
                assert ranking.order.tobytes() == alone.order.tobytes()
                assert ranking.scores.tobytes() == alone.scores.tobytes()
