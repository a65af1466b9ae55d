"""Acceptance criteria for the package, one test per criterion.

Each test prints a single pass line (visible with ``pytest -s``) after its
assertions hold at the stated tolerance. Runtime-limited criteria assert
their own wall-clock budget.
"""

import time

import numpy as np

from oracles import entropy as oracle_entropy, truncated_energy_scores, truncation_length

from infinisel import (
    ALPHA_GRID,
    BinningPolicy,
    Dataset,
    SelectorConfig,
    build_adjacency,
    build_measure_cache,
    cross_validate,
    energy_scores,
    evaluate_selector,
    mrmr_select,
    mutual_information,
    normalized_mi,
    preprocess,
    rank_features,
    spearman,
)
from infinisel.cli import main
from test_mrmr import oracle_mrmr

POLICY = BinningPolicy()


def _passed(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def random_symmetric(rng, m):
    a = rng.uniform(0, 1, (m, m))
    return np.triu(a) + np.triu(a, 1).T


def test_criterion_1_geometric_series_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    length = truncation_length(0.9)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 21))
        a = random_symmetric(rng, m)
        ranking = energy_scores(a, c=0.9)
        if ranking.spectral_radius == 0.0:
            continue
        approx = truncated_energy_scores(a, ranking.r_used, length)
        worst = max(worst, float(np.abs(ranking.scores - approx).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    _passed(1, f"closed form vs {length}-step path sums, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_analytic_closed_forms():
    rng = np.random.default_rng(1002)
    for a_val in rng.uniform(0.05, 1.0, 20):
        ranking = energy_scores(np.array([[a_val]]), c=0.9)
        ra = ranking.r_used * a_val
        assert abs(ranking.scores[0] - ra / (1.0 - ra)) <= 1e-12
    for k in range(1, 9):
        ranking = energy_scores(np.ones((k, k)), c=0.9)
        assert np.abs(ranking.scores - 9.0).max() <= 1e-10
    _passed(2, "1x1 geometric series exact, all-ones matrices score c/(1-c)")


def test_criterion_3_measure_correctness():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        x = rng.integers(0, 5, 40)
        y = rng.integers(0, 5, 40)
        decomposed = oracle_entropy(x) + oracle_entropy(y) - oracle_entropy(x * 5 + y)
        got = mutual_information(x.astype(float), y.astype(float), POLICY)
        assert abs(got - decomposed) <= 1e-10

    for _ in range(50):
        x = rng.permutation(25).astype(float)
        y = rng.permutation(25).astype(float)
        rho = spearman(x, y)
        assert -1.0 <= rho <= 1.0
        assert spearman(np.exp(x / 10.0), y) == rho
        assert spearman(x, y**3) == rho

    for _ in range(50):
        x = rng.normal(size=30)
        assert normalized_mi(x, x, POLICY) == 1.0
    _passed(3, "MI entropy decomposition, spearman range/invariance, nmi(x,x)=1")


def test_criterion_4_standardized_degeneracy():
    # Balanced +-1 columns standardize exactly, reproducing the pathology:
    # with a pure relevance mix the matrix is constant and the ranking
    # reduces to dataset order.
    cols = np.array(
        [
            [1, -1, 1, -1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1, 1, -1, -1],
            [1, 1, 1, 1, -1, -1, -1, -1],
            [-1, 1, 1, -1, 1, -1, -1, 1],
        ],
        dtype=float,
    ).T
    pre = preprocess(Dataset(cols), "standardize")
    cache = build_measure_cache(pre, POLICY, need_spearman=True, need_mi_matrix=True)
    for variant in ("ifs", "mifs"):
        adjacency = build_adjacency(cache, variant, 1.0)
        assert adjacency.a.min() == adjacency.a.max()
    for variant in ("ifs", "mifs"):
        config = SelectorConfig(variant=variant, alpha=1.0, preprocessing="standardize")
        ranking = rank_features(Dataset(cols), config)
        np.testing.assert_array_equal(ranking.order, np.arange(4))
        assert np.all(ranking.scores == ranking.scores[0])
    _passed(4, "standardized data + alpha=1 gives constant matrix and identity order")


def test_criterion_5_mrmr_oracle():
    rng = np.random.default_rng(1005)
    checked = 0
    while checked < 100:
        n = int(rng.integers(12, 40))
        m = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(m, 4) + 1))
        values = rng.integers(0, 3, (n, m)).astype(float)
        labels = rng.integers(0, 2, n)
        if np.unique(labels).size < 2:
            continue
        selection = mrmr_select(Dataset(values, labels=labels), k, POLICY)
        expected_order, _ = oracle_mrmr(values.astype(int), labels, k)
        assert list(selection.order) == expected_order
        checked += 1
    _passed(5, "greedy selection matches step-wise brute force on 100 instances")


def planted_dataset(seed, n=500, m=20, k_planted=5):
    rng = np.random.default_rng(seed)
    planted = rng.choice(m, size=k_planted, replace=False)
    values = rng.normal(size=(n, m))
    w = rng.uniform(1.0, 2.0, k_planted) * rng.choice([-1.0, 1.0], k_planted)
    margin = values[:, planted] @ w + rng.normal(scale=0.5, size=n)
    labels = (margin > 0).astype(int)
    return Dataset(values, labels=labels), set(int(i) for i in planted)


def test_criterion_6_planted_relevance_recovery():
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        dataset, planted = planted_dataset(3000 + seed)
        base = SelectorConfig(variant="sifs", alpha=0.5)
        grid = [(base.with_alpha(a), 1.0) for a in ALPHA_GRID]
        (best, _), _ = cross_validate(dataset, grid, folds=5, seed=seed)
        ranking = rank_features(dataset, best)
        if len(set(ranking.order[:5].tolist()) & planted) >= 4:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 16
    assert elapsed < 30.0
    _passed(6, f"sifs with cv alpha recovered >=4/5 planted in {hits}/20 runs, {elapsed:.1f}s")


def test_criterion_7_duplicate_pair_redundancy():
    rng = np.random.default_rng(1007)
    for _ in range(20):
        n = int(rng.integers(40, 80))
        m = int(rng.integers(4, 10))
        values = rng.normal(size=(n, m))
        i, j = rng.choice(m, size=2, replace=False)
        values[:, j] = values[:, i]
        config = SelectorConfig(variant="mifs", alpha=0.0)
        ranking = rank_features(Dataset(values), config)
        assert set(ranking.order[:2].tolist()) != {int(i), int(j)}
    _passed(7, "mifs alpha=0 never puts an exact duplicate pair in the top 2")


def _write_split_csvs(tmp_path, seed, mutate_test=False):
    rng = np.random.default_rng(seed)
    n, m = 50, 6
    y_tr = rng.integers(0, 2, n)
    x_tr = rng.normal(size=(n, m))
    x_tr[:, 0] = y_tr + rng.normal(scale=0.3, size=n)
    y_te = rng.integers(0, 2, 30)
    x_te = rng.normal(size=(30, m))
    if mutate_test:
        x_te = x_te * 3.0 + 1.0
    header = ",".join([f"x{i}" for i in range(m)] + ["y"])
    for tag, x, y in (("train", x_tr, y_tr), ("test", x_te, y_te)):
        lines = [header]
        for row, label in zip(x, y):
            lines.append(",".join(repr(float(v)) for v in row) + f",{label}")
        (tmp_path / f"{tag}.csv").write_text("\n".join(lines) + "\n")
    return str(tmp_path / "train.csv"), str(tmp_path / "test.csv")


def test_criterion_8_no_leakage_through_cmd_eval(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    train1, test1 = _write_split_csvs(d1, seed=1008)
    train2, test2 = _write_split_csvs(d2, seed=1008, mutate_test=True)
    assert (d1 / "train.csv").read_bytes() == (d2 / "train.csv").read_bytes()
    assert (d1 / "test.csv").read_bytes() != (d2 / "test.csv").read_bytes()
    for d, train, test in ((d1, train1, test1), (d2, train2, test2)):
        code = main(["eval", train, test, "--variant", "sifs", "--alpha", "0.5",
                     "--label-column", "y", "--n-grid", "2,4", "--output", str(d / "run")])
        assert code == 0
    assert (d1 / "run.ranking.csv").read_bytes() == (d2 / "run.ranking.csv").read_bytes()
    _passed(8, "mutating the test split leaves the selection-stage ranking byte-identical")


def test_criterion_9_cmd_compare_determinism(tmp_path):
    train, test = _write_split_csvs(tmp_path, seed=1009)
    outputs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        out.mkdir()
        code = main(["compare", train, test, "--alpha", "0.5", "--seed", "42",
                     "--label-column", "y", "--n-grid", "2,4", "--output", str(out / "cmp")])
        assert code == 0
        outputs.append(sorted(out.glob("cmp*")))
    names1 = [p.name for p in outputs[0]]
    names2 = [p.name for p in outputs[1]]
    assert names1 == names2 and len(names1) == 9
    for p1, p2 in zip(*outputs):
        assert p1.read_bytes() == p2.read_bytes()
    _passed(9, "two seeded compare runs produce byte-identical outputs")


def test_criterion_10_supervised_beats_unsupervised_directionally():
    wins = 0
    for seed in range(20):
        dataset, _ = planted_dataset(5000 + seed)
        train = Dataset(dataset.values[:350], dataset.labels[:350])
        test = Dataset(dataset.values[350:], dataset.labels[350:])
        avgs = {}
        for variant in ("sifs", "ifs"):
            config = SelectorConfig(variant=variant, alpha=0.5)
            report = evaluate_selector(train, test, config, n_grid=(10, 20), seed=seed)
            avgs[variant] = report.avg
        if avgs["sifs"] >= avgs["ifs"]:
            wins += 1
    assert wins >= 16
    _passed(10, f"sifs avg >= ifs avg on the planted family in {wins}/20 runs")
