import json
import re
import tracemalloc

import numpy as np
import pytest

from infinisel import (
    ConfigError,
    Dataset,
    SelectorConfig,
    binary_auc,
    cross_validate,
    evaluate_selector,
    selection_order,
    stratified_fold_indices,
    train_linear,
)
from infinisel import evaluation
from infinisel.config import COST_GRID
from oracles import auc_pairs, train_linear_reference


def separable_clouds(rng, n_per_side, spread=0.1):
    a = rng.normal(scale=spread, size=(n_per_side, 2)) + [-2.0, 0.0]
    b = rng.normal(scale=spread, size=(n_per_side, 2)) + [2.0, 0.0]
    x = np.vstack([a, b])
    y = np.array([0] * n_per_side + [1] * n_per_side)
    return x, y


class TestTrainLinear:
    def test_separable_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(60)
        x, y = separable_clouds(rng, 25)
        model = train_linear(x, y, cost=10.0)
        assert np.mean(model.predict(x) == y) == 1.0

    def test_random_labels_near_chance(self):
        # Monte-Carlo bound with a fixed seed: labels carry no signal, so
        # accuracy on 200 held-out points stays within 0.5 +- 0.15.
        rng = np.random.default_rng(61)
        x_train = rng.normal(size=(100, 5))
        y_train = rng.integers(0, 2, 100)
        x_test = rng.normal(size=(200, 5))
        y_test = rng.integers(0, 2, 200)
        model = train_linear(x_train, y_train, cost=1.0)
        acc = float(np.mean(model.predict(x_test) == y_test))
        assert 0.35 <= acc <= 0.65

    def test_duplicated_training_set_same_classifier(self):
        rng = np.random.default_rng(62)
        x, y = separable_clouds(rng, 20, spread=0.5)
        base = train_linear(x, y, cost=1.0)
        doubled = train_linear(np.vstack([x, x]), np.concatenate([y, y]), cost=1.0)
        np.testing.assert_allclose(doubled.weights, base.weights, atol=1e-9)
        assert abs(doubled.bias - base.bias) <= 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_linear(np.ones((4, 2)), np.zeros(4), cost=1.0)

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(60, 4))
        y = rng.integers(0, 2, 60)
        model = train_linear(x, y, cost=1.0)
        assert np.all(np.diff(model.objective_history) <= 0.0)

    def test_prediction_is_sign_of_affine_score(self):
        rng = np.random.default_rng(64)
        x, y = separable_clouds(rng, 15)
        model = train_linear(x, y, cost=1.0)
        scores = model.decision_function(x)
        np.testing.assert_array_equal(model.predict(x), np.where(scores >= 0, 1, 0))

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(65)
        centers = np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        x = np.vstack([rng.normal(scale=0.3, size=(20, 2)) + c for c in centers])
        y = np.repeat([3, 7, 9], 20)  # arbitrary class ids
        model = fit_all_columns(x, y, cost=10.0)
        assert np.mean(model.predict(x) == y) >= 0.95


def fit_all_columns(x, y, cost):
    """``_fit_classifiers`` on one problem that uses every column of ``x``."""
    [model] = evaluation._fit_classifiers(x, y, [(np.arange(x.shape[1]), cost)])
    return model


class TestTrainerArgumentErrors:
    """Each way into the trainer rejects bad arguments with these exact
    exceptions and messages."""

    @pytest.mark.parametrize("fit", [train_linear])
    @pytest.mark.parametrize("x, y, message", [
        (np.ones((5, 2)), [0, 1, 0, 1], "shape mismatch: x (5, 2) vs y (4,)"),
        (np.ones((3, 2)), [0, 1, 0, 1], "shape mismatch: x (3, 2) vs y (4,)"),
        (np.ones(4), [0, 1, 0, 1], "shape mismatch: x (4,) vs y (4,)"),
        ([[1.0], [2.0]], [[0, 1], [1, 0], [0, 0]], "shape mismatch: x (2, 1) vs y (3, 2)"),
    ])
    def test_shape_mismatch(self, fit, x, y, message):
        with pytest.raises(ValueError) as exc:
            fit(x, y, 1.0)
        assert str(exc.value) == message

    def test_shape_mismatch_in_a_problem_list(self):
        with pytest.raises(ValueError):
            fit_all_columns(np.ones((5, 2)), np.array([0, 1, 0, 1]), 1.0)

    @pytest.mark.parametrize("y, message", [
        ([1, 1, 1, 1], "binary training needs exactly 2 classes, got 1"),
        ([0, 1, 2, 1], "binary training needs exactly 2 classes, got 3"),
    ])
    def test_train_linear_class_count(self, y, message):
        with pytest.raises(ValueError) as exc:
            train_linear(np.ones((4, 2)), y, 1.0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("fit", [fit_all_columns])
    def test_single_class(self, fit):
        with pytest.raises(ValueError) as exc:
            fit(np.ones((4, 2)), np.array([3, 3, 3, 3]), 1.0)
        assert str(exc.value) == "training data contains a single class"

    @pytest.mark.parametrize("fit, y", [
        (train_linear, [0, 1, 0, 1]),
        (fit_all_columns, [0, 1, 0, 1]),
        (fit_all_columns, [0, 1, 2, 1]),
    ])
    @pytest.mark.parametrize("cost, message", [
        (0.0, "cost must be positive, got 0.0"),
        (-1, "cost must be positive, got -1"),
    ])
    def test_non_positive_cost(self, fit, y, cost, message):
        with pytest.raises(ValueError) as exc:
            fit(np.ones((4, 2)), np.array(y), cost)
        assert str(exc.value) == message

    def test_non_positive_cost_in_any_problem(self):
        x, y = np.ones((4, 2)), np.array([0, 1, 0, 1])
        problems = [(np.array([0]), 1.0), (np.array([1, 0]), 0.0)]
        with pytest.raises(ValueError) as exc:
            evaluation._fit_classifiers(x, y, problems)
        assert str(exc.value) == "cost must be positive, got 0.0"

    @pytest.mark.parametrize("fit", [train_linear, fit_all_columns])
    def test_nan_cost(self, fit):
        # NaN <= 0 is false: a NaN cost once trained a zero classifier
        # whose objective history was (nan,).
        with pytest.raises(ValueError) as exc:
            fit(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 0, 1]), float("nan"))
        assert str(exc.value) == "cost must be positive, got nan"

    @pytest.mark.parametrize("fit", [train_linear, fit_all_columns])
    @pytest.mark.parametrize("cost", ["1", None, 0.0, float("nan")])
    def test_cost_not_a_positive_number(self, fit, cost):
        # A non-number is a ValueError like 0 or NaN, not a TypeError from
        # the comparison.
        with pytest.raises(ValueError) as exc:
            fit(np.ones((4, 2)), np.array([0, 1, 0, 1]), cost)
        assert str(exc.value) == f"cost must be positive, got {cost!r}"

    @pytest.mark.parametrize("epochs", ["5", None, 2.5, -3, float("nan")])
    def test_epochs_not_a_non_negative_integer(self, epochs):
        # "5" and None once raised TypeError from the comparison, 2.5 ran
        # 3 epochs and -3 ran none.
        with pytest.raises(ValueError) as exc:
            train_linear(np.ones((4, 2)), np.array([0, 1, 0, 1]), 1.0, epochs)
        assert str(exc.value) == f"epochs must be a non-negative integer, got {epochs!r}"

    def test_bool_cost_is_not_a_number(self):
        # bool is a numbers.Real: True once trained at cost 1.0.
        with pytest.raises(ValueError) as exc:
            train_linear(np.ones((4, 2)), np.array([0, 1, 0, 1]), True)
        assert str(exc.value) == "cost must be positive, got True"

    def test_bool_epochs_is_not_an_integer(self):
        # bool is a numbers.Integral: True once ran one epoch.
        with pytest.raises(ValueError) as exc:
            train_linear(np.ones((4, 2)), np.array([0, 1, 0, 1]), 1.0, True)
        assert str(exc.value) == "epochs must be a non-negative integer, got True"

    def test_zero_epochs_is_the_zero_classifier(self):
        model = train_linear(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 0, 1]), 1.0, 0)
        assert model.weights.tolist() == [0.0] and model.bias == 0.0
        assert len(model.objective_history) == 1


TRAINER_KINDS = ("normal", "rounded", "constant column", "separable", "constant only")


def trainer_problem(seed):
    """A seeded binary problem for the trainer; kind and epoch cap cycle with the seed."""
    rng = np.random.default_rng(seed)
    kind = TRAINER_KINDS[seed % len(TRAINER_KINDS)]
    n, k = int(rng.integers(4, 100)), int(rng.integers(1, 12))
    x = rng.normal(size=(n, k))
    y = np.arange(n) % 2 if kind == "constant only" else rng.integers(0, 2, n)
    y[:2] = (0, 1)
    if kind == "rounded":
        x = np.round(x)
    elif kind == "constant column":
        x[:, rng.integers(k)] = rng.normal()
    elif kind == "separable":
        y = np.where(x[:, 0] > 0, 1, 0)
        y[:2] = (0, 1)
        x[:, 0] += 2.0 * y - 1.0
    elif kind == "constant only":  # at even n, balanced labels give a zero gradient at the start
        x[:] = rng.normal(size=k)
    cost = float(10.0 ** rng.uniform(-2, 2))
    epochs = (1, 5, 200)[seed // len(TRAINER_KINDS) % 3]
    return x, y, cost, epochs


def trainer_batch(n, k):
    """Every ``trainer_problem`` with at least n rows and k columns, cut to
    its first n rows and k columns: one stack of mixed kinds and costs.
    The cut keeps both labels, which the first two rows carry."""
    xs, ys, costs = [], [], []
    for seed in range(240):
        x, y, cost, _ = trainer_problem(seed)
        if x.shape[0] >= n and x.shape[1] >= k:
            xs.append(x[:n, :k])
            ys.append(y[:n])
            costs.append(cost)
    return np.stack(xs), np.stack(ys), costs


def matches_reference(result, x, y, cost, epochs):
    """Asserts that a kernel result equals the reference loop's bitwise;
    returns why the reference loop stopped."""
    w, b, history = result
    weights, bias, expected, stop = train_linear_reference(x, y, cost, epochs)
    assert w.tobytes() == weights.tobytes()
    assert b.hex() == bias.hex()
    assert [h.hex() for h in history] == [h.hex() for h in expected]
    return stop


def assert_same_classifier(model, expected):
    assert model.weights.tobytes() == expected.weights.tobytes()
    assert model.bias.hex() == expected.bias.hex()
    assert [h.hex() for h in model.objective_history] == [h.hex() for h in expected.objective_history]
    assert model.classes.tobytes() == expected.classes.tobytes()


class TestTrainLinearExactness:
    def test_bitwise_equal_to_reference_loop(self):
        stops = set()
        for seed in range(240):
            x, y, cost, epochs = trainer_problem(seed)
            model = train_linear(x, y, cost, epochs)
            weights, bias, history, stop = train_linear_reference(x, y, cost, epochs)
            assert model.weights.tobytes() == weights.tobytes(), seed
            assert model.bias.hex() == bias.hex(), seed
            assert [h.hex() for h in model.objective_history] == [h.hex() for h in history], seed
            stops.add((stop, epochs))
        # Every way out of the loop is exercised: the cap (at 1 epoch too),
        # the gradient-norm test and a backtracking search with no accepted step.
        assert {("cap", 1), ("cap", 200), ("gradient", 200), ("no step", 200)} <= stops

    @pytest.mark.parametrize("n, k, epochs", [
        (20, 3, 200), (40, 5, 200), (10, 1, 200), (20, 3, 5), (20, 3, 1),
    ])
    def test_batch_bitwise_equal_to_reference_loop(self, n, k, epochs):
        xs, ys, costs = trainer_batch(n, k)
        targets = np.where(ys == 1, 1.0, -1.0)
        results = evaluation._train_linear_batch([(xs.copy(), targets)], costs, epochs)
        stops = {matches_reference(*args, epochs) for args in zip(results, xs, ys, costs)}
        # One stack mixes every way out of the loop its epoch cap allows.
        assert stops == ({"cap", "gradient", "no step"} if epochs == 200 else {"cap", "gradient"})

    def test_batch_leaves_the_callers_stack_unchanged(self):
        # Fits that stop early, most of the stack included, stay in place.
        xs, ys, costs = trainer_batch(20, 3)
        stack = xs.copy()
        evaluation._train_linear_batch([(stack, np.where(ys == 1, 1.0, -1.0))], costs, 200)
        assert stack.tobytes() == xs.tobytes()

    def test_batch_bitwise_equal_on_matrices_blas_may_thread(self):
        # 400 x 30 matrices are large enough for OpenBLAS to split a gemv
        # across threads; the stacked call must split as the 1-D call does.
        rng = np.random.default_rng(93)
        xs = rng.normal(size=(4, 400, 30))
        xs[3] = np.round(xs[3])
        ys = (xs[:, :, 0] + rng.normal(size=(4, 400)) > 0).astype(np.int64)
        costs = [0.01, 1.0, 100.0, 1.0]
        results = evaluation._train_linear_batch([(xs.copy(), np.where(ys == 1, 1.0, -1.0))], costs, 50)
        for args in zip(results, xs, ys, costs):
            matches_reference(*args, 50)

    def test_one_vs_rest_batch_equals_per_class_train_linear(self):
        rng = np.random.default_rng(90)
        values = rng.normal(size=(60, 8))
        y = rng.integers(0, 3, 60) * 4 + 1  # class ids 1, 5 and 9
        values[:, 0] += y / 4.0
        problems = [(np.array(cols), cost) for cols, cost in [
            ([0, 1, 2], 0.1), ([3, 0, 5], 10.0), ([0, 1, 2], 100.0), ([7], 1.0), ([2, 4], 1.0),
        ]]
        models = evaluation._fit_classifiers(values, y, problems)
        for (cols, cost), model in zip(problems, models):
            assert model.classes.tolist() == [1, 5, 9] and len(model.models) == 3
            for c, binary in zip(model.classes, model.models):
                assert_same_classifier(binary, train_linear(values[:, cols], np.where(y == c, 1, 0), cost))

    def test_without_histories_the_same_fits(self):
        rng = np.random.default_rng(94)
        values = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, 40)
        problems = [(np.arange(k), cost) for k in (2, 5) for cost in COST_GRID]
        for full, bare in zip(evaluation._fit_classifiers(values, y, problems),
                              evaluation._fit_classifiers(values, y, problems, histories=False)):
            for one, other in zip(full.models, bare.models, strict=True):
                assert len(one.objective_history) > 1 and other.objective_history == ()
                assert one.weights.tobytes() == other.weights.tobytes()
                assert one.bias.hex() == other.bias.hex()

    def test_one_problem_chunks_give_the_same_bytes(self, monkeypatch):
        rng = np.random.default_rng(91)
        values = rng.normal(size=(50, 6))
        y = (values[:, 0] + rng.normal(size=50) > 0).astype(np.int64)
        problems = [(rng.permutation(6)[:k], cost) for k in (2, 4) for cost in COST_GRID]
        sizes = []
        kernel = evaluation._train_linear_batch

        def sizing_kernel(blocks, costs, *rest):
            sizes.append(len(costs))
            return kernel(blocks, costs, *rest)

        monkeypatch.setattr(evaluation, "_train_linear_batch", sizing_kernel)
        together = evaluation._fit_classifiers(values, y, problems)
        assert sizes == [5, 5]  # one chunk per column count
        sizes.clear()
        monkeypatch.setattr(evaluation, "BATCH_BYTES", 1)
        alone = evaluation._fit_classifiers(values, y, problems)
        assert sizes == [1] * 10
        for a, b in zip(together, alone):
            assert_same_classifier(a, b)

    @pytest.mark.parametrize("n, k, count", [(30, 1, 40), (30, 7, 9), (200, 3, 5), (7, 2, 100)])
    def test_chunks_stay_within_the_budget(self, monkeypatch, n, k, count):
        budget = 3 * evaluation._batch_bytes(30, 7, 1, 2)
        shapes = []
        kernel = evaluation._train_linear_batch

        def sizing_kernel(blocks, costs, *rest):
            [(xs, _)] = blocks
            shapes.append(xs.shape)
            assert xs.strides[1] == 0  # the chunk's fits share one stacked matrix
            return kernel(blocks, costs, *rest)

        monkeypatch.setattr(evaluation, "_train_linear_batch", sizing_kernel)
        monkeypatch.setattr(evaluation, "BATCH_BYTES", budget)
        rng = np.random.default_rng(92)
        values = rng.normal(size=(n, k))
        y = np.arange(n) % 2
        evaluation._fit_classifiers(values, y, [(np.arange(k), 1.0)] * count, epochs=2)
        assert sum(p for _, p, _, _ in shapes) == count
        matrix = evaluation._batch_bytes(n, k, 0, 2)
        per_chunk = max(1, (budget - matrix) // (evaluation._batch_bytes(n, k, 1, 2) - matrix))
        assert len(shapes) == -(-count // per_chunk)  # no more chunks than the budget needs
        for s, p, rows, cols in shapes:
            assert (s, rows, cols) == (1, n, k)
            assert p == 1 or evaluation._batch_bytes(n, k, p, 2) <= budget

    @staticmethod
    def round_bytes_within_budget(shared):
        # Beyond the caller's stack and targets and the results it returns,
        # a round holds at most the rest of _batch_bytes per fit.
        xs, ys, costs = trainer_batch(40, 5)
        xs = np.broadcast_to(xs[:, None], (len(xs), shared) + xs.shape[1:])
        targets = np.where(np.repeat(ys[:, None], shared, axis=1) == 1, 1.0, -1.0)
        costs = np.repeat(costs, shared)
        tracemalloc.start()
        try:
            results = evaluation._train_linear_batch([(xs, targets)], costs, 200)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, _, n, k = xs.shape
        assert len(results) == len(costs)
        per_fit = evaluation._batch_bytes(n, k, 1, 200) - evaluation._batch_bytes(n, k, 0, 200)
        assert peak - current <= len(costs) * (per_fit - 8 * n)

    def test_round_temporaries_fit_the_batch_bytes(self):
        self.round_bytes_within_budget(1)

    def test_round_temporaries_fit_the_batch_bytes_with_a_shared_matrix(self):
        self.round_bytes_within_budget(5)  # five fits read each stacked matrix


class TestBinaryAuc:
    def test_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        assert binary_auc(np.array([0.1, 0.2, 0.8, 0.9]), y, 1) == 1.0
        assert binary_auc(np.array([0.9, 0.8, 0.2, 0.1]), y, 1) == 0.0

    def test_single_class_is_half(self):
        assert binary_auc(np.array([0.1, 0.7, 0.3]), np.array([1, 1, 1]), 1) == 0.5
        assert binary_auc(np.array([0.1, 0.7, 0.3]), np.array([0, 0, 0]), 1) == 0.5

    def test_tied_scores_are_half(self):
        y = np.array([0, 1, 0, 1])
        assert binary_auc(np.zeros(4), y, 1) == 0.5

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_matches_pair_count_oracle_bitwise(self, decimals):
        # Untied scores, then rounding that ties more and more of them.
        rng = np.random.default_rng(77 if decimals is None else 78 + decimals)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            scores = rng.normal(size=n)
            if decimals is not None:
                scores = np.round(scores, decimals)
            labels = rng.choice([3, 7], size=n)
            labels[:2] = [3, 7]
            assert binary_auc(scores, labels, 7).hex() == auc_pairs(scores, labels, 7).hex()


class TestStratifiedFolds:
    def test_every_fold_sees_every_class(self):
        rng = np.random.default_rng(66)
        labels = rng.integers(0, 3, 60)
        folds = stratified_fold_indices(labels, 5, seed=1)
        for fold in range(5):
            val = labels[folds == fold]
            train = labels[folds != fold]
            assert set(val) == set(train) == set(labels)

    def test_deterministic_given_seed(self):
        labels = np.tile([0, 1], 20)
        a = stratified_fold_indices(labels, 4, seed=9)
        b = stratified_fold_indices(labels, 4, seed=9)
        np.testing.assert_array_equal(a, b)
        c = stratified_fold_indices(labels, 4, seed=10)
        assert not np.array_equal(a, c)

    def test_too_few_members_rejected(self):
        labels = np.array([0, 0, 0, 0, 1, 1])
        with pytest.raises(ConfigError, match="impossible"):
            stratified_fold_indices(labels, 3, seed=0)

    def test_one_fold_rejected(self):
        with pytest.raises(ConfigError, match="need at least 2 folds, got 1"):
            stratified_fold_indices(np.tile([0, 1], 5), 1, 0)

    @pytest.mark.parametrize("folds", [2.5, 3.0, "3", None])
    def test_non_integer_folds_rejected(self, folds):
        with pytest.raises(ConfigError, match=f"fold count must be an integer, got {re.escape(repr(folds))}"):
            stratified_fold_indices(np.tile([0, 1], 10), folds, 0)

    def test_numpy_integer_folds_accepted(self):
        labels = np.tile([0, 1], 10)
        np.testing.assert_array_equal(stratified_fold_indices(labels, np.int64(3), 0),
                                      stratified_fold_indices(labels, 3, 0))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError, match="folds"):
            stratified_fold_indices(np.array([0, 1]), 3, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, np.int64(-2)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            stratified_fold_indices(np.tile([0, 1], 10), 4, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        labels = np.tile([0, 1], 10)
        a = stratified_fold_indices(labels, 4, seed=np.int64(3))
        np.testing.assert_array_equal(a, stratified_fold_indices(labels, 4, seed=3))


def labeled_dataset(rng, n, m, perfect_first=False):
    values = rng.normal(size=(n, m))
    y = rng.integers(0, 2, n)
    if perfect_first:
        values[:, 0] = y
    return Dataset(values, labels=y)


class TestEvaluateSelector:
    def test_non_integer_folds_rejected(self):
        rng = np.random.default_rng(68)
        train, test = labeled_dataset(rng, 40, 5), labeled_dataset(rng, 30, 5)
        config = SelectorConfig(variant="ifs", alpha="cv")
        with pytest.raises(ConfigError, match="fold count must be an integer, got 2.5"):
            evaluate_selector(train, test, config, n_grid=(3,), folds=2.5, cost_grid=(1.0,))

    @pytest.mark.parametrize("alpha", [0.5, "cv"])
    @pytest.mark.parametrize("bad", ["1", 0.0, -1.0, float("nan")])
    def test_bad_cost_is_config_error(self, alpha, bad):
        # Checked before any fold is ranked, for a fixed alpha too.
        rng = np.random.default_rng(69)
        train, test = labeled_dataset(rng, 40, 5), labeled_dataset(rng, 30, 5)
        config = SelectorConfig(variant="ifs", alpha=alpha)
        message = f"classifier costs must be positive numbers, got {bad!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            evaluate_selector(train, test, config, n_grid=(3,), cost_grid=(1.0, bad))

    def test_fixed_alpha_checks_the_fold_plan(self):
        # No cross validation runs, but the report would record the seed.
        rng = np.random.default_rng(68)
        train, test = labeled_dataset(rng, 40, 5), labeled_dataset(rng, 30, 5)
        config = SelectorConfig(variant="ifs", alpha=0.5)
        with pytest.raises(ConfigError, match="fold seed must be a non-negative integer, got -7"):
            evaluate_selector(train, test, config, folds=2.5, seed=-7)
        with pytest.raises(ConfigError, match="fold count must be an integer, got 2.5"):
            evaluate_selector(train, test, config, folds=2.5)
        with pytest.raises(ConfigError, match="need at least 2 folds, got 1"):
            evaluate_selector(train, test, config, folds=1)

    def test_nonpositive_top_n_rejected(self):
        rng = np.random.default_rng(68)
        train, test = labeled_dataset(rng, 40, 5), labeled_dataset(rng, 30, 5)
        with pytest.raises(ConfigError, match="top-N values must be positive, got 0"):
            evaluate_selector(train, test, SelectorConfig(variant="ifs", alpha=0.5), n_grid=(0,))

    @pytest.mark.parametrize("alpha", [0.5, "cv"])
    @pytest.mark.parametrize("bad", [2.5, "3", 4.0])
    def test_non_integer_top_n_rejected(self, alpha, bad):
        # int() once took 2.5 as top-2 and reported n_requested=(2,).
        rng = np.random.default_rng(68)
        train, test = labeled_dataset(rng, 40, 5), labeled_dataset(rng, 30, 5)
        config = SelectorConfig(variant="ifs", alpha=alpha)
        with pytest.raises(ConfigError, match=re.escape(f"top-N values must be integers, got {bad!r}")):
            evaluate_selector(train, test, config, n_grid=(1, bad), cost_grid=(1.0,))

    def test_integer_top_n_of_numpy_type_accepted(self):
        rng = np.random.default_rng(68)
        train, test = labeled_dataset(rng, 40, 5), labeled_dataset(rng, 30, 5)
        config = SelectorConfig(variant="ifs", alpha=0.5)
        report = evaluate_selector(train, test, config, n_grid=(np.int64(2), np.int32(3)))
        assert report == evaluate_selector(train, test, config, n_grid=(2, 3))
        assert json.loads(report.to_json())["n_requested"] == [2, 3]

    def test_auc_only_for_the_final_holdout(self, monkeypatch):
        # CV folds average accuracy alone; the report's AUCs come from the
        # one final holdout, one per evaluated N.
        calls = []
        auc = evaluation.binary_auc

        def counting_auc(scores, labels, positive):
            calls.append(len(labels))
            return auc(scores, labels, positive)

        monkeypatch.setattr(evaluation, "binary_auc", counting_auc)
        rng = np.random.default_rng(69)
        train, test = labeled_dataset(rng, 40, 5), labeled_dataset(rng, 30, 5)
        config = SelectorConfig(variant="sifs", alpha="cv")
        cross_validate(train, [(config.with_alpha(0.5), 1.0), (config.with_alpha(0.2), 0.1)],
                       folds=3, n_grid=(1, 3))
        assert calls == []
        report = evaluate_selector(train, test, config, n_grid=(1, 3, 5), folds=3, cost_grid=(0.1, 1.0))
        assert report.n_evaluated == (1, 3, 5) and sorted(report.per_n_auc) == [1, 3, 5]
        assert calls == [test.n] * 3

    def test_no_test_leakage(self):
        rng = np.random.default_rng(67)
        train = labeled_dataset(rng, 40, 5)
        test_a = labeled_dataset(rng, 30, 5)
        test_b = labeled_dataset(rng, 30, 5)  # entirely different test data
        # A fixed alpha, and one cross validation picks on the train split.
        configs = [SelectorConfig(variant="mifs", alpha=alpha) for alpha in (0.5, "cv")]
        runs_a = evaluation._evaluate(train, test_a, configs, (3,), 0)
        runs_b = evaluation._evaluate(train, test_b, configs, (3,), 0)
        for (report_a, (order_a, scores_a)), (report_b, (order_b, scores_b)) in zip(runs_a, runs_b):
            assert report_a.chosen_alpha == report_b.chosen_alpha
            np.testing.assert_array_equal(order_a, order_b)
            np.testing.assert_array_equal(scores_a, scores_b)

    def test_perfect_feature_yields_full_accuracy(self):
        rng = np.random.default_rng(68)
        train = labeled_dataset(rng, 50, 5, perfect_first=True)
        test = labeled_dataset(rng, 40, 5, perfect_first=True)
        config = SelectorConfig(variant="sifs", alpha=0.5)
        report = evaluate_selector(train, test, config, n_grid=(1, 3, 5))
        assert all(acc == 1.0 for acc in report.per_n_accuracy.values())
        assert report.avg == report.max == 1.0

    def test_n_grid_clipping_recorded(self):
        rng = np.random.default_rng(69)
        train = labeled_dataset(rng, 40, 12)
        test = labeled_dataset(rng, 30, 12)
        config = SelectorConfig(variant="mifs", alpha=0.5)
        with pytest.warns(UserWarning, match="clipped"):
            report = evaluate_selector(train, test, config, n_grid=(10, 50, 100, 150, 200))
        assert report.n_requested == (10, 50, 100, 150, 200)
        assert report.n_evaluated == (10, 12)

    def test_avg_not_above_max_and_in_range(self):
        rng = np.random.default_rng(70)
        train = labeled_dataset(rng, 50, 8)
        test = labeled_dataset(rng, 40, 8)
        config = SelectorConfig(variant="ifs", alpha=0.3)
        report = evaluate_selector(train, test, config, n_grid=(2, 4, 8))
        assert 0.0 <= report.avg <= report.max <= 1.0

    def test_reproducible_given_seed(self):
        rng = np.random.default_rng(71)
        train = labeled_dataset(rng, 40, 6)
        test = labeled_dataset(rng, 30, 6)
        config = SelectorConfig(variant="sifs", alpha="cv")
        kwargs = dict(n_grid=(2, 4), seed=5, folds=3, cost_grid=(1.0,))
        a = evaluate_selector(train, test, config, **kwargs)
        b = evaluate_selector(train, test, config, **kwargs)
        assert a == b
        assert a.to_text() == b.to_text() and a.to_json() == b.to_json()
        assert a.fold_seed == 5

    def test_mismatched_feature_counts(self):
        rng = np.random.default_rng(72)
        train = labeled_dataset(rng, 30, 5)
        test = labeled_dataset(rng, 30, 6)
        with pytest.raises(ConfigError, match="feature counts"):
            evaluate_selector(train, test, SelectorConfig(variant="ifs", alpha=0.5))

    def test_requires_labels(self):
        rng = np.random.default_rng(73)
        train = Dataset(rng.normal(size=(30, 5)))
        test = labeled_dataset(rng, 30, 5)
        with pytest.raises(ConfigError, match="label"):
            evaluate_selector(train, test, SelectorConfig(variant="ifs", alpha=0.5))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_fold_seed_is_config_error(self, seed):
        rng = np.random.default_rng(82)
        train = labeled_dataset(rng, 30, 4)
        test = labeled_dataset(rng, 20, 4)
        config = SelectorConfig(variant="ifs", alpha="cv")
        with pytest.raises(ConfigError, match="seed"):
            evaluate_selector(train, test, config, n_grid=(2,), seed=seed, cost_grid=(1.0,))

    @pytest.mark.parametrize("field, value, message", [
        ("seed", True, "fold seed must be a non-negative integer, got True"),
        ("n_grid", (True,), "top-N values must be integers, got True"),
        ("cost_grid", (True,), "classifier costs must be positive numbers, got True"),
    ], ids=["seed", "n_grid", "cost_grid"])
    def test_bool_is_not_a_number(self, field, value, message):
        # True once passed as seed 1 (a report read fold_seed=True), top-1
        # or cost 1.0.
        rng = np.random.default_rng(82)
        train, test = labeled_dataset(rng, 30, 4), labeled_dataset(rng, 20, 4)
        kwargs = {"n_grid": (2,), "cost_grid": (1.0,), field: value}
        with pytest.raises(ConfigError, match=re.escape(message)):
            evaluate_selector(train, test, SelectorConfig(variant="ifs", alpha="cv"), **kwargs)

    @pytest.mark.parametrize("alpha", [0.5, "cv"])
    def test_empty_n_grid_is_config_error(self, alpha):
        rng = np.random.default_rng(85)
        train = labeled_dataset(rng, 30, 4)
        test = labeled_dataset(rng, 20, 4)
        config = SelectorConfig(variant="ifs", alpha=alpha)
        with pytest.raises(ConfigError, match="top-N grid is empty"):
            evaluate_selector(train, test, config, n_grid=())

    @pytest.mark.parametrize("variant", ["ifs", "mrmr"])
    def test_empty_cost_grid_is_config_error(self, variant):
        rng = np.random.default_rng(86)
        train = labeled_dataset(rng, 30, 4)
        test = labeled_dataset(rng, 20, 4)
        config = SelectorConfig(variant=variant, alpha="cv")
        with pytest.raises(ConfigError, match="empty configuration grid"):
            evaluate_selector(train, test, config, n_grid=(2,), cost_grid=())

    def test_multiclass_accuracy_is_exact_match_fraction(self):
        rng = np.random.default_rng(74)
        n = 60
        values = rng.normal(size=(n, 4))
        y = rng.integers(0, 3, n)
        values[:, 0] = y  # strongly informative feature
        train = Dataset(values[:40], labels=y[:40])
        test = Dataset(values[40:], labels=y[40:])
        config = SelectorConfig(variant="sifs", alpha=1.0)
        report = evaluate_selector(train, test, config, n_grid=(1, 4))
        assert report.per_n_auc is None  # auc only carried for binary tasks
        assert report.per_n_accuracy[1] >= 0.8

    def test_report_serialization_roundtrip(self):
        rng = np.random.default_rng(75)
        train = labeled_dataset(rng, 40, 5)
        test = labeled_dataset(rng, 30, 5)
        report = evaluate_selector(
            train, test, SelectorConfig(variant="mifs", alpha=0.5), n_grid=(2, 5)
        )
        parsed = json.loads(report.to_json())
        assert parsed["variant"] == "mifs"
        assert parsed["avg"] == report.avg
        text = report.to_text()
        assert "avg=" in text and f"accuracy_n2={report.per_n_accuracy[2]!r}" in text

    def test_report_json_bytes(self):
        # Per-N keys sort as strings ("10" before "2"); tuples come back as lists.
        fields = dict(variant="ifs", chosen_alpha=0.5, chosen_classifier_cost=1.0, fold_seed=3,
                      n_requested=(2, 10), n_evaluated=(2, 10), per_n_accuracy={2: 0.5, 10: 0.75},
                      avg=0.625, max=0.75)
        head = ('{\n  "avg": 0.625,\n  "chosen_alpha": 0.5,\n  "chosen_classifier_cost": 1.0,\n'
                '  "fold_seed": 3,\n  "max": 0.75,\n  "n_evaluated": [\n    2,\n    10\n  ],\n'
                '  "n_requested": [\n    2,\n    10\n  ],\n'
                '  "per_n_accuracy": {\n    "10": 0.75,\n    "2": 0.5\n  },\n')
        tail = '  "variant": "ifs"\n}\n'
        report = evaluation.EvalReport(**fields)
        assert report.to_dict() == {**fields, "n_requested": [2, 10], "n_evaluated": [2, 10],
                                    "per_n_accuracy": {"2": 0.5, "10": 0.75}, "per_n_auc": None}
        assert report.to_json() == head + '  "per_n_auc": null,\n' + tail
        with_auc = evaluation.EvalReport(**fields, per_n_auc={2: 0.25, 10: 1.0})
        assert with_auc.to_json() == head + '  "per_n_auc": {\n    "10": 1.0,\n    "2": 0.25\n  },\n' + tail


    @pytest.mark.parametrize("variant, alpha", [
        pytest.param(variant, alpha, id=variant if alpha == 0.3 else f"{variant}-cv")
        for alpha in (0.3, "cv") for variant in ("ifs", "mifs", "sifs", "mrmr")
    ])
    def test_ranking_is_selection_order_on_train(self, variant, alpha):
        # Under "cv" the ranking is the one at the alpha the report chose.
        rng = np.random.default_rng(82)
        train = labeled_dataset(rng, 40, 6)
        test = labeled_dataset(rng, 30, 6)
        config = SelectorConfig(variant=variant, alpha=alpha)
        [(report, (order, scores))] = evaluation._evaluate(train, test, [config], (3,), 0)
        expected_order, expected_scores = selection_order(
            train, config.with_alpha(report.chosen_alpha))
        np.testing.assert_array_equal(order, expected_order)
        assert scores.tobytes() == expected_scores.tobytes()

    @pytest.mark.parametrize("configs", [
        [SelectorConfig(variant=v, alpha=0.5) for v in ("ifs", "mifs", "sifs", "mrmr")],
        [SelectorConfig(variant="ifs", alpha=0.5, preprocessing=p)
         for p in ("none", "normalize", "standardize")],
    ], ids=["variants", "schemes"])
    def test_all_columns_score_alike_whatever_ranked_them(self, configs):
        # At top-N = m every config keeps every column, so only the
        # classifier's input could tell them apart, and it is the same for
        # all: the columns standardized on the training split. Columns on
        # scales from 0.01 to 1e3 make that scaling matter.
        rng = np.random.default_rng(0)
        scales, shifts = np.array([1e3, 0.01, 5, 1, 200, 0.3]), np.array([1e4, -3, 0, 50, 7, 0])

        def split(n):
            y = rng.integers(0, 2, n)
            x = rng.normal(size=(n, 6)) + np.outer(y, [1.5, -1.0, 0, 0, 0, 0])
            return Dataset(x * scales + shifts, labels=y)

        train, test = split(160), split(120)
        reports = [evaluate_selector(train, test, config, n_grid=(6,)) for config in configs]
        accuracies = [report.per_n_accuracy for report in reports]
        assert accuracies == [accuracies[0]] * len(configs)
        aucs = [report.per_n_auc for report in reports]
        assert aucs == [aucs[0]] * len(configs)


class TestCrossValidate:
    def test_non_integer_folds_rejected(self):
        d = labeled_dataset(np.random.default_rng(76), 40, 5)
        config = SelectorConfig(variant="mifs", alpha=0.5)
        with pytest.raises(ConfigError, match="fold count must be an integer, got 2.5"):
            cross_validate(d, [(config, 1.0)], folds=2.5, n_grid=(3,))

    def test_single_entry_grid(self):
        rng = np.random.default_rng(76)
        d = labeled_dataset(rng, 40, 5)
        config = SelectorConfig(variant="mifs", alpha=0.5)
        (best, cost), scores = cross_validate(d, [(config, 1.0)], folds=3, n_grid=(3,))
        assert best == config and cost == 1.0
        assert scores.shape == (1,) and 0.0 <= scores[0] <= 1.0

    def test_degenerate_alpha_loses_to_informative_alpha(self):
        # Standardized data with a pure-relevance mix collapses to a
        # constant-ish matrix that ranks by dataset order, burying the one
        # informative feature (placed last among mutually redundant noise).
        # Cross validation must therefore prefer the mixed setting.
        rng = np.random.default_rng(77)
        n, m = 60, 12
        factor = rng.choice([-1.0, 1.0], size=n)
        signs = np.resize([1.0, -1.0], m - 1)
        noise = factor[:, None] * signs[None, :]
        informative = rng.choice([-1.0, 1.0], size=n)
        values = np.column_stack([noise, informative])
        labels = (informative > 0).astype(int)
        d = Dataset(values, labels=labels)
        base = SelectorConfig(variant="ifs", alpha=0.5, preprocessing="standardize")
        grid = [(base.with_alpha(1.0), 1.0), (base.with_alpha(0.5), 1.0)]
        (best, _), scores = cross_validate(d, grid, folds=5, seed=3, n_grid=(10,))
        assert best.alpha == 0.5
        assert scores[1] >= scores[0]

    def test_bitwise_tie_prefers_smaller_alpha(self):
        rng = np.random.default_rng(78)
        x0 = rng.choice([-1.0, 1.0], size=40)
        d = Dataset(np.column_stack([x0, rng.normal(size=40)]), labels=(x0 > 0).astype(int))
        base = SelectorConfig(variant="sifs", alpha=0.5)
        grid = [(base.with_alpha(0.9), 1.0), (base.with_alpha(0.2), 1.0)]
        (best, _), scores = cross_validate(d, grid, folds=4, seed=0, n_grid=(2,))
        assert scores[0] == scores[1]  # both rank the same two features
        assert best.alpha == 0.2

    def test_tie_on_alpha_prefers_smaller_cost(self):
        rng = np.random.default_rng(79)
        x0 = rng.choice([-1.0, 1.0], size=40)
        d = Dataset(np.column_stack([x0, rng.normal(size=40)]), labels=(x0 > 0).astype(int))
        config = SelectorConfig(variant="sifs", alpha=0.5)
        grid = [(config, 10.0), (config, 0.1)]
        (best, cost), scores = cross_validate(d, grid, folds=4, seed=0, n_grid=(2,))
        if scores[0] == scores[1]:
            assert cost == 0.1

    def test_unlabeled_rejected(self):
        rng = np.random.default_rng(80)
        d = Dataset(rng.normal(size=(30, 4)))
        with pytest.raises(ConfigError, match="label"):
            cross_validate(d, [(SelectorConfig(variant="ifs", alpha=0.5), 1.0)])

    def test_empty_grid_rejected(self):
        rng = np.random.default_rng(81)
        d = labeled_dataset(rng, 30, 4)
        with pytest.raises(ConfigError, match="empty"):
            cross_validate(d, [])

    def test_empty_n_grid_rejected(self):
        rng = np.random.default_rng(84)
        d = labeled_dataset(rng, 30, 4)
        with pytest.raises(ConfigError, match="top-N grid is empty"):
            cross_validate(d, [(SelectorConfig(variant="ifs", alpha=0.5), 1.0)], n_grid=())

    def test_mixed_scheme_grid_matches_single_entries(self):
        # Entries that share a preprocessing scheme share one scaler and one
        # ranking pass per fold; each entry's score must still equal the
        # score it gets when cross-validated on its own.
        rng = np.random.default_rng(83)
        d = labeled_dataset(rng, 45, 6, perfect_first=True)
        norm = SelectorConfig(variant="mifs", alpha=0.3, preprocessing="normalize")
        std = SelectorConfig(variant="sifs", alpha=0.7, preprocessing="standardize")
        grid = [
            (norm, 1.0),
            (std, 0.1),
            (norm.with_alpha(0.8), 10.0),
            (std, 0.1),
            (SelectorConfig(variant="ifs", alpha=0.5, preprocessing="standardize"), 1.0),
        ]
        _, scores = cross_validate(d, grid, folds=3, seed=2, n_grid=(2, 4))
        for pos, entry in enumerate(grid):
            _, single = cross_validate(d, [entry], folds=3, seed=2, n_grid=(2, 4))
            assert scores[pos].tobytes() == single[0].tobytes()

    def test_fold_build_copies_each_fold_once(self, monkeypatch):
        # dataset.values[rows] is a fresh array that Dataset keeps, and only
        # its std check adds a temporary: 1.7x the full matrix here. A second
        # copy of the fold took 2.5x.
        class FirstFold(Exception):
            pass

        def first_fold(train, grid, n_eval):
            raise FirstFold(tracemalloc.get_traced_memory()[1])

        rng = np.random.default_rng(85)
        d = labeled_dataset(rng, 4000, 40)
        monkeypatch.setattr(evaluation, "_plan", first_fold)
        tracemalloc.start()
        try:
            with pytest.raises(FirstFold) as info:
                cross_validate(d, [(SelectorConfig(variant="ifs", alpha=0.5), 1.0)], folds=5)
        finally:
            tracemalloc.stop()
        assert info.value.args[0] <= 2.1 * d.values.nbytes

    def test_each_distinct_fit_runs_once(self, monkeypatch):
        # A repeated entry, and alphas that may rank the same top-N columns,
        # must not refit a classifier: one fit per distinct training matrix
        # (fold rows, ordered columns) and cost.
        fits = []
        kernel = evaluation._train_linear_batch

        def counting_kernel(blocks, costs, *rest):
            xs = [x for block, _ in blocks for x in block.reshape((-1,) + block.shape[-2:])]
            ys = [y for _, targets in blocks for y in targets.reshape(-1, targets.shape[-1])]
            for x, y, cost in zip(xs, ys, costs, strict=True):
                fits.append((x.tobytes(), x.shape, y.tobytes(), cost))
            return kernel(blocks, costs, *rest)

        monkeypatch.setattr(evaluation, "_train_linear_batch", counting_kernel)
        rng = np.random.default_rng(85)
        d = labeled_dataset(rng, 40, 5, perfect_first=True)
        config = SelectorConfig(variant="sifs", alpha=0.5)
        grid = [(config, 1.0), (config.with_alpha(0.6), 1.0), (config, 1.0), (config, 0.1)]
        cross_validate(d, grid, folds=4, seed=0, n_grid=(1, 3))
        assert fits and len(fits) == len(set(fits))


def merged_grid_dataset(classes):
    """A dataset whose five stratified folds (seed 1) differ in training row
    count, and a grid of two variants at two alphas and every cost."""
    rng = np.random.default_rng(86 + classes)
    n = 47 if classes == 2 else 61
    y = rng.integers(0, classes, n)
    values = rng.normal(size=(n, 8))
    values[:, 0] += y
    values[:, 3] -= 0.5 * y
    grid = [(SelectorConfig(variant=v, alpha=a), cost)
            for v in ("ifs", "sifs") for a in (0.2, 0.8) for cost in COST_GRID]
    return Dataset(values, labels=y), grid


def one_holdout_per_fold(d, grid, folds, seed, n_grid):
    """``cross_validate``'s scores by the per-fold route: each fold's
    ``_holdout`` accuracies, averaged over N, summed over folds and divided
    by the fold count."""
    assignment = stratified_fold_indices(d.labels, folds, seed)
    n_eval = evaluation._effective_n_grid(n_grid, d.m)
    scores = np.zeros(len(grid))
    for fold in range(folds):
        train, val = (Dataset(d.values[rows], labels=d.labels[rows])
                      for rows in (assignment != fold, assignment == fold))
        results, _ = evaluation._holdout(train, val, grid, n_eval)
        for pos, per_n in enumerate(results):
            scores[pos] += float(np.mean([acc for acc, _ in per_n]))
    return scores / folds


class TestMergedFolds:
    """``cross_validate`` fits every fold's classifiers in one ``_fit_classifiers`` call."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = evaluation._train_linear_batch

        def spy(blocks, costs, *rest):
            calls.append((blocks, list(costs)))
            return kernel(blocks, costs, *rest)

        monkeypatch.setattr(evaluation, "_train_linear_batch", spy)
        return calls

    def test_one_kernel_call_per_column_count(self, kernel_calls):
        # One fold at a time made one call per fold and column count.
        d, grid = merged_grid_dataset(2)
        cross_validate(d, grid, folds=5, seed=1, n_grid=(1, 3, 5))
        assert sorted(blocks[0][0].shape[-1] for blocks, _ in kernel_calls) == [1, 3, 5]
        for blocks, _ in kernel_calls:  # the folds' row counts step in one loop
            assert len({xs.shape[-2] for xs, _ in blocks}) > 1

    @pytest.mark.parametrize("classes", [2, 3])
    def test_each_matrix_stacked_once_for_all_its_fits(self, kernel_calls, classes):
        # s distinct (fold, column set) matrices for s x c fits: c costs, and
        # one vs rest, c costs times the class count.
        d, grid = merged_grid_dataset(classes)
        cross_validate(d, grid, folds=5, seed=1, n_grid=(1, 3, 5))
        c = len(COST_GRID) * (1 if classes == 2 else classes)
        for blocks, costs in kernel_calls:
            fits = 0
            for xs, targets in blocks:
                s, shared, n, k = xs.shape
                assert shared == c and xs.strides[1] == 0 and targets.shape == (s, c, n)
                assert len({xs[i, 0].tobytes() for i in range(s)}) == s
                fits += s * c
            assert fits == len(costs)

    @pytest.mark.parametrize("classes", [2, 3])
    def test_scores_bitwise_equal_to_one_holdout_per_fold(self, monkeypatch, classes):
        d, grid = merged_grid_dataset(classes)
        assignment = stratified_fold_indices(d.labels, 5, 1)
        assert len({int(np.sum(assignment != fold)) for fold in range(5)}) > 1
        calls = []
        fit = evaluation._fit_classifiers

        def spy(values, y, problems, histories):  # keeps the histories cross_validate drops
            models = fit(values, y, problems)
            calls.append((values, y, problems, models))
            return models

        monkeypatch.setattr(evaluation, "_fit_classifiers", spy)
        _, scores = cross_validate(d, grid, folds=5, seed=1, n_grid=(1, 3, 5))
        # Every fit of the merged call is bitwise the one its fold's own call makes.
        [(values, y, problems, models)] = calls
        for fold in range(5):
            mine = [(cols, cost, model) for (f, cols, cost), model in zip(problems, models) if f == fold]
            alone = fit(values[fold], y[fold], [(cols, cost) for cols, cost, _ in mine])
            for (_, _, model), expected in zip(mine, alone, strict=True):
                pairs = zip(model.models, expected.models, strict=True) if classes > 2 else [(model, expected)]
                for one, other in pairs:
                    assert_same_classifier(one, other)
        monkeypatch.setattr(evaluation, "_fit_classifiers", fit)
        assert scores.tobytes() == one_holdout_per_fold(d, grid, 5, 1, (1, 3, 5)).tobytes()

    def test_holds_one_standardized_copy_per_fold(self):
        # Each fold's standardized training matrix waits for the one fit
        # call; a fold's ranking copies die with its plan. Keeping the
        # standardized copies each plan made peaked at 8.2x the matrix here.
        d = labeled_dataset(np.random.default_rng(85), 4000, 40)
        grid = [(SelectorConfig(variant="ifs", alpha=0.5), cost) for cost in COST_GRID]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cross_validate(d, grid, folds=5, n_grid=(1, 5))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5 * d.values.nbytes + evaluation.BATCH_BYTES


class TestHoldout:
    """``_holdout`` fits one classifier per distinct (top-N column set, cost)."""

    @pytest.fixture
    def fit_costs(self, monkeypatch):
        costs = []
        kernel = evaluation._train_linear_batch

        def counting_kernel(blocks, batch_costs, *rest):
            costs.extend(batch_costs)
            return kernel(blocks, batch_costs, *rest)

        monkeypatch.setattr(evaluation, "_train_linear_batch", counting_kernel)
        return costs

    def test_all_columns_fit_once_per_cost(self, fit_costs):
        # At top-N = m every variant keeps every column, in its own order.
        rng = np.random.default_rng(84)
        train, test = labeled_dataset(rng, 40, 6), labeled_dataset(rng, 30, 6)
        configs = [SelectorConfig(variant=v, alpha=0.5) for v in ("ifs", "mifs", "sifs", "mrmr")]
        grid = [(config, cost) for config in configs for cost in (0.1, 1.0)]
        results, rankings = evaluation._holdout(train, test, grid, (6,), with_auc=True)
        assert len({tuple(rankings[config].order) for config in configs}) > 1
        assert sorted(fit_costs) == [0.1, 1.0]
        assert results == results[:2] * len(configs)

    def test_same_set_in_another_order_scores_bitwise_alike(self, fit_costs):
        rng = np.random.default_rng(84)
        train, test = labeled_dataset(rng, 40, 6), labeled_dataset(rng, 30, 6)
        configs = [SelectorConfig(variant=v, alpha=0.5) for v in ("ifs", "mifs", "sifs")]
        results, rankings = evaluation._holdout(
            train, test, [(config, 1.0) for config in configs], (3,), with_auc=True)
        tops = [tuple(rankings[config].order[:3].tolist()) for config in configs]
        assert len(set(tops)) == 3 and len({frozenset(top) for top in tops}) == 1
        assert fit_costs == [1.0]
        [(acc, auc)] = results[0]
        assert results == [[(acc, auc)]] * 3 and auc is not None
