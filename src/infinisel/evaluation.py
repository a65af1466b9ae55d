"""Benchmark protocol: rank on training data, truncate to top-N feature
sets, train a linear max-margin classifier per N, and report per-N, average,
and maximum test accuracy.

Hyperparameters (the relevance/redundancy trade-off and the classifier
cost) are picked by stratified k-fold cross validation on the training
split only, in one ``cross_validate`` call per command over the grids
of all its configs. Each CV fold and the final train/test run go through
one holdout function, ``_holdout``: it fits preprocessing statistics on
the training rows only, applies them unchanged to the held-out rows,
ranks, and fits each distinct (scheme, top-N columns, cost) classifier
once. So the test split can never influence the selection stage.

Each stage has one route. Rankings come from ``scoring.rank_scaled``.
Every classifier fit, whether from ``train_linear``, ``fit_classifier`` or
a holdout, goes through ``_fit_classifiers``, which checks the shapes,
class count and cost. It hands every fit of one column count to
``_train_linear_batch``, which steps them in lockstep, one set of numpy
calls per round, and each fit's result is bitwise what it gets alone.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .config import ALPHA_GRID, COST_GRID, SelectorConfig
from .dataset import Dataset, _Fresh, fit_scaler
from .errors import ConfigError
from .measures import _midranks
from .scoring import _by_rank, rank_scaled

DEFAULT_N_GRID = (10, 50, 100, 150, 200)
DEFAULT_EPOCHS = 200
DEFAULT_COST = 1.0  # classifier cost when alpha is fixed rather than cross-validated


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Binary linear max-margin classifier.

    Predicts ``classes[1]`` where the affine score is nonnegative.
    ``objective_history`` records the regularized training objective per
    accepted epoch; it is non-increasing by construction.
    """

    weights: np.ndarray
    bias: float
    classes: np.ndarray
    objective_history: tuple[float, ...] = ()

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.decision_function(x) >= 0.0, self.classes[1], self.classes[0])


def train_linear(
    x: np.ndarray, y: np.ndarray, cost: float, epochs: int = DEFAULT_EPOCHS
) -> LinearClassifier:
    """Fit a hinge-loss linear classifier by batch subgradient descent.

    Minimizes ``||w||^2 / (2 cost) + mean hinge``; the mean-loss form makes
    the optimization target invariant under duplicating the training set.
    Step sizes backtrack until the objective decreases, so the recorded
    training loss never increases. Deterministic for fixed inputs.
    """
    classes = np.unique(y)
    if classes.size != 2:
        raise ValueError(f"binary training needs exactly 2 classes, got {classes.size}")
    x = np.asarray(x, dtype=np.float64)  # shape[-1]: a 1-D x reaches the shape check
    [model] = _fit_classifiers([(x, np.arange(x.shape[-1]), cost)], y, epochs)
    return model


# Bytes of stacked matrices and round temporaries one lockstep batch may hold.
BATCH_BYTES = 2 * 1024 * 1024


def _batch_bytes(n, k):
    """What one n x k problem adds to a batch: its matrix in the stack and
    its rows of the float arrays a round holds at once, at most six of
    length n and eight of length k. Its objective history is its output."""
    return 8 * (n * (k + 6) + 8 * k)


def _train_linear_batch(xs, targets, costs, epochs):
    """``train_linear``'s loop for a stack of same-shape problems, in lockstep.

    ``xs`` is a C-contiguous (p, n, k) stack, ``targets`` (p, n) of +-1 and
    ``costs`` (p,). Each round makes one trial step for every live problem
    with one set of numpy calls. ``np.matmul`` on stacked operands makes,
    per problem, the same BLAS gemv or dot call as the one-problem ``x @ w``,
    and ``np.add.reduce(..., axis=1)`` the same pairwise sum per row. Every
    problem keeps its own step, epoch count, history and stop rule (the
    epoch cap, a zero gradient, or no accepted step), so each result is
    bitwise the one the problem gets alone. A finished problem stays in the
    stack, frozen, and ``xs`` is only read.
    Returns ``(weights, bias, objective history)`` per problem.
    """
    p, n, k = xs.shape
    t = np.asarray(targets, dtype=np.float64)
    lam = 1.0 / np.asarray(costs, dtype=np.float64)
    # The p × n round arrays, written in place by every round.
    margins, hinge, active = np.empty((p, n, 1)), np.empty((p, n)), np.empty((p, n))
    below = np.empty((p, n), dtype=bool)

    def objective(w, b):  # fills margins (p × n) and hinge
        np.matmul(xs, w[:, :, None], out=margins)
        rows = margins[:, :, 0]
        rows += b[:, None]
        rows *= t
        np.subtract(1.0, rows, out=hinge)
        np.maximum(0.0, hinge, out=hinge)
        penalty = 0.5 * lam * np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0]
        return penalty + np.add.reduce(hinge, axis=1) / n

    def gradient(w):  # at (w, b), from the margins of its objective call
        np.less(margins[:, :, 0], 1.0, out=below)
        np.multiply(t, below, out=active)  # ±0.0 where inactive, as t * (margins < 1)
        gw = lam[:, None] * w - np.matmul(active[:, None, :], xs)[:, 0, :] / n
        gb = -np.add.reduce(active, axis=1) / n
        return gw, gb, np.matmul(gw[:, None, :], gw[:, :, None])[:, 0, 0] + gb * gb

    w, b = np.zeros((p, k)), np.zeros(p)
    obj = objective(w, b)
    histories = [[value] for value in obj.tolist()]
    done = np.zeros(p, dtype=np.intp)  # accepted epochs
    step = np.full(p, 2.0)  # the first epoch doubles the unit step
    gw, gb, norm2 = gradient(w)
    live = ~(norm2 <= 1e-24) & (epochs > 0)
    while live.any():
        w_new, b_new = w - step[:, None] * gw, b - step * gb
        obj_new = objective(w_new, b_new)
        accepted = live & (obj_new < obj)
        rejected = live & ~accepted
        np.copyto(w, w_new, where=accepted[:, None])
        np.copyto(b, b_new, where=accepted)
        np.copyto(obj, obj_new, where=accepted)
        done += accepted
        for i, value in zip(np.flatnonzero(accepted).tolist(), obj_new[accepted].tolist()):
            histories[i].append(value)
        np.multiply(step, 0.5, out=step, where=rejected)
        live &= ~(rejected & (step <= 1e-18)) & (done < epochs)
        moved = accepted & live
        if moved.any():
            gw_new, gb_new, norm2 = gradient(w)
            np.copyto(gw, gw_new, where=moved[:, None])
            np.copyto(gb, gb_new, where=moved)
            np.copyto(step, np.minimum(step * 2.0, 1e6), where=moved)
            live &= ~(moved & (norm2 <= 1e-24))
    return [(w[i], float(b[i]), tuple(histories[i])) for i in range(p)]


@dataclass(frozen=True, eq=False)
class _OneVsRest:
    models: tuple[LinearClassifier, ...]
    classes: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        scores = np.column_stack([m.decision_function(x) for m in self.models])
        return self.classes[np.argmax(scores, axis=1)]


def fit_classifier(x, y, cost):
    """Binary classifier, or a one-vs-rest reduction for more classes."""
    x = np.asarray(x, dtype=np.float64)  # shape[-1]: a 1-D x reaches the shape check
    [model] = _fit_classifiers([(x, np.arange(x.shape[-1]), cost)], y)
    return model


def _fit_classifiers(problems, y, epochs=DEFAULT_EPOCHS):
    """``fit_classifier`` for each ``(values, cols, cost)`` problem, trained on
    the columns ``cols`` of ``values`` with the labels ``y``.

    All binary fits (one per class of a one-vs-rest problem) of one column
    count run through ``_train_linear_batch`` together, in as few equal
    chunks as keep each chunk's ``_batch_bytes`` within ``BATCH_BYTES``. A
    fit larger than that runs alone.
    """
    y = np.asarray(y)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("training data contains a single class")
    for values, _, cost in problems:
        if values.ndim != 2 or values.shape[0] != y.shape[0]:
            raise ValueError(f"shape mismatch: x {values.shape} vs y {y.shape}")
        if not cost > 0:  # NaN too
            raise ValueError(f"cost must be positive, got {cost}")
    positives = classes[1:] if classes.size == 2 else classes
    fits = [(values, cols, y == c, cost) for values, cols, cost in problems for c in positives]
    results = [None] * len(fits)
    by_k = {}
    for i, (_, cols, _, _) in enumerate(fits):
        by_k.setdefault(len(cols), []).append(i)
    for k, group in by_k.items():
        per_chunk = max(1, BATCH_BYTES // _batch_bytes(y.size, k))
        for chunk in np.array_split(group, -(-len(group) // per_chunk)):
            chunk = chunk.tolist()
            xs = np.empty((len(chunk), y.size, k))
            for slot, i in enumerate(chunk):
                values, cols = fits[i][:2]
                xs[slot] = values[:, cols]
            targets = np.where([fits[i][2] for i in chunk], 1.0, -1.0)
            batch = _train_linear_batch(xs, targets, [fits[i][3] for i in chunk], epochs)
            for i, result in zip(chunk, batch):
                results[i] = result
    if classes.size == 2:
        return [LinearClassifier(w, b, classes, history) for w, b, history in results]
    models = [LinearClassifier(w, b, np.array([0, 1]), history) for w, b, history in results]
    c = classes.size
    return [_OneVsRest(tuple(models[j : j + c]), classes) for j in range(0, len(models), c)]


def binary_auc(scores: np.ndarray, labels: np.ndarray, positive) -> float:
    """Area under the ROC curve, U / (n_pos · n_neg) from exact ``_midranks`` (binary tasks only)."""
    pos = labels == positive
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = (_midranks(np.asarray(scores)[:, None])[:, 0] + pos.size + 1) / 2
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _check_fold_plan(folds, seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"fold seed must be a non-negative integer, got {seed!r}")
    if not isinstance(folds, (int, np.integer)):
        raise ConfigError(f"fold count must be an integer, got {folds!r}")
    if folds < 2:
        raise ConfigError(f"need at least 2 folds, got {folds}")


def stratified_fold_indices(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (one fold id per sample).

    Every class must have at least ``folds`` members so that each fold's
    training part contains every class.
    """
    labels = np.asarray(labels)
    _check_fold_plan(folds, seed)
    if labels.size < folds:
        raise ConfigError(f"{labels.size} samples cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.size, dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < folds:
            raise ConfigError(
                f"class {cls} has {members.size} samples; stratifying into {folds} folds is impossible"
            )
        members = rng.permutation(members)
        assignment[members] = np.arange(members.size) % folds
    return assignment


def _effective_n_grid(n_grid, m) -> tuple[int, ...]:
    out = []
    for n in n_grid:
        if not isinstance(n, (int, np.integer)):
            raise ConfigError(f"top-N values must be integers, got {n!r}")
        n = int(n)
        if n < 1:
            raise ConfigError(f"top-N values must be positive, got {n}")
        out.append(min(n, m))
    if not out:
        raise ConfigError("the top-N grid is empty")
    return tuple(sorted(set(out)))


def _holdout(train: Dataset, test: Dataset, grid, n_eval, with_auc=False):
    """Score each (config, cost) entry of ``grid`` on a held-out split.

    Fits one scaler per preprocessing scheme on ``train`` only, ranks each
    distinct config once on the scaled training rows (rankings do not
    depend on the classifier cost), then fits one classifier per distinct
    (scheme, ordered top-N columns, cost). Returns, aligned with ``grid``,
    the per-N ``(accuracy, auc)`` pairs on ``test`` and each config's
    ``rank_scaled`` ranking. ``auc`` is None unless ``with_auc`` is set and
    the task is binary: only the final holdout, whose AUCs reach a report,
    sets it; CV folds average accuracy alone.
    """
    configs = list(dict.fromkeys(config for config, _ in grid))
    scaled, rankings = {}, {}
    for scheme in dict.fromkeys(config.resolved_preprocessing for config in configs):
        scaler = fit_scaler(train, scheme)
        scaled_train = train.with_values(_Fresh(scaler.apply(train.values)))
        scaled[scheme] = (scaled_train.values, scaler.apply(test.values))
        group = [config for config in configs if config.resolved_preprocessing == scheme]
        rankings.update(rank_scaled(scaled_train, group))

    # Each distinct (scheme, ordered top-N columns, cost), in first-use order.
    keys, entries = {}, []
    for config, cost in grid:
        scheme = config.resolved_preprocessing
        order = np.asarray(rankings[config].order)
        entry = []
        for n in n_eval:
            key = (scheme, tuple(order[:n].tolist()), cost)
            keys.setdefault(key, order[:n])
            entry.append(key)
        entries.append(entry)
    problems = [(scaled[scheme][0], cols, cost) for (scheme, _, cost), cols in keys.items()]
    scored = {}
    for (key, cols), model in zip(keys.items(), _fit_classifiers(problems, train.labels)):
        test_x = scaled[key[0]][1][:, cols]
        acc = float(np.mean(model.predict(test_x) == test.labels))
        auc = None
        if with_auc and isinstance(model, LinearClassifier):
            auc = binary_auc(model.decision_function(test_x), test.labels, model.classes[1])
        scored[key] = (acc, auc)
    return [[scored[key] for key in entry] for entry in entries], rankings


def _best(grid, scores):
    """The top-scoring entry of ``grid``; ties go to the smallest alpha, then cost."""
    def sort_key(pos):
        config, cost = grid[pos]
        return (-scores[pos], config.alpha if isinstance(config.alpha, float) else -1.0, cost)
    return grid[min(range(len(grid)), key=sort_key)]


def cross_validate(
    dataset: Dataset, config_grid, folds: int = 5, seed: int = 0, n_grid=DEFAULT_N_GRID
):
    """Pick the best (config, cost) pair by stratified k-fold accuracy.

    Each cell ranks features on the fold's training part, then averages
    validation accuracy over the top-N grid. Ties are broken toward the
    smallest alpha, then the smallest cost. Returns the winning pair and
    the per-entry mean CV accuracy, aligned with ``config_grid``.
    """
    if dataset.labels is None:
        raise ConfigError("cross validation requires a labeled dataset")
    config_grid = list(config_grid)
    if not config_grid:
        raise ConfigError("empty configuration grid")
    assignment = stratified_fold_indices(dataset.labels, folds, seed)
    n_eval = _effective_n_grid(n_grid, dataset.m)

    scores = np.zeros(len(config_grid))
    for fold in range(folds):
        train, val = (Dataset(_Fresh(dataset.values[rows]), dataset.labels[rows], dataset.feature_names)
                      for rows in (assignment != fold, assignment == fold))
        results, _ = _holdout(train, val, config_grid, n_eval)
        for pos, per_n in enumerate(results):
            scores[pos] += float(np.mean([acc for acc, _ in per_n]))
    scores /= folds
    return _best(config_grid, scores), scores


@dataclass(frozen=True)
class EvalReport:
    """Per-N accuracies with their average and maximum, plus the
    hyperparameters the run settled on."""

    variant: str
    chosen_alpha: float
    chosen_classifier_cost: float
    fold_seed: int
    n_requested: tuple[int, ...]
    n_evaluated: tuple[int, ...]
    per_n_accuracy: dict[int, float]
    avg: float
    max: float
    per_n_auc: dict[int, float] | None = None

    def to_dict(self) -> dict:
        # Per-N keys as the strings JSON writes (so sort_keys orders them as
        # strings), and tuples as the lists JSON reads back.
        return {k: {str(n): x for n, x in v.items()} if isinstance(v, dict)
                else list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"variant={self.variant}",
            f"chosen_alpha={self.chosen_alpha!r}",
            f"chosen_classifier_cost={self.chosen_classifier_cost!r}",
            f"fold_seed={self.fold_seed}",
            "n_requested=" + ",".join(str(n) for n in self.n_requested),
            "n_evaluated=" + ",".join(str(n) for n in self.n_evaluated),
        ]
        for n in self.n_evaluated:
            lines.append(f"accuracy_n{n}={self.per_n_accuracy[n]!r}")
        if self.per_n_auc is not None:
            for n in self.n_evaluated:
                lines.append(f"auc_n{n}={self.per_n_auc[n]!r}")
        lines.append(f"avg={self.avg!r}")
        lines.append(f"max={self.max!r}")
        return "\n".join(lines) + "\n"


def _evaluate(
    d_train: Dataset, d_test: Dataset, configs, n_grid, seed: int, folds=5, cost_grid=COST_GRID
):
    """``evaluate_selector`` for several configs on one fold plan: one
    ``cross_validate`` over all their grids, each config picking from its own
    entries, then one holdout. Entries are scored independently, so each
    config gets the report it gets alone. Returns (report, ranking) pairs."""
    if d_train.labels is None or d_test.labels is None:
        raise ConfigError("evaluation requires labeled train and test splits")
    if d_train.m != d_test.m:
        raise ConfigError(
            f"train and test have different feature counts ({d_train.m} vs {d_test.m})"
        )
    if d_train.feature_names is not None and d_test.feature_names is not None:
        # Features are matched by position, so named columns must line up.
        for k, (a, b) in enumerate(zip(d_train.feature_names, d_test.feature_names)):
            if a != b:
                raise ConfigError(
                    f"train and test feature names differ: feature {k} is {a!r} in train, {b!r} in test"
                )

    # Every report records the fold seed, so a fixed alpha checks the plan too.
    _check_fold_plan(folds, seed)
    for cost in cost_grid:
        if not (isinstance(cost, numbers.Real) and cost > 0):  # NaN too
            raise ConfigError(f"classifier costs must be positive numbers, got {cost!r}")
    # Per config: the chosen (config, cost), or a "cv" config's slice of
    # the shared grid until cross validation picks from it.
    chosen, grid = [], []
    for config in configs:
        if isinstance(config.alpha, str):  # "cv"
            # The greedy baseline has no trade-off parameter to tune.
            alphas = ALPHA_GRID if config.variant != "mrmr" else (0.0,)
            own = [(config.with_alpha(a), cost) for a in alphas for cost in cost_grid]
            chosen.append(slice(len(grid), len(grid) + len(own)))
            grid += own
        else:
            chosen.append((config, DEFAULT_COST))
    if any(isinstance(c, slice) for c in chosen):  # cross_validate rejects an empty grid
        _, scores = cross_validate(d_train, grid, folds, seed, n_grid)
        chosen = [_best(grid[c], scores[c]) if isinstance(c, slice) else c for c in chosen]

    n_eval = _effective_n_grid(n_grid, d_train.m)
    if any(n > d_train.m for n in n_grid):
        warnings.warn(f"top-N values above the feature count were clipped to m={d_train.m}")

    results, rankings = _holdout(d_train, d_test, chosen, n_eval, with_auc=True)
    out = []
    for (config, cost), per_n in zip(chosen, results):
        accs, aucs = zip(*per_n)
        report = EvalReport(
            variant=config.variant,
            chosen_alpha=config.fixed_alpha,
            chosen_classifier_cost=float(cost),
            fold_seed=seed,
            n_requested=tuple(int(n) for n in n_grid),
            n_evaluated=n_eval,
            per_n_accuracy=dict(zip(n_eval, accs)),
            avg=float(np.mean(accs)),
            max=float(np.max(accs)),
            per_n_auc=None if None in aucs else dict(zip(n_eval, aucs)),
        )
        out.append((report, _by_rank(rankings[config])))
    return out


def evaluate_selector(
    d_train: Dataset,
    d_test: Dataset,
    config: SelectorConfig,
    n_grid=DEFAULT_N_GRID,
    seed: int = 0,
    folds: int = 5,
    cost_grid=COST_GRID,
    return_ranking: bool = False,
):
    """Run the full train/test protocol for one selector configuration.

    Ranks features on the training split only; when ``config.alpha`` is
    ``"cv"``, the trade-off and classifier cost are first chosen by
    stratified cross validation on the training split (over ``cost_grid``,
    positive numbers, one or more). Top-N values larger than the feature
    count are clipped, with a warning, and recorded in the report.
    """
    [(report, ranking)] = _evaluate(d_train, d_test, [config], n_grid, seed, folds, cost_grid)
    return (report, ranking) if return_ranking else report
