"""Benchmark protocol: rank on training data, truncate to top-N feature
sets, train a linear max-margin classifier per N, and report per-N, average,
and maximum test accuracy.

Hyperparameters (the relevance/redundancy trade-off and the classifier
cost) are picked by stratified k-fold cross validation on the training
split only, in one ``cross_validate`` call per command over the grids
of all its configs. Each CV fold and the final train/test run are one
holdout: ``_plan`` fits preprocessing statistics on the training rows only
and ranks, one classifier is fitted per distinct (top-N column set, cost)
on the training rows' standardized columns in ascending index order, and
``_score`` applies the same statistics to the held-out rows. So the test
split can never influence the selection stage. ``_holdout`` runs one
holdout; ``cross_validate`` plans every fold, fits all folds' classifiers
together, then scores each fold.

Each stage has one route. Rankings come from ``scoring.rank_scaled``.
Every classifier fit, whether one binary fit from ``train_linear``, a
holdout's fits or all folds' fits, goes through ``_fit_classifiers``, which
checks each training matrix's shape, its class count, each cost and the
epoch cap. It hands every fit of one column count to ``_train_linear_batch``
in one call (or in chunks, if they outgrow ``BATCH_BYTES``), which steps
them in lockstep, one set of numpy calls per row count and round, and each
fit's result is bitwise what it gets alone.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .config import ALPHA_GRID, COST_GRID, SelectorConfig, _is_real
from .dataset import Dataset, _Fresh, fit_scaler, preprocess
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
    [model] = _fit_classifiers(x, y, [(np.arange(x.shape[-1]), cost)], epochs)
    return model


# Bytes of stacked matrices, round arrays and histories one lockstep batch may hold.
BATCH_BYTES = 2 * 1024 * 1024


def _batch_bytes(n, k, fits, epochs):
    """What one n x k matrix and ``fits`` fits on it add to a lockstep batch:
    the matrix, stacked once whatever its fit count, and per fit its targets
    and round arrays (two rows of length n, eight of length k and 24
    scalars) and its column of the (epochs + 1)-row history table."""
    return 8 * n * k + fits * 8 * (2 * n + 8 * k + 24 + epochs + 1)


def _train_linear_batch(blocks, costs, epochs, histories=True):
    """``train_linear``'s loop for many fits of one column count k, in lockstep.

    ``blocks`` is a list of ``(xs, targets)`` pairs, say one per row count
    n: ``xs`` holds one n x k matrix per fit, shape ``lead + (n, k)``, and
    ``targets`` each fit's +-1 labels, shape ``lead + (n,)``. A zero stride
    in ``lead`` (from ``np.broadcast_to``) lets fits share one stacked
    matrix: the fits of one training matrix at several costs or, one vs
    rest, for several classes. ``costs`` holds one cost per fit, the blocks'
    fits in order (each ``lead`` in C order).

    Each round makes one trial step for every live fit, with one set of
    numpy calls per block for what reads the matrices and one set for the
    rest. ``np.matmul`` on stacked operands makes, per fit, the same BLAS
    gemv or dot call as the one-problem ``x @ w``, and ``np.add.reduce(...,
    axis=-1)`` the same pairwise sum per row. Every fit keeps its own step,
    epoch count, history and stop rule (the epoch cap, a zero gradient, or
    no accepted step), so each result is bitwise the one the problem gets
    alone. A finished fit stays in the stack, frozen, and ``xs`` is only
    read. The round arrays are allocated once (a block's margins buffer
    holds the hinge, then the gradient's active targets), and the histories
    share one (epochs + 1)-row table. Returns ``(weights, bias, objective
    history)`` per fit; the history is ``()`` unless ``histories``.
    """
    lam = 1.0 / np.asarray(costs, dtype=np.float64)
    p, k = lam.size, blocks[0][0].shape[-1]
    w, b, w_new, b_new = np.zeros((p, k)), np.zeros(p), np.zeros((p, k)), np.zeros(p)
    xa, loss, asum, ns = np.empty((p, k)), np.empty(p), np.empty(p), np.empty(p)
    views, lo = [], 0  # per block: what its numpy calls read and write
    for xs, t in blocks:
        lead, n = xs.shape[:-2], xs.shape[-2]
        hi = lo + xs[..., 0, 0].size
        margins = np.empty(lead + (n, 1))  # x @ w, then the hinge, then the active targets
        hinge = margins[..., 0]
        views.append((xs, t, margins, hinge, hinge[..., None, :], w_new[lo:hi].reshape(lead + (k, 1)),
                      b_new[lo:hi].reshape(lead + (1,)), loss[lo:hi].reshape(lead),
                      xa[lo:hi].reshape(lead + (1, k)), asum[lo:hi].reshape(lead)))
        ns[lo:hi] = n
        lo = hi

    def objective():  # at (w_new, b_new); leaves each block's hinge in its margins
        for xs, t, margins, hinge, _, wv, bv, lv, _, _ in views:
            np.matmul(xs, wv, out=margins)
            hinge += bv
            hinge *= t
            np.subtract(1.0, hinge, out=hinge)
            np.maximum(0.0, hinge, out=hinge)
            np.add.reduce(hinge, axis=-1, out=lv)
        penalty = 0.5 * lam * np.matmul(w_new[:, None, :], w_new[:, :, None])[:, 0, 0]
        return penalty + loss / ns

    def gradient():  # at (w, b) = (w_new, b_new), from the hinge of its objective call
        for xs, t, _, hinge, row, _, _, _, xv, av in views:
            np.greater(hinge, 0.0, out=hinge)  # 1.0 where margin < 1, else 0.0
            np.multiply(t, hinge, out=hinge)  # ±0.0 where inactive, as t * (margins < 1)
            np.matmul(row, xs, out=xv)
            np.add.reduce(hinge, axis=-1, out=av)
        gw = lam[:, None] * w - xa / ns[:, None]
        gb = -asum / ns
        return gw, gb, np.matmul(gw[:, None, :], gw[:, :, None])[:, 0, 0] + gb * gb

    obj = objective()
    history = np.empty((epochs + 1, p))  # row e: each fit's objective after e accepted epochs
    history[0] = obj
    fit = np.arange(p)
    done = np.zeros(p, dtype=np.intp)  # accepted epochs
    step = np.full(p, 2.0)  # the first epoch doubles the unit step
    gw, gb, norm2 = gradient()
    live = ~(norm2 <= 1e-24) & (epochs > 0)
    while live.any():
        np.subtract(w, step[:, None] * gw, out=w_new)
        np.subtract(b, step * gb, out=b_new)
        obj_new = objective()
        accepted = live & (obj_new < obj)
        rejected = live & ~accepted
        np.copyto(w, w_new, where=accepted[:, None])
        np.copyto(b, b_new, where=accepted)
        np.copyto(obj, obj_new, where=accepted)
        done += accepted
        history[done, fit] = obj  # rewrites the last entry of every fit that did not move
        np.multiply(step, 0.5, out=step, where=rejected)
        live &= ~(rejected & (step <= 1e-18)) & (done < epochs)
        moved = accepted & live
        if moved.any():
            gw_new, gb_new, norm2 = gradient()
            np.copyto(gw, gw_new, where=moved[:, None])
            np.copyto(gb, gb_new, where=moved)
            np.copyto(step, np.minimum(step * 2.0, 1e6), where=moved)
            live &= ~(moved & (norm2 <= 1e-24))
    return [(w[i], float(b[i]), tuple(history[: done[i] + 1, i].tolist()) if histories else ())
            for i in range(p)]


@dataclass(frozen=True, eq=False)
class _OneVsRest:
    models: tuple[LinearClassifier, ...]
    classes: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        scores = np.column_stack([m.decision_function(x) for m in self.models])
        return self.classes[np.argmax(scores, axis=1)]


def _is_positive_number(x) -> bool:  # False for NaN, a string, None and a bool (a numbers.Real)
    return _is_real(x) and x > 0


def _fit_classifiers(values, y, problems, epochs=DEFAULT_EPOCHS, histories=True):
    """One classifier per ``(cols, cost)`` problem, trained on the columns
    ``cols`` of ``values`` with the labels ``y``: a ``LinearClassifier`` for
    two classes, a one-vs-rest reduction for more. ``values`` and ``y`` may
    instead be lists, one matrix and one label vector per training set (a
    cross-validation fold, say); each problem is then ``(set, cols, cost)``.

    The binary fits (one per class of a one-vs-rest problem) of one column
    count go to ``_train_linear_batch`` in one call, whatever their sets and
    row counts, with each (set, columns) matrix stacked once and shared by
    all its fits. If their ``_batch_bytes`` exceed ``BATCH_BYTES``, they run
    in chunks filled in order up to it; a fit that alone exceeds it runs
    alone. Without ``histories`` every ``objective_history`` is ``()``:
    a history costs a Python float per epoch.
    """
    if not isinstance(values, list):
        values, y, problems = [values], [y], [(0, cols, cost) for cols, cost in problems]
    y = [np.asarray(labels) for labels in y]
    classes = [np.unique(labels) for labels in y]
    for x, labels, cls in zip(values, y, classes):
        if cls.size < 2:
            raise ValueError("training data contains a single class")
        if x.ndim != 2 or x.shape[0] != labels.shape[0]:
            raise ValueError(f"shape mismatch: x {x.shape} vs y {labels.shape}")
    for _, _, cost in problems:
        if not _is_positive_number(cost):
            raise ValueError(f"cost must be positive, got {cost!r}")
    if not (isinstance(epochs, numbers.Integral) and not isinstance(epochs, bool) and epochs >= 0):
        raise ValueError(f"epochs must be a non-negative integer, got {epochs!r}")
    # Per set, a +-1 target row for each positive class of its binary fits.
    signs = [np.where(labels == (cls[1:] if cls.size == 2 else cls)[:, None], 1.0, -1.0)
             for labels, cls in zip(y, classes)]
    # Per column count and (set, ordered columns): the matrix's fits as
    # (fit index, target row, cost), indexed in problem order.
    by_k, count = {}, 0
    for f, cols, cost in problems:
        fits = by_k.setdefault(len(cols), {}).setdefault((f, tuple(np.asarray(cols).tolist())), [])
        fits += [(count + row, row, cost) for row in range(len(signs[f]))]
        count += len(signs[f])
    results = [None] * count

    def train(k, chunk):  # one kernel block per (row count, fits per matrix)
        blocks = {}
        for (f, cols), fits in chunk:
            blocks.setdefault((y[f].size, len(fits)), []).append((f, cols, fits))
        args, order = [], []
        for (n, c), parts in blocks.items():
            stack = np.empty((len(parts), n, k))
            for slot, (f, cols, _) in enumerate(parts):
                stack[slot] = values[f][:, cols]
            targets = np.stack([signs[f][[row for _, row, _ in fits]] for f, _, fits in parts])
            args.append((np.broadcast_to(stack[:, None], (len(parts), c, n, k)), targets))
            order += [fit for _, _, fits in parts for fit in fits]
        batch = _train_linear_batch(args, [cost for _, _, cost in order], epochs, histories)
        for (i, _, _), result in zip(order, batch):
            results[i] = result

    for k, matrices in by_k.items():
        chunk, used = [], 0
        for key, fits in matrices.items():
            matrix = _batch_bytes(y[key[0]].size, k, 0, epochs)
            each = _batch_bytes(y[key[0]].size, k, 1, epochs) - matrix
            while fits:
                take = min(len(fits), (BATCH_BYTES - used - matrix) // each)
                if take < 1 and chunk:  # full: run it and start the next
                    train(k, chunk)
                    chunk, used = [], 0
                    continue
                take = max(take, 1)  # a fit over the budget runs alone
                chunk.append((key, fits[:take]))
                used += matrix + take * each
                fits = fits[take:]
        train(k, chunk)
    binary = iter(results)
    models = []
    for f, _, _ in problems:
        if classes[f].size == 2:
            w, b, history = next(binary)
            models.append(LinearClassifier(w, b, classes[f], history))
        else:
            per_class = islice(binary, classes[f].size)
            models.append(_OneVsRest(
                tuple(LinearClassifier(w, b, np.array([0, 1]), history) for w, b, history in per_class),
                classes[f]))
    return models


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
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
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
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ConfigError(f"top-N values must be integers, got {n!r}")
        n = int(n)
        if n < 1:
            raise ConfigError(f"top-N values must be positive, got {n}")
        out.append(min(n, m))
    if not out:
        raise ConfigError("the top-N grid is empty")
    return tuple(sorted(set(out)))


def _plan(train: Dataset, grid, n_eval):
    """A holdout of each (config, cost) entry of ``grid`` up to its fits.

    Ranks each distinct config once on ``train`` under its own scheme
    (rankings do not depend on the classifier cost); standardize rankings
    read ``train`` standardized by the scaler fitted on it, which every
    classifier input uses. Returns that scaler, the distinct fits as (top-N
    column set in ascending index order, cost) problems, each entry's
    problems per N, and each config's ``rank_scaled`` ranking. Rankings
    that keep one set in any order share its fit.
    """
    configs = list(dict.fromkeys(config for config, _ in grid))
    scaler = fit_scaler(train, "standardize")
    rankings = {}
    for scheme in dict.fromkeys(config.resolved_preprocessing for config in configs):
        group = [config for config in configs if config.resolved_preprocessing == scheme]
        scaled = (train.with_values(_Fresh(scaler.apply(train.values))) if scheme == "standardize"
                  else preprocess(train, scheme))
        rankings.update(rank_scaled(scaled, group))
    orders = {config: np.asarray(ranking.order).tolist() for config, ranking in rankings.items()}
    entries = [[(tuple(sorted(orders[config][:n])), cost) for n in n_eval] for config, cost in grid]
    problems = list(dict.fromkeys(key for entry in entries for key in entry))
    return scaler, problems, entries, rankings


def _score(test_x, labels, problems, models, entries, with_auc=False):
    """Each entry's per-N ``(accuracy, auc)`` pairs on the standardized test
    rows ``test_x`` from its problems' fitted ``models``. ``auc`` is None
    unless ``with_auc`` is set and the task is binary: only the final
    holdout, whose AUCs reach a report, sets it."""
    scored = {}
    for (cols, cost), model in zip(problems, models):
        x = test_x[:, cols]
        acc = float(np.mean(model.predict(x) == labels))
        auc = None
        if with_auc and isinstance(model, LinearClassifier):
            auc = binary_auc(model.decision_function(x), labels, model.classes[1])
        scored[cols, cost] = (acc, auc)
    return [[scored[key] for key in entry] for entry in entries]


def _holdout(train: Dataset, test: Dataset, grid, n_eval, with_auc=False):
    """Score each (config, cost) entry of ``grid`` on a held-out split: one
    ``_plan``, one ``_fit_classifiers`` call on the training split's
    standardized columns, one ``_score``. Returns, aligned with ``grid``,
    the per-N ``(accuracy, auc)`` pairs on ``test`` and each config's ranking."""
    scaler, problems, entries, rankings = _plan(train, grid, n_eval)
    models = _fit_classifiers(scaler.apply(train.values), train.labels, problems)
    return _score(scaler.apply(test.values), test.labels, problems, models, entries, with_auc), rankings


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
    validation accuracy over the top-N grid. Every fold is planned (ranked)
    first; then one ``_fit_classifiers`` call fits every fold's distinct
    (top-N column set, cost) classifiers together, and each fold is scored.
    The scores are bitwise those of one ``_holdout`` per fold. Ties are
    broken toward the smallest alpha, then the smallest cost. Returns the
    winning pair and the per-entry mean CV accuracy, aligned with
    ``config_grid``.
    """
    if dataset.labels is None:
        raise ConfigError("cross validation requires a labeled dataset")
    config_grid = list(config_grid)
    if not config_grid:
        raise ConfigError("empty configuration grid")
    assignment = stratified_fold_indices(dataset.labels, folds, seed)
    n_eval = _effective_n_grid(n_grid, dataset.m)

    # Every fold is ranked first, keeping only its scaler and fits; each
    # fold's training Dataset lives only while it is ranked. The standardized
    # training matrices are built again for the one fit call, so ranking a
    # fold never holds the earlier folds' copies. No score reads a fit's
    # objective history, and every fold's fits would hold theirs at once.
    plans = [_plan(Dataset(_Fresh(dataset.values[rows]), dataset.labels[rows], dataset.feature_names),
                   config_grid, n_eval)[:3] for rows in (assignment != fold for fold in range(folds))]
    models = iter(_fit_classifiers(
        [scaler.apply(dataset.values[assignment != fold]) for fold, (scaler, _, _) in enumerate(plans)],
        [dataset.labels[assignment != fold] for fold in range(folds)],
        [(fold, cols, cost) for fold, (_, problems, _) in enumerate(plans) for cols, cost in problems],
        histories=False))
    scores = np.zeros(len(config_grid))
    for fold, (scaler, problems, entries) in enumerate(plans):
        rows = assignment == fold
        results = _score(scaler.apply(dataset.values[rows]), dataset.labels[rows], problems,
                         list(islice(models, len(problems))), entries)
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
        if not _is_positive_number(cost):
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
) -> EvalReport:
    """Run the full train/test protocol for one selector configuration.

    Ranks features on the training split only; when ``config.alpha`` is
    ``"cv"``, the trade-off and classifier cost are first chosen by
    stratified cross validation on the training split (over ``cost_grid``,
    positive numbers, one or more). Top-N values larger than the feature
    count are clipped, with a warning, and recorded in the report.
    """
    [(report, _)] = _evaluate(d_train, d_test, [config], n_grid, seed, folds, cost_grid)
    return report
