"""Energy scoring and feature ranking on an adjacency matrix.

A feature's energy aggregates the weights of all walks leaving it, over all
path lengths at once: with ``r`` chosen strictly inside the convergence
region (``r * spectral_radius < 1``) the infinite sum collapses to
``((I - rA)^-1 - I) @ 1``, which is evaluated here as a single linear solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .adjacency import GRAPHS, AdjacencyMatrix, _checked_matrix, build_adjacency
from .config import SelectorConfig
from .dataset import Dataset, preprocess
from .errors import ConfigError
from .measures import build_measure_cache
from .mrmr import MrmrSelection, mrmr_select

_POWER_TOL = 1e-10
_POWER_STEPS = 10000


@dataclass(frozen=True, eq=False)
class FeatureRanking:
    """A full ranking of features by descending energy score.

    ``order`` lists feature indices best-first; exact score ties are broken
    by ascending feature index. ``scores`` is indexed by feature, not rank.
    """

    order: np.ndarray
    scores: np.ndarray
    r_used: float
    spectral_radius: float

    def __post_init__(self):
        object.__setattr__(self, "order", np.asarray(self.order, dtype=np.int64))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))


def _power_iteration(a: np.ndarray) -> tuple[float, bool]:
    # ‖A v‖ from the all-ones start, and whether it stabilised to relative
    # tolerance _POWER_TOL within _POWER_STEPS steps (0 for the zero matrix).
    v = np.full(len(a), 1.0 / np.sqrt(len(a)))
    estimate = 0.0
    for _ in range(_POWER_STEPS):
        w = a @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0, True
        v = w / norm
        if abs(norm - estimate) <= _POWER_TOL * norm:
            return norm, True
        estimate = norm
    return estimate, False


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a symmetric nonnegative matrix.

    Power iteration from the all-ones vector, which cannot be orthogonal to
    the dominant eigenvector of a nonnegative matrix. Returns 0 for the
    zero matrix so callers can short-circuit. When −ρ is nearly an
    eigenvalue too, the iteration cannot settle within ``_POWER_STEPS``
    steps; it then runs on A + sI, s half the largest row sum, whose
    eigenvalues λ + s have ρ + s alone on top (ρ ≤ the largest row sum),
    and returns that estimate minus s. Raises ValueError if a plain array
    fails ``AdjacencyMatrix``'s checks, RuntimeError if the shifted
    estimate has not stabilized to relative tolerance ``_POWER_TOL`` within
    ``_POWER_STEPS`` iterations either.
    """
    a = a.a if isinstance(a, AdjacencyMatrix) else _checked_matrix(a)
    m = a.shape[0]
    if m == 1:
        return abs(float(a[0, 0]))
    estimate, converged = _power_iteration(a)
    if converged:
        return estimate
    shift = 0.5 * float(a.sum(axis=1).max())
    shifted, converged = _power_iteration(a + shift * np.eye(m))
    if converged:
        return shifted - shift
    raise RuntimeError(
        f"power iteration did not converge within {_POWER_STEPS} iterations (last estimate {estimate})"
    )


def energy_scores(a, c: float = 0.9) -> FeatureRanking:
    """Rank features by the closed-form all-lengths walk energy.

    Sets ``r = c / spectral_radius`` and solves ``(I - rA) y = 1``; the
    score vector is ``y - 1``. A zero matrix (every feature constant)
    yields all-zero scores and the identity ordering, with a warning.
    """
    if not isinstance(a, AdjacencyMatrix):
        a = AdjacencyMatrix(a)  # checked once: spectral_radius reads it as it is
    matrix = a.a
    if not 0.0 < c < 1.0:
        raise ValueError(f"regularization fraction c must be in (0, 1), got {c}")
    m = matrix.shape[0]
    rho = spectral_radius(a)
    if rho == 0.0:
        warnings.warn("zero adjacency matrix: all energy scores are 0, ranking by index")
        return FeatureRanking(np.arange(m), np.zeros(m), 0.0, 0.0)
    lo = float(matrix.min())
    if lo > 0.0 and lo == float(matrix.max()):
        # Exactly constant matrix (e.g. standardized data with a pure
        # relevance mix): rank one, so the solve reduces to the scalar
        # geometric series and every feature scores c / (1 - c) exactly.
        rho = lo * m
        return FeatureRanking(np.arange(m), np.full(m, c / (1.0 - c)), c / rho, rho)
    r = c / rho
    try:
        y = np.linalg.solve(np.eye(m) - r * matrix, np.ones(m))
    except np.linalg.LinAlgError as exc:  # cannot happen while r*rho < 1
        raise RuntimeError(f"energy score system is singular: {exc}") from None
    scores = y - 1.0
    return FeatureRanking(np.argsort(-scores, kind="stable"), scores, r, rho)


def rank_scaled(
    scaled: Dataset, configs
) -> dict[SelectorConfig, FeatureRanking | MrmrSelection]:
    """Each config's ranking of already-preprocessed data: a
    ``FeatureRanking`` for a graph variant, an ``MrmrSelection`` of every
    feature for mrmr.

    The one ranking path: measure blocks depend only on the variant and the
    binning policy, so they are computed once per (variant, binning) and
    shared by every config in that group, each of which then gets one
    adjacency build and one solve (mrmr, which has no trade-off, runs its
    greedy selection once per group).
    """
    groups: dict[tuple, list[SelectorConfig]] = {}
    for config in configs:
        groups.setdefault((config.variant, config.binning), []).append(config)
    out = {}
    for (variant, binning), group in groups.items():
        if variant == "mrmr":
            out.update(dict.fromkeys(group, mrmr_select(scaled, scaled.m, binning)))
            continue
        if scaled.m < 2:
            raise ConfigError(f"ranking needs at least 2 features, got {scaled.m}")
        cache = build_measure_cache(scaled, binning, **GRAPHS[variant].measure_flags)
        for config in group:
            adjacency = build_adjacency(cache, variant, config.fixed_alpha)
            out[config] = energy_scores(adjacency, config.c)
    return out


def _by_rank(ranking: FeatureRanking | MrmrSelection) -> tuple[np.ndarray, np.ndarray]:
    """``(order, scores_by_rank)`` of a ranking from ``rank_scaled``: the
    energy score or the greedy objective value at each rank position."""
    if isinstance(ranking, MrmrSelection):
        return np.asarray(ranking.order, dtype=np.int64), np.asarray(ranking.objective_trace)
    return ranking.order, ranking.scores[ranking.order]


def rank_features(dataset: Dataset, config: SelectorConfig) -> FeatureRanking:
    """Full pipeline for the graph-energy variants: preprocess, measure,
    build the adjacency matrix, and score.

    Deterministic for fixed inputs. Requires at least 2 features; the sifs
    variant additionally requires labels.
    """
    if config.variant not in GRAPHS:
        raise ConfigError(f"variant {config.variant!r} does not produce a graph-energy ranking")
    return rank_scaled(preprocess(dataset, config.resolved_preprocessing), [config])[config]


def selection_order(dataset: Dataset, config: SelectorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Feature ordering for any selector variant, including the greedy
    mutual-information baseline.

    Returns ``(order, scores_by_rank)`` where ``scores_by_rank[p]`` is the
    score attached to the feature at rank position ``p``: the energy score
    for graph variants, the greedy objective value for mrmr.
    """
    scaled = preprocess(dataset, config.resolved_preprocessing)
    return _by_rank(rank_scaled(scaled, [config])[config])
