"""Greedy minimum-redundancy maximum-relevance feature selection.

The difference criterion is used: each step adds the feature maximizing
``MI(f; Y) - mean_{s in S} MI(f; s)`` over the already-selected set ``S``.
Mutual information here is the raw (unnormalized) plug-in estimate, with
features discretized by the binning policy and labels used as-is; one block
holds it for every feature pair. Ties are broken by ascending feature index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .measures import BinningPolicy, _label_state, _mi, _mi_states, _symmetric_block


@dataclass(frozen=True)
class MrmrSelection:
    """Result of a greedy run: selection order and the objective value at
    each step (the first entry is the maximum label relevance)."""

    order: tuple[int, ...]
    objective_trace: tuple[float, ...]


def mrmr_select(dataset: Dataset, k: int, policy: BinningPolicy) -> MrmrSelection:
    """Select ``k`` features greedily under the difference criterion."""
    if dataset.labels is None:
        raise ConfigError("mrmr requires a labeled dataset")
    m = dataset.m
    if not 1 <= k <= m:
        raise ConfigError(f"k must be in [1, {m}], got {k}")

    states = _mi_states(dataset.values, policy)
    label = _label_state(dataset.labels)
    relevance = np.array([_mi(state, label) for state in states])
    mi = _symmetric_block(states, _mi)  # raw MI of every pair; _mi is exactly symmetric

    order: list[int] = []
    trace: list[float] = []
    redundancy_sum = np.zeros(m)

    for step in range(k):
        # At step 0 the sum is 0.0, and x - 0.0 / 1 is x bitwise.
        scores = relevance - redundancy_sum / max(step, 1)
        scores[order] = -np.inf  # already selected
        best = int(np.argmax(scores))  # first max wins: ascending-index ties
        order.append(best)
        trace.append(float(scores[best]))
        redundancy_sum += mi[best]  # in pick order: left-to-right sums

    return MrmrSelection(tuple(order), tuple(trace))
