"""Greedy minimum-redundancy maximum-relevance feature selection.

The difference criterion is used: each step adds the feature maximizing
``MI(f; Y) - mean_{s in S} MI(f; s)`` over the already-selected set ``S``.
Mutual information here is the raw (unnormalized) plug-in estimate, with
features discretized by the binning policy and labels used as-is. Ties are
broken by ascending feature index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .measures import BinningPolicy, _mi, discretize, label_codes


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

    codes = [discretize(dataset.values[:, i], policy) for i in range(m)]
    cy, by = label_codes(dataset.labels)
    relevance = np.array([_mi(ci, bi, cy, by) for ci, bi in codes])

    order: list[int] = []
    trace: list[float] = []
    remaining = list(range(m))
    redundancy_sum = np.zeros(m)

    for step in range(k):
        if step == 0:
            scores = relevance[remaining]
        else:
            scores = relevance[remaining] - redundancy_sum[remaining] / step
        pos = int(np.argmax(scores))  # first max wins: ascending-index ties
        best = remaining[pos]
        order.append(best)
        trace.append(float(scores[pos]))
        remaining.pop(pos)
        if remaining and step + 1 < k:
            for f in remaining:
                redundancy_sum[f] += _mi(*codes[f], *codes[best])

    return MrmrSelection(tuple(order), tuple(trace))
