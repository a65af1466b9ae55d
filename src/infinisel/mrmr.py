"""Greedy minimum-redundancy maximum-relevance feature selection.

The difference criterion is used: each step adds the feature maximizing
``MI(f; Y) - mean_{s in S} MI(f; s)`` over the already-selected set ``S``.
Mutual information here is the raw (unnormalized) plug-in estimate, with
features discretized by the binning policy and labels used as-is. The MI
kernel of ``measures`` gives it in two calls: the symmetric block of every
feature pair, and the relevance of every feature to the labels. Ties are
broken by ascending feature index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .measures import BinningPolicy, _code_type, _label_pairs, _mi_pairs, _mi_table, _pair_block


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

    table = _mi_table(dataset.values, policy, dtype=_code_type(policy, dataset.n))
    relevance = _label_pairs(_mi_pairs, table, dataset.labels)
    mi = _pair_block(table, _mi_pairs)  # raw MI of every pair; it is exactly symmetric

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
