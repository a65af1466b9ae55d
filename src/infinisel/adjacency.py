"""Feature adjacency matrices for the three graph-energy selector variants.

Every variant fills entry (i, j) by one formula,
``alpha * max(rel_i, rel_j) + (1 - alpha) * (1 - red_ij)``: a convex mix of
a per-feature relevance vector ``rel`` and a pairwise redundancy term
``red`` in [0, 1]. The variants differ only in the measure blocks that feed
the two terms, and ``GRAPHS`` is the one table that says which:

    variant  relevance      redundancy red_ij
    ifs      std            |spearman_ij|
    mifs     std            min(rdn_i, rdn_j)
    sifs     relevance      |spearman_ij|

The measure step reads the same table to compute only the blocks a variant
uses. Diagonal entries follow the formula too, so a feature's perfect rank
correlation with itself zeroes the redundancy term there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import MeasureCache

# The build_measure_cache flag that produces each optional MeasureCache
# block; ``std`` is always there, the dataset's own.
_BLOCK_FLAGS = {"spearman": "need_spearman", "rdn": "need_mi_matrix", "relevance": "need_relevance"}


@dataclass(frozen=True)
class Graph:
    """One variant's inputs to the adjacency formula: the MeasureCache
    fields holding its relevance vector and its redundancy block, and the
    map from that block to the m x m redundancy term."""

    relevance: str
    redundancy: str
    pairwise: Callable[[np.ndarray], np.ndarray]

    @property
    def measure_flags(self) -> dict[str, bool]:
        """build_measure_cache flags for exactly the blocks this variant reads."""
        blocks = (self.relevance, self.redundancy)
        return {_BLOCK_FLAGS[b]: True for b in blocks if b in _BLOCK_FLAGS}


GRAPHS = {
    "ifs": Graph("std", "spearman", np.abs),
    "mifs": Graph("std", "rdn", lambda rdn: np.minimum.outer(rdn, rdn)),
    "sifs": Graph("relevance", "spearman", np.abs),
}


def _checked_matrix(a) -> np.ndarray:
    """``a`` as float64, checked square, finite, exactly symmetric and nonnegative."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be exactly symmetric")
    lo = a.min()
    if lo < -1e-9:
        raise ValueError("adjacency entries must be nonnegative")
    return np.clip(a, 0.0, None) if lo < 0 else a  # absorb float-accumulation dust


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric nonnegative matrix of pairwise feature energies."""

    a: np.ndarray
    variant: str
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "a", _checked_matrix(self.a))


def build_adjacency(cache: MeasureCache, variant: str, alpha: float) -> AdjacencyMatrix:
    """The adjacency matrix of ``variant`` at trade-off ``alpha`` in [0, 1]."""
    try:
        graph = GRAPHS[variant]
    except KeyError:
        raise ValueError(
            f"unknown adjacency variant {variant!r}; expected one of {tuple(GRAPHS)}"
        ) from None
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    for name in (graph.relevance, graph.redundancy):
        if getattr(cache, name) is None:
            raise ValueError(f"{variant} adjacency needs the {name} block")
    rel, red = getattr(cache, graph.relevance), getattr(cache, graph.redundancy)
    a = alpha * np.maximum.outer(rel, rel) + (1.0 - alpha) * (1.0 - graph.pairwise(red))
    return AdjacencyMatrix(a, variant, alpha)

