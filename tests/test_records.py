"""Equality and hashing of the package's records.

Records that hold arrays compare and hash by identity: a generated field-wise
``==`` would compare arrays and raise on any of more than one element. Records
of plain values keep value equality, and the hashable ones serve as dict keys.
"""

import dataclasses

import numpy as np
import pytest

from infinisel import (
    AdjacencyMatrix,
    BinningPolicy,
    Dataset,
    EvalReport,
    MrmrSelection,
    SelectorConfig,
    build_measure_cache,
    energy_scores,
    fit_scaler,
)
from infinisel.adjacency import GRAPHS
from infinisel.evaluation import fit_classifier

VALUES = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 2.0], [2.0, 3.0, 1.0], [4.0, 2.0, 0.0]])
MATRIX = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.7], [0.2, 0.7, 0.0]])


def build(kind):
    """A fresh record of ``kind`` from the same arrays on every call."""
    if kind == "Dataset":
        return Dataset(VALUES, labels=[0, 1, 0, 1])
    if kind == "FeatureScaler":
        return fit_scaler(Dataset(VALUES), "standardize")
    if kind == "FeatureRanking":
        return energy_scores(MATRIX, 0.5)
    if kind == "AdjacencyMatrix":
        return AdjacencyMatrix(MATRIX)
    if kind == "MeasureCache":
        return build_measure_cache(Dataset(VALUES, labels=[0, 1, 0, 1]), BinningPolicy(bin_count=2),
                                   need_mi_matrix=True, need_spearman=True, need_relevance=True)
    if kind == "LinearClassifier":
        return fit_classifier(VALUES, np.array([0, 1, 0, 1]), 1.0)
    assert kind == "_OneVsRest"
    return fit_classifier(VALUES, np.array([0, 1, 2, 1]), 1.0)


@pytest.mark.parametrize("kind", ["Dataset", "FeatureScaler", "FeatureRanking", "AdjacencyMatrix",
                                  "MeasureCache", "LinearClassifier", "_OneVsRest"])
def test_array_records_compare_and_hash_by_identity(kind):
    record, twin = build(kind), build(kind)
    assert type(record).__name__ == kind
    assert record == record
    assert record != twin
    assert hash(record) == object.__hash__(record)
    assert record in {record} and twin not in {record}


def test_value_records_keep_value_equality():
    config = SelectorConfig(variant="ifs", alpha=0.5)
    policy = BinningPolicy(bin_count=4)
    keys = {config: "config", policy: "policy"}
    assert keys[SelectorConfig(variant="ifs", alpha=0.5)] == "config"
    assert keys[BinningPolicy(bin_count=4)] == "policy"
    assert hash(config) == hash(SelectorConfig(variant="ifs", alpha=0.5))
    assert dataclasses.replace(GRAPHS["ifs"]) == GRAPHS["ifs"]
    assert MrmrSelection((2, 0, 1), (0.5, 0.25, 0.1)) == MrmrSelection((2, 0, 1), (0.5, 0.25, 0.1))
    assert MrmrSelection((2, 0, 1), (0.5, 0.25, 0.1)) != MrmrSelection((0, 2, 1), (0.5, 0.25, 0.1))
    fields = dict(variant="ifs", chosen_alpha=0.5, chosen_classifier_cost=1.0, fold_seed=0,
                  n_requested=(1, 2), n_evaluated=(1, 2), per_n_accuracy={1: 0.5, 2: 0.75}, avg=0.625, max=0.75)
    assert EvalReport(**fields) == EvalReport(**fields)
    assert EvalReport(**fields) != EvalReport(**{**fields, "avg": 0.5})
