"""Seeded synthetic workloads for the benchmark.

Every workload is a set of CLI jobs over CSV files that the generator
writes from the workload seed. The data has planted relevance: ``k``
planted columns carry a noisy linear margin, and the label in column ``y``
says whether the margin exceeds ``LABEL_OFFSET``; every other column is
independent noise. The program only
ever sees the written files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

LABEL_COLUMN = "y"
RANK_ALPHA = "0.5"
# The label is margin > LABEL_OFFSET, about 42% positive. At offset 0 some
# seeds have exactly balanced folds, where the most regularised classifier
# fits stop at once: the work per seed then fell into two groups ~40% apart.
LABEL_OFFSET = 1.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the files it writes."""

    name: str
    kind: str  # "rank" or "compare"
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    variants: tuple[str, ...]
    n_grid: tuple[int, ...] = ()  # top-N sizes of a compare report


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_test: int  # 0: a single file, used by `rank`
    m: int
    k_planted: int
    command: str
    variants: tuple[str, ...]
    n_grid: tuple[int, ...] = ()  # compare's --n-grid

    def jobs(self, workdir: str) -> list[Job]:
        train = os.path.join(workdir, "train.csv")
        test = os.path.join(workdir, "test.csv")
        out = os.path.join(workdir, "out")
        if self.command == "rank":
            return [
                Job(
                    f"rank-{v}",
                    "rank",
                    ("rank", train, "--variant", v, "--alpha", RANK_ALPHA,
                     "--label-column", LABEL_COLUMN, "--output", f"{out}.{v}.csv"),
                    (f"{out}.{v}.csv",),
                    (v,),
                )
                for v in self.variants
            ]
        outputs = []
        for v in self.variants:
            outputs += [f"{out}.{v}.report.txt", f"{out}.{v}.report.json"]
        outputs.append(f"{out}.summary.txt")
        return [
            Job(
                "compare",
                "compare",
                ("compare", train, test, "--variants", ",".join(self.variants),
                 "--alpha", "cv", "--n-grid", ",".join(map(str, self.n_grid)),
                 "--label-column", LABEL_COLUMN, "--output", out),
                tuple(outputs),
                self.variants,
                self.n_grid,
            )
        ]


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rank-wide", 500, 0, 60, 10, "rank", ("ifs", "mifs", "sifs", "mrmr")),
        Workload("rank-tall", 5_000, 0, 40, 10, "rank", ("ifs", "mifs", "sifs")),
        Workload("compare-cv", 240, 600, 48, 10, "compare", ("sifs", "mrmr"), (10,)),
    )
}


def planted_data(seed: int, n: int, m: int, k: int):
    """(values, labels, planted column indices) for one seed."""
    rng = np.random.default_rng(seed)
    planted = np.sort(rng.choice(m, size=k, replace=False))
    values = rng.normal(size=(n, m))
    w = rng.uniform(1.0, 2.0, k) * rng.choice([-1.0, 1.0], k)
    margin = values[:, planted] @ w + rng.normal(scale=0.5, size=n)
    labels = (margin > LABEL_OFFSET).astype(np.int64)
    return values, labels, planted


def _write_csv(path: str, values: np.ndarray, labels: np.ndarray) -> None:
    header = ",".join([f"f{i}" for i in range(values.shape[1])] + [LABEL_COLUMN])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        # Row by row, so the generator's memory high-water mark stays
        # below the program's.
        for row, label in zip(values, labels.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{label}\n")


def write_inputs(workload: Workload, seed: int, workdir: str) -> list[int]:
    """Write the workload's CSV files; returns the planted column indices."""
    values, labels, planted = planted_data(
        seed, workload.n_train + workload.n_test, workload.m, workload.k_planted
    )
    n = workload.n_train
    _write_csv(os.path.join(workdir, "train.csv"), values[:n], labels[:n])
    if workload.n_test:
        _write_csv(os.path.join(workdir, "test.csv"), values[n:], labels[n:])
    return planted.tolist()
