"""Output checks for benchmark jobs.

A job fails when its outputs are malformed, when they differ byte for
byte from the first pass of the run, or, on the default seed, when they
disagree with the reference recorded in ``reference.json``. Rankings,
chosen alpha/cost and accuracies must match the reference exactly; scores
and AUCs match to ``SCORE_RTOL``.
"""

from __future__ import annotations

import json
import math

SCORE_RTOL = 1e-9
RANKING_HEADER = "rank,index,name,score"
ALPHAS = tuple(round(0.1 * i, 1) for i in range(11))
COSTS = (0.01, 0.1, 1.0, 10.0, 100.0)
REPORT_KEYS = {
    "variant", "chosen_alpha", "chosen_classifier_cost", "fold_seed", "n_requested",
    "n_evaluated", "per_n_accuracy", "per_n_auc", "avg", "max",
}
# The greedy mRMR objective is not monotone along the selection order, so
# only the graph-energy rankings must have non-increasing scores.
MONOTONE_VARIANTS = ("ifs", "mifs", "sifs")


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def parse_ranking(text: str, m: int, variant: str) -> dict:
    lines = text.split("\n")
    _require(lines[-1] == "", "ranking does not end with a newline")
    lines = lines[:-1]
    _require(lines[:1] == [RANKING_HEADER], "ranking header missing")
    rows = lines[1:]
    _require(len(rows) == m, f"ranking has {len(rows)} rows, expected {m}")
    order, scores = [], []
    for pos, line in enumerate(rows):
        cells = line.split(",")
        _require(len(cells) == 4, f"ranking row {pos + 1} has {len(cells)} cells")
        rank, index, name, score = cells
        _require(rank == str(pos + 1), f"ranking row {pos + 1} has rank {rank!r}")
        _require(name == f"f{index}", f"ranking row {pos + 1} names {name!r} for index {index}")
        value = float(score)
        _require(math.isfinite(value), f"ranking row {pos + 1} has score {score!r}")
        order.append(int(index))
        scores.append(value)
    _require(sorted(order) == list(range(m)), "ranking is not a permutation of the features")
    if variant in MONOTONE_VARIANTS:
        _require(
            all(a >= b for a, b in zip(scores, scores[1:])), "ranking scores increase"
        )
    return {"order": order, "scores": scores}


def parse_report(json_text: str, txt_text: str, variant: str, m: int, n_grid) -> dict:
    report = json.loads(json_text)
    _require(set(report) == REPORT_KEYS, f"report keys {sorted(report)}")
    _require(report["variant"] == variant, f"report variant {report['variant']!r}")
    n_eval = sorted({min(n, m) for n in n_grid})
    _require(report["n_evaluated"] == n_eval, f"n_evaluated {report['n_evaluated']}")
    _require(report["n_requested"] == list(n_grid), f"n_requested {report['n_requested']}")
    _require(report["chosen_alpha"] in ALPHAS, f"chosen_alpha {report['chosen_alpha']!r}")
    _require(
        report["chosen_classifier_cost"] in COSTS,
        f"chosen_classifier_cost {report['chosen_classifier_cost']!r}",
    )
    accs = report["per_n_accuracy"]
    _require(list(accs) == [str(n) for n in n_eval], "per_n_accuracy keys")
    values = list(accs.values())
    _require(all(0.0 <= a <= 1.0 for a in values), "accuracy outside [0, 1]")
    _require(math.isclose(report["avg"], math.fsum(values) / len(values), abs_tol=1e-12), "avg")
    _require(report["max"] == max(values), "max")

    expected = [
        f"variant={variant}",
        f"chosen_alpha={report['chosen_alpha']!r}",
        f"chosen_classifier_cost={report['chosen_classifier_cost']!r}",
        f"fold_seed={report['fold_seed']}",
        "n_requested=" + ",".join(map(str, report["n_requested"])),
        "n_evaluated=" + ",".join(map(str, n_eval)),
    ]
    expected += [f"accuracy_n{n}={accs[str(n)]!r}" for n in n_eval]
    if report["per_n_auc"] is not None:
        expected += [f"auc_n{n}={report['per_n_auc'][str(n)]!r}" for n in n_eval]
    expected += [f"avg={report['avg']!r}", f"max={report['max']!r}"]
    _require(txt_text == "\n".join(expected) + "\n", "report.txt disagrees with report.json")
    return report


def job_facts(job, outputs: dict[str, str], stdout: str, m: int) -> dict:
    """Parse and validate one job's outputs; raises CheckError."""
    if job.kind == "rank":
        _require(stdout == "", "rank printed to stdout")
        return parse_ranking(outputs[job.outputs[0]], m, job.variants[0])
    reports = {}
    summary = ["variant,avg,max"]
    for i, v in enumerate(job.variants):
        txt, js = job.outputs[2 * i], job.outputs[2 * i + 1]
        reports[v] = parse_report(outputs[js], outputs[txt], v, m, job.n_grid)
        summary.append(f"{v},{reports[v]['avg']!r},{reports[v]['max']!r}")
    summary_text = "\n".join(summary) + "\n"
    _require(outputs[job.outputs[-1]] == summary_text, "summary.txt disagrees with reports")
    _require(stdout == summary_text, "compare stdout")
    return {"reports": reports}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=1e-12)


def _compare_report(got: dict, ref: dict, where: str) -> None:
    for key in ("chosen_alpha", "chosen_classifier_cost", "per_n_accuracy", "avg", "max"):
        _require(got[key] == ref[key], f"{where}: {key} {got[key]!r} != reference {ref[key]!r}")
    if ref["per_n_auc"] is not None:
        _require(got["per_n_auc"] is not None, f"{where}: per_n_auc missing")
        for n, value in ref["per_n_auc"].items():
            _require(_close(got["per_n_auc"][n], value), f"{where}: auc_n{n}")


def compare_to_reference(facts: dict, ref: dict, where: str) -> None:
    if "order" in ref:
        _require(facts["order"] == ref["order"], f"{where}: ranking order differs from reference")
        for pos, (a, b) in enumerate(zip(facts["scores"], ref["scores"])):
            _require(_close(a, b), f"{where}: score at rank {pos + 1} {a!r} != {b!r}")
    for v, report in ref.get("reports", {}).items():
        _compare_report(facts["reports"][v], report, f"{where}/{v}")


def check_job(job, result, m, first=None, ref=None) -> tuple[dict | None, str | None]:
    """(facts, problem) for one job run; ``problem`` is None when it passed.

    ``result`` is the job's (outputs, stdout); ``first`` is the same pair
    from the job's first pass in this run, or None for the first pass
    itself; ``ref`` is the reference facts, or None off the default seed.
    """
    outputs, stdout = result
    try:
        if first is not None:
            _require(result == first, "outputs differ from the first pass")
        facts = job_facts(job, outputs, stdout, m)
        if ref is not None:
            compare_to_reference(facts, ref, job.name)
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        return None, f"{job.name}: {exc}"
    return facts, None


def self_test(job, result, m) -> list[str]:
    """Check deliberately broken copies of a passing job's outputs; returns
    the corruptions that the checks failed to reject."""
    outputs, stdout = result
    path = job.outputs[0]
    text = outputs[path]
    dropped = "\n".join(text.split("\n")[:-2]) + "\n"
    digit = max(i for i, ch in enumerate(text) if ch.isdigit())
    flipped = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
    missed = []
    # A dropped line must fail on structure alone; a changed digit may
    # still be well formed, so it must fail the comparison with pass 1.
    if check_job(job, ({**outputs, path: dropped}, stdout), m)[1] is None:
        missed.append("last line dropped")
    if check_job(job, ({**outputs, path: flipped}, stdout), m, first=result)[1] is None:
        missed.append("one digit changed")
    return missed
