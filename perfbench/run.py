"""Benchmark for the infinisel command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rank-wide --seed 0 --seconds 30 --trace 0

One process runs one workload. It imports the package from ``src/`` of the
checkout, writes the workload's CSV inputs from the seed, then runs passes
over the workload's CLI jobs through ``infinisel.cli.main``: at least
three, then until the next pass would overrun ``--seconds``. Every output
is checked. End-to-end times are scaled to a reference CPU speed (see
``CpuSpeed``). With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes, and the spans are written to
``.bench_run/spans-<workload>-seed<seed>.json``.

``--record-reference`` (default seed only) stores the outputs of this run
in ``perfbench/reference.json`` as the reference later runs must match.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_job, self_test
from tracer import METRICS as LAYER_METRICS
from tracer import Tracer, layer_report, pass_metrics
from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Every run makes at least this many passes, even past --seconds: the
# byte-identity check needs a second pass, each job's fastest run needs
# samples, and with --trace 1 two traced passes show that counts repeat.
MIN_PASSES = 3


def blas_threads() -> str:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return "unknown"


def fresh_import_s(src: Path) -> float:
    """Seconds a new interpreter takes to import the CLI from ``src``."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import infinisel.cli; print(time.perf_counter() - start)")
    child = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


# The probe: a fixed pure-Python loop of about 2 ms.
PROBE_STEPS = 30_000
# The fastest probe on the machine the benchmark was written on (a 2-vCPU
# Xeon KVM guest, Python 3.11). Times are reported at this speed.
REFERENCE_PROBE_S = 1.75e-3


def probe_s() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(PROBE_STEPS):
        total += i * 0.5
    return time.perf_counter() - start


class CpuSpeed:
    """How fast this run's CPUs are, from the probe loop.

    On a shared host each virtual CPU is slowed by other tenants,
    independently of the others, in spells of a second to minutes, and
    even its fastest speed moves by 5-10% from one spell to the next. The
    probe runs on every CPU before each job. A ``rank`` job, which runs in
    one thread, is pinned to the CPU that was quickest. The run's fastest
    probe tracks the fastest speed the jobs could reach: every time the
    benchmark reports is scaled by ``scale`` to the speed at which the probe
    takes ``REFERENCE_PROBE_S``.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.fastest_s = float("inf")

    def probe(self) -> int:
        """Probe every CPU; returns the quickest. Leaves affinity unchanged."""
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = probe_s()
        os.sched_setaffinity(0, self.cpus)
        self.fastest_s = min(self.fastest_s, *times.values())
        return min(times, key=times.get)

    @property
    def scale(self) -> float:
        return REFERENCE_PROBE_S / self.fastest_s


def run_pass(jobs, cli_main, speed: CpuSpeed) -> tuple[list, list, list]:
    """Run every job once; returns per-job wall s, process CPU s and results.

    A result is (exit code or error text, outputs by path, stdout, stderr).
    """
    for job in jobs:
        for path in job.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    raw, walls, cpus = [], [], []
    for job in jobs:
        cpu = speed.probe()
        if job.kind == "rank":
            os.sched_setaffinity(0, {cpu})
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu0)
        os.sched_setaffinity(0, speed.cpus)
        raw.append((code, out.getvalue(), err.getvalue()))
    results = []
    for job, (code, stdout, stderr) in zip(jobs, raw):
        outputs = {}
        for path in job.outputs:
            with contextlib.suppress(FileNotFoundError), open(path) as fh:
                outputs[path] = fh.read()
        results.append((code, outputs, stdout, stderr))
    return walls, cpus, results


def job_time(job, samples) -> float:
    """One job's time in a run, from its time in each pass.

    A ``rank`` job runs in one thread on the quickest CPU, so its runs vary
    only with other tenants' load: its fastest run is taken. ``compare``
    runs worker threads whose scheduling varies from run to run as part of
    the program's behaviour: its median run is taken.
    """
    return min(samples) if job.kind == "rank" else statistics.median(samples)


def planted_auc(order: list[int], planted: list[int]) -> float:
    """Share of (planted, unplanted) feature pairs ranked planted-first."""
    planted = set(planted)
    above = unplanted_seen = 0
    for f in order:
        if f in planted:
            above += len(order) - len(planted) - unplanted_seen
        else:
            unplanted_seen += 1
    return above / (len(planted) * (len(order) - len(planted)))


def quality(workload, facts: dict, planted: list[int]) -> tuple[float, str]:
    """The workload's selection-quality figure and what it is."""
    if workload.command == "rank":
        aucs = [planted_auc(facts[f"rank-{v}"]["order"], planted)
                for v in workload.variants if v in ("sifs", "mrmr")]
        return statistics.fmean(aucs), "planted AUC of the sifs/mrmr rankings"
    (f,) = facts.values()
    return statistics.fmean(r["avg"] for r in f["reports"].values()), "test_acc_avg"


@dataclass
class Measurement:
    """What one run saw: per pass, each job's wall and CPU seconds."""

    walls: list[list[float]] = field(default_factory=list)
    cpus: list[list[float]] = field(default_factory=list)
    traced: list[tuple[dict, dict]] = field(default_factory=list)  # (times, counts) per traced pass
    facts: dict[str, dict] = field(default_factory=dict)  # parsed outputs of each job's first pass
    failures: list[str] = field(default_factory=list)  # failed job runs
    problems: list[str] = field(default_factory=list)  # run-level problems
    tracer: Tracer | None = None

    @property
    def pass_walls(self) -> list[float]:
        return [sum(p) for p in self.walls]


def measure(jobs, m, seconds, trace, cli_main, reference, speed: CpuSpeed) -> Measurement:
    """Run at least ``MIN_PASSES`` passes, then stop before the next one
    would overrun ``seconds``.

    With tracing, pass 1 runs untraced, for the overhead and for the check
    that tracing leaves outputs byte-identical.
    """
    run = Measurement(tracer=Tracer() if trace else None)
    tracer = run.tracer
    first: dict[str, tuple] = {}
    start = time.perf_counter()
    while True:
        if tracer and len(run.walls) == 1:
            tracer.install()
        if tracer:
            tracer.pass_index = len(run.walls)
            n_spans = len(tracer.spans)
        job_walls, job_cpus, results = run_pass(jobs, cli_main, speed)
        run.walls.append(job_walls)
        run.cpus.append(job_cpus)
        if tracer and len(run.walls) > 1:
            run.traced.append(pass_metrics(tracer.spans[n_spans:]))
        for job, (code, outputs, stdout, stderr) in zip(jobs, results):
            if code != 0:
                tail = stderr.strip().splitlines()[-1:] or [""]
                run.failures.append(f"{job.name}: exit {code!r} {tail[0]}")
                continue
            result = (outputs, stdout)
            seen = job.name in first
            got, problem = check_job(
                job, result, m, first.get(job.name), None if seen else reference.get(job.name)
            )
            if problem:
                run.failures.append(problem)
            elif not seen:
                first[job.name] = result
                run.facts[job.name] = got
                missed = self_test(job, result, m)
                if missed:
                    run.problems.append(f"{job.name}: checks missed corruption: {', '.join(missed)}")
        elapsed = time.perf_counter() - start
        if len(run.walls) >= MIN_PASSES and elapsed + sum(job_walls) > seconds:
            break
    if tracer:
        tracer.uninstall()
        if any(counts != run.traced[0][1] for _, counts in run.traced):
            run.problems.append("layer counts differ between traced passes")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "infinisel" / "__init__.py").is_file():
        print(f"error: no infinisel package under {src}", file=sys.stderr)
        return 2
    # compare runs with the CLI's default worker count, as users get it.
    threads_env = os.environ.pop("INFINISEL_THREADS", None)

    speed = CpuSpeed()
    # Each import is timed in a fresh interpreter: this one has numpy
    # loaded already.
    import_s = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        import_s.append(fresh_import_s(src))
    sys.path.insert(0, str(src))
    import infinisel.cli

    if Path(infinisel.cli.__file__).resolve().parent != src / "infinisel":
        print(f"error: imported infinisel from {infinisel.cli.__file__}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_run" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            speed.probe()
            t0 = time.perf_counter()
            planted = write_inputs(workload, args.seed, str(workdir))
            gen_s.append(time.perf_counter() - t0)

        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference = {}
        if args.seed == DEFAULT_SEED and not args.record_reference:
            reference = stored.get(workload.name, {})
        jobs = workload.jobs(str(workdir))
        run = measure(jobs, workload.m, args.seconds, args.trace, infinisel.cli.main,
                      reference.get("outputs", {}), speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {workload.name}, seed {args.seed}: n={workload.n_train}"
          f"{'/' + str(workload.n_test) if workload.n_test else ''}, m={workload.m}, "
          f"{workload.k_planted} planted {planted}")
    print(f"jobs: {', '.join(job.name for job in jobs)}")
    print(f"INFINISEL_THREADS={'unset' if threads_env is None else threads_env + ' (unset for the run)'}"
          f" -> CLI default; BLAS threads={blas_threads()}")
    pass_walls = run.pass_walls
    print("pass walls (s): " + " ".join(f"{w:.3f}" for w in pass_walls)
          + (" (pass 1 untraced)" if args.trace else ""))
    print(f"fastest probe on CPUs {speed.cpus}: {speed.fastest_s * 1e3:.3f} ms; times are "
          f"scaled by {speed.scale:.4f} to a {REFERENCE_PROBE_S * 1e3:g} ms probe")
    for problem in run.failures + run.problems:
        print(f"FAILED {problem}")
    attempted = len(jobs) * len(pass_walls)
    failed = len(run.failures)
    print(f"error_rate = {failed / attempted:.4g} ({failed} of {attempted} job runs failed)")

    if args.trace:
        overhead = statistics.median(pass_walls[1:]) - pass_walls[0]
        metrics = {name: (value, LAYER_METRICS[name])
                   for name, value in layer_report(run.traced, overhead).items()}
        if run.tracer.absent:
            print(f"absent layers (read 0): {', '.join(run.tracer.absent)}")
        counts = run.traced[0][1]
        if "counts" in reference:
            moved = sorted(k for k in counts.keys() | reference["counts"].keys()
                           if counts.get(k) != reference["counts"].get(k))
            print("counts against the seed-commit reference: "
                  + (f"differ in {', '.join(moved)}" if moved else "identical"))
        spans_path = ROOT / ".bench_run" / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "absent": run.tracer.absent,
            "pass_walls": pass_walls, "spans": [s.to_json() for s in run.tracer.spans],
        }))
        print(f"spans: {len(run.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        score, what = (0.0, "n/a")
        if len(run.facts) == len(jobs):
            score, what = quality(workload, run.facts, planted)
        setup_s = statistics.median(import_s) + statistics.median(gen_s)
        wall_s = sum(map(job_time, jobs, zip(*run.walls)))
        cpu_s = sum(map(job_time, jobs, zip(*run.cpus)))
        metrics = {
            "setup_s": (setup_s * speed.scale, "s"),
            "wall_s": (wall_s * speed.scale, "s"),
            "cpu_s": (cpu_s * speed.scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "quality": (score, "share"),
        }
        print(f"setup_s: median of {SETUP_REPEATS} fresh-interpreter package imports "
              + " ".join(f"{t:.3f}" for t in import_s)
              + f" + median of {SETUP_REPEATS} input writes " + " ".join(f"{t:.3f}" for t in gen_s)
              + f" = {setup_s:.4f} s unscaled")
        print(f"wall_s, cpu_s: per job, the fastest rank run or the median compare run of "
              f"{len(pass_walls)} passes, summed over jobs = {wall_s:.4f} s, {cpu_s:.4f} s "
              f"unscaled (median pass wall {statistics.median(pass_walls):.3f} s); quality = {what}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    correct = not run.failures and not run.problems
    if args.record_reference:
        if args.seed != DEFAULT_SEED or not correct:
            print("error: a reference is recorded only from a clean run on the default seed",
                  file=sys.stderr)
            return 2
        entry = {"outputs": run.facts}
        if args.trace:
            entry["counts"] = run.traced[0][1]
        stored[workload.name] = entry
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
