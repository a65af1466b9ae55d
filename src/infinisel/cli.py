"""Command-line front end: rank features, evaluate a selector on a
train/test split, or compare several selectors side by side.

Exit codes are a stable contract: 0 on success, 2 for I/O or file-parse
errors, 3 for configuration or semantic errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import SELECTOR_VARIANTS, SelectorConfig
from .dataset import Dataset, load_csv, load_libsvm, preprocess
from .errors import ConfigError, DataError
from .evaluation import DEFAULT_N_GRID, _evaluate
from .measures import BinningPolicy
from .scoring import _by_rank, rank_scaled

_BINNING_NAMES = {"width": "equal_width", "frequency": "equal_frequency"}


def _parse_alpha(text: str, allow_cv: bool):
    if text == "cv":
        if not allow_cv:
            raise ConfigError("this command needs a numeric --alpha; 'cv' is only valid for eval/compare")
        return "cv"
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--alpha must be a number in [0, 1] or 'cv', got {text!r}") from None


def _parse_number(text: str, flag: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{flag} must be {noun}, got {text!r}") from None


def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--n-grid must be a comma-separated list of integers, got {text!r}") from None
    if not grid or any(n < 1 for n in grid):
        raise ConfigError(f"--n-grid entries must be positive, got {text!r}")
    return grid


def _configs_from_args(args, variants, allow_cv: bool) -> tuple[list[SelectorConfig], int]:
    """The selector config for each of ``variants`` and the fold seed."""
    binning_kind = _BINNING_NAMES.get(args.binning)
    if binning_kind is None:
        raise ConfigError(f"--binning must be 'width' or 'frequency', got {args.binning!r}")
    configs = [
        SelectorConfig(
            variant=variant,
            alpha=_parse_alpha(args.alpha, allow_cv),
            c=_parse_number(args.c, "--c"),
            preprocessing=args.preprocess,
            binning=BinningPolicy(binning_kind, _parse_number(args.bins, "--bins", int)),
        )
        for variant in variants
    ]
    seed = _parse_number(args.seed, "--seed", int)
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    return configs, seed


def _load_dataset(path: str, args) -> Dataset:
    try:
        if args.format == "csv":
            return load_csv(path, label_column=args.label_column)
        if args.format == "libsvm":
            return load_libsvm(path)
    except DataError as exc:
        # eval and compare read two files; a cell error alone would not say which.
        if path in str(exc):
            raise
        raise DataError(f"{path}: {exc}") from None
    raise ConfigError(f"--format must be 'csv' or 'libsvm', got {args.format!r}")


def _ranking_lines(dataset: Dataset, order, scores) -> str:
    lines = ["rank,index,name,score"]
    for pos, idx in enumerate(order):
        name = dataset.feature_name(int(idx))
        if any(c in name for c in ',"\r\n'):  # quoted as csv.writer's default dialect quotes it
            name = '"' + name.replace('"', '""') + '"'
        lines.append(f"{pos + 1},{idx},{name},{float(scores[pos])!r}")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    # UTF-8 whatever the locale, as the loaders read.
    if path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # an in-memory text stream
        sys.stdout.write(text)


def cmd_rank(args) -> int:
    [config], _ = _configs_from_args(args, [args.variant], allow_cv=False)
    # selection_order's steps, with the raw matrix freed once it is scaled,
    # before ranking: ``scaled`` carries the same names.
    scaled = preprocess(_load_dataset(args.input, args), config.resolved_preprocessing)
    order, scores = _by_rank(rank_scaled(scaled, [config])[config])
    _write(args.output, _ranking_lines(scaled, order, scores))
    return 0


def _run_evals(args, variants):
    """Evaluate the variants on one load of the train/test split and one
    fold plan; returns the training split and, per variant, the report
    with the ranking order and scores on the training split."""
    configs, seed = _configs_from_args(args, variants, allow_cv=True)
    d_train = _load_dataset(args.train, args)
    d_test = _load_dataset(args.test, args)
    n_grid = _parse_n_grid(args.n_grid)
    return d_train, _evaluate(d_train, d_test, configs, n_grid, seed)


def cmd_eval(args) -> int:
    d_train, [(report, (order, scores))] = _run_evals(args, [args.variant])
    base = args.output
    _write(f"{base}.report.txt", report.to_text())
    _write(f"{base}.report.json", report.to_json())
    _write(f"{base}.ranking.csv", _ranking_lines(d_train, order, scores))
    sys.stdout.write(f"avg={report.avg!r} max={report.max!r}\n")
    return 0


def cmd_compare(args) -> int:
    variants = tuple(tok.strip() for tok in args.variants.split(",") if tok.strip())
    if not variants:
        raise ConfigError("--variants must list at least one variant")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        raise ConfigError(f"--variants lists {', '.join(repeated)} more than once")
    # Every variant is evaluated before any file is written.
    _, results = _run_evals(args, variants)

    base = args.output
    summary = ["variant,avg,max"]
    for variant, (report, _) in zip(variants, results):
        _write(f"{base}.{variant}.report.txt", report.to_text())
        _write(f"{base}.{variant}.report.json", report.to_json())
        summary.append(f"{variant},{report.avg!r},{report.max!r}")
    summary_text = "\n".join(summary) + "\n"
    _write(f"{base}.summary.txt", summary_text)
    sys.stdout.write(summary_text)
    return 0


_VARIANT_HELP = "selector: ifs, mifs, sifs, or mrmr"


def _add_common_flags(sub, default_alpha: str) -> None:
    sub.add_argument("--alpha", default=default_alpha,
                     help="relevance/redundancy trade-off in [0, 1], or 'cv' (eval/compare only)")
    sub.add_argument("--c", default="0.9", help="regularization fraction in (0, 1)")
    sub.add_argument("--preprocess", default="auto",
                     help="preprocessing for ranking: none, normalize, standardize, or auto "
                          "(resolves per variant)")
    sub.add_argument("--bins", default="10", help="histogram bin count for mutual information")
    sub.add_argument("--binning", default="frequency", help="binning rule: width or frequency")
    sub.add_argument("--label-column", default=None, help="CSV column holding class labels")
    sub.add_argument("--format", default="csv", help="input format: csv or libsvm")
    sub.add_argument("--seed", default="0", help="seed for fold assignment")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infinisel",
        description="Feature ranking by graph walk energies, with evaluation tools.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # Flags in full: with abbreviations, a flag that shares a prefix with
    # another (--variant, --variants) would silently change what a command
    # line means.
    add_command = functools.partial(commands.add_parser, allow_abbrev=False)

    rank = add_command("rank", help="rank all features of a dataset")
    rank.add_argument("input", help="dataset file")
    rank.add_argument("--variant", default="mifs", help=_VARIANT_HELP)
    _add_common_flags(rank, default_alpha="0.5")
    rank.add_argument("--output", default="-", help="ranking file path ('-' for stdout)")
    rank.set_defaults(func=cmd_rank)

    ev = add_command("eval", help="evaluate one selector on a train/test split")
    ev.add_argument("train", help="training split")
    ev.add_argument("test", help="test split")
    ev.add_argument("--variant", default="mifs", help=_VARIANT_HELP)
    _add_common_flags(ev, default_alpha="cv")
    ev.add_argument("--n-grid", default=",".join(str(n) for n in DEFAULT_N_GRID),
                    help="comma-separated top-N sizes")
    ev.add_argument("--output", required=True,
                    help="base path; writes <base>.report.txt/.json and <base>.ranking.csv")
    ev.set_defaults(func=cmd_eval)

    comp = add_command("compare", help="evaluate several selectors side by side")
    comp.add_argument("train", help="training split")
    comp.add_argument("test", help="test split")
    _add_common_flags(comp, default_alpha="cv")
    comp.add_argument("--n-grid", default=",".join(str(n) for n in DEFAULT_N_GRID),
                      help="comma-separated top-N sizes")
    comp.add_argument("--variants", default=",".join(SELECTOR_VARIANTS),
                      help="comma-separated list of variants to compare")
    comp.add_argument("--output", required=True,
                      help="base path; writes <base>.<variant>.report.* and <base>.summary.txt")
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
