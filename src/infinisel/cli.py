"""Command-line front end: rank features, evaluate a selector on a
train/test split, or compare several selectors side by side.

Exit codes are a stable contract: 0 on success, 2 for I/O or file-parse
errors, 3 for configuration or semantic errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import SELECTOR_VARIANTS, SelectorConfig
from .dataset import Dataset, load_csv, load_libsvm
from .errors import ConfigError, DataError
from .evaluation import DEFAULT_N_GRID, EvalReport, evaluate_selector
from .measures import BinningPolicy
from .scoring import selection_order

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


def _parse_float(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{flag} must be a number, got {text!r}") from None


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{flag} must be an integer, got {text!r}") from None


def _parse_variant(text: str) -> str:
    if text not in SELECTOR_VARIANTS:
        raise ConfigError(
            f"unknown variant {text!r}; valid variants: {', '.join(SELECTOR_VARIANTS)}"
        )
    return text


def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--n-grid must be a comma-separated list of integers, got {text!r}") from None
    if not grid or any(n < 1 for n in grid):
        raise ConfigError(f"--n-grid entries must be positive, got {text!r}")
    return grid


def _config_from_args(args, variant: str, allow_cv: bool) -> tuple[SelectorConfig, int]:
    """The selector config for ``variant`` and the fold seed."""
    binning_kind = _BINNING_NAMES.get(args.binning)
    if binning_kind is None:
        raise ConfigError(f"--binning must be 'width' or 'frequency', got {args.binning!r}")
    config = SelectorConfig(
        variant=_parse_variant(variant),
        alpha=_parse_alpha(args.alpha, allow_cv),
        c=_parse_float(args.c, "--c"),
        preprocessing=args.preprocess,
        binning=BinningPolicy(binning_kind, _parse_int(args.bins, "--bins")),
    )
    seed = _parse_int(args.seed, "--seed")
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    return config, seed


def _load_dataset(path: str, args) -> Dataset:
    if args.format == "csv":
        return load_csv(path, label_column=args.label_column)
    if args.format == "libsvm":
        return load_libsvm(path)
    raise ConfigError(f"--format must be 'csv' or 'libsvm', got {args.format!r}")


def _ranking_lines(dataset: Dataset, order, scores) -> str:
    lines = ["rank,index,name,score"]
    for pos, idx in enumerate(order):
        lines.append(f"{pos + 1},{idx},{dataset.feature_name(int(idx))},{float(scores[pos])!r}")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_rank(args) -> int:
    config, _ = _config_from_args(args, args.variant, allow_cv=False)
    dataset = _load_dataset(args.input, args)
    order, scores = selection_order(dataset, config)
    _write(args.output, _ranking_lines(dataset, order, scores))
    return 0


def _run_evals(args, variants) -> list[tuple[EvalReport, str]]:
    """Evaluate each variant in turn on one load of the train/test split;
    returns each report with its ranking file text."""
    settings = [_config_from_args(args, v, allow_cv=True) for v in variants]
    d_train = _load_dataset(args.train, args)
    d_test = _load_dataset(args.test, args)
    n_grid = _parse_n_grid(args.n_grid)
    results = []
    for config, seed in settings:
        report, (order, scores) = evaluate_selector(
            d_train, d_test, config, n_grid=n_grid, seed=seed, return_ranking=True
        )
        results.append((report, _ranking_lines(d_train, order, scores)))
    return results


def cmd_eval(args) -> int:
    [(report, ranking_text)] = _run_evals(args, [args.variant])
    base = args.output
    _write(f"{base}.report.txt", report.to_text())
    _write(f"{base}.report.json", report.to_json())
    _write(f"{base}.ranking.csv", ranking_text)
    sys.stdout.write(f"avg={report.avg!r} max={report.max!r}\n")
    return 0


def cmd_compare(args) -> int:
    variants = tuple(tok.strip() for tok in args.variants.split(",") if tok.strip())
    if not variants:
        raise ConfigError("--variants must list at least one variant")
    for v in variants:
        _parse_variant(v)
    # Every variant is evaluated before any file is written.
    results = _run_evals(args, variants)

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


def _add_common_flags(sub, default_alpha: str) -> None:
    sub.add_argument("--variant", default="mifs", help="selector: ifs, mifs, sifs, or mrmr")
    sub.add_argument("--alpha", default=default_alpha,
                     help="relevance/redundancy trade-off in [0, 1], or 'cv' (eval/compare only)")
    sub.add_argument("--c", default="0.9", help="regularization fraction in (0, 1)")
    sub.add_argument("--preprocess", default="auto",
                     choices=("none", "normalize", "standardize", "auto"),
                     help="per-feature preprocessing; 'auto' resolves per variant")
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

    rank = commands.add_parser("rank", help="rank all features of a dataset")
    rank.add_argument("input", help="dataset file")
    _add_common_flags(rank, default_alpha="0.5")
    rank.add_argument("--output", default="-", help="ranking file path ('-' for stdout)")
    rank.set_defaults(func=cmd_rank)

    ev = commands.add_parser("eval", help="evaluate one selector on a train/test split")
    ev.add_argument("train", help="training split")
    ev.add_argument("test", help="test split")
    _add_common_flags(ev, default_alpha="cv")
    ev.add_argument("--n-grid", default=",".join(str(n) for n in DEFAULT_N_GRID),
                    help="comma-separated top-N sizes")
    ev.add_argument("--output", required=True,
                    help="base path; writes <base>.report.txt/.json and <base>.ranking.csv")
    ev.set_defaults(func=cmd_eval)

    comp = commands.add_parser("compare", help="evaluate several selectors side by side")
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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
