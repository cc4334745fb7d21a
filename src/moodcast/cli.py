"""Command-line interface.

Each stage subcommand (ingest, score, smooth, correlate, forecast, suite,
surrogate) reads its inputs from files and calls the code that ``run``
calls for that stage: a stage function of ``moodcast.pipeline``, or for
correlate and plain-series smoothing the analysis function and its writer.
report renders a finished run.
Exit codes: 0 success, 2 input or parse error, 3 analysis precondition
error, 4 internal error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional

from .analysis import NumericSeries, hamming_smooth, rolling_correlation
from .emotion import COMPONENTS, component_series
from .errors import InputFormatError
from .forecast import EXOGENOUS_MODELS, MODEL_NAMES
from .ingest import parse_messages
from .lexicon import load_lexicon
from .pipeline import (
    GAP_POLICIES,
    PipelineConfig,
    fill_gaps,
    ingest_stage,
    run_pipeline,
    score_stage,
    smooth_emotion,
    suite_stage,
    surrogate_stage,
)
from .reports import (
    ATTITUDE_HEADER,
    EMOTION_HEADER,
    load_attitude_series,
    read_buckets_json,
    read_emotion_csv,
    read_header,
    read_series_csv,
    render_run_report,
    write_correlation_csv,
    write_series_csv,
)
from .version import PACKAGE_VERSION

logger = logging.getLogger(__name__)

# Emotion table column name (``valence_mean``) -> component name (``mean-valence``).
_EMOTION_COLUMNS = {"_".join(reversed(name.split("-"))): name for name in COMPONENTS}


def _wrote(paths: list[Path]) -> int:
    for path in paths:
        print(f"wrote {path}")
    return 0


def _load_series_column(path: Path, column: Optional[str]) -> NumericSeries:
    """Load one numeric column from an emotion table or a two-column series CSV."""
    if read_header(path) != EMOTION_HEADER:
        return read_series_csv(path)
    choices = ", ".join(sorted(_EMOTION_COLUMNS))
    if column is None:
        raise ValueError(f"{path} is an emotion table; pick a column from {choices}")
    if column not in _EMOTION_COLUMNS:
        raise ValueError(f"unknown emotion column {column!r}; choose from {choices}")
    series = read_emotion_csv(path)
    return component_series(series)[_EMOTION_COLUMNS[column]]


def _load_forecast_inputs(args) -> tuple[NumericSeries, dict[str, NumericSeries]]:
    target = read_series_csv(Path(args.attitude_series))
    emotion = read_emotion_csv(Path(args.emotion_series))
    return target, component_series(emotion)


def _cmd_ingest(args) -> int:
    tally = parse_messages(Path(args.messages))
    *_, paths = ingest_stage(tally, Path(args.out), min_messages=args.min_messages)
    return _wrote(paths)


def _cmd_score(args) -> int:
    lexicon = load_lexicon(Path(args.lexicon))
    buckets = read_buckets_json(Path(args.buckets))
    *_, paths = score_stage(buckets, lexicon, Path(args.out))
    return _wrote(paths)


def _cmd_smooth(args) -> int:
    path, out = Path(args.series), Path(args.out)
    header = read_header(path)
    if header == EMOTION_HEADER:
        series = read_emotion_csv(path)
        components, _ = fill_gaps(component_series(series), args.gap_policy)
        smooth_emotion(components, series, out, window=args.smooth_window)
    else:
        attitude = tuple(cell.strip() for cell in header) == ATTITUDE_HEADER
        series = load_attitude_series(path, missing_ok=True) if attitude else read_series_csv(path)
        name = header[1]
        filled, _ = fill_gaps({name: series}, args.gap_policy)
        write_series_csv(out, hamming_smooth(filled[name], args.smooth_window), name)
    return _wrote([out])


def _cmd_correlate(args) -> int:
    series_a = _load_series_column(Path(args.series_a), args.column_a)
    series_b = _load_series_column(Path(args.series_b), args.column_b)
    track = rolling_correlation(series_a, series_b, args.corr_window, args.alpha)
    write_correlation_csv(Path(args.out), track)
    return _wrote([Path(args.out)])


def _cmd_forecast(args) -> int:
    return _cmd_suite(args, model=args.model)


def _cmd_suite(args, model: Optional[str] = None) -> int:
    target, components = _load_forecast_inputs(args)
    holdout = args.holdout or None
    _, paths = suite_stage(
        target, components, Path(args.out), ar_order=args.p, exog_order=args.q,
        holdout=holdout, model=model,
    )
    return _wrote(paths)


def _cmd_surrogate(args) -> int:
    target, components = _load_forecast_inputs(args)
    report, paths = surrogate_stage(
        target, components, Path(args.out), model=args.model, ar_order=args.p,
        exog_order=args.q, n_surrogates=args.surrogates, seed=args.seed, include_maes=args.full,
    )
    _wrote(paths)
    print(f"p_hat = {report.p_hat} over {report.n_surrogates} surrogates")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise InputFormatError(f"{run_dir} is not a directory")
    text = render_run_report(run_dir)
    out = Path(args.out) if args.out else run_dir / "report.md"
    out.write_text(text, encoding="utf-8")
    return _wrote([out])


def _cmd_run(args) -> int:
    config = PipelineConfig.from_flags(vars(args))
    manifest = run_pipeline(config)
    n_artifacts = len(manifest["artifacts"]) + 1
    print(f"wrote {n_artifacts} artifacts to {config.out_dir}")
    surrogate = manifest["surrogate"]
    print(f"surrogate test: model {surrogate['model']}, p_hat = {surrogate['p_hat']}")
    return 0


# Every option of every subcommand, declared once.
_OPTIONS = {
    "--lexicon": dict(required=True, help="lexicon CSV file"),
    "--messages": dict(required=True, help="message JSONL file"),
    "--attitude": dict(required=True, help="attitude CSV file"),
    "--buckets": dict(required=True, help="buckets JSON from ingest"),
    "--series": dict(required=True, help="emotion-table or month,value CSV"),
    "--series-a": dict(required=True, help="first series CSV"),
    "--series-b": dict(required=True, help="second series CSV"),
    "--column-a": dict(help="column name when --series-a is an emotion table"),
    "--column-b": dict(help="column name when --series-b is an emotion table"),
    "--attitude-series": dict(
        required=True, help="month,rate CSV of the (smoothed) target series"
    ),
    "--emotion-series": dict(
        required=True, help="emotion-table CSV of the (smoothed) component series"
    ),
    "--run": dict(required=True, help="run output directory"),
    "--out": dict(required=True, help="output path (a directory for ingest, score and run)"),
    "--min-messages": dict(
        type=int, default=3, help="minimum messages for a thread to count (default 3)"
    ),
    "--smooth-window": dict(type=int, default=4, help="smoothing window in months (default 4)"),
    "--gap-policy": dict(
        choices=GAP_POLICIES, default="fail", help="what to do with missing months (default fail)"
    ),
    "--corr-window": dict(
        type=int, default=13, help="correlation window in months (default 13)"
    ),
    "--alpha": dict(type=float, default=0.05, help="significance level (default 0.05)"),
    "--p": dict(type=int, default=1, help="autoregressive lag order (default 1)"),
    "--q": dict(type=int, default=3, help="exogenous lag order (default 3)"),
    "--model": dict(required=True, choices=MODEL_NAMES, help="model to fit"),
    "--holdout": dict(
        type=int,
        default=0,
        help="evaluate on the last N months instead of in-sample (default 0)",
    ),
    "--surrogates": dict(type=int, default=1000, help="number of surrogates (default 1000)"),
    "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "--full": dict(action="store_true", help="include every surrogate mae in the output"),
    "--surrogate-model": dict(
        choices=EXOGENOUS_MODELS,
        help="model for the surrogate test (default: lowest-mae exogenous model)",
    ),
    "--surrogate-full": dict(
        action="store_true", help="include every surrogate mae in surrogate.json"
    ),
}

_FORECAST_IO = ("--attitude-series", "--emotion-series", "--p", "--q")

# Subcommand -> (summary, options). An option given as (flag, overrides)
# changes some of the table's settings for that subcommand only.
_COMMANDS = {
    "ingest": (
        "parse messages into monthly token buckets",
        ("--messages", "--min-messages", "--out"),
    ),
    "score": (
        "score monthly buckets against an affective lexicon",
        ("--lexicon", "--buckets", "--out"),
    ),
    "smooth": (
        "apply causal Hamming smoothing",
        ("--series", "--smooth-window", "--gap-policy", "--out"),
    ),
    "correlate": (
        "rolling windowed correlation between two series",
        ("--series-a", "--series-b", "--column-a", "--column-b", "--corr-window", "--alpha",
         "--out"),
    ),
    "forecast": (
        "fit and evaluate one named forecast model",
        (*_FORECAST_IO, "--model", "--holdout", "--out"),
    ),
    "suite": (
        "fit and evaluate the full ten-model comparison",
        (*_FORECAST_IO, "--holdout", "--out"),
    ),
    "surrogate": (
        "permutation significance test for one model",
        (*_FORECAST_IO, ("--model", dict(choices=EXOGENOUS_MODELS, help="model to test")),
         "--surrogates", "--seed", "--full", "--out"),
    ),
    "report": (
        "render a markdown summary of a completed run",
        ("--run", ("--out", dict(required=False, help="output path (default <run>/report.md)"))),
    ),
    "run": (
        "run the full pipeline",
        ("--lexicon", "--messages", "--attitude", "--out", "--min-messages", "--smooth-window",
         "--corr-window", "--alpha", "--p", "--q", "--surrogates", "--seed", "--gap-policy",
         "--surrogate-model", "--surrogate-full"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moodcast",
        description=(
            "Monthly emotion time series from discussion archives, with "
            "lagged-regression forecasting of an external attitude series."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {PACKAGE_VERSION}"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log stage progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = globals()
    for name, (summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option in options:
            flag, overrides = option if isinstance(option, tuple) else (option, {})
            command.add_argument(flag, **{**_OPTIONS[flag], **overrides})
        command.set_defaults(func=handlers[f"_cmd_{name}"])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive catch-all
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


__all__ = ["build_parser", "main", "entrypoint"]

if __name__ == "__main__":
    entrypoint()
