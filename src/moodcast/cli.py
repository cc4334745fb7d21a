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
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .analysis import NumericSeries, hamming_smooth, rolling_correlation
from .emotion import EmotionSeries
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
    EMOTION_COLUMNS,
    read_buckets_json,
    read_emotion_csv,
    read_series_csv,
    render_run_report,
    write_correlation_csv,
    write_series_csv,
)
from .tables import parse_number, read_table, write_file


def _wrote(paths: list[Path]) -> int:
    for path in paths:
        print(f"wrote {path}")
    return 0


def _read_series_or_table(
    path: Path,
) -> tuple[Union[NumericSeries, EmotionSeries], Optional[str]]:
    """Read and check a whole emotion table or ``month,value`` series, by its
    header's width (more than two columns is a table); for a series, also
    return its value column's name."""
    table = read_table(path)
    if len(table[0]) > 2:
        return read_emotion_csv(path, table), None
    return read_series_csv(path, table=table), table[0][1].strip()


def _load_series_column(path: Path, column: Optional[str]) -> NumericSeries:
    """Load a two-column series CSV, or the named column of an emotion table."""
    data, name = _read_series_or_table(path)
    if name is not None:
        if column is not None:
            raise ValueError(f"{path} is a two-column series; drop its column flag ({column!r})")
        return data
    choices = ", ".join(sorted(EMOTION_COLUMNS))
    if column is None:
        raise ValueError(f"{path} is an emotion table; pick a column from {choices}")
    if column not in EMOTION_COLUMNS:
        raise ValueError(f"unknown emotion column {column!r}; choose from {choices}")
    return data.components[EMOTION_COLUMNS[column]]


def _load_forecast_inputs(args) -> tuple[NumericSeries, dict[str, NumericSeries]]:
    target = read_series_csv(args.attitude_series)
    return target, read_emotion_csv(args.emotion_series).components


def _cmd_ingest(args) -> int:
    tally = parse_messages(args.messages)
    *_, paths = ingest_stage(tally, args.out, min_messages=args.min_messages)
    return _wrote(paths)


def _cmd_score(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    buckets = read_buckets_json(args.buckets)
    *_, paths = score_stage(buckets, lexicon, args.out)
    return _wrote(paths)


def _cmd_smooth(args) -> int:
    out = args.out
    series, name = _read_series_or_table(args.series)
    if name is None:
        # A gap is named by the table's column; the series keep COMPONENTS order.
        column = dict(zip(EMOTION_COLUMNS.values(), EMOTION_COLUMNS))
        filled, _ = fill_gaps({column[c]: s for c, s in series.components.items()}, args.gap_policy)
        components = {c: filled[column[c]] for c in series.components}
        smooth_emotion(EmotionSeries(components, series.records), out, window=args.smooth_window)
    else:
        filled, _ = fill_gaps({name: series}, args.gap_policy)
        write_series_csv(out, hamming_smooth(filled[name], args.smooth_window), name)
    return _wrote([out])


def _cmd_correlate(args) -> int:
    series_a = _load_series_column(args.series_a, args.column_a)
    series_b = _load_series_column(args.series_b, args.column_b)
    track = rolling_correlation(series_a, series_b, args.corr_window, args.alpha)
    write_correlation_csv(args.out, track)
    return _wrote([args.out])


def _cmd_forecast(args) -> int:
    return _cmd_suite(args, names=(args.model,))


def _cmd_suite(args, names: tuple[str, ...] = MODEL_NAMES) -> int:
    target, components = _load_forecast_inputs(args)
    _, paths = suite_stage(
        target, components, args.out, names=names, ar_order=args.p, exog_order=args.q,
        holdout=args.holdout,
    )
    return _wrote(paths)


def _cmd_surrogate(args) -> int:
    target, components = _load_forecast_inputs(args)
    report, paths = surrogate_stage(
        target, components, args.out, model=args.model, ar_order=args.p,
        exog_order=args.q, n_surrogates=args.surrogates, seed=args.seed,
    )
    _wrote(paths)
    print(f"p_hat = {report.p_hat} over {report.n_surrogates} surrogates")
    return 0


def _cmd_report(args) -> int:
    if not args.run.is_dir():
        raise InputFormatError(f"{args.run} is not a directory")
    out = args.out or args.run / "report.md"
    write_file(out, render_run_report(args.run))
    return _wrote([out])


def _cmd_run(args) -> int:
    config = PipelineConfig(**{name: getattr(args, name) for name in _CONFIG_FIELDS.values()})
    manifest = run_pipeline(config, sys.stderr if args.verbose else None)
    print(f"wrote {len(manifest['artifacts']) + 1} artifacts to {config.out}")
    surrogate = manifest["surrogate"]
    print(f"surrogate test: model {surrogate['model']}, p_hat = {surrogate['p_hat']}")
    return 0


def _number_flag(kind: type) -> partial:
    """An argparse type that reads ``kind`` by the syntax of a table cell."""
    parse = partial(parse_number, kind=kind)
    parse.__name__ = kind.__name__  # argparse names the type in its error
    return parse


_INT, _FLOAT = _number_flag(int), _number_flag(float)

# ``run``'s options: the field names of PipelineConfig, by flag name.
_CONFIG_FIELDS = {f"--{name.replace('_', '-')}": name for name in PipelineConfig._fields}

# Path options: each is required and parsed as a Path.
_PATHS = {
    "--lexicon": "lexicon CSV file",
    "--messages": "message JSONL file",
    "--attitude": "attitude CSV file",
    "--buckets": "buckets JSON from ingest",
    "--series": "emotion-table or month,value CSV",
    "--series-a": "first series CSV",
    "--series-b": "second series CSV",
    "--attitude-series": "month,rate CSV of the (smoothed) target series",
    "--emotion-series": "emotion-table CSV of the (smoothed) component series",
    "--run": "run output directory",
    "--out": "output path (a directory for ingest, score and run)",
}

# Every option of every subcommand, declared once; an option that is a
# PipelineConfig field takes its default from there.
_OPTIONS = {
    **{flag: dict(type=Path, required=True, help=text) for flag, text in _PATHS.items()},
    "--column-a": dict(help="column name when --series-a is an emotion table"),
    "--column-b": dict(help="column name when --series-b is an emotion table"),
    "--min-messages": dict(type=_INT, help="minimum messages in a thread (default %(default)s)"),
    "--smooth-window": dict(type=_INT, help="smoothing window in months (default %(default)s)"),
    "--gap-policy": dict(choices=GAP_POLICIES, help="missing-month policy (default %(default)s)"),
    "--corr-window": dict(type=_INT, help="correlation window in months (default %(default)s)"),
    "--alpha": dict(type=_FLOAT, help="significance level (default %(default)s)"),
    "--p": dict(type=_INT, help="autoregressive lag order (default %(default)s)"),
    "--q": dict(type=_INT, help="exogenous lag order (default %(default)s)"),
    "--model": dict(required=True, choices=MODEL_NAMES, help="model to fit"),
    "--holdout": dict(
        type=_INT, default=0, help="evaluate on the last N months (default %(default)s: in-sample)"
    ),
    "--surrogates": dict(type=_INT, help="number of surrogates (default %(default)s)"),
    "--seed": dict(type=_INT, help="RNG seed (default %(default)s)"),
    "--surrogate-model": dict(
        choices=EXOGENOUS_MODELS, help="surrogate test model (default: lowest-mae exogenous model)"
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
         "--surrogates", "--seed", "--out"),
    ),
    "report": (
        "render a markdown summary of a completed run",
        ("--run", ("--out", dict(required=False, help="output path (default <run>/report.md)"))),
    ),
    "run": ("run the full pipeline", tuple(_CONFIG_FIELDS)),
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
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="write run's stage lines to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = globals()
    for name, (summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option in options:
            flag, overrides = option if isinstance(option, tuple) else (option, {})
            settings = {**_OPTIONS[flag], **overrides}
            field = _CONFIG_FIELDS.get(flag)
            if field in PipelineConfig._field_defaults:
                settings["default"] = PipelineConfig._field_defaults[field]
            command.add_argument(flag, **settings)
        command.set_defaults(func=handlers[f"_cmd_{name}"])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback  # loaded only on a fault
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
