"""Artifact readers and writers, and the attitude series loader.

Every writer is deterministic: fixed column and key order, Unix newlines,
floats serialized with ``repr`` round-trip fidelity, dictionary keys sorted
where insertion order is not meaningful. Missing values become empty CSV
fields and JSON nulls. Every writer hands its whole text to
``tables.write_file``, so a file lands whole or is left as it was, also when
a writer refuses a non-finite float (``ValueError``) or the write fails.
Tables go through the CSV dialect of ``moodcast.tables``, JSON through
``_read_json`` and ``_write_json``. Every reader rejects malformed
and non-finite numbers (in JSON, anywhere in the file) with an
``InputFormatError`` naming the file and row, and the series readers reject
a month axis that is empty or not contiguous. A ``month,rate`` series is an
attitude series: every read of one checks each rate is in [0, 100].
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Optional, Union

from .analysis import CorrelationTrack, NumericSeries
from .emotion import COMPONENTS, DIMENSIONS, STATS, EmotionSeries, MonthCounts
from .errors import InputFormatError, json_problem
from .forecast import SuiteEntry, SurrogateReport
from .ingest import MonthlyBucket
from .lexicon import SCALE_MAX, SCALE_MIN
from .months import check_month
from .tables import (
    MAX_COUNT,
    Table,
    bounded_cell,
    check_next_month,
    format_number,
    monthly_rows,
    number_cell,
    quote_cell,
    read_table,
    write_file,
    write_table,
)

# Emotion table column (``valence_mean``) -> the component it holds, in header order.
EMOTION_COLUMNS = {f"{dim}_{stat}": f"{stat}-{dim}" for dim in DIMENSIONS for stat in STATS}
EMOTION_HEADER = ("month", *EMOTION_COLUMNS, "match_count", "thread_count")
# The largest population std of scores on [SCALE_MIN, SCALE_MAX] (Popoviciu's inequality).
_STD_MAX = (SCALE_MAX - SCALE_MIN) / 2
# A mean is on the lexicon's scale; a spread is at most half its width.
_EMOTION_BOUNDS = {
    column: (SCALE_MIN, SCALE_MAX) if column.endswith("_mean") else (0.0, _STD_MAX)
    for column in EMOTION_COLUMNS
}

CORRELATION_HEADER = ("month", "r", "n_window", "p_value", "significant")

COUNTS_HEADER = ("month", "thread_count")

TOP_WORDS_HEADER = ("year", "rank", "word", "occurrences", "display_weight")

ATTITUDE_HEADER = ("month", "rate")

MANIFEST = "run_manifest.json"


def sha256_file(path: Union[str, Path]) -> str:
    """Hex SHA-256 digest of a file's bytes."""
    import hashlib  # here, not at module level: only ``run`` hashes

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_emotion_csv(path: Union[str, Path], series: EmotionSeries) -> None:
    """Write the monthly emotion table, one row per month."""
    columns = [series.components[name].values for name in EMOTION_COLUMNS.values()]
    write_table(path, EMOTION_HEADER, (
        [month, *map(format_number, stats), str(counts.match_count), str(counts.thread_count)]
        for month, *stats, counts in zip(series.months, *columns, series.records)
    ))


def read_emotion_csv(path: Union[str, Path], table: Optional[Table] = None) -> EmotionSeries:
    """Read an emotion table back into a series; ``table`` is ``read_table(path)`` if read."""
    header, rows = read_table(path) if table is None else table
    if header != EMOTION_HEADER:
        raise InputFormatError(
            f"{path}: emotion header must be {','.join(EMOTION_HEADER)!r}, "
            f"got {quote_cell(','.join(header))}"
        )
    axis, checked = monthly_rows(path, rows)
    stat_rows: list[list[Optional[float]]] = []
    records: list[MonthCounts] = []
    for rownum, _, row in checked:
        stats = [
            bounded_cell(path, rownum, column, cell, *_EMOTION_BOUNDS[column])
            for column, cell in zip(EMOTION_COLUMNS, row[1:7])
        ]
        counts = MonthCounts(*(number_cell(path, rownum, cell, int) for cell in row[7:9]))
        # A scored month has all six statistics; one with no match has none.
        if 0 < stats.count(None) < 6:
            empty = EMOTION_HEADER[1 + stats.index(None)]
            raise InputFormatError(
                f"{path} row {rownum}: {empty} is empty but other statistics are not"
            )
        if None in stats and counts.match_count > 0:
            raise InputFormatError(
                f"{path} row {rownum}: match_count {counts.match_count} with no statistics"
            )
        stat_rows.append(stats)
        records.append(counts)
    columns = dict(zip(EMOTION_COLUMNS.values(), map(list, zip(*stat_rows))))
    return EmotionSeries({name: NumericSeries(axis, columns[name]) for name in COMPONENTS}, records)


def write_series_csv(path: Union[str, Path], series: NumericSeries, value_name: str) -> None:
    """Write a plain two-column monthly series."""
    write_table(
        path,
        ("month", value_name),
        ([month, format_number(value)] for month, value in zip(series.months, series.values)),
    )


def read_series_csv(path: Union[str, Path], table: Optional[Table] = None) -> NumericSeries:
    """Read a two-column monthly series; ``table`` is ``read_table(path)`` if read."""
    return _read_series(path, None, table)


def load_attitude_series(path: Union[str, Path]) -> NumericSeries:
    """Read a ``month,rate`` series as ``read_series_csv`` does, and require every rate.

    ``run`` fills no gap in the attitude series; ``smooth`` fills gaps by its gap policy.
    """
    return _read_series(path, ATTITUDE_HEADER[1])


def _read_series(
    path: Union[str, Path], value_name: Optional[str], table: Optional[Table] = None
) -> NumericSeries:
    """A two-column series. Given a ``value_name``, the header must name that
    value column and every row must hold a value."""
    header, rows = read_table(path) if table is None else table
    if len(header) != 2 or header[0].strip() != "month":
        raise InputFormatError(
            f"{path}: expected a month,value header, got {quote_cell(','.join(header))}"
        )
    if value_name is not None and header[1].strip() != value_name:
        raise InputFormatError(
            f"{path}: expected value column {value_name!r} in the header, "
            f"got {quote_cell(header[1])}"
        )
    column = header[1].strip()
    # A rate is a percentage; ``number_cell`` holds any other value to a finite float.
    low, high = (0.0, 100.0) if column == ATTITUDE_HEADER[1] else (-math.inf, math.inf)
    axis, checked = monthly_rows(path, rows)
    values: list[Optional[float]] = []
    for rownum, _, row in checked:
        value = bounded_cell(path, rownum, column, row[1], low, high)
        if value is None and value_name is not None:
            raise InputFormatError(f"{path} row {rownum}: {value_name} is missing")
        values.append(value)
    return NumericSeries(months=axis, values=values)


def write_correlation_csv(path: Union[str, Path], track: CorrelationTrack) -> None:
    """Write one rolling-correlation track, one row per month."""
    write_table(path, CORRELATION_HEADER, (
        [
            month,
            format_number(track.r[i]),
            str(track.n_window[i]),
            format_number(track.p_value[i]),
            "true" if track.significant[i] else "false",
        ]
        for i, month in enumerate(track.months)
    ))


def read_correlation_csv(path: Union[str, Path]) -> CorrelationTrack:
    """Read a correlation track back; every ``r`` is in [-1, 1] and every ``p_value`` in [0, 1]."""
    header, rows = read_table(path)
    if header != CORRELATION_HEADER:
        raise InputFormatError(
            f"{path}: correlation header must be {','.join(CORRELATION_HEADER)!r}, "
            f"got {quote_cell(','.join(header))}"
        )
    axis, checked = monthly_rows(path, rows)
    r: list[Optional[float]] = []
    n_window: list[int] = []
    p_value: list[Optional[float]] = []
    significant: list[bool] = []
    for rownum, _, row in checked:
        r.append(bounded_cell(path, rownum, "r", row[1], -1.0, 1.0))
        n_window.append(number_cell(path, rownum, row[2], int))
        p_value.append(bounded_cell(path, rownum, "p_value", row[3], 0.0, 1.0))
        if row[4] not in ("true", "false"):
            raise InputFormatError(f"{path} row {rownum}: significant must be true or false")
        significant.append(row[4] == "true")
    return CorrelationTrack(
        months=axis, r=r, n_window=n_window, p_value=p_value, significant=significant
    )


def write_counts_csv(path: Union[str, Path], buckets: list[MonthlyBucket]) -> None:
    """Write monthly surviving-thread counts."""
    write_table(
        path, COUNTS_HEADER, ([bucket.month, str(bucket.thread_count)] for bucket in buckets)
    )


def write_top_words_csv(
    path: Union[str, Path],
    per_year: dict[str, list[tuple[str, int]]],
) -> None:
    """Write ranked (word, count) pairs per year, years in ascending order.
    ``display_weight`` is the square root of the count, for size-proportional
    rendering downstream."""
    write_table(path, TOP_WORDS_HEADER, (
        [year, str(rank), word, str(count), format_number(math.sqrt(count))]
        for year in sorted(per_year)
        for rank, (word, count) in enumerate(per_year[year], start=1)
    ))


def write_buckets_json(path: Union[str, Path], buckets: list[MonthlyBucket]) -> None:
    """Write monthly token buckets; token keys are sorted for stability."""
    payload = {
        "buckets": [
            {
                "month": b.month,
                "thread_count": b.thread_count,
                "token_counts": {k: b.token_counts[k] for k in sorted(b.token_counts)},
            }
            for b in buckets
        ]
    }
    _write_json(path, payload)


def _count(value) -> int:
    """A count from JSON: the report's ``count`` kind, an integer in [0, MAX_COUNT]."""
    test, wording = _KINDS["count"]
    if not test(value):
        raise ValueError(f"count must be {wording}, got {value!r}")
    return value


def read_buckets_json(path: Union[str, Path]) -> list[MonthlyBucket]:
    """Read monthly token buckets back; every count is a non-negative integer.

    As in a table, the months must be contiguous and increasing, and there
    must be at least one.
    """
    items = _read_json(path).get("buckets")
    if not isinstance(items, list):
        raise InputFormatError(f"{path}: expected an object with a buckets list")
    buckets: list[MonthlyBucket] = []
    for number, item in enumerate(items, start=1):
        try:
            bucket = MonthlyBucket(
                month=check_month(item["month"]),
                token_counts={str(k): _count(v) for k, v in item["token_counts"].items()},
                thread_count=_count(item["thread_count"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{path}: malformed bucket entry ({exc})") from None
        if buckets:
            check_next_month(path, f"bucket {number}", buckets[-1].month, bucket.month)
        buckets.append(bucket)
    if not buckets:
        raise InputFormatError(f"{path}: no buckets")
    return buckets


def suite_entry_payload(entry: SuiteEntry, evaluation_mode: str) -> dict:
    """JSON-ready description of one fitted and evaluated model: its
    coefficient vector split into the target's lags and one list per
    exogenous series."""
    report = entry.report
    spec = entry.model.spec
    p, q = spec.ar_order, spec.exog_order
    coefficients = [float(c) for c in entry.model.coefficients]
    ar, exogenous = coefficients[:p], coefficients[p:]
    return {
        "name": entry.name,
        "ar_order": p,
        "exog_order": q,
        "exogenous": list(spec.exogenous_names),
        "evaluation_mode": evaluation_mode,
        "coefficients": {
            "ar": ar,
            "exogenous": [exogenous[i * q : (i + 1) * q] for i in range(spec.n_exogenous)],
            "intercept": 0.0,
        },
        "sse": float(entry.model.sse),
        "mae": float(report.mae),
        "evaluated_months": {
            "first": report.months[0],
            "last": report.months[-1],
        },
        "errors": [float(e) for e in report.errors],
        "cumulative_mean_abs_error": [float(v) for v in report.cumulative_mean_abs_error],
    }


def write_models_json(
    path: Union[str, Path],
    entries: list[SuiteEntry],
    evaluation_mode: str,
) -> None:
    """Write the model comparison suite in its fixed order."""
    _write_json(path, {"models": [suite_entry_payload(e, evaluation_mode) for e in entries]})


def write_surrogate_json(
    path: Union[str, Path],
    report: SurrogateReport,
    model_name: str,
) -> None:
    """Write the permutation-test outcome, with its model's lag orders and
    series from ``report.spec``, summary quantiles and every surrogate mae
    in surrogate order."""
    ordered = sorted(report.surrogate_maes)

    def quantile(q: float) -> float:
        # Nearest-rank on the sorted surrogate errors.
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return float(ordered[index])

    payload = {
        "model": model_name,
        "ar_order": report.spec.ar_order,
        "exog_order": report.spec.exog_order,
        "exogenous": list(report.spec.exogenous_names),
        "seed": report.seed,
        "n_surrogates": report.n_surrogates,
        "empirical_mae": float(report.empirical_mae),
        "p_hat": float(report.p_hat),
        "surrogate_mae_quantiles": {
            "min": float(ordered[0]),
            "p05": quantile(0.05),
            "p25": quantile(0.25),
            "p50": quantile(0.50),
            "p75": quantile(0.75),
            "p95": quantile(0.95),
            "max": float(ordered[-1]),
        },
        "surrogate_maes": [float(m) for m in report.surrogate_maes],
    }
    _write_json(path, payload)


def _write_json(path: Union[str, Path], payload: dict) -> None:
    # NaN and infinity are not JSON.
    write_file(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _float_range(parse):
    """A ``json.load`` number hook: ``parse`` the text, and reject what no finite float holds."""

    def hook(text: str):
        value = parse(text)
        # False for NaN too; an int past the float range fails here, not at a later float().
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"not a finite 64-bit float: {quote_cell(text)}")
        return value

    return hook


# ``json.load`` number hooks for every JSON read: NaN and the infinities
# reach ``parse_constant``, 1e999 reads as an infinite float, and an integer
# must fit a float too, as the report renders numbers as floats.
_JSON_NUMBERS = {
    "parse_int": _float_range(int),
    "parse_float": _float_range(float),
    "parse_constant": _float_range(float),
}


def _read_json(path: Union[str, Path]) -> dict:
    """A JSON object whose every number is a finite 64-bit float."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle, **_JSON_NUMBERS)
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(f"{path}: {json_problem(exc)}") from None
    if not isinstance(payload, dict):
        raise InputFormatError(f"{path}: expected a JSON object")
    return payload


# The kinds of value that ``report`` renders: a test and its wording. A
# boolean is neither a count nor a number; a seed may exceed 2**53.
_KINDS = {
    "count": (lambda v: type(v) is int and 0 <= v <= MAX_COUNT, "an integer in [0, 2**53]"),
    "seed": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "number": (lambda v: type(v) in (int, float), "a number"),
    "probability": (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
    "string": (lambda v: type(v) is str, "a string"),
    "strings": (lambda v: type(v) is list and all(type(s) is str for s in v), "a list of strings"),
}

# Each run file's rendered fields, as dotted key paths, and their kinds.
_MANIFEST_FIELDS = {
    **dict.fromkeys(("version", "created_utc", "corpus.first_month", "corpus.last_month",
                     "aligned_months.first", "aligned_months.last"), "string"),
    **dict.fromkeys(("corpus.messages", "corpus.threads", "corpus.threads_kept"), "count"),
    "warnings": "strings",
}
_MODEL_FIELDS = {"name": "string", "exogenous": "strings", "mae": "number", "sse": "number"}
_SURROGATE_FIELDS = {
    "model": "string", "n_surrogates": "count", "seed": "seed", "p_hat": "probability",
    **dict.fromkeys(("empirical_mae", "surrogate_mae_quantiles.min",
                     "surrogate_mae_quantiles.p50", "surrogate_mae_quantiles.max"), "number"),
}


def _check_fields(path: Path, payload: dict, fields: dict[str, str], prefix: str = "") -> None:
    """Require each of ``fields`` in ``payload`` to hold its kind of value;
    an error names the file and the field."""
    for field, kind in fields.items():
        value = payload
        for key in field.split("."):
            value = value[key]
        test, wording = _KINDS[kind]
        if not test(value):
            raise InputFormatError(f"{path}: {prefix}{field} must be {wording}")


def render_run_report(run_dir: Union[str, Path]) -> str:
    """Summarize a completed run directory as a markdown document.

    Reads the manifest, the model and surrogate reports, the smoothed
    emotion series, and the smoothed correlation tracks; renders tables
    only, no figures. A finished run has every one of them, so a missing
    file or track directory is an ``OSError``. A file that lacks a field the
    report needs, or holds one of the wrong type, is an input format error.
    """
    run_dir = Path(run_dir)
    try:
        return _render_run_report(run_dir)
    except InputFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(
            f"{run_dir}: malformed run artifacts ({type(exc).__name__}: {exc})"
        ) from None


def _section(title: str, headers: list[str], rows: list[list[str]]) -> list[str]:
    """A markdown section: its heading and a table of ``rows`` under ``headers``."""
    table = [headers, ["---"] * len(headers), *rows]
    return [f"## {title}", "", *("| " + " | ".join(row) + " |" for row in table), ""]


def _render_run_report(run_dir: Path) -> str:
    manifest_path, models_path = run_dir / MANIFEST, run_dir / "models.json"
    surrogate_path = run_dir / "surrogate.json"
    manifest = _read_json(manifest_path)
    manifest.setdefault("warnings", [])
    _check_fields(manifest_path, manifest, _MANIFEST_FIELDS)
    models = _read_json(models_path)["models"]
    for number, entry in enumerate(models):
        _check_fields(models_path, entry, _MODEL_FIELDS, f"models[{number}].")
    surrogate = _read_json(surrogate_path)
    _check_fields(surrogate_path, surrogate, _SURROGATE_FIELDS)

    lines = [
        "# Run report",
        "",
        f"Pipeline version {manifest['version']}, run created {manifest['created_utc']}.",
        "",
    ]
    corpus = manifest["corpus"]
    aligned = manifest["aligned_months"]
    lines += _section("Corpus", ["metric", "value"], [
        ["messages", str(corpus["messages"])],
        ["threads", str(corpus["threads"])],
        ["threads kept", str(corpus["threads_kept"])],
        ["corpus months", f"{corpus['first_month']} to {corpus['last_month']}"],
        ["aligned months", f"{aligned['first']} to {aligned['last']}"],
    ])

    smoothed = read_emotion_csv(run_dir / "emotion_series_smoothed.csv")
    rows = []
    for name, component in smoothed.components.items():
        values = [v for v in component.values if v is not None]
        if not values:
            rows.append([name, "-", "-", "-"])
            continue
        mean = sum(values) / len(values)
        rows.append([name, f"{min(values):.4f}", f"{max(values):.4f}", f"{mean:.4f}"])
    lines += _section("Smoothed emotion series", ["series", "min", "max", "mean"], rows)

    rows = [
        [e["name"], ", ".join(e["exogenous"]) or "-", f"{e['mae']:.4f}", f"{e['sse']:.4f}"]
        for e in models
    ]
    lines += _section("Forecast models", ["model", "exogenous series", "mae", "sse"], rows)
    by_name = {entry["name"]: entry for entry in models}
    others = [e for e in models if e["name"] != "ar"]
    if "ar" in by_name and others and by_name["ar"]["mae"] > 0:
        best = min(others, key=lambda e: e["mae"])
        ar_mae = by_name["ar"]["mae"]
        gain = (ar_mae - best["mae"]) / ar_mae * 100.0
        lines.append(
            f"Best exogenous model: {best['name']} "
            f"(mae {best['mae']:.4f}, {gain:.1f}% below the benchmark's {ar_mae:.4f})."
        )
        lines.append("")

    quantiles = surrogate["surrogate_mae_quantiles"]
    lines += _section("Surrogate test", ["metric", "value"], [
        ["model", surrogate["model"]],
        ["surrogates", str(surrogate["n_surrogates"])],
        ["seed", str(surrogate["seed"])],
        ["empirical mae", f"{surrogate['empirical_mae']:.4f}"],
        ["p_hat", f"{surrogate['p_hat']:.4f}"],
        ["surrogate mae min", f"{quantiles['min']:.4f}"],
        ["surrogate mae median", f"{quantiles['p50']:.4f}"],
        ["surrogate mae max", f"{quantiles['max']:.4f}"],
    ])

    rows = []
    # Unlike ``glob``, ``iterdir`` raises on a missing directory, as a read does on a missing file.
    tracks = (run_dir / "correlations" / "smoothed").iterdir()
    for path in sorted(entry for entry in tracks if entry.suffix == ".csv"):
        track = read_correlation_csv(path)
        hits = sum(1 for flag in track.significant if flag)
        present = [r for r in track.r if r is not None]
        mean_r = f"{sum(present) / len(present):.3f}" if present else "-"
        rows.append([path.stem.replace("__", " vs "), f"{hits}/{len(track.months)}", mean_r])
    lines += _section(
        "Correlations (smoothed series)", ["pair", "significant months", "mean r"], rows
    )

    if manifest["warnings"]:
        lines += ["## Warnings", "", *(f"- {message}" for message in manifest["warnings"]), ""]

    return "\n".join(lines)
