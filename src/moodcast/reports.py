"""Artifact readers and writers, and the attitude series loader.

Every writer is deterministic: fixed column and key order, Unix newlines,
floats serialized with ``repr`` round-trip fidelity, dictionary keys sorted
where insertion order is not meaningful. Missing values become empty CSV
fields and JSON nulls, and a non-finite float is never written. Tables
are read and written in the one CSV dialect of ``moodcast.tables``. Every
reader rejects malformed and non-finite numbers with an
``InputFormatError`` naming the file and row, and the series readers
reject a month axis that is empty or not contiguous.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Optional, Union

from .analysis import CorrelationTrack, NumericSeries
from .emotion import (
    DIMENSIONS,
    STATS,
    EmotionSeries,
    MonthEmotion,
    WeightedWord,
    component_series,
)
from .errors import InputFormatError
from .forecast import SuiteEntry, SurrogateReport
from .ingest import MonthlyBucket
from .months import check_month
from .tables import (
    MAX_COUNT,
    format_number,
    monthly_rows,
    number_cell,
    read_table,
    write_table,
)

EMOTION_HEADER = (
    "month",
    *(f"{dim}_{stat}" for dim in DIMENSIONS for stat in STATS),
    "match_count",
    "thread_count",
)

CORRELATION_HEADER = ("month", "r", "n_window", "p_value", "significant")

COUNTS_HEADER = ("month", "thread_count")

TOP_WORDS_HEADER = ("year", "rank", "word", "occurrences", "display_weight")

ATTITUDE_HEADER = ("month", "rate")


def read_header(path: Union[str, Path]) -> tuple[str, ...]:
    """The header row of a CSV file, which must have one."""
    return read_table(path, 0)[0]


def sha256_file(path: Union[str, Path]) -> str:
    """Hex SHA-256 digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_emotion_csv(path: Union[str, Path], series: EmotionSeries) -> None:
    """Write the monthly emotion table, one row per month."""
    write_table(path, EMOTION_HEADER, (
        [
            record.month,
            *(format_number(stat[dim]) for dim in DIMENSIONS for stat in (record.mean, record.std)),
            str(record.match_count),
            str(record.thread_count),
        ]
        for record in series.records
    ))


def read_emotion_csv(path: Union[str, Path]) -> EmotionSeries:
    """Read an emotion table back into a series."""
    header, rows = read_table(path, len(EMOTION_HEADER))
    if header != EMOTION_HEADER:
        raise InputFormatError(f"{path}: emotion header must be {','.join(EMOTION_HEADER)!r}")
    axis, checked = monthly_rows(path, rows)
    records: list[MonthEmotion] = []
    for rownum, month, row in checked:
        stats = [number_cell(path, rownum, cell) for cell in row[1:7]]
        mean = dict(zip(DIMENSIONS, stats[0::2]))
        std = dict(zip(DIMENSIONS, stats[1::2]))
        counts = [number_cell(path, rownum, cell, int) for cell in row[7:9]]
        records.append(MonthEmotion(month, mean, std, *counts))
    return EmotionSeries(months=axis, records=records)


def write_series_csv(path: Union[str, Path], series: NumericSeries, value_name: str) -> None:
    """Write a plain two-column monthly series."""
    write_table(
        path,
        ("month", value_name),
        ([month, format_number(value)] for month, value in zip(series.months, series.values)),
    )


def read_series_csv(path: Union[str, Path], value_name: Optional[str] = None) -> NumericSeries:
    """Read a two-column monthly series; the value header may be checked."""
    return _read_series(path, value_name, number_cell)


def load_attitude_series(path: Union[str, Path], missing_ok: bool = False) -> NumericSeries:
    """Load an attitude series: a series CSV with header ``month,rate``.

    Months are read as by ``read_series_csv``, and every rate must lie in
    [0, 100]. Every rate must be present unless ``missing_ok``, which
    ``smooth`` passes because it fills gaps by its gap policy; ``run``
    fills none in the attitude series.
    """

    def rate(path: Union[str, Path], rownum: int, cell: str) -> Optional[float]:
        value = number_cell(path, rownum, cell)
        if value is None and not missing_ok:
            raise InputFormatError(f"{path} row {rownum}: rate is missing")
        if value is not None and not 0.0 <= value <= 100.0:
            raise InputFormatError(f"{path} row {rownum}: rate {value!r} outside [0, 100]")
        return value

    return _read_series(path, ATTITUDE_HEADER[1], rate)


def _read_series(
    path: Union[str, Path],
    value_name: Optional[str],
    value_cell: Callable[[Union[str, Path], int, str], Optional[float]],
) -> NumericSeries:
    header, rows = read_table(path, 2)
    if len(header) != 2 or header[0].strip() != "month":
        raise InputFormatError(f"{path}: expected a month,value header")
    if value_name is not None and header[1].strip() != value_name:
        raise InputFormatError(
            f"{path}: expected value column {value_name!r} in the header, got {header[1]!r}"
        )
    axis, checked = monthly_rows(path, rows)
    return NumericSeries(
        months=axis, values=[value_cell(path, rownum, row[1]) for rownum, _, row in checked]
    )


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


def read_correlation_csv(
    path: Union[str, Path],
    alpha: float = 0.05,
    window: int = 13,
) -> CorrelationTrack:
    """Read a correlation track; alpha and window are not stored in the file."""
    header, rows = read_table(path, len(CORRELATION_HEADER))
    if header != CORRELATION_HEADER:
        raise InputFormatError(
            f"{path}: correlation header must be {','.join(CORRELATION_HEADER)!r}"
        )
    axis, checked = monthly_rows(path, rows)
    r: list[Optional[float]] = []
    n_window: list[int] = []
    p_value: list[Optional[float]] = []
    significant: list[bool] = []
    for rownum, _, row in checked:
        r.append(number_cell(path, rownum, row[1]))
        n_window.append(number_cell(path, rownum, row[2], int))
        p_value.append(number_cell(path, rownum, row[3]))
        if row[4] not in ("true", "false"):
            raise InputFormatError(f"{path} row {rownum}: significant must be true or false")
        significant.append(row[4] == "true")
    return CorrelationTrack(
        months=axis,
        r=r,
        n_window=n_window,
        p_value=p_value,
        significant=significant,
        alpha=alpha,
        window=window,
    )


def write_counts_csv(path: Union[str, Path], buckets: list[MonthlyBucket]) -> None:
    """Write monthly surviving-thread counts."""
    write_table(
        path, COUNTS_HEADER, ([bucket.month, str(bucket.thread_count)] for bucket in buckets)
    )


def write_top_words_csv(
    path: Union[str, Path],
    per_year: dict[str, list[WeightedWord]],
) -> None:
    """Write ranked lexicon words per year, years in ascending order."""
    write_table(path, TOP_WORDS_HEADER, (
        [year, str(rank), word.word, str(word.occurrences), format_number(word.display_weight)]
        for year in sorted(per_year)
        for rank, word in enumerate(per_year[year], start=1)
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
    """A count from JSON: an integer in [0, MAX_COUNT], and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= MAX_COUNT:
        raise ValueError(f"count must be an integer in [0, 2**53], got {value!r}")
    return value


def read_buckets_json(path: Union[str, Path]) -> list[MonthlyBucket]:
    """Read monthly token buckets back; every count is a non-negative integer."""
    items = _read_json(path).get("buckets")
    if not isinstance(items, list):
        raise InputFormatError(f"{path}: expected an object with a buckets list")
    buckets = []
    for item in items:
        try:
            buckets.append(
                MonthlyBucket(
                    month=check_month(item["month"]),
                    token_counts={str(k): _count(v) for k, v in item["token_counts"].items()},
                    thread_count=_count(item["thread_count"]),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{path}: malformed bucket entry ({exc})") from None
    return buckets


def suite_entry_payload(entry: SuiteEntry, evaluation_mode: str = "in-sample") -> dict:
    """JSON-ready description of one fitted and evaluated model."""
    report = entry.report
    return {
        "name": entry.name,
        "ar_order": entry.model.spec.ar_order,
        "exog_order": entry.model.spec.exog_order,
        "exogenous": list(entry.model.spec.exogenous_names),
        "evaluation_mode": evaluation_mode,
        "coefficients": {
            "ar": [float(c) for c in entry.model.ar_coeffs],
            "exogenous": [[float(c) for c in row] for row in entry.model.exog_coeffs],
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
    evaluation_mode: str = "in-sample",
) -> None:
    """Write the model comparison suite in its fixed order."""
    _write_json(path, {"models": [suite_entry_payload(e, evaluation_mode) for e in entries]})


def write_surrogate_json(
    path: Union[str, Path],
    report: SurrogateReport,
    model_name: str,
    ar_order: int,
    exog_order: int,
    exogenous: list[str],
    include_maes: bool = False,
) -> None:
    """Write the permutation-test outcome with summary quantiles."""
    ordered = sorted(report.surrogate_maes)

    def quantile(q: float) -> float:
        # Nearest-rank on the sorted surrogate errors.
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return float(ordered[index])

    payload = {
        "model": model_name,
        "ar_order": ar_order,
        "exog_order": exog_order,
        "exogenous": exogenous,
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
    }
    if include_maes:
        payload["surrogate_maes"] = [float(m) for m in report.surrogate_maes]
    _write_json(path, payload)


def _write_json(path: Union[str, Path], payload: dict) -> None:
    # NaN and infinity are not JSON; refuse them rather than write them.
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")


def _read_json(path: Union[str, Path]) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise InputFormatError(f"{path}: invalid JSON (nested too deeply)") from None
    if not isinstance(payload, dict):
        raise InputFormatError(f"{path}: expected a JSON object")
    return payload


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_run_report(run_dir: Union[str, Path]) -> str:
    """Summarize a completed run directory as a markdown document.

    Reads the manifest, the model and surrogate reports, the smoothed
    emotion series, and the smoothed correlation tracks; renders tables
    only, no figures. A file that lacks a field the report needs, or holds
    one of the wrong type, is an input format error.
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
    return [f"## {title}", "", *_md_table(headers, rows), ""]


def _render_run_report(run_dir: Path) -> str:
    manifest = _read_json(run_dir / "run_manifest.json")
    models = _read_json(run_dir / "models.json")["models"]
    surrogate = _read_json(run_dir / "surrogate.json")

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

    emotion_path = run_dir / "emotion_series_smoothed.csv"
    if emotion_path.exists():
        series = read_emotion_csv(emotion_path)
        rows = []
        for name, component in component_series(series).items():
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

    corr_dir = run_dir / "correlations" / "smoothed"
    if corr_dir.is_dir():
        rows = []
        for path in sorted(corr_dir.glob("*.csv")):
            track = read_correlation_csv(path)
            hits = sum(1 for flag in track.significant if flag)
            present = [r for r in track.r if r is not None]
            mean_r = f"{sum(present) / len(present):.3f}" if present else "-"
            rows.append([path.stem.replace("__", " vs "), f"{hits}/{len(track.months)}", mean_r])
        lines += _section(
            "Correlations (smoothed series)", ["pair", "significant months", "mean r"], rows
        )

    if manifest.get("warnings"):
        lines += ["## Warnings", "", *(f"- {message}" for message in manifest["warnings"]), ""]

    return "\n".join(lines)


__all__ = [
    "EMOTION_HEADER",
    "CORRELATION_HEADER",
    "COUNTS_HEADER",
    "TOP_WORDS_HEADER",
    "ATTITUDE_HEADER",
    "read_header",
    "sha256_file",
    "write_emotion_csv",
    "read_emotion_csv",
    "write_series_csv",
    "read_series_csv",
    "load_attitude_series",
    "write_correlation_csv",
    "read_correlation_csv",
    "write_counts_csv",
    "write_top_words_csv",
    "write_buckets_json",
    "read_buckets_json",
    "suite_entry_payload",
    "write_models_json",
    "write_surrogate_json",
    "render_run_report",
]
