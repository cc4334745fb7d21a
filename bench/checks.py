"""Correctness checks on one repetition's outputs.

Each check returns a list of problems; an empty list is a pass. Numbers are
compared within ``TOL`` (relative above 1, absolute below), not by golden
digests, so a change that moves results by rounding error still passes.
The numpy oracle recomputes results from the artifacts themselves: model
errors by ``np.linalg.lstsq`` on the smoothed series, rolling Pearson r by
``np.corrcoef`` on a sample of windows, and the surrogate test's empirical
error from the model it names.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9
MANIFEST = "run_manifest.json"

AR_LAGS = 1
EXOG_LAGS = 3
CORR_WINDOW = 13

DIMENSIONS = ("valence", "arousal", "dominance")
# The paper's ten models: name -> emotion-table columns used as regressors.
MODELS = {"ar": ()}
MODELS.update({f"{stat}-{dim}": (f"{dim}_{stat}",) for stat in ("mean", "std") for dim in DIMENSIONS})
MODELS.update({f"both-{dim}": (f"{dim}_mean", f"{dim}_std") for dim in DIMENSIONS})

STAGED_TRACK = "mean_valence__attitude.csv"
# Staged output -> the ``run`` artifact it must equal byte for byte.
STAGED_MATCHES = {
    "buckets.json": "buckets.json",
    "discussion_counts.csv": "discussion_counts.csv",
    "emotion_series.csv": "emotion_series.csv",
    "top_words.csv": "top_words.csv",
    "emotion_series_smoothed.csv": "emotion_series_smoothed.csv",
    "attitude_smoothed.csv": "attitude_smoothed.csv",
    STAGED_TRACK: "correlations/smoothed/" + STAGED_TRACK,
    "models.json": "models.json",
    "surrogate.json": "surrogate.json",
}

SERIES = ("mean_valence", "mean_arousal", "mean_dominance", "std_valence", "std_arousal", "std_dominance", "attitude")
# Every artifact a ``run`` must write, as the package README lists them.
RUN_ARTIFACTS = {
    "buckets.json", "discussion_counts.csv", "emotion_series.csv", "top_words.csv",
    "emotion_series_aligned.csv", "attitude_aligned.csv", "emotion_series_smoothed.csv",
    "attitude_smoothed.csv", "models.json", "surrogate.json",
    *(f"correlations/{label}/{a}__{b}.csv" for label in ("raw", "smoothed")
      for i, a in enumerate(SERIES) for b in SERIES[i + 1 :]),
}

# Columns that count threads or tokens, and so scale with the corpus.
COUNT_COLUMNS = {"thread_count", "match_count", "occurrences"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(out: Path) -> dict[str, str]:
    """Digest of every output file except the time-stamped manifest."""
    return {
        str(p.relative_to(out)): sha256(p)
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != MANIFEST
    }


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL * max(1.0, abs(b))


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def floats(cells: list[str]) -> np.ndarray:
    return np.array([float(c) if c else math.nan for c in cells])


def check_manifest(out: Path) -> list[str]:
    path = out / MANIFEST
    if not path.is_file():
        return [f"{out.name}: no {MANIFEST}"]
    listed = json.loads(path.read_text(encoding="utf-8"))["artifacts"]
    problems = []
    for rel, digest in listed.items():
        target = out / rel
        if not target.is_file():
            problems.append(f"manifest lists missing file {rel}")
        elif sha256(target) != digest:
            problems.append(f"manifest hash mismatch for {rel}")
    unlisted = set(tree_digest(out)) - set(listed)
    if unlisted:
        problems.append(f"files not in the manifest: {sorted(unlisted)}")
    return problems


def oracle_maes(attitude_csv: Path, emotion_csv: Path) -> dict[str, float]:
    """In-sample one-step MAE of every model, by plain least squares."""
    y = floats(read_columns(attitude_csv)["rate"])
    table = read_columns(emotion_csv)
    start, n = max(AR_LAGS, EXOG_LAGS), len(y)
    maes = {}
    for name, columns in MODELS.items():
        lags = [y[start - i : n - i] for i in range(1, AR_LAGS + 1)]
        for column in columns:
            x = floats(table[column])
            lags += [x[start - i : n - i] for i in range(1, EXOG_LAGS + 1)]
        design = np.column_stack(lags)
        beta = np.linalg.lstsq(design, y[start:], rcond=None)[0]
        maes[name] = float(np.mean(np.abs(y[start:] - design @ beta)))
    return maes


def check_models(models_json: Path, maes: dict[str, float]) -> list[str]:
    models = json.loads(models_json.read_text(encoding="utf-8"))["models"]
    names = [m["name"] for m in models]
    if names != list(MODELS):
        return [f"{models_json.name}: models {names}, expected {list(MODELS)}"]
    return [
        f"{models_json.name}: {m['name']} mae {m['mae']!r}, oracle {maes[m['name']]!r}"
        for m in models
        if not close(m["mae"], maes[m["name"]])
    ]


def check_surrogate(surrogate_json: Path, maes: dict[str, float], model: str | None) -> list[str]:
    """The surrogate test ran on ``model`` (default: the best exogenous one)."""
    if model is None:
        exogenous = [n for n in MODELS if n != "ar"]
        model = min(exogenous, key=lambda n: (maes[n], exogenous.index(n)))
    report = json.loads(surrogate_json.read_text(encoding="utf-8"))
    if report["model"] != model:
        return [f"surrogate tested {report['model']}, oracle's best is {model}"]
    if not close(report["empirical_mae"], maes[model]):
        return [f"surrogate empirical_mae {report['empirical_mae']!r}, oracle {maes[model]!r}"]
    return []


def _series(name: str, emotion: dict[str, list[str]], attitude: dict[str, list[str]]) -> np.ndarray:
    if name == "attitude":
        return floats(attitude["rate"])
    stat, dim = name.split("_")
    return floats(emotion[f"{dim}_{stat}"])


def check_track(track_csv: Path, emotion_csv: Path, attitude_csv: Path) -> list[str]:
    """Recompute r on a sample of the track's windows."""
    name_a, name_b = track_csv.stem.split("__")
    emotion, attitude = read_columns(emotion_csv), read_columns(attitude_csv)
    a, b = _series(name_a, emotion, attitude), _series(name_b, emotion, attitude)
    track = read_columns(track_csv)
    n, h = len(a), CORR_WINDOW // 2
    problems = []
    for t in sorted({0, 1, h, n // 2, n - 1}):
        lo, hi = max(0, t - h), min(n - 1, t + h)
        if int(track["n_window"][t]) != hi - lo + 1:
            problems.append(f"{track_csv.name} month {t}: window {track['n_window'][t]}")
            continue
        xa, xb = a[lo : hi + 1], b[lo : hi + 1]
        if np.ptp(xa) == 0 or np.ptp(xb) == 0:
            if track["r"][t]:
                problems.append(f"{track_csv.name} month {t}: r on a constant window")
            continue
        r = float(np.corrcoef(xa, xb)[0, 1])
        if not track["r"][t] or not close(float(track["r"][t]), r):
            problems.append(f"{track_csv.name} month {t}: r {track['r'][t]!r}, oracle {r!r}")
    return problems


def check_run(out: Path) -> list[str]:
    """Manifest hashes and the numpy oracle on a ``moodcast run`` directory."""
    missing = RUN_ARTIFACTS - set(tree_digest(out))
    problems = [f"run wrote no {sorted(missing)}"] if missing else check_manifest(out)
    if problems:
        return problems
    smoothed = (out / "emotion_series_smoothed.csv", out / "attitude_smoothed.csv")
    raw = (out / "emotion_series_aligned.csv", out / "attitude_aligned.csv")
    maes = oracle_maes(smoothed[1], smoothed[0])
    problems += check_models(out / "models.json", maes)
    problems += check_surrogate(out / "surrogate.json", maes, None)
    for label, (emotion, attitude) in (("raw", raw), ("smoothed", smoothed)):
        for track in sorted((out / "correlations" / label).glob("*.csv")):
            problems += check_track(track, emotion, attitude)
    return problems


def check_staged(out: Path, reference: Path, model: str) -> list[str]:
    """Staged outputs equal the full run's and pass the numpy oracle."""
    problems = []
    for staged, full in STAGED_MATCHES.items():
        if not (out / staged).is_file():
            problems.append(f"staged output {staged} is missing")
        elif (out / staged).read_bytes() != (reference / full).read_bytes():
            problems.append(f"staged {staged} differs from run's {full}")
    if problems:
        return problems
    emotion, attitude = out / "emotion_series_smoothed.csv", out / "attitude_smoothed.csv"
    maes = oracle_maes(attitude, emotion)
    problems += check_models(out / "models.json", maes)
    problems += check_surrogate(out / "surrogate.json", maes, model)
    problems += check_track(out / STAGED_TRACK, emotion, attitude)
    return problems


def _compare_values(where: str, got, want, scale: float = 1.0) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [p for k in want for p in _compare_values(f"{where}.{k}", got[k], want[k], scale)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare_values(f"{where}[{i}]", g, w, scale)]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and close(got, want * scale)
        return [] if ok else [f"{where}: {got!r}, expected {want!r} x {scale:g}"]
    return [] if got == want else [f"{where}: {got!r}, expected {want!r}"]


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _compare_csv(rel: str, got: Path, want: Path, factor: int) -> list[str]:
    a, b = read_columns(got), read_columns(want)
    if a.keys() != b.keys():
        return [f"{rel}: header differs"]
    problems = []
    for column in b:
        if column in COUNT_COLUMNS:
            scale = factor
        elif column == "display_weight":
            scale = math.sqrt(factor)
        else:
            scale = 1.0
        cells_a = [_parse_cell(c) for c in a[column]]
        cells_b = [_parse_cell(c) for c in b[column]]
        problems += _compare_values(f"{rel}:{column}", cells_a, cells_b, scale)
    return problems


def compare_scaled(out: Path, reference: Path, factor: int) -> list[str]:
    """Outputs of ``factor`` corpus copies against the single-copy run.

    Thread and token counts must be exactly ``factor`` times the
    reference's; every statistic derived from them must agree within TOL.
    """
    names, expected = set(tree_digest(out)), set(tree_digest(reference))
    if names != expected:
        return [f"output files differ from the reference run: {sorted(names ^ expected)}"]
    problems = []
    for rel in sorted(names):
        got, want = out / rel, reference / rel
        if rel.endswith(".csv"):
            problems += _compare_csv(rel, got, want, factor)
        elif rel == "buckets.json":
            problems += _compare_values(rel, json.loads(got.read_text()), json.loads(want.read_text()), factor)
        else:
            problems += _compare_values(rel, json.loads(got.read_text()), json.loads(want.read_text()))
    return problems
