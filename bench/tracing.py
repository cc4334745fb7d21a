"""Span recorder around the package's public functions, and the traced child.

The recorder wraps functions from outside the program: it replaces every
binding of each target function in every loaded ``moodcast`` module, since
``cli.py`` and ``pipeline.py`` bind names with ``from .x import y`` and
modules call each other through their own globals. ``uninstall`` puts the
originals back. Spans (id, parent id, name, start, end) stay in memory and
are written out when the child ends.

Run as a script, this file is the traced child: after a traced warm-up it
repeats the workload's CLI calls in-process, alternating an untraced and a
traced repetition, so the difference between the two is the tracing
overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path

# (module, function, span name). Span names are the per-layer metric stems.
# The cli stage handlers orchestrate stages the way ``run_pipeline`` does,
# so both count as the pipeline layer.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("pipeline", "run_pipeline", "pipeline.run"),
    *[("cli", f"_cmd_{stage}", "pipeline.run")
      for stage in ("ingest", "score", "smooth", "correlate", "forecast", "suite", "surrogate")],
    ("lexicon", "load_lexicon", "lexicon.load"),
    ("ingest", "parse_messages", "ingest.parse"),
    ("ingest", "build_threads", "ingest.thread"),
    ("ingest", "filter_threads", "ingest.thread"),
    ("ingest", "monthly_subject_buckets", "ingest.bucket"),
    ("emotion", "build_series", "emotion.score"),
    ("emotion", "top_lexicon_words", "emotion.top_words"),
    ("months", "check_contiguous", "months.check_contiguous"),
    ("analysis", "hamming_smooth", "analysis.smooth"),
    ("analysis", "rolling_correlation", "analysis.correlate"),
    ("analysis", "fisher_significance", "analysis.significance"),
    ("forecast", "model_suite", "forecast.suite"),
    ("forecast", "surrogate_test", "forecast.surrogate"),
    ("forecast", "fit_arma", "forecast.fit"),
    ("forecast", "evaluate", "forecast.evaluate"),
    ("forecast", "assemble_regression", "forecast.assemble"),
    ("forecast", "permute_series", "forecast.permute"),
    *[("reports", f"write_{kind}", "reports.write")
      for kind in ("emotion_csv", "series_csv", "correlation_csv", "counts_csv",
                   "top_words_csv", "buckets_json", "models_json", "surrogate_json")],
    ("reports", "_write_json", "reports.write"),
    *[("reports", f"read_{kind}", "reports.read")
      for kind in ("emotion_csv", "series_csv", "correlation_csv", "buckets_json")],
    ("reports", "sha256_file", "reports.hash"),
]


def _bytes_written(counters: Counter, args: tuple, kwargs: dict, result) -> None:
    counters["reports.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


# Counts taken at the span boundary from arguments and results, by function.
HOOKS = {
    "parse_messages": lambda c, a, k, r: c.update({"ingest.messages": len(r)}),
    "build_threads": lambda c, a, k, r: c.update({"ingest.threads": len(r)}),
    "filter_threads": lambda c, a, k, r: c.update({"ingest.threads_kept": len(r)}),
    "build_series": lambda c, a, k, r: c.update({
        "emotion.tokens": sum(sum(b.token_counts.values()) for b in a[0]),
        "emotion.matched": sum(m.match_count for m in r.records),
    }),
}


class _CountingWarnings:
    """Stands in for ``forecast.warnings`` to count fit warnings."""

    def __init__(self, counters: Counter):
        self._counters = counters

    def __getattr__(self, name):
        return getattr(warnings, name)

    def warn(self, *args, stacklevel: int = 1, **kwargs):
        self._counters["forecast.fit_warnings"] += 1
        warnings.warn(*args, stacklevel=stacklevel + 1, **kwargs)


class Recorder:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.rss_after_parse_mb: float | None = None
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, name: str, func):
        recorder, spans, stack, open_spans = self, self.spans, self._stack, self._open
        hook = HOOKS.get(func.__name__)
        if name == "reports.write":
            hook = _bytes_written

        @wraps(func)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, time.perf_counter(), None]
            spans.append(span)
            outer = name not in open_spans
            stack.append(span[0])
            open_spans[name] = open_spans.get(name, 0) + 1
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                open_spans[name] -= 1
                if not open_spans[name]:
                    del open_spans[name]
            if hook is not None and outer:
                hook(recorder.counters, args, kwargs, result)
            if name == "ingest.parse" and recorder.rss_after_parse_mb is None:
                recorder.rss_after_parse_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return result

        return traced

    def _bind(self, namespace, attr: str, value) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        import moodcast.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "moodcast" or n.startswith("moodcast.")]
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[f"moodcast.{module_name}"], attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, bound, wrapper)
        self._bind(sys.modules["moodcast.forecast"], "warnings", _CountingWarnings(self.counters))

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)


def _union_s(spans: list[list], names: set[str]) -> float:
    """Time covered by spans with these names, nested ones counted once."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, parent, name, start, end in spans:
        if name not in names:
            continue
        while parent is not None and by_id[parent][2] not in names:
            parent = by_id[parent][1]
        if parent is None:
            total += end - start
    return total


def _self_s(spans: list[list], name: str) -> float:
    """Duration of the named spans minus what their direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return sum(end - start - child_time[sid] for sid, _, n, start, end in spans if n == name)


TIMED = [
    "cli.main", "pipeline.run", "lexicon.load", "ingest.parse", "ingest.thread", "ingest.bucket",
    "emotion.score", "emotion.top_words", "months.check_contiguous", "analysis.smooth",
    "analysis.correlate", "analysis.significance", "forecast.suite", "forecast.surrogate",
    "forecast.fit", "forecast.evaluate", "forecast.assemble", "forecast.permute", "reports.write",
]
COUNTED = {
    "cli.main": "cli.main_calls",
    "emotion.top_words": "emotion.top_words_calls",
    "months.check_contiguous": "months.check_contiguous_calls",
    "analysis.smooth": "analysis.smooth_calls",
    "analysis.correlate": "analysis.correlate_calls",
    "analysis.significance": "analysis.significance_calls",
    "forecast.fit": "forecast.fit_calls",
    "forecast.assemble": "forecast.assemble_calls",
    "forecast.permute": "forecast.permute_calls",
    "reports.read": "reports.read_calls",
    "reports.hash": "reports.hash_calls",
}


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer times and counts of one traced repetition."""
    metrics = {f"{name}_s": _union_s(spans, {name}) for name in TIMED}
    metrics["pipeline.self_s"] = _self_s(spans, "pipeline.run")
    metrics["reports.read_hash_s"] = _union_s(spans, {"reports.read", "reports.hash"})
    calls = Counter(s[2] for s in spans)
    metrics.update({metric: calls[name] for name, metric in COUNTED.items()})
    for key in ("ingest.messages", "ingest.threads", "ingest.threads_kept",
                "forecast.fit_warnings", "reports.bytes_written"):
        metrics[key] = counters.get(key, 0)
    metrics["ingest.kept_ratio"] = metrics["ingest.threads_kept"] / max(1, metrics["ingest.threads"])
    metrics["emotion.match_ratio"] = counters.get("emotion.matched", 0) / max(1, counters.get("emotion.tokens", 0))
    return metrics


def run_calls(argvs: list[list[str]]) -> list[int]:
    """Call ``moodcast.cli.main`` on each argument list, in this process."""
    import moodcast.cli

    codes = []
    for argv in argvs:
        try:
            codes.append(moodcast.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 2)
    return codes


def run_rep(argvs: list[list[str]], recorder: Recorder, traced: bool) -> dict:
    """One repetition of the workload's calls, with or without the recorder."""
    recorder.reset()
    if traced:
        recorder.install()
    start = time.perf_counter()
    try:
        codes = run_calls(argvs)
    finally:
        wall = time.perf_counter() - start
        recorder.uninstall()
    return {
        "traced": traced,
        "wall_s": wall,
        "codes": codes,
        "spans": list(recorder.spans),
        "counters": dict(recorder.counters),
    }


def summarize(results: list[dict], rss_after_parse_mb: float | None) -> dict[str, float]:
    """Median per-layer metrics over the traced repetitions after the first.

    The first repetition runs in a cold process (first calls into numpy and
    scipy, empty allocator pools); it only supplies the RSS after parsing.
    """
    warm = results[1:]
    traced = [r for r in warm if r["traced"]]
    plain = [r for r in warm if not r["traced"]]
    per_rep = [layer_metrics(r["spans"], r["counters"]) for r in traced]
    metrics = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    metrics["ingest.rss_after_parse_mb"] = rss_after_parse_mb or 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    )
    return metrics


def main(spec_path: str) -> int:
    """Traced child: a traced warm-up, then untraced/traced pairs until time is up.

    The spec names the CLI argument lists (``{out}`` stands for the
    repetition's output directory), the seconds to fill and the result path.
    """
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import moodcast.cli  # noqa: F401  (imported before anything is timed)

    recorder = Recorder()
    results = []
    start = time.perf_counter()
    while len(results) < 3 or len(results) % 2 == 0 or time.perf_counter() - start < spec["seconds"]:
        out = spec["out_pattern"].format(rep=len(results))
        argvs = [[arg.replace("{out}", out) for arg in argv] for argv in spec["argvs"]]
        results.append(run_rep(argvs, recorder, traced=len(results) % 2 == 0))
        results[-1]["out"] = out
    payload = {"results": results, "rss_after_parse_mb": recorder.rss_after_parse_mb}
    Path(spec["result"]).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
