"""The benchmark's span recorder wraps package functions by name.

``bench/tracing.py`` is read, not imported as a package, so a rename or
move of a traced function fails here rather than only under ``--trace 1``.
"""

import importlib
import inspect
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # run_path compiles the file in memory and writes no bytecode cache.
    return runpy.run_path(str(TRACING), run_name="bench_tracing")


def test_every_target_is_a_function_of_the_package(tracing):
    missing = []
    for module_name, attr, _ in tracing["TARGETS"]:
        module = importlib.import_module(f"moodcast.{module_name}")
        if not inspect.isfunction(getattr(module, attr, None)):
            missing.append(f"moodcast.{module_name}.{attr}")
    assert not missing, missing


def test_every_hook_names_a_target(tracing):
    targets = {attr for _, attr, _ in tracing["TARGETS"]}
    assert set(tracing["HOOKS"]) <= targets


def test_cli_import_loads_every_traced_module(tracing):
    # The recorder imports ``moodcast.cli`` and then looks each target's
    # module up in ``sys.modules`` (and ``moodcast.forecast`` for its
    # warnings), so a module that the CLI imported lazily would break
    # ``--trace 1`` with a KeyError. Checked in a fresh interpreter.
    modules = sorted({f"moodcast.{m}" for m, _, _ in tracing["TARGETS"]} | {"moodcast.forecast"})
    script = (
        "import sys\n"
        "import moodcast.cli\n"
        "missing = [m for m in sys.argv[1:] if m not in sys.modules]\n"
        "assert not missing, missing\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *modules],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr


def test_hooks_read_what_the_hooked_functions_return(tracing, messages_path, lexicon, tmp_path):
    # Each hook reads its function's arguments and result at the span
    # boundary (``len()`` of the ingest results, the records' match counts),
    # so a change of those results breaks the traced counts; checked here on
    # the shipped corpus with the arguments the pipeline passes, against the
    # corpus counts that the ingest stage gives the manifest.
    from moodcast.emotion import build_series
    from moodcast.ingest import (
        build_threads,
        filter_threads,
        monthly_subject_buckets,
        parse_messages,
    )
    from moodcast.pipeline import ingest_stage

    tally = parse_messages(messages_path)
    threads = build_threads(tally)
    kept = filter_threads(threads, 3)
    buckets = monthly_subject_buckets(kept)
    calls = {
        "parse_messages": ((messages_path,), tally),
        "build_threads": ((tally,), threads),
        "filter_threads": ((threads, 3), kept),
        "build_series": ((buckets, lexicon), build_series(buckets, lexicon)),
    }
    hooks = tracing["HOOKS"]
    assert set(hooks) == set(calls)
    counters = Counter()
    for name, (args, result) in calls.items():
        hooks[name](counters, args, {}, result)
    _, corpus, _ = ingest_stage(tally, tmp_path, min_messages=3)
    assert corpus == {"messages": 1690, "threads": counters["ingest.threads"],
                      "threads_kept": counters["ingest.threads_kept"]}
    assert counters["ingest.messages"] == 1690
    assert counters["ingest.threads"] >= counters["ingest.threads_kept"] > 0
    assert counters["emotion.tokens"] >= counters["emotion.matched"] > 0
