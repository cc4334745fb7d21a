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
