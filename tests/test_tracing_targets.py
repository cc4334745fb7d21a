"""The benchmark's span recorder wraps package functions by name.

``bench/tracing.py`` is read, not imported as a package, so a rename or
move of a traced function fails here rather than only under ``--trace 1``.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
