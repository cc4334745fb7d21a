"""Self-tests of the benchmark: span counts, generators, checks, metric names.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import json
import shutil

import pytest

import checks
import run
from procs import IMPORT_GROUPS, ROOT
from tracing import Recorder, layer_metrics, run_rep, summarize
from workloads import WHY, Workload, make_archive, make_long_history, run_argv, shipped_inputs


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """One traced in-process ``run`` on the shipped corpus."""
    out = tmp_path_factory.mktemp("reference") / "out"
    rep = run_rep([run_argv(shipped_inputs(), out, seed=0)], Recorder(), traced=True)
    assert rep["codes"] == [0]
    return out, layer_metrics(rep["spans"], rep["counters"])


def test_reference_span_counts(reference_run):
    _, metrics = reference_run
    assert metrics["forecast.fit_calls"] == 1011
    assert metrics["forecast.assemble_calls"] == 2022
    assert metrics["analysis.correlate_calls"] == 42
    assert metrics["analysis.significance_calls"] == 2772
    assert metrics["analysis.smooth_calls"] == 7
    assert metrics["forecast.permute_calls"] == 2000
    assert metrics["reports.hash_calls"] == 55
    assert metrics["reports.read_calls"] == 0
    assert metrics["ingest.messages"] == 1690


def test_recorder_restores_every_binding(reference_run):
    import moodcast.analysis
    import moodcast.forecast
    import moodcast.pipeline

    wrapped = [
        moodcast.pipeline.run_pipeline,
        moodcast.pipeline.model_suite,
        moodcast.analysis.check_contiguous,
        moodcast.analysis.fisher_significance,
        moodcast.forecast.fit_arma,
    ]
    assert all(not hasattr(f, "__wrapped__") for f in wrapped)
    assert moodcast.forecast.warnings.__name__ == "warnings"


def test_long_history_significance_calls(tmp_path):
    inputs = make_long_history(seed=7, work=tmp_path)
    argv = run_argv(inputs, tmp_path / "out", seed=7) + ["--gap-policy", "fail"]
    rep = run_rep([argv], Recorder(), traced=True)
    assert rep["codes"] == [0]
    assert layer_metrics(rep["spans"], rep["counters"])["analysis.significance_calls"] == 240 * 42
    assert checks.check_run(tmp_path / "out") == []


@pytest.mark.parametrize("make", [make_long_history, lambda seed, work: make_archive(seed, work, copies=5)])
def test_generators_are_deterministic_per_seed(tmp_path, make):
    made = {}
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / label).mkdir()
        made[label] = make(seed, tmp_path / label).messages.read_bytes()
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]


def test_archive_copies_are_prefixed_and_complete(tmp_path):
    lines = make_archive(3, tmp_path, copies=4).messages.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 4 * 1690
    assert len({r["message_id"] for r in records}) == len(records)
    assert {r["thread_id"][:5] for r in records} == {"c000-", "c001-", "c002-", "c003-"}


def test_check_flags_corrupted_artifacts(reference_run, tmp_path):
    out, _ = reference_run
    assert checks.check_run(out) == []

    trimmed = shutil.copytree(out, tmp_path / "trimmed")
    (trimmed / "correlations" / "raw" / "std_arousal__attitude.csv").unlink()
    assert "std_arousal__attitude" in checks.check_run(trimmed)[0]

    flipped = shutil.copytree(out, tmp_path / "flipped")
    track = flipped / "correlations" / "smoothed" / "mean_valence__attitude.csv"
    track.write_text(track.read_text().replace("0.", "1.", 1))
    assert any("hash mismatch" in p for p in checks.check_run(flipped))

    # A wrong number with a manifest rewritten to match is caught by the oracle.
    forged = shutil.copytree(out, tmp_path / "forged")
    models = json.loads((forged / "models.json").read_text())
    models["models"][3]["mae"] += 1e-6
    (forged / "models.json").write_text(json.dumps(models, indent=2) + "\n")
    manifest = json.loads((forged / checks.MANIFEST).read_text())
    manifest["artifacts"]["models.json"] = checks.sha256(forged / "models.json")
    (forged / checks.MANIFEST).write_text(json.dumps(manifest))
    problems = checks.check_run(forged)
    assert problems and all("mean-dominance" in p for p in problems)


def test_repetitions_must_match_the_first(reference_run, tmp_path):
    out, _ = reference_run
    workload = Workload("reference", 0, tmp_path)
    problems, digest = run._checked(workload, out, None, [0], None)
    assert problems == [] and "models.json" in digest
    problems, _ = run._checked(workload, out, None, [0], {**digest, "models.json": "0"})
    assert problems == ["outputs are not byte-identical to the first repetition's"]
    assert run._checked(workload, out, None, [0, 3], digest) == (["command 2 exited 3"], None)


def test_scaled_comparison_needs_exact_multiples(reference_run, tmp_path):
    out, _ = reference_run
    assert checks.compare_scaled(out, out, 1) == []
    assert any("thread_count" in p for p in checks.compare_scaled(out, out, 2))


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(WHY[w["name"]] == w["why"] for w in spec["workloads"])
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["end_to_end"])

    rep = {"traced": True, "wall_s": 1.0, "spans": [], "counters": {}}
    reported = summarize([rep, dict(rep, traced=False), rep], 1.0)
    expected = set(reported) | {f"import.{key}_s" for key in ("total", *IMPORT_GROUPS)}
    assert {m["name"] for m in spec["per_layer"]} == expected
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
