#!/usr/bin/env python3
"""The moodcast benchmark.

    python3 bench/run.py --workload reference --seed 1 --seconds 10 --trace 0

Makes the workload's inputs from ``--seed``, then repeats the workload for
``--seconds`` (at least twice), each CLI command in a fresh single-threaded
interpreter, and checks every repetition's outputs. With ``--trace 0`` it
reports the end-to-end metrics (medians over repetitions); with
``--trace 1`` it runs the same calls in one traced child process and
reports per-layer times and counts. ``--workload all`` runs every workload
in turn. Human-readable lines go first; the last line of standard output
is the JSON result. Everything is written under ``.bench_work/`` in the
repository root and removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from procs import ROOT, SRC, child_env, import_times, probe_setup, run_cli
from tracing import summarize
from workloads import WHY, Workload

BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"

# Start-up is sampled from every child; probes top it up to this many.
MIN_SETUP_SAMPLES = 7


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _checked(workload: Workload, out: Path, reference: Path | None, codes: list[int],
             first: dict[str, str] | None) -> tuple[list[str], dict[str, str] | None]:
    """Problems with one repetition, and its output digest if it passed.

    ``first`` is the digest of the first repetition that passed; every
    later one must match it byte for byte.
    """
    problems = [f"command {i + 1} exited {code}" for i, code in enumerate(codes) if code != 0]
    if problems:
        return problems, None
    try:
        problems = workload.check(out, reference)
        digest = checks.tree_digest(out)
    except Exception as exc:  # a broken output must count as a failure, not stop the run
        return [f"check raised {exc!r}"], None
    if first is not None and digest != first:
        problems.append("outputs are not byte-identical to the first repetition's")
    return problems, None if problems else digest


def _prepare(name: str, seed: int, work: Path) -> tuple[Workload, Path | None, list[str]]:
    """Inputs, warm caches and, where needed, the reference run; all untimed."""
    workload = Workload(name, seed, work)
    probe_setup(work)  # compiles bytecode and fills the page cache
    if not workload.needs_reference:
        return workload, None, []
    reference = work / "reference"
    child = run_cli(workload.reference_argv(reference), work)
    problems = [f"reference run exited {child.code}: {child.stderr[-500:]}"] if child.code else []
    if not problems:
        try:
            problems = checks.check_run(reference)
        except Exception as exc:  # see _checked
            problems = [f"reference check raised {exc!r}"]
    return workload, reference, problems


def measure(name: str, seed: int, seconds: float, work: Path) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    workload, reference, problems = _prepare(name, seed, work)
    walls, cpus, rss, setups, failures = [], [], [], [], []
    first_digest = None
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        out = work / f"rep{len(walls)}"
        children = []
        for argv in workload.argvs(out):
            children.append(run_cli(argv, work))
            if children[-1].code != 0:
                break
        rep_problems, digest = _checked(workload, out, reference, [c.code for c in children], first_digest)
        first_digest = first_digest or digest
        failures.append(problems + rep_problems + [c.stderr[-500:] for c in children if c.code])
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rss.append(max(c.max_rss_mb for c in children))
        setups += [c.setup_s for c in children if c.code == 0]
        shutil.rmtree(out, ignore_errors=True)
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = probe_setup(work)
        if probe.code != 0:
            failures.append([f"import probe exited {probe.code}: {probe.stderr[-500:]}"])
            break
        setups.append(probe.setup_s)
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups or [float("nan")], "peak_rss_mb": rss}
    return _result(name, failures, samples)


def measure_traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    """Per-layer metrics of one workload from the traced child."""
    workload, reference, problems = _prepare(name, seed, work)
    imports = import_times(work)
    spec = {
        "argvs": workload.argvs(Path("{out}")),
        "out_pattern": str(work / "rep{rep}"),
        "seconds": seconds,
        "result": str(work / "trace.json"),
    }
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(work / "spec.json")],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if child.returncode != 0:
        return _result(name, [[f"traced child exited {child.returncode}: {child.stderr[-500:]}"]], {})
    payload = json.loads((work / "trace.json").read_text(encoding="utf-8"))
    failures, first_digest = [], None
    for rep in payload["results"]:
        rep_problems, digest = _checked(workload, Path(rep["out"]), reference, rep["codes"], first_digest)
        first_digest = first_digest or digest
        failures.append(problems + rep_problems)
    metrics = summarize(payload["results"], payload["rss_after_parse_mb"])
    metrics.update({f"import.{key}_s": value for key, value in imports.items()})
    return _result(name, failures, {key: [value] for key, value in metrics.items()})


def _result(name: str, failures: list[list[str]], samples: dict[str, list[float]]) -> dict:
    failed = sum(1 for problems in failures if problems)
    attempted = max(1, len(failures))
    for i, problems in enumerate(failures):
        for problem in problems[:5]:
            print(f"{name} repetition {i}: {problem}", file=sys.stderr)
    metrics = {}
    for metric, values in samples.items():
        q1, median, q3 = quartiles(values)
        unit = unit_of(metric)
        spread = f"q1 {q1:.6f} q3 {q3:.6f} n={len(values)}" if len(values) > 1 else ""
        print(f"{name:13} {metric:32} {median:14.6f} {unit:5} {spread}")
        metrics[metric] = {"value": median, "unit": unit}
    print(f"{name:13} {'failed_frac':32} {failed / attempted:14.6f} ratio ({failed} of {attempted} runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "moodcast" / "cli.py").is_file():
        print(f"error: the moodcast sources are not at {SRC}", file=sys.stderr)
        return 2
    names = list(WHY) if args.workload == "all" else [args.workload]
    run = measure_traced if args.trace else measure
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        results = {}
        for name in names:
            (work / name).mkdir()
            results[name] = run(name, args.seed, args.seconds, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
