"""The four workloads: their inputs, their commands and their checks.

Inputs are made from the seed before anything is timed. Each workload is a
list of CLI invocations (one for the ``run`` workloads, seven for
``staged``) whose output lands in one directory per repetition.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from procs import ROOT

DATA = ROOT / "tests" / "data"
FIXTURES = ROOT / "tools" / "make_fixtures.py"

ARCHIVE_COPIES = 200
LONG_HISTORY_MONTHS = 240

# The model the README's staged example tests; on the shipped corpus it is
# also the lowest-error exogenous model, so staged and run outputs agree.
STAGED_SURROGATE_MODEL = "both-arousal"

WHY = {
    "reference": "the shipped 66-month corpus at paper scale: import and per-call overhead dominate",
    "archive-200x": "200 shuffled copies of the shipped corpus (338k messages): ingest time and memory dominate",
    "long-history": "a gap-free 240-month corpus: per-element analysis and the surrogate refits dominate",
    "staged": "the README's seven-process stage chain: start-up paid seven times, the readers and subcommand handlers",
}


@dataclass(frozen=True)
class Inputs:
    lexicon: Path
    messages: Path
    attitude: Path


def shipped_inputs() -> Inputs:
    return Inputs(DATA / "lexicon.csv", DATA / "messages.jsonl", DATA / "approval.csv")


def make_archive(seed: int, work: Path, copies: int = ARCHIVE_COPIES) -> Inputs:
    """``copies`` copies of the shipped messages, ids prefixed, lines shuffled."""
    base = (DATA / "messages.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines = []
    for k in range(copies):
        tag = f"c{k:03d}-"
        for line in base:
            copied = line.replace('"message_id": "', '"message_id": "' + tag, 1)
            copied = copied.replace('"thread_id": "', '"thread_id": "' + tag, 1)
            if copied.count(tag) != 2:
                raise ValueError(f"unexpected message layout: {line!r}")
            lines.append(copied)
    order = np.random.default_rng(seed).permutation(len(lines))
    path = work / "archive.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines[i] for i in order)
    shipped = shipped_inputs()
    return Inputs(shipped.lexicon, path, shipped.attitude)


def make_long_history(seed: int, work: Path, months: int = LONG_HISTORY_MONTHS) -> Inputs:
    """A ``months``-long corpus from the fixture generator's own writers."""
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES)
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    fixtures.N_MONTHS = months
    rng = np.random.default_rng(seed)
    inputs = Inputs(work / "lexicon.csv", work / "messages.jsonl", work / "approval.csv")
    fixtures.write_lexicon(inputs.lexicon)
    fixtures.write_messages(inputs.messages, rng)
    fixtures.write_attitude(inputs.attitude, rng)
    return inputs


def run_argv(inputs: Inputs, out: Path, seed: int) -> list[str]:
    return [
        "run",
        "--lexicon", str(inputs.lexicon),
        "--messages", str(inputs.messages),
        "--attitude", str(inputs.attitude),
        "--out", str(out),
        "--seed", str(seed),
    ]


def staged_argvs(inputs: Inputs, out: Path, seed: int) -> list[list[str]]:
    """The README's stage-by-stage chain, one CLI process per stage."""
    emotion = out / "emotion_series_smoothed.csv"
    attitude = out / "attitude_smoothed.csv"
    forecast_io = ["--attitude-series", str(attitude), "--emotion-series", str(emotion)]
    return [
        ["ingest", "--messages", str(inputs.messages), "--out", str(out)],
        ["score", "--lexicon", str(inputs.lexicon), "--buckets", str(out / "buckets.json"),
         "--out", str(out)],
        ["smooth", "--series", str(out / "emotion_series.csv"), "--out", str(emotion)],
        ["smooth", "--series", str(inputs.attitude), "--out", str(attitude)],
        ["correlate", "--series-a", str(emotion), "--column-a", "valence_mean",
         "--series-b", str(attitude), "--out", str(out / checks.STAGED_TRACK)],
        ["suite", *forecast_io, "--out", str(out / "models.json")],
        ["surrogate", *forecast_io, "--model", STAGED_SURROGATE_MODEL,
         "--seed", str(seed), "--out", str(out / "surrogate.json")],
    ]


class Workload:
    """One workload prepared for one seed.

    ``reference`` is a finished ``run`` on the shipped corpus with the same
    seed, made before timing, for the workloads whose outputs must agree
    with it.
    """

    def __init__(self, name: str, seed: int, work: Path):
        if name not in WHY:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
        self.name = name
        self.seed = seed
        if name == "archive-200x":
            self.inputs = make_archive(seed, work)
        elif name == "long-history":
            self.inputs = make_long_history(seed, work)
        else:
            self.inputs = shipped_inputs()
        self.needs_reference = name in ("archive-200x", "staged")

    def reference_argv(self, out: Path) -> list[str]:
        return run_argv(shipped_inputs(), out, self.seed)

    def argvs(self, out: Path) -> list[list[str]]:
        if self.name == "staged":
            return staged_argvs(self.inputs, out, self.seed)
        return [run_argv(self.inputs, out, self.seed)]

    def check(self, out: Path, reference: Path | None) -> list[str]:
        """Every correctness problem with one repetition's outputs."""
        if self.name == "staged":
            return checks.check_staged(out, reference, STAGED_SURROGATE_MODEL)
        problems = checks.check_run(out)
        if self.name == "archive-200x":
            problems += checks.compare_scaled(out, reference, ARCHIVE_COPIES)
        return problems
