"""A bounded, seeded mutation fuzz of the command line's exit-code contract.

Each case makes ``MUTATIONS_PER_CASE`` single mutations, one at a time, of
one input file of a finished run (or of the shipped lexicon), and runs the
command that reads it through ``moodcast.cli.main`` after each. A
reader exits 0 or 2 (``score`` and ``report``), or also 3 (the commands
that check an analysis precondition); nothing exits 4 or raises out of
``main``. ``run`` is fuzzed through the two small inputs it loads, the
lexicon and the attitude series: it exits 0, 2 or 3, and a failed run
leaves a ``run.failed`` naming one of its stages and no manifest. The
message archive's reader is fuzzed against its per-line oracle: mutated
archives must fold to the same threads or fail with the same error. The
seeds are fixed, so a failure names a mutation that reproduces it.
"""

import json
import random
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest

from moodcast import ingest
from moodcast.cli import main
from moodcast.errors import InputFormatError

# Cells that read as no finite number, or as one out of every range.
_NUMBERS = [b"nan", b"inf", b"NaN", b"Infinity", b"1e999", b"9" * 30, b"1" + b"0" * 29]
# Bytes that split or break a line, a field or a string: a form feed, NEL,
# U+2028, a lone quote, a comma and a byte that is not UTF-8.
_INSERTS = [b"\x0c", "\x85".encode(), "\u2028".encode(), b'"', b",", b"\xff"]
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mutate(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """One random mutation of ``data``, and what it did."""
    lines = data.split(b"\n")
    kind = rng.choice(["cut", "swap", "number", "insert"])
    if kind == "cut":
        i = rng.randrange(len(lines))
        return b"\n".join(lines[:i] + lines[i + 1 :]), f"cut line {i + 1}"
    if kind == "swap":
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines), f"swapped lines {i + 1} and {j + 1}"
    numbers = list(_NUMBER.finditer(data))
    if kind == "number" and numbers:
        match, number = rng.choice(numbers), rng.choice(_NUMBERS)
        mutated = data[: match.start()] + number + data[match.end() :]
        return mutated, f"number at byte {match.start()} became {number!r}"
    at, insert = rng.randrange(len(data) + 1), rng.choice(_INSERTS)
    return data[:at] + insert + data[at:], f"inserted {insert!r} at byte {at}"


# Case -> (file of the run directory, or the lexicon, that is mutated;
# the command that reads it; the exit codes it may return).
CASES = {
    "smooth-emotion-table": ("emotion_series_smoothed.csv", "smooth", {0, 2, 3}),
    "suite-emotion-table": ("emotion_series_smoothed.csv", "suite", {0, 2, 3}),
    "correlate-rate-series": ("attitude_aligned.csv", "correlate", {0, 2, 3}),
    "score-buckets": ("buckets.json", "score", {0, 2}),
    "score-lexicon": ("lexicon.csv", "score", {0, 2}),
    "report-models": ("models.json", "report", {0, 2}),
    "report-surrogate": ("surrogate.json", "report", {0, 2}),
    "report-manifest": ("run_manifest.json", "report", {0, 2}),
    "report-track": ("correlations/smoothed/mean_valence__attitude.csv", "report", {0, 2}),
}
MUTATIONS_PER_CASE = 20


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_input_keeps_the_exit_code_contract(case, tmp_path, capsys, pipeline_run,
                                                    lexicon_path):
    name, command, allowed = CASES[case]
    run = tmp_path / "run"
    shutil.copytree(pipeline_run[0], run)
    shutil.copy(lexicon_path, run / "lexicon.csv")
    target = run / name
    original = target.read_bytes()
    out = tmp_path / "out"
    argv = {
        "smooth": ["--series", str(target), "--out", str(out)],
        "suite": ["--attitude-series", str(run / "attitude_smoothed.csv"),
                  "--emotion-series", str(target), "--out", str(out)],
        "correlate": ["--series-a", str(run / "attitude_smoothed.csv"), "--series-b", str(target),
                      "--out", str(out)],
        "score": ["--lexicon", str(run / "lexicon.csv"), "--buckets", str(run / "buckets.json"),
                  "--out", str(out)],
        "report": ["--run", str(run), "--out", str(out)],
    }[command]
    rng = random.Random(case)
    for _ in range(MUTATIONS_PER_CASE):
        mutated, what = _mutate(original, rng)
        target.write_bytes(mutated)
        code = main([command, *argv])
        assert code in allowed, f"{case}: {what}: exit {code}\n{capsys.readouterr().err}"


# Case -> the shipped input of ``run`` that is mutated. A run costs more
# than one reader, so these cases make fewer mutations.
RUN_CASES = {"run-lexicon": "lexicon.csv", "run-attitude": "approval.csv"}
RUN_MUTATIONS_PER_CASE = 10


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_mutated_run_input_fails_one_named_stage(case, tmp_path, capsys, pipeline_run,
                                                 lexicon_path, messages_path, attitude_path):
    stages = [*pipeline_run[1]["timings"], "manifest"]
    for path in (lexicon_path, attitude_path):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / RUN_CASES[case]
    original = target.read_bytes()
    out = tmp_path / "out"
    argv = ["run", "--lexicon", str(tmp_path / lexicon_path.name), "--messages", str(messages_path),
            "--attitude", str(tmp_path / attitude_path.name), "--surrogates", "2", "--out", str(out)]
    rng = random.Random(case)
    for _ in range(RUN_MUTATIONS_PER_CASE):
        mutated, what = _mutate(original, rng)
        target.write_bytes(mutated)
        code = main(argv)
        failure = f"{case}: {what}: exit {code}\n{capsys.readouterr().err}"
        assert code in {0, 2, 3}, failure
        assert (out / "run_manifest.json").exists() == (code == 0), failure
        assert (out / "run.failed").exists() == (code != 0), failure
        if code:
            marker = (out / "run.failed").read_text(encoding="utf-8")
            assert marker.split(": ", 1)[0] in stages, failure
            assert code == 3 or marker.startswith("load-inputs: "), failure


def _archive_lines():
    """The first 300 messages of the shipped corpus: three 16 KiB chunks."""
    path = Path(__file__).parent / "data" / "messages.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[:300]]


# Archive -> how each message is written. ``json.dumps`` writes canonical
# lines, which ``parse_messages`` reads with one ``findall`` per chunk; an
# escaped "\u00e4" in every 20th subject, or compact separators, send
# every chunk to its one ``json.loads``. A mutation that breaks a chunk
# sends that chunk to the per-line read.
ARCHIVES = {
    "canonical": lambda i, obj: json.dumps(obj),
    "escaped": lambda i, obj: json.dumps(
        obj | {"subject": obj["subject"] + " w\u00e4r"} if i % 20 == 0 else obj, ensure_ascii=True
    ),
    "compact": lambda i, obj: json.dumps(obj, separators=(",", ":")),
}
# Strings an edit writes: JSON's structure, line ends ("\r" and "\n" end a
# line; a form feed, NEL and U+2028 do not), a NUL, bytes that are not
# UTF-8 alone, a letter that is, and the characters of ids and timestamps.
_EDITS = [b'"', b"\\", b"{", b"}", b"[", b"]", b",", b":", b" ", b"\n", b"\r", b"\x00", b"\x0c",
          "\x85".encode(), "\u2028".encode(), b"\xff", b"\xc3", "\u00e4".encode(), b"Z", b"T",
          b"-", b"+", b"0", b"9"]
ARCHIVE_MUTATIONS_PER_CASE = 34


def _edit_bytes(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """``data`` after one to three edits, each replacing, inserting before or
    deleting one byte, and what they did."""
    edits = []
    for _ in range(rng.randint(1, 3)):
        at, kind = rng.randrange(len(data)), rng.choice(["replace", "insert", "delete"])
        text = b"" if kind == "delete" else rng.choice(_EDITS)
        data = data[:at] + text + data[at + (kind != "insert") :]
        edits.append(f"{kind} {text!r} at byte {at}")
    return data, "; ".join(edits)


def _tally_or_error(parse, path):
    try:
        tally = parse(path)
    except InputFormatError as exc:
        return f"error: {exc}"
    stamps = [(thread, stamp.isoformat()) for thread, stamp in tally.stamps.items()]
    return stamps, list(tally.subjects.items()), list(tally.counts.items()), len(tally)


def _per_line_parse(path):
    """The oracle: the whole file read as ``parse_messages`` opens it, one line at a time,
    and folded one message at a time."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        rows = ingest._line_rows(handle.readlines(), 1, path)
        return ingest._fold_messages(
            ((lineno,), [message]) for linenos, messages in rows
            for lineno, message in zip(linenos, messages)
        )


@pytest.mark.parametrize("archive", sorted(ARCHIVES))
def test_mutated_archive_parses_as_its_per_line_read(archive, tmp_path):
    original = "".join(ARCHIVES[archive](i, obj) + "\n" for i, obj in enumerate(_archive_lines()))
    path = tmp_path / "messages.jsonl"
    reads = {"findall": 0, "json.loads": 0, "per-line": 0}
    decoded_rows = ingest._decoded_rows

    def counting(chunk, lineno):
        rows = decoded_rows(chunk, lineno)
        kind = "per-line" if rows is None else "findall" if type(rows[0]) is range else "json.loads"
        reads[kind] += 1
        return rows

    rng = random.Random(archive)
    with mock.patch.object(ingest, "_decoded_rows", counting):
        path.write_text(original, encoding="utf-8")
        assert len(ingest.parse_messages(path)) == 300
        for _ in range(ARCHIVE_MUTATIONS_PER_CASE):
            mutated, what = _edit_bytes(original.encode("utf-8"), rng)
            path.write_bytes(mutated)
            assert _tally_or_error(ingest.parse_messages, path) == _tally_or_error(
                _per_line_parse, path
            ), f"{archive}: {what}"
    whole = "findall" if archive == "canonical" else "json.loads"
    assert reads[whole] >= 3 and reads["per-line"] > 0, reads
