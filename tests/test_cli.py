import ast
import importlib.util
import inspect
import json
import math
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import moodcast
from moodcast import analysis, cli, emotion, forecast, ingest, reports, tables
from moodcast.cli import build_parser, main
from moodcast.analysis import NumericSeries
from moodcast.pipeline import GAP_POLICIES, PipelineConfig, fill_gaps, run_pipeline
from moodcast.reports import EMOTION_HEADER


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def source_files():
    """Every Python file under ``src/``, ``tests/`` and ``tools/``."""
    return [p for d in ("src", "tests", "tools") for p in sorted((ROOT / d).rglob("*.py"))]


def unused_imports(source):
    """The names that ``source`` imports at module level, or under ``if TYPE_CHECKING:``,
    and never reads; ``__future__`` imports are exempt."""
    tree = ast.parse(source)
    statements = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            statements += node.body
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = []
    for node in statements:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            # ``import a.b`` binds ``a``.
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            unused += [name for name in bound if name not in read]
    return unused


# The one module allowed each CSV and JSON reader and writer call; ``ingest``'s
# ``json.loads`` of message lines is not a file rule. Bytes reach a file only
# through ``tables.write_file``: it alone renames, and opens a file to write.
FILE_RULE_OWNERS = {
    "csv.reader": "tables.py", "csv.writer": "tables.py",
    "json.load": "reports.py", "json.dump": "reports.py", "json.dumps": "reports.py",
    "os.replace": "tables.py", "os.rename": "tables.py",
    ".write_text": "tables.py", ".write_bytes": "tables.py", "open to write": "tables.py",
}


def file_rule_uses(source):
    """The ``FILE_RULE_OWNERS`` names that ``source`` reads as attributes or imports by
    name, ``.write_text`` and ``.write_bytes`` of any object, and ``open to write`` for an
    ``open`` call or ``.open`` method whose mode holds ``w``, ``a``, ``x`` or ``+`` or is
    not a string literal."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            uses += [ast.unparse(node), f".{node.attr}"]
        elif isinstance(node, ast.ImportFrom):
            uses += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "open":
            # ``open(file, mode)``; a method, such as ``Path.open(mode)``, takes the mode first.
            first = 1 if isinstance(node.func, ast.Name) else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[first:][:1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                uses.append("open to write")
    return [name for name in uses if name in FILE_RULE_OWNERS]


# A YYYY-MM month label as an f-string (``f"{year:04d}-{month:02d}"``) or a %-format.
MONTH_LABEL_FORMAT = re.compile(r"\{[^{}]*:04d\}-\{[^{}]*:02d\}|%04d-%02d")


def readme_chain(inputs, stage, options):
    """The README's stage-by-stage commands, each given those of ``options`` (flag -> value)
    that it takes."""
    lexicon, messages, attitude = inputs

    def flags(*names):
        return [item for name in names if name in options for item in (name, str(options[name]))]

    emotion, smoothed = stage / "emotion_series_smoothed.csv", stage / "attitude_smoothed.csv"
    forecast_io = ["--attitude-series", str(smoothed), "--emotion-series", str(emotion),
                   *flags("--p", "--q")]
    smooth = flags("--smooth-window", "--gap-policy")
    return [
        ["ingest", "--messages", str(messages), *flags("--min-messages"), "--out", str(stage)],
        ["score", "--lexicon", str(lexicon), "--buckets", str(stage / "buckets.json"),
         "--out", str(stage)],
        ["smooth", "--series", str(stage / "emotion_series.csv"), *smooth, "--out", str(emotion)],
        ["smooth", "--series", str(attitude), *smooth, "--out", str(smoothed)],
        ["correlate", "--series-a", str(emotion), "--column-a", "valence_mean",
         "--series-b", str(smoothed), *flags("--corr-window", "--alpha"),
         "--out", str(stage / "mean_valence__attitude.csv")],
        ["suite", *forecast_io, "--out", str(stage / "models.json")],
        ["surrogate", *forecast_io, "--model", "both-arousal", *flags("--surrogates", "--seed"),
         "--out", str(stage / "surrogate.json")],
    ]


def assert_staged_files_are_runs(stage, full):
    """The chain's nine files equal ``run``'s artifacts of the same names, byte for byte."""
    staged = sorted(p.name for p in stage.iterdir())
    assert len(staged) == 9
    for name in staged:
        expected = full / name
        if name == "mean_valence__attitude.csv":
            expected = full / "correlations" / "smoothed" / name
        assert (stage / name).read_bytes() == expected.read_bytes(), name


def _bucket_file(token_counts):
    entry = f'{{"month": "2001-01", "thread_count": 1, "token_counts": {token_counts}}}'
    return f'{{"buckets": [{entry}]}}'


def _noted_buckets(place, number):
    """A valid buckets file with a ``note`` member, which no reader reads, holding ``number``
    as a top-level key or as a key of its bucket."""
    bucket = {"month": "2001-01", "thread_count": 1, "token_counts": {"war": 1}}
    payload = {"buckets": [bucket]}
    {"top-level-key": payload, "bucket-key": bucket}[place]["note"] = "NOTE"
    return json.dumps(payload).replace('"NOTE"', number)


def _buckets_on(*months):
    entries = [{"month": month, "thread_count": 1, "token_counts": {"war": 1}} for month in months]
    return json.dumps({"buckets": entries})


def _series_file(cell):
    return f"month,rate\n2001-01,1.0\n2001-02,{cell}\n2001-03,3.0\n"


def _emotion_file(*rows):
    return ",".join(EMOTION_HEADER) + "".join(f"\n{row}" for row in rows) + "\n"


def _message_file(timestamp):
    message = {"message_id": "m0", "thread_id": "t0", "group": "g", "timestamp": timestamp,
               "subject": "war"}
    return json.dumps(message) + "\n"


def _run_file(pattern, replacement):
    """A finished run's file, edited: its first match of ``pattern`` replaced."""
    return lambda text: re.sub(pattern, replacement, text, count=1)


_DEEPLY_NESTED = "[" * 100000 + "]" * 100000

# An integer literal past the interpreter's 4,300-digit conversion limit:
# json raises a plain ValueError for it, not a JSONDecodeError. Python
# before 3.10.7, or one run with PYTHONINTMAXSTRDIGITS=0, has no limit and
# decodes it (as does one with a higher limit), so the cases that use it are skipped there.
_LONG_INTEGER = "1" * 4301
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_NO_DIGIT_LIMIT = not 0 < _DIGIT_LIMIT < len(_LONG_INTEGER)
needs_digit_limit = pytest.mark.skipif(
    _NO_DIGIT_LIMIT, reason="this interpreter converts integers of any length"
)


# Malformed input -> (file, its text, subcommand that reads it). The file
# path is relative to a run directory, which report cases copy from a
# finished run; a callable text edits the finished run's own file.
MALFORMED = {
    "buckets-not-a-list": ("buckets.json", '{"buckets": 5}', "score"),
    "buckets-deeply-nested": ("buckets.json", _DEEPLY_NESTED, "score"),
    "messages-deeply-nested": ("messages.jsonl", _DEEPLY_NESTED + "\n", "ingest"),
    "messages-integer-over-digit-limit": (
        "messages.jsonl", _message_file("2004-03-05").replace('"m0"', _LONG_INTEGER), "ingest"
    ),
    "buckets-integer-over-digit-limit": ("buckets.json", _bucket_file(_LONG_INTEGER), "score"),
    "manifest-integer-over-digit-limit": (
        "run_manifest.json", '{"version": %s}' % _LONG_INTEGER, "report"
    ),
    "timestamp-before-year-1-in-utc": (
        "messages.jsonl", _message_file("0001-01-01T00:30:00+01:00"), "ingest"
    ),
    "timestamp-after-year-9999-in-utc": (
        "messages.jsonl", _message_file("9999-12-31T23:30:00-01:00"), "ingest"
    ),
    "token-counts-a-list": ("buckets.json", _bucket_file('["war"]'), "score"),
    # A buckets file follows the tables' month rule.
    "buckets-month-gap": ("buckets.json", _buckets_on("2001-01", "2001-03"), "score"),
    "buckets-month-repeated": ("buckets.json", _buckets_on("2001-01", "2001-01"), "score"),
    "buckets-empty": ("buckets.json", _buckets_on(), "score"),
    "count-overflows-int": ("buckets.json", _bucket_file('{"war": 1e400}'), "score"),
    "count-fractional": ("buckets.json", _bucket_file('{"war": 2.7}'), "score"),
    "count-negative": ("buckets.json", _bucket_file('{"war": -1}'), "score"),
    "count-overflows-float": ("buckets.json", _bucket_file('{"war": 1%s}' % ("0" * 400)), "score"),
    "thread-count-boolean": (
        "buckets.json",
        '{"buckets": [{"month": "2001-01", "thread_count": true, "token_counts": {}}]}',
        "score",
    ),
    # Every number of a JSON file is a finite float, in a member no reader reads too.
    **{
        f"buckets-ignored-{place}-{name}": ("buckets.json", _noted_buckets(place, number), "score")
        for name, number in (("nan", "NaN"), ("minus-infinity", "-Infinity"), ("1e999", "1e999"))
        for place in ("top-level-key", "bucket-key")
    },
    "empty-manifest": ("run_manifest.json", "{}", "report"),
    # A run file's numbers are finite floats, and its lists of names are lists of strings.
    "models-mae-nan": ("models.json", _run_file(r'"mae": [^,]+', '"mae": NaN'), "report"),
    "models-mae-overflows-float": (
        "models.json", _run_file(r'"mae": [^,]+', '"mae": 1' + "0" * 400), "report"
    ),
    "surrogate-p-hat-infinity": (
        "surrogate.json", _run_file(r'"p_hat": [^,]+', '"p_hat": Infinity'), "report"
    ),
    "surrogate-mae-overflows-float": (
        "surrogate.json", _run_file(r'"empirical_mae": [^,]+', '"empirical_mae": 1e999'), "report"
    ),
    "manifest-warnings-a-string": (
        "run_manifest.json", _run_file(r'"warnings": \[\]', '"warnings": "abc"'), "report"
    ),
    "models-exogenous-a-string": (
        "models.json", _run_file(r'"exogenous": \[\]', '"exogenous": "xyz"'), "report"
    ),
    # Every value that the report renders has its kind: a count, a seed, a number, a string.
    "surrogate-n-surrogates-a-string": (
        "surrogate.json", _run_file(r'"n_surrogates": \d+', '"n_surrogates": "many"'), "report"
    ),
    "surrogate-seed-a-list": (
        "surrogate.json", _run_file(r'"seed": \d+', '"seed": [1, 2]'), "report"
    ),
    "surrogate-p-hat-boolean": (
        "surrogate.json", _run_file(r'"p_hat": [^,]+', '"p_hat": true'), "report"
    ),
    "surrogate-quantile-min-boolean": (
        "surrogate.json", _run_file(r'"min": [^,]+', '"min": false'), "report"
    ),
    "manifest-corpus-messages-an-object": (
        "run_manifest.json", _run_file(r'"messages": \d+', '"messages": {"count": 1690}'), "report"
    ),
    "manifest-version-null": (
        "run_manifest.json", _run_file(r'"version": "[^"]*"', '"version": null'), "report"
    ),
    "rate-not-a-number": ("series.csv", _series_file("oops"), "smooth"),
    "rate-nan": ("series.csv", _series_file("nan"), "smooth"),
    "rate-inf": ("series.csv", _series_file("inf"), "correlate"),
    # Every command that reads a month,rate file checks the rate range.
    "rate-150": ("series.csv", _series_file("150"), "correlate"),
    "rate-150-suite": ("series.csv", _series_file("150"), "suite"),
    "rate-150-forecast": ("series.csv", _series_file("150"), "forecast"),
    "rate-150-surrogate": ("series.csv", _series_file("150"), "surrogate"),
    "thread-count-not-a-number": (
        "emotion.csv", _emotion_file("2001-01,5.0,1.0,5.0,1.0,5.0,1.0,3,x"), "smooth"
    ),
    "thread-count-negative": (
        "emotion.csv", _emotion_file("2001-01,5.0,1.0,5.0,1.0,5.0,1.0,3,-1"), "smooth"
    ),
    "thread-count-overflows-float": (
        "emotion.csv", _emotion_file("2001-01,5.0,1.0,5.0,1.0,5.0,1.0,3,1" + "0" * 400), "smooth"
    ),
    # Numbers and months are ASCII decimals: no other script's digits, no
    # ``_`` grouping and no newline inside a quoted month.
    "rate-underscore": ("series.csv", _series_file(" 5_0"), "smooth"),
    "rate-arabic-indic-digits": ("series.csv", _series_file("\u0665\u0660"), "smooth"),
    "series-month-arabic-indic-digits": (
        "series.csv", "month,rate\n\u0662\u0660\u0660\u0661-01,1.0\n", "smooth"
    ),
    "series-month-trailing-newline": ("series.csv", 'month,rate\n"2001-01\n",1.0\n', "smooth"),
    "series-month-gap": ("series.csv", "month,rate\n2001-01,1.0\n2001-03,3.0\n", "smooth"),
    "series-one-column": ("series.csv", "month\n2001-01\n", "smooth"),
    # A scored month has all six statistics, and one with no match has none.
    "emotion-statistics-partly-empty": (
        "emotion.csv", _emotion_file("2001-01,5.0,,5.0,1.0,5.0,1.0,3,1"), "smooth"
    ),
    "emotion-matches-without-statistics": (
        "emotion.csv", _emotion_file("2001-01,,,,,,,3,1"), "smooth"
    ),
    "emotion-month-gap": (
        "emotion.csv",
        _emotion_file("2001-01,5.0,1.0,5.0,1.0,5.0,1.0,3,1", "2001-03,5.0,1.0,5.0,1.0,5.0,1.0,3,1"),
        "smooth",
    ),
    "correlation-bad-month": (
        "correlations/smoothed/mean_valence__attitude.csv",
        "month,r,n_window,p_value,significant\n2001-13,0.5,7,0.25,false\n",
        "report",
    ),
    "correlation-month-gap": (
        "correlations/smoothed/mean_valence__attitude.csv",
        "month,r,n_window,p_value,significant\n"
        "2001-03,0.5,7,0.25,false\n2001-01,0.5,7,0.25,false\n",
        "report",
    ),
    "series-field-over-csv-limit": ("series.csv", _series_file("1" * 200000), "smooth"),
    "lexicon-score-not-a-number": (
        "lexicon.csv", "word,valence,arousal,dominance\nwar,2.08,7.49,x\n", "score"
    ),
    "lexicon-score-arabic-indic-digit": (
        "lexicon.csv", "word,valence,arousal,dominance\nwar,2.08,7.49,\u0663\n", "score"
    ),
    # Bytes that are not UTF-8, in every kind of file a subcommand reads.
    "messages-not-utf8": (
        "messages.jsonl", _message_file("2004-03-05").encode().replace(b"war", b"w\xffr"), "ingest"
    ),
    "buckets-not-utf8": ("buckets.json", _bucket_file('{"w\xffr": 1}').encode("latin-1"), "score"),
    "lexicon-not-utf8": ("lexicon.csv", b"word,valence,arousal,dominance\nw\xffr,2,7,6\n", "score"),
    "series-not-utf8": ("series.csv", _series_file("\xff").encode("latin-1"), "smooth"),
    "manifest-not-utf8": ("run_manifest.json", b'{"version": "\xff"}', "report"),
}


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"moodcast {moodcast.__version__}"

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli()
        assert excinfo.value.code == 2

    def test_unknown_model_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "forecast",
                "--attitude-series", "a.csv",
                "--emotion-series", "e.csv",
                "--model", "kitchen-sink",
                "--out", "m.json",
            )
        assert excinfo.value.code == 2

    # Run's required paths and the suite's, so that the number is the only fault.
    _RUN = ["run", "--lexicon", "l.csv", "--messages", "m.jsonl", "--attitude", "a.csv",
            "--out", "o"]
    _SUITE = ["suite", "--attitude-series", "a.csv", "--emotion-series", "e.csv", "--out", "o"]

    @pytest.mark.parametrize(
        "argv, flag, value",
        [(_RUN, "--smooth-window", "\u0663"), (_RUN, "--seed", "1_0"),
         (_RUN, "--alpha", "\u0660.\u0660\u0665"), (_RUN, "--corr-window", "1_3"),
         (_RUN, "--p", "\u0662"), (_RUN, "--surrogates", "1_000"),
         (_SUITE, "--holdout", "\u0663"), (_RUN, "--min-messages", "\u0663")],
        ids=["smooth-window", "seed", "alpha", "corr-window", "p", "surrogates", "holdout",
             "min-messages"],
    )
    def test_number_flags_read_ascii_digits_only(self, capsys, argv, flag, value):
        # Flags follow the numeric-cell syntax of the CSV readers: no digits
        # of other scripts, no ``_`` separators.
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv, flag, value)
        assert excinfo.value.code == 2
        kind = "float" if flag == "--alpha" else "int"
        assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err

    def test_run_options_are_pipeline_config_fields(self):
        names = list(PipelineConfig._fields)
        args = build_parser().parse_args(self._RUN)
        assert [name for name in vars(args) if name not in ("verbose", "command", "func")] == names
        config = PipelineConfig(**{name: getattr(args, name) for name in names})
        assert config == PipelineConfig(Path("l.csv"), Path("m.jsonl"), Path("a.csv"), Path("o"))
        # A flag shared with another subcommand has the same default there.
        suite = build_parser().parse_args(self._SUITE)
        assert (suite.p, suite.q) == (config.p, config.q)

    @staticmethod
    def _orphan_flags():
        """The flags of ``cli._OPTIONS`` that no subcommand takes."""
        used = {option[0] if isinstance(option, tuple) else option
                for _, options in cli._COMMANDS.values() for option in options}
        return sorted(set(cli._OPTIONS) - used - set(cli._CONFIG_FIELDS))

    def test_every_option_belongs_to_a_subcommand(self, monkeypatch):
        assert self._orphan_flags() == []
        # Self-test: a flag no subcommand lists is caught.
        monkeypatch.setitem(cli._OPTIONS, "--orphan", dict(help="taken by no subcommand"))
        assert self._orphan_flags() == ["--orphan"]

    def test_library_functions_take_each_run_setting(self):
        # A run setting has one default, PipelineConfig's: every library
        # function that uses one takes it as a required argument.
        required = {
            analysis.hamming_smooth: ["window_len"],
            analysis.rolling_correlation: ["window", "alpha"],
            analysis.fisher_significance: ["alpha"],
            ingest.filter_threads: ["min_messages"],
            forecast.model_suite: ["names", "ar_order", "exog_order", "holdout"],
            forecast.surrogate_test: ["n_surrogates", "seed"],
            reports.suite_entry_payload: ["evaluation_mode"],
            reports.write_models_json: ["evaluation_mode"],
        }
        for function, names in required.items():
            parameters = inspect.signature(function).parameters
            for name in names:
                assert parameters[name].default is inspect.Parameter.empty, (function, name)
        for record, names in (
            (ingest.MonthlyBucket, ["token_counts", "thread_count"]),
            (emotion.MonthCounts, ["match_count", "thread_count"]),
        ):
            for name in names:
                assert name in record._fields and name not in record._field_defaults, name
        assert list(inspect.signature(emotion.top_lexicon_words).parameters) == [
            "buckets", "lexicon"
        ]
        assert "value_name" not in inspect.signature(reports.read_series_csv).parameters

    def test_console_script_installed(self):
        # The console script pyproject.toml declares, run the way an
        # installer's wrapper runs it, against the package under test.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = ROOT / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["version"] == moodcast.__version__
        target = project["scripts"]["moodcast"]
        wrapper = (
            "import sys; from importlib.metadata import EntryPoint; "
            f"sys.exit(EntryPoint('moodcast', {target!r}, 'console_scripts').load()())"
        )
        src_dir = Path(moodcast.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src_dir)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"moodcast {moodcast.__version__}"

    def test_sources_parse_as_python_3_10(self):
        # pyproject.toml allows Python 3.10, so no file may use newer syntax
        # (``except*``, PEP 695 type parameters), which a newer interpreter
        # would import without complaint.
        files = source_files()
        assert ROOT / "src" / "moodcast" / "cli.py" in files
        for path in files:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        for newer in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type Pair = tuple\n"):
            with pytest.raises(SyntaxError):
                ast.parse(newer, feature_version=(3, 10))

    def test_every_module_level_import_is_read(self):
        assert unused_imports(
            "from __future__ import annotations\nimport math\nimport os.path\n"
            "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n"
            "def f():\n    import re\n    return os.sep\n"
        ) == ["math", "np"]
        unused = [
            f"{path.relative_to(ROOT)}: {name}"
            for path in source_files()
            for name in unused_imports(path.read_text(encoding="utf-8"))
        ]
        assert not unused, unused

    def test_csv_and_json_files_are_read_and_written_in_one_module_each(self):
        assert file_rule_uses(
            "import csv, json\nfrom json import dump as d\n"
            "rows = csv.reader(f)\nobj = json.loads(line)\njson.dumps(obj)\n"
        ) == ["json.dump", "csv.reader", "json.dumps"]
        assert sorted(file_rule_uses(
            "import os\nfrom os import rename\nopen(p)\nopen(p, 'rb')\nPath(p).open()\n"
            "open(p, 'a')\nopen(p, mode='r+')\nopen(p, how)\npath.open('x')\n"
            "os.replace(a, b)\nPath(p).write_bytes(data)\nmarker.write_text(text)\n"
        )) == [".write_bytes", ".write_text", "open to write", "open to write", "open to write",
               "open to write", "os.rename", "os.replace"]
        strays = [
            f"{path.name}: {name}"
            for path in sorted((ROOT / "src" / "moodcast").glob("*.py"))
            for name in file_rule_uses(path.read_text(encoding="utf-8"))
            if FILE_RULE_OWNERS[name] != path.name
        ]
        assert not strays, strays

    def test_only_months_formats_a_month_label(self):
        assert MONTH_LABEL_FORMAT.findall(
            'a = f"{t.year:04d}-{t.month:02d}"\nb = "%04d-%02d" % (y, m)\n'
            'c = f"{y:04d}{m:02d}"\nd = f"{day:02d}"\n'
        ) == ['{t.year:04d}-{t.month:02d}', "%04d-%02d"]
        formatters = [
            path.name
            for path in sorted((ROOT / "src" / "moodcast").glob("*.py"))
            if MONTH_LABEL_FORMAT.search(path.read_text(encoding="utf-8"))
        ]
        assert formatters == ["months.py"], formatters

    @pytest.mark.skipif(
        shutil.which("moodcast") is None,
        reason="no moodcast console script on PATH (package not installed)",
    )
    def test_console_script_on_path(self):
        result = subprocess.run(
            ["moodcast", "--version"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout.strip() == f"moodcast {moodcast.__version__}"


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["moodcast", "moodcast.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        env = {**os.environ, "PYTHONPATH": str(Path(moodcast.__file__).resolve().parents[1])}

        def python_m(*argv):
            return subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
            )

        version = python_m("--version")
        assert version.returncode == 0, version.stderr
        assert version.stdout.strip() == "moodcast 0.1.0"
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("month,rate\n2001-01,1.0\n2001-03,3.0\n", encoding="utf-8")
        smooth = python_m("smooth", "--series", str(gapped), "--out", str(tmp_path / "o.csv"))
        assert smooth.returncode == 2, smooth.stderr
        assert "expected month 2001-02" in smooth.stderr
        assert not (tmp_path / "o.csv").exists()


class TestStartup:
    def test_stages_without_a_model_load_no_numpy_or_scipy_and_run_no_scipy(
        self, tmp_path, messages_path, lexicon_path, attitude_path, pipeline_run
    ):
        # A structural check, not a timing threshold: numpy is loaded only
        # where a model is fitted and scipy never, so the other stages, the
        # t-test of ``correlate`` included, pay for neither. ``suite`` is the
        # positive control: without it the check could pass with the detector
        # broken. ``run`` fits models, so it may load numpy but not scipy.
        # The same stages load none of ``dataclasses``, ``inspect`` (which
        # numpy loads) and ``hashlib``, unless the bare interpreter already
        # has them; ``run`` hashes, so it must load ``hashlib``. No command,
        # ``suite`` and ``run`` included, loads ``logging`` or ``traceback``.
        bare = subprocess.run(
            [sys.executable, "-c", "import sys; print(*sys.modules)"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        never = [name for name in ("logging", "traceback") if name not in bare]
        unused = [name for name in ("dataclasses", "inspect", "hashlib") if name not in bare]
        unused += never
        script = (
            "import sys\n"
            "import moodcast.cli\n"
            "def loaded(*names):\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in names)\n"
            f"unused = ('numpy', 'scipy', *{unused!r})\n"
            "assert not loaded(*unused), ('import', loaded(*unused))\n"
            "messages, lexicon, attitude, run, out = sys.argv[1:]\n"
            "for argv in (\n"
            "    ['ingest', '--messages', messages, '--out', out],\n"
            "    ['score', '--lexicon', lexicon, '--buckets', out + '/buckets.json', '--out', out],\n"
            "    ['smooth', '--series', out + '/emotion_series.csv',\n"
            "     '--out', out + '/emotion_series_smoothed.csv'],\n"
            "    ['smooth', '--series', attitude, '--out', out + '/attitude_smoothed.csv'],\n"
            "    ['correlate', '--series-a', out + '/emotion_series_smoothed.csv',\n"
            "     '--column-a', 'valence_mean', '--series-b', out + '/attitude_smoothed.csv',\n"
            "     '--out', out + '/correlation.csv'],\n"
            "    ['report', '--run', run, '--out', out + '/report.md'],\n"
            "):\n"
            "    assert moodcast.cli.main(argv) == 0, argv\n"
            "    assert not loaded(*unused), (argv[0], loaded(*unused))\n"
            "assert moodcast.cli.main(['suite', '--attitude-series', out + '/attitude_smoothed.csv',\n"
            "    '--emotion-series', out + '/emotion_series_smoothed.csv',\n"
            "    '--out', out + '/models.json']) == 0\n"
            "assert 'numpy' in sys.modules, 'suite fitted no model'\n"
            f"assert not loaded(*{never!r}), ('suite', loaded(*{never!r}))\n"
            "assert moodcast.cli.main(['run', '--lexicon', lexicon, '--messages', messages,\n"
            "    '--attitude', attitude, '--surrogates', '20', '--out', out + '/run']) == 0\n"
            f"assert not loaded('scipy', *{never!r}), ('run', loaded('scipy', *{never!r}))\n"
            "assert 'hashlib' in sys.modules, 'run hashed nothing'\n"
        )
        src_dir = Path(moodcast.__file__).resolve().parents[1]
        inputs = [messages_path, lexicon_path, attitude_path, pipeline_run[0], tmp_path]
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, inputs)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src_dir)},
        )
        assert result.returncode == 0, result.stderr
        for name in ("buckets.json", "emotion_series_smoothed.csv", "attitude_smoothed.csv",
                     "correlation.csv", "report.md", "models.json", "run/run_manifest.json"):
            assert (tmp_path / name).exists(), name

    def test_ingest_import_loads_only_the_modules_it_uses(self):
        # The package root imports no submodule, so importing one module
        # loads the root and what that module imports, directly or not.
        script = (
            "import sys\n"
            "import moodcast.ingest\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'moodcast'))\n"
        )
        src_dir = Path(moodcast.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src_dir)},
        )
        assert result.stdout.split() == [
            "moodcast", "moodcast.errors", "moodcast.ingest", "moodcast.lexicon",
            "moodcast.months", "moodcast.records", "moodcast.tables",
        ]


def _python_3_10():
    """A CPython 3.10 that starts: ``python3.10`` on PATH, else one that pyenv
    installed; None if there is none. (A pyenv shim can be on PATH and fail.)"""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [shutil.which("python3.10"), *sorted(pyenv.glob("versions/3.10*/bin/python"))]
    check = ("import sys; "
             "assert sys.version_info[:2] == (3, 10) and sys.implementation.name == 'cpython'")
    for python in filter(None, candidates):
        if subprocess.run([python, "-c", check], capture_output=True).returncode == 0:
            return str(python)
    return None


class TestOldestPython:
    def test_stages_without_a_model_write_the_same_bytes_on_python_3_10(
        self, tmp_path, lexicon_path, messages_path, attitude_path
    ):
        # pyproject.toml allows Python 3.10. The stages that fit no model
        # load no numpy, so they run on a bare 3.10, whose ``fromisoformat``
        # reads no "Z" suffix (the shipped timestamps have one); ingest still
        # reads every chunk whole, as columns, never line by line.
        python = _python_3_10()
        if python is None:
            pytest.skip("no CPython 3.10 starts here")
        inputs = (lexicon_path, messages_path, attitude_path)
        here, old = tmp_path / "here", tmp_path / "py310"
        for argv in readme_chain(inputs, here, {})[:5]:
            assert run_cli(*argv) == 0, argv
        script = (
            "import json, sys\n"
            "from unittest import mock\n"
            "from moodcast import ingest\n"
            "from moodcast.cli import main\n"
            "with mock.patch.object(ingest, '_row_columns',\n"
            "                       side_effect=AssertionError('a chunk read line by line')):\n"
            "    assert len(ingest.parse_messages(sys.argv[2])) == 1690\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
        )
        result = subprocess.run(
            [python, "-c", script, json.dumps(readme_chain(inputs, old, {})[:5]),
             str(messages_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(moodcast.__file__).resolve().parents[1])},
        )
        assert result.returncode == 0, result.stderr
        names = sorted(p.name for p in here.iterdir())
        assert len(names) == 7 and sorted(p.name for p in old.iterdir()) == names
        for name in names:
            assert (old / name).read_bytes() == (here / name).read_bytes(), name


class TestFillGaps:
    @pytest.mark.parametrize("values", [[1.0, None, 3.0], [1.0, 2.0, 3.0]])
    def test_unknown_policy_is_rejected(self, values):
        series = NumericSeries(["2001-01", "2001-02", "2001-03"], values)
        with pytest.raises(ValueError, match=re.escape(f"one of {GAP_POLICIES}, got 'spline'")):
            fill_gaps({"x": series}, "spline")

    def test_interpolating_a_series_with_no_value_names_it(self):
        empty = NumericSeries(["2001-01", "2001-02", "2001-03"], [None, None, None])
        gappy = NumericSeries(["2001-01", "2001-02", "2001-03"], [1.0, None, 3.0])
        message = "series b has no value in 2001-01..2001-03; nothing to interpolate from"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fill_gaps({"c": empty, "a": gappy, "b": empty}, "linear-interpolate")


class TestExitCodes:
    def test_missing_input_file_is_2(self, tmp_path, capsys):
        code = run_cli(
            "ingest", "--messages", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_lexicon_is_2(self, tmp_path, capsys, pipeline_run):
        out, _ = pipeline_run
        bad = tmp_path / "lexicon.csv"
        bad.write_text("word,valence\nwar,2.08\n", encoding="utf-8")
        code = run_cli(
            "score",
            "--lexicon", str(bad),
            "--buckets", str(out / "buckets.json"),
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_bad_window_is_3(self, tmp_path, capsys, pipeline_run):
        out, _ = pipeline_run
        code = run_cli(
            "smooth",
            "--series", str(out / "attitude_aligned.csv"),
            "--smooth-window", "0",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 3

    def test_gap_policy_fail_names_month(self, tmp_path, capsys):
        gappy = tmp_path / "series.csv"
        gappy.write_text(
            "month,rate\n2001-01,1.0\n2001-02,\n2001-03,3.0\n2001-04,4.0\n2001-05,5.0\n",
            encoding="utf-8",
        )
        code = run_cli(
            "smooth", "--series", str(gappy), "--out", str(tmp_path / "s.csv")
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "2001-02" in err
        assert "linear-interpolate" in err

    def test_gap_policy_interpolate_succeeds(self, tmp_path, capsys):
        gappy = tmp_path / "series.csv"
        gappy.write_text(
            "month,rate\n2001-01,1.0\n2001-02,\n2001-03,3.0\n2001-04,4.0\n2001-05,5.0\n",
            encoding="utf-8",
        )
        code = run_cli(
            "smooth",
            "--series", str(gappy),
            "--gap-policy", "linear-interpolate",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert (tmp_path / "s.csv").exists()

    def test_gap_policy_interpolate_names_an_empty_series(self, tmp_path, capsys):
        empty = tmp_path / "r.csv"
        empty.write_text("month,rate\n2001-01,\n2001-02,\n2001-03,\n", encoding="utf-8")
        out = tmp_path / "s.csv"
        code = run_cli(
            "smooth", "--series", str(empty), "--gap-policy", "linear-interpolate",
            "--out", str(out),
        )
        assert (code, capsys.readouterr().err) == (
            3, "error: series rate has no value in 2001-01..2001-03; nothing to interpolate from\n"
        )
        assert not out.exists()

    # The statistics of the months that start with ``blank`` are emptied: "" empties all.
    @pytest.mark.parametrize("policy, blank, message", [
        ("fail", "2000-02", "series arousal_mean has no value for 2000-02 (1 gap month(s) in "
         "2000-01..2005-06); rerun with --gap-policy linear-interpolate to fill gaps"),
        ("linear-interpolate", "", "series arousal_mean has no value in 2000-01..2005-06; "
         "nothing to interpolate from"),
    ])
    def test_smooth_names_an_emotion_gap_by_its_column(
        self, tmp_path, capsys, pipeline_run, policy, blank, message
    ):
        header, *rows = (pipeline_run[0] / "emotion_series.csv").read_text(
            encoding="utf-8").splitlines()
        table = tmp_path / "emotion.csv"
        table.write_text("\n".join([header, *(
            f"{row[:7]},,,,,,,0,{row.rsplit(',', 1)[1]}" if row.startswith(blank) else row
            for row in rows
        )]) + "\n", encoding="utf-8")
        out = tmp_path / "s.csv"
        code = run_cli("smooth", "--series", str(table), "--gap-policy", policy, "--out", str(out))
        assert (code, capsys.readouterr().err) == (3, f"error: {message}\n")
        assert not out.exists()

    def test_run_names_a_component_no_word_matched(
        self, tmp_path, capsys, messages_path, attitude_path
    ):
        # No word of this lexicon occurs in the corpus, so every component is empty.
        lexicon = tmp_path / "lexicon.csv"
        lexicon.write_text("word,valence,arousal,dominance\nzzzqx,2.0,3.0,4.0\n", encoding="utf-8")
        out = tmp_path / "run"
        argv = _run_argv(lexicon, messages_path, attitude_path, out)
        assert main([*argv, "--gap-policy", "linear-interpolate"]) == 3
        message = "series mean-arousal has no value in 2000-01..2005-06; nothing to interpolate from"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (out / "run.failed").read_text(encoding="utf-8") == f"gaps: {message}\n"

    def test_failed_run_leaves_stage_marker(self, tmp_path, lexicon_path, attitude_path):
        out = tmp_path / "run"
        code = run_cli(
            "run",
            "--lexicon", str(lexicon_path),
            "--messages", str(tmp_path / "missing.jsonl"),
            "--attitude", str(attitude_path),
            "--out", str(out),
            "--surrogates", "2",
        )
        assert code == 2
        marker = (out / "run.failed").read_text(encoding="utf-8")
        assert marker.startswith("load-inputs: ")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_2(self, case, tmp_path, capsys, lexicon_path, pipeline_run):
        if case.endswith("integer-over-digit-limit") and _NO_DIGIT_LIMIT:
            pytest.skip("this interpreter converts integers of any length")
        rel, text, command = MALFORMED[case]
        run_dir = tmp_path / "run"
        if command == "report":
            shutil.copytree(pipeline_run[0], run_dir)
        path = run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if callable(text):
            original = path.read_text(encoding="utf-8")
            text = text(original)
            assert text != original, "the edit matched nothing"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        buckets = pipeline_run[0] / "buckets.json"
        forecast_io = ["--attitude-series", str(path),
                       "--emotion-series", str(pipeline_run[0] / "emotion_series_smoothed.csv")]
        argv = {
            "ingest": ["--messages", str(path)],
            "score": ["--lexicon", str(path), "--buckets", str(buckets)]
            if rel == "lexicon.csv" else ["--lexicon", str(lexicon_path), "--buckets", str(path)],
            "smooth": ["--series", str(path)],
            "correlate": ["--series-a", str(pipeline_run[0] / "attitude_smoothed.csv"),
                          "--series-b", str(path)],
            "suite": forecast_io,
            "forecast": [*forecast_io, "--model", "ar"],
            "surrogate": [*forecast_io, "--model", "both-arousal", "--surrogates", "2"],
            "report": ["--run", str(run_dir)],
        }[command]
        assert run_cli(command, *argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        # Message errors name the line; every other reader names its file.
        where = "messages line 1: " if command == "ingest" else str(run_dir)
        assert err.startswith("error: ") and where in err
        if case.endswith("-not-utf8"):
            assert str(path) in err and "not valid UTF-8" in err
        if callable(MALFORMED[case][1]):
            assert str(path) in err
        if case.startswith("buckets-ignored-"):
            assert f"error: {path}: invalid JSON (not a finite 64-bit float: " in err
        if case.startswith("rate-150"):
            assert err == f"error: {path} row 3: rate '150' outside [0, 100]\n"

    @pytest.mark.parametrize(
        "name, text, where",
        [("series.csv", _series_file("1" * 5000), "row 3: not a finite number"),
         ("emotion.csv", _emotion_file("2001-01,5.0,1.0,5.0,1.0,5.0,1.0,3," + "1" * 5000),
          "row 2: count not in [0, 2**53]")],
        ids=["rate", "thread-count"],
    )
    def test_long_number_cell_is_quoted_in_part(self, tmp_path, capsys, name, text, where):
        # 5,000 digits: a float cell reads them as infinity, and a count cell
        # holds more digits than int() converts, which makes it out of range too.
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert run_cli("smooth", "--series", str(path), "--out", str(tmp_path / "out.csv")) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path} {where}: {'1' * 40!r}... (5000 characters)\n"

    _LEXICON_HEADER = "word,valence,arousal,dominance\n"
    _LONG_ID = _message_file("2004-03-05").replace('"m0"', '"' + "m" * 5000 + '"')

    @pytest.mark.parametrize(
        "name, text, command, where, cell",
        [("lexicon.csv", _LEXICON_HEADER + "a " * 2500 + ",2,7,6\n", "score",
          "row 2: invalid word ", "a " * 20),
         ("lexicon.csv", _LEXICON_HEADER + ("w" * 5000 + ",2,7,6\n") * 2, "score",
          "row 3: duplicate word ", "w" * 40),
         ("lexicon.csv", "word,valence,arousal," + "d" * 4979 + "\nwar,2,7,6\n", "score",
          "lexicon header must be 'word,valence,arousal,dominance', got ",
          "word,valence,arousal," + "d" * 19),
         ("approval.csv", "month," + "r" * 5000 + "\n2001-01,50\n", "run",
          "expected value column 'rate' in the header, got ", "r" * 40),
         ("messages.jsonl", _message_file("t" * 5000), "ingest",
          "messages line 1: bad timestamp ", "t" * 40),
         ("messages.jsonl", _LONG_ID * 2, "ingest", "duplicate message_id: ", "m" * 40)],
        ids=["invalid-word", "duplicate-word", "lexicon-header", "value-header", "timestamp",
             "message-id"],
    )
    def test_long_cell_is_quoted_in_part(
        self, tmp_path, capsys, lexicon_path, messages_path, attitude_path, pipeline_run,
        name, text, command, where, cell,
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        argv = {
            "score": ["--lexicon", str(path), "--buckets", str(pipeline_run[0] / "buckets.json")],
            "run": ["--lexicon", str(lexicon_path), "--messages", str(messages_path),
                    "--attitude", str(path), "--surrogates", "2"],
            "ingest": ["--messages", str(path)],
        }[command]
        assert run_cli(command, *argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"{where}{cell!r}... (5000 characters)\n")
        assert len(err.replace(str(path), "").encode("utf-8")) < 200

    @needs_digit_limit
    def test_integer_over_digit_limit_is_invalid_json(
        self, tmp_path, capsys, lexicon_path, attitude_path
    ):
        messages = tmp_path / "messages.jsonl"
        messages.write_text(
            _message_file("2004-03-05") + _message_file("2004-03-05").replace('"m0"', _LONG_INTEGER),
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = run_cli("run", "--lexicon", str(lexicon_path), "--messages", str(messages),
                       "--attitude", str(attitude_path), "--out", str(out), "--surrogates", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: messages line 2: invalid JSON (Exceeds the limit ({_DIGIT_LIMIT} digits)" in err
        assert not (out / "run_manifest.json").exists()
        buckets = tmp_path / "buckets.json"
        buckets.write_text(_bucket_file(_LONG_INTEGER), encoding="utf-8")
        code = run_cli("score", "--lexicon", str(lexicon_path), "--buckets", str(buckets),
                       "--out", str(tmp_path / "scored"))
        assert code == 2
        assert f"error: {buckets}: invalid JSON (Exceeds the limit" in capsys.readouterr().err

    def test_failed_rerun_removes_the_old_manifest(
        self, tmp_path, lexicon_path, messages_path, attitude_path
    ):
        out = tmp_path / "run"
        inputs = ["--lexicon", str(lexicon_path), "--attitude", str(attitude_path)]
        ok = run_cli("run", *inputs, "--messages", str(messages_path), "--out", str(out),
                     "--surrogates", "2")
        assert ok == 0
        assert (out / "run_manifest.json").exists()
        assert not list(out.rglob("*.tmp"))
        failed = run_cli("run", *inputs, "--messages", str(tmp_path / "missing.jsonl"),
                         "--out", str(out), "--surrogates", "2")
        assert failed == 2
        assert (out / "run.failed").exists()
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--alpha", "nan", "alpha must be in (0, 1), got nan"),
         ("--alpha", "1.5", "alpha must be in (0, 1), got 1.5"),
         ("--alpha", "0", "alpha must be in (0, 1), got 0.0"),
         ("--seed", "-1", "seed must be >= 0, got -1"),
         ("--surrogates", "0", "n_surrogates must be >= 1, got 0"),
         ("--corr-window", "4", "window must be odd and >= 3, got 4"),
         ("--smooth-window", "0", "window length must be >= 1, got 0"),
         ("--p", "-1", "lag orders must be non-negative"),
         ("--q", "0", "exogenous series given but exog_order is 0"),
         ("--min-messages", "0", "min_messages must be >= 1, got 0")],
    )
    def test_bad_alpha_or_seed_is_3_and_leaves_no_manifest(
        self, tmp_path, capsys, lexicon_path, messages_path, attitude_path, flag, value, message
    ):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--lexicon", str(lexicon_path), "--messages", str(messages_path),
            "--attitude", str(attitude_path), "--out", str(out), "--surrogates", "2", flag, value,
        )
        assert code == 3
        assert message in capsys.readouterr().err
        # Options are checked before any input is read or artifact written.
        assert [p.name for p in out.iterdir()] == ["run.failed"]
        assert (out / "run.failed").read_text(encoding="utf-8").startswith("config: ")

    @pytest.mark.parametrize(
        "field, value, message",
        [("gap_policy", "spline", "gap_policy must be one of ('fail', 'linear-interpolate'), "
          "got 'spline'"),
         ("surrogate_model", "ar", "surrogate_model must be an exogenous model name, got 'ar'")],
    )
    def test_unknown_policy_or_model_fails_the_config_stage(
        self, tmp_path, lexicon_path, messages_path, attitude_path, field, value, message
    ):
        # The command line offers only valid choices; a caller of run_pipeline
        # meets the same check as every other option.
        config = PipelineConfig(lexicon_path, messages_path, attitude_path, tmp_path,
                                **{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            run_pipeline(config)
        assert [p.name for p in tmp_path.iterdir()] == ["run.failed"]
        assert (tmp_path / "run.failed").read_text(encoding="utf-8") == f"config: {message}\n"

    @pytest.mark.parametrize("flag", ["--column-a", "--column-b"])
    def test_column_flag_on_two_column_series_is_3(self, tmp_path, capsys, attitude_path, flag):
        code = run_cli(
            "correlate", "--series-a", str(attitude_path), "--series-b", str(attitude_path),
            flag, "valence_mean", "--out", str(tmp_path / "corr.csv"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"error: {attitude_path} is a two-column series; drop its column flag" in err
        assert not (tmp_path / "corr.csv").exists()

    @staticmethod
    def neither_kind_or_bad_row(kind, smoothed):
        """A file that ``correlate`` must refuse before it judges a column flag,
        and the end of its error."""
        header, *rows = smoothed.read_text(encoding="utf-8").splitlines()
        if kind == "misspelled-header":
            lines = [header.replace("valence_mean", "Valence_mean"), *rows]
            return lines, (f": emotion header must be {','.join(EMOTION_HEADER)!r}, "
                           f"got {tables.quote_cell(lines[0])}")
        if kind == "one-column":
            return ["month", "2001-01", "2001-02"], ": expected a month,value header, got 'month'"
        cells = rows[1].split(",")
        cells[header.split(",").index("valence_mean")] = "99"
        lines = [header, rows[0], ",".join(cells), *rows[2:]]
        return lines, " row 3: valence_mean '99' outside [1, 9]"

    @pytest.mark.parametrize("flag", [[], ["--column-a", "nope"], ["--column-a", "valence_mean"]],
                             ids=["no-flag", "unknown-column", "valid-column"])
    @pytest.mark.parametrize("kind", ["misspelled-header", "one-column", "bad-row"])
    def test_correlate_refuses_a_malformed_file_whatever_its_column_flag(
        self, tmp_path, capsys, pipeline_run, kind, flag
    ):
        # A file is read and checked whole before its column flag is judged: a
        # header wider than two columns is checked as an emotion table's, any
        # other as a month,value series'.
        lines, ending = self.neither_kind_or_bad_row(
            kind, pipeline_run[0] / "emotion_series_smoothed.csv"
        )
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(
            "correlate", "--series-a", str(path), *flag,
            "--series-b", str(pipeline_run[0] / "attitude_smoothed.csv"),
            "--out", str(tmp_path / "corr.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}{ending}\n"
        assert not (tmp_path / "corr.csv").exists()

    @pytest.mark.parametrize("kind", ["misspelled-header", "one-column", "bad-row"])
    def test_smooth_refuses_a_malformed_file(self, tmp_path, capsys, pipeline_run, kind):
        lines, ending = self.neither_kind_or_bad_row(
            kind, pipeline_run[0] / "emotion_series_smoothed.csv"
        )
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "smoothed.csv"
        assert run_cli("smooth", "--series", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {path}{ending}\n"
        assert not out.exists()

    def test_smooth_writes_the_value_column_name_it_checked(
        self, tmp_path, attitude_path, pipeline_run
    ):
        # ``run`` reads a ``month, rate`` header as ``month,rate``; so does ``smooth``.
        header, *rows = attitude_path.read_text(encoding="utf-8").splitlines()
        assert header == "month,rate"
        padded = tmp_path / "approval.csv"
        padded.write_text("\n".join(["month, rate", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "attitude_smoothed.csv"
        assert run_cli("smooth", "--series", str(padded), "--out", str(out)) == 0
        assert out.read_bytes() == (pipeline_run[0] / "attitude_smoothed.csv").read_bytes()

    @pytest.mark.parametrize("command", ["smooth", "correlate", "suite"])
    @pytest.mark.parametrize(
        "column, cell, bounds",
        [("valence_std", "-1.0", "[0, 4]"), ("valence_mean", "-3.0", "[1, 9]"),
         ("valence_std", "7.5", "[0, 4]")],
        ids=["negative-std", "mean-off-scale", "std-above-half-the-scale"],
    )
    def test_emotion_statistic_off_its_scale_is_2(
        self, tmp_path, capsys, pipeline_run, command, column, cell, bounds
    ):
        # A scored table with one statistic of row 2 off its scale, through each reader.
        header, first, *rows = (
            (pipeline_run[0] / "emotion_series_smoothed.csv").read_text(encoding="utf-8")
        ).splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = cell
        path = tmp_path / "emotion.csv"
        path.write_text("\n".join([header, ",".join(cells), *rows]) + "\n", encoding="utf-8")
        attitude = str(pipeline_run[0] / "attitude_smoothed.csv")
        argv = {
            "smooth": ["--series", str(path)],
            "correlate": ["--series-a", str(path), "--column-a", column, "--series-b", attitude],
            "suite": ["--attitude-series", attitude, "--emotion-series", str(path)],
        }[command]
        assert run_cli(command, *argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {path} row 2: {column} '{cell}' outside {bounds}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [(["2001-02,50", "2001-01,50", "2001-03,50"], "row 3: expected month 2001-03, got 2001-01"),
         (["2001-01,50", "2001-02,", "2001-03,50"], "row 3: rate is missing"),
         (["2001-01,50", "2001-02,150", "2001-03,50"], "row 3: rate '150' outside [0, 100]")],
        ids=["out-of-order", "empty-rate", "rate-150"],
    )
    def test_malformed_attitude_run_is_2(
        self, tmp_path, capsys, lexicon_path, messages_path, rows, message
    ):
        attitude = tmp_path / "approval.csv"
        attitude.write_text("month,rate\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        code = run_cli(
            "run", "--lexicon", str(lexicon_path), "--messages", str(messages_path),
            "--attitude", str(attitude), "--out", str(out), "--surrogates", "2",
        )
        assert code == 2
        assert f"error: {attitude} {message}" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    @staticmethod
    def attitude_variant(rows, case):
        """The shipped attitude rows with one defect, or none."""
        month, _ = rows[5].split(",")
        return {
            "shipped": rows, "reversed": rows[::-1], "gap": rows[:5] + rows[6:],
            "repeated": rows[:5] + [rows[4]] + rows[5:],
            "padded-month": rows[:5] + [" " + rows[5]] + rows[6:],
            "rate-150": rows[:5] + [f"{month},150"] + rows[6:],
            "rate-negative": rows[:5] + [f"{month},-1"] + rows[6:],
            "rate-nan": rows[:5] + [f"{month},nan"] + rows[6:],
            "rate-empty": rows[:5] + [f"{month},"] + rows[6:],
        }[case]

    # (exit code of run, exit code of smooth --series). An empty rate differs
    # on purpose: run fills no gap in the attitude series, smooth applies its
    # gap policy to it (default fail: exit 3).
    @pytest.mark.parametrize(
        "case, codes",
        [("shipped", (0, 0)), ("reversed", (2, 2)), ("gap", (2, 2)), ("repeated", (2, 2)),
         ("padded-month", (2, 2)), ("rate-150", (2, 2)), ("rate-negative", (2, 2)),
         ("rate-nan", (2, 2)), ("rate-empty", (2, 3))],
    )
    def test_run_and_smooth_read_attitude_files_alike(
        self, tmp_path, lexicon_path, messages_path, attitude_path, capsys, case, codes
    ):
        header, *rows = attitude_path.read_text(encoding="utf-8").splitlines()
        attitude = tmp_path / "approval.csv"
        attitude.write_text(
            "\n".join([header, *self.attitude_variant(rows, case)]) + "\n", encoding="utf-8"
        )
        assert (
            run_cli("run", "--lexicon", str(lexicon_path), "--messages", str(messages_path),
                    "--attitude", str(attitude), "--out", str(tmp_path / "run"),
                    "--surrogates", "2"),
            run_cli("smooth", "--series", str(attitude), "--out", str(tmp_path / "smoothed.csv")),
        ) == codes


class TestComposition:
    """Each subcommand reproduces the matching full-pipeline artifact."""

    def test_readme_chain_matches_run(
        self, tmp_path, lexicon_path, messages_path, attitude_path, capsys
    ):
        # Every stage reads the previous stage's own outputs, as in the README.
        stage, full = tmp_path / "stage", tmp_path / "full"
        inputs = (lexicon_path, messages_path, attitude_path)
        chain = readme_chain(inputs, stage, {"--surrogates": 50, "--seed": 7})
        assert [run_cli(*argv) for argv in chain] == [0] * len(chain)
        assert run_cli(
            "run", "--lexicon", str(lexicon_path), "--messages", str(messages_path),
            "--attitude", str(attitude_path), "--out", str(full), "--surrogates", "50",
            "--seed", "7", "--surrogate-model", "both-arousal",
        ) == 0
        assert_staged_files_are_runs(stage, full)

    @pytest.fixture(scope="class")
    def fixture_writers(self):
        """``tools/make_fixtures.py`` loaded as a module, for its corpus writers."""
        path = ROOT / "tools" / "make_fixtures.py"
        spec = importlib.util.spec_from_file_location("make_fixtures", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        corpus=st.integers(12, 30).flatmap(lambda months: st.tuples(
            st.just(months), st.integers(0, 2**32 - 1), st.none() | st.integers(1, months - 2)
        )),
        setting=st.fixed_dictionaries({
            # Every kept month has at least three threads of three or more
            # messages, so the corpus and the attitude series share their months.
            "--min-messages": st.integers(1, 3),
            "--smooth-window": st.integers(1, 8),
            "--corr-window": st.integers(1, 8).map(lambda half: 2 * half + 1),
            "--alpha": st.floats(0.001, 0.5),
            "--p": st.integers(0, 3),
            "--q": st.integers(1, 3),
            "--gap-policy": st.sampled_from(GAP_POLICIES),
            "--surrogates": st.integers(1, 5),
            "--seed": st.integers(0, 2**32 - 1),
        }),
    )
    def test_readme_chain_matches_run_for_drawn_settings(
        self, tmp_path, fixture_writers, capsys, corpus, setting
    ):
        # A drawn corpus, sometimes with one inner month of no messages, and
        # a drawn value of every flag the stages share with ``run``.
        months, seed, gap = corpus
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        inputs = (work / "lexicon.csv", work / "messages.jsonl", work / "approval.csv")
        fixture_writers.N_MONTHS = months
        rng = np.random.default_rng(seed)
        fixture_writers.write_lexicon(inputs[0])
        fixture_writers.write_messages(inputs[1], rng)
        fixture_writers.write_attitude(inputs[2], rng)
        if gap is not None:
            year, month = fixture_writers.month_axis()[gap]
            stamp = f'"timestamp": "{year:04d}-{month:02d}-'
            lines = inputs[1].read_text(encoding="utf-8").splitlines(keepends=True)
            inputs[1].write_text("".join(l for l in lines if stamp not in l), encoding="utf-8")
        stage, full = work / "stage", work / "full"
        codes = []
        for argv in readme_chain(inputs, stage, setting):
            codes.append(run_cli(*argv))
            if codes[-1]:
                break
        def run(out):
            return run_cli(
                "run", "--lexicon", str(inputs[0]), "--messages", str(inputs[1]),
                "--attitude", str(inputs[2]), "--out", str(out),
                "--surrogate-model", "both-arousal",
                *(str(item) for flag in setting.items() for item in flag),
            )

        run_code = run(full)
        # Both succeed or both fail: a setting that fails one side only fails here.
        assert (codes[-1] == 0) == (run_code == 0), (codes, run_code, capsys.readouterr().err)
        if run_code == 0:
            assert_staged_files_are_runs(stage, full)
            # ``forecast`` on the same files writes run's entry of its model.
            forecast = work / "model.json"
            assert run_cli(
                "forecast", "--attitude-series", str(stage / "attitude_smoothed.csv"),
                "--emotion-series", str(stage / "emotion_series_smoothed.csv"),
                "--p", str(setting["--p"]), "--q", str(setting["--q"]),
                "--model", "both-arousal", "--out", str(forecast),
            ) == 0
            suite = json.loads((full / "models.json").read_text(encoding="utf-8"))["models"]
            assert json.loads(forecast.read_text(encoding="utf-8"))["models"] == [
                next(m for m in suite if m["name"] == "both-arousal")
            ]
            # A second run into a fresh directory writes the same artifacts (the
            # manifest hashes each one); only the creation time, the output
            # path and the stage times differ.
            assert run(work / "again") == 0
            manifests = [json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
                         for out in (full, work / "again")]
            for manifest in manifests:
                del manifest["created_utc"], manifest["timings"], manifest["config"]["out"]
            assert manifests[0] == manifests[1]

    def test_smoothed_rates_of_100_stay_legal_rates(self, tmp_path, pipeline_run):
        # Unclamped, smoothing a rate of 100 could give 100.00000000000001,
        # which every reader of a month,rate file rejects.
        smoothed = pipeline_run[0] / "attitude_smoothed.csv"
        header, *rows = smoothed.read_text(encoding="utf-8").splitlines()
        attitude, once, twice = (tmp_path / name for name in ("a.csv", "once.csv", "twice.csv"))
        attitude.write_text(
            "\n".join([header, *(row.split(",")[0] + ",100" for row in rows)]) + "\n",
            encoding="utf-8",
        )
        emotion = pipeline_run[0] / "emotion_series_smoothed.csv"
        assert [
            run_cli("smooth", "--series", str(attitude), "--out", str(once)),
            run_cli("smooth", "--series", str(once), "--out", str(twice)),
            run_cli("suite", "--attitude-series", str(once), "--emotion-series", str(emotion),
                    "--out", str(tmp_path / "models.json")),
        ] == [0, 0, 0]

    def test_ingest_fragment(self, tmp_path, messages_path, pipeline_run, capsys):
        out, _ = pipeline_run
        frag = tmp_path / "ingest"
        assert run_cli(
            "ingest", "--messages", str(messages_path), "--out", str(frag)
        ) == 0
        assert (frag / "buckets.json").read_bytes() == (out / "buckets.json").read_bytes()
        assert (frag / "discussion_counts.csv").read_bytes() == (
            out / "discussion_counts.csv"
        ).read_bytes()
        assert capsys.readouterr().out.count("wrote ") == 2

    def test_score_fragment(self, tmp_path, lexicon_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "score"
        assert run_cli(
            "score",
            "--lexicon", str(lexicon_path),
            "--buckets", str(out / "buckets.json"),
            "--out", str(frag),
        ) == 0
        assert (frag / "emotion_series.csv").read_bytes() == (
            out / "emotion_series.csv"
        ).read_bytes()
        assert (frag / "top_words.csv").read_bytes() == (out / "top_words.csv").read_bytes()

    def test_smooth_fragment_emotion(self, tmp_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "smoothed.csv"
        assert run_cli(
            "smooth", "--series", str(out / "emotion_series_aligned.csv"), "--out", str(frag)
        ) == 0
        assert frag.read_bytes() == (out / "emotion_series_smoothed.csv").read_bytes()

    def test_smooth_fragment_attitude(self, tmp_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "smoothed.csv"
        assert run_cli(
            "smooth", "--series", str(out / "attitude_aligned.csv"), "--out", str(frag)
        ) == 0
        assert frag.read_bytes() == (out / "attitude_smoothed.csv").read_bytes()

    def test_correlate_fragment(self, tmp_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "corr.csv"
        assert run_cli(
            "correlate",
            "--series-a", str(out / "emotion_series_smoothed.csv"),
            "--column-a", "valence_mean",
            "--series-b", str(out / "attitude_smoothed.csv"),
            "--out", str(frag),
        ) == 0
        assert frag.read_bytes() == (
            out / "correlations" / "smoothed" / "mean_valence__attitude.csv"
        ).read_bytes()

    def test_suite_fragment(self, tmp_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "models.json"
        assert run_cli(
            "suite",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--out", str(frag),
        ) == 0
        assert frag.read_bytes() == (out / "models.json").read_bytes()

    def test_forecast_fragment_single_model(self, tmp_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "model.json"
        assert run_cli(
            "forecast",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--model", "both-arousal",
            "--out", str(frag),
        ) == 0
        fragment = json.loads(frag.read_text(encoding="utf-8"))["models"]
        suite = json.loads((out / "models.json").read_text(encoding="utf-8"))["models"]
        expected = next(m for m in suite if m["name"] == "both-arousal")
        assert fragment == [expected]

    def test_surrogate_fragment(self, tmp_path, pipeline_run):
        out, manifest = pipeline_run
        frag = tmp_path / "surrogate.json"
        assert run_cli(
            "surrogate",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--model", manifest["surrogate"]["model"],
            "--surrogates", str(manifest["config"]["surrogates"]),
            "--seed", str(manifest["config"]["seed"]),
            "--out", str(frag),
        ) == 0
        assert frag.read_bytes() == (out / "surrogate.json").read_bytes()


class TestInputsReadOnce:
    """A subcommand reads each input table once and picks its reader from that read."""

    @pytest.fixture
    def table_reads(self, monkeypatch):
        reads = Counter()
        read_table = tables.read_table

        def counting(path):
            reads[Path(path)] += 1
            return read_table(path)

        for name, module in list(sys.modules.items()):
            if name.startswith("moodcast") and getattr(module, "read_table", None) is read_table:
                monkeypatch.setattr(module, "read_table", counting)
        return reads

    def test_correlate_reads_emotion_table_and_attitude_file_once(
        self, tmp_path, pipeline_run, attitude_path, table_reads
    ):
        emotion = pipeline_run[0] / "emotion_series_smoothed.csv"
        assert run_cli(
            "correlate",
            "--series-a", str(emotion), "--column-a", "valence_mean",
            "--series-b", str(attitude_path),
            "--out", str(tmp_path / "corr.csv"),
        ) == 0
        assert table_reads == {emotion: 1, attitude_path: 1}

    @pytest.mark.parametrize("name", ["approval", "emotion"])
    def test_smooth_reads_its_series_once(
        self, name, tmp_path, pipeline_run, attitude_path, table_reads
    ):
        series = {"approval": attitude_path, "emotion": pipeline_run[0] / "emotion_series.csv"}
        path = series[name]
        assert run_cli("smooth", "--series", str(path), "--out", str(tmp_path / "s.csv")) == 0
        assert table_reads == {path: 1}


class TestForecastOptions:
    def test_holdout_changes_evaluation_mode(self, tmp_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "model.json"
        assert run_cli(
            "forecast",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--model", "both-arousal",
            "--holdout", "12",
            "--out", str(frag),
        ) == 0
        payload = json.loads(frag.read_text(encoding="utf-8"))["models"][0]
        assert payload["evaluation_mode"] == "held-out"
        assert len(payload["errors"]) == 12

    def test_forecast_fits_only_its_model(self, tmp_path, pipeline_run, capsys):
        # With every valence_std 0.0, std-valence and both-valence are
        # rank-deficient; forecasting ar fits neither, so nothing warns.
        out, _ = pipeline_run
        table = (out / "emotion_series_smoothed.csv").read_text(encoding="utf-8").splitlines()
        rows = [row.split(",") for row in table[1:]]
        emotion = tmp_path / "emotion.csv"
        emotion.write_text("\n".join([table[0], *(
            ",".join([*row[:2], "0.0", *row[3:]]) for row in rows
        )]) + "\n", encoding="utf-8")
        frag = tmp_path / "model.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(
                "forecast",
                "--attitude-series", str(out / "attitude_smoothed.csv"),
                "--emotion-series", str(emotion),
                "--model", "ar",
                "--out", str(frag),
            ) == 0
        assert [str(w.message) for w in caught] == []
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_forecast_holdout_is_checked_for_its_model_only(self, tmp_path, pipeline_run):
        # 61 of 66 months held out leave the 5 that ar needs; a one-series
        # model would need 7.
        out, _ = pipeline_run
        frag = tmp_path / "model.json"
        assert run_cli(
            "forecast",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--model", "ar",
            "--holdout", "61",
            "--out", str(frag),
        ) == 0
        (payload,) = json.loads(frag.read_text(encoding="utf-8"))["models"]
        assert payload["evaluation_mode"] == "held-out"
        assert len(payload["errors"]) == 61

    @pytest.mark.parametrize("holdout, message", [
        (56, None),
        (57, "holdout of 57 leaves only 9 training months; need at least 10"),
        (61, "holdout of 61 leaves only 5 training months; need at least 7"),
    ])
    def test_suite_holdout_needs_a_row_per_coefficient(
        self, tmp_path, pipeline_run, capsys, holdout, message
    ):
        out, _ = pipeline_run
        code = run_cli(
            "suite",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--holdout", str(holdout),
            "--out", str(tmp_path / "models.json"),
        )
        assert (code, capsys.readouterr().err) == (
            (0, "") if message is None else (3, f"error: {message}\n")
        )

    @pytest.mark.parametrize("command", [("suite",), ("forecast", "--model", "ar")])
    @pytest.mark.parametrize("holdout, message", [
        (-1, "holdout must be >= 0, got -1"),
        (66, "holdout of 66 is not shorter than the series of 66 months"),
        (70, "holdout of 70 is not shorter than the series of 66 months"),
    ])
    def test_holdout_out_of_range_names_its_bound(
        self, tmp_path, pipeline_run, capsys, command, holdout, message
    ):
        out, _ = pipeline_run
        code = run_cli(
            *command,
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--holdout", str(holdout),
            "--out", str(tmp_path / "models.json"),
        )
        assert (code, capsys.readouterr().err) == (3, f"error: {message}\n")
        assert not (tmp_path / "models.json").exists()

    def test_surrogate_writes_every_mae_without_a_flag(
        self, tmp_path, pipeline_run, lexicon_path, messages_path, attitude_path
    ):
        out, _ = pipeline_run
        frag = tmp_path / "surrogate.json"
        argv = [
            "surrogate",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--model", "mean-valence",
            "--surrogates", "10",
            "--out", str(frag),
        ]
        assert run_cli(*argv) == 0
        payload = json.loads(frag.read_text(encoding="utf-8"))
        assert len(payload["surrogate_maes"]) == 10
        # The list is always written, so no flag asks for it.
        run = _run_argv(lexicon_path, messages_path, attitude_path, tmp_path / "run")
        for flagged in ([*argv, "--full"], [*run, "--surrogate-full"]):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(*flagged)
            assert excinfo.value.code == 2

    def test_correlate_needs_column_for_emotion_table(self, tmp_path, pipeline_run, capsys):
        out, _ = pipeline_run
        code = run_cli(
            "correlate",
            "--series-a", str(out / "emotion_series_smoothed.csv"),
            "--series-b", str(out / "attitude_smoothed.csv"),
            "--out", str(tmp_path / "corr.csv"),
        )
        assert code == 3
        assert "pick a column" in capsys.readouterr().err


class TestReportCommand:
    def test_writes_default_report(self, pipeline_run, capsys):
        out, _ = pipeline_run
        assert run_cli("report", "--run", str(out)) == 0
        report = out / "report.md"
        assert report.exists()
        assert report.read_text(encoding="utf-8").startswith("# Run report")

    def test_missing_run_dir_is_2(self, tmp_path):
        assert run_cli("report", "--run", str(tmp_path / "absent")) == 2

    @pytest.mark.parametrize("artifact", [
        "run_manifest.json", "models.json", "surrogate.json", "emotion_series_smoothed.csv",
        "correlations/smoothed",
    ])
    def test_run_missing_an_artifact_is_2_naming_it(self, tmp_path, capsys, pipeline_run,
                                                    artifact):
        # A finished run has every artifact that a section renders, so the
        # report renders every section or none.
        run = tmp_path / "run"
        shutil.copytree(pipeline_run[0], run)
        missing = run / artifact
        if missing.is_dir():
            shutil.rmtree(missing)
        else:
            missing.unlink()
        assert run_cli("report", "--run", str(run), "--out", str(tmp_path / "report.md")) == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()


def _run_argv(lexicon, messages, attitude, out, surrogates="2"):
    return ["run", "--lexicon", str(lexicon), "--messages", str(messages),
            "--attitude", str(attitude), "--surrogates", surrogates, "--out", str(out)]


class TestRunCommand:
    def test_small_run_prints_summary(
        self, tmp_path, lexicon_path, messages_path, attitude_path, capsys
    ):
        out = tmp_path / "run"
        code = run_cli(
            "run",
            "--lexicon", str(lexicon_path),
            "--messages", str(messages_path),
            "--attitude", str(attitude_path),
            "--out", str(out),
            "--surrogates", "3",
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "artifacts" in stdout
        assert "p_hat = " in stdout
        assert (out / "run_manifest.json").exists()
        assert not (out / "run.failed").exists()

    def test_verbose_writes_stage_lines_for_its_own_call_only(
        self, tmp_path, capsys, lexicon_path, messages_path, attitude_path
    ):
        # -v belongs to one call, not to the process: of three runs in one
        # process, only the middle one writes stage lines.
        out = tmp_path / "run"
        argv = _run_argv(lexicon_path, messages_path, attitude_path, out)
        errs = []
        for verbose in ([], ["-v"], []):
            assert main([*verbose, *argv]) == 0
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[2] == ""
        assert errs[1].splitlines() == [
            "stage load-inputs",
            "stage ingest: 1690 messages",
            "stage score: 66 monthly buckets",
            "stage align: common range 2000-01..2005-06",
            "stage smooth: window 4",
            "stage correlate: window 13, alpha 0.05",
            "stage forecast: 10 models, lag orders 1/3",
            "stage surrogate: model both-arousal, 2 surrogates",
            f"run complete: 53 artifacts in {out}",
        ]

    def test_verbose_names_the_interpolated_series(
        self, tmp_path, capsys, lexicon_path, messages_path, attitude_path
    ):
        lines = messages_path.read_text(encoding="utf-8").splitlines(keepends=True)
        gapped = tmp_path / "messages.jsonl"
        gapped.write_text("".join(line for line in lines if '"2002-10' not in line),
                          encoding="utf-8")
        argv = _run_argv(lexicon_path, gapped, attitude_path, tmp_path / "run")
        assert main(["-v", *argv, "--gap-policy", "linear-interpolate"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[3:6] == ["stage align: common range 2000-01..2005-06",
                            "stage gaps: interpolated 6 series", "stage smooth: window 4"]

    def test_manifest_digests_an_input_the_run_replaces_as_it_was_read(
        self, tmp_path, lexicon_path, messages_path, attitude_path
    ):
        # The attitude input sits where the run writes its smoothed attitude.
        out = tmp_path / "o"
        out.mkdir()
        attitude = out / "attitude_smoothed.csv"
        shutil.copyfile(attitude_path, attitude)
        assert main(_run_argv(lexicon_path, messages_path, attitude, out, surrogates="5")) == 0
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        read = reports.sha256_file(attitude_path)
        assert manifest["inputs"]["attitude"] == {"path": str(attitude), "sha256": read}
        assert manifest["artifacts"]["attitude_smoothed.csv"] == reports.sha256_file(attitude)
        assert reports.sha256_file(attitude) != read

    def test_surrogate_json_holds_its_own_evidence(self, pipeline_run):
        out, _ = pipeline_run
        payload = json.loads((out / "surrogate.json").read_text(encoding="utf-8"))
        maes, n = payload["surrogate_maes"], payload["n_surrogates"]
        assert len(maes) == n == 50
        assert payload["p_hat"] == sum(m <= payload["empirical_mae"] for m in maes) / n
        ordered, quantiles = sorted(maes), payload["surrogate_mae_quantiles"]
        # p50 is the nearest rank, as ``write_surrogate_json`` rounds it.
        assert (quantiles["min"], quantiles["p50"], quantiles["max"]) == (
            ordered[0], ordered[round(0.5 * (n - 1))], ordered[-1]
        )

    def test_manifest_times_each_stage_before_the_manifest(self, pipeline_run):
        out, manifest = pipeline_run
        timings = manifest["timings"]
        assert list(timings) == ["config", "load-inputs", "ingest", "score", "align", "gaps",
                                 "smooth", "correlate", "forecast", "surrogate"]
        assert all(isinstance(t, float) and math.isfinite(t) and t >= 0 for t in timings.values())
        saved = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        assert saved["timings"] == timings


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


class TestInternalError:
    def test_run_fault_is_4_with_a_traceback_and_names_its_stage(
        self, tmp_path, capsys, monkeypatch, lexicon_path, messages_path, attitude_path
    ):
        monkeypatch.setattr("moodcast.pipeline.surrogate_stage", _boom)
        out = tmp_path / "run"
        assert main(_run_argv(lexicon_path, messages_path, attitude_path, out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: boom\ninternal error: boom\n")
        assert (out / "run.failed").read_text(encoding="utf-8") == "surrogate: boom\n"
        assert not (out / "run_manifest.json").exists()

    def test_subcommand_fault_is_4_with_a_traceback(
        self, tmp_path, capsys, monkeypatch, messages_path
    ):
        monkeypatch.setattr("moodcast.cli.ingest_stage", _boom)
        assert run_cli("ingest", "--messages", str(messages_path), "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: boom\ninternal error: boom\n")


class TestKilledRun:
    KILLS = 6

    def test_a_killed_run_leaves_no_manifest_or_a_true_one(
        self, tmp_path, lexicon_path, messages_path, attitude_path
    ):
        # SIGKILL ``run`` at seeded delays spread over one measured run, one
        # process at a time; the last kill is a rerun into the measured run's
        # finished directory. Each kill must leave no manifest, or one whose
        # every listed file still has its digest.
        env = {**os.environ, "PYTHONPATH": str(Path(moodcast.__file__).resolve().parents[1])}

        def start(out):
            argv = _run_argv(lexicon_path, messages_path, attitude_path, out, surrogates="20")
            return subprocess.Popen([sys.executable, "-m", "moodcast", *argv], env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        finished = tmp_path / "finished"
        began = time.perf_counter()
        assert start(finished).wait() == 0
        measured = time.perf_counter() - began
        rng = random.Random(11)
        codes = []
        for i in range(self.KILLS):
            out = finished if i == self.KILLS - 1 else tmp_path / f"killed-{i}"
            run = start(out)
            time.sleep(measured * (i + rng.random()) / self.KILLS)
            run.kill()
            codes.append(run.wait())
            manifest = out / "run_manifest.json"
            if manifest.exists():
                listed = json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]
                for rel, digest in listed.items():
                    assert reports.sha256_file(out / rel) == digest, (i, rel)
        assert any(code != 0 for code in codes), codes


# Runs ``moodcast.cli.main`` on argv[2:] with no file allowed past argv[1] bytes;
# a write past it fails with EFBIG instead of killing the process.
_SIZE_LIMITED = (
    "import resource, signal, sys\n"
    "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
    "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), int(sys.argv[1])))\n"
    "from moodcast.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _files(root):
    """Each file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# The track that ``correlate`` writes in the tests below, as ``run`` names it.
_TRACK = "correlations/smoothed/mean_valence__attitude.csv"


class TestFailedWrite:
    def test_a_write_cut_short_leaves_each_file_whole_or_as_it_was(
        self, tmp_path, lexicon_path, messages_path, attitude_path
    ):
        # A good run, over a directory holding temporary files of killed
        # writes, which it removes, and a file of the user's, which it keeps.
        good = tmp_path / "good"
        stale = [good / "buckets.json.4242.tmp",
                 good / "correlations" / "raw" / "mean_valence__attitude.csv.4242.tmp"]
        for path in [*stale, good / "notes.tmp"]:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("stale\n", encoding="utf-8")
        argv = _run_argv(lexicon_path, messages_path, attitude_path, good, surrogates="5")
        assert run_cli(*argv) == 0
        assert run_cli("report", "--run", str(good)) == 0
        assert not any(path.exists() for path in stale)
        (good / "notes.tmp").unlink()
        expected = _files(good)

        # Each command, with every file limited to three quarters of the size of the one
        # named; ``run`` writes buckets.json (24 kB) whole and fails at models.json (43 kB).
        smoothed = ["--attitude-series", str(good / "attitude_smoothed.csv"),
                    "--emotion-series", str(good / "emotion_series_smoothed.csv")]
        commands = [
            ("buckets.json", ["ingest", "--messages", str(messages_path)], "."),
            ("emotion_series.csv", ["score", "--lexicon", str(lexicon_path),
                                    "--buckets", str(good / "buckets.json")], "."),
            (_TRACK, ["correlate", "--series-a", str(good / "emotion_series_smoothed.csv"),
                      "--column-a", "valence_mean",
                      "--series-b", str(good / "attitude_smoothed.csv")], _TRACK),
            ("models.json", ["suite", *smoothed], "models.json"),
            ("report.md", ["report", "--run", str(good)], "report.md"),
            ("models.json", argv[:-2], "."),
        ]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(Path(moodcast.__file__).resolve().parents[1])}
        for cut, command, target in commands:
            # Once into an empty directory and once over the good run's files, side by side.
            children = []
            for over_a_run in (False, True):
                out = tmp_path / f"{command[0]}-{over_a_run}"
                if over_a_run:
                    shutil.copytree(good, out)
                else:
                    (out / target).parent.mkdir(parents=True, exist_ok=True)
                limit = str(len(expected[cut]) * 3 // 4)
                child = subprocess.Popen(
                    [sys.executable, "-c", _SIZE_LIMITED, limit, *command, "--out",
                     str(out / target)],
                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                )
                children.append(((command[0], over_a_run), out, child))
            for where, out, child in children:
                stderr = child.communicate()[1]
                assert child.returncode == 2, (where, stderr)
                assert "File too large" in stderr, where
                left = _files(out)
                if where[0] == "run":
                    assert left.pop("run.failed").startswith(b"forecast: "), where
                changed = [name for name, data in left.items() if data != expected.get(name)]
                assert not changed, (where, changed)


class TestWriteTargets:
    # Never /dev/null or /dev/stdout: run as root, a regression would replace the device.

    @staticmethod
    def correlate(run, out):
        return run_cli(
            "correlate", "--series-a", str(run / "emotion_series_smoothed.csv"),
            "--column-a", "valence_mean", "--series-b", str(run / "attitude_smoothed.csv"),
            "--out", str(out),
        )

    def test_a_fifo_is_written_in_place(self, tmp_path, pipeline_run):
        fifo = tmp_path / "track.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert self.correlate(pipeline_run[0], fifo) == 0
        reader.join(timeout=10)
        assert received == [(pipeline_run[0] / _TRACK).read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_a_missing_directory_is_2_naming_the_target(self, tmp_path, capsys, pipeline_run):
        out = tmp_path / "absent" / "track.csv"
        assert self.correlate(pipeline_run[0], out) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_a_symlink_is_kept_and_the_file_it_names_replaced(self, tmp_path, pipeline_run):
        named = tmp_path / "elsewhere" / "track.csv"
        named.parent.mkdir()
        named.write_text("old\n", encoding="utf-8")
        link = tmp_path / "out" / "track.csv"
        link.parent.mkdir()
        link.symlink_to(named)
        assert self.correlate(pipeline_run[0], link) == 0
        assert link.is_symlink() and os.readlink(link) == str(named)
        assert named.read_bytes() == (pipeline_run[0] / _TRACK).read_bytes()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["elsewhere", "out", "track.csv",
                                                               "track.csv"]

    # Two names of two-byte characters, one byte apart, so that one of them
    # has a character across the byte limit whatever the length of the pid.
    @pytest.mark.parametrize(
        "name", ["a" * 251 + ".csv", "a" + "\u00e9" * 125 + ".csv", "\u00e9" * 125 + "a.csv"],
        ids=["ascii", "two-byte", "two-byte-shifted"],
    )
    def test_a_name_of_255_bytes_is_written_whole(self, tmp_path, monkeypatch, name):
        assert len(name.encode("utf-8")) == 255
        pending = []
        replace = os.replace
        monkeypatch.setattr(tables.os, "replace", lambda a, b: (pending.append(a), replace(a, b)))
        tables.write_file(tmp_path / name, "month,value\n")
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_bytes() == b"month,value\n"
        # The temporary name, cut at a character, keeps the tail that ``run`` sweeps.
        (temporary,) = [Path(p).name for p in pending]
        assert len(temporary.encode("utf-8")) <= 255
        assert tables.TEMPORARY_NAME.fullmatch(temporary)
        assert name.startswith(temporary[: -len(f".{os.getpid()}.tmp")])
