import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import moodcast
from moodcast import tables
from moodcast.cli import build_parser, main
from moodcast.pipeline import PipelineConfig, run_pipeline
from moodcast.reports import EMOTION_HEADER
from moodcast.version import PACKAGE_VERSION


def run_cli(*argv):
    return main(list(argv))


def _bucket_file(token_counts):
    entry = f'{{"month": "2001-01", "thread_count": 1, "token_counts": {token_counts}}}'
    return f'{{"buckets": [{entry}]}}'


def _series_file(cell):
    return f"month,rate\n2001-01,1.0\n2001-02,{cell}\n2001-03,3.0\n"


def _emotion_file(*rows):
    return ",".join(EMOTION_HEADER) + "".join(f"\n{row}" for row in rows) + "\n"


def _message_file(timestamp):
    message = {"message_id": "m0", "thread_id": "t0", "group": "g", "timestamp": timestamp,
               "subject": "war"}
    return json.dumps(message) + "\n"


_DEEPLY_NESTED = "[" * 100000 + "]" * 100000


# Malformed input -> (file, its text, subcommand that reads it). The file
# path is relative to a run directory, which report cases copy from a
# finished run.
MALFORMED = {
    "buckets-not-a-list": ("buckets.json", '{"buckets": 5}', "score"),
    "buckets-deeply-nested": ("buckets.json", _DEEPLY_NESTED, "score"),
    "messages-deeply-nested": ("messages.jsonl", _DEEPLY_NESTED + "\n", "ingest"),
    "timestamp-before-year-1-in-utc": (
        "messages.jsonl", _message_file("0001-01-01T00:30:00+01:00"), "ingest"
    ),
    "timestamp-after-year-9999-in-utc": (
        "messages.jsonl", _message_file("9999-12-31T23:30:00-01:00"), "ingest"
    ),
    "token-counts-a-list": ("buckets.json", _bucket_file('["war"]'), "score"),
    "count-overflows-int": ("buckets.json", _bucket_file('{"war": 1e400}'), "score"),
    "count-fractional": ("buckets.json", _bucket_file('{"war": 2.7}'), "score"),
    "count-negative": ("buckets.json", _bucket_file('{"war": -1}'), "score"),
    "count-overflows-float": ("buckets.json", _bucket_file('{"war": 1%s}' % ("0" * 400)), "score"),
    "thread-count-boolean": (
        "buckets.json",
        '{"buckets": [{"month": "2001-01", "thread_count": true, "token_counts": {}}]}',
        "score",
    ),
    "empty-manifest": ("run_manifest.json", "{}", "report"),
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
        assert capsys.readouterr().out.strip() == f"moodcast {PACKAGE_VERSION}"

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
        names = [f.name for f in fields(PipelineConfig)]
        args = build_parser().parse_args(self._RUN)
        assert [name for name in vars(args) if name not in ("verbose", "command", "func")] == names
        config = PipelineConfig(**{name: getattr(args, name) for name in names})
        assert config == PipelineConfig(Path("l.csv"), Path("m.jsonl"), Path("a.csv"), Path("o"))
        # A flag shared with another subcommand has the same default there.
        suite = build_parser().parse_args(self._SUITE)
        assert (suite.p, suite.q) == (config.p, config.q)

    def test_console_script_installed(self):
        # The console script pyproject.toml declares, run the way an
        # installer's wrapper runs it, against the package under test.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["version"] == PACKAGE_VERSION
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
        assert result.stdout.strip() == f"moodcast {PACKAGE_VERSION}"

    @pytest.mark.skipif(
        shutil.which("moodcast") is None,
        reason="no moodcast console script on PATH (package not installed)",
    )
    def test_console_script_on_path(self):
        result = subprocess.run(
            ["moodcast", "--version"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout.strip() == f"moodcast {PACKAGE_VERSION}"


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
    def test_cli_import_and_non_model_stages_load_no_numpy_or_scipy(
        self, tmp_path, messages_path, lexicon_path, attitude_path, pipeline_run
    ):
        # A structural check, not a timing threshold: numpy is loaded only
        # where a model is fitted and scipy only where p-values are computed,
        # so the other stages never pay for either. ``suite`` is the positive
        # control: without it the check could pass with the detector broken.
        script = (
            "import sys\n"
            "import moodcast.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "assert not loaded(), ('import', loaded())\n"
            "messages, lexicon, attitude, run, out = sys.argv[1:]\n"
            "for argv in (\n"
            "    ['ingest', '--messages', messages, '--out', out],\n"
            "    ['score', '--lexicon', lexicon, '--buckets', out + '/buckets.json', '--out', out],\n"
            "    ['smooth', '--series', out + '/emotion_series.csv',\n"
            "     '--out', out + '/emotion_series_smoothed.csv'],\n"
            "    ['smooth', '--series', attitude, '--out', out + '/attitude_smoothed.csv'],\n"
            "    ['report', '--run', run, '--out', out + '/report.md'],\n"
            "):\n"
            "    assert moodcast.cli.main(argv) == 0, argv\n"
            "    assert not loaded(), (argv[0], loaded())\n"
            "assert moodcast.cli.main(['suite', '--attitude-series', out + '/attitude_smoothed.csv',\n"
            "    '--emotion-series', out + '/emotion_series_smoothed.csv',\n"
            "    '--out', out + '/models.json']) == 0\n"
            "assert 'numpy' in sys.modules, 'suite fitted no model'\n"
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
                     "report.md", "models.json"):
            assert (tmp_path / name).exists(), name


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
        rel, text, command = MALFORMED[case]
        run_dir = tmp_path / "run"
        if command == "report":
            shutil.copytree(pipeline_run[0], run_dir)
        path = run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
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
        if case.startswith("rate-150"):
            assert f"{path} row 3: rate 150.0 outside [0, 100]" in err

    def test_failed_rerun_removes_the_old_manifest(
        self, tmp_path, lexicon_path, messages_path, attitude_path
    ):
        out = tmp_path / "run"
        inputs = ["--lexicon", str(lexicon_path), "--attitude", str(attitude_path)]
        ok = run_cli("run", *inputs, "--messages", str(messages_path), "--out", str(out),
                     "--surrogates", "2")
        assert ok == 0
        assert (out / "run_manifest.json").exists()
        assert not (out / "run_manifest.json.tmp").exists()
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

    @pytest.mark.parametrize(
        "rows, message",
        [(["2001-02,50", "2001-01,50", "2001-03,50"], "row 3: expected month 2001-03, got 2001-01"),
         (["2001-01,50", "2001-02,", "2001-03,50"], "row 3: rate is missing"),
         (["2001-01,50", "2001-02,150", "2001-03,50"], "row 3: rate 150.0 outside [0, 100]")],
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
        emotion, attitude = stage / "emotion_series_smoothed.csv", stage / "attitude_smoothed.csv"
        track = stage / "mean_valence__attitude.csv"
        forecast_io = ["--attitude-series", str(attitude), "--emotion-series", str(emotion)]
        chain = [
            ["ingest", "--messages", str(messages_path), "--out", str(stage)],
            ["score", "--lexicon", str(lexicon_path), "--buckets", str(stage / "buckets.json"),
             "--out", str(stage)],
            ["smooth", "--series", str(stage / "emotion_series.csv"), "--out", str(emotion)],
            ["smooth", "--series", str(attitude_path), "--out", str(attitude)],
            ["correlate", "--series-a", str(emotion), "--column-a", "valence_mean",
             "--series-b", str(attitude), "--out", str(track)],
            ["suite", *forecast_io, "--out", str(stage / "models.json")],
            ["surrogate", *forecast_io, "--model", "both-arousal", "--surrogates", "50",
             "--seed", "7", "--out", str(stage / "surrogate.json")],
        ]
        assert [run_cli(*argv) for argv in chain] == [0] * len(chain)
        assert run_cli(
            "run", "--lexicon", str(lexicon_path), "--messages", str(messages_path),
            "--attitude", str(attitude_path), "--out", str(full), "--surrogates", "50",
            "--seed", "7", "--surrogate-model", "both-arousal",
        ) == 0
        staged = sorted(p.name for p in stage.iterdir())
        assert len(staged) == 9
        for name in staged:
            expected = full / name
            if name == track.name:
                expected = full / "correlations" / "smoothed" / name
            assert (stage / name).read_bytes() == expected.read_bytes(), name

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

    def test_surrogate_full_flag_adds_mae_list(self, tmp_path, pipeline_run):
        out, _ = pipeline_run
        frag = tmp_path / "surrogate.json"
        assert run_cli(
            "surrogate",
            "--attitude-series", str(out / "attitude_smoothed.csv"),
            "--emotion-series", str(out / "emotion_series_smoothed.csv"),
            "--model", "mean-valence",
            "--surrogates", "10",
            "--full",
            "--out", str(frag),
        ) == 0
        payload = json.loads(frag.read_text(encoding="utf-8"))
        assert len(payload["surrogate_maes"]) == 10

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
