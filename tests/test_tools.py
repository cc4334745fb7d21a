"""The fixture generator in ``tools/`` writes the shipped test data byte for byte."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_make_fixtures_reproduces_tests_data(tmp_path):
    # The script writes to ../tests/data from its own directory, so it runs from a copy.
    (tmp_path / "tools").mkdir()
    script = shutil.copy(ROOT / "tools" / "make_fixtures.py", tmp_path / "tools")
    subprocess.run([sys.executable, script], check=True, capture_output=True)
    for name in ("lexicon.csv", "messages.jsonl", "approval.csv"):
        made = (tmp_path / "tests" / "data" / name).read_bytes()
        assert made == (ROOT / "tests" / "data" / name).read_bytes(), name
