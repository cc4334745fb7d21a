"""Shared fixtures: the shipped synthetic corpus, the reference setup and one completed run."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from moodcast.ingest import (
    build_threads,
    filter_threads,
    monthly_subject_buckets,
    parse_messages,
)
from moodcast.lexicon import load_lexicon
from moodcast.pipeline import PipelineConfig, run_pipeline
from moodcast.reports import load_attitude_series

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def lexicon_path() -> Path:
    return DATA_DIR / "lexicon.csv"


@pytest.fixture(scope="session")
def messages_path() -> Path:
    return DATA_DIR / "messages.jsonl"


@pytest.fixture(scope="session")
def attitude_path() -> Path:
    return DATA_DIR / "approval.csv"


@pytest.fixture(scope="session")
def reference():
    """The reference setup: each run setting's ``PipelineConfig`` default, by field name."""
    return SimpleNamespace(**PipelineConfig._field_defaults)


@pytest.fixture(scope="session")
def lexicon(lexicon_path):
    return load_lexicon(lexicon_path)


@pytest.fixture(scope="session")
def corpus_tally(messages_path):
    return parse_messages(messages_path)


@pytest.fixture(scope="session")
def corpus_buckets(corpus_tally):
    threads = filter_threads(build_threads(corpus_tally), 3)
    return monthly_subject_buckets(threads)


@pytest.fixture(scope="session")
def attitude(attitude_path):
    return load_attitude_series(attitude_path)


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory, lexicon_path, messages_path, attitude_path):
    """One completed full run (small surrogate count for speed)."""
    out = tmp_path_factory.mktemp("run")
    config = PipelineConfig(
        lexicon=lexicon_path,
        messages=messages_path,
        attitude=attitude_path,
        out=out,
        surrogates=50,
    )
    manifest = run_pipeline(config)
    return out, manifest
