import json

import pytest
from hypothesis import given, strategies as st

from moodcast.months import (
    MonthAxis,
    check_contiguous,
    check_month,
    month_ord,
    ord_month,
)


@pytest.mark.parametrize("month", ["2000-01", "1999-12", "2005-06", "0001-01"])
def test_check_month_accepts_valid(month):
    assert check_month(month) == month


@pytest.mark.parametrize(
    "month", ["2000-13", "2000-00", "2000-1", "200-01", "2000/01", "2000-01x", "", "jan"]
)
def test_check_month_rejects_invalid(month):
    with pytest.raises(ValueError):
        check_month(month)


@given(st.integers(min_value=0, max_value=12 * 9999 - 1))
def test_ord_round_trip(ordinal):
    assert month_ord(ord_month(ordinal)) == ordinal


def test_month_axis_crosses_years():
    assert list(MonthAxis(month_ord("2000-11"), 4)) == [
        "2000-11",
        "2000-12",
        "2001-01",
        "2001-02",
    ]


def test_month_axis_single_month():
    assert list(MonthAxis(month_ord("2003-07"), 1)) == ["2003-07"]


def test_month_axis_rejects_negative_length():
    with pytest.raises(ValueError):
        MonthAxis(month_ord("2001-02"), -1)


@pytest.mark.parametrize("ordinal", [-1, 10000 * 12])
def test_month_axis_refuses_an_ordinal_off_the_month_range(ordinal):
    # The axis from 2004-01 to an ordinal before 0000-01 or after 9999-12.
    first = min(month_ord("2004-01"), ordinal)
    with pytest.raises(ValueError, match="month axis out of range"):
        MonthAxis(first, max(month_ord("2004-01"), ordinal) - first + 1)


# Axes that start anywhere in 1998-2001 and run up to four years, so that
# most of them cross at least one year boundary.
AXES = st.builds(
    MonthAxis, st.integers(month_ord("1998-01"), month_ord("2001-12")), st.integers(0, 48)
)


@given(AXES, st.integers(-60, 60), st.integers(-60, 60))
def test_month_axis_matches_its_month_list(axis, i, j):
    oracle = [ord_month(axis.start + k) for k in range(axis.length)]
    assert list(axis) == oracle
    assert len(axis) == len(oracle)
    if -len(oracle) <= i < len(oracle):
        assert axis[i] == oracle[i]
    else:
        with pytest.raises(IndexError):
            oracle[i]
        with pytest.raises(IndexError):
            axis[i]
    assert list(axis[i:j]) == oracle[i:j]
    assert list(axis[i:]) == oracle[i:]
    assert list(axis[:j]) == oracle[:j]
    month = ord_month(month_ord("1998-01") + 30 + i)
    if month in oracle:
        assert axis.index(month) == oracle.index(month)
    else:
        with pytest.raises(ValueError):
            oracle.index(month)
        with pytest.raises(ValueError):
            axis.index(month)


@given(AXES, AXES)
def test_month_axis_equality_is_list_equality(a, b):
    assert (a == b) == (list(a) == list(b))
    assert (a[1:] == b[1:]) == (list(a)[1:] == list(b)[1:])
    assert a == MonthAxis(a.start, a.length)
    if a == b:
        assert hash(a) == hash(b)


def test_check_contiguous_accepts_gap_free():
    months = ["2000-01", "2000-02", "2000-03", "2000-04", "2000-05", "2000-06"]
    axis = check_contiguous(months)
    assert list(axis) == months
    assert axis == MonthAxis(month_ord("2000-01"), 6)


def test_check_contiguous_names_gap():
    with pytest.raises(ValueError, match="2000-04"):
        check_contiguous(["2000-01", "2000-02", "2000-04"])


def test_check_contiguous_rejects_empty():
    with pytest.raises(ValueError):
        check_contiguous([])


def test_run_checks_each_outside_month_list_once(
    tmp_path, monkeypatch, lexicon_path, messages_path, attitude_path
):
    # A structural check that counts calls and times nothing: a series built
    # from another series' axis is never re-checked, so a whole run checks
    # only the month list that comes from outside, the buckets', not one per
    # series construction. The attitude file's axis comes from its rows.
    import moodcast.analysis
    import moodcast.emotion
    from moodcast.pipeline import PipelineConfig, run_pipeline

    calls = []

    def counting(months, *args, **kwargs):
        calls.append(len(months))
        return check_contiguous(months, *args, **kwargs)

    for module in (moodcast.analysis, moodcast.emotion):
        monkeypatch.setattr(module, "check_contiguous", counting)
    run_pipeline(
        PipelineConfig(
            lexicon=lexicon_path,
            messages=messages_path,
            attitude=attitude_path,
            out=tmp_path,
            surrogates=50,
        )
    )
    buckets = json.loads((tmp_path / "buckets.json").read_text(encoding="utf-8"))["buckets"]
    assert calls == [len(buckets)]
