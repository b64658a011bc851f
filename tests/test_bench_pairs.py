"""tools/bench_pairs.py's summary of paired runs, on canned numbers: no
benchmark runs here."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(parent, change, name):
    return {"parent": [{name: v} for v in parent], "change": [{name: v} for v in change]}


def test_summary_of_a_higher_is_better_metric():
    parent = [100, 104, 98, 102, 101, 99, 103, 100, 97, 105]
    change = [106, 108, 97, 107, 105, 104, 109, 106, 103, 110]
    row = bench_pairs.summarize(_runs(parent, change, "ops_per_s"),
                                {"ops_per_s": "higher"})["ops_per_s"]
    assert row["parent_median"] == 100.5 and row["change_median"] == 106
    # inclusive quartiles of the sorted parent runs 97 98 99 100 100 101 102 103 104 105
    assert row["parent_q1_q3"] == [99.25, 102.75]
    assert row["change_q1_q3"] == [104.25, 107.75]
    assert row["wins"] == 9 and row["pairs"] == 10  # pair 3: 98 -> 97 is a loss
    assert row["relative_change"] == pytest.approx(106 / 100.5 - 1)
    assert row["gain_exceeds_parent_iqr"] is True  # 5.5 > 3.5


def test_summary_of_a_lower_is_better_metric_counts_ties_for_neither():
    row = bench_pairs.summarize(_runs([2.0, 2.0, 3.0], [1.0, 2.0, 4.0], "round_s_p50"),
                                {"round_s_p50": "lower"})["round_s_p50"]
    assert row["wins"] == 1 and row["pairs"] == 3
    assert row["parent_median"] == row["change_median"] == 2.0
    assert row["gain_exceeds_parent_iqr"] is False


def test_summary_of_one_pair_and_of_a_zero_median():
    row = bench_pairs.summarize(_runs([0.0], [0.5], "x"), {"x": "higher"})["x"]
    assert row["parent_q1_q3"] == [0.0, 0.0] and row["change_q1_q3"] == [0.5, 0.5]
    assert row["relative_change"] is None
    assert row["wins"] == 1 and row["gain_exceeds_parent_iqr"] is True


def test_pairs_option_reads_a_workload_and_its_count():
    assert bench_pairs._workload_pairs("split-corpus=10") == ("split-corpus", 10)
    with pytest.raises(ValueError):
        bench_pairs._workload_pairs("cli-fields")
