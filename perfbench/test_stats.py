"""Tests of the benchmark's own statistics and failure accounting.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import math
import sys
from statistics import median
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from client import Op, apply_checks, closed_loop  # noqa: E402
from run import END_TO_END_UNITS, latency_ms  # noqa: E402
from stats import MISSING, finite_or_none, tail, tail_percentile  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class TestTail:
    def test_ten_samples_beyond_the_chosen_percentile(self):
        values = list(range(1, 101))  # 1..100
        assert tail_percentile(100) == 90.0
        value, beyond, n = tail(values, 90.0)
        assert (value, beyond, n) == (90, 10, 100)
        assert sum(v > value for v in values) == 10

    def test_percentile_rises_with_sample_count(self):
        assert tail_percentile(20) == 50.0
        assert tail_percentile(40) == 75.0
        assert tail_percentile(1000) == 99.0

    def test_percentile_is_fixed_whatever_the_op_count(self):
        # a slower run reaches fewer ops: fewer samples lie beyond the same percentile
        assert tail(range(1, 41), 75.0) == (30, 10, 40)
        assert tail(range(1, 31), 75.0) == (23, 7, 30)
        assert tail(range(1, 81), 75.0) == (60, 20, 80)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        assert tail(values, 50.0) == tail(sorted(values), 50.0)
        assert tail(values, 50.0) == (5.0, 6, 12)

    def test_edges(self):
        assert tail([], 90.0) is None
        assert tail([3.0], 90.0) == (3.0, 0, 1)
        assert tail([3.0, 1.0], 0.0) == (1.0, 1, 2)
        assert tail([3.0, 1.0], 100.0) == (3.0, 0, 2)


class TestFailureAsMissing:
    def test_failed_ops_count_against_the_median(self):
        # 3 fast successes, 2 failures: the median is still a success
        assert median([1.0, 2.0, 3.0, MISSING, MISSING]) == 3.0
        # a majority of failures pushes the median past any limit
        assert median([1.0, 2.0, MISSING, MISSING, MISSING]) == MISSING
        assert median([1.0, 2.0, 3.0, MISSING]) == 2.5
        assert median([1.0, 2.0, MISSING, MISSING]) == MISSING

    def test_failures_fill_the_tail_first(self):
        values = [1.0] * 30 + [MISSING] * 10
        assert tail(values, 75.0)[0] == 1.0
        assert tail(values + [MISSING], 75.0)[0] == MISSING

    def test_missing_is_reported_as_null(self):
        assert finite_or_none(MISSING) is None
        assert finite_or_none(None) is None
        assert finite_or_none(2.5) == 2.5

    def test_a_raising_op_is_recorded_as_missing_not_timed(self):
        def op(x):
            if x < 0:
                raise ValueError("negative input")
            return x

        ops, _, outputs = closed_loop(op, [1], 0.0)
        ops += closed_loop(op, [-1], 0.0)[0]
        assert outputs == {(0, "1"): 1}
        assert [o.failure for o in ops] == [None, "ValueError: negative input"]
        lat = latency_ms(ops)
        assert lat[1] == MISSING and math.isfinite(lat[0])

    def test_a_failed_check_fails_the_op(self):
        ops = [Op(0, 0.1, "5", None, []), Op(1, 0.1, "-5", None, []), Op(0, 0.1, "5", None, [])]
        outputs = {(0, "5"): 5, (1, "-5"): -5}
        checked = []

        def check(w, profile, inp, out):
            checked.append(out)
            return None if out > 0 else "negative output"

        apply_checks(None, None, [None, None], ops, outputs, check)
        assert [o.failure for o in ops] == [None, "check: negative output", None]
        assert latency_ms(ops)[1] == MISSING
        assert checked == [5, -5]  # a repeated output of one input is checked once

    def test_overflow_warnings_are_counted(self):
        assert Op(0, 0.1, "k", None, ["overflow encountered in exp", "divide by zero"]).overflow_warnings == 1

    def test_the_loop_runs_for_the_given_time(self):
        ops, wall, outputs = closed_loop(lambda x: x, [0, 1], 0.05)
        assert wall >= 0.05 and len(ops) > 2
        assert [o.input_index for o in ops[:3]] == [0, 1, 0]
        assert outputs == {(0, "0"): 0, (1, "1"): 1}  # one per distinct output, not one per op


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    benchmarked = {w.name: w.why for w in WORKLOADS.values() if w.benchmarked}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == benchmarked


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
