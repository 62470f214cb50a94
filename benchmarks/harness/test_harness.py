"""Tests of the benchmark harness: smoke runs of every workload plus unit
tests of the percentile rule, span self time and the compare verdicts."""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.harness import cli
from benchmarks.harness.stats import (
    AnswersDigest,
    min_samples_for,
    percentile,
    tail_percentile,
)
from benchmarks.harness.trace import Span, adopt_pool_orphans, covered_length, self_times

BENCHMARK = cli.load_json(os.path.join(cli.ROOT, "BENCHMARK.json"))


@pytest.mark.parametrize("workload", sorted(cli.LABELS))
def test_workload_smoke_run_emits_every_metric(workload, tmp_path, capsys):
    code = cli.main(
        ["run", "--workload", workload, "--seed", "3", "--seconds", "1.5",
         "--smoke", "--trace", "1", "--out", str(tmp_path)]
    )
    out = tmp_path / f"{workload}-seed3-traced.json"
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, json.dumps(json.loads(out.read_text())["gates"])
    assert last["attempted"] >= 1
    assert last["failed"] == 0

    record = json.loads(out.read_text())
    # Traced and untraced runs returned bitwise-identical answers.
    assert record["gates"]["trace_digest"]["ok"]
    for section in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[section]:
            entry = record[section][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float)), metric["name"]
    assert last["metrics"] == record["per_layer"]
    assert record["data_specs"]
    assert all({"generator", "params", "seed"} <= set(spec) for spec in record["data_specs"])


# ----------------------------------------------------------------------
# Percentile rule: the highest percentile with ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (49, 50.0), (50, 80.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    values = [float(i) for i in range(count)]
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
    else:
        assert tail == (expected, percentile(values, expected))
        beyond = sum(value > tail[1] for value in values)
        assert beyond >= 10


def test_min_samples_for_matches_the_rule():
    assert [min_samples_for(q) for q in (50.0, 80.0, 90.0, 95.0, 99.0)] == [20, 50, 100, 200, 1000]


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 80) == pytest.approx(4.2)


# ----------------------------------------------------------------------
# Self time: duration minus the union of the children's intervals
# ----------------------------------------------------------------------
def _span(sid, name, start, end, parent=None, thread="MainThread"):
    span = Span(sid, name, start, thread, parent, None)
    span.end = end
    return span


def test_covered_length_unions_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([(1, 2), (1, 2), (1.5, 1.8)], 0, 10) == 1
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1, thread="worker"),
        _span(4, "c", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_pool_orphans_join_the_enclosing_fanout_span():
    spans = [
        _span(1, "streaming.pass", 0.0, 5.0, thread="MainThread"),
        _span(2, "streaming.pass", 6.0, 9.0, thread="MainThread"),
        _span(3, "models.diff_update", 6.5, 7.0, thread="ThreadPoolExecutor-0_1"),
        _span(4, "registry.lookup", 1.0, 2.0, thread="repro-serving-wait_0"),
    ]
    adopt_pool_orphans(spans)
    assert spans[2].parent == 2
    assert spans[3].parent is None
    assert self_times(spans)[2] == pytest.approx(3.0 - 0.5)


def test_answers_digest_is_order_sensitive():
    first, second = AnswersDigest(), AnswersDigest()
    answers = [(10, b"\x01", 0.5), (20, b"\x02", 0.25)]
    for answer in answers:
        first.add(*answer)
    for answer in reversed(answers):
        second.add(*answer)
    assert first.hexdigest() != second.hexdigest()
    assert first.count == second.count == 2


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "before, after, expected",
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.00, 1.01, 1.00, 0.99, 1.01], "within bound"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.20, 1.21, 1.19, 1.22, 1.20], "regressed"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.90, 0.91, 0.89, 0.90, 0.92], "improved"),
        ([1.00, 1.40, 0.70, 1.00, 1.30], [1.00, 1.01, 1.00, 0.99, 1.01], "unresolved"),
    ],
)
def test_compare_verdicts(before, after, expected):
    assert cli.verdict(before, after, "lower", 0.1) == expected
