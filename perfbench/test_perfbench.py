"""The reference benchmark's own tests, on a tiny size of each workload."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import time

import pytest

from perfbench import run, workloads
from perfbench.ledger import layer_metrics
from perfbench.workloads import (
    PROBE_REFERENCE_S,
    WORKLOADS,
    LocalBackend,
    Round,
    checked_session,
    run_round,
    tiny,
)

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """Per workload: two untraced rounds and one traced round, tiny size."""
    scratch = str(tmp_path_factory.mktemp("perfbench"))
    outcome = {}
    for name, workload in WORKLOADS.items():
        small = tiny(workload)
        plain = [run_round(small, 71, scratch) for _ in range(2)]
        outcome[name] = (small, plain, run_round(small, 71, scratch, traced=True))
    return outcome


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_are_correct_and_repeat_exactly(rounds, name):
    _, plain, traced = rounds[name]
    for result in plain + [traced]:
        assert result.failed == 0, result.errors
        assert result.checked > 0
        assert result.digest == plain[0].digest
        assert result.counts == plain[0].counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ledger_sums_to_the_serving_wall(rounds, name):
    workload, _, traced = rounds[name]
    metrics, _ = layer_metrics(workload, [traced])
    assert abs(metrics["bench.unattributed_share"]) < 0.1
    declared = {entry["name"] for entry in BENCHMARK["per_layer"]}
    assert set(metrics) | {"bench.trace_overhead_ratio"} == declared


def test_traced_run_confirms_the_bypass_design(rounds):
    metrics = {}
    for name, (workload, _, traced) in rounds.items():
        metrics[name] = layer_metrics(workload, [traced])[0]
    for name in ("plane-serve", "plane-churn"):
        assert metrics[name]["geometry.delaunay.rebuilds"] > 0
        assert metrics[name]["roadnet.shortest_path.distances.calls"] == 0
    assert metrics["road-serve"]["geometry.delaunay.rebuilds"] == 0
    assert metrics["road-serve"]["transport.codec.frames"] == 0
    assert metrics["road-serve"]["roadnet.shortest_path.distances.calls"] > 0
    assert metrics["plane-serve"]["durability.wal.append.calls"] > 0
    assert metrics["plane-churn"]["durability.wal.append.calls"] == 0
    assert metrics["road-serve"]["durability.wal.append.calls"] == 0
    assert metrics["plane-churn"]["transport.procpool.delta_bytes"] > 0


def test_a_wrong_answer_shows_in_the_error_rate(tmp_path):
    class WrongAnswers(LocalBackend):
        def update(self, session, position):
            response = super().update(session, position)
            wrong = dataclasses.replace(response.result, knn=response.knn[:-1] + (-1,))
            return dataclasses.replace(response, result=wrong)

    result = run_round(
        tiny(WORKLOADS["road-serve"]), 71, str(tmp_path), backend_class=WrongAnswers
    )
    assert result.failed == result.checked > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_session_is_checked_at_full_size(name):
    workload = WORKLOADS[name]
    checked = {
        checked_session(workload, step, workload.queries)
        for step in range(1, workload.steps + 1)
    }
    assert checked - {-1} == set(range(workload.queries))


def test_timings_are_rescaled_by_the_probes_around_them():
    # Twenty timestamps of one update each: a slow spell (probes twice the
    # reference) then a fast one, with one interrupted probe in each.
    probes = [2 * PROBE_REFERENCE_S] * 10 + [PROBE_REFERENCE_S] * 10
    probes[3] = probes[15] = 50 * PROBE_REFERENCE_S
    measured = Round(
        setup_s=3.0, update_s=[1.0] * 20, epoch_s=[1.0, 1.0], probe_s=probes, epoch_steps=[0, 19]
    )
    updates, epochs, setup = measured.scaled()
    assert updates[:5] == [0.5] * 5 and updates[-5:] == [1.0] * 5
    assert epochs == [0.5, 1.0]
    assert setup == pytest.approx(1.5)


def test_a_stall_in_any_round_shows_in_the_tail():
    # Three rounds of 100 timestamps x 10 sessions; each round stalls a
    # different 2% of the requests, so no request is slow in every round.
    def measured(first):
        updates = [1e-4] * 1_000
        for index in range(first, 1_000, 50):
            updates[index] = 1e-2
        return Round(
            setup_s=1.0, update_s=updates, epoch_s=[1e-3] * 100,
            probe_s=[PROBE_REFERENCE_S] * 100, epoch_steps=list(range(100)), rss_mb=1.0,
            counts={"updates": 1_000, "messages": 1, "objects": 1, "wire_bytes": 1},
        )

    metrics = run.end_to_end({71: [measured(first) for first in range(3)]})
    assert metrics["update_p50_us"]["value"] == pytest.approx(100.0)
    assert metrics["update_tail_us"]["value"] == pytest.approx(1e4)
    assert metrics["updates_per_s"]["value"] == pytest.approx(3_000 / (3 * (0.098 + 0.2 + 0.1)))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(value) for value in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(value) for value in range(1, 1001)]) == (99.0, 990.0)


def test_command_prints_every_metric_and_a_result_line(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        workloads, "WORKLOADS", {name: tiny(w) for name, w in WORKLOADS.items()}
    )
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(
            ["--workload", "road-serve", "--seed", "72", "--seconds", "0", "--trace", str(trace)]
        ) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
        assert set(last["metrics"]) == {entry["name"] for entry in BENCHMARK[section]}
    assert not (tmp_path / ".perfbench").exists()


def test_a_round_leaves_no_process_behind(monkeypatch, tmp_path):
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self.pid)

    monkeypatch.setattr(run.subprocess, "Popen", Recorded)
    result = run.serve_round(
        tmp_path, 1, time.monotonic() + 60, tiny(WORKLOADS["plane-churn"]), 71, str(tmp_path)
    )
    assert result.failed == 0 and result.checked > 0
    # The round's worker processes shared its process group; none is left.
    with pytest.raises(ProcessLookupError):
        os.killpg(started[0], 0)
