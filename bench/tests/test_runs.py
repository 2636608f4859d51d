"""Short real runs: every workload over real HTTP against a server
subprocess, the layer walk, and the oracle catching a wrong answer."""

import json
import random

import pytest

from bench import run
from bench.measure import run_untraced
from bench.metrics import END_TO_END, PER_LAYER
from bench.walk import run_walk
from bench.workloads import WORKLOADS, Oracle


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_second_smoke_of_each_workload(name):
    result = run_untraced(
        WORKLOADS[name], seed=5, seconds=1.0, setup_spawns=1, windows=1, warmup=0.2
    )
    assert result.tally.failed == 0, result.tally.failures
    assert result.tally.attempted >= 1
    assert set(result.end_to_end) == {metric for metric, *_ in END_TO_END}
    assert all(value > 0 for value in result.end_to_end.values())
    assert result.layers["client.connections_opened"] == WORKLOADS[name].clients
    assert result.layers["transport.shed_count"] == 0


def test_walk_reports_crossed_layers_and_nulls_the_rest():
    layers, walked = run_walk(WORKLOADS["point_query"], seed=5, budget=1.0)
    assert walked >= 5
    traced = {name for name, *_ in PER_LAYER} & set(layers)
    assert traced == set(layers)
    assert layers["relational.execute_ms"] > 0
    assert layers["trace.walk_sum_ms"] > layers["relational.execute_ms"]
    assert layers["daix.dispatch_ms"] is None and layers["xmldb.query_ms"] is None

    layers, _ = run_walk(WORKLOADS["xml_query"], seed=5, budget=1.0)
    assert layers["xmldb.query_ms"] > 0 and layers["daix.dispatch_ms"] is not None
    for name in layers:
        if name.startswith(("relational.", "dair.")) or name == "core.dispatch_ms":
            assert layers[name] is None, name


def test_a_corrupted_expected_answer_fails_the_run(monkeypatch, tmp_path, capsys):
    stream = WORKLOADS["point_query"].ops(random.Random(9))
    first = next(stream)[1]
    victim = next(op[1] for op in stream if op[1] != first)
    honest = Oracle.rows

    def corrupted(self, sql, params=()):
        answer = honest(self, sql, params)
        if params == (str(victim),):
            answer = type(answer)(answer.columns, answer.types, [])
        return answer

    monkeypatch.setattr(Oracle, "rows", corrupted)
    out = tmp_path / "result.json"
    code = run.main(
        ["--workload", "point_query", "--seed", "9", "--seconds", "1",
         "--trace", "0", "--out", str(out)]
    )
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
    block = json.loads(out.read_text())["workloads"]["point_query"]
    assert block["failures"] and "rows differ" in block["failures"][0]
