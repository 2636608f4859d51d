import copy
import json

from bench import compare

CONTRACT = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.10},
    ]
}


def _result(latency=2.0, throughput=500.0, wobble=0.0):
    windows = [
        {
            "latency_p50_ms": latency * (1 + wobble * step),
            "throughput_ops_s": throughput,
        }
        for step in (-1, 0, 0, 0, 1)
    ]
    return {
        "workloads": {
            "point_query": {
                "end_to_end": {
                    "latency_p50_ms": latency,
                    "throughput_ops_s": throughput,
                    "failed_share": 0.0,
                },
                "windows": windows,
            }
        }
    }


def _verdicts(a, b):
    rows = compare.compare([a], [b], CONTRACT)
    return {row["metric"]: row["verdict"] for row in rows}


def test_flags_a_15_percent_regression_and_passes_3_percent():
    base = _result()
    assert _verdicts(base, _result(latency=2.0 * 1.15)) == {
        "latency_p50_ms": "worse", "throughput_ops_s": "ok",
    }
    assert _verdicts(base, _result(throughput=500.0 * 0.85))["throughput_ops_s"] == "worse"
    assert set(_verdicts(base, _result(latency=2.0 * 1.03)).values()) == {"ok"}
    # An improvement is never a regression.
    assert set(_verdicts(base, _result(latency=1.0, throughput=900.0)).values()) == {"ok"}


def test_wide_own_spread_is_unresolved_not_unchanged():
    noisy = _result(wobble=0.3)
    assert _verdicts(_result(), noisy)["latency_p50_ms"] == "unresolved"


def test_sets_of_invocations_use_the_median_across_files(tmp_path):
    side_a = [_result(latency=value) for value in (1.9, 2.0, 2.1)]
    side_b = [_result(latency=value) for value in (2.0, 2.05, 9.0)]  # one outlier
    rows = compare.compare(side_a, side_b, CONTRACT)
    latency = next(row for row in rows if row["metric"] == "latency_p50_ms")
    assert latency["a"] == 2.0 and latency["b"] == 2.05


def test_cli_exit_code(tmp_path, capsys):
    contract = tmp_path / "BENCHMARK.json"
    contract.write_text(json.dumps(CONTRACT))
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_result()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_result(latency=2.4)))
    good_dir = tmp_path / "good"
    good_dir.mkdir()
    for index in range(3):
        (good_dir / f"r{index}.json").write_text(json.dumps(copy.deepcopy(_result())))
    base = ["--contract", str(contract)]
    assert compare.main([str(a), str(bad)] + base) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(a), str(good_dir)] + base) == 0
