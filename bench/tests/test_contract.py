"""The names and counts the driver's contract limits, and the
agreement of ``BENCHMARK.json`` with the tables the code reports from."""

import json
import re
from pathlib import Path

from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS, op_sequence_hash

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_counts_fit_the_contract():
    names = (
        list(WORKLOADS)
        + [name for name, *_ in END_TO_END]
        + [name for name, *_ in PER_LAYER]
    )
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    units = [unit for _, unit, *_ in END_TO_END + PER_LAYER]
    assert all(UNIT.fullmatch(unit) for unit in units)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert all(0 < bound <= 0.25 for *_, bound in END_TO_END)
    assert ("setup_s", "s", "lower") in [entry[:3] for entry in END_TO_END]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_benchmark_json_matches_the_tables():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert contract["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == list(
        PER_LAYER
    )
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60


def test_op_sequence_repeats_per_seed_and_differs_across_seeds():
    seeded = [w for w in WORKLOADS.values() if w.name not in ("bulk_rowset", "propdoc_read")]
    assert len(seeded) == 5
    for workload in seeded:
        assert op_sequence_hash(workload, 7) == op_sequence_hash(workload, 7)
        assert op_sequence_hash(workload, 7) != op_sequence_hash(workload, 8)
    # The two constant-request workloads differ by seed in their data only.
    for name in ("bulk_rowset", "propdoc_read"):
        assert op_sequence_hash(WORKLOADS[name], 7) == op_sequence_hash(WORKLOADS[name], 8)
