"""Every shipped example must run to completion.

Examples are executed in-process via runpy with stdout captured, so a
broken public API surfaces here rather than in a user's first session.
"""

import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, monkeypatch, capsys):
    assert EXAMPLES, "no examples found"
    # Examples guard execution with __name__ == "__main__".
    runpy.run_path(str(script), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script.name} produced no output"


def test_expected_example_set_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "relational_pipeline",
        "xml_collection",
        "wsrf_profiles",
        "http_deployment",
        "compose_delivery",
        "federation",
        "durable_jobs",
        "traced_factory",
    } <= names
