"""``python -m repro`` self-check must keep working."""

import runpy


def test_module_self_check(capsys):
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exit_info:
        assert exit_info.code in (0, None)
    output = capsys.readouterr().out
    assert "dais-py" in output
    assert "self-check" in output
    assert "ok —" in output


def test_trace_renders_an_exported_span_file(tmp_path, capsys):
    from repro.__main__ import main
    from repro.obs import FileExporter, get_tracer, use_exporter

    path = tmp_path / "spans.jsonl"
    with FileExporter(path) as exporter, use_exporter(exporter):
        with get_tracer().span("consumer.request"):
            with get_tracer().span("sql.select", rows_out=3):
                pass
    assert main(["trace", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("consumer.request")
    assert lines[1].startswith("  sql.select") and "rows_out=3" in lines[1]
