"""The metric tables: name, unit, direction (and bound, end to end).

``BENCHMARK.json`` at the repository root carries the same tables for
the driver; ``bench/tests`` checks the two agree.
"""

from __future__ import annotations

#: (name, unit, better, bound).  ``failed_share`` is not in the table
#: because its expected value is 0 and a relative bound on 0 means
#: nothing: failures are the ``attempted``/``failed`` counts of every
#: result, and any failed op fails the run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("throughput_ops_s", "ops/s", "higher", 0.15),
    ("wire_bytes_per_op", "bytes", "lower", 0.02),
    ("server_cpu_ms_per_op", "ms", "lower", 0.15),
    ("server_peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better).  Source in the comment: traced = the layer
#: walk, gen = recorded by the generator during the untraced windows,
#: scrape = delta of the server's /metrics over those windows.
PER_LAYER = (
    ("client.encode_ms", "ms", "lower"),  # traced
    ("client.decode_ms", "ms", "lower"),  # traced
    ("client.latency_tail_ms", "ms", "lower"),  # gen
    ("client.latency_tail_pct", "pct", "higher"),  # gen
    ("client.samples", "count", "higher"),  # gen
    ("client.op.propdoc_ms", "ms", "lower"),  # gen
    ("client.op.factory_ms", "ms", "lower"),  # gen
    ("client.op.rowset_factory_ms", "ms", "lower"),  # gen
    ("client.op.get_tuples_ms", "ms", "lower"),  # gen
    ("client.op.insert_ms", "ms", "lower"),  # gen
    ("client.op.ddl_ms", "ms", "lower"),  # gen
    ("client.op.destroy_ms", "ms", "lower"),  # gen
    ("client.connections_opened", "count", "lower"),  # gen
    ("transport.http_parse_ms", "ms", "lower"),  # traced
    ("transport.gzip_ms", "ms", "lower"),  # traced
    ("transport.gunzip_ms", "ms", "lower"),  # traced
    ("transport.gzip_ratio", "ratio", "higher"),  # traced
    ("transport.queue_wait_ms", "ms", "lower"),  # scrape
    ("transport.queue_depth_max", "count", "lower"),  # scrape
    ("transport.shed_count", "count", "lower"),  # scrape
    ("transport.chunks_per_op", "count", "lower"),  # scrape
    ("transport.connections_accepted", "count", "lower"),  # scrape
    ("transport.residual_ms", "ms", "lower"),  # untraced p50 - walk sum
    ("soap.parse_ms", "ms", "lower"),  # traced
    ("soap.serialize_ms", "ms", "lower"),  # traced
    ("xmlutil.parse_ms", "ms", "lower"),  # traced
    ("xmlutil.parse_mb_s", "MB/s", "higher"),  # traced
    ("xmlutil.serialize_ms", "ms", "lower"),  # traced
    ("core.dispatch_ms", "ms", "lower"),  # traced
    ("core.dispatch_count", "count", "lower"),  # scrape
    ("core.propdoc_render_ms", "ms", "lower"),  # traced
    ("core.propdoc_hit_ratio", "ratio", "higher"),  # scrape
    ("core.propdoc_invalidations", "count", "lower"),  # scrape
    ("dair.emit_ms", "ms", "lower"),  # traced
    ("dair.rowset_parse_ms", "ms", "lower"),  # traced
    ("dair.rows_per_op", "count", "lower"),  # traced
    ("dair.result_hit_ratio", "ratio", "higher"),  # scrape
    ("dair.result_invalidations", "count", "lower"),  # scrape
    ("relational.execute_ms", "ms", "lower"),  # traced
    ("relational.execute_cold_ms", "ms", "lower"),  # traced
    ("relational.plan_hit_ratio", "ratio", "higher"),  # scrape
    ("relational.plan_invalidations", "count", "lower"),  # scrape
    ("daix.dispatch_ms", "ms", "lower"),  # traced
    ("xmldb.query_ms", "ms", "lower"),  # traced
    ("wsrf.destroy_ms", "ms", "lower"),  # traced
    ("trace.walk_sum_ms", "ms", "lower"),  # traced
    ("trace.unattributed_share", "ratio", "lower"),  # residual / p50
    ("trace.overhead_share", "ratio", "lower"),  # traced
    ("trace.spans", "count", "lower"),  # traced
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
