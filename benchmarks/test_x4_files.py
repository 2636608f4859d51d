"""Experiment X4 — the files realisation behaves like the others.

Paper conclusions: realisations for "object databases, ontologies and
files" were being explored.  dais-py ships the files realisation; this
benchmark confirms it follows the established WS-DAI patterns: the
selection factory answers with a constant-size EPR, and byte-range
``GetFile`` reads trade calls for transfer like ``GetTuples`` does.
"""

from benchmarks.harness import Table
from repro.client.files import FilesClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.daif import FileCollectionResource, FileRealisationService
from repro.filestore import FileStore
from repro.transport import LoopbackTransport


def _setup(file_count: int, file_size: int):
    store = FileStore()
    store.make_directory("data")
    for index in range(file_count):
        store.write(f"data/f{index:04d}.bin", bytes([index % 251]) * file_size)
    registry = ServiceRegistry()
    service = FileRealisationService("files", "dais://files")
    registry.register(service)
    resource = FileCollectionResource(
        mint_abstract_name("data"), store, base_path="data"
    )
    service.add_resource(resource)
    return FilesClient(LoopbackTransport(registry)), resource


def test_x4_selection_factory_constant_epr(benchmark):
    table = Table(
        "X4 — FileSelectionFactory vs selection size",
        ["matched files", "factory response bytes"],
    )

    def run_sweep():
        for count in (5, 50, 500):
            client, resource = _setup(count, file_size=64)
            stats = client.transport.stats
            stats.reset()
            client.file_selection_factory(
                "dais://files", resource.abstract_name, "*.bin"
            )
            table.add(count, stats.calls[-1].response_bytes)

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    sizes = [row[1] for row in table.rows]
    assert max(sizes) - min(sizes) < 100


def test_x4_byte_range_paging(benchmark):
    table = Table(
        "X4 — GetFile whole vs ranged reads (256 KiB file)",
        ["chunk bytes", "calls", "wire bytes"],
        note="base64 framing costs ~33% — visible in wire bytes",
    )

    def run_sweep():
        client, resource = _setup(1, file_size=256 * 1024)
        for chunk in (256 * 1024, 64 * 1024, 16 * 1024):
            stats = client.transport.stats
            stats.reset()
            offset = 0
            while offset < 256 * 1024:
                client.get_file(
                    "dais://files",
                    resource.abstract_name,
                    "f0000.bin",
                    offset=offset,
                    length=chunk,
                )
                offset += chunk
            table.add(chunk, stats.call_count, stats.total_bytes)

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    calls = [row[1] for row in table.rows]
    assert calls == sorted(calls)


def test_x4_get_file_latency(benchmark):
    client, resource = _setup(1, file_size=64 * 1024)
    benchmark(
        lambda: client.get_file(
            "dais://files", resource.abstract_name, "f0000.bin"
        )
    )


def test_x4_list_files_latency(benchmark):
    client, resource = _setup(200, file_size=16)
    benchmark(
        lambda: client.list_files("dais://files", resource.abstract_name)
    )
