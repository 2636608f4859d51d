"""Spawning, observing and stopping the server subprocess.

Everything the generator learns about the server process comes from
outside it: the ``LISTENING`` line, ``/proc/<pid>/stat`` (CPU ticks),
``/proc/<pid>/status`` (``VmHWM``) and ``GET /metrics``.  A server that
dies, exits non-zero or leaves its port held is a loud failure.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench.ports import Target
from bench.rawhttp import RawConnection, port_is_free

ROOT = Path(__file__).resolve().parent.parent
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 10.0


class ServerFailure(RuntimeError):
    """The server subprocess did not start, died, or did not let go."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class ServerProcess:
    """One ``bench.serve`` subprocess."""

    def __init__(self, workload: str, seed: int) -> None:
        self.spawned_at = time.perf_counter()
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "bench.serve",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.pid = self._proc.pid
        self._scrapes = 0
        try:
            self.target = self._await_listening()
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise

    def _await_listening(self) -> Target:
        with selectors.DefaultSelector() as selector:
            selector.register(self._proc.stdout, selectors.EVENT_READ)
            if not selector.select(_START_TIMEOUT):
                raise ServerFailure("server printed nothing before the timeout")
        fields = self._proc.stdout.readline().split()
        if len(fields) != 4 or fields[0] != "LISTENING":
            raise ServerFailure(f"server did not announce itself: {fields!r}")
        return Target(port=int(fields[1]), address=fields[2], name=fields[3])

    # -- observation -------------------------------------------------------------

    def check_alive(self) -> None:
        code = self._proc.poll()
        if code is not None:
            raise ServerFailure(f"server exited mid-run with code {code}")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerFailure("no VmHWM in /proc status")

    def scrape(self) -> "Scrape":
        """One ``GET /metrics`` on a connection of its own, closed at
        once, so the harness holds no connection open on the server
        while a window runs."""
        with RawConnection("127.0.0.1", self.target.port) as conn:
            status, body = conn.get("/metrics")
        if status != 200:
            raise ServerFailure(f"/metrics answered {status}")
        self._scrapes += 1
        return Scrape(body.decode("utf-8"), self._scrapes)

    # -- shutdown ----------------------------------------------------------------

    def stop(self) -> None:
        """SIGTERM, wait, and insist on a clean exit and a free port."""
        died_early = self._proc.poll()
        if died_early is None:
            self._proc.send_signal(signal.SIGTERM)
        try:
            code = self._proc.wait(_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise ServerFailure("server ignored SIGTERM; killed") from None
        finally:
            self._proc.stdout.close()
        if died_early is not None:
            raise ServerFailure(f"server had already exited with code {died_early}")
        if code != 0:
            raise ServerFailure(f"server exited with code {code}")
        if not port_is_free(self.target.port):
            raise ServerFailure(f"port {self.target.port} still held after exit")


class Scrape:
    """One parsed Prometheus text exposition."""

    def __init__(self, text: str, ordinal: int = 0) -> None:
        #: How many scrapes (each a connection of its own) the server
        #: had served when this one was rendered, itself included.
        self.ordinal = ordinal
        self.series: list[tuple[str, str, float]] = []
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            head, _, value = line.rpartition(" ")
            name, _, labels = head.partition("{")
            self.series.append((name, labels, float(value)))

    def total(self, name: str, label: str = "") -> float:
        """Sum of *name* over every label set containing *label*."""
        return sum(
            value
            for series, labels, value in self.series
            if series == name and label in labels
        )
