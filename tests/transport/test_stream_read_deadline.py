"""The transport timeout must bound the whole response, not just connects.

Regression for the dropped-mid-stream gap: a server that vanished (or
stalled, or trickled bytes) in the middle of a chunked streamed
response used to leave the client parser blocked on a read whose
socket timeout restarted with every byte — a slow trickle never timed
out at all.  ``HttpTransport`` now reads each response — status line,
headers and body alike — under one *total* deadline equal to the
configured transport timeout, so a server that dribbles its headers is
cut off as promptly as one that dribbles its body.
"""

import time

import pytest

from repro.core import TransportFault
from repro.dair import messages as msg
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import HttpTransport

from tests.transport.stubserver import ScriptedServer, close, hold, send, trickle

REQUEST = Envelope(
    headers=MessageHeaders(to="http://127.0.0.1/stub", action="urn:stub"),
    payload=msg.SQLExecuteRequest(
        abstract_name="urn:dais:stub", expression="SELECT 1"
    ).to_xml(),
)
BODY = REQUEST.to_bytes()

CHUNK_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/xml; charset=utf-8\r\n"
    b"Transfer-Encoding: chunked\r\n"
    b"\r\n"
)


def _send(server: ScriptedServer, timeout: float) -> Envelope:
    transport = HttpTransport(timeout=timeout)
    try:
        return transport.send(server.url, REQUEST)
    finally:
        transport.close()


class TestInStreamReadDeadline:
    def test_stall_mid_chunked_stream_times_out(self):
        # First chunk arrives, then the server goes silent with the
        # socket held open — the classic injected-drop symptom.
        first = BODY[: len(BODY) // 2]
        script = [
            send(CHUNK_HEAD + b"%x\r\n%s\r\n" % (len(first), first)),
            hold(30.0),
        ]
        started = time.monotonic()
        with ScriptedServer(script) as stub:
            with pytest.raises(TransportFault, match="timed out"):
                _send(stub, timeout=0.5)
        assert time.monotonic() - started < 5.0

    def test_trickled_body_hits_total_deadline(self):
        # One byte per 150 ms keeps every per-recv timeout happy
        # forever; only a total deadline can end this exchange.
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/xml; charset=utf-8\r\n"
            b"Content-Length: 4096\r\n"
            b"\r\n"
        )
        script = [send(head), trickle(b"x" * 4096, 0.15)]
        started = time.monotonic()
        with ScriptedServer(script) as stub:
            with pytest.raises(TransportFault, match="timed out"):
                _send(stub, timeout=0.8)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"deadline did not bound the trickle ({elapsed:.1f}s)"

    def test_trickled_headers_hit_total_deadline(self):
        # The status line and headers themselves arrive one byte per
        # 100 ms: the deadline covers the response from its first byte,
        # not from the end of the headers.
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/xml; charset=utf-8\r\n"
            b"Content-Length: %d\r\n"
            b"\r\n" % len(BODY)
        )
        started = time.monotonic()
        with ScriptedServer([trickle(head + BODY, 0.1)]) as stub:
            with pytest.raises(TransportFault, match="timed out"):
                _send(stub, timeout=0.5)
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"deadline did not bound the headers ({elapsed:.1f}s)"

    def test_drop_mid_chunk_fails_fast(self):
        # The connection dies inside a chunk: surfaced as a typed
        # transport fault immediately, not after the timeout.
        first = BODY[: len(BODY) // 2]
        script = [
            send(CHUNK_HEAD + b"%x\r\n%s" % (len(BODY), first)),
            close(),
        ]
        started = time.monotonic()
        with ScriptedServer(script) as stub:
            with pytest.raises(TransportFault):
                _send(stub, timeout=2.0)
        assert time.monotonic() - started < 4.0

    def test_intact_stream_inside_deadline_still_works(self):
        half = len(BODY) // 2
        wire = (
            CHUNK_HEAD
            + b"%x\r\n%s\r\n" % (half, BODY[:half])
            + b"%x\r\n%s\r\n" % (len(BODY) - half, BODY[half:])
            + b"0\r\n\r\n"
        )
        with ScriptedServer([send(wire)]) as stub:
            response = _send(stub, timeout=2.0)
        assert response.to_bytes() == BODY
