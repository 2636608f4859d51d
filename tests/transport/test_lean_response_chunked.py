"""Chunked-encoding decode edge cases in the client response path.

The client reads replies with the codec the server speaks
(``repro.transport.http11.ResponseParser``), which de-frames chunked
bodies itself; these tests pin the contract at the framing boundaries:
chunk extension tokens are tolerated, a zero-length chunk terminates
the body even when the server (wrongly) keeps sending, and a missing
terminal CRLF surfaces as a typed ``TransportFault`` — never a hang.
"""

import time

import pytest

from repro.core import TransportFault
from repro.dair import messages as msg
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import HttpTransport

from tests.transport.stubserver import ScriptedServer, close, send

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


def _chunked(*parts: bytes, terminal: bool = True) -> bytes:
    wire = bytearray(CHUNK_HEAD)
    for part in parts:
        wire += b"%x\r\n%s\r\n" % (len(part), part)
    if terminal:
        wire += b"0\r\n\r\n"
    return bytes(wire)


def _exchange(server: ScriptedServer, timeout: float = 2.0) -> Envelope:
    transport = HttpTransport(timeout=timeout)
    try:
        return transport.send(server.url, REQUEST)
    finally:
        transport.close()


class TestChunkedDecodeEdges:
    def test_baseline_chunked_body_round_trips(self):
        half = len(BODY) // 2
        with ScriptedServer([send(_chunked(BODY[:half], BODY[half:]))]) as stub:
            response = _exchange(stub)
        assert response.to_bytes() == BODY

    def test_chunk_extension_tokens_are_tolerated(self):
        # RFC 9112 §7.1.1: chunk-size may carry ;name=value extensions;
        # the decoder must skip them, not mis-parse the size.
        half = len(BODY) // 2
        wire = bytearray(CHUNK_HEAD)
        wire += b"%x;ext=tok;bare\r\n%s\r\n" % (half, BODY[:half])
        wire += b"%x ; spaced=1\r\n%s\r\n" % (len(BODY) - half, BODY[half:])
        wire += b"0\r\n\r\n"
        with ScriptedServer([send(bytes(wire))]) as stub:
            response = _exchange(stub)
        assert response.to_bytes() == BODY

    def test_zero_length_chunk_mid_stream_terminates_body(self):
        # A zero-size chunk IS the terminator: anything the server sends
        # after it is not part of this body.  The truncated envelope
        # must fail fast as a typed fault, not hang waiting for "more".
        half = len(BODY) // 2
        wire = bytearray(CHUNK_HEAD)
        wire += b"%x\r\n%s\r\n" % (half, BODY[:half])
        wire += b"0\r\n\r\n"
        # a server bug keeps talking — the client must ignore it
        wire += b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY) - half, BODY[half:])
        started = time.monotonic()
        with ScriptedServer([send(bytes(wire))]) as stub:
            with pytest.raises(TransportFault, match="unparseable response"):
                _exchange(stub)
        assert time.monotonic() - started < 4.0

    def test_missing_terminal_crlf_is_transport_fault_not_hang(self):
        # Final chunk data arrives but the trailing CRLF + terminal
        # chunk never do; the server closes.  IncompleteRead must map
        # to TransportFault within the timeout, never block forever.
        wire = CHUNK_HEAD + b"%x\r\n%s" % (len(BODY), BODY)
        started = time.monotonic()
        with ScriptedServer([send(wire), close()]) as stub:
            with pytest.raises(TransportFault):
                _exchange(stub)
        assert time.monotonic() - started < 4.0

    def test_garbage_chunk_size_is_transport_fault(self):
        wire = CHUNK_HEAD + b"zz\r\n" + BODY
        with ScriptedServer([send(wire), close()]) as stub:
            with pytest.raises(TransportFault):
                _exchange(stub)
