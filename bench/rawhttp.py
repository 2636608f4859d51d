"""A small raw-socket HTTP/1.1 client: the benchmark's own reader.

Used where the ``client`` layer must stay out of the picture — the
``saturate_point`` workload (pre-rendered request bytes on keep-alive
sockets), the ``/metrics`` scrapes and the end-of-run port check.  It
counts body bytes as they cross the socket (post-gzip, chunk framing
excluded), the same accounting as the program's ``http.bytes.*``.
"""

from __future__ import annotations

import socket
import zlib

_RECV = 65536


class WireError(Exception):
    """The peer broke HTTP framing, or the socket died."""


def render_post(path: str, host: str, body: bytes, action: str) -> bytes:
    """One keep-alive SOAP POST as exact wire bytes, with the headers
    the program's own HTTP transport sends."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Accept-Encoding: gzip\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Content-Type: text/xml; charset=utf-8\r\n"
        f"SOAPAction: {action}\r\n"
        "\r\n"
    ).encode("iso-8859-1")
    return head + body


class RawConnection:
    """One buffered keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "RawConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fill(self) -> None:
        piece = self.sock.recv(_RECV)
        if not piece:
            raise WireError("connection closed mid-response")
        self._buffer.extend(piece)

    def _line(self) -> bytes:
        while True:
            index = self._buffer.find(b"\r\n")
            if index >= 0:
                line = bytes(self._buffer[:index])
                del self._buffer[: index + 2]
                return line
            self._fill()

    def _exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            self._fill()
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        return data

    def exchange(self, request: bytes) -> tuple[int, bytes, int]:
        """Send *request*, read one response → ``(status, decoded
        body, body bytes as they crossed the socket)``."""
        self.sock.sendall(request)
        parts = self._line().split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise WireError(f"bad status line {parts!r}")
        status = int(parts[1])
        headers: dict[bytes, bytes] = {}
        while True:
            line = self._line()
            if not line:
                break
            key, _, value = line.partition(b":")
            headers[key.strip().lower()] = value.strip().lower()
        if headers.get(b"transfer-encoding") == b"chunked":
            pieces = []
            while True:
                token = self._line().split(b";", 1)[0].strip()
                try:
                    size = int(token, 16)
                except ValueError as err:
                    raise WireError(f"bad chunk size {token!r}") from err
                if size == 0:
                    while self._line():  # trailers
                        pass
                    break
                pieces.append(self._exact(size))
                if self._exact(2) != b"\r\n":
                    raise WireError("missing chunk CRLF")
            body = b"".join(pieces)
        else:
            body = self._exact(int(headers.get(b"content-length", b"0")))
        wire_bytes = len(body)
        if headers.get(b"content-encoding") == b"gzip":
            try:
                body = zlib.decompress(body, 16 + zlib.MAX_WBITS)
            except zlib.error as err:
                raise WireError(f"undecodable gzip body: {err}") from err
        return status, body, wire_bytes

    def get(self, path: str) -> tuple[int, bytes]:
        request = (
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        ).encode("ascii")
        status, body, _ = self.exchange(request)
        return status, body


def port_is_free(port: int) -> bool:
    """True when nothing accepts on 127.0.0.1:*port* any more."""
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
    except OSError:
        return True
    return False
