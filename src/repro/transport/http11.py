"""The one HTTP/1.1 codec: both ends of the SOAP exchange speak it.

The selector front end (:mod:`repro.transport.eventloop`) reads bytes
off non-blocking sockets as they arrive; :class:`RequestParser` turns
that byte dribble into complete requests *incrementally* — it never
blocks, never over-reads, and keeps per-connection state so a request
may arrive one byte at a time (the slow-loris case) without costing
anything but its buffer.  The client (:mod:`repro.transport.pool`)
reads its replies with the mirror image, :class:`ResponseParser`.  Both
run one state machine: a start line, a header section, then a body
framed by ``Content-Length``, by chunks or by the close of the
connection.  The rendering half builds wire-correct messages: requests
and ``Content-Length`` responses in one piece, chunk framing for
streamed bodies.

The codec is deliberately narrower than a general HTTP stack — the DAIS
exchange profile needs POSTed SOAP envelopes framed by Content-Length,
a few read-only GETs, keep-alive, and replies that are materialized or
streamed in chunks — but every limit violation and malformed input
becomes a typed :class:`HttpParseError`, never a hang.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "HttpParseError",
    "ParsedRequest",
    "ParsedResponse",
    "RequestParser",
    "ResponseParser",
    "REASONS",
    "render_headers",
    "render_request",
    "render_response",
    "chunk",
    "TERMINAL_CHUNK",
]

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}

#: The zero-size chunk that terminates a chunked body.
TERMINAL_CHUNK = b"0\r\n\r\n"

_HEX = re.compile(rb"[0-9A-Fa-f]+")


class HttpParseError(ValueError):
    """A message that cannot be parsed (or violates a codec limit).

    ``status`` is the HTTP status a server answers a bad request with
    before closing the connection; a client just closes it.  Parse state
    is unrecoverable afterwards.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ParsedRequest:
    """One complete request as the event loop hands it to a worker."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes
    #: HTTP/1.1 semantics: persist unless the client said close (or
    #: spoke 1.0 without asking for keep-alive).
    keep_alive: bool


@dataclass
class ParsedResponse:
    """One complete response, its body de-framed (not decoded)."""

    status: int
    headers: dict[str, str]
    body: bytes
    #: A request's rule, and False for a body the close delimited.
    keep_alive: bool


def _keep_alive(version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        return "close" not in connection
    return "keep-alive" in connection


class _MessageParser:
    """The state machine both directions share.  A subclass reads the
    start line (``_start``), picks the body framing once the headers
    are in (``_frame``) and takes the finished message (``_finish``)."""

    _LINE, _HEADERS, _LENGTH, _CHUNK_SIZE, _CHUNK_DATA, _TRAILERS, _EOF, _DONE = (
        range(8)
    )

    def __init__(
        self,
        max_line_bytes: int = 16384,
        max_header_bytes: int = 65536,
        max_body_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        self.max_line_bytes = max_line_bytes
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._buffer = bytearray()
        self._state = self._LINE
        self._version = ""
        self._headers: dict[str, str] = {}
        self._header_bytes = 0
        #: Bytes still due in the Content-Length body or current chunk.
        self._remaining = 0
        self._body = bytearray()

    def feed(self, data: bytes) -> None:
        """Buffer *data* and advance the state machine as far as the
        bytes allow.  Raises :class:`HttpParseError` on malformed input;
        the connection must be closed afterwards."""
        self._buffer.extend(data)
        buffer = self._buffer
        while True:
            state = self._state
            if state == self._CHUNK_DATA:
                end = self._remaining + 2
                if len(buffer) < end:
                    return
                if buffer[end - 2 : end] != b"\r\n":
                    raise HttpParseError("chunk data not followed by CRLF")
                self._body += buffer[: end - 2]
                del buffer[:end]
                self._state = self._CHUNK_SIZE
            elif state == self._LENGTH:
                if len(buffer) < self._remaining:
                    return
                self._body = buffer[: self._remaining]
                del buffer[: self._remaining]
                self._finish()
            elif state == self._EOF:
                if len(self._body) + len(buffer) > self.max_body_bytes:
                    raise HttpParseError("body too large", 413)
                self._body += buffer
                buffer.clear()
                return
            elif state == self._DONE:
                return
            else:
                line = self._take_line(state)
                if line is None:
                    return
                if state == self._CHUNK_SIZE:
                    self._chunk_size(line)
                elif state == self._LINE:
                    # RFC 9112 §2.2: blank lines before a message are
                    # ignored.
                    if line:
                        self._start(line.decode("iso-8859-1"))
                        self._headers = {}
                        self._header_bytes = 0
                        self._state = self._HEADERS
                elif state == self._HEADERS:
                    if line:
                        self._header(line)
                    else:
                        self._frame()
                elif not line:  # trailers are drained up to the blank line
                    self._finish()

    def _take_line(self, state: int) -> bytes | None:
        """The next line without its terminator, or None while none is
        complete.  Header and trailer lines count against
        :attr:`max_header_bytes`."""
        index = self._buffer.find(b"\n")
        if index == -1 and len(self._buffer) <= self.max_line_bytes:
            return None
        if index == -1 or index > self.max_line_bytes:
            raise HttpParseError("line too long", 431)
        line = bytes(self._buffer[:index]).rstrip(b"\r")
        del self._buffer[: index + 1]
        if state == self._HEADERS or state == self._TRAILERS:
            self._header_bytes += len(line) + 2
            if self._header_bytes > self.max_header_bytes:
                raise HttpParseError("header section too large", 431)
        return line

    def _header(self, line: bytes) -> None:
        key, sep, value = line.partition(b":")
        if not sep:
            raise HttpParseError(f"malformed header line {line!r}")
        self._headers[key.strip().decode("iso-8859-1").lower()] = (
            value.strip().decode("iso-8859-1")
        )

    def _set_version(self, version: str) -> None:
        if not version.startswith("HTTP/"):
            raise HttpParseError(f"malformed HTTP version {version!r}")
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise HttpParseError(f"unsupported version {version!r}", 505)
        self._version = version

    def _chunk_size(self, line: bytes) -> None:
        token = line.split(b";", 1)[0].strip()  # chunk extensions skipped
        if not _HEX.fullmatch(token):
            raise HttpParseError(f"bad chunk size {token!r}")
        self._remaining = int(token, 16)
        if len(self._body) + self._remaining > self.max_body_bytes:
            raise HttpParseError("chunked body too large", 413)
        self._state = self._CHUNK_DATA if self._remaining else self._TRAILERS

    def _content_length(self) -> int | None:
        raw = self._headers.get("content-length")
        if raw is None:
            return None
        if not (raw.isascii() and raw.isdigit()):
            raise HttpParseError(f"bad Content-Length {raw!r}")
        try:
            length = int(raw)
        except ValueError:  # past int()'s digit limit, so past any body limit
            length = self.max_body_bytes + 1
        if length > self.max_body_bytes:
            raise HttpParseError(f"body of {len(raw)}-digit length too large", 413)
        return length

    def _chunked(self) -> bool:
        return "chunked" in self._headers.get("transfer-encoding", "").lower()

    def _take_body(self) -> bytes:
        body, self._body = bytes(self._body), bytearray()
        return body


class RequestParser(_MessageParser):
    """Incremental HTTP/1.1 request parser for one connection.

    Feed raw bytes with :meth:`feed`; pull complete requests with
    :meth:`next_request` (pipelined bytes simply stay buffered until
    asked for).  :attr:`receiving` is True while a request is partially
    buffered — the event loop uses it to arm the read deadline that
    reaps slow-loris senders.
    """

    def __init__(self, **limits: int) -> None:
        super().__init__(**limits)
        self._method = ""
        self._target = ""
        self._ready: list[ParsedRequest] = []

    @property
    def receiving(self) -> bool:
        """True while a request is partially buffered (line, headers or
        an incomplete body) — the slow-loris window."""
        return self._state != self._LINE or bool(self._buffer)

    def next_request(self) -> ParsedRequest | None:
        """The next complete request, or None when more bytes are needed."""
        if self._ready:
            return self._ready.pop(0)
        return None

    def _start(self, line: str) -> None:
        parts = line.split()
        if len(parts) != 3:
            raise HttpParseError(f"malformed request line {line!r}")
        self._method, self._target, version = parts
        self._set_version(version)

    def _frame(self) -> None:
        length = self._content_length()
        if length is None and self._chunked():
            # The exchange profile never sends chunked *requests*;
            # refuse rather than silently mis-frame.
            raise HttpParseError("chunked request bodies unsupported", 411)
        self._remaining = length or 0
        self._state = self._LENGTH

    def _finish(self) -> None:
        self._ready.append(
            ParsedRequest(
                method=self._method,
                target=self._target,
                version=self._version,
                headers=self._headers,
                body=self._take_body(),
                keep_alive=_keep_alive(self._version, self._headers),
            )
        )
        self._state = self._LINE


class ResponseParser(_MessageParser):
    """Incremental HTTP/1.1 parser for one response.

    Feed raw bytes with :meth:`feed`; :attr:`response` is set once they
    hold a complete response.  The close of the connection is input
    too: :meth:`feed_eof` ends a body no framing header delimits, and
    is an error anywhere else.  The parser stops at the end of the
    response — a client sends one request at a time, so bytes past the
    reply were never asked for; they stay buffered, counted by
    :attr:`buffered`.
    """

    def __init__(self, **limits: int) -> None:
        super().__init__(**limits)
        self._status = 0
        #: The complete response, once the bytes fed so far hold one.
        self.response: ParsedResponse | None = None

    @property
    def buffered(self) -> int:
        """Bytes received that no response has consumed."""
        return len(self._buffer)

    def feed_eof(self) -> None:
        """The peer closed the connection."""
        if self._state == self._EOF:
            self._finish()
        elif self._state != self._DONE:
            raise HttpParseError("connection closed before the response was complete")

    def _start(self, line: str) -> None:
        version, _, rest = line.partition(" ")
        code = rest[:3]
        if not (code.isascii() and code.isdigit() and rest[3:4] in ("", " ")):
            raise HttpParseError(f"malformed status line {line!r}")
        self._set_version(version)
        self._status = int(code)

    def _frame(self) -> None:
        # RFC 9112 §6.3: Transfer-Encoding wins over Content-Length; with
        # neither, the close of the connection ends the body.
        length = self._content_length()
        if self._chunked():
            self._state = self._CHUNK_SIZE
        else:
            self._remaining = length or 0
            self._state = self._EOF if length is None else self._LENGTH

    def _finish(self) -> None:
        self.response = ParsedResponse(
            status=self._status,
            headers=self._headers,
            body=self._take_body(),
            keep_alive=self._state != self._EOF
            and _keep_alive(self._version, self._headers),
        )
        self._state = self._DONE


# -- rendering -----------------------------------------------------------------


def _head(start_line: str, headers: list[tuple[str, str]]) -> bytes:
    lines = [start_line, "\r\n"]
    for key, value in headers:
        lines.append(f"{key}: {value}\r\n")
    lines.append("\r\n")
    return "".join(lines).encode("iso-8859-1")


def render_headers(status: int, headers: list[tuple[str, str]]) -> bytes:
    """The status line plus *headers*, terminated by the blank line."""
    return _head(f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}", headers)


def render_request(
    method: str, target: str, headers: list[tuple[str, str]], body: bytes = b""
) -> bytes:
    """A complete request as one byte string: *headers*, then the
    ``Content-Length`` that frames *body*."""
    length = ("Content-Length", str(len(body)))
    return _head(f"{method} {target} HTTP/1.1", [*headers, length]) + body


def render_response(
    status: int,
    content_type: str,
    body: bytes,
    keep_alive: bool = True,
    extra_headers: list[tuple[str, str]] | None = None,
) -> bytes:
    """A complete Content-Length-framed response as one byte string.

    *extra_headers* (e.g. ``Content-Encoding: gzip``) are emitted after
    Content-Type/Content-Length; *body* must already be in its encoded
    form — Content-Length frames the bytes actually sent.
    """
    headers = [
        ("Content-Type", content_type),
        ("Content-Length", str(len(body))),
    ]
    if extra_headers:
        headers.extend(extra_headers)
    if not keep_alive:
        headers.append(("Connection", "close"))
    return render_headers(status, headers) + body


def chunk(payload: bytes) -> bytes:
    """One chunk of a ``Transfer-Encoding: chunked`` body."""
    return b"%x\r\n%s\r\n" % (len(payload), payload)
