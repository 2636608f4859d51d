"""Negotiated gzip for the SOAP-over-HTTP wire.

Figure 4 prices property documents at 10–92 KB per fetch and the rowset
datasets are larger still — highly repetitive XML that deflates 5–20x.
The client advertises ``Accept-Encoding: gzip``; the server's one reply
writer compresses replies above :data:`GZIP_FLOOR_BYTES` (tiny bodies
would pay the gzip header for nothing) as a stream, and then frames the
*compressed* bytes by what it wrote — ``Content-Length`` when they fit
one write buffer, ``Transfer-Encoding: chunked`` when they outgrow it.
Content-Encoding is a *payload* property — keep-alive connection reuse
and the client's chunked decoder work unchanged; the transport
decompresses after the body is fully drained.

All compression goes through raw :mod:`zlib` with gzip wrapping
(``wbits=31``) rather than the :mod:`gzip` module: zlib writes a fixed
zero MTIME into the member header, so identical payloads compress to
identical wire bytes — which keeps golden wire snapshots and the
byte-identity gates deterministic.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Iterator, Mapping

from repro.transport.http11 import MAX_BODY_BYTES

__all__ = [
    "GZIP_FLOOR_BYTES",
    "accepts_gzip",
    "gzip_compress",
    "gunzip",
    "gzip_stream",
]

#: Responses smaller than this are sent uncompressed even when the
#: client accepts gzip — below it, the ~20-byte member overhead and the
#: deflate call cost more than the bytes they save.
GZIP_FLOOR_BYTES = 512

#: gzip member wrapping for zlib (16 + MAX_WBITS).
_GZIP_WBITS = 16 + zlib.MAX_WBITS
#: Auto-detecting unwrap (32 + MAX_WBITS accepts gzip or zlib framing).
_ANY_WBITS = 32 + zlib.MAX_WBITS


def accepts_gzip(headers: Mapping[str, str]) -> bool:
    """Whether a parsed request's (lowercase-keyed) headers negotiate
    gzip — i.e. ``Accept-Encoding`` lists it with a non-zero q-value."""
    accept = headers.get("accept-encoding", "")
    for part in accept.split(","):
        token, _, params = part.partition(";")
        if token.strip().lower() not in ("gzip", "*"):
            continue
        params = params.strip().lower()
        if params.startswith("q="):
            try:
                return float(params[2:]) > 0.0
            except ValueError:
                return False
        return True
    return False


def gzip_compress(payload: bytes, level: int = 6) -> bytes:
    """One-shot gzip (deterministic: no timestamp in the header)."""
    compressor = zlib.compressobj(level, zlib.DEFLATED, _GZIP_WBITS)
    return compressor.compress(payload) + compressor.flush()


def gunzip(payload: bytes) -> bytes:
    """Inverse of :func:`gzip_compress` (also accepts zlib framing).

    The decoded body is bounded like a plain one (:data:`MAX_BODY_BYTES`):
    decoding stops one byte past the bound, so a gzip bomb costs no more
    memory than a legal reply, and raises :class:`ValueError` naming the
    bound.  A truncated member raises :class:`zlib.error`.
    """
    decompressor = zlib.decompressobj(_ANY_WBITS)
    data = decompressor.decompress(payload, MAX_BODY_BYTES + 1)
    if len(data) > MAX_BODY_BYTES:
        raise ValueError(
            f"gzip body decodes past the {MAX_BODY_BYTES}-byte limit"
        )
    if not decompressor.eof:
        raise zlib.error("incomplete or truncated stream")
    return data


def gzip_stream(
    fragments: Iterable[bytes], level: int = 6
) -> Iterator[bytes]:
    """Compress an iterable of body fragments incrementally.

    Yields compressed pieces as the deflater emits them (possibly
    skipping fragments that stay buffered inside the compressor) and
    flushes the final member on exhaustion — memory stays bounded by
    the compressor window regardless of stream length.
    """
    compressor = zlib.compressobj(level, zlib.DEFLATED, _GZIP_WBITS)
    for fragment in fragments:
        piece = compressor.compress(fragment)
        if piece:
            yield piece
    tail = compressor.flush()
    if tail:
        yield tail
