"""Byte-template envelope rendering must be invisible on the wire.

``Envelope.iter_bytes`` — the one envelope writer; ``to_bytes`` is the
XML declaration followed by its fragments — routes common-shape
envelopes through a precompiled skeleton.  These tests pin the contract
from three directions: the skeleton must be *taken* for the hot shapes
(lazy payloads included), its output must be byte-identical to tree
serialization for every golden corpus envelope and for fuzzed
header/payload combinations, and the shapes it cannot express must fall
back to the tree path rather than render wrongly.  Extension header
blocks (reference parameters, ``obs:TraceContext``, the conditional-read
stamps) ride the skeleton in a slot of their own.
"""

import random
import string

import pytest

from repro.soap.addressing import EndpointReference, MessageHeaders
from repro.soap.envelope import Envelope
from repro.xmlutil import E, QName, StreamedElement, serialize, serialize_bytes

from tests.soap.test_golden_envelopes import GOLDEN_DIR, _build_envelopes

pytestmark = []


DECLARATION = b'<?xml version="1.0" encoding="UTF-8"?>\n'


def _tree_bytes(envelope: Envelope) -> bytes:
    return serialize_bytes(envelope.to_xml())


def _skeleton_bytes(envelope: Envelope) -> bytes | None:
    """What the compiled skeleton alone renders (behind the
    declaration), or None when the envelope's shape does not take it."""
    skeleton = envelope._skeleton()
    if skeleton is None:
        return None
    head, chunks, tail = skeleton
    return DECLARATION + head + "".join(chunks).encode("utf-8") + tail


class TestGoldenCorpus:
    @pytest.mark.parametrize("key", sorted(_build_envelopes()))
    def test_to_bytes_matches_tree_serialization(self, key):
        envelope = _build_envelopes()[key]
        assert envelope.to_bytes() == _tree_bytes(envelope)

    @pytest.mark.parametrize("key", sorted(_build_envelopes()))
    def test_to_bytes_matches_snapshot(self, key):
        envelope = _build_envelopes()[key]
        assert envelope.to_bytes() == (GOLDEN_DIR / f"{key}.xml").read_bytes()

    @pytest.mark.parametrize("key", sorted(_build_envelopes()))
    def test_to_bytes_is_the_declaration_and_iter_bytes(self, key):
        envelope = _build_envelopes()[key]
        assert envelope.to_bytes() == DECLARATION + b"".join(envelope.iter_bytes())


class TestTemplatePathTaken:
    def test_common_shape_uses_template(self):
        envelope = Envelope(
            headers=MessageHeaders(to="http://h/s", action="urn:a"),
            payload=E(QName("urn:x", "Req"), "body"),
        )
        fast = _skeleton_bytes(envelope)
        assert fast is not None
        assert fast == _tree_bytes(envelope)

    def test_relates_to_shape_uses_template(self):
        envelope = Envelope(
            headers=MessageHeaders(
                to="http://h/s", action="urn:a", relates_to="urn:msg:1"
            ),
            payload=E(QName("urn:x", "Resp"), "body"),
        )
        fast = _skeleton_bytes(envelope)
        assert fast is not None
        assert fast == _tree_bytes(envelope)


    def test_reference_parameters_use_template(self):
        envelope = Envelope(
            headers=MessageHeaders(
                to="http://h/s",
                action="urn:a",
                reference_parameters=(E(QName("urn:x", "Key"), "v"),),
            ),
            payload=E(QName("urn:x", "Req")),
        )
        fast = _skeleton_bytes(envelope)
        assert fast is not None
        assert fast == _tree_bytes(envelope)


def _header_shapes() -> dict[str, tuple[MessageHeaders, object]]:
    """Every header shape a client sends or a service replies with:
    the WS-Addressing trio, RelatesTo, an EPR's reference parameter,
    ``obs:TraceContext``, the conditional-read blocks, and blocks whose
    namespaces the payload shares or that have none."""
    from repro.core import messages as msg
    from repro.core.propcache import CachedDocument, UNCHANGED, held_block
    from repro.core.service import RESOURCE_REFERENCE_PARAMETER
    from repro.soap.tracecontext import TraceContext, to_header_block

    request = msg.GetDataResourcePropertyDocumentRequest(abstract_name="urn:r")
    entry = CachedDocument(serialize_bytes(E(QName("urn:x", "Doc"), E("Part", "p"))))
    document = entry.unchanged()
    document.append(E(QName("urn:x:tail", "Tail"), "t"))
    reply = msg.GetDataResourcePropertyDocumentResponse(document=document)
    epr = E(RESOURCE_REFERENCE_PARAMETER, "urn:r")
    trace = to_header_block(TraceContext("trace-0000002a", "0000002a"))
    odd = E("Plain", E(QName("urn:y", "Inner"), "i")).set(QName("urn:z", "a"), "1")
    ask = lambda *blocks: (
        MessageHeaders(to="http://h/s", action="urn:a", reference_parameters=blocks),
        request.to_xml(),
    )
    answer = lambda *blocks: (
        MessageHeaders(
            to="http://h/s", action="urn:a", relates_to="urn:m:1",
            reference_parameters=blocks,
        ),
        reply.to_xml(),
    )
    return {
        "plain": ask(),
        "epr": ask(epr),
        "trace": ask(trace),
        "opt-in": ask(held_block("")),
        "held": ask(held_block(entry.stamp)),
        "epr-held-trace": ask(epr, held_block(entry.stamp), trace),
        "odd-blocks": ask(odd, E(QName("urn:x", "Shared"))),
        "reply": answer(),
        "reply-stamp": answer(entry.stamp_block()),
        "reply-stamp-trace": answer(trace, entry.stamp_block(), E(UNCHANGED)),
    }


@pytest.mark.parametrize("shape", sorted(_header_shapes()))
def test_every_header_shape_takes_the_skeleton(shape):
    headers, payload = _header_shapes()[shape]
    envelope = Envelope(headers=headers, payload=payload)
    fast = _skeleton_bytes(envelope)
    assert fast is not None, f"{shape}: template path not taken"
    assert fast == _tree_bytes(envelope) == envelope.to_bytes()


class TestFallbackShapes:
    def test_reply_to_falls_back_and_stays_identical(self):
        envelope = Envelope(
            headers=MessageHeaders(
                to="http://h/s",
                action="urn:a",
                reply_to=EndpointReference(address="http://reply"),
            ),
            payload=E(QName("urn:x", "Req")),
        )
        assert envelope._skeleton() is None
        assert envelope.to_bytes() == _tree_bytes(envelope)

    def test_empty_header_value_falls_back(self):
        envelope = Envelope(
            headers=MessageHeaders(to="", action="urn:a"),
            payload=E(QName("urn:x", "Req")),
        )
        assert envelope._skeleton() is None
        assert envelope.to_bytes() == _tree_bytes(envelope)


NS_POOL = [
    "http://www.ggf.org/namespaces/2005/05/WS-DAI",
    "http://www.ggf.org/namespaces/2005/05/WS-DAIR",
    "urn:fuzz:payload:a",
    "urn:fuzz:payload:b",
    "",
]

HEADER_ALPHABET = string.ascii_letters + string.digits + ":/#?&<>\"' %.-_~é"


def _fuzz_payload(rng: random.Random, depth: int = 2) -> E:
    namespace = rng.choice(NS_POOL)
    element = E(QName(namespace, rng.choice(["Req", "Data", "Row", "Item"])))
    for _ in range(rng.randint(0, 2)):
        element.set(
            QName(rng.choice(NS_POOL), "attr"),
            "".join(rng.choice(HEADER_ALPHABET) for _ in range(6)),
        )
    for _ in range(rng.randint(0, 3)):
        if depth > 0 and rng.random() < 0.5:
            element.append(_fuzz_payload(rng, depth - 1))
        else:
            element.append(
                "".join(rng.choice(HEADER_ALPHABET) for _ in range(10))
            )
    return element


@pytest.mark.parametrize("seed", range(30))
def test_fuzzed_envelopes_template_and_tree_agree(seed):
    """The byte-identity gate: random header values (escape-worthy
    characters included), random payload namespace mixes, RelatesTo
    present or absent — templated output must equal tree output
    byte-for-byte whenever the template path engages, and ``to_bytes``
    must equal tree output always."""
    rng = random.Random(seed)
    headers = MessageHeaders(
        to="http://host/" + "".join(rng.choice(HEADER_ALPHABET) for _ in range(8)),
        action="urn:act:" + "".join(rng.choice(HEADER_ALPHABET) for _ in range(8)),
        relates_to=(
            "urn:rel:" + "".join(rng.choice(HEADER_ALPHABET) for _ in range(6))
            if rng.random() < 0.5
            else None
        ),
    )
    envelope = Envelope(headers=headers, payload=_fuzz_payload(rng))
    tree = _tree_bytes(envelope)
    assert envelope.to_bytes() == tree
    assert DECLARATION + b"".join(envelope.iter_bytes()) == tree
    fast = _skeleton_bytes(envelope)
    assert fast is not None, f"seed {seed}: template path not taken"
    assert fast == tree, f"seed {seed}: template output drifted"


class TestStreamedPayloads:
    def _streamed_envelope(self) -> tuple[Envelope, list[str]]:
        rows = [f"<r>row-{index}&lt;</r>" for index in range(10)]
        payload = E(
            QName("urn:fuzz:stream", "Wrapper"),
            StreamedElement(
                QName("urn:fuzz:stream", "Data"),
                lambda q: iter(list(rows)),
                namespaces=("urn:fuzz:stream",),
            ),
        )
        envelope = Envelope(
            headers=MessageHeaders(to="http://h/s", action="urn:a"),
            payload=payload,
        )
        return envelope, rows

    def test_iter_bytes_concatenation_matches_eager_chunked_path(self):
        envelope, rows = self._streamed_envelope()
        joined = b"".join(envelope.iter_bytes())
        expected = serialize(envelope.to_xml()).encode("utf-8")
        assert joined == expected
        for row in rows:
            assert row.encode("utf-8") in joined

    def test_streamed_chunk_content_arrives_once(self):
        envelope, rows = self._streamed_envelope()
        joined = b"".join(envelope.iter_bytes())
        assert joined.count(rows[0].encode("utf-8")) == 1

    def test_lazy_payload_takes_the_skeleton(self, monkeypatch):
        """A one-shot lazy payload renders through the compiled skeleton
        — no envelope tree is built or walked — and to_bytes is still
        the declaration followed by iter_bytes."""

        def one_shot():
            rows = iter([f"<r>row-{index}</r>" for index in range(10)])
            payload = E(
                QName("urn:fuzz:stream", "Wrapper"),
                StreamedElement(
                    QName("urn:fuzz:stream", "Data"),
                    lambda q: rows,
                    namespaces=("urn:fuzz:stream",),
                ),
            )
            return Envelope(
                headers=MessageHeaders(
                    to="http://h/s",
                    action="urn:a",
                    message_id="urn:msg:2",
                    relates_to="urn:msg:1",
                ),
                payload=payload,
            )

        tree = _tree_bytes(one_shot())
        assert one_shot().is_streaming()

        def no_tree(*args, **kwargs):
            raise AssertionError("the envelope tree was serialized")

        monkeypatch.setattr("repro.soap.envelope.serialize_chunks", no_tree)
        assert one_shot()._skeleton() is not None
        fragments = list(one_shot().iter_bytes())
        assert len(fragments) > 2  # head, the chunks as they came, tail
        assert DECLARATION + b"".join(fragments) == tree
        assert one_shot().to_bytes() == tree
