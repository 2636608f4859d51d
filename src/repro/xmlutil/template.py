"""Precompiled byte templates: serialize a skeleton once, splice values.

The DAIS wire formats are overwhelmingly *fixed*: every envelope carries
the same scaffolding (``soapenv:Envelope``/``Header``/``Body``, the
WS-Addressing trio) around a handful of variable spans.  Re-building and
re-walking that scaffolding as an element tree for every message is the
single largest cost in the fig-2 decomposition.

A :class:`ByteTemplate` is compiled by building the skeleton *with the
real tree API* and serializing it *with the real serializer* — slot
positions are marked by sentinel strings that pass through escaping
untouched — then splitting the serialized text around the sentinels into
static byte segments.  Rendering is a join of static bytes and escaped
values, so templated output is byte-identical to tree serialization **by
construction**: whatever the serializer emits around the slots is what
the template replays.

Slot kinds
----------

``text``    element character data; escaped with :func:`escape_text`.
            An *empty* value makes :meth:`ByteTemplate.render` return
            ``None`` (the tree form would collapse ``<T></T>`` to
            ``<T/>``, so the template shape no longer matches — callers
            fall back to the tree path).
``splice``  markup the caller writes itself (e.g. a payload fragment
            rendered with the template's prefix map, as it streams): a
            template ending in a splice is cut there with
            :meth:`ByteTemplate.split_at`.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from repro.xmlutil.escape import escape_text
from repro.xmlutil.names import NamespaceRegistry
from repro.xmlutil.serialize import serialize
from repro.xmlutil.tree import XmlElement

__all__ = ["ByteTemplate", "TemplateSlots"]

#: Sentinels are NUL-delimited: NUL can never appear in static skeleton
#: content (it is not a valid XML character and our builders never emit
#: it) and both escape functions pass it through unchanged.
_SLOT_RE = re.compile("\x00([^\x00]+)\x00")


class TemplateSlots:
    """Records the slots a skeleton builder declares.

    The builder places the returned sentinel strings wherever a variable
    span belongs — as element text or raw markup inside a streamed
    skeleton node.
    """

    def __init__(self) -> None:
        self.kinds: dict[str, str] = {}

    def _mark(self, name: str, kind: str) -> str:
        if "\x00" in name:
            raise ValueError("slot names must not contain NUL")
        previous = self.kinds.setdefault(name, kind)
        if previous != kind:
            raise ValueError(
                f"slot {name!r} declared as both {previous} and {kind}"
            )
        return f"\x00{name}\x00"

    def text(self, name: str) -> str:
        """A character-data slot (escaped as element text on render)."""
        return self._mark(name, "text")

    def splice(self, name: str) -> str:
        """A raw-markup slot: the rendered value is inserted verbatim."""
        return self._mark(name, "splice")


class ByteTemplate:
    """Static byte segments interleaved with named slots."""

    __slots__ = ("_parts", "_slots")

    def __init__(
        self, parts: list[bytes], slots: list[tuple[str, str]]
    ) -> None:
        if len(parts) != len(slots) + 1:
            raise ValueError("parts must bracket every slot")
        self._parts = parts
        self._slots = slots

    @classmethod
    def compile(
        cls,
        build: Callable[[TemplateSlots], XmlElement],
        registry: NamespaceRegistry | None = None,
    ) -> "ByteTemplate":
        """Compile the skeleton *build* produces into a byte template.

        *build* receives a :class:`TemplateSlots` and returns the
        skeleton root element with sentinel strings in the variable
        positions.  The skeleton is serialized once with the ordinary
        serializer (same *registry*, compact mode), so namespace
        declarations and prefixes are exactly those of the tree path.
        """
        slots = TemplateSlots()
        root = build(slots)
        text = serialize(root, registry)
        parts: list[bytes] = []
        order: list[tuple[str, str]] = []
        pos = 0
        for match in _SLOT_RE.finditer(text):
            name = match.group(1)
            kind = slots.kinds.get(name)
            if kind is None:
                raise ValueError(f"undeclared slot {name!r} in skeleton")
            parts.append(text[pos : match.start()].encode("utf-8"))
            order.append((name, kind))
            pos = match.end()
        parts.append(text[pos:].encode("utf-8"))
        if "\x00" in text[pos:] or any(b"\x00" in p for p in parts):
            raise ValueError("stray NUL in skeleton content")
        return cls(parts, order)

    def split_at(self, name: str) -> tuple["ByteTemplate", bytes]:
        """Cut the template at its last slot, the splice *name*: the
        template of everything before it, and the static bytes after."""
        if not self._slots or self._slots[-1] != (name, "splice"):
            raise ValueError(f"{name!r} is not the template's last slot")
        return ByteTemplate(self._parts[:-1], self._slots[:-1]), self._parts[-1]

    def render(self, values: dict[str, str]) -> Optional[bytes]:
        """Splice *values* into the skeleton; ``None`` on shape mismatch.

        ``None`` means the tree serializer would have produced different
        markup shape for these values (an empty text span) — the caller
        must fall back to tree serialization.  Missing slot values raise
        ``KeyError``; a splice slot must first be cut off with
        :meth:`split_at`.
        """
        parts = self._parts
        out = [parts[0]]
        for index, (name, kind) in enumerate(self._slots):
            value = values[name]
            if kind == "text":
                if not value:
                    return None
                out.append(escape_text(value).encode("utf-8"))
            else:
                raise ValueError(f"splice slot {name!r} is written by the caller")
            out.append(parts[index + 1])
        return b"".join(out)
