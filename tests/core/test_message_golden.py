"""Wire snapshots of every concrete message class.

``golden/messages.json`` maps each class to three payloads built by
:func:`tests.core.message_catalog.sample`:

``defaults``   only the required fields set;
``populated``  every field set (text needing escapes, an empty-string
               list member, nested foreign-namespace elements, an EPR
               with a reference parameter, bytes with a NUL);
``blanked``    the populated document with every text node and attribute
               value emptied except a request's abstract name — never
               encoded by us, only decoded.

Each entry records the ``encoded`` payload, what it decodes and
re-encodes to (``reencoded``, omitted when identical) or the exception
class decoding raises (``raises``).  The file was generated from the
hand-written ``to_xml``/``from_xml`` methods of the commit before the
declared-field codec replaced them, so it is the old codecs' answer the
new one is held to.  The entries where this codebase deliberately
answers differently keep the old answer beside the new one as
``parent_reencoded`` / ``parent_raises`` with a ``note``; regeneration
preserves those annotations.

Regenerate deliberately, from the repository root, with::

    PYTHONPATH=src python -m tests.core.test_message_golden --regen
"""

import functools
import json
import pathlib

import pytest

from repro.core.messages import DaisRequest
from repro.xmlutil import parse, serialize
from tests.core.message_catalog import blank, class_key, message_classes, sample

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "messages.json"
VARIANTS = ("defaults", "populated", "blanked")
_ANNOTATIONS = ("parent_reencoded", "parent_raises", "note")


def _decode_outcome(cls, encoded: str) -> dict:
    try:
        reencoded = serialize(cls.from_xml(parse(encoded)).to_xml())
    except Exception as exc:
        return {"raises": type(exc).__name__}
    return {} if reencoded == encoded else {"reencoded": reencoded}


def _snapshot(cls) -> dict:
    entries = {}
    for variant in ("defaults", "populated"):
        encoded = serialize(sample(cls, variant == "populated").to_xml())
        entries[variant] = {"encoded": encoded, **_decode_outcome(cls, encoded)}
    blanked = serialize(
        blank(
            parse(entries["populated"]["encoded"]),
            keep_name=issubclass(cls, DaisRequest),
        )
    )
    entries["blanked"] = {"encoded": blanked, **_decode_outcome(cls, blanked)}
    return entries


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


_CASES = [(cls, variant) for cls in message_classes() for variant in VARIANTS]
_IDS = [f"{cls.__name__}-{variant}" for cls, variant in _CASES]


def test_snapshot_covers_exactly_the_concrete_classes():
    assert sorted(_golden()) == [class_key(cls) for cls in message_classes()]


@pytest.mark.parametrize("cls,variant", _CASES, ids=_IDS)
def test_payload_matches_snapshot(cls, variant):
    entry = _golden()[class_key(cls)][variant]
    if variant != "blanked":
        actual = serialize(sample(cls, variant == "populated").to_xml())
        assert actual == entry["encoded"], (
            f"{cls.__name__} ({variant}) drifted from the wire snapshot; if "
            "intentional, regenerate with --regen and review the diff"
        )
    outcome = _decode_outcome(cls, entry["encoded"])
    if "raises" in entry:
        assert outcome == {"raises": entry["raises"]}
    else:
        assert "raises" not in outcome, outcome
        assert outcome.get("reencoded", entry["encoded"]) == entry.get(
            "reencoded", entry["encoded"]
        )


def test_recorded_differences_from_the_hand_written_codecs():
    """Exactly two answers changed when the codec replaced the
    hand-written methods, and both are written down in the snapshot."""
    changed = sorted(
        f"{key.rsplit('.', 1)[1]}/{variant}"
        for key, variants in _golden().items()
        for variant, entry in variants.items()
        if "note" in entry
    )
    assert changed == [
        "GetMultipleResourcePropertiesRequest/blanked",
        "SQLRowsetFactoryRequest/populated",
    ]


def _regen() -> None:
    previous = _golden() if GOLDEN_PATH.exists() else {}
    golden = {}
    for cls in message_classes():
        key = class_key(cls)
        golden[key] = _snapshot(cls)
        for variant, entry in previous.get(key, {}).items():
            for annotation in _ANNOTATIONS:
                if annotation in entry:
                    golden[key][variant][annotation] = entry[annotation]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH} ({len(golden)} classes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
