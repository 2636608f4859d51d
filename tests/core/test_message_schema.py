"""Schema lint: the declared tables agree with the classes they describe.

``WIRE`` sits beside the dataclass fields and ``OPERATIONS`` beside the
handlers; nothing but this test stops the two halves of either pair
from drifting (a field nobody writes to the wire, a request no service
answers, a handler name with a typo).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core import DataService
from repro.core.codec import Elements
from repro.core.messages import DaisRequest, FactoryRequest, response_class
from repro.daif import FileRealisationService
from repro.dair import SQLRealisationService
from repro.daix import XMLRealisationService
from repro.jobs import JobManager
from tests.core.message_catalog import message_classes

SERVICES = {
    "core": DataService,
    "sql": SQLRealisationService,
    "xml": XMLRealisationService,
    "files": FileRealisationService,
}

#: ``service.actions()`` as the commit before the operation tables
#: answered it: what every service has (``core``), what each realisation
#: adds with all its port types on, and what WSRF and jobs add to any.
PINNED_ACTIONS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "actions.json").read_text()
)


def _claims(cls) -> list[str]:
    claimed = [name for field in cls.WIRE for name in field.names()]
    if issubclass(cls, DaisRequest):
        claimed.append("abstract_name")  # DaisRequest's own pair carries it
    return claimed


@pytest.mark.parametrize("cls", message_classes(), ids=lambda cls: cls.__name__)
def test_every_field_travels_exactly_once_or_is_declared_non_wire(cls):
    fields = {field.name for field in dataclasses.fields(cls)}
    claimed = _claims(cls)
    assert len(claimed) == len(set(claimed)), f"claimed twice: {sorted(claimed)}"
    assert set(claimed) <= fields, "WIRE names a field the class does not have"
    assert cls.NON_WIRE <= fields
    assert not cls.NON_WIRE & set(claimed)
    assert fields - set(claimed) == cls.NON_WIRE


def test_communication_factory_is_the_only_non_wire_field():
    assert {
        (cls.__name__, name) for cls in message_classes() for name in cls.NON_WIRE
    } == {("SQLExecuteResponse", "communication_factory")}


@pytest.mark.parametrize("cls", message_classes(), ids=lambda cls: cls.__name__)
def test_untagged_embedded_elements_skip_exactly_their_siblings(cls):
    """An embedded element selected by position, not by tag, must step
    over every element the message's other fields own."""
    for field in cls.WIRE:
        if isinstance(field, Elements) and not (field.wrapper or field.select):
            siblings = {other.tag for other in cls.WIRE if other is not field}
            assert set(field.skip) == siblings - {None}


def _own_rows(service_cls) -> list[tuple]:
    inherited = {} if service_cls is DataService else DataService.OPERATIONS
    return [
        row
        for port_type, rows in service_cls.OPERATIONS.items()
        if port_type not in inherited
        for row in rows
    ]


def test_every_request_is_a_row_of_exactly_one_service():
    served = {}
    for key, service_cls in SERVICES.items():
        for request_cls, *_ in _own_rows(service_cls):
            served.setdefault(request_cls, set()).add(key)
    requests = {
        cls for cls in message_classes() if cls.__name__.endswith("Request")
    }
    assert set(served) == requests
    assert {cls.__name__: keys for cls, keys in served.items() if len(keys) != 1} == {}


@pytest.mark.parametrize("key", sorted(SERVICES))
def test_every_row_names_a_handler_and_each_action_once(key):
    service_cls = SERVICES[key]
    actions = []
    for request_cls, handler, *action in _own_rows(service_cls):
        assert callable(getattr(service_cls, handler, None)), handler
        actions.append(action[0] if action else request_cls.action())
    assert len(actions) == len(set(actions))


@pytest.mark.parametrize("key", ["sql", "xml", "files"])
def test_port_type_names_are_the_table_keys(key):
    """What a realisation's constructor accepts as ``port_types``, and
    installs by default, is its own ``OPERATIONS`` keys."""
    service_cls = SERVICES[key]
    own = set(service_cls.OPERATIONS) - set(DataService.OPERATIONS)
    assert service_cls(key, f"dais://{key}").port_types == own
    with pytest.raises(ValueError, match="no_such_port_type"):
        service_cls(key, f"dais://{key}", port_types=["no_such_port_type"])


@pytest.mark.parametrize("key", sorted(SERVICES))
def test_every_factory_row_is_served_by_the_one_factory_path(key):
    """A factory operation is a :attr:`FACTORIES` entry, not a handler:
    every row whose request is a ``FactoryRequest`` names
    ``_handle_factory``, and every entry names a row, methods the
    service has and a port type of its own table."""
    service_cls = SERVICES[key]
    rows = {
        request_cls: handler
        for request_cls, handler, *_ in _own_rows(service_cls)
        if issubclass(request_cls, FactoryRequest)
    }
    assert set(rows.values()) <= {"_handle_factory"}
    assert set(service_cls.FACTORIES) == set(rows)
    for factory in service_cls.FACTORIES.values():
        assert callable(getattr(service_cls, factory.binding, None))
        assert callable(getattr(service_cls, factory.derive, None))
        assert factory.port_type in service_cls.OPERATIONS


def test_every_tag_names_one_class():
    classes = message_classes()
    assert len({cls.TAG for cls in classes}) == len(classes)


def test_every_served_request_has_one_reply_and_every_reply_a_request():
    """The reply class is the request's by naming rule or declaration;
    every concrete response answers some served request."""
    concrete = set(message_classes())
    answered = set()
    for service_cls in SERVICES.values():
        for request_cls, *_ in _own_rows(service_cls):
            reply = response_class(request_cls)
            assert reply in concrete, request_cls.__name__
            assert reply.TAG.local.endswith("Response"), reply.__name__
            answered.add(reply)
    responses = {cls for cls in concrete if cls.TAG.local.endswith("Response")}
    assert responses == answered


@pytest.mark.parametrize("jobs", [False, True], ids=["nojobs", "jobs"])
@pytest.mark.parametrize("wsrf", [False, True], ids=["plain", "wsrf"])
@pytest.mark.parametrize("key", sorted(SERVICES))
def test_default_services_answer_the_pinned_actions(key, wsrf, jobs):
    service = SERVICES[key](key, f"dais://{key}", wsrf=wsrf)
    if jobs:
        service.enable_jobs(JobManager())
    expected = set(PINNED_ACTIONS["core"]) | set(PINNED_ACTIONS.get(key, ()))
    if wsrf:
        expected |= set(PINNED_ACTIONS["wsrf"])
    if jobs:
        expected |= set(PINNED_ACTIONS["jobs"])
    assert service.actions() == sorted(expected)
