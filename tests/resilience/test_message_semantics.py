"""Regression: exactly-one-attempt for application faults, and the
``wsa:MessageID`` resend contract — snapshot the wire envelopes across
attempts and compare them byte-for-byte."""

import pytest

from repro.client.sql import SQLClient
from repro.core import InvalidExpressionFault, InvalidResourceNameFault
from repro.resilience import Resilience, RetryPolicy, VirtualClock
from repro.soap.envelope import Envelope
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from tests.faultinject.faults import Busy, FaultPlan, FaultyTransport

QUERY = "SELECT COUNT(*) FROM customers"


class RecordingTransport:
    """Snapshots every attempt's request as wire bytes, then forwards it
    into the (possibly faulty) fabric.  Shaped like the real transports:
    a settable ``resilience`` attribute that ``send`` routes through, so
    ``CoreClient(transport, resilience=...)`` wires it the normal way."""

    def __init__(self, inner):
        self.inner = inner
        self.resilience = None
        self.wire = []

    def send(self, address, request):
        if self.resilience is not None:
            return self.resilience.call(address, request, self._send_once)
        return self._send_once(address, request)

    def _send_once(self, address, request):
        self.wire.append(request.to_bytes())
        return self.inner.send(address, request)


@pytest.fixture()
def deployment():
    return build_single_service(RelationalWorkload(customers=3))


def recording_client(deployment, plan, policy):
    clock = VirtualClock()
    recorder = RecordingTransport(
        FaultyTransport(LoopbackTransport(deployment.registry), plan, clock=clock)
    )
    client = SQLClient(
        recorder, resilience=Resilience(policy=policy, clock=clock, seed=0)
    )
    return client, recorder


def message_ids(recorder):
    return [
        Envelope.from_bytes(raw).headers.message_id for raw in recorder.wire
    ]


class TestSingleAttempt:
    @pytest.mark.parametrize(
        "expression,name,expected",
        [
            ("NOT SQL AT ALL", None, InvalidExpressionFault),
            (QUERY, "no-such-resource", InvalidResourceNameFault),
        ],
    )
    def test_application_faults_get_exactly_one_attempt(
        self, deployment, expression, name, expected
    ):
        client, recorder = recording_client(
            deployment, FaultPlan(), RetryPolicy(max_attempts=5)
        )
        with pytest.raises(expected):
            client.sql_query_rowset(
                deployment.address, name or deployment.name, expression
            )
        assert len(recorder.wire) == 1


class TestMessageIdSemantics:
    def test_default_policy_reuses_the_message_id(self, deployment):
        """Resends are the *same* logical message: identical MessageID,
        identical envelope bytes."""
        plan = FaultPlan()
        plan.at(1, Busy())
        plan.at(2, Busy())
        client, recorder = recording_client(
            deployment, plan, RetryPolicy(max_attempts=4)
        )
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert rowset.rows == [("3",)]
        assert len(recorder.wire) == 3
        ids = message_ids(recorder)
        assert len(set(ids)) == 1
        # Strongest form of the contract: the retried envelope is the
        # original envelope, byte for byte.
        assert recorder.wire[0] == recorder.wire[1] == recorder.wire[2]

    def test_fresh_message_id_policy_reissues_per_attempt(self, deployment):
        plan = FaultPlan()
        plan.at(1, Busy())
        plan.at(2, Busy())
        client, recorder = recording_client(
            deployment, plan, RetryPolicy(max_attempts=4, fresh_message_id=True)
        )
        client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        ids = message_ids(recorder)
        assert len(ids) == 3
        assert len(set(ids)) == 3
        # Only the MessageID may differ between attempts: normalising it
        # away makes the envelopes identical again.
        normalised = {
            raw.replace(mid.encode(), b"MID")
            for raw, mid in zip(recorder.wire, ids)
        }
        assert len(normalised) == 1
