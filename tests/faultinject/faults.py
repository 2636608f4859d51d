"""Deterministic fault injection for transports and the HTTP server.

The harness half of the robustness story (:mod:`repro.resilience` is the
client half).  A seeded :class:`FaultPlan` schedules connection
refusals, mid-response drops, fixed or spread latency, HTTP 503/500,
SOAP ``ServiceBusyFault`` and expired-resource ``ResourceUnknownFault``
injections; :class:`FaultyTransport` applies them around any transport,
and :class:`FaultyHttpServer` on the real HTTP handler path.  Same seed
→ same failures, so every chaos run replays.  A resource whose database
has gone is :class:`UnavailableSQLDataResource`.

Rules match on the global call index (1-based) and optionally on the
target address / ``wsa:Action``; the first match wins::

    plan = FaultPlan(seed=7)
    plan.at(3, ConnectionRefused())               # exactly call #3
    plan.after(10, ExpireResource(), times=1)     # once, from call 10 on
    plan.with_probability(0.2, Busy())            # seeded coin per call

    plan = FaultPlan.chaos(seed=42, rate=0.3)     # the standard chaos mix
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.faults import (
    DataResourceUnavailableFault,
    ServiceBusyFault,
    TransportFault,
)
from repro.dair import SQLDataResource
from repro.obs import MetricsRegistry, add_to_current_span
from repro.resilience import RealClock, coerce_resilience
from repro.soap.envelope import Envelope, fault_envelope
from repro.transport import DaisHttpServer
from repro.transport.httpserver import _transport_fault_headers
from repro.wsrf.faults import ResourceUnknownFault

# -- the fault vocabulary ------------------------------------------------------
#
# Each action models one failure mode of the wide-area fabric between a
# DAIS consumer and a data service.  Actions are inert descriptions;
# FaultyTransport and FaultyHttpServer interpret them.


class FaultAction:
    """Base class; exists so plans can type-check their menu."""

    def sample(self, rng: random.Random) -> "FaultAction":
        """Resolve any randomness into a concrete action (default: self)."""
        return self


@dataclass(frozen=True)
class ConnectionRefused(FaultAction):
    """The request never reaches the service (socket-level refusal)."""


@dataclass(frozen=True)
class DropResponse(FaultAction):
    """The service processes the request but the response is lost —
    the nasty case: side effects happened, the consumer cannot know."""


@dataclass(frozen=True)
class Latency(FaultAction):
    """Delay the call by ``seconds`` before forwarding it normally."""

    seconds: float


@dataclass(frozen=True)
class LatencySpread(FaultAction):
    """Latency drawn uniformly from ``[low, high]`` at injection time —
    build via :func:`latency_percentiles` for a p50/p99-style spread."""

    low: float
    high: float

    def sample(self, rng: random.Random) -> Latency:
        return Latency(rng.uniform(self.low, self.high))


def latency_percentiles(p50: float, p99: float) -> LatencySpread:
    """A latency spread whose median ≈ *p50* and tail reaches *p99*."""
    if p99 < p50:
        raise ValueError("p99 must not be below p50")
    return LatencySpread(low=max(0.0, 2 * p50 - p99), high=p99)


@dataclass(frozen=True)
class HttpStatus(FaultAction):
    """An HTTP-level error (503/500/…) with a non-SOAP body."""

    status: int = 503


@dataclass(frozen=True)
class Busy(FaultAction):
    """A well-formed SOAP ``ServiceBusyFault`` response."""


@dataclass(frozen=True)
class ExpireResource(FaultAction):
    """A WSRF ``ResourceUnknownFault`` — the soft-state resource expired
    between calls.  Pair with :meth:`FaultPlan.after` to fire only from
    the N-th call onward."""


#: The default chaos mix: every failure mode the harness can inject.
CHAOS_MENU: tuple[FaultAction, ...] = (
    ConnectionRefused(),
    DropResponse(),
    Latency(0.05),
    latency_percentiles(0.02, 0.5),
    HttpStatus(503),
    HttpStatus(500),
    Busy(),
    ExpireResource(),
)

# -- plans ---------------------------------------------------------------------


@dataclass
class Rule:
    """One matcher → action entry in a plan."""

    action: FaultAction
    #: Fire only on this exact 1-based call index (None = any).
    at_index: int | None = None
    #: Fire only from this call index onward (None = any).
    from_index: int | None = None
    #: Restrict to one target address / wsa:Action (None = any).
    address: str | None = None
    action_uri: str | None = None
    #: Seeded firing probability (None = always when matched).
    probability: float | None = None
    #: Remaining firings (None = unlimited).
    remaining: int | None = field(default=None)

    def matches(self, index: int, address: str, action_uri: str) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.at_index is not None and index != self.at_index:
            return False
        if self.from_index is not None and index < self.from_index:
            return False
        if self.address is not None and address != self.address:
            return False
        if self.action_uri is not None and action_uri != self.action_uri:
            return False
        return True


class FaultPlan:
    """An ordered, seeded schedule of fault injections, consulted once
    per call; randomised rules draw from the plan's own RNG, so a plan
    replays identically for a given seed and call sequence."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: list[Rule] = []
        self._calls = 0
        #: ``(call index, address, action URI, injected action | None)``
        #: per decided call — the audit trail chaos tests assert against.
        self.log: list[tuple[int, str, str, FaultAction | None]] = []

    def add(self, rule: Rule) -> "FaultPlan":
        self._rules.append(rule)
        return self

    def at(self, index: int, action: FaultAction, **match) -> "FaultPlan":
        """Inject *action* on exactly the *index*-th call (1-based)."""
        return self.add(Rule(action, at_index=index, **match))

    def after(
        self, index: int, action: FaultAction, times: int | None = 1, **match
    ) -> "FaultPlan":
        """Inject from the *index*-th call onward, at most *times* times."""
        return self.add(Rule(action, from_index=index, remaining=times, **match))

    def always(self, action: FaultAction, **match) -> "FaultPlan":
        """Inject on every matching call."""
        return self.add(Rule(action, **match))

    def with_probability(
        self, probability: float, action: FaultAction, **match
    ) -> "FaultPlan":
        """Inject with a seeded per-call coin flip."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        return self.add(Rule(action, probability=probability, **match))

    @classmethod
    def chaos(
        cls,
        seed: int,
        rate: float = 0.25,
        menu: tuple[FaultAction, ...] = CHAOS_MENU,
    ) -> "FaultPlan":
        """The standard chaos schedule: with probability *rate* per call,
        inject one action drawn (seeded) from *menu*."""
        if not menu:
            raise ValueError("chaos menu must not be empty")
        return cls(seed=seed).add(Rule(_MenuDraw(menu), probability=rate))

    @property
    def calls_seen(self) -> int:
        return self._calls

    def decide(self, address: str, action_uri: str) -> FaultAction | None:
        """The injection decision for the next call (advances the plan)."""
        self._calls += 1
        chosen: FaultAction | None = None
        for rule in self._rules:
            if not rule.matches(self._calls, address, action_uri):
                continue
            if (
                rule.probability is not None
                and self._rng.random() >= rule.probability
            ):
                continue
            if rule.remaining is not None:
                rule.remaining -= 1
            chosen = rule.action.sample(self._rng)
            break
        self.log.append((self._calls, address, action_uri, chosen))
        return chosen


@dataclass(frozen=True)
class _MenuDraw(FaultAction):
    """A chaos rule's action: one draw from a menu per firing."""

    menu: tuple[FaultAction, ...]

    def sample(self, rng: random.Random) -> FaultAction:
        return rng.choice(self.menu).sample(rng)


# -- client side ---------------------------------------------------------------


class FaultyTransport:
    """A transport decorator that injects faults per a :class:`FaultPlan`.

    Transport-level failures surface as the typed ``TransportFault``
    (exactly what the real HTTP client raises for refusals/timeouts);
    protocol-level injections come back as well-formed SOAP fault
    envelopes.  An installed ``resilience`` layer runs its retry loop
    *outside* the injection point, so retries re-traverse the faulty
    fabric.
    """

    def __init__(self, inner, plan: FaultPlan, clock=None, resilience=None) -> None:
        self.inner = inner
        self.plan = plan
        self.clock = clock if clock is not None else RealClock()
        self.resilience = coerce_resilience(resilience)
        #: Injection counts per action class, for assertions and demos.
        self.metrics = MetricsRegistry()
        self._injected = self.metrics.counter(
            "faultinject.injected", "injected faults per kind"
        )

    @property
    def stats(self):
        """Wire stats of the wrapped transport (recorded attempts only)."""
        return self.inner.stats

    def send(self, address: str, request: Envelope) -> Envelope:
        if self.resilience is None:
            return self._send_once(address, request)
        return self.resilience.call(address, request, self._send_once)

    def _send_once(self, address: str, request: Envelope) -> Envelope:
        action = self.plan.decide(address, request.headers.action)
        if action is None:
            return self.inner.send(address, request)
        self._injected.inc(kind=type(action).__name__)
        add_to_current_span("faults.injected")
        return self._apply(action, address, request)

    def _apply(
        self, action: FaultAction, address: str, request: Envelope
    ) -> Envelope:
        if isinstance(action, Latency):
            self.clock.sleep(action.seconds)
            return self.inner.send(address, request)
        if isinstance(action, ConnectionRefused):
            raise TransportFault(f"connection refused by {address} [injected]")
        if isinstance(action, DropResponse):
            # The service really processes the request; the reply is lost.
            self.inner.send(address, request)
            raise TransportFault(
                f"connection to {address} dropped mid-response [injected]"
            )
        if isinstance(action, HttpStatus):
            raise TransportFault(
                f"HTTP {action.status} from {address} [injected]",
                status=action.status,
            )
        if isinstance(action, Busy):
            return fault_envelope(
                request.headers,
                ServiceBusyFault(f"service at {address} is busy [injected]"),
            )
        if isinstance(action, ExpireResource):
            return fault_envelope(
                request.headers,
                ResourceUnknownFault("resource lifetime expired [injected]"),
            )
        raise TypeError(f"unknown fault action {type(action).__name__}")


# -- server side ---------------------------------------------------------------


class FaultyHttpServer(DaisHttpServer):
    """A :class:`DaisHttpServer` whose POSTs first consult a fault plan.

    Matching POSTs are delayed, answered with a bare 503/500 or a SOAP
    fault, or dropped outright before the registry ever sees them —
    real sockets, injected chaos.  Injected answers are counted in the
    server's metrics like organic ones.
    """

    def __init__(self, registry, port: int = 0, fault_plan=None, **knobs) -> None:
        super().__init__(registry, port, **knobs)
        #: The armed plan (settable at any time; None serves normally).
        self.fault_plan = fault_plan

    def on_request(self, conn, request, core, waited: float) -> None:
        plan = self.fault_plan
        action = plan and plan.decide(request.target, "http.server.request")
        if isinstance(action, Latency):
            time.sleep(action.seconds)
            action = None
        if action is None:
            super().on_request(conn, request, core, waited)
            return
        self._request_bytes.inc(len(request.body))
        self._bytes_in.inc(len(request.body))
        if isinstance(action, (ConnectionRefused, DropResponse)):
            # Vanish: close the socket without an HTTP response — the
            # client observes a reset/empty reply.
            self._requests.inc(status="dropped")
            core.close(conn)
            return
        if isinstance(action, HttpStatus):
            status, content_type = action.status, "text/plain; charset=utf-8"
            payload = b"injected fault: service unavailable"
        elif isinstance(action, (Busy, ExpireResource)):
            if isinstance(action, Busy):
                fault = ServiceBusyFault("service is busy [injected]")
            else:
                fault = ResourceUnknownFault("resource lifetime expired [injected]")
            status, content_type = 500, "text/xml; charset=utf-8"
            payload = fault_envelope(
                _transport_fault_headers(request.target), fault
            ).to_bytes()
        else:
            raise TypeError(f"unknown fault action {type(action).__name__}")
        response = self._counted(request, status, content_type, payload)
        self._write(conn, core, response, keep_alive=request.keep_alive)



class UnavailableSQLDataResource(SQLDataResource):
    """A SQL data resource whose database can be taken away: while
    ``available`` is False every statement faults
    ``DataResourceUnavailableFault``."""

    available = True

    def sql_execute(self, *args, **kwargs):
        if not self.available:
            raise DataResourceUnavailableFault(
                f"database {self.database.name!r} is unavailable"
            )
        return super().sql_execute(*args, **kwargs)
