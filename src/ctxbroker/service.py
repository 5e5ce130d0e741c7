"""Network-facing broker service: envelope routing over HTTP, callback
push, and durable single-file snapshots of registrations and
subscriptions.

Snapshots are written atomically (temp file, then rename) after every
mutating request, so a restart reproduces the same registries, selection
states and id counters. The topic value cache is deliberately not
persisted; it refills from fresh publications.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.parse
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import errors, wire
from .broker import ContextBroker, Transport
from .model import ContextSample, IndicatorCatalog, RequirementProfile, ServiceOffer

log = logging.getLogger(__name__)


class SnapshotError(RuntimeError):
    """The persistence file exists but cannot be loaded."""


@dataclass(frozen=True)
class ServiceConfig:
    catalog: IndicatorCatalog
    listen: str = "127.0.0.1:0"
    persist_path: str | Path | None = None
    retry: wire.RetryPolicy = field(default_factory=wire.RetryPolicy)
    log_level: str = "info"

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.listen.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"listen address must be host:port, got {self.listen!r}")
        return host, int(port)


def save_snapshot(path: str | Path, state: dict[str, Any]) -> None:
    """Write the state file atomically: temp in the same directory, then rename."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + ".tmp")
    temp.write_text(json.dumps(state, sort_keys=True, indent=2), encoding="utf-8")
    temp.replace(target)


def load_snapshot(path: str | Path) -> dict[str, Any] | None:
    """Read a state file; None when absent, SnapshotError when unreadable."""
    target = Path(path)
    if not target.exists():
        return None
    try:
        state = json.loads(target.read_text(encoding="utf-8"))
        for key in ("next_sub", "next_reg", "seq", "registrations", "subscriptions"):
            if key not in state:
                raise KeyError(key)
        return state
    except (json.JSONDecodeError, KeyError, UnicodeDecodeError, TypeError) as exc:
        raise SnapshotError(f"corrupt snapshot file {target}: {exc}") from exc


class BrokerService:
    """Envelope-level request handling plus persistence, independent of HTTP.

    The HTTP frontend turns each request into one envelope for
    handle_request; tests and the crash-restart checks can drive it
    directly.
    """

    def __init__(
        self,
        config: ServiceConfig,
        transport: Transport | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        self.config = config
        # Read before the broker starts its dispatch thread, so an
        # unreadable file leaves nothing running behind.
        state = None if config.persist_path is None else load_snapshot(config.persist_path)
        if transport is None:
            transport = wire.HttpTransport(retry=config.retry)
        self.broker = ContextBroker(config.catalog, transport=transport, clock=clock)
        # Serializes snapshot capture+write: concurrent mutations must not
        # interleave through the shared temp file.
        self._persist_lock = threading.Lock()
        if state is not None:
            try:
                self.broker.restore_state(state)
            except (KeyError, TypeError, ValueError) as exc:
                self.broker.close()
                raise SnapshotError(
                    f"snapshot file {config.persist_path} does not fit: {exc!r}") from exc

    # -- envelope routing -------------------------------------------------

    def handle_request(self, envelope: Any) -> dict[str, Any]:
        """Route one request envelope through ``ROUTES`` by its kind; always
        returns one ack or error envelope bearing the request's id."""
        request_id = ""
        if isinstance(envelope, dict):
            request_id = str(envelope.get("request_id") or uuid.uuid4().hex)
        try:
            if not isinstance(envelope, dict):
                raise errors.BadRequest("request envelope must be a JSON object")
            kind = envelope.get("kind")
            body = envelope.get("body")
            if not isinstance(body, dict):
                raise errors.BadRequest("envelope body must be a JSON object")
            route = ROUTES.get(kind) if isinstance(kind, str) else None
            if route is None:
                raise errors.BadRequest(f"unsupported envelope kind {kind!r}")
            try:
                result = route.handler(self.broker, body)
            except (KeyError, TypeError, ValueError) as exc:
                raise errors.BadRequest(f"malformed {kind} body: {exc}") from exc
            if route.mutates:
                self._persist()
            return wire.ack(request_id, result)
        except errors.BrokerError as exc:
            return wire.error_envelope(request_id, exc)
        except Exception as exc:
            log.exception("unhandled error on request %s", request_id)
            return wire.error_envelope(request_id, errors.Internal(f"internal error: {exc}"))

    # Thin wrappers kept for direct callers; the HTTP frontend calls only
    # handle_request, so each request is handled exactly once.

    def unsubscribe(self, subscription_id: str, request_id: str | None = None) -> dict[str, Any]:
        return self.handle_request(
            wire.make_envelope("unsubscribe", {"subscription_id": subscription_id}, request_id))

    def deregister(self, registration_id: str, request_id: str | None = None) -> dict[str, Any]:
        return self.handle_request(
            wire.make_envelope("deregister", {"registration_id": registration_id}, request_id))

    def decision(self, subscription_id: str, request_id: str | None = None) -> dict[str, Any]:
        return self.handle_request(
            wire.make_envelope("decision", {"subscription_id": subscription_id}, request_id))

    def close(self) -> None:
        self.broker.close()

    def _persist(self) -> None:
        if self.config.persist_path is not None:
            with self._persist_lock:
                save_snapshot(self.config.persist_path, self.broker.snapshot_state())


# -- the route table: one row per envelope kind ------------------------------


class Route(NamedTuple):
    """What one envelope kind does to the broker; ``wire.PATHS`` says how
    it arrives over HTTP. A mutating route is persisted before its ack."""

    handler: Callable[[ContextBroker, dict[str, Any]], dict[str, Any]]
    mutates: bool = False


def _subscribe(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    profile = RequirementProfile.from_dict(body["profile"])
    subscription_id = broker.subscribe(body["consumer_id"], profile, body["callback_address"])
    return {"subscription_id": subscription_id}


def _register(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    offer = ServiceOffer.from_dict(body["offer"])
    return {"registration_id": broker.register_context_service(offer, body["service_address"])}


def _notify(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    broker.notify_context_change(body["service_id"], ContextSample.from_dict(body["sample"]))
    return {}


def _unsubscribe(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    broker.unsubscribe(body["subscription_id"])
    return {}


def _deregister(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    broker.deregister_context_service(body["registration_id"])
    return {}


def _pull_current(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    sample = broker.get_current_topic_value(body["subscription_id"], body["topic"])
    return {"sample": sample.to_dict()}


def _pull_last(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    sample = broker.get_last_topic_value(body["subscription_id"], body["topic"])
    return {"sample": sample.to_dict()}


def _drain(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    if not broker.drain():
        raise errors.UpstreamUnavailable("queued deliveries still pending after the drain timeout")
    return {}


ROUTES: dict[str, Route] = {
    "subscribe": Route(_subscribe, mutates=True),
    "unsubscribe": Route(_unsubscribe, mutates=True),
    "register": Route(_register, mutates=True),
    "deregister": Route(_deregister, mutates=True),
    "notify": Route(_notify),
    "pull-current": Route(_pull_current),
    "pull-last": Route(_pull_last),
    "decision": Route(lambda broker, body: {
        "decision": broker.get_decision(body["subscription_id"]).to_dict()}),
    "find-services": Route(lambda broker, body: {
        "service_ids": broker.find_context_services(body["topic"])}),
    "find-consumers": Route(lambda broker, body: {
        "subscription_ids": broker.find_context_consumers(body["topic"])}),
    "drain": Route(_drain),
}

class _Handler(wire.JsonHandler):
    server: "ServiceHandle"

    def _dispatch(self) -> None:
        parsed = urllib.parse.urlparse(self.path)
        envelope: Any = None
        try:
            if self.command == "POST":
                envelope = wire.decode(wire.read_body(self))
            kind, fields = wire.match(wire.PATHS, self.command, parsed.path)
            if self.command != "POST":
                envelope = wire.make_envelope(kind, fields, self._request_id(parsed))
            elif isinstance(envelope, dict) and envelope.get("kind") != kind:
                raise errors.BadRequest(
                    f"endpoint expects kind {kind!r}, got {envelope.get('kind')!r}")
            response = self.server.service.handle_request(envelope)
        except errors.BrokerError as exc:
            request_id = envelope.get("request_id") if isinstance(envelope, dict) else None
            response = wire.error_envelope(str(request_id or self._request_id(parsed)), exc)
        status = 200
        if response["kind"] == "error":
            status = wire.http_status_for(response["body"]["code"])
        wire.send_json(self, status, response)

    do_POST = do_GET = do_DELETE = _dispatch

    def _request_id(self, parsed: urllib.parse.ParseResult) -> str:
        header = self.headers.get("X-Request-Id")
        if header:
            return header
        query = urllib.parse.parse_qs(parsed.query).get("request_id")
        if query:
            return query[0]
        return uuid.uuid4().hex


class ServiceHandle(wire.Server):
    """A running broker service; stop() shuts down the listener and broker."""

    def __init__(self, service: BrokerService, host: str, port: int) -> None:
        self.service = service  # set first: requests are answered from the next line on
        super().__init__(host, port, _Handler)

    def stop(self) -> None:
        super().stop()
        self.service.close()


def serve(
    config: ServiceConfig,
    transport: Transport | None = None,
    clock: Callable[[], int] | None = None,
) -> ServiceHandle:
    """Start the broker service on the configured address.

    State is restored from the persistence file when one exists; a
    corrupt file, or one that does not fit the catalog, refuses startup
    with a SnapshotError naming it. A busy port raises OSError.
    """
    logging.getLogger("ctxbroker").setLevel(
        getattr(logging, config.log_level.upper(), logging.INFO)
    )
    host, port = config.host_port()
    service = BrokerService(config, transport=transport, clock=clock)
    try:
        return ServiceHandle(service, host, port)
    except OSError:
        service.close()
        raise
