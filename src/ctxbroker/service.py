"""Network-facing broker service: envelope routing over HTTP, callback
push, and a durable single file of registrations and subscriptions.

The persist file holds a base snapshot followed by a write-ahead
journal, one JSON mutation record per line. Each record is appended and
fsynced before the broker applies it, so an acknowledged mutation
survives a crash and a failed append changes nothing. A restart restores
the base and replays the records, reproducing the same registries,
selection states and id counters. The topic value cache is deliberately
not persisted; it refills from fresh publications.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import urllib.parse
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable

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


@dataclass
class Journal:
    """The journal part of a persist file, as ``load_snapshot`` found it,
    and the handle that appends to it."""

    records: list[dict[str, Any]] = field(default_factory=list)
    base_bytes: int = 0  # the base and its newline; 0 when there is no file
    end: int = 0  # the base and every whole record; a torn last line lies past it
    file: BinaryIO | None = None

    @property
    def tail_bytes(self) -> int:
        return self.end - self.base_bytes


def save_snapshot(path: str | Path, state: dict[str, Any]) -> None:
    """Write ``state`` as the base of an empty journal, atomically and
    durably: a temp file in the same directory, fsynced, renamed over the
    target, then the directory fsynced."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + ".tmp")
    with open(temp, "wb") as fh:
        fh.write(json.dumps(state, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.flush()
        os.fsync(fh.fileno())
    temp.replace(target)
    directory = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def load_snapshot(path: str | Path, journal: Journal | None = None) -> dict[str, Any] | None:
    """Read a persist file once and return its base state; None when the
    file is absent, SnapshotError when it is unreadable.

    With a ``journal``, the records after the base go to its ``records``. A last
    line that is cut short or does not parse is torn: it is dropped, and
    ``journal.end`` stops before it. A bad line anywhere earlier refuses
    the file.
    """
    target = Path(path)
    try:
        text = target.read_bytes().decode("utf-8")
    except (FileNotFoundError, NotADirectoryError):
        return None
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"corrupt snapshot file {target}: {exc}") from exc
    try:
        state, pos = json.JSONDecoder().raw_decode(text)
        for key in ("next_sub", "next_reg", "seq", "registrations", "subscriptions"):
            if key not in state:
                raise KeyError(key)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SnapshotError(f"corrupt snapshot file {target}: {exc}") from exc
    if text.startswith("\n", pos):
        pos += 1
    if journal is None:
        return state
    journal.base_bytes = journal.end = len(text[:pos].encode())
    while pos < len(text):
        newline = text.find("\n", pos)
        if newline < 0:  # cut short: the append that wrote it never returned
            log.warning("dropping the torn last line of %s", target)
            break
        line = text[pos:newline]
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise TypeError(f"a record is an object, not {type(record).__name__}")
        except (json.JSONDecodeError, TypeError) as exc:
            if newline + 1 < len(text):
                raise SnapshotError(f"corrupt journal record in {target}: {exc}") from exc
            log.warning("dropping the torn last line of %s", target)
            break
        journal.records.append(record)
        journal.end += len(line.encode()) + 1
        pos = newline + 1
    return state


class BrokerService:
    """Envelope-level request handling plus persistence, independent of HTTP.

    The HTTP frontend turns each request into one envelope for
    handle_request; tests and the crash-restart checks can drive it
    directly.
    """

    def __init__(self, config: ServiceConfig, transport: Transport | None = None) -> None:
        self.config = config
        # Without a persist path there is no journal: the broker builds no records.
        self._journal = None if config.persist_path is None else Journal()
        # Read before the broker starts its dispatch thread, so an
        # unreadable file leaves nothing running behind.
        state = None if self._journal is None else load_snapshot(config.persist_path, self._journal)
        # A transport passed in belongs to the caller; close() closes only its own.
        self._own_transport = None
        if transport is None:
            transport = self._own_transport = wire.HttpTransport(retry=config.retry)
        self.broker = ContextBroker(config.catalog, transport=transport,
                                    journal=None if self._journal is None else self._append)
        if state is not None:
            try:
                self.broker.restore_state(state)
                for record in self._journal.records:
                    self.broker.replay(record)
            except (KeyError, TypeError, ValueError, errors.BrokerError) as exc:
                self.broker.close()
                raise SnapshotError(
                    f"snapshot file {config.persist_path} does not fit: {exc!r}") from exc
            self._journal.records.clear()

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
            handler = ROUTES.get(kind) if isinstance(kind, str) else None
            if handler is None:
                raise errors.BadRequest(f"unsupported envelope kind {kind!r}")
            try:
                result = handler(self.broker, body)
            except (KeyError, TypeError, ValueError) as exc:
                raise errors.BadRequest(f"malformed {kind} body: {exc}") from exc
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
        """Stop the broker; a non-empty journal is first compacted into the base."""
        journal = self._journal
        if journal is not None:
            with self.broker._lock:  # no append between the capture and the rename
                if journal.file is not None:
                    journal.file.close()
                    journal.file = None
                if journal.tail_bytes:
                    try:
                        self._compact()
                    except OSError:
                        log.exception("compaction of %s failed; its journal keeps every record",
                                      self.config.persist_path)
        self.broker.close()
        if self._own_transport is not None:
            self._own_transport.close()

    # -- the write-ahead journal ------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        """The broker's journal hook: runs under the broker lock before the
        mutation is applied, and makes the record durable or raises."""
        journal = self._journal
        line = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        if journal.file is None or journal.tail_bytes > journal.base_bytes:
            self._open()
        handle, journal.file = journal.file, None  # reopened by the next append if this fails
        try:
            if handle.write(line) != len(line):
                raise OSError(errno.ENOSPC, "short write to the journal")
            os.fsync(handle.fileno())
        except OSError:
            try:  # a refused record must not outlive a crash; if this fails, _open cuts it
                os.ftruncate(handle.fileno(), journal.end)
            except OSError:
                pass
            handle.close()
            raise
        journal.file = handle
        journal.end += len(line)

    def _open(self) -> None:
        """Open the append handle. A missing base, or a tail grown past the
        base, is first rewritten into a new base; a torn last line is cut off."""
        journal = self._journal
        if journal.file is not None:
            journal.file.close()
            journal.file = None
        if not journal.base_bytes or journal.tail_bytes > journal.base_bytes:
            self._compact()
        handle = open(self.config.persist_path, "ab", buffering=0)  # a failed write leaves no buffer
        try:
            handle.truncate(journal.end)
        except OSError:
            handle.close()
            raise
        journal.file = handle

    def _compact(self) -> None:
        """Rewrite the base from the live state, leaving an empty journal.
        Runs under the broker lock."""
        # Until the new base is in place, the next append rewrites it again.
        self._journal.base_bytes = 0
        save_snapshot(self.config.persist_path, self.broker.snapshot_state())
        self._journal.base_bytes = self._journal.end = os.path.getsize(self.config.persist_path)


# -- the route table: one handler per envelope kind --------------------------
# ``wire.PATHS`` says how each kind arrives over HTTP.


def _subscribe(broker: ContextBroker, body: dict[str, Any]) -> dict[str, Any]:
    profile = RequirementProfile.from_dict(body["profile"])
    return {"subscription_id": broker.subscribe(
        body["consumer_id"], profile, body["callback_address"])}


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


ROUTES: dict[str, Callable[[ContextBroker, dict[str, Any]], dict[str, Any]]] = {
    "subscribe": _subscribe,
    "unsubscribe": _unsubscribe,
    "register": _register,
    "deregister": _deregister,
    "notify": _notify,
    "pull-current": _pull_current,
    "pull-last": _pull_last,
    "decision": lambda broker, body: {
        "decision": broker.get_decision(body["subscription_id"]).to_dict()},
    "find-services": lambda broker, body: {
        "service_ids": broker.find_context_services(body["topic"])},
    "find-consumers": lambda broker, body: {
        "subscription_ids": broker.find_context_consumers(body["topic"])},
    "drain": _drain,
}


class ServiceHandle(wire.Server):
    """A running broker service; stop() shuts down the listener and broker."""

    def __init__(self, service: BrokerService, host: str, port: int) -> None:
        self.service = service  # set first: requests are answered from the next line on
        super().__init__(host, port, self._route)

    def _route(self, method: str, target: str, headers: dict[bytes, bytes],
               body: bytes) -> tuple[int, dict[str, Any]]:
        """Answer one request through ``wire.PATHS``: a POST carries its
        envelope, a GET or DELETE has one built from its path."""
        path, _, query = target.partition("?")
        envelope: Any = wire.decode(body) if method == "POST" else None
        try:
            kind, fields = wire.match(wire.PATHS, method, path)
            if method != "POST":
                envelope = wire.make_envelope(kind, fields, _request_id(headers, query))
            elif isinstance(envelope, dict) and envelope.get("kind") != kind:
                raise errors.BadRequest(
                    f"endpoint expects kind {kind!r}, got {envelope.get('kind')!r}")
            response = self.service.handle_request(envelope)
        except errors.BrokerError as exc:
            request_id = envelope.get("request_id") if isinstance(envelope, dict) else None
            response = wire.error_envelope(str(request_id or _request_id(headers, query)), exc)
        if response["kind"] == "error":
            return wire.http_status_for(response["body"]["code"]), response
        return 200, response

    def stop(self) -> None:
        super().stop()
        self.service.close()


def _request_id(headers: dict[bytes, bytes], query: str) -> str:
    """The request's id: its ``X-Request-Id`` header, else its
    ``request_id`` query parameter, else a new one."""
    header = headers.get(b"x-request-id")
    if header:
        return header.decode("latin-1")
    found = urllib.parse.parse_qs(query).get("request_id")
    return found[0] if found else uuid.uuid4().hex


def serve(config: ServiceConfig, transport: Transport | None = None) -> ServiceHandle:
    """Start the broker service on the configured address.

    State is restored from the persistence file when one exists; a
    corrupt file, or one that does not fit the catalog, refuses startup
    with a SnapshotError naming it. A busy port raises OSError.
    """
    logging.getLogger("ctxbroker").setLevel(
        getattr(logging, config.log_level.upper(), logging.INFO)
    )
    host, port = config.host_port()
    service = BrokerService(config, transport=transport)
    try:
        return ServiceHandle(service, host, port)
    except OSError:
        service.close()
        raise
