"""Wire message format and HTTP plumbing.

Every request travels as an envelope ``{"kind", "request_id", "body"}``
and receives exactly one ``ack`` or ``error`` envelope carrying the same
``request_id``. Bodies use the canonical serialized forms from
:mod:`ctxbroker.model`. Notifications and advisories are pushed to
consumer-supplied callback URLs as the same envelope shape.
Path templates and their quoting, the HTTP handler base and the server
live here, for the broker service and the simulated endpoints alike.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from . import errors

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for callback delivery."""

    attempts: int = 3
    backoff_initial: float = 0.1
    backoff_multiplier: float = 2.0

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (counted from 1)."""
        return self.backoff_initial * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class DeliveryStatus:
    delivered: bool
    attempts: int


# Largest request body an HTTP handler reads; a longer declared body is
# refused before any of it is read.
MAX_BODY_BYTES = 1 << 20

# Seconds an HTTP handler waits on a silent client socket, mid-body or
# between keep-alive requests, before it drops the connection.
READ_TIMEOUT_S = 10.0

# How each request kind travels over HTTP: verb and path template. A
# template's {fields} are body keys; a POST carries the envelope instead.
PATHS: dict[str, tuple[str, str]] = {
    "subscribe": ("POST", "/subscriptions"),
    "unsubscribe": ("DELETE", "/subscriptions/{subscription_id}"),
    "register": ("POST", "/registrations"),
    "deregister": ("DELETE", "/registrations/{registration_id}"),
    "notify": ("POST", "/notify"),
    "pull-current": ("GET", "/subscriptions/{subscription_id}/topics/{topic}/current"),
    "pull-last": ("GET", "/subscriptions/{subscription_id}/topics/{topic}/last"),
    "decision": ("GET", "/subscriptions/{subscription_id}/decision"),
    "find-services": ("GET", "/topics/{topic}/services"),
    "find-consumers": ("GET", "/topics/{topic}/consumers"),
    "drain": ("POST", "/debug/drain"),
}


@functools.cache
def _pattern(template: str) -> re.Pattern[str]:
    """A path template compiled once: each {name} matches one path segment."""
    return re.compile(re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template))


def match(paths: dict[str, tuple[str, str]], verb: str, path: str) -> tuple[str, dict[str, str]]:
    """The kind whose ``(verb, template)`` row serves ``verb path``, with
    each field unquoted; NotFound when no row does."""
    for kind, (row_verb, template) in paths.items():
        found = _pattern(template).fullmatch(path) if row_verb == verb else None
        if found:
            return kind, {k: urllib.parse.unquote(v) for k, v in found.groupdict().items()}
    raise errors.NotFound(f"no route for {verb} {path}")


def fill(template: str, fields: dict[str, Any]) -> str:
    """The inverse of ``match``: each {field} of ``template`` replaced by
    its value, percent-encoded as one path segment (``/`` becomes ``%2F``)."""
    return template.format_map({k: urllib.parse.quote(str(v), safe="") for k, v in fields.items()})


def make_envelope(kind: str, body: dict[str, Any], request_id: str | None = None) -> dict[str, Any]:
    return {
        "kind": kind,
        "request_id": request_id if request_id is not None else uuid.uuid4().hex,
        "body": body,
    }


def ack(request_id: str, body: dict[str, Any] | None = None) -> dict[str, Any]:
    return {"kind": "ack", "request_id": request_id, "body": body or {}}


def error_envelope(request_id: str, exc: errors.BrokerError) -> dict[str, Any]:
    return {"kind": "error", "request_id": request_id, "body": exc.to_body()}


def http_status_for(code: str) -> int:
    return {
        "BAD_REQUEST": 400,
        "NOT_FOUND": 404,
        "CONFLICT": 409,
        "UNREGISTERED": 403,
        "NOT_SUBSCRIBED": 403,
        "NO_PROVIDER": 503,
        "NO_VALUE_YET": 404,
        "UPSTREAM_UNAVAILABLE": 502,
    }.get(code, 500)


def decode(raw: bytes) -> Any:
    """The JSON document in a request body; None when empty or unparseable."""
    try:
        return json.loads(raw.decode("utf-8")) if raw else None
    except ValueError:
        return None


def read_body(handler: BaseHTTPRequestHandler) -> bytes:
    """Read the request body of the declared ``Content-Length``.

    A length that is not an integer, is negative or exceeds
    ``MAX_BODY_BYTES`` raises BadRequest without reading the body, and
    marks the connection to close: its unread bytes cannot be parsed as
    the next request.
    """
    declared = handler.headers.get("Content-Length") or "0"
    try:
        length = int(declared)
    except ValueError:
        length = -1
    if not 0 <= length <= MAX_BODY_BYTES:
        handler.close_connection = True
        raise errors.BadRequest(
            f"Content-Length must be an integer from 0 to {MAX_BODY_BYTES}, got {declared!r}")
    return handler.rfile.read(length) if length else b""


def send_json(handler: BaseHTTPRequestHandler, status: int, payload: Any) -> None:
    """Answer the request with ``payload`` as a JSON document."""
    data = json.dumps(payload).encode("utf-8")
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(data)))
    if handler.close_connection:
        handler.send_header("Connection", "close")
    handler.end_headers()
    handler.wfile.write(data)


class JsonHandler(BaseHTTPRequestHandler):
    """Base of every HTTP handler here: keep-alive HTTP/1.1, a read
    timeout on silent sockets, and access lines at debug level."""

    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_S

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("%s - %s", self.address_string(), format % args)


class Server(ThreadingHTTPServer):
    """An HTTP server answering on a daemon thread from construction
    until stop(); one more daemon thread per connection."""

    daemon_threads = True

    def __init__(self, host: str, port: int, handler: type[BaseHTTPRequestHandler]) -> None:
        super().__init__((host, port), handler)
        self.host, self.port = str(self.server_address[0]), int(self.server_address[1])
        self._thread = threading.Thread(
            target=self.serve_forever, name="ctxbroker-http", daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5.0)

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def _request_json(
    method: str, url: str, payload: dict[str, Any] | None, timeout: float
) -> tuple[int, dict[str, Any]]:
    """One HTTP exchange with JSON in and out; 4xx/5xx bodies are returned,
    transport-level failures raise OSError."""
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8") or "{}")
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8", errors="replace")
        try:
            return exc.code, json.loads(raw)
        except json.JSONDecodeError:
            return exc.code, {"kind": "error", "request_id": "",
                              "body": {"code": "BAD_REQUEST", "message": raw[:200]}}


def push_notification(
    callback_address: str,
    envelope: dict[str, Any],
    retry: RetryPolicy | None = None,
    timeout: float = 5.0,
) -> DeliveryStatus:
    """POST a push envelope to a consumer callback URL, with bounded retry.

    Connection failures and other answers are retried, but a 4xx answer
    drops the message at once. Returns a status instead of raising:
    exhausted retries mean the message is dropped (and logged) rather
    than redelivered later.
    """
    policy = retry if retry is not None else RetryPolicy()
    for attempt in range(1, policy.attempts + 1):
        if attempt > 1:
            time.sleep(policy.delay(attempt - 1))
        try:
            status, _ = _request_json("POST", callback_address, envelope, timeout)
        except (OSError, urllib.error.URLError) as exc:
            log.debug("push attempt %d to %s failed: %s", attempt, callback_address, exc)
            continue
        if 200 <= status < 300:
            return DeliveryStatus(delivered=True, attempts=attempt)
        if 400 <= status < 500:
            return DeliveryStatus(delivered=False, attempts=attempt)
    return DeliveryStatus(delivered=False, attempts=policy.attempts)


class HttpTransport:
    """Reaches consumers and services over plain HTTP.

    Callback addresses are full URLs accepting POSTed envelopes; service
    addresses are URL prefixes answering ``GET <prefix>/topics/<topic>``
    with a sample document.
    """

    def __init__(self, retry: RetryPolicy | None = None, timeout: float = 5.0) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout

    def push(self, callback_address: str, message: dict[str, Any]) -> DeliveryStatus:
        return push_notification(callback_address, message, self.retry, self.timeout)

    def pull(self, service_address: str, topic: str) -> dict[str, Any]:
        url = service_address.rstrip("/") + fill("/topics/{topic}", {"topic": topic})
        try:
            status, payload = _request_json("GET", url, None, self.timeout)
        except (OSError, urllib.error.URLError) as exc:
            raise errors.UpstreamUnavailable(
                f"pull from {service_address!r} failed: {exc}"
            ) from exc
        if status != 200:
            raise errors.UpstreamUnavailable(
                f"pull from {service_address!r} answered HTTP {status}"
            )
        return payload


class WireError(Exception):
    """A structured error envelope received from the broker service."""

    def __init__(self, envelope: dict[str, Any]) -> None:
        body = envelope.get("body", {})
        super().__init__(body.get("message", "request failed"))
        self.envelope = envelope
        self.code = body.get("code", "BAD_REQUEST")
        self.body = body


class WireClient:
    """Thin synchronous client for the broker service endpoints."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def exchange(
        self, method: str, path: str, envelope: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Send one request, return its response envelope (ack or raise)."""
        _, response = _request_json(method, self.base_url + path, envelope, self.timeout)
        if response.get("kind") == "error":
            raise WireError(response)
        return response

    def request(
        self, kind: str, body: dict[str, Any], request_id: str | None = None
    ) -> dict[str, Any]:
        """Send one request of ``kind`` the way ``PATHS`` routes it; return
        the ack body. A POST carries the envelope; a GET or DELETE puts the
        body's values into the path."""
        verb, template = PATHS[kind]
        if verb == "POST":
            return self.exchange(verb, template, make_envelope(kind, body, request_id))["body"]
        path = fill(template, body)
        if request_id is not None:
            path += "?request_id=" + urllib.parse.quote(request_id, safe="")
        return self.exchange(verb, path)["body"]

    def find_services(self, topic: str) -> list[str]:
        return self.request("find-services", {"topic": topic})["service_ids"]
