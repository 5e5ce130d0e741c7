"""Wire message format and HTTP plumbing.

Every request travels as an envelope ``{"kind", "request_id", "body"}``
and receives exactly one ``ack`` or ``error`` envelope carrying the same
``request_id``. Bodies use the canonical serialized forms from
:mod:`ctxbroker.model`. Notifications and advisories are pushed to
consumer-supplied callback URLs as the same envelope shape.
Path templates and their quoting, the HTTP handler base and the server
live here, for the broker service and the simulated endpoints alike.
Pushes, pulls and WireClient requests reuse kept-alive HTTP/1.1
connections with TCP_NODELAY at both ends, replace an idle connection the
peer dropped, and resend a request only when sending it on a reused
connection failed, so no message is sent more often than on new ones.
"""

from __future__ import annotations

import functools
import http.client
import json
import logging
import re
import socket
import threading
import time
import urllib.parse
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from . import errors

log = logging.getLogger(__name__)


# Longest one message may hold the single dispatch thread, and so every
# later push: each attempt waiting out TRANSPORT_TIMEOUT_S, plus each delay.
MAX_RETRY_TOTAL_S = 60.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for callback delivery."""

    attempts: int = 3
    backoff_initial: float = 0.1
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.attempts, int) or self.attempts < 1:
            raise ValueError(f"retry attempts must be an integer, at least 1: {self.attempts!r}")
        if not all(0 <= b < float("inf") for b in (self.backoff_initial, self.backoff_multiplier)):
            raise ValueError(f"retry backoffs must be finite and at least 0: {self}")
        worst = self.attempts * TRANSPORT_TIMEOUT_S
        try:
            for attempt in range(1, self.attempts):
                if worst > MAX_RETRY_TOTAL_S:
                    break
                worst += self.delay(attempt)
        except OverflowError:
            worst = float("inf")
        if worst > MAX_RETRY_TOTAL_S:
            raise ValueError(f"retries must end within {MAX_RETRY_TOTAL_S:g} s per message: {self}")

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

# Seconds an HttpTransport, and a WireClient, wait on a peer's socket.
TRANSPORT_TIMEOUT_S = 5.0
CLIENT_TIMEOUT_S = 10.0

# Idle connections a pool keeps open to one peer; more are closed on
# return. The broker's exchanges with one peer are its dispatch thread's
# push plus one pull per handler answering pull-current: in a traced
# perfbench wire run (one peer, two clients) at most 2 were in flight.
_IDLE_PER_PEER = 4

# Linux's socket option that sends the next ACKs at once, where it exists.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

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
    timeout on silent sockets, and access lines at debug level.

    TCP_NODELAY is on, because an answer's headers and body leave in two
    sends: with Nagle's algorithm the body would wait for the client's
    delayed ACK of the headers, ~40 ms on a reused connection.
    """

    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_S
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("%s - %s", self.address_string(), format % args)


class Server(ThreadingHTTPServer):
    """An HTTP server answering on a daemon thread from construction
    until stop(); one more daemon thread per connection."""

    daemon_threads = True

    def __init__(self, host: str, port: int, handler: type[BaseHTTPRequestHandler]) -> None:
        self._open: set[socket.socket] = set()
        self._closed = threading.Condition()
        super().__init__((host, port), handler)
        self.host, self.port = str(self.server_address[0]), int(self.server_address[1])
        self._thread = threading.Thread(
            target=self.serve_forever, name="ctxbroker-http", daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._closed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        super().shutdown_request(request)
        with self._closed:
            self._open.discard(request)
            self._closed.notify_all()

    def stop(self) -> None:
        """Stop accepting, then end every open connection: a request being
        answered is finished, an idle kept-alive connection reads its end at
        once. Returns when no handler runs (or after 5 s)."""
        self.shutdown()
        with self._closed:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self._closed.wait_for(lambda: not self._open, timeout=5.0)
        self.server_close()
        self._thread.join(timeout=5.0)

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class _Pool:
    """Kept-alive HTTP/1.1 connections to many peers, the idle ones kept
    per ``(host, port)``.

    Each exchange takes a connection out for itself and puts it back
    after reading the whole answer, so two threads never share one. The
    most recently returned connection is taken first, and a connection
    idle for longer than ``READ_TIMEOUT_S`` is closed, so the pool holds
    about as many connections per peer as that peer has seen in flight
    at once lately, and none to a peer it no longer reaches.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[tuple[float, http.client.HTTPConnection]]] = {}
        self._swept = time.monotonic()

    def exchange(self, method: str, url: str, payload: dict[str, Any] | None) -> tuple[int, bytes]:
        """One HTTP exchange with a JSON body out; the status and the raw
        answer in. A failure closes the connection and raises, OSError for
        the transport. Only a request whose send failed on a reused
        connection is sent again, once, on a new one: the peer dropped that
        connection while it was idle, so it never read the request."""
        parts = urllib.parse.urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            # Unreachable like a refused connection: a push retries, a pull fails upstream.
            raise OSError(f"not an http URL: {url!r}")
        try:
            peer = (parts.hostname, parts.port or 80)
        except ValueError as exc:  # a port that is not a number or out of range
            raise OSError(f"bad port in {url!r}") from exc
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn, reused = self._take(peer)
        keep = False
        try:
            try:
                conn.request(method, target, body, headers)
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                conn.close()
                conn.request(method, target, body, headers)  # reconnects
            if _QUICKACK is not None:
                # A peer that writes headers and body in two sends, with
                # Nagle on, holds the body until the headers are acked.
                conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            response = conn.getresponse()
            raw = response.read()
            keep = not response.will_close
        finally:
            if keep:
                self._put(peer, conn)
            else:
                conn.close()
        return response.status, raw

    def _take(self, peer: tuple[str, int]) -> tuple[http.client.HTTPConnection, bool]:
        """An idle connection to ``peer`` the peer has not closed, or a new
        one; and whether it was reused."""
        with self._lock:
            idle = self._idle.get(peer, [])
            while idle:
                _, conn = idle.pop()
                if _alive(conn.sock):
                    return conn, True
                conn.close()
        # http.client sets TCP_NODELAY on each socket it connects.
        return http.client.HTTPConnection(*peer, timeout=self.timeout), False

    def _put(self, peer: tuple[str, int], conn: http.client.HTTPConnection) -> None:
        """Keep ``conn`` idle for ``peer``, unless ``_IDLE_PER_PEER`` wait
        already; and, once per ``READ_TIMEOUT_S``, close every connection
        idle for longer than that, whichever its peer."""
        now = time.monotonic()
        closing = []
        with self._lock:
            idle = self._idle.setdefault(peer, [])
            if len(idle) < _IDLE_PER_PEER:
                idle.append((now, conn))
            else:
                closing.append(conn)
            if now - self._swept >= READ_TIMEOUT_S:
                self._swept = now
                for key, entries in list(self._idle.items()):
                    kept = [entry for entry in entries if now - entry[0] < READ_TIMEOUT_S]
                    closing += [c for since, c in entries if now - since >= READ_TIMEOUT_S]
                    if kept:
                        self._idle[key] = kept
                    else:
                        del self._idle[key]
        for stale in closing:
            stale.close()

    def close(self) -> None:
        """Close every idle connection; later exchanges open new ones."""
        with self._lock:
            idle = [conn for entries in self._idle.values() for _, conn in entries]
            self._idle.clear()
        for conn in idle:
            conn.close()


def _alive(sock: socket.socket) -> bool:
    """Whether an idle socket can carry the next request: nothing to read
    on it yet. The peer closed a readable one (or sent what nobody asked
    for)."""
    timeout = sock.gettimeout()
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    finally:
        sock.settimeout(timeout)
    return False


class HttpTransport:
    """Reaches consumers and services over plain HTTP.

    Callback addresses are full URLs accepting POSTed envelopes; service
    addresses are URL prefixes answering ``GET <prefix>/topics/<topic>``
    with a sample document. Pushes and pulls share one pool of kept-alive
    connections, closed by close().
    """

    def __init__(self, retry: RetryPolicy | None = None) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self._pool = _Pool(TRANSPORT_TIMEOUT_S)

    def push(self, callback_address: str, message: dict[str, Any]) -> DeliveryStatus:
        """POST a push envelope to a consumer callback URL, with bounded retry.

        Connection failures and other answers are retried, but a 4xx answer
        drops the message at once. Returns a status instead of raising:
        exhausted retries mean the message is dropped (and logged) rather
        than redelivered later.
        """
        policy = self.retry
        for attempt in range(1, policy.attempts + 1):
            if attempt > 1:
                time.sleep(policy.delay(attempt - 1))
            try:
                status, _ = self._pool.exchange("POST", callback_address, message)
            except OSError as exc:
                log.debug("push attempt %d to %s failed: %s", attempt, callback_address, exc)
                continue
            if 200 <= status < 300:
                return DeliveryStatus(delivered=True, attempts=attempt)
            if 400 <= status < 500:
                return DeliveryStatus(delivered=False, attempts=attempt)
        return DeliveryStatus(delivered=False, attempts=policy.attempts)

    def pull(self, service_address: str, topic: str) -> dict[str, Any]:
        url = service_address.rstrip("/") + fill("/topics/{topic}", {"topic": topic})
        try:
            status, raw = self._pool.exchange("GET", url, None)
            if status == 200:
                return json.loads(raw or b"{}")
        except (OSError, ValueError) as exc:  # unreachable, or an answer that is not JSON
            raise errors.UpstreamUnavailable(
                f"pull from {service_address!r} failed: {exc}"
            ) from exc
        raise errors.UpstreamUnavailable(
            f"pull from {service_address!r} answered HTTP {status}"
        )

    def close(self) -> None:
        self._pool.close()


class WireError(Exception):
    """A structured error envelope received from the broker service."""

    def __init__(self, envelope: dict[str, Any]) -> None:
        body = envelope.get("body", {})
        super().__init__(body.get("message", "request failed"))
        self.envelope = envelope
        self.code = body.get("code", "BAD_REQUEST")
        self.body = body


class WireClient:
    """Thin synchronous client for the broker service endpoints, over
    kept-alive connections that close() (or leaving a ``with``) closes."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")
        self._pool = _Pool(CLIENT_TIMEOUT_S)

    def exchange(
        self, method: str, path: str, envelope: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Send one request, return its response envelope (ack or raise);
        a transport failure raises OSError."""
        status, raw = self._pool.exchange(method, self.base_url + path, envelope)
        if 200 <= status < 300:
            response = json.loads(raw or b"{}")
        else:
            text = raw.decode("utf-8", errors="replace")
            try:
                response = json.loads(text)
            except json.JSONDecodeError:
                response = {"kind": "error", "request_id": "",
                            "body": {"code": "BAD_REQUEST", "message": text[:200]}}
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

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> WireClient:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
