"""Wire message format and HTTP plumbing.

Every request travels as an envelope ``{"kind", "request_id", "body"}``
and receives exactly one ``ack`` or ``error`` envelope carrying the same
``request_id``. Bodies use the canonical serialized forms from
:mod:`ctxbroker.model`. Notifications and advisories are pushed to
consumer-supplied callback URLs as the same envelope shape.
Path templates and their quoting and the HTTP server live here, for the
broker service and the simulated endpoints alike: a route is a function
from a request's method, target, header fields and body to its status
and JSON payload. One reader, _Conn, frames HTTP/1.1 messages (RFC 9112)
in both directions: the server's requests and the client's answers.
Pushes, pulls and WireClient requests reuse kept-alive HTTP/1.1
connections with TCP_NODELAY at both ends and replace an idle connection
the peer dropped. HttpTransport.push_many pipelines consecutive pushes to
one host: each run of them, at most one per callback address and
``_RUN_BYTES`` in all, leaves in one write and its answers are read in
order. A push is sent again within its attempt only when the peer cannot
have read it: the send on a reused connection failed, or an earlier
answer closed the connection. Every other failure spends an attempt, and
later attempts go alone, so no message is sent more often than its retry
policy allows. A request, and an answer, leave in one write. Neither
side reads a body longer than ``MAX_BODY_BYTES``.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import socket
import threading
import time
import urllib.parse
import uuid
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Callable

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
        if any(isinstance(v, bool) for v in (self.attempts, self.backoff_initial,
                                              self.backoff_multiplier)):
            raise ValueError(f"retry fields must be numbers, not booleans: {self}")
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


# Largest body a Server reads from a request, and a client from an
# answer; a longer one is read no further than it takes to tell.
MAX_BODY_BYTES = 1 << 20

# Seconds a Server waits on a silent client socket, mid-request or
# between keep-alive requests, before it drops the connection.
READ_TIMEOUT_S = 10.0

# Seconds an HttpTransport, and a WireClient, wait on a peer's socket.
TRANSPORT_TIMEOUT_S = 5.0
CLIENT_TIMEOUT_S = 10.0

# Idle connections a pool keeps open to one peer; more are closed on
# return. The broker's exchanges with one peer are its dispatch thread's
# push plus one pull per connection thread answering pull-current: in a traced
# perfbench wire run (one peer, two clients) at most 2 were in flight.
_IDLE_PER_PEER = 4

# Linux's socket option that sends the next ACKs at once, where it exists.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

# Request bytes one pipelined run of pushes may hold. The run leaves in
# one sendall before any answer is read, so it must fit in the peer's
# socket receive buffer (Linux: 128 KiB by default) even when the peer,
# blocked writing answers nobody reads yet, reads no more of it.
_RUN_BYTES = 64 * 1024

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
        "UNAVAILABLE": 503,
    }.get(code, 500)


def decode(raw: bytes) -> Any:
    """The JSON document in a request body; None when empty or unparseable."""
    try:
        return json.loads(raw.decode("utf-8")) if raw else None
    except ValueError:
        return None


# Open connections one Server answers at once, each on a thread of its
# own. The accept thread answers one more with 503 and closes it.
MAX_CONNECTIONS = 64

# How a Server answers a request: its method, target, header fields (by
# lower-case name) and body in; its status and JSON payload out.
Route = Callable[[str, str, dict[bytes, bytes], bytes], tuple[int, Any]]


class Server:
    """An HTTP/1.1 server answering through ``route`` on a daemon thread
    from construction until stop(); one more daemon thread per open
    connection, at most ``MAX_CONNECTIONS``.

    Each connection reads its requests with _Conn and sends each answer
    in one write, with TCP_NODELAY on. It carries the next request unless
    the last was HTTP/1.0 or said ``Connection: close``. A malformed
    request is answered 400, one with ``Transfer-Encoding`` 501, and the
    connection closes: its unread bytes cannot be framed as the next
    request. A connection silent for ``timeout`` s, mid-request or between
    requests, closes without an answer.
    """

    def __init__(self, host: str, port: int, route: Route) -> None:
        self.route = route
        self.timeout = READ_TIMEOUT_S
        self._open: set[socket.socket] = set()
        self._closed = threading.Condition()
        self._stopped = False
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept, name="ctxbroker-http", daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _accept(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:
                if self._stopped:
                    return
                time.sleep(0.01)  # out of descriptors, say: the backlog waits
                continue
            with self._closed:
                admitted = len(self._open) < MAX_CONNECTIONS
                if admitted:
                    self._open.add(sock)
            if admitted:
                threading.Thread(target=self._serve, args=(sock, address[0]), daemon=True).start()
                continue
            busy = errors.Unavailable(f"{MAX_CONNECTIONS} connections are open already")
            try:
                sock.sendall(_answer(503, error_envelope(uuid.uuid4().hex, busy), False))
            except OSError:
                pass
            _end_writes(sock)
            sock.close()

    def _serve(self, sock: socket.socket, client: str) -> None:
        """Answer the requests of one connection until it closes."""
        conn = _Conn(sock)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.timeout)
            keep = True
            while keep:
                try:
                    request = conn.request()
                except (TimeoutError, ConnectionError):
                    return
                except OSError as exc:  # malformed or cut short
                    method = target = "-"
                    status, keep = getattr(exc, "status", 400), False
                    payload = error_envelope(uuid.uuid4().hex, errors.BadRequest(str(exc)))
                else:
                    if request is None:  # the peer ended the connection
                        return
                    method, target, fields, body, keep = request
                    status, payload = self.route(method, target, fields, body)
                if log.isEnabledFor(logging.DEBUG):
                    log.debug('%s - "%s %s" %d', client, method, target, status)
                sock.sendall(_answer(status, payload, keep))
        except OSError:
            pass  # the peer left before its answer
        finally:
            _end_writes(sock)
            conn.close()
            with self._closed:
                self._open.discard(sock)
                self._closed.notify_all()

    def stop(self) -> None:
        """Stop accepting, then end every open connection: a request being
        answered is finished, an idle kept-alive connection reads its end at
        once. Returns when no connection is open (or after 5 s)."""
        self._stopped = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept thread (Linux)
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        self._listener.close()
        with self._closed:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self._closed.wait_for(lambda: not self._open, timeout=5.0)

    def __enter__(self) -> Server:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def _end_writes(sock: socket.socket) -> None:
    """End what ``sock`` sends, before closing it. Closing a socket with
    unread input, such as a refused request's body, resets the connection:
    the peer then reads the reset where the end of the stream should
    follow the answer. Sent first, the end of the stream comes first."""
    try:
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def _answer(status: int, payload: Any, keep: bool) -> bytes:
    """An answer's bytes: status line, headers and ``payload`` as its JSON
    body, to leave in one write; ``keep`` false says the connection closes."""
    data = json.dumps(payload).encode()
    close = "" if keep else "Connection: close\r\n"
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n{close}\r\n")
    return head.encode("ascii") + data


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """``second`` as an HTTP date (RFC 9110 5.6.7), made once per second."""
    t = time.gmtime(second)
    return "%s, %02d %s %d %02d:%02d:%02d GMT" % (
        "MonTueWedThuFriSatSun"[3 * t.tm_wday:][:3], t.tm_mday,
        "JanFebMarAprMayJunJulAugSepOctNovDec"[3 * t.tm_mon - 3:][:3], t.tm_year,
        t.tm_hour, t.tm_min, t.tm_sec)


class _BodyTooLong(OSError):
    """An answer with a body over ``MAX_BODY_BYTES``, read no further."""

    def __init__(self, status: int) -> None:
        super().__init__(f"answer {status} has a body over {MAX_BODY_BYTES} bytes")
        self.status = status


class _Refused(OSError):
    """A request the server answers with ``status`` and reads no further."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# A token (RFC 9110 5.6.2): a method, or a field name.
_TOKEN = rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_REQUEST_LINE = re.compile(rb"(%s) ([!-~]+) HTTP/1\.([01])" % _TOKEN)
_FIELD_LINE = re.compile(rb"(%s):(.*)" % _TOKEN)
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d\d\d)(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")
# Any character but visible ASCII: a URL that holds one is refused.
_NOT_URL = re.compile(r"[^!-~]")


class _Conn:
    """One kept-alive HTTP/1.1 connection: a socket with TCP_NODELAY, and
    one buffered reader for every message it receives, answers on a
    client's connection and requests on a server's. Both directions frame
    messages the same way (RFC 9112) and raise OSError for a malformed or
    cut one; no line is read past 64 KiB, no head past 100 lines, no
    body past ``MAX_BODY_BYTES``."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    @classmethod
    def connect(cls, peer: tuple[str, int], timeout: float) -> _Conn:
        sock = socket.create_connection(peer, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def answer(self) -> tuple[int, bytes, bool]:
        """Read the next answer, after any 1xx interim ones: its status,
        its body, and whether the connection may carry another request. One
        whose body exceeds ``MAX_BODY_BYTES`` raises _BodyTooLong."""
        status = 100
        while 100 <= status < 200:
            line = self._line()
            status_line = _STATUS_LINE.fullmatch(line)
            if not status_line:
                raise OSError(f"malformed status line {line[:80]!r}")
            status, fields = int(status_line[2]), self._fields()
        keep = status_line[1] == b"1" and b"close" not in fields.get(b"connection", b"").lower()
        coding, length = fields.get(b"transfer-encoding"), fields.get(b"content-length")
        if status in (204, 304):
            return status, b"", keep
        if coding is not None and coding.rsplit(b",", 1)[-1].strip().lower() == b"chunked":
            return status, self._chunked(status), keep
        if coding is None and length is not None:
            size = _length(length)
            if size < 0:
                raise OSError(f"malformed Content-Length {length[:40]!r}")
            if size > MAX_BODY_BYTES:
                raise _BodyTooLong(status)
            return status, self._read(size), keep
        body = self.reader.read(MAX_BODY_BYTES + 1)  # delimited by the end of the stream
        if len(body) > MAX_BODY_BYTES:
            raise _BodyTooLong(status)
        return status, body, False

    def request(self) -> tuple[str, str, dict[bytes, bytes], bytes, bool] | None:
        """Read the next request: its method, target, header fields, body,
        and whether the connection may carry another; None when the peer
        ended the connection before it. A request that frames its body with
        ``Transfer-Encoding`` raises _Refused(501): no client here sends
        one, and a body left unread would be framed as the next request.
        A ``Content-Length`` over ``MAX_BODY_BYTES`` is malformed too."""
        line = self.reader.readline(65536)
        if not line:
            return None
        request_line = _REQUEST_LINE.fullmatch(line.rstrip(b"\r\n"))
        if not request_line or not line.endswith(b"\n"):
            raise OSError(f"malformed request line {line[:80]!r}")
        fields = self._fields()
        if b"transfer-encoding" in fields:
            raise _Refused(501, "Transfer-Encoding is not supported: send a Content-Length")
        length = fields.get(b"content-length", b"0")
        size = _length(length)
        if not 0 <= size <= MAX_BODY_BYTES:
            raise OSError(f"Content-Length must be an integer from 0 to {MAX_BODY_BYTES}, "
                          f"got {length.decode('latin-1')!r}")
        http_1_1 = request_line[3] == b"1"
        if http_1_1 and size and fields.get(b"expect", b"").lower() == b"100-continue":
            self.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        keep = http_1_1 and b"close" not in fields.get(b"connection", b"").lower()
        return (request_line[1].decode("ascii"), request_line[2].decode("ascii"), fields,
                self._read(size), keep)

    def _fields(self) -> dict[bytes, bytes]:
        """Header (or trailer) fields up to the empty line, by lower-case
        name; a repeated field's values joined by commas. A line that is
        not ``name:value``, such as a folded one, is malformed."""
        fields: dict[bytes, bytes] = {}
        for _ in range(100):  # like the stdlib, the empty line counts
            line = self._line()
            if not line:
                return fields
            field = _FIELD_LINE.fullmatch(line)
            if not field:
                raise OSError(f"malformed field line {line[:80]!r}")
            name, value = field[1].lower(), field[2].strip(b" \t")
            fields[name] = fields[name] + b"," + value if name in fields else value
        raise OSError("more than 100 header lines")

    def _chunked(self, status: int) -> bytes:
        """A chunked body; its trailer fields are dropped."""
        body = bytearray()
        while True:
            size = self._line().partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise OSError(f"malformed chunk size {size[:40]!r}")
            if len(body) + int(size, 16) > MAX_BODY_BYTES:
                raise _BodyTooLong(status)
            if not int(size, 16):
                self._fields()
                return bytes(body)
            body += self._read(int(size, 16))
            if self._line():
                raise OSError("chunk longer than its size")

    def _line(self) -> bytes:
        """The next line, without its CRLF (or bare LF)."""
        line = self.reader.readline(65536)
        if not line.endswith(b"\n"):
            raise OSError(f"message cut short, or a line over 64 KiB: {line[:80]!r}")
        return line.rstrip(b"\r\n")

    def _read(self, size: int) -> bytes:
        """The next ``size`` bytes of a body."""
        data = self.reader.read(size)
        if len(data) < size:
            raise OSError(f"body cut short at {len(data)} of {size} bytes")
        return data


def _length(value: bytes) -> int:
    """A Content-Length value as a number: -1 when it is not 1*DIGIT, and
    at most ``MAX_BODY_BYTES + 1``, so no long run of digits is converted."""
    if not value.isdigit():
        return -1
    return int(value) if len(value) <= 16 else MAX_BODY_BYTES + 1


# A request as a pool sends it: its peer ``(host, port)`` and its bytes.
_Request = tuple[tuple[str, int], bytes]

# An answer as a pool reads it: its status and raw body, or the OSError
# that lost it.
_Answer = tuple[int, bytes] | OSError


def _request(method: str, url: str, payload: dict[str, Any] | None) -> _Request:
    """The peer ``(host, port)`` of ``url`` and the bytes of one request to
    it, with ``payload`` as its JSON body. A URL that is not plain http
    raises OSError: unreachable like a refused connection, so a push
    retries and a pull fails upstream."""
    parts = urllib.parse.urlsplit(url)
    if parts.scheme != "http" or not parts.hostname or _NOT_URL.search(url):
        raise OSError(f"not an http URL: {url!r}")
    try:
        peer = (parts.hostname, parts.port or 80)
    except ValueError as exc:  # a port that is not a number or out of range
        raise OSError(f"bad port in {url!r}") from exc
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    head = (f"{method} {target} HTTP/1.1\r\nHost: {parts.netloc.rpartition('@')[2]}\r\n"
            "Accept: application/json\r\n")
    if payload is not None:
        # json.dumps escapes every non-ASCII character: one char, one byte.
        text = json.dumps(payload)
        head += f"Content-Type: application/json\r\nContent-Length: {len(text)}\r\n\r\n{text}"
    else:
        head += "\r\n"
    return peer, head.encode("ascii")


class _Pool:
    """Kept-alive HTTP/1.1 connections to many peers, the idle ones kept
    per ``(host, port)``.

    Each exchange, or pipelined run, takes a connection out for itself
    and puts it back after reading all its answers, so two threads never
    share one. The most recently returned connection is taken first, and
    a connection idle for longer than ``READ_TIMEOUT_S`` is closed, so the
    pool holds
    about as many connections per peer as that peer has seen in flight
    at once lately, and none to a peer it no longer reaches.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[tuple[float, _Conn]]] = {}
        self._swept = time.monotonic()

    def exchange(self, method: str, url: str, payload: dict[str, Any] | None) -> tuple[int, bytes]:
        """One HTTP exchange with a JSON body out; the status and the raw
        answer in: ``pipeline`` with one request, raising the OSError that
        lost its answer (_BodyTooLong for one over ``MAX_BODY_BYTES``)."""
        peer, data = _request(method, url, payload)
        [answer] = self.pipeline(peer, [data])
        if isinstance(answer, OSError):
            raise answer
        return answer

    def pipeline(self, peer: tuple[str, int], requests: list[bytes]) -> list[_Answer]:
        """Send ``requests`` to ``peer`` in one write on one connection and
        read their answers in order (HTTP/1.1 pipelining, RFC 9112 9.3.2).

        Each request gets its status and raw answer, or the OSError that
        lost it: a failed connect or send loses every answer, a failed read
        that answer and every later one. An answer over ``MAX_BODY_BYTES``
        is _BodyTooLong, and the later ones are lost. After an answer that
        closes the connection the peer reads no further, so the list stops
        short of the requests it cut off. A failure closes the connection.
        Only requests whose send failed on a reused connection are sent
        again, once, on a new one: the peer dropped that connection while
        it was idle, so it never read them.
        """
        answers: list[_Answer] = []
        conn = None
        keep = False
        try:
            conn, reused = self._take(peer)
            data = b"".join(requests)
            try:
                conn.sock.sendall(data)
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                conn.close()
                conn = _Conn.connect(peer, self.timeout)
                conn.sock.sendall(data)
            if _QUICKACK is not None:
                # A peer that writes headers and body in two sends, with
                # Nagle on, holds the body until the headers are acked.
                conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            for _ in requests:
                keep = False  # until this answer is read whole
                status, raw, keep = conn.answer()
                answers.append((status, raw))
                if not keep:
                    break
        except OSError as exc:
            keep = False
            answers.append(exc)
            lost = OSError(f"answer lost with its connection: {exc}")
            answers += [lost] * (len(requests) - len(answers))
        finally:
            if conn is not None:
                if keep:
                    self._put(peer, conn)
                else:
                    conn.close()
        return answers

    def _take(self, peer: tuple[str, int]) -> tuple[_Conn, bool]:
        """An idle connection to ``peer`` the peer has not closed, or a new
        one; and whether it was reused."""
        with self._lock:
            idle = self._idle.get(peer, [])
            while idle:
                _, conn = idle.pop()
                if _alive(conn):
                    return conn, True
                conn.close()
        return _Conn.connect(peer, self.timeout), False

    def _put(self, peer: tuple[str, int], conn: _Conn) -> None:
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


def _alive(conn: _Conn) -> bool:
    """Whether an idle connection can carry the next request: nothing to
    read on it yet, on its socket or held by its reader. The peer closed
    a readable one (or sent what nobody asked for)."""
    sock = conn.sock
    timeout = sock.gettimeout()
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return not conn.reader.peek(1)  # does not block: the socket is non-blocking
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
        """POST a push envelope to a consumer callback URL: push_many of one."""
        return self.push_many([(callback_address, message)])[0]

    def push_many(self, items: list[tuple[str, dict[str, Any]]]) -> list[DeliveryStatus]:
        """POST each ``(callback_address, message)`` in order, with bounded
        retry; one status per item, never raising.

        Consecutive messages to one ``(host, port)`` leave as one pipelined
        run, one write on one kept-alive connection, holding each address
        at most once and at most ``_RUN_BYTES`` of requests (a longer
        request goes alone). A 2xx answer delivers its message and a 4xx
        drops it, after 1 attempt; an answer over ``MAX_BODY_BYTES`` counts
        by its status and is not resent, since the consumer has the
        message. A 5xx or lost answer spends attempt 1, and that message
        retries alone from attempt 2 before the next run leaves, so no
        later message to its address overtakes it. The messages an answer
        that closes the connection cut off, which the peer never read,
        lead the next run at once as attempt 1, and that peer's runs hold
        one message for the rest of the batch. Exhausted retries drop the
        message (the dispatcher logs it) rather than redeliver it later.
        """
        requests: list[_Request | None] = []
        statuses: list[DeliveryStatus] = []
        closing: set[tuple[str, int]] = set()
        while len(statuses) < len(items):
            start = len(statuses)
            end = _run_end(items, requests, start, closing)
            first = requests[start]
            if first is None:  # not an http URL, or a body JSON cannot encode
                statuses.append(self._retry(*items[start], 1))
                continue
            peer = first[0]
            answers = self._pool.pipeline(peer, [requests[i][1] for i in range(start, end)])
            if len(answers) < end - start:
                closing.add(peer)
            for (address, message), answer in zip(items[start:end], answers):
                settled = _settled(answer, 1)
                if settled is None:
                    log.debug("push attempt 1 to %s failed: %s", address, answer)
                    settled = self._retry(address, message, 2)
                statuses.append(settled)
        return statuses

    def _retry(self, address: str, message: dict[str, Any], first: int) -> DeliveryStatus:
        """Send one message alone from attempt ``first`` on, each attempt
        after the first behind its policy delay."""
        policy = self.retry
        for attempt in range(first, policy.attempts + 1):
            if attempt > 1:
                time.sleep(policy.delay(attempt - 1))
            try:
                answer: _Answer = self._pool.exchange("POST", address, message)
            except OSError as exc:
                answer = exc
            except (TypeError, ValueError):  # json.dumps: never sent, so 0 attempts
                log.exception("cannot encode %s for %s", message.get("kind"), address)
                return DeliveryStatus(delivered=False, attempts=0)
            settled = _settled(answer, attempt)
            if settled is not None:
                return settled
            log.debug("push attempt %d to %s failed: %s", attempt, address, answer)
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


def _run_end(items: list[tuple[str, dict[str, Any]]], requests: list[_Request | None],
             start: int, closing: set[tuple[str, int]]) -> int:
    """Where the run of pushes from ``start`` ends: before the first later
    request to another peer, to an address already in the run, or past
    ``_RUN_BYTES`` in all; right after ``start`` when its peer is in
    ``closing`` or its request cannot be built (None in ``requests``).

    Each request is built into ``requests`` when first looked at, a run
    at a time: the dispatch thread, which holds the interpreter while it
    encodes, lets the connection threads in at each run's send.
    """
    end, seen, size = start, set(), 0
    while end < len(items):
        if end == len(requests):
            address, message = items[end]
            try:
                requests.append(_request("POST", address, message))
            except (OSError, TypeError, ValueError):  # sent alone, to fail there
                requests.append(None)
        request = requests[end]
        if end == start:
            if request is None or request[0] in closing:
                return end + 1
        elif (request is None or request[0] != requests[start][0]
              or items[end][0] in seen or size + len(request[1]) > _RUN_BYTES):
            return end
        seen.add(items[end][0])
        size += len(request[1])
        end += 1
    return end


def _settled(answer: _Answer, attempt: int) -> DeliveryStatus | None:
    """The status ``answer`` settles a push with at ``attempt``: a 2xx
    delivers it and a 4xx drops it, and an answer over ``MAX_BODY_BYTES``
    counts by its status, since the consumer has the message. None, for
    a retry, after a lost answer or any other status, such as a 5xx."""
    if isinstance(answer, _BodyTooLong):
        status = answer.status
    elif isinstance(answer, OSError):
        return None
    else:
        status = answer[0]
        if not (200 <= status < 300 or 400 <= status < 500):
            return None
    return DeliveryStatus(delivered=200 <= status < 300, attempts=attempt)


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
