"""HTTP/1.1 framing of wire's client connections against a raw-socket
peer that answers with canned bytes, the bound on answer bodies, one
write per request and per answer, pipelined runs of pushes, and the
server's keep-alive, refusals and connection cap."""

from __future__ import annotations

import email.utils
import json
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from ctxbroker.errors import UpstreamUnavailable
from ctxbroker.wire import (
    _RUN_BYTES,
    MAX_BODY_BYTES,
    READ_TIMEOUT_S,
    DeliveryStatus,
    HttpTransport,
    RetryPolicy,
    Server,
    _http_date,
    make_envelope,
)

FAST_RETRY = RetryPolicy(attempts=3, backoff_initial=0.02)


def answer(body=b"{}", *fields, version=b"HTTP/1.1", status=b"200 OK"):
    """An answer's bytes: the status line, ``fields`` and, unless a field
    frames the body otherwise, its Content-Length; then ``body``."""
    if not any(re.match(rb"(?i)(content-length|transfer-encoding):", f) for f in fields):
        fields += (b"Content-Length: %d" % len(body),)
    return b"\r\n".join((version + b" " + status, *fields, b"", body))


class _CannedPeer:
    """A raw-socket HTTP peer on loopback. It reads each request whole,
    answers it with the next of ``answers`` byte for byte, and closes the
    connection after an answer marked to close (or when none is left).
    It counts the connections it accepts and those that have ended, and
    keeps each request it read."""

    def __init__(self, answers):
        self.answers = list(answers)  # (bytes, close after sending)
        self.requests = []
        self.connections = 0
        self.ended = 0
        self._socks = []
        self._stopped = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self):
        while not self._stopped.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            sock.settimeout(5)
            self._socks.append(sock)
            self.connections += 1
            thread = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, sock):
        buf = b""
        try:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, buf = buf.partition(b"\r\n\r\n")
                declared = re.search(rb"(?i)\r\ncontent-length: *(\d+)", head)
                length = int(declared.group(1)) if declared else 0
                while len(buf) < length:
                    buf += sock.recv(65536)
                self.requests.append(head + b"\r\n\r\n" + buf[:length])
                buf = buf[length:]
                data, close = self.answers.pop(0) if self.answers else (b"", True)
                sock.sendall(data)
                if close:
                    return
        except OSError:
            pass
        finally:
            sock.close()
            self.ended += 1

    def wait_ended(self, count):
        deadline = time.monotonic() + 5
        while self.ended < count and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.ended

    def stop(self):
        self._stopped.set()
        for sock in self._socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5)
        self._listener.close()


@pytest.fixture
def peer():
    """Start a _CannedPeer with the given answers; stopped after the test."""
    peers = []

    def start(*answers):
        peers.append(_CannedPeer(answers))
        return peers[-1]

    yield start
    for started in peers:
        started.stop()


@pytest.fixture
def transport():
    transport = HttpTransport(retry=FAST_RETRY)
    yield transport
    transport.close()


@pytest.fixture
def writes(monkeypatch):
    """Every write on a client socket opened during the test, in order."""
    written = []

    class Counted(socket.socket):
        def sendall(self, data, *args):
            written.append(bytes(data))
            return super().sendall(data, *args)

        def send(self, data, *args):
            written.append(bytes(data))
            return super().send(data, *args)

    connect = socket.create_connection

    def counted(*args, **kwargs):
        sock = connect(*args, **kwargs)
        wrapped = Counted(fileno=sock.detach())
        wrapped.settimeout(kwargs.get("timeout"))
        return wrapped

    monkeypatch.setattr(socket, "create_connection", counted)
    return written


def push(transport, peer):
    return transport.push(peer.url + "/hook", make_envelope("notify", {}))


TOPIC_X = b'{"topic": "x"}'


class TestAnswerFraming:
    def test_chunked_answer(self, peer, transport):
        chunked = answer(b'7;ext=1\r\n{"topic\r\n7\r\n": "x"}\r\n0\r\nTrailer: t\r\n\r\n',
                         b"Transfer-Encoding: chunked")
        server = peer((chunked, False), (answer(TOPIC_X), False))
        assert transport.pull(server.url, "x") == {"topic": "x"}
        assert transport.pull(server.url, "x") == {"topic": "x"}
        assert server.connections == 1

    def test_http_1_0_answer_without_length_is_read_to_its_end(self, peer, transport):
        server = peer((b"HTTP/1.0 200 OK\r\nServer: old\r\n\r\n" + TOPIC_X, True),
                      (answer(TOPIC_X), False))
        assert transport.pull(server.url, "x") == {"topic": "x"}
        assert transport.pull(server.url, "x") == {"topic": "x"}
        assert server.connections == 2  # the first was not pooled

    def test_interim_100_continue_is_skipped(self, peer, transport):
        server = peer((b"HTTP/1.1 100 Continue\r\n\r\n" + answer(), False), (answer(), False))
        for _ in range(2):
            status = push(transport, server)
            assert status.delivered and status.attempts == 1
        assert server.connections == 1

    def test_connection_close_on_http_1_1_is_not_pooled(self, peer, transport):
        server = peer((answer(b"{}", b"Connection: close"), False), (answer(), False))
        for _ in range(2):
            assert push(transport, server).delivered
        assert server.connections == 2
        assert server.wait_ended(1) == 1  # the client closed the first

    @pytest.mark.parametrize("bad", [
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
        answer(b"{}", *[b"X-Field-%d: %d" % (i, i) for i in range(101)]),
    ], ids=["malformed-status-line", "body-cut-short", "101-header-lines"])
    def test_broken_answer_is_a_transport_failure(self, peer, transport, bad):
        server = peer(*[(bad, True)] * (FAST_RETRY.attempts + 1))
        status = push(transport, server)
        assert not status.delivered and status.attempts == FAST_RETRY.attempts
        assert len(server.requests) == FAST_RETRY.attempts
        with pytest.raises(UpstreamUnavailable) as caught:
            transport.pull(server.url, "x")
        assert caught.value.code == "UPSTREAM_UNAVAILABLE"

    def test_unasked_bytes_after_an_answer_are_not_the_next_answer(self, peer, transport):
        unasked = answer(b'{"topic": "unasked"}')
        server = peer((answer(TOPIC_X) + unasked, False), (answer(b'{"topic": "y"}'), False))
        assert transport.pull(server.url, "x") == {"topic": "x"}
        assert transport.pull(server.url, "y") == {"topic": "y"}


OVERSIZED = {
    "declared": answer(b"{", b"Content-Length: %d" % (MAX_BODY_BYTES + 1)),
    "chunked": answer(b"%x\r\n{" % (MAX_BODY_BYTES + 1), b"Transfer-Encoding: chunked"),
    "chunks": answer(b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in [b" " * (1 << 19)] * 3),
                     b"Transfer-Encoding: chunked"),
    "to-the-end": b"HTTP/1.0 200 OK\r\n\r\n" + b" " * (MAX_BODY_BYTES + 1),
    "long-number": answer(b"{", b"Content-Length: " + b"9" * 5000),
}


class TestAnswerBound:
    @pytest.mark.parametrize("framing", OVERSIZED)
    def test_oversized_pull_answer_is_upstream_unavailable(self, peer, transport, framing):
        server = peer((OVERSIZED[framing], framing == "to-the-end"), (answer(TOPIC_X), False))
        with pytest.raises(UpstreamUnavailable):
            transport.pull(server.url, "x")
        assert server.wait_ended(1) == 1  # closed, not pooled
        assert transport.pull(server.url, "x") == {"topic": "x"}
        assert server.connections == 2

    @pytest.mark.parametrize("framing", OVERSIZED)
    def test_oversized_push_answer_counts_by_its_status_once(self, peer, transport, framing):
        server = peer((OVERSIZED[framing], framing == "to-the-end"), (answer(), False))
        status = push(transport, server)
        assert status.delivered and status.attempts == 1
        assert len(server.requests) == 1  # not resent: the consumer has it
        assert server.wait_ended(1) == 1
        assert push(transport, server).delivered
        assert server.connections == 2

    def test_oversized_4xx_push_answer_drops_the_message(self, peer, transport):
        server = peer((answer(b"", b"Content-Length: %d" % (1 << 30), status=b"410 Gone"), False))
        status = push(transport, server)
        assert not status.delivered and status.attempts == 1
        assert len(server.requests) == 1


def answering(method, target, headers, body):
    """A route that answers with the last segment of the target."""
    return 200, {"topic": target.rsplit("/", 1)[-1]}


class TestOneWrite:
    def test_a_request_with_a_body_leaves_in_one_sendall(self, peer, transport, writes):
        server = peer((answer(), False), (answer(), False))
        for text in ("plain", "\u00fc\u2603" * 50):
            message = make_envelope("notify", {"text": text})
            assert transport.push(server.url + "/hook", message).delivered
        assert server.connections == 1
        assert len(writes) == 2  # one per push
        assert writes == server.requests
        for data in writes:
            head, _, body = data.partition(b"\r\n\r\n")
            assert json.loads(body)["kind"] == "notify"
            assert b"\r\nContent-Length: %d\r\n" % len(body) in head + b"\r\n"

    def test_a_server_answer_arrives_in_one_recv(self, monkeypatch):
        answers = []
        sendall = socket.socket.sendall

        def counted(sock, data, *args):
            if sock.getsockname()[1] == server.port:  # the server's end
                answers.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        with Server("127.0.0.1", 0, answering) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                for topic in ("a", "b", "c"):
                    sock.sendall(b"GET /topics/%s HTTP/1.1\r\nHost: x\r\n\r\n" % topic.encode())
                    head, _, body = sock.recv(65536).partition(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
                    length = int(re.search(rb"\r\nContent-Length: (\d+)", head).group(1))
                    assert length == len(body)
                    assert json.loads(body) == {"topic": topic}
        assert len(answers) == 3
        assert [json.loads(a.partition(b"\r\n\r\n")[2])["topic"] for a in answers] == list("abc")


def batch(peer, *names, pad=""):
    """Pushes to ``peer``: one per name, at ``/c/<name>``, numbered in order."""
    return [(f"{peer.url}/c/{name}", make_envelope("notify", {"i": i, "pad": pad}))
            for i, name in enumerate(names)]


def received(peer):
    """The ``/c/<name>`` path and the number of each request the peer read, in order."""
    return [(re.match(rb"POST /c/(\w+) ", r)[1].decode(), json.loads(r.partition(b"\r\n\r\n")[2])
             ["body"]["i"]) for r in peer.requests]


def statuses(*pairs):
    return [DeliveryStatus(delivered, attempts) for delivered, attempts in pairs]


OK = (answer(), False)


class TestPipelinedPushes:
    def test_a_run_to_distinct_addresses_leaves_in_one_sendall(self, peer, transport, writes):
        server = peer(OK, (answer(status=b"404 Not Found"), False),
                      (answer(b"", status=b"204 No Content"), False),
                      (answer(status=b"410 Gone"), False), OK)
        got = transport.push_many(batch(server, "a", "b", "c", "d", "e"))
        assert got == statuses((True, 1), (False, 1), (True, 1), (False, 1), (True, 1))
        assert len(writes) == 1 and writes[0] == b"".join(server.requests)
        assert received(server) == [("a", 0), ("b", 1), ("c", 2), ("d", 3), ("e", 4)]
        assert server.connections == 1

    def test_a_repeated_address_starts_a_new_run(self, peer, transport, writes):
        server = peer(*[OK] * 5)
        got = transport.push_many(batch(server, "a", "b", "a", "c", "c"))
        assert all(s == DeliveryStatus(True, 1) for s in got)
        assert [w.count(b"POST ") for w in writes] == [2, 2, 1]
        assert received(server) == [("a", 0), ("b", 1), ("a", 2), ("c", 3), ("c", 4)]
        assert server.connections == 1

    def test_a_run_over_the_byte_cap_leaves_in_several_writes(self, peer, transport, writes):
        names = [f"n{i}" for i in range(40)]
        server = peer(*[OK] * len(names))
        got = transport.push_many(batch(server, *names, pad="x" * 4000))
        assert all(s == DeliveryStatus(True, 1) for s in got)
        assert len(writes) >= 3 and all(len(w) <= _RUN_BYTES for w in writes)
        assert sum(w.count(b"POST ") for w in writes) == len(names)
        assert [i for _, i in received(server)] == list(range(len(names)))
        assert server.connections == 1

    def test_a_5xx_answer_resends_only_its_message(self, peer, transport):
        server = peer(OK, (answer(status=b"503 Busy"), False), OK, OK)
        got = transport.push_many(batch(server, "a", "b", "c"))
        assert got == statuses((True, 1), (True, 2), (True, 1))
        assert received(server) == [("a", 0), ("b", 1), ("c", 2), ("b", 1)]

    def test_a_4xx_answer_drops_its_message_without_resending(self, peer, transport):
        server = peer(OK, (answer(status=b"400 Bad Request"), False), OK, OK)
        got = transport.push_many(batch(server, "a", "b", "c"))
        assert got == statuses((True, 1), (False, 1), (True, 1))
        assert received(server) == [("a", 0), ("b", 1), ("c", 2)]

    def test_a_cut_connection_resends_each_unanswered_message_from_attempt_2(
            self, peer, transport):
        server = peer(OK, (b"", True), OK, OK)  # reads b, then closes unanswered
        got = transport.push_many(batch(server, "a", "b", "c"))
        assert got == statuses((True, 1), (True, 2), (True, 2))
        assert received(server) == [("a", 0), ("b", 1), ("b", 1), ("c", 2)]

    def test_an_oversized_answer_counts_once_and_later_answers_are_lost(self, peer, transport):
        server = peer(OK, (OVERSIZED["declared"], True), OK)
        got = transport.push_many(batch(server, "a", "b", "c"))
        assert got == statuses((True, 1), (True, 1), (True, 2))
        assert received(server) == [("a", 0), ("b", 1), ("c", 2)]  # b is not resent

    @pytest.mark.parametrize("closing", [
        answer(b"{}", b"Connection: close"), answer(b"{}", version=b"HTTP/1.0")],
        ids=["connection-close", "http-1.0"])
    def test_messages_cut_off_by_a_closing_answer_are_sent_again_at_once(
            self, peer, writes, closing):
        slow = HttpTransport(retry=RetryPolicy(attempts=3, backoff_initial=1.0))
        server = peer((closing, True), *[OK] * 5)
        started = time.monotonic()
        try:
            got = slow.push_many(batch(server, "a", "b", "c", "d", "e", "f"))
        finally:
            slow.close()
        assert time.monotonic() - started < 0.5  # no backoff delay of 1 s
        assert all(s == DeliveryStatus(True, 1) for s in got)
        assert [i for _, i in received(server)] == list(range(6))  # each read once
        # The peer read one request of the first run; the others go again,
        # one to a run on a new connection, which is then kept.
        assert [w.count(b"POST ") for w in writes] == [6, 1, 1, 1, 1, 1]
        assert server.connections == 2

    def test_fifo_per_address_when_the_first_send_of_an_address_fails_once(
            self, peer, transport, writes):
        server = peer((answer(status=b"500 Oops"), False), OK, OK, OK, OK)
        got = transport.push_many(batch(server, "a", "b", "a", "b"))
        assert got == statuses((True, 2), (True, 1), (True, 1), (True, 1))
        # a's first message is resent before a's second run goes out.
        assert received(server) == [("a", 0), ("b", 1), ("a", 0), ("a", 2), ("b", 3)]
        assert [w.count(b"POST ") for w in writes] == [2, 1, 2]

    @pytest.mark.parametrize("address, body, attempts", [
        ("cb://nowhere", {}, FAST_RETRY.attempts),  # fails like a refused connection
        ("{url}/c/x", {"not-json": {1, 2}}, 0),  # never sent
    ], ids=["non-http-address", "body-json-cannot-encode"])
    def test_a_message_that_cannot_be_sent_fails_alone(
            self, peer, transport, address, body, attempts):
        server = peer(OK, OK)
        items = batch(server, "a", "b")
        items.insert(1, (address.format(url=server.url), make_envelope("notify", body)))
        got = transport.push_many(items)
        assert got == statuses((True, 1), (False, attempts), (True, 1))
        assert received(server) == [("a", 0), ("b", 1)]


GET = b"GET /topics/a HTTP/1.1\r\nHost: x\r\n\r\n"


def read_to_end(sock):
    """Everything ``sock`` receives until the peer closes it."""
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def send_quietly(sock, data):
    """Send ``data`` unless the peer has closed the connection first."""
    try:
        sock.sendall(data)
    except (BrokenPipeError, ConnectionResetError):
        pass


@pytest.fixture
def server():
    with Server("127.0.0.1", 0, answering) as started:
        yield started


class TestServer:
    def test_pipelined_requests_are_answered_in_order(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(GET.replace(b"/a", b"/b") + GET + b"GET /topics/c HTTP/1.1\r\n"
                         b"Connection: close\r\n\r\n")
            got = read_to_end(sock)
        assert [json.loads(m)["topic"] for m in re.findall(rb"\r\n\r\n(\{[^}]*\})", got)] == [
            "b", "a", "c"]

    @pytest.mark.parametrize("request_line, fields", [
        (b"GET /topics/a HTTP/1.0", b""),
        (b"GET /topics/a HTTP/1.1", b"Connection: close\r\n"),
    ], ids=["http-1.0", "connection-close"])
    def test_a_request_that_closes_gets_one_answer_then_the_end(
            self, server, request_line, fields):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request_line + b"\r\n" + fields + b"\r\n" + GET)
            got = read_to_end(sock)
        assert got.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in got
        assert got.endswith(b'{"topic": "a"}')

    def test_an_answer_is_dated(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(GET)
            head = sock.recv(65536).partition(b"\r\n\r\n")[0].decode()
        date = re.search(r"\r\nDate: ([^\r]+)", head)[1]
        assert abs(email.utils.parsedate_to_datetime(date).timestamp() - time.time()) < 5
        assert "\r\nContent-Type: application/json\r\n" in head

    @pytest.mark.parametrize("second", [0, 951782400, 1700000000, 4102444799])
    def test_http_date_is_the_imf_fixdate(self, second):
        assert _http_date(second) == email.utils.formatdate(second, usegmt=True)

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"POST /topics/a HTTP/1.1\r\nContent-Length: 2\r\n"
                         b"Expect: 100-continue\r\n\r\n")
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(b"{}")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK\r\n")

    def test_transfer_encoding_is_refused_before_the_route(self, monkeypatch):
        routed = []

        def route(*request):
            routed.append(request)
            return 200, {}

        with Server("127.0.0.1", 0, route) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                             b"2\r\n{}\r\n0\r\n\r\n")
                got = read_to_end(sock)
        assert got.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert got.count(b"HTTP/1.1 ") == 1 and b"\r\nConnection: close\r\n" in got
        assert routed == []

    def test_a_connection_over_the_cap_is_answered_503_by_the_accept_thread(
            self, server, monkeypatch):
        monkeypatch.setattr("ctxbroker.wire.MAX_CONNECTIONS", 2)
        address = (server.host, server.port)
        first = socket.create_connection(address, timeout=5)
        with first, socket.create_connection(address, timeout=5) as second:
            for sock in (first, second):  # answered, and kept open
                sock.sendall(GET)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK\r\n")
            with socket.create_connection(address, timeout=5) as third:
                refused = read_to_end(third)
            assert refused.startswith(b"HTTP/1.1 503 Service Unavailable\r\n")
            assert b"\r\nConnection: close\r\n" in refused and b'"UNAVAILABLE"' in refused
            assert len(server._open) == 2  # no thread was started for the third
            first.close()
            deadline = time.monotonic() + 5
            while len(server._open) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.create_connection(address, timeout=5) as fourth:
                fourth.sendall(GET)
                assert fourth.recv(65536).startswith(b"HTTP/1.1 200 OK\r\n")

    def test_a_refusal_ends_cleanly_for_a_client_still_sending_its_body(self, server):
        # The server closes with the body unread, which resets the
        # connection; the client reads the answer and then the end of the
        # stream, not the reset.
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            body = b"2\r\n{}\r\n" * 20000  # more than the server reads ahead
            sender = threading.Thread(target=send_quietly, args=(
                sock, b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" + body))
            sender.start()
            got = read_to_end(sock)
            sender.join(timeout=5)
        assert got.startswith(b"HTTP/1.1 501 ")

    def test_connections_racing_the_cap_are_each_answered_and_ended(self, server, monkeypatch):
        monkeypatch.setattr("ctxbroker.wire.MAX_CONNECTIONS", 1)
        statuses = []
        interval = sys.getswitchinterval()

        def client():
            for _ in range(40):
                with socket.create_connection((server.host, server.port), timeout=5) as sock:
                    send_quietly(sock, GET.replace(b"HTTP/1.1", b"HTTP/1.0"))
                    statuses.append(read_to_end(sock)[:12])

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(statuses) == 160
        assert set(statuses) <= {b"HTTP/1.1 200", b"HTTP/1.1 503"}
        assert b"HTTP/1.1 200" in statuses
        deadline = time.monotonic() + 5
        while server._open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._open  # every admitted connection left the count

    def test_a_silent_connection_closes_after_the_timeout(self, server, monkeypatch):
        assert server.timeout == READ_TIMEOUT_S
        monkeypatch.setattr(server, "timeout", 0.2)
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            started = time.monotonic()
            assert read_to_end(sock) == b""
        assert time.monotonic() - started < 2


def test_no_module_imports_the_stdlib_http_stack():
    """The package frames HTTP itself: importing every module loads none
    of http.server, http.client or email."""
    code = ("import pkgutil, importlib, sys, ctxbroker\n"
            "for m in pkgutil.iter_modules(ctxbroker.__path__):\n"
            "    if m.name != '__main__':\n"
            "        importlib.import_module('ctxbroker.' + m.name)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'email'"
            " or n in ('http.server', 'http.client')))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, check=True, timeout=60).stdout
    assert out.strip() == "[]"
