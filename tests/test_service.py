"""Wire service: envelope routing, HTTP endpoints, callback retry,
snapshot persistence and crash-restart equivalence."""

from __future__ import annotations

import errno
import http.client
import json
import os
import random
import re
import socket
import string
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ctxbroker.errors import BadRequest, UpstreamUnavailable
from ctxbroker.model import IndicatorCatalog, RequirementProfile, ServiceOffer
from ctxbroker.service import (
    ROUTES,
    BrokerService,
    Journal,
    ServiceConfig,
    SnapshotError,
    load_snapshot,
    save_snapshot,
    serve,
)
from ctxbroker.sim import _SimEndpoints
from ctxbroker.wire import (
    MAX_BODY_BYTES,
    PATHS,
    READ_TIMEOUT_S,
    TRANSPORT_TIMEOUT_S,
    HttpTransport,
    RetryPolicy,
    WireClient,
    WireError,
    fill,
    make_envelope,
    match,
)

from conftest import make_offer
from helpers import RecordingTransport, crash, random_profile

FAST_RETRY = RetryPolicy(attempts=3, backoff_initial=0.02)


def config_for(catalog, tmp_path=None, listen="127.0.0.1:0"):
    return ServiceConfig(
        catalog=catalog,
        listen=listen,
        persist_path=None if tmp_path is None else tmp_path / "state.json",
        retry=FAST_RETRY,
    )


def http_json(method, url, envelope=None, headers=None):
    """One HTTP exchange; returns (status, decoded body) for errors too."""
    data = None if envelope is None else json.dumps(envelope).encode()
    request = urllib.request.Request(url, data=data, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def raw_exchange(port, data, timeout=1.5):
    """Send raw bytes on one connection; read until the server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture
def endpoints():
    hub = _SimEndpoints()
    hub.listen()
    yield hub
    hub.stop()


@pytest.fixture
def running(threshold_catalog):
    handle = serve(config_for(threshold_catalog))
    with WireClient(handle.base_url) as client:
        yield handle, client
    handle.stop()


class TestEnvelopeRouting:
    def make_service(self, catalog):
        return BrokerService(config_for(catalog), transport=RecordingTransport())

    def test_subscribe_ack_carries_id_and_request_id(self, threshold_catalog, threshold_profile):
        service = self.make_service(threshold_catalog)
        envelope = make_envelope(
            "subscribe",
            {
                "consumer_id": "app-1",
                "profile": threshold_profile.to_dict(),
                "callback_address": "cb://app-1",
            },
            request_id="req-1",
        )
        response = service.handle_request(envelope)
        assert response["kind"] == "ack"
        assert response["request_id"] == "req-1"
        assert response["body"]["subscription_id"].startswith("sub-")
        service.close()

    def test_notify_from_unregistered_service(self, threshold_catalog):
        service = self.make_service(threshold_catalog)
        envelope = make_envelope(
            "notify",
            {
                "service_id": "cs-ghost",
                "sample": {
                    "topic": "location",
                    "payload": 1,
                    "produced_at": 5,
                    "service_id": "cs-ghost",
                },
            },
            request_id="req-2",
        )
        response = service.handle_request(envelope)
        assert response["kind"] == "error"
        assert response["request_id"] == "req-2"
        assert response["body"]["code"] == "UNREGISTERED"
        service.close()

    def test_pull_current_without_provider_names_topics(
        self, threshold_catalog, threshold_profile
    ):
        service = self.make_service(threshold_catalog)
        sub = service.handle_request(
            make_envelope(
                "subscribe",
                {
                    "consumer_id": "app-1",
                    "profile": threshold_profile.to_dict(),
                    "callback_address": "cb://app-1",
                },
            )
        )["body"]["subscription_id"]
        response = service.handle_request(
            make_envelope("pull-current", {"subscription_id": sub, "topic": "location"})
        )
        assert response["body"]["code"] == "NO_PROVIDER"
        assert response["body"]["topics"] == ["location"]
        service.close()

    def test_unknown_kind_is_bad_request(self, threshold_catalog):
        service = self.make_service(threshold_catalog)
        response = service.handle_request(make_envelope("negotiate", {}, request_id="req-3"))
        assert response["body"]["code"] == "BAD_REQUEST"
        assert "unsupported" in response["body"]["message"]
        service.close()

    def test_malformed_envelope_and_body(self, threshold_catalog):
        service = self.make_service(threshold_catalog)
        assert service.handle_request(None)["kind"] == "error"
        assert service.handle_request({"kind": "subscribe", "request_id": "r", "body": 3})[
            "body"
        ]["code"] == "BAD_REQUEST"
        missing = service.handle_request(make_envelope("subscribe", {}))
        assert missing["body"]["code"] == "BAD_REQUEST"
        service.close()

    @pytest.mark.parametrize("path, kind, field", [
        ("envelope", "subscribe", "consumer_id"), ("envelope", "subscribe", "callback_address"),
        ("envelope", "register", "service_address"),
        ("python", "subscribe", "consumer_id"), ("python", "subscribe", "callback_address"),
        ("python", "register", "service_address"),
        ("journal", "subscribe", "consumer_id"), ("journal", "register", "service_address"),
        ("journal", "unsubscribe", "subscription_id"),
        ("journal", "deregister", "registration_id"),
        ("base", "subscribe", "subscription_id"), ("base", "register", "service_address"),
    ], ids=["subscribe-consumer_id", "subscribe-callback_address", "register-service_address",
            "python-subscribe-consumer_id", "python-subscribe-callback_address",
            "python-register-service_address", "journal-subscribe-consumer_id",
            "journal-register-service_address", "journal-unsubscribe-subscription_id",
            "journal-deregister-registration_id", "base-subscribe-subscription_id",
            "base-register-service_address"])
    def test_id_or_address_that_is_not_a_string_is_refused_unjournaled(
        self, threshold_catalog, threshold_profile, tmp_path, path, kind, field
    ):
        """A live call (an envelope or the Python API) is refused before
        anything is journaled; a journal record or base entry refuses startup."""
        config = config_for(threshold_catalog, tmp_path)
        offer = make_offer("cs-a", 0.9, 0.95, 0.99)
        body = {
            "subscribe": {"subscription_id": "sub-1", "consumer_id": "app-1",
                          "profile": threshold_profile.to_dict(), "callback_address": "cb://app-1"},
            "register": {"registration_id": "reg-1", "offer": offer.to_dict(),
                         "service_address": "svc://a"},
            "unsubscribe": {"subscription_id": "sub-1"},
            "deregister": {"registration_id": "reg-1"},
        }[kind]
        bad = dict(body, **{field: 7})
        if path in ("journal", "base"):
            entries = {"subscribe": [], "register": []}
            if path == "base":
                entries[kind].append(dict(bad, created_at=1_000, revision=1))
            save_snapshot(config.persist_path, {
                "next_sub": 1, "next_reg": 1, "seq": 0,
                "registrations": entries["register"], "subscriptions": entries["subscribe"]})
            if path == "journal":
                with open(config.persist_path, "ab") as fh:
                    fh.write(json.dumps({"seq": 1, "kind": kind, "at": 1_000, **bad}).encode()
                             + b"\n")
            before = dispatch_threads()
            with pytest.raises(SnapshotError) as excinfo:
                BrokerService(config, transport=RecordingTransport())
            assert "state.json" in str(excinfo.value) and f"{field} must be a string" in str(
                excinfo.value)
            assert dispatch_threads() == before
            return
        service = BrokerService(config, transport=RecordingTransport())
        if path == "envelope":
            response = service.handle_request(make_envelope(kind, bad))
            assert response["body"]["code"] == "BAD_REQUEST"
            assert field in response["body"]["message"]
        elif kind == "subscribe":
            with pytest.raises(BadRequest, match=field):
                service.broker.subscribe(bad["consumer_id"], threshold_profile,
                                         bad["callback_address"])
        else:
            with pytest.raises(BadRequest, match=field):
                service.broker.register_context_service(offer, bad["service_address"])
        assert service.broker.snapshot_state()["seq"] == 0
        assert not config.persist_path.exists()
        assert service.handle_request(make_envelope(kind, body))["kind"] == "ack"
        assert service.broker.snapshot_state()["seq"] == 1
        service.close()

    def test_timed_out_drain_is_an_error(self, threshold_catalog, monkeypatch):
        service = self.make_service(threshold_catalog)
        monkeypatch.setattr(service.broker, "drain", lambda timeout=10.0: False)
        response = service.handle_request(make_envelope("drain", {}, request_id="req-d"))
        assert response["kind"] == "error"
        assert response["request_id"] == "req-d"
        assert response["body"]["code"] == "UPSTREAM_UNAVAILABLE"
        service.close()

    def test_request_response_pairing(self, threshold_catalog, threshold_profile):
        service = self.make_service(threshold_catalog)
        requests = [
            make_envelope(
                "subscribe",
                {
                    "consumer_id": "app-1",
                    "profile": threshold_profile.to_dict(),
                    "callback_address": "cb://app-1",
                },
                request_id=f"pair-{i}",
            )
            if i % 2 == 0
            else make_envelope("bogus", {}, request_id=f"pair-{i}")
            for i in range(10)
        ]
        responses = [service.handle_request(r) for r in requests]
        assert [r["request_id"] for r in responses] == [f"pair-{i}" for i in range(10)]
        for i, response in enumerate(responses):
            assert response["kind"] == ("ack" if i % 2 == 0 else "error")
        service.close()


class _FlakyHandler(BaseHTTPRequestHandler):
    failures_left: int
    status: int
    hits: list

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = json.loads(self.rfile.read(length) or b"{}")
        cls = type(self)
        cls.hits.append(body)
        if cls.failures_left > 0:
            cls.failures_left -= 1
            self.send_response(cls.status)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def flaky_receiver(failures, status=500):
    handler = type(
        "Flaky", (_FlakyHandler,), {"failures_left": failures, "status": status, "hits": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, handler, f"http://{host}:{port}/hook"


class TestPushNotification:
    def test_delivered_first_try(self):
        server, handler, url = flaky_receiver(failures=0)
        try:
            status = HttpTransport(retry=FAST_RETRY).push(url, make_envelope("notify", {}))
            assert status.delivered and status.attempts == 1
            assert len(handler.hits) == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_recovers_on_third_attempt(self):
        server, handler, url = flaky_receiver(failures=2)
        try:
            status = HttpTransport(retry=FAST_RETRY).push(url, make_envelope("notify", {}))
            assert status.delivered and status.attempts == 3
            assert len(handler.hits) == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_drops_after_bounded_retries(self):
        server, handler, url = flaky_receiver(failures=99)
        try:
            status = HttpTransport(retry=FAST_RETRY).push(url, make_envelope("notify", {}))
            assert not status.delivered
            assert status.attempts == FAST_RETRY.attempts
            assert len(handler.hits) == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_4xx_answer_is_dropped_without_retry(self):
        server, handler, url = flaky_receiver(failures=99, status=404)
        try:
            status = HttpTransport(retry=FAST_RETRY).push(url, make_envelope("notify", {}))
            assert not status.delivered
            assert status.attempts == 1
            assert len(handler.hits) == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_connection_refused_is_not_delivered(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        status = HttpTransport(retry=RetryPolicy(attempts=2, backoff_initial=0.01)).push(
            f"http://127.0.0.1:{port}/hook",
            make_envelope("notify", {}),
        )
        assert not status.delivered
        assert status.attempts == 2

    @pytest.mark.parametrize("kwargs", [
        {"attempts": 13, "backoff_multiplier": 1.0},  # 65 s of timeouts, 1.2 s of delays
        {"attempts": 10**6, "backoff_multiplier": 1.0},
        {"attempts": 2, "backoff_initial": 50.1},
        {"attempts": 4, "backoff_initial": 1e-300, "backoff_multiplier": 1e200},  # overflows
    ])
    def test_retry_policy_refuses_more_than_a_minute_per_message(self, kwargs):
        with pytest.raises(ValueError, match="60 s per message"):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {},  # 15.3 s
        {"attempts": 5, "backoff_initial": 0.5},  # 32.5 s
        {"attempts": 12, "backoff_initial": 0.0},  # 60 s of timeouts
        {"attempts": 2, "backoff_initial": 50.0},  # 10 s of timeouts, 50 s of delay
    ])
    def test_retry_policy_accepts_up_to_a_minute_per_message(self, kwargs):
        RetryPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"attempts": True},
        {"backoff_initial": True, "backoff_multiplier": False},
    ])
    def test_retry_policy_refuses_booleans(self, kwargs):
        with pytest.raises(ValueError, match="not booleans"):
            RetryPolicy(**kwargs)


class _CountingServer(ThreadingHTTPServer):
    """A loopback receiver that counts the connections it accepts and keeps
    each POST body. A POST is answered 200 with ``answer``; None reads it
    and closes the connection unanswered."""

    daemon_threads = True

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.url = "http://127.0.0.1:%d" % self.server_address[1]
        self.connections = 0  # written by the serving thread only
        self.closed = []  # one entry per connection its handler has ended
        self.posts = []
        self.answer = b"{}"

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.append(request)


class _Receiver(BaseHTTPRequestHandler):
    """Plain stdlib HTTP/1.1 with Nagle's algorithm on: an answer's headers
    and body leave in two sends. A GET answers ``{"topic": <last segment>}``."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.server.posts.append(self.rfile.read(int(self.headers["Content-Length"])))
        if self.server.answer is None:
            self.close_connection = True
            return
        self._reply(self.server.answer)

    def do_GET(self):
        topic = urllib.parse.unquote(self.path.rsplit("/", 1)[-1])
        self._reply(json.dumps({"topic": topic}).encode())

    def _reply(self, data):
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _NotJsonGet(_Receiver):
    """A service whose pull-through answer is 200 with a body that is not JSON."""

    def do_GET(self):
        self._reply(b"ok")


@pytest.fixture
def receiver():
    """Start a _CountingServer with the given handler; stopped after the test."""
    servers = []

    def start(handler=_Receiver):
        server = _CountingServer(handler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def transport():
    transport = HttpTransport(retry=FAST_RETRY)
    yield transport
    transport.close()


class TestConnectionPool:
    def test_pushes_reuse_one_connection(self, receiver, transport):
        server = receiver()
        for i in range(20):
            status = transport.push(server.url + "/hook", make_envelope("notify", {"i": i}))
            assert status.delivered and status.attempts == 1
        assert [json.loads(p)["body"]["i"] for p in server.posts] == list(range(20))
        assert server.connections == 1

    def test_wire_client_reuses_one_connection(self, running, monkeypatch):
        handle, _ = running
        opened = []
        connect = socket.create_connection

        def counted(address, *args, **kwargs):
            opened.append(address)
            return connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counted)
        with WireClient(handle.base_url) as client:
            for _ in range(20):
                assert client.request("find-services", {"topic": "location"}) == {
                    "service_ids": []}
        assert opened == [(handle.host, handle.port)]

    @pytest.mark.skipif(getattr(socket, "TCP_QUICKACK", None) is None,
                        reason="the ACK of a reused connection is delayed without TCP_QUICKACK")
    def test_no_delayed_ack_stall_on_a_reused_connection(self, receiver, transport):
        server = receiver()
        transport.push(server.url + "/hook", make_envelope("notify", {}))
        started = time.monotonic()
        for _ in range(50):
            assert transport.push(server.url + "/hook", make_envelope("notify", {})).delivered
        # A stall of ~40 ms per push would take 2 s or more.
        assert time.monotonic() - started < 1.0
        assert server.connections == 1

    @pytest.mark.skipif(getattr(socket, "TCP_QUICKACK", None) is None,
                        reason="the ACK of a reused connection is delayed without TCP_QUICKACK")
    def test_no_delayed_ack_stall_on_pipelined_pushes(self, receiver, transport):
        server = receiver()
        addresses = [f"{server.url}/c/{k}" for k in range(10)]
        transport.push(addresses[0], make_envelope("notify", {}))
        started = time.monotonic()
        for i in range(20):
            got = transport.push_many(
                [(address, make_envelope("notify", {"i": i})) for address in addresses])
            assert all(status.delivered and status.attempts == 1 for status in got)
        # Each of the 10 answers of a run written in two sends: a stall of
        # ~40 ms per answer, or per run, would take 0.8 s or more.
        assert time.monotonic() - started < 0.5
        assert len(server.posts) == 201
        assert server.connections == 1

    def test_a_run_over_the_cap_reaches_a_peer_that_answers_before_reading_on(
            self, receiver, transport):
        server = receiver()
        server.answer = b" " * (200 << 10)  # written whole before the next request is read
        pad = "x" * 4000
        items = [(f"{server.url}/c/{k}", make_envelope("notify", {"i": k, "pad": pad}))
                 for k in range(40)]  # ~160 KiB of requests
        started = time.monotonic()
        got = transport.push_many(items)
        assert time.monotonic() - started < TRANSPORT_TIMEOUT_S / 2
        assert all(status.delivered and status.attempts == 1 for status in got)
        assert [json.loads(p)["body"]["i"] for p in server.posts] == list(range(40))

    def test_broker_answers_a_reused_connection_without_stall(self, running):
        handle, _ = running
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=5)
        try:
            started = time.monotonic()
            for _ in range(50):
                conn.request("GET", "/topics/location/services")
                assert conn.getresponse().read()
            # Nagle's algorithm on the broker's socket would hold each answer's
            # body for the delayed ACK of its headers: 2 s or more in all.
            assert time.monotonic() - started < 1.0
        finally:
            conn.close()

    def test_push_after_the_peer_dropped_the_idle_connection(self, receiver, transport):
        server = receiver(type("IdleClosing", (_Receiver,), {"timeout": 0.2}))
        assert transport.push(server.url + "/hook", make_envelope("notify", {"i": 0})).delivered
        time.sleep(0.5)
        status = transport.push(server.url + "/hook", make_envelope("notify", {"i": 1}))
        assert status.delivered and status.attempts == 1
        assert [json.loads(p)["body"]["i"] for p in server.posts] == [0, 1]
        assert server.connections == 2

    def test_wire_client_after_the_broker_dropped_the_idle_connection(
            self, running, monkeypatch):
        handle, _ = running
        monkeypatch.setattr(handle, "timeout", 0.2)
        with WireClient(handle.base_url) as client:
            assert client.request("find-services", {"topic": "location"}) == {"service_ids": []}
            time.sleep(0.5)
            assert client.request("find-services", {"topic": "location"}) == {"service_ids": []}

    def test_unanswered_push_is_sent_once_per_attempt(self, receiver, transport):
        server = receiver()
        assert transport.push(server.url + "/hook", make_envelope("notify", {})).delivered
        server.answer = None  # the kept-alive connection now reads and closes
        status = transport.push(server.url + "/hook", make_envelope("notify", {}))
        assert not status.delivered and status.attempts == FAST_RETRY.attempts
        assert len(server.posts) == 1 + FAST_RETRY.attempts

    def test_push_answer_body_need_not_be_json(self, receiver, transport):
        server = receiver()
        server.answer = b"ok"
        status = transport.push(server.url + "/hook", make_envelope("notify", {}))
        assert status.delivered and status.attempts == 1

    def test_threads_get_their_own_answers(self, receiver, transport):
        server = receiver()
        answers = []

        def pull_many(thread):
            for k in range(25):
                topic = f"t{thread}-{k}"
                answers.append((topic, transport.pull(server.url, topic)["topic"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=pull_many, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 100
        assert all(asked == answered for asked, answered in answers)
        assert server.connections <= 4

    def test_idle_connection_on_a_high_descriptor_is_reused(
            self, receiver, transport, monkeypatch):
        high = 1500
        resource = pytest.importorskip("resource")
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= high:
            pytest.skip(f"descriptor {high} is above this process's limit")
        try:
            os.fstat(high)
            pytest.skip(f"descriptor {high} is taken")
        except OSError:
            pass
        connect = socket.create_connection

        def connect_high(*args, **kwargs):
            # Past FD_SETSIZE (1024), which select.select cannot watch.
            sock = connect(*args, **kwargs)
            moved = socket.socket(fileno=os.dup2(sock.fileno(), high))
            moved.settimeout(sock.gettimeout())
            sock.close()
            return moved

        monkeypatch.setattr(socket, "create_connection", connect_high)
        server = receiver()
        for i in range(2):
            status = transport.push(server.url + "/hook", make_envelope("notify", {"i": i}))
            assert status.delivered and status.attempts == 1
        assert len(server.posts) == 2
        assert server.connections == 1

    def test_idle_connections_close_after_the_read_timeout(
            self, receiver, transport, monkeypatch):
        monkeypatch.setattr("ctxbroker.wire.READ_TIMEOUT_S", 0.2)
        gone, other = receiver(), receiver()
        assert transport.push(gone.url + "/hook", make_envelope("notify", {})).delivered
        time.sleep(0.3)
        assert transport.push(other.url + "/hook", make_envelope("notify", {})).delivered
        deadline = time.monotonic() + 5
        while not gone.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(gone.closed) == 1
        assert not other.closed

    def test_non_http_address_fails_like_a_refused_connection(self, transport):
        status = transport.push("cb://app-1", make_envelope("notify", {}))
        assert not status.delivered and status.attempts == FAST_RETRY.attempts
        with pytest.raises(UpstreamUnavailable):
            transport.pull("svc://a", "location")

    @pytest.mark.parametrize("address", ["http://127.0.0.1:notaport/cb", "http://127.0.0.1:70000/"])
    def test_bad_port_fails_like_a_refused_connection(self, transport, address):
        status = transport.push(address, make_envelope("notify", {}))
        assert not status.delivered and status.attempts == FAST_RETRY.attempts
        with pytest.raises(UpstreamUnavailable):
            transport.pull(address, "location")

    def test_request_after_stop_is_refused(self, threshold_catalog, threshold_profile, tmp_path):
        handle = serve(config_for(threshold_catalog, tmp_path))
        body = {"consumer_id": "app-1", "profile": threshold_profile.to_dict(),
                "callback_address": "cb://app-1"}
        with WireClient(handle.base_url) as client:
            assert client.request("subscribe", body) == {"subscription_id": "sub-1"}
            started = time.monotonic()
            handle.stop()
            # The kept-alive connection ends with the server, not READ_TIMEOUT_S later.
            assert time.monotonic() - started < READ_TIMEOUT_S / 2
            persisted = (tmp_path / "state.json").read_bytes()
            with pytest.raises(OSError):
                client.request("subscribe", body)
        assert (tmp_path / "state.json").read_bytes() == persisted


class TestHttpEndpoints:
    def test_fresh_start_has_empty_registries(self, running):
        _, client = running
        assert client.find_services("location") == []
        assert client.request("find-consumers", {"topic": "location"})["subscription_ids"] == []

    def test_full_cycle_over_wire(self, running, endpoints, threshold_profile):
        handle, client = running
        from ctxbroker.sim import _SimConsumer, _SimService

        consumer = _SimConsumer()
        service_box = _SimService()
        endpoints.consumers["app-1"] = consumer
        endpoints.services["cs-a"] = service_box

        reg = client.request("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(),
            "service_address": f"{endpoints.base_url}/services/cs-a",
        })["registration_id"]
        sub = client.request("subscribe", {
            "consumer_id": "app-1",
            "profile": threshold_profile.to_dict(),
            "callback_address": f"{endpoints.base_url}/consumers/app-1",
        })["subscription_id"]
        assert client.find_services("location") == ["cs-a"]
        assert client.request("find-consumers", {"topic": "location"})["subscription_ids"] == [sub]
        assert client.request("decision", {"subscription_id": sub})["decision"]["selected"] == [
            "cs-a"]

        sample = {"topic": "location", "payload": "live", "produced_at": 7, "service_id": "cs-a"}
        service_box.set_value(sample)
        client.request("notify", {"service_id": "cs-a", "sample": sample})
        client.request("drain", {})
        kinds = [m["kind"] for m in consumer.messages()]
        assert kinds.count("notify") == 1

        pulled = client.request("pull-current", {"subscription_id": sub, "topic": "location"})[
            "sample"]
        assert pulled["payload"] == "live"
        last = client.request("pull-last", {"subscription_id": sub, "topic": "location"})
        assert last["sample"]["payload"] == "live"

        client.request("unsubscribe", {"subscription_id": sub})
        client.request("deregister", {"registration_id": reg})
        assert client.find_services("location") == []

    def test_pull_through_answer_that_is_not_json_is_upstream_unavailable(
        self, running, receiver, threshold_profile
    ):
        handle, client = running
        server = receiver(_NotJsonGet)
        client.request("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(),
            "service_address": server.url + "/svc",
        })
        sub = client.request("subscribe", {
            "consumer_id": "app-1", "profile": threshold_profile.to_dict(),
            "callback_address": "cb://app-1",
        })["subscription_id"]
        path = fill(PATHS["pull-current"][1], {"subscription_id": sub, "topic": "location"})
        status, payload = http_json("GET", handle.base_url + path)
        assert (status, payload["body"]["code"]) == (502, "UPSTREAM_UNAVAILABLE")
        assert server.url in payload["body"]["message"]

    def test_error_codes_and_http_status(self, running):
        handle, client = running
        with pytest.raises(WireError) as excinfo:
            client.request("decision", {"subscription_id": "sub-404"})
        assert excinfo.value.code == "NOT_FOUND"
        # Raw status check for one representative error.
        request = urllib.request.Request(handle.base_url + "/subscriptions/sub-404/decision")
        try:
            urllib.request.urlopen(request)
            assert False, "expected HTTP error"
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_conflict_code_on_duplicate_registration(self, running):
        _, client = running
        offer = make_offer("cs-a", 0.9, 0.95, 0.99).to_dict()
        client.request("register", {"offer": offer, "service_address": "svc://a"})
        with pytest.raises(WireError) as excinfo:
            client.request("register", {"offer": offer, "service_address": "svc://a"})
        assert excinfo.value.code == "CONFLICT"

    def test_kind_path_mismatch_rejected(self, running):
        handle, _ = running
        envelope = make_envelope("register", {"offer": {}, "service_address": "x"})
        data = json.dumps(envelope).encode()
        request = urllib.request.Request(
            handle.base_url + "/subscriptions", data=data,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            urllib.request.urlopen(request)
            assert False, "expected HTTP error"
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read())
            assert body["body"]["code"] == "BAD_REQUEST"
            assert "expects kind" in body["body"]["message"]

    def test_request_id_header_round_trips(self, running, threshold_profile):
        handle, client = running
        request = urllib.request.Request(
            handle.base_url + "/topics/location/services",
            headers={"X-Request-Id": "my-req-42"},
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload["request_id"] == "my-req-42"
        assert payload["kind"] == "ack"

        sub = client.request("subscribe", {
            "consumer_id": "app-1",
            "profile": threshold_profile.to_dict(),
            "callback_address": "cb://app-1",
        })["subscription_id"]
        status, payload = http_json(
            "GET", f"{handle.base_url}/subscriptions/{sub}/topics/location/last?request_id=q-7")
        assert (status, payload["request_id"]) == (404, "q-7")
        assert payload["body"]["code"] == "NO_VALUE_YET"
        status, payload = http_json(
            "DELETE", f"{handle.base_url}/subscriptions/{sub}", headers={"X-Request-Id": "d-8"})
        assert (status, payload["kind"], payload["request_id"]) == (200, "ack", "d-8")

    @pytest.mark.parametrize("length", ["-1", str(MAX_BODY_BYTES + 1), "ten"])
    def test_bad_content_length_is_refused_promptly(self, running, length):
        handle, _ = running
        head = f"POST /subscriptions HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        answer = raw_exchange(handle.port, head.encode())
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b'"BAD_REQUEST"' in answer

    @pytest.mark.parametrize("at", ["service", "sim"])
    def test_chunked_request_gets_one_501_then_the_end(self, running, endpoints, at):
        # A body framed by Transfer-Encoding is not read as the next request.
        envelope = json.dumps(make_envelope("notify", {})).encode()
        port, path = (running[0].port, "/notify") if at == "service" else (
            endpoints.server.port, "/consumers/c1")
        request = (f"POST {path} HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
                   "Content-Type: application/json\r\n\r\n").encode()
        answer = raw_exchange(port, request + b"%x\r\n%s\r\n0\r\n\r\n" % (
            len(envelope), envelope))
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"\r\nConnection: close" in head
        length = int(re.search(rb"\r\nContent-Length: (\d+)", head)[1])
        assert len(body) == length  # exactly one answer, then the end of the stream
        assert json.loads(body)["body"]["code"] == "BAD_REQUEST"

    def test_short_body_times_out_and_frees_the_handler(self, running, monkeypatch):
        handle, _ = running
        assert handle.timeout == READ_TIMEOUT_S
        monkeypatch.setattr(handle, "timeout", 0.3)
        head = b'POST /subscriptions HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{"kind"'
        started = time.monotonic()
        assert raw_exchange(handle.port, head, timeout=2.0) == b""
        assert time.monotonic() - started < 2.0
        status, payload = http_json("GET", f"{handle.base_url}/topics/location/services")
        assert (status, payload["kind"]) == (200, "ack")

    def test_sim_endpoint_short_body_times_out(self, endpoints, monkeypatch):
        assert endpoints.server.timeout == READ_TIMEOUT_S
        monkeypatch.setattr(endpoints.server, "timeout", 0.3)
        port = endpoints.server.port
        head = b"POST /consumers/c1 HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{}"
        started = time.monotonic()
        assert raw_exchange(port, head, timeout=2.0) == b""
        assert time.monotonic() - started < 2.0

    def test_drain_then_get_on_one_connection(self, running):
        handle, _ = running
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=5)
        try:
            conn.request("POST", "/debug/drain", json.dumps(make_envelope("drain", {})))
            first = conn.getresponse()
            acks = [(first.status, json.loads(first.read())["kind"])]
            sock = conn.sock
            conn.request("GET", "/topics/location/services")
            second = conn.getresponse()
            acks.append((second.status, json.loads(second.read())["kind"]))
            assert conn.sock is sock
        finally:
            conn.close()
        assert acks == [(200, "ack"), (200, "ack")]

    def test_each_route_enters_handle_request_once(self, threshold_catalog, monkeypatch):
        kinds = []
        original = BrokerService.handle_request

        def counted(self, envelope):
            kinds.append(envelope["kind"])
            return original(self, envelope)

        monkeypatch.setattr(BrokerService, "handle_request", counted)
        for wrapper in ("unsubscribe", "deregister", "decision"):
            monkeypatch.setattr(BrokerService, wrapper, None)
        requests = {
            "subscribe": ("POST", "/subscriptions"),
            "unsubscribe": ("DELETE", "/subscriptions/sub-1"),
            "register": ("POST", "/registrations"),
            "deregister": ("DELETE", "/registrations/reg-1"),
            "notify": ("POST", "/notify"),
            "pull-current": ("GET", "/subscriptions/sub-1/topics/location/current"),
            "pull-last": ("GET", "/subscriptions/sub-1/topics/location/last"),
            "decision": ("GET", "/subscriptions/sub-1/decision"),
            "find-services": ("GET", "/topics/location/services"),
            "find-consumers": ("GET", "/topics/location/consumers"),
            "drain": ("POST", "/debug/drain"),
        }
        assert sorted(requests) == sorted(ROUTES)
        with serve(config_for(threshold_catalog)) as handle:
            for kind, (verb, path) in requests.items():
                envelope = make_envelope(kind, {}) if verb == "POST" else None
                http_json(verb, handle.base_url + path, envelope)
        assert kinds == list(requests)

    def test_paths_and_routes_name_the_same_kinds(self):
        assert sorted(PATHS) == sorted(ROUTES)

    @pytest.mark.parametrize("value", ["a/b", "a b", "100%", "a?b#c", "ü"])
    def test_fill_then_match_gives_back_every_row(self, value):
        for kind, (verb, template) in PATHS.items():
            names = [name for _, name, _, _ in string.Formatter().parse(template) if name]
            fields = {name: value + name for name in names}
            path = fill(template, fields)
            assert path.count("/") == template.count("/")
            assert match(PATHS, verb, path) == (kind, fields)

    def test_topic_with_slash_and_space_round_trips(self, running, threshold_profile):
        _, client = running
        topic = "room 1/temp"
        offer = ServiceOffer(
            service_id="cs-a", cloud_id="cloud-a", offered_topics=(topic,),
            qoc_offer={topic: (0.9, 0.95)}, qos_offer=(0.99,))
        profile = RequirementProfile(
            topics=(topic,), qoc_min=threshold_profile.qoc_min,
            qos_min=threshold_profile.qos_min, weights=threshold_profile.weights)
        client.request("register", {"offer": offer.to_dict(), "service_address": "svc://a"})
        sub = client.request("subscribe", {
            "consumer_id": "app-1", "profile": profile.to_dict(), "callback_address": "cb://a",
        })["subscription_id"]
        assert client.find_services(topic) == ["cs-a"]
        assert client.request("find-consumers", {"topic": topic})["subscription_ids"] == [sub]
        with pytest.raises(WireError) as excinfo:
            client.request("pull-last", {"subscription_id": sub, "topic": topic}, "req-t")
        assert excinfo.value.code == "NO_VALUE_YET"
        assert excinfo.value.envelope["request_id"] == "req-t"

    def test_unexpected_failure_is_internal_500(self, threshold_catalog, threshold_profile, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        config = ServiceConfig(
            catalog=threshold_catalog, persist_path=blocker / "state.json", retry=FAST_RETRY)
        envelope = make_envelope("subscribe", {
            "consumer_id": "app-1",
            "profile": threshold_profile.to_dict(),
            "callback_address": "cb://app-1",
        }, request_id="req-i")
        with serve(config) as handle:
            status, payload = http_json("POST", handle.base_url + "/subscriptions", envelope)
        assert (status, payload["request_id"]) == (500, "req-i")
        assert payload["body"]["code"] == "INTERNAL"

    def test_failed_append_applies_nothing(self, threshold_catalog, threshold_profile, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        config = ServiceConfig(
            catalog=threshold_catalog, persist_path=blocker / "state.json", retry=FAST_RETRY)
        body = {"consumer_id": "app-1", "profile": threshold_profile.to_dict(),
                "callback_address": "cb://app-1"}
        with serve(config) as handle:
            status, payload = http_json("POST", handle.base_url + "/subscriptions",
                                        make_envelope("subscribe", body))
            assert (status, payload["body"]["code"]) == (500, "INTERNAL")
            with WireClient(handle.base_url) as client:
                assert client.request("find-consumers", {"topic": "location"}) == {
                    "subscription_ids": []}
                blocker.unlink()
                assert client.request("subscribe", body) == {"subscription_id": "sub-1"}

    def test_unknown_route_is_not_found(self, running):
        handle, _ = running
        try:
            urllib.request.urlopen(handle.base_url + "/nope")
            assert False, "expected HTTP error"
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_port_busy_raises(self, threshold_catalog, running):
        handle, _ = running
        with pytest.raises(OSError):
            serve(config_for(threshold_catalog, listen=f"127.0.0.1:{handle.port}"))


class TestPersistence:
    def test_fresh_start_with_no_snapshot(self, threshold_catalog, tmp_path):
        service = BrokerService(config_for(threshold_catalog, tmp_path), transport=RecordingTransport())
        assert service.broker.find_context_services("location") == []
        service.close()

    def test_restart_restores_registrations_and_selections(
        self, threshold_catalog, threshold_profile, tmp_path
    ):
        config = config_for(threshold_catalog, tmp_path)
        first = BrokerService(config, transport=RecordingTransport())
        first.handle_request(
            make_envelope(
                "register",
                {
                    "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(),
                    "service_address": "svc://a",
                },
            )
        )
        sub = first.handle_request(
            make_envelope(
                "subscribe",
                {
                    "consumer_id": "app-1",
                    "profile": threshold_profile.to_dict(),
                    "callback_address": "cb://app-1",
                },
            )
        )["body"]["subscription_id"]
        decision_before = first.decision(sub)["body"]["decision"]
        first.close()

        second = BrokerService(config, transport=RecordingTransport())
        assert second.broker.find_context_services("location") == ["cs-a"]
        assert second.broker.find_context_consumers("location") == [sub]
        assert second.decision(sub)["body"]["decision"] == decision_before
        # Id counters continue, never reusing ids.
        new_sub = second.handle_request(
            make_envelope(
                "subscribe",
                {
                    "consumer_id": "app-2",
                    "profile": threshold_profile.to_dict(),
                    "callback_address": "cb://app-2",
                },
            )
        )["body"]["subscription_id"]
        assert new_sub != sub
        second.close()

    def test_corrupt_snapshot_refuses_startup_naming_file(self, threshold_catalog, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotError) as excinfo:
            BrokerService(config_for(threshold_catalog, tmp_path), transport=RecordingTransport())
        assert "state.json" in str(excinfo.value)

    def test_refused_startup_leaves_no_dispatch_thread(self, threshold_catalog, tmp_path):
        (tmp_path / "state.json").write_text("{not json", encoding="utf-8")
        before = dispatch_threads()
        for _ in range(3):
            with pytest.raises(SnapshotError):
                BrokerService(config_for(threshold_catalog, tmp_path), transport=RecordingTransport())
        assert dispatch_threads() == before

    @pytest.mark.parametrize("repeated, named", [
        ("service", "cs-a"), ("registration_id", "reg-1"), ("subscription_id", "sub-1")],
        ids=["service", "registration_id", "subscription_id"])
    def test_snapshot_naming_a_service_twice_refuses_startup(
        self, threshold_catalog, threshold_profile, tmp_path, repeated, named
    ):
        config = config_for(threshold_catalog, tmp_path)
        first = BrokerService(config, transport=RecordingTransport())
        first.handle_request(make_envelope("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(), "service_address": "svc://a"}))
        first.handle_request(make_envelope("subscribe", {
            "consumer_id": "app-1", "profile": threshold_profile.to_dict(),
            "callback_address": "cb://app-1"}))
        first.close()
        state = load_snapshot(config.persist_path)
        registration = state["registrations"][0]
        if repeated == "service":
            state["registrations"].append(dict(registration, registration_id="reg-9"))
        elif repeated == "registration_id":
            other = make_offer("cs-b", 0.9, 0.95, 0.99).to_dict()
            state["registrations"].append(dict(registration, offer=other))
        else:
            state["subscriptions"].append(dict(state["subscriptions"][0]))
        save_snapshot(config.persist_path, state)
        before = dispatch_threads()
        with pytest.raises(SnapshotError) as excinfo:
            BrokerService(config, transport=RecordingTransport())
        assert "state.json" in str(excinfo.value) and named in str(excinfo.value)
        assert dispatch_threads() == before

    def test_snapshot_of_another_catalog_refuses_startup(
        self, threshold_catalog, threshold_profile, tmp_path
    ):
        first = BrokerService(config_for(threshold_catalog, tmp_path), transport=RecordingTransport())
        first.handle_request(make_envelope("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(), "service_address": "svc://a"}))
        first.close()
        wider = IndicatorCatalog(("freshness", "correctness", "coverage"), ("availability",))
        with pytest.raises(SnapshotError) as excinfo:
            BrokerService(config_for(wider, tmp_path), transport=RecordingTransport())
        assert "state.json" in str(excinfo.value)

    def test_malformed_snapshot_entry_refuses_startup(self, threshold_catalog, tmp_path):
        config = config_for(threshold_catalog, tmp_path)
        first = BrokerService(config, transport=RecordingTransport())
        first.handle_request(make_envelope("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(), "service_address": "svc://a"}))
        first.close()
        state = load_snapshot(config.persist_path)
        del state["registrations"][0]["offer"]["qos_offer"]
        save_snapshot(config.persist_path, state)
        with pytest.raises(SnapshotError) as excinfo:
            BrokerService(config, transport=RecordingTransport())
        assert "state.json" in str(excinfo.value)

    @pytest.mark.parametrize("counter", ["next_sub", "next_reg"])
    def test_counter_that_would_reissue_a_restored_id_refuses_startup(
        self, threshold_catalog, threshold_profile, tmp_path, counter
    ):
        config = config_for(threshold_catalog, tmp_path)
        first = BrokerService(config, transport=RecordingTransport())
        first.handle_request(make_envelope("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(), "service_address": "svc://a"}))
        first.handle_request(make_envelope("subscribe", {
            "consumer_id": "app-1", "profile": threshold_profile.to_dict(),
            "callback_address": "cb://app-1"}))
        first.close()
        state = load_snapshot(config.persist_path)
        assert state[counter] == 2
        save_snapshot(config.persist_path, dict(state, **{counter: 1}))
        with pytest.raises(SnapshotError) as excinfo:
            BrokerService(config, transport=RecordingTransport())
        assert "state.json" in str(excinfo.value) and "-1' is live" in str(excinfo.value)

    def test_snapshot_write_is_atomic_rename(self, tmp_path):
        target = tmp_path / "snap.json"
        save_snapshot(target, {"next_sub": 1, "next_reg": 1, "seq": 0,
                               "registrations": [], "subscriptions": []})
        assert target.exists()
        assert not (tmp_path / "snap.json.tmp").exists()
        assert load_snapshot(target)["next_sub"] == 1

    def test_missing_snapshot_returns_none(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.json") is None

    def test_pretty_printed_base_takes_a_journal(self, threshold_catalog, threshold_profile,
                                                 tmp_path):
        config = config_for(threshold_catalog, tmp_path)
        first = BrokerService(config, transport=RecordingTransport())
        first.handle_request(make_envelope("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(), "service_address": "svc://a"}))
        first.close()
        state = load_snapshot(config.persist_path)
        config.persist_path.write_text(json.dumps(state, sort_keys=True, indent=2))
        second = BrokerService(config, transport=RecordingTransport())
        sub = second.handle_request(make_envelope("subscribe", {
            "consumer_id": "app-1", "profile": threshold_profile.to_dict(),
            "callback_address": "cb://app-1"}))["body"]["subscription_id"]
        expected = second.broker.snapshot_state()
        crash(second)
        third = BrokerService(config, transport=RecordingTransport())
        assert third.broker.snapshot_state() == expected
        assert third.broker.get_decision(sub).selected == ("cs-a",)
        third.close()

    @pytest.mark.parametrize("fault", ["seq skips", "bad record before the last"])
    def test_journal_that_does_not_follow_refuses_startup(self, threshold_catalog, tmp_path,
                                                          fault):
        config = config_for(threshold_catalog, tmp_path)
        first = BrokerService(config, transport=RecordingTransport())
        for k in range(3):
            first.handle_request(make_envelope("register", {
                "offer": make_offer(f"cs-{k}", 0.9, 0.95, 0.99).to_dict(),
                "service_address": f"svc://{k}"}))
        crash(first)
        lines = config.persist_path.read_bytes().split(b"\n")
        assert len(lines) >= 4  # a base, at least two records and the final newline
        if fault == "seq skips":
            record = json.loads(lines[-2])
            lines[-2] = json.dumps(dict(record, seq=record["seq"] + 1)).encode()
        else:
            lines[-3] = lines[-3][:-4]
        config.persist_path.write_bytes(b"\n".join(lines))
        before = dispatch_threads()
        with pytest.raises(SnapshotError) as excinfo:
            BrokerService(config, transport=RecordingTransport())
        assert "state.json" in str(excinfo.value)
        assert dispatch_threads() == before

    @pytest.mark.parametrize("record, refusal", [
        ({"kind": "rename"}, "unknown record kind"),
        ({"kind": "subscribe", "subscription_id": "sub-3", "consumer_id": "app-2",
          "callback_address": "cb://app-2"}, "'sub-2' comes next"),
        ({"kind": "register", "registration_id": "reg-3", "service_address": "svc://b"},
         "'reg-2' comes next"),
        ({"kind": "unsubscribe", "subscription_id": "sub-9"}, "unknown subscription"),
        ({"kind": "deregister", "registration_id": "reg-9", "service_id": "cs-9"},
         "unknown registration"),
        ({"kind": "register", "registration_id": "reg-2", "service_address": "svc://b",
          "offer": dict(make_offer("cs-b", 0.9, 0.95, 0.99).to_dict(), qos_offer=[])},
         "offer 'cs-b'"),
        ({"kind": "subscribe", "subscription_id": "sub-2", "consumer_id": "app-2",
          "callback_address": "cb://app-2", "profile": {
              "topics": ["location"], "qoc_min": [[0.8, 0.93]], "qos_min": []}},
         "profile of 'sub-2'"),
    ], ids=["unknown kind", "subscribe out of turn", "register out of turn",
            "unsubscribe of an unknown id", "deregister of an unknown id",
            "offer that does not fit", "profile that does not fit"])
    def test_journal_record_the_apply_step_refuses(
        self, threshold_catalog, threshold_profile, tmp_path, record, refusal
    ):
        config = config_for(threshold_catalog, tmp_path)
        first = BrokerService(config, transport=RecordingTransport())
        first.handle_request(make_envelope("register", {
            "offer": make_offer("cs-a", 0.9, 0.95, 0.99).to_dict(), "service_address": "svc://a"}))
        first.handle_request(make_envelope("subscribe", {
            "consumer_id": "app-1", "profile": threshold_profile.to_dict(),
            "callback_address": "cb://app-1"}))
        crash(first)
        # The record comes next by seq and ends with a newline, so it is not torn;
        # a subscribe or register gets a fitting profile or offer unless the case
        # gives its own.
        record = {"seq": 3, "at": 1_000, "profile": threshold_profile.to_dict(),
                  "offer": make_offer("cs-b", 0.9, 0.95, 0.99).to_dict(), **record}
        with open(config.persist_path, "ab") as fh:
            fh.write(json.dumps(record).encode() + b"\n")
        before = dispatch_threads()
        with pytest.raises(SnapshotError) as excinfo:
            BrokerService(config, transport=RecordingTransport())
        assert "state.json" in str(excinfo.value) and refusal in str(excinfo.value)
        assert dispatch_threads() == before

    def test_concurrent_mutations_keep_snapshot_loadable(self, threshold_catalog, tmp_path):
        config = ServiceConfig(
            catalog=threshold_catalog,
            listen="127.0.0.1:0",
            persist_path=tmp_path / "state.json",
            retry=FAST_RETRY,
        )
        handle = serve(config)
        client = WireClient(handle.base_url)
        failures: list[Exception] = []

        def register_batch(start):
            try:
                for k in range(start, start + 4):
                    client.request("register", {
                        "offer": make_offer(f"cs-{k:03d}", 0.9, 0.95, 0.99).to_dict(),
                        "service_address": f"svc://{k}",
                    })
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=register_batch, args=(i * 4,)) for i in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client.close()
        handle.stop()
        assert not failures
        restored = BrokerService(config, transport=RecordingTransport())
        assert sorted(restored.broker.find_context_services("location")) == [
            f"cs-{k:03d}" for k in range(20)
        ]
        restored.close()


def dispatch_threads():
    return sum(thread.name == "ctxbroker-dispatch" for thread in threading.enumerate())


def random_requests(rng, catalog, count=12):
    """A plausible mutation sequence: register/subscribe/deregister/unsubscribe."""
    requests = []
    reg_ids = []
    sub_ids = []
    next_reg = 1
    next_sub = 1
    for k in range(count):
        roll = rng.random()
        if roll < 0.4:
            profile = random_profile(rng, catalog, max_topics=2)
            offer = {
                "service_id": f"cs-{k}",
                "cloud_id": "c1",
                "offered_topics": list(profile.topics),
                "qoc_offer": {
                    t: [1.0] * catalog.qoc_count for t in profile.topics
                },
                "qos_offer": [1.0] * catalog.qos_count,
            }
            requests.append(("register", offer))
            reg_ids.append(f"reg-{next_reg}")
            next_reg += 1
        elif roll < 0.7:
            profile = random_profile(rng, catalog, max_topics=2)
            requests.append(("subscribe", profile.to_dict()))
            sub_ids.append(f"sub-{next_sub}")
            next_sub += 1
        elif roll < 0.85 and reg_ids:
            requests.append(("deregister", reg_ids.pop(rng.randrange(len(reg_ids)))))
        elif sub_ids:
            requests.append(("unsubscribe", sub_ids.pop(rng.randrange(len(sub_ids)))))
    return requests


def apply_requests(service, requests, consumer_id="app"):
    for kind, payload in requests:
        if kind == "register":
            service.handle_request(
                make_envelope("register", {"offer": payload, "service_address": "svc://x"})
            )
        elif kind == "subscribe":
            service.handle_request(
                make_envelope(
                    "subscribe",
                    {"consumer_id": consumer_id, "profile": payload,
                     "callback_address": "cb://x"},
                )
            )
        elif kind == "deregister":
            service.deregister(payload)
        elif kind == "unsubscribe":
            service.unsubscribe(payload)


def observable_state(service, topics):
    finds = {
        t: (
            service.broker.find_context_services(t),
            service.broker.find_context_consumers(t),
        )
        for t in topics
    }
    decisions = {
        sub: service.decision(sub)["body"]["decision"]
        for t in topics
        for sub in service.broker.find_context_consumers(t)
    }
    return finds, decisions


def durable_state(service, topics):
    """What a restart must reproduce: finds, decisions, ids, counters and revisions."""
    return observable_state(service, topics), service.broker.snapshot_state()


class TestCrashRestartEquivalence:
    def test_every_journal_prefix_restarts_equal(self, tmp_path):
        rng = random.Random(5)
        catalog = IndicatorCatalog(("q1", "q2"), ("s1",))
        topics = ["t1", "t2"]
        config = ServiceConfig(catalog=catalog, persist_path=tmp_path / "s.json", retry=FAST_RETRY)
        service = BrokerService(config, transport=RecordingTransport())
        expected = [durable_state(service, topics)]
        files = []
        requests = [(request, "app") for request in random_requests(rng, catalog, count=16)]
        # The last record names a consumer whose id is not ASCII.
        requests.append((("subscribe", random_profile(rng, catalog, 2).to_dict()), "app-\u00f1"))
        for n, (request, consumer_id) in enumerate(requests, start=1):
            apply_requests(service, [request], consumer_id)
            assert service.broker.snapshot_state()["seq"] == n
            expected.append(durable_state(service, topics))
            files.append(config.persist_path.read_bytes())
        crash(service)

        copy = tmp_path / "copy" / "s.json"
        copy.parent.mkdir()

        def restart(data):
            copy.write_bytes(data)
            restarted = BrokerService(
                ServiceConfig(catalog=catalog, persist_path=copy, retry=FAST_RETRY),
                transport=RecordingTransport())
            assert copy.read_bytes() == data  # startup writes nothing
            return restarted

        restarts = 0
        for n, data in enumerate(files, start=1):
            base_end = data.index(b"\n") + 1
            assert data.endswith(b"\n") and len(data) > base_end  # the last record is whole
            boundaries = [base_end] + [i + 1 for i in range(base_end, len(data)) if data[i] == 10]
            for cut in boundaries:
                restarted = restart(data[:cut])
                assert durable_state(restarted, topics) == expected[n - data[cut:].count(b"\n")]
                crash(restarted)
                restarts += 1
            if n == len(files):
                # Records stay ASCII, so no cut lands inside a character, and
                # a cut of the last record at any byte restarts to before it.
                assert data.isascii()
                for cut in range(boundaries[-2] + 1, len(data)):
                    torn = restart(data[:cut])
                    assert durable_state(torn, topics) == expected[n - 1]
                    crash(torn)
            torn = restart(data[:-7])
            assert durable_state(torn, topics) == expected[n - 1]
            # The next append cuts the torn line off before it writes.
            apply_requests(torn, [("subscribe", random_profile(rng, catalog, 2).to_dict())])
            crash(torn)
            again = restart(copy.read_bytes())
            assert again.broker.snapshot_state()["seq"] == n
            again.close()
            journal = Journal()
            load_snapshot(copy, journal)
            assert journal.records == []  # close() compacted the journal into the base
        assert restarts > 2 * len(files)

    def test_failed_compaction_changes_nothing_and_is_retried(self, tmp_path, monkeypatch):
        rng = random.Random(7)
        catalog = IndicatorCatalog(("q1", "q2"), ("s1",))
        topics = ["t1", "t2"]
        config = ServiceConfig(catalog=catalog, persist_path=tmp_path / "s.json", retry=FAST_RETRY)
        service = BrokerService(config, transport=RecordingTransport())

        def subscribe():
            return service.handle_request(make_envelope("subscribe", {
                "consumer_id": "app", "profile": random_profile(rng, catalog, 2).to_dict(),
                "callback_address": "cb://x"}))

        def journal_outgrew_base():
            journal = Journal()
            load_snapshot(config.persist_path, journal)
            return journal.tail_bytes > journal.base_bytes

        def crash_restart_state():
            copy = tmp_path / "copy" / "s.json"
            copy.parent.mkdir(exist_ok=True)
            copy.write_bytes(config.persist_path.read_bytes())
            restarted = BrokerService(
                ServiceConfig(catalog=catalog, persist_path=copy, retry=FAST_RETRY),
                transport=RecordingTransport())
            state = durable_state(restarted, topics)
            crash(restarted)
            return state

        for _ in range(3):
            assert subscribe()["kind"] == "ack"
        while not journal_outgrew_base():  # the next mutation compacts first
            assert subscribe()["kind"] == "ack"
        before = durable_state(service, topics)

        def full_disk(path, state):
            raise OSError("no space left on device")

        monkeypatch.setattr("ctxbroker.service.save_snapshot", full_disk)
        assert subscribe()["body"]["code"] == "INTERNAL"
        assert durable_state(service, topics) == before
        assert crash_restart_state() == before
        monkeypatch.undo()
        assert subscribe()["kind"] == "ack"  # retries the compaction, then appends
        assert not journal_outgrew_base()
        after = durable_state(service, topics)
        assert after != before
        assert crash_restart_state() == after
        service.close()

    @pytest.fixture
    def journaled(self, tmp_path):
        """A service holding sub-1 and sub-2 whose next append writes its
        record without compacting first, ``subscribe(consumer_id)``, and
        the subscriptions a restart from a copy of the file finds."""
        catalog = IndicatorCatalog(("q1", "q2"), ("s1",))
        config = ServiceConfig(catalog=catalog, persist_path=tmp_path / "s.json", retry=FAST_RETRY)
        service = BrokerService(config, transport=RecordingTransport())
        profile = random_profile(random.Random(3), catalog, 2).to_dict()

        def subscribe(consumer_id):
            return service.handle_request(make_envelope("subscribe", {
                "consumer_id": consumer_id, "profile": profile, "callback_address": "cb://x"}))

        def crash_restart_subscriptions():
            copy = tmp_path / "copy.json"
            copy.write_bytes(config.persist_path.read_bytes())
            restarted = BrokerService(
                ServiceConfig(catalog=catalog, persist_path=copy, retry=FAST_RETRY),
                transport=RecordingTransport())
            state = restarted.broker.snapshot_state()
            crash(restarted)
            return {s["subscription_id"]: s["consumer_id"] for s in state["subscriptions"]}

        for consumer_id in ("app-1", "app-2"):
            assert subscribe(consumer_id)["kind"] == "ack"
        journal = service._journal
        assert journal.tail_bytes <= journal.base_bytes
        # A leaked os.open descriptor escapes the ResourceWarning pass; count them.
        fds = "/proc/self/fd"
        open_fds = len(os.listdir(fds)) if os.path.isdir(fds) else None
        yield service, subscribe, crash_restart_subscriptions
        if open_fds is not None:
            assert len(os.listdir(fds)) == open_fds
        service.close()

    def test_a_record_whose_fsync_failed_is_gone_after_a_crash(self, journaled, monkeypatch):
        service, subscribe, crash_restart_subscriptions = journaled

        def failing_fsync(fd):
            raise OSError(errno.EIO, "input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        assert subscribe("refused")["body"]["code"] == "INTERNAL"
        monkeypatch.undo()
        assert crash_restart_subscriptions() == {"sub-1": "app-1", "sub-2": "app-2"}
        assert subscribe("app-3")["body"] == {"subscription_id": "sub-3"}
        assert crash_restart_subscriptions() == {
            "sub-1": "app-1", "sub-2": "app-2", "sub-3": "app-3"}

    def test_a_full_disk_refuses_one_append_and_not_the_next(self, journaled, monkeypatch):
        service, subscribe, crash_restart_subscriptions = journaled
        before = service.config.persist_path.read_bytes()
        real_open = os.open

        def open_on_full_disk(path, flags, *args):  # the append's open, once
            monkeypatch.setattr(os, "open", real_open)
            fd = real_open(path, flags, *args)
            full = real_open("/dev/full", os.O_WRONLY)  # every write fails with ENOSPC
            try:
                os.dup2(full, fd)
            finally:
                os.close(full)
            return fd

        monkeypatch.setattr(os, "open", open_on_full_disk)
        refused = subscribe("refused")["body"]
        assert refused["code"] == "INTERNAL" and "[Errno 28]" in refused["message"]
        assert service.config.persist_path.read_bytes() == before
        assert subscribe("app-3")["body"] == {"subscription_id": "sub-3"}
        assert crash_restart_subscriptions() == {
            "sub-1": "app-1", "sub-2": "app-2", "sub-3": "app-3"}

    def test_a_short_write_is_refused_and_cut_off(self, journaled, monkeypatch):
        service, subscribe, crash_restart_subscriptions = journaled
        real_write = os.write
        before = service.config.persist_path.read_bytes()
        # takes only part of a write, as a full disk can
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:10]))
        assert subscribe("refused")["body"]["code"] == "INTERNAL"
        monkeypatch.undo()
        assert service.config.persist_path.read_bytes() == before
        assert subscribe("app-3")["body"] == {"subscription_id": "sub-3"}
        assert crash_restart_subscriptions() == {
            "sub-1": "app-1", "sub-2": "app-2", "sub-3": "app-3"}

    def test_a_removed_persist_file_refuses_every_mutation(self, journaled):
        service, subscribe, _ = journaled
        service.config.persist_path.unlink()
        for consumer_id in ("refused-1", "refused-2"):
            assert subscribe(consumer_id)["body"]["code"] == "INTERNAL"
        assert not service.config.persist_path.exists()
        assert [s["subscription_id"] for s in service.broker.snapshot_state()["subscriptions"]] == [
            "sub-1", "sub-2"]

    def test_interleavings_smoke(self, tmp_path):
        rng = random.Random(99)
        catalog = IndicatorCatalog(("q1", "q2"), ("s1",))
        topics = [f"t{j + 1}" for j in range(2)]
        for case in range(5):
            requests = random_requests(rng, catalog)
            cut = rng.randint(0, len(requests))

            plain_dir = tmp_path / f"case-{case}-plain"
            restart_dir = tmp_path / f"case-{case}-restart"
            plain_dir.mkdir()
            restart_dir.mkdir()

            uninterrupted = BrokerService(
                ServiceConfig(catalog=catalog, persist_path=plain_dir / "s.json", retry=FAST_RETRY),
                transport=RecordingTransport(),
            )
            apply_requests(uninterrupted, requests)
            expected = observable_state(uninterrupted, topics)
            uninterrupted.close()

            config = ServiceConfig(
                catalog=catalog, persist_path=restart_dir / "s.json", retry=FAST_RETRY
            )
            before = BrokerService(config, transport=RecordingTransport())
            apply_requests(before, requests[:cut])
            before.close()
            after = BrokerService(config, transport=RecordingTransport())
            apply_requests(after, requests[cut:])
            assert observable_state(after, topics) == expected
            after.close()
