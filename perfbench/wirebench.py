"""The ``wire`` workload: the broker runs in its own process
(``python -m ctxbroker serve --persist ...``), restarted from a snapshot
the benchmark saved; this process hosts the consumer and service HTTP
endpoints and drives the broker over two client connections."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Iterator

from ctxbroker.broker import ContextBroker
from ctxbroker.service import save_snapshot
from ctxbroker.wire import WireClient, WireError, make_envelope

from . import harness, metrics, trace
from .gen import ServicePool, Workload, schedule
from .harness import Op, RunLog, now
from .reference import Mutation, Publication, RefBroker, RouteSizes

ROOT = Path(__file__).resolve().parent.parent
START_TIMEOUT = 60.0


class _CountingServer(ThreadingHTTPServer):
    daemon_threads = True

    def process_request(self, request: Any, client_address: Any) -> None:
        with self.hub.lock:
            self.hub.connections += 1
        super().process_request(request, client_address)


class Endpoints:
    """Consumer callbacks (``POST /c/<consumer>``) and service pulls
    (``GET /s/<service>/topics/<topic>``) on one loopback HTTP server."""

    def __init__(self, log: RunLog) -> None:
        self.log = log
        self.lock = threading.Lock()
        self.connections = 0
        self.pushes = 0
        self.push_bytes = 0
        self.latest: dict[tuple[str, str], dict] = {}
        hub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length)
                at = now()
                hub.log.receipts.append(harness.receipt_from_message(json.loads(raw), at))
                with hub.lock:
                    hub.pushes += 1
                    hub.push_bytes += length
                self._reply(b"{}")

            def do_GET(self) -> None:
                parts = self.path.split("/")  # "", "s", service, "topics", topic
                sid, topic = parts[2], parts[4]
                sample = hub.latest.get((sid, topic)) or {
                    "topic": topic, "payload": {"n": -1},
                    "produced_at": harness.BASE_MS - 1, "service_id": sid,
                }
                self._reply(json.dumps(sample).encode())

            def _reply(self, data: bytes) -> None:
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format: str, *args: Any) -> None:
                pass

        self.server = _CountingServer(("127.0.0.1", 0), Handler)
        self.server.hub = self
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]

    def consumer(self, name: str) -> str:
        return f"{self.url}/c/{name}"

    def service(self, service_id: str) -> str:
        return f"{self.url}/s/{service_id}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)


class Broker:
    """The broker process: started from the snapshot, stopped with SIGINT."""

    def __init__(self, workdir: Path, snapshot: Path, catalog: Path, spans: Path | None) -> None:
        if spans is None:
            program = ["-m", "ctxbroker"]
        else:
            program = [str(ROOT / "perfbench" / "child.py"), str(spans)]
        cmd = [sys.executable, "-u", *program, "serve", "--catalog", str(catalog),
               "--persist", str(snapshot), "--listen", "127.0.0.1:0", "--log-level", "warning"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.stderr = open(workdir / "broker.stderr", "ab")
        start = now()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        try:
            self.url = self._wait_listening(start + START_TIMEOUT)
            WireClient(self.url).find_services("location")
        except BaseException:
            self.stop()
            raise
        self.setup_s = now() - start

    def _wait_listening(self, deadline: float) -> str:
        buffered = b""
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                for line in buffered.decode(errors="replace").splitlines():
                    if line.startswith("listening on "):
                        return line.split()[-1]
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"broker did not start (exit {self.proc.poll()}); see broker.stderr")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Client:
    """One client connection stream; every request is timed and logged."""

    def __init__(self, url: str, log: RunLog, name: str) -> None:
        self.wire = WireClient(url)
        self.log = log
        self.name = name
        self.count = 0
        self.last = (0.0, 0.0)  # (sent, answered) of the last request

    def call(self, kind: str, method: str, path: str, body: dict | None = None,
             due: float | None = None) -> dict | None:
        self.count += 1
        request_id = f"{self.name}-{self.count}"
        envelope = None
        if body is not None:
            envelope = make_envelope(kind, body, request_id)
        else:
            path += f"?request_id={request_id}"
        self.log.request()
        start = now()
        try:
            response = self.wire.exchange(method, path, envelope)
        except (WireError, OSError, ValueError) as exc:
            end = now()
            self.log.fail(f"{kind} {path}: {exc}")
            self.log.ops.append(Op(kind, start if due is None else due, start, end, False, request_id))
            return None
        end = now()
        self.log.ops.append(Op(kind, start if due is None else due, start, end, True, request_id))
        self.last = (start, end)
        return response["body"]


class WireDriver:
    def __init__(self, w: Workload, workdir: Path, log: RunLog, endpoints: Endpoints) -> None:
        self.w = w
        self.workdir = workdir
        self.log = log
        self.endpoints = endpoints
        self.sub_ids: list[str] = []
        self.reg_ids: dict[str, str] = {}  # of the churning services registered over the wire

    def save_snapshot(self) -> tuple[Path, Path]:
        """Build the initial registry in-process and save it as the
        broker's persistence file."""
        broker = ContextBroker(self.w.catalog)
        try:
            for offer in self.w.initial_offers:
                broker.register_context_service(offer, self.endpoints.service(offer.service_id))
            for i, profile in enumerate(self.w.profiles):
                sub_id = broker.subscribe(f"consumer-{i}", profile,
                                          self.endpoints.consumer(f"consumer-{i}"))
                self.sub_ids.append(sub_id)
            snapshot = self.workdir / "wire-snapshot.json"
            save_snapshot(snapshot, broker.snapshot_state())
        finally:
            broker.close()
        catalog = self.workdir / "catalog.json"
        catalog.write_text(json.dumps(self.w.catalog.to_dict()), encoding="utf-8")
        return snapshot, catalog

    def reference(self) -> RefBroker:
        return self.w.reference(self.sub_ids)[0]

    def publish(self, client: Client, service_id: str, topic: str, due: float | None = None) -> None:
        pub_id, sample = self.log.new_sample(service_id, topic)
        body = client.call("notify", "POST", "/notify",
                           {"service_id": service_id, "sample": sample.to_dict()}, due)
        if body is None:
            return
        start, end = client.last
        self.log.samples[pub_id] = (service_id, topic, end)
        self.endpoints.latest[(service_id, topic)] = sample.to_dict()
        self.log.publications.append(
            Publication(pub_id, service_id, topic, start, end, start if due is None else due))


def run_wire(w: Workload, seconds: float, workdir: Path, tracer=None) -> dict:
    spec = w.spec
    log = RunLog()
    endpoints = Endpoints(log)
    broker = None
    try:
        driver = WireDriver(w, workdir, log, endpoints)
        snapshot, catalog = driver.save_snapshot()
        spans_path = workdir / "wire-spans.json"
        starts = iter(range(harness.SETUPS))

        def start() -> tuple[Broker, float]:
            nonlocal broker
            traced = tracer is not None and next(starts) == harness.SETUPS - 1
            broker = Broker(workdir, snapshot, catalog, spans_path if traced else None)
            return broker, broker.setup_s

        broker, setups = harness.set_ups(start, Broker.stop, log.speed)
        ref = driver.reference()
        route_sizes = RouteSizes(driver.reference(), log.mutations)
        pub_client = Client(broker.url, log, "pub")
        ctl_client = Client(broker.url, log, "ctl")

        for offer in w.stable:  # fill the broker's topic cache
            for topic in offer.offered_topics:
                driver.publish(pub_client, offer.service_id, topic)
        harness.wait_receipts(log, None, now() + 10.0, quiet=0.2)

        burst_pubs, open_pubs = w.publishes("burst"), w.publishes("open")
        rng = w.rng("control")
        pub_times, ctl_times = w.rng("publish-times"), w.rng("control-times")
        profiles = w.fresh_profiles("control")
        targets = w.pull_targets(driver.sub_ids, ref)
        control_subs: list[str] = []
        services = ServicePool(w, rng)

        def bursts() -> None:
            harness.bursts(log, spec.burst_pubs, spec.bursts_per_round, burst_pubs, route_sizes,
                           lambda sid, topic: driver.publish(pub_client, sid, topic))

        def mutate(kind: str, op: str, method: str, path: str, body: dict | None, arg, due):
            result = ctl_client.call(kind, method, path, body, due)
            if result is not None:
                start, end = ctl_client.last
                log.mutations.append(Mutation(op, arg(result), start, end))
            return result

        def decision(sub_id: str) -> None:
            body = ctl_client.call("decision", "GET", f"/subscriptions/{sub_id}/decision")
            if body is not None:
                log.decisions.append((sub_id, tuple(body["decision"]["selected"]), *ctl_client.last))

        def control(kinds: Iterator[str], i: int, due: float) -> None:
            kind = next(kinds)
            if kind in ("pull-last", "pull-current"):
                sub_id, topic = rng.choice(targets)
                suffix = "last" if kind == "pull-last" else "current"
                body = ctl_client.call(kind, "GET", f"/subscriptions/{sub_id}/topics/{topic}/{suffix}",
                                       None, due)
                if body is not None:
                    log.pulls.append((sub_id, topic, body["sample"], *ctl_client.last, kind))
            elif kind == "subscribe-unsubscribe":
                if control_subs:
                    sub_id = control_subs.pop()
                    mutate("unsubscribe", "unsubscribe", "DELETE", f"/subscriptions/{sub_id}",
                           None, lambda _: sub_id, due)
                else:
                    profile = next(profiles)
                    body = mutate("subscribe", "subscribe", "POST", "/subscriptions",
                                  {"consumer_id": f"control-{i}", "profile": profile.to_dict(),
                                   "callback_address": endpoints.consumer(f"control-{i}")},
                                  lambda b: (b["subscription_id"], profile), due)
                    if body is not None:
                        control_subs.append(body["subscription_id"])
            else:
                op, offer = services.next()
                sid = offer.service_id
                if op == "register":
                    body = mutate("register", "register", "POST", "/registrations",
                                  {"offer": offer.to_dict(),
                                   "service_address": endpoints.service(sid)},
                                  lambda _: sid, due)
                    if body is not None:
                        driver.reg_ids[sid] = body["registration_id"]
                else:
                    mutate("deregister", "deregister", "DELETE",
                           f"/registrations/{driver.reg_ids.pop(sid)}", None, lambda _: sid, due)
                decision(rng.choice(driver.sub_ids))

        def open_phase(until: float) -> None:
            kinds = schedule(spec.control_mix)  # whole cycles per phase, see gen.SPECS
            harness.run_threads(
                lambda: harness.open_loop(
                    spec.open_rate, until,
                    lambda i, due: driver.publish(pub_client, *next(open_pubs), due=due), log,
                    pub_times),
                lambda: harness.open_loop(spec.control_rate, until,
                                          lambda i, due: control(kinds, i, due), log, ctl_times),
            )

        t0 = now()
        harness.rounds(seconds, spec.round_seconds, spec.open_seconds, log, bursts, open_phase)
        for sub_id in rng.sample(driver.sub_ids, 20):
            decision(sub_id)
        harness.wait_receipts(log, None, now() + 10.0, quiet=0.3)
    finally:
        if broker is not None:
            broker.stop()
        endpoints.stop()

    result = {
        "log": log,
        "ref": ref,
        "ref_factory": driver.reference,
        "advisories": [],
        "setups": setups,
        "measure_from": t0,
        "live_subs": len(driver.sub_ids),
        "rss_mb": metrics.peak_rss_mb(children=True),
        "consumer": {"connections": endpoints.connections, "pushes": endpoints.pushes,
                     "bytes": endpoints.push_bytes},
    }
    if tracer is not None:
        tracer.spans.extend(trace.load(str(spans_path)))
    return result
