"""Deterministic scenario runner standing in for real sensors and apps.

A scenario scripts simulated context services (with declared quality
offers), consumers (with requirement profiles) and a timeline of
register/subscribe/publish/pull events against a virtual clock. The
runner turns each event into the same request envelopes in both modes:
in process it hands them to ``BrokerService.handle_request``, over the
wire it sends them to a spawned broker service on loopback HTTP. Both
produce the same run report.

Simulated services embed their aggregator: a publish event sets the
service's current topic value and immediately notifies the broker.
Quality levels come from the declared offers only, never from payloads.
"""

from __future__ import annotations

import contextlib
import json
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import errors, wire
from .model import IndicatorCatalog, RequirementProfile, ServiceOffer
from .service import BrokerService, ServiceConfig, serve

ACTIONS = ("register", "deregister", "subscribe", "unsubscribe", "publish", "pull")


class ScenarioError(ValueError):
    """A scenario file or structure violates the scenario invariants."""


@dataclass(frozen=True)
class ScenarioEvent:
    at: int
    action: str
    service_id: str | None = None
    consumer_id: str | None = None
    topic: str | None = None
    payload: Any = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"at": self.at, "action": self.action}
        if self.service_id is not None:
            data["service_id"] = self.service_id
        if self.consumer_id is not None:
            data["consumer_id"] = self.consumer_id
        if self.topic is not None:
            data["topic"] = self.topic
        if self.payload is not None:
            data["payload"] = self.payload
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioEvent":
        return cls(
            at=int(data["at"]),
            action=data["action"],
            service_id=data.get("service_id"),
            consumer_id=data.get("consumer_id"),
            topic=data.get("topic"),
            payload=data.get("payload"),
        )


@dataclass(frozen=True)
class Scenario:
    seed: int
    catalog: IndicatorCatalog
    clouds: tuple[tuple[str, tuple[ServiceOffer, ...]], ...]
    consumers: tuple[tuple[str, RequirementProfile], ...]
    timeline: tuple[ScenarioEvent, ...]

    def offers_by_service(self) -> dict[str, ServiceOffer]:
        return {o.service_id: o for _, cloud_offers in self.clouds for o in cloud_offers}

    def profiles_by_consumer(self) -> dict[str, RequirementProfile]:
        return dict(self.consumers)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "catalog": self.catalog.to_dict(),
            "clouds": [
                {"cloud_id": cid, "services": [o.to_dict() for o in cloud_offers]}
                for cid, cloud_offers in self.clouds
            ],
            "consumers": [
                {"consumer_id": cid, "profile": profile.to_dict()}
                for cid, profile in self.consumers
            ],
            "timeline": [event.to_dict() for event in self.timeline],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        return cls(
            seed=int(data.get("seed", 0)),
            catalog=IndicatorCatalog.from_dict(data["catalog"]),
            clouds=tuple(
                (cloud["cloud_id"], tuple(ServiceOffer.from_dict(o) for o in cloud["services"]))
                for cloud in data["clouds"]
            ),
            consumers=tuple(
                (entry["consumer_id"], RequirementProfile.from_dict(entry["profile"]))
                for entry in data["consumers"]
            ),
            timeline=tuple(ScenarioEvent.from_dict(e) for e in data["timeline"]),
        )


def validate_scenario(scenario: Scenario) -> None:
    """Raise ScenarioError naming the first violated scenario invariant."""
    from .model import validate_offer, validate_profile

    offers = {}
    for cloud_id, cloud_offers in scenario.clouds:
        for offer in cloud_offers:
            if offer.service_id in offers:
                raise ScenarioError(f"duplicate service {offer.service_id!r} across clouds")
            if offer.cloud_id != cloud_id:
                raise ScenarioError(
                    f"offer {offer.service_id!r} declares cloud {offer.cloud_id!r} "
                    f"inside cloud {cloud_id!r}"
                )
            result = validate_offer(offer, scenario.catalog)
            if not result:
                raise ScenarioError(f"offer {offer.service_id!r}: {result.reason}")
            offers[offer.service_id] = offer
    profiles = {}
    for consumer_id, profile in scenario.consumers:
        if consumer_id in profiles:
            raise ScenarioError(f"duplicate consumer {consumer_id!r}")
        result = validate_profile(profile, scenario.catalog)
        if not result:
            raise ScenarioError(f"profile of {consumer_id!r}: {result.reason}")
        profiles[consumer_id] = profile

    registered: set[str] = set()
    subscribed: set[str] = set()
    last_at = None
    for index, event in enumerate(scenario.timeline):
        where = f"timeline[{index}]"
        if last_at is not None and event.at < last_at:
            raise ScenarioError(f"{where}: at {event.at} is earlier than previous {last_at}")
        last_at = event.at
        if event.action not in ACTIONS:
            raise ScenarioError(f"{where}: unknown action {event.action!r}")
        if event.action in ("register", "deregister", "publish"):
            offer = offers.get(event.service_id or "")
            if offer is None:
                raise ScenarioError(f"{where}: unknown service {event.service_id!r}")
            if event.action == "register":
                if event.service_id in registered:
                    raise ScenarioError(f"{where}: service {event.service_id!r} already registered")
                registered.add(event.service_id)  # type: ignore[arg-type]
            elif event.action == "deregister":
                if event.service_id not in registered:
                    raise ScenarioError(f"{where}: service {event.service_id!r} not registered")
                registered.discard(event.service_id)  # type: ignore[arg-type]
            else:
                if event.service_id not in registered:
                    raise ScenarioError(f"{where}: publish from unregistered {event.service_id!r}")
                if event.topic not in offer.qoc_offer:
                    raise ScenarioError(
                        f"{where}: service {event.service_id!r} does not offer {event.topic!r}"
                    )
        else:
            profile = profiles.get(event.consumer_id or "")
            if profile is None:
                raise ScenarioError(f"{where}: unknown consumer {event.consumer_id!r}")
            if event.action == "subscribe":
                if event.consumer_id in subscribed:
                    raise ScenarioError(f"{where}: consumer {event.consumer_id!r} already subscribed")
                subscribed.add(event.consumer_id)  # type: ignore[arg-type]
            elif event.action == "unsubscribe":
                if event.consumer_id not in subscribed:
                    raise ScenarioError(f"{where}: consumer {event.consumer_id!r} not subscribed")
                subscribed.discard(event.consumer_id)  # type: ignore[arg-type]
            else:
                if event.consumer_id not in subscribed:
                    raise ScenarioError(f"{where}: pull from unsubscribed {event.consumer_id!r}")
                if event.topic not in profile.topics:
                    raise ScenarioError(
                        f"{where}: consumer {event.consumer_id!r} did not subscribe to {event.topic!r}"
                    )


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        scenario = Scenario.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: malformed scenario: {exc!r}") from exc
    validate_scenario(scenario)
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario.to_dict(), sort_keys=True, indent=2), encoding="utf-8"
    )


# -- run report ------------------------------------------------------------


@dataclass
class RunReport:
    """Exact, reproducible counts from one scenario run.

    ``meta`` carries mode and wall-clock details and is excluded from
    equality, so reports from different modes compare on substance only.
    """

    consumers: dict[str, Any]
    services: dict[str, Any]
    totals: dict[str, Any]
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "consumers": self.consumers,
            "services": self.services,
            "totals": self.totals,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        return cls(
            consumers=data["consumers"],
            services=data["services"],
            totals=data["totals"],
            meta=data.get("meta", {}),
        )


def emit_report(report: RunReport, format: str = "table") -> str:
    """Render a report as an aligned table or as JSON that round-trips."""
    if format in ("machine-readable", "json"):
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")
    lines = []
    consumer_rows = [("consumer", "topic", "selected", "switches", "notifications", "advisories")]
    for consumer_id in sorted(report.consumers):
        entry = report.consumers[consumer_id]
        for topic in sorted(entry["topics"]):
            t = entry["topics"][topic]
            history = t["selected_history"]
            consumer_rows.append(
                (
                    consumer_id,
                    topic,
                    str(history[-1]) if history else "-",
                    str(max(0, len(history) - 1)),
                    str(t["notifications"]),
                    str(t["advisories"]),
                )
            )
    lines.extend(tabulate(consumer_rows))
    lines.append("")
    service_rows = [("service", "publications", "pulls")]
    for service_id in sorted(report.services):
        s = report.services[service_id]
        service_rows.append((service_id, str(s["publications"]), str(s["pulls"])))
    lines.extend(tabulate(service_rows))
    lines.append("")
    totals = report.totals
    lines.append(
        "totals: selection_switches=%d notifications=%d advisories=%d pulls_ok=%d"
        % (
            totals["selection_switches"],
            totals["notifications"],
            totals["advisories"],
            totals["pulls_ok"],
        )
    )
    if totals["pull_errors"]:
        errors_part = " ".join(
            f"{code}={count}" for code, count in sorted(totals["pull_errors"].items())
        )
        lines.append("pull errors: " + errors_part)
    return "\n".join(lines)


def parse_report(text: str) -> RunReport:
    """Inverse of the machine-readable emit format."""
    return RunReport.from_dict(json.loads(text))


def tabulate(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned text columns; the first row is the header, underlined."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = []
    for index, row in enumerate(rows):
        out.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            out.append("  ".join("-" * width for width in widths))
    return out


# -- simulated endpoints -----------------------------------------------------


class _SimConsumer:
    """Records pushed envelopes in arrival order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._messages: list[dict[str, Any]] = []

    def receive(self, message: dict[str, Any]) -> None:
        with self._lock:
            self._messages.append(message)

    def messages(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._messages)


class _SimService:
    """Holds the service's current per-topic value; counts pulls served."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, dict[str, Any]] = {}
        self.pulls = 0

    def set_value(self, sample: dict[str, Any]) -> None:
        with self._lock:
            self._values[sample["topic"]] = sample

    def pull(self, topic: str) -> dict[str, Any] | None:
        with self._lock:
            sample = self._values.get(topic)
            if sample is not None:
                self.pulls += 1
            return sample


class _SimEndpoints:
    """The simulated consumers and services of a run, by id.

    Each has an address under ``base_url``, with its id quoted as one
    path segment. In process the broker reaches them through this object
    as its Transport; listen() serves the same addresses over loopback
    HTTP instead. Either way push() and pull() are the only lookup.
    """

    def __init__(self, scenario: Scenario | None = None) -> None:
        consumers = [consumer_id for consumer_id, _ in scenario.consumers] if scenario else []
        services = list(scenario.offers_by_service()) if scenario else []
        self.consumers = {consumer_id: _SimConsumer() for consumer_id in consumers}
        self.services = {service_id: _SimService() for service_id in services}
        self.base_url = "local:"
        self.server: wire.Server | None = None

    def consumer(self, consumer_id: str) -> str:
        return self.base_url + wire.fill("/consumers/{consumer_id}", {"consumer_id": consumer_id})

    def service(self, service_id: str) -> str:
        return self.base_url + wire.fill("/services/{service_id}", {"service_id": service_id})

    def push(self, callback_address: str, message: dict[str, Any]) -> wire.DeliveryStatus:
        consumer_id = urllib.parse.unquote(callback_address.removeprefix(self.consumer("")))
        consumer = self.consumers.get(consumer_id)
        if consumer is not None:
            consumer.receive(message)
        return wire.DeliveryStatus(delivered=consumer is not None, attempts=1)

    def pull(self, service_address: str, topic: str) -> dict[str, Any]:
        service_id = urllib.parse.unquote(service_address.removeprefix(self.service("")))
        service = self.services.get(service_id)
        sample = service.pull(topic) if service is not None else None
        if sample is None:
            raise errors.UpstreamUnavailable(
                f"service at {service_address!r} has no value for {topic!r}"
            )
        return sample

    def listen(self) -> None:
        self.server = wire.Server("127.0.0.1", 0, self._route)
        self.base_url = self.server.base_url

    def _route(self, method: str, target: str, headers: dict[bytes, bytes],
               body: bytes) -> tuple[int, Any]:
        """Serve the addresses over HTTP: POST a push to a consumer's, GET
        ``<service address>/topics/<topic>`` to pull from a service."""
        if method == "POST":
            message = wire.decode(body)
            if not isinstance(message, dict):
                return 400, {"ok": False}
            delivered = self.push(self.base_url + target, message).delivered
            return 200 if delivered else 404, {"ok": delivered}
        if method != "GET":
            return 405, {}
        prefix, _, topic = target.rpartition("/topics/")
        try:
            return 200, self.pull(self.base_url + prefix, urllib.parse.unquote(topic))
        except errors.UpstreamUnavailable:
            return 404, {}

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()


# -- runner -----------------------------------------------------------------


def run(scenario: Scenario, mode: str = "in-process") -> RunReport:
    """Execute a scenario and report exact selection/delivery counts.

    ``mode`` is "in-process" or "over-wire". Both send the same request
    envelopes: in process straight to ``BrokerService.handle_request``,
    over the wire through a spawned broker service on loopback. Both
    yield the same report for the same scenario (meta excluded).
    """
    validate_scenario(scenario)
    if mode not in ("in-process", "over-wire"):
        raise ValueError(f"unknown mode {mode!r}")
    endpoints = _SimEndpoints(scenario)
    started = time.monotonic()
    with contextlib.ExitStack() as stack:
        stack.callback(endpoints.stop)
        if mode == "in-process":
            service = BrokerService(ServiceConfig(scenario.catalog), transport=endpoints)
            stack.callback(service.close)

            def send(kind: str, body: dict[str, Any]) -> dict[str, Any]:
                response = service.handle_request(wire.make_envelope(kind, body))
                if response["kind"] == "error":
                    raise wire.WireError(response)
                return response["body"]
        else:
            endpoints.listen()
            config = ServiceConfig(
                catalog=scenario.catalog,
                retry=wire.RetryPolicy(attempts=3, backoff_initial=0.05),
            )
            handle = stack.enter_context(serve(config))
            send = stack.enter_context(wire.WireClient(handle.base_url)).request
        report = _execute(scenario, endpoints, send)
    report.meta = {
        "mode": mode,
        "seed": scenario.seed,
        "wall_ms": int((time.monotonic() - started) * 1000),
    }
    return report


def _execute(
    scenario: Scenario,
    endpoints: _SimEndpoints,
    send: Callable[[str, dict[str, Any]], dict[str, Any]],
) -> RunReport:
    """Play the timeline through ``send(kind, body) -> ack body``; an error
    answer raises WireError."""
    offers = scenario.offers_by_service()
    profiles = scenario.profiles_by_consumer()
    registrations: dict[str, str] = {}
    subscriptions: dict[str, str] = {}
    histories: dict[tuple[str, str], list[str | None]] = {}
    publications = {service_id: 0 for service_id in offers}
    pulls_ok = 0
    pull_errors: dict[str, int] = {}

    def sample_decisions() -> None:
        for consumer_id, subscription_id in subscriptions.items():
            decision = send("decision", {"subscription_id": subscription_id})["decision"]
            for topic, selected in zip(decision["topics"], decision["selected"]):
                history = histories.setdefault((consumer_id, topic), [])
                if not history or history[-1] != selected:
                    history.append(selected)

    for event in scenario.timeline:
        if event.action == "register":
            registrations[event.service_id] = send("register", {
                "offer": offers[event.service_id].to_dict(),
                "service_address": endpoints.service(event.service_id),
            })["registration_id"]
            sample_decisions()
        elif event.action == "deregister":
            send("deregister", {"registration_id": registrations.pop(event.service_id)})
            sample_decisions()
        elif event.action == "subscribe":
            subscriptions[event.consumer_id] = send("subscribe", {
                "consumer_id": event.consumer_id,
                "profile": profiles[event.consumer_id].to_dict(),
                "callback_address": endpoints.consumer(event.consumer_id),
            })["subscription_id"]
            sample_decisions()
        elif event.action == "unsubscribe":
            send("unsubscribe", {"subscription_id": subscriptions.pop(event.consumer_id)})
        elif event.action == "publish":
            sample = {
                "topic": event.topic,
                "payload": event.payload,
                "produced_at": event.at,
                "service_id": event.service_id,
            }
            endpoints.services[event.service_id].set_value(sample)
            send("notify", {"service_id": event.service_id, "sample": sample})
            publications[event.service_id] += 1
        elif event.action == "pull":
            try:
                send("pull-current", {
                    "subscription_id": subscriptions[event.consumer_id], "topic": event.topic})
                pulls_ok += 1
            except wire.WireError as exc:
                pull_errors[exc.code] = pull_errors.get(exc.code, 0) + 1
        send("drain", {})

    last_values: dict[tuple[str, str], Any] = {}
    for consumer_id, subscription_id in subscriptions.items():
        for topic in profiles[consumer_id].topics:
            try:
                sample = send("pull-last", {"subscription_id": subscription_id, "topic": topic})[
                    "sample"]
            except wire.WireError:
                sample = None
            last_values[(consumer_id, topic)] = (
                [sample["service_id"], sample["payload"]] if sample else None
            )

    consumers_report: dict[str, Any] = {}
    total_notifications = 0
    total_advisories = 0
    for consumer_id, profile in scenario.consumers:
        received: dict[str, list[list[Any]]] = {t: [] for t in profile.topics}
        advisories: list[list[str]] = []
        for message in endpoints.consumers[consumer_id].messages():
            body = message.get("body", {})
            if message.get("kind") == "notify":
                sample = body["sample"]
                received[sample["topic"]].append([sample["service_id"], sample["payload"]])
            elif message.get("kind") == "advisory":
                advisories.append(list(body["topics"]))
        topics_report = {}
        for topic in profile.topics:
            history = histories.get((consumer_id, topic), [])
            topics_report[topic] = {
                "selected_history": list(history),
                "received": received[topic],
                "notifications": len(received[topic]),
                "advisories": sum(1 for topics in advisories if topic in topics),
                "last": last_values.get((consumer_id, topic)),
            }
        total_notifications += sum(t["notifications"] for t in topics_report.values())
        total_advisories += len(advisories)
        consumers_report[consumer_id] = {"advisories": advisories, "topics": topics_report}

    services_report = {
        service_id: {"publications": publications[service_id], "pulls": endpoints.services[service_id].pulls}
        for service_id in offers
    }
    totals = {
        "selection_switches": sum(max(0, len(h) - 1) for h in histories.values()),
        "notifications": total_notifications,
        "advisories": total_advisories,
        "pulls_ok": pulls_ok,
        "pull_errors": pull_errors,
    }
    return RunReport(consumers=consumers_report, services=services_report, totals=totals)


# -- random scenario generation ----------------------------------------------


def generate_random_scenario(
    seed: int,
    services: int = 3,
    topics: int = 2,
    qoc: int = 2,
    qos: int = 1,
    events: int = 20,
    clouds: int = 1,
    consumers: int = 2,
) -> Scenario:
    """Reproducible random scenario; the same seed yields the same scenario.

    Offers and profiles are drawn so that feasibility is common but not
    guaranteed, which exercises zero scores, renegotiation advisories and
    selection switches.
    """
    if min(topics, qoc, qos, clouds, consumers) < 1 or services < 0 or events < 0:
        raise ValueError("sizes must be positive (services and events may be 0)")
    rng = random.Random(seed)
    topic_names = [f"topic-{j + 1}" for j in range(topics)]
    catalog = IndicatorCatalog(
        qoc_indicators=tuple(f"qoc-{i + 1}" for i in range(qoc)),
        qos_indicators=tuple(f"qos-{k + 1}" for k in range(qos)),
    )

    cloud_ids = [f"cloud-{i + 1}" for i in range(clouds)]
    grouped: dict[str, list[ServiceOffer]] = {cid: [] for cid in cloud_ids}
    for k in range(services):
        cloud_id = rng.choice(cloud_ids)
        offered = tuple(sorted(rng.sample(topic_names, rng.randint(1, topics))))
        offer = ServiceOffer(
            service_id=f"svc-{k + 1:02d}",
            cloud_id=cloud_id,
            offered_topics=offered,
            qoc_offer={
                t: tuple(round(rng.uniform(0.3, 1.0), 3) for _ in range(qoc))
                for t in offered
            },
            qos_offer=tuple(round(rng.uniform(0.5, 1.0), 3) for _ in range(qos)),
        )
        grouped[cloud_id].append(offer)

    consumer_list = []
    for i in range(consumers):
        chosen = tuple(sorted(rng.sample(topic_names, rng.randint(1, topics))))
        profile = RequirementProfile(
            topics=chosen,
            qoc_min=tuple(
                tuple(
                    0.0 if rng.random() < 0.35 else round(rng.uniform(0.0, 0.85), 3)
                    for _ in range(qoc)
                )
                for _ in chosen
            ),
            qos_min=tuple(
                0.0 if rng.random() < 0.5 else round(rng.uniform(0.0, 0.8), 3)
                for _ in range(qos)
            ),
            weights=tuple(
                tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(qoc)) for _ in chosen
            ),
        )
        consumer_list.append((f"app-{i + 1}", profile))

    timeline: list[ScenarioEvent] = []
    at = 0
    registered: list[str] = []
    inactive = [o.service_id for cid in cloud_ids for o in grouped[cid]]
    subscribed: list[str] = []
    offers_by_id = {o.service_id: o for cid in cloud_ids for o in grouped[cid]}
    profiles_by_id = dict(consumer_list)

    def advance() -> int:
        nonlocal at
        at += rng.randint(1, 5)
        return at

    def pull_event() -> ScenarioEvent:
        consumer_id = rng.choice(subscribed)
        return ScenarioEvent(at=advance(), action="pull", consumer_id=consumer_id,
                             topic=rng.choice(profiles_by_id[consumer_id].topics))

    for service_id in list(inactive):
        timeline.append(ScenarioEvent(at=advance(), action="register", service_id=service_id))
        inactive.remove(service_id)
        registered.append(service_id)
    for consumer_id, _ in consumer_list:
        timeline.append(ScenarioEvent(at=advance(), action="subscribe", consumer_id=consumer_id))
        subscribed.append(consumer_id)

    payload_seq = 0
    for _ in range(events):
        roll = rng.random()
        if roll < 0.55 and registered:
            service_id = rng.choice(registered)
            topic = rng.choice(offers_by_id[service_id].offered_topics)
            payload_seq += 1
            timeline.append(
                ScenarioEvent(
                    at=advance(), action="publish", service_id=service_id,
                    topic=topic, payload=f"v{payload_seq}",
                )
            )
        elif roll < 0.80 and subscribed:
            timeline.append(pull_event())
        elif roll < 0.90 and registered:
            service_id = rng.choice(registered)
            timeline.append(
                ScenarioEvent(at=advance(), action="deregister", service_id=service_id)
            )
            registered.remove(service_id)
            inactive.append(service_id)
        elif inactive:
            service_id = rng.choice(inactive)
            timeline.append(
                ScenarioEvent(at=advance(), action="register", service_id=service_id)
            )
            inactive.remove(service_id)
            registered.append(service_id)
        elif subscribed:
            timeline.append(pull_event())

    return Scenario(
        seed=seed,
        catalog=catalog,
        clouds=tuple((cid, tuple(grouped[cid])) for cid in cloud_ids),
        consumers=tuple(consumer_list),
        timeline=tuple(timeline),
    )
