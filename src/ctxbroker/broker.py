"""Broker state machine: subscription and registration registries, topic
value cache, selection-driven fan-out, and pull-through queries.

Mutations are serialized under a single lock (single-writer discipline);
notification dispatch runs on a dedicated worker thread off the mutation
path, giving per-subscription FIFO, at-most-once delivery. Reselection
is immediate and synchronous on any registry change; publications never
trigger reselection, because offers rather than observed values drive
selection.

Each registry mutation is written ahead: under the lock it is first
handed as one record to the journal hook, if there is one, and applied
only when the hook returns. After a restart, ``restore_state`` applies
the base snapshot's entries and ``replay`` each such record through the
same code, without pushes.

Only the currently selected service's publications reach a subscriber.
Publications from other services still land in the topic cache, but are
never fanned out, which is what gives the selection algorithm
operational force.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from . import errors
from .model import (
    ContextSample,
    IndicatorCatalog,
    RequirementProfile,
    ServiceOffer,
    TopicId,
    validate_offer,
    validate_profile,
)
from .selection import (
    DecisionMatrix,
    build_decision_matrix,
    qoc_feasible,
    qos_feasible,
    renegotiation_report,
)
from .wire import DeliveryStatus, make_envelope

log = logging.getLogger(__name__)


class Transport(Protocol):
    """How the broker reaches consumers (push) and services (pull)."""

    def push(self, callback_address: str, message: dict[str, Any]) -> DeliveryStatus:
        """Deliver one message, retrying per policy; never raises."""
        ...

    def pull(self, service_address: str, topic: TopicId) -> dict[str, Any]:
        """Fetch the current sample for ``topic``; raises UpstreamUnavailable."""
        ...


class NullTransport:
    """Drops every push and fails every pull; placeholder for registry-only use."""

    def push(self, callback_address: str, message: dict[str, Any]) -> DeliveryStatus:
        log.debug("null transport dropping message to %s", callback_address)
        return DeliveryStatus(delivered=False, attempts=0)

    def pull(self, service_address: str, topic: TopicId) -> dict[str, Any]:
        raise errors.UpstreamUnavailable(f"no transport to reach {service_address!r}")


@dataclass(frozen=True)
class Subscription:
    subscription_id: str
    consumer_id: str
    profile: RequirementProfile
    callback_address: str
    created_at: int


@dataclass(frozen=True)
class Registration:
    registration_id: str
    offer: ServiceOffer
    service_address: str
    created_at: int


@dataclass
class SelectionState:
    """A subscription's current decision matrix; revision bumps on change."""

    decision: DecisionMatrix
    revision: int

    def selected_for(self, topic: TopicId) -> str | None:
        return self.decision.selected_for(topic)


class _Dispatcher:
    """Single-worker delivery queue: global FIFO, hence per-subscription FIFO.

    The queue is guarded by the broker's lock, under which every message
    is enqueued. The worker takes that lock to dequeue and to count a
    delivery done, and pushes outside it, so it yields to registry work
    instead of contending for the interpreter with it.
    """

    _STOP = object()

    def __init__(self, transport: Transport, lock: threading.RLock) -> None:
        self._transport = transport
        self._queue: deque = deque()
        self._pending = 0
        self._ready = threading.Condition(lock)
        self._idle = threading.Condition(lock)
        self._thread = threading.Thread(target=self._run, name="ctxbroker-dispatch", daemon=True)
        self._thread.start()

    def enqueue(self, callback_address: str, message: dict[str, Any]) -> None:
        with self._ready:
            self._pending += 1
            self._queue.append((callback_address, message))
            self._ready.notify()

    def _run(self) -> None:
        while True:
            with self._ready:
                while not self._queue:
                    self._ready.wait()
                item = self._queue.popleft()
            if item is self._STOP:
                return
            address, message = item
            try:
                status = self._transport.push(address, message)
            except Exception:
                log.exception("transport.push failed for %s", address)
                status = DeliveryStatus(delivered=False, attempts=0)
            if not status.delivered:
                log.warning(
                    "dropping %s for %s after %d attempt(s)",
                    message.get("kind"), address, status.attempts,
                )
            with self._idle:
                self._pending -= 1
                if not self._pending:
                    self._idle.notify_all()

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until the queue is empty and no delivery is in flight."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self) -> None:
        with self._ready:
            self._queue.append(self._STOP)
            self._ready.notify()
        self._thread.join(timeout=5.0)


def _now_ms() -> int:
    return int(time.time() * 1000)


class ContextBroker:
    """Mediates between context services (publishers) and consumers
    (subscribers) on a set of topics, selecting per topic and per
    subscription the provider with the best weighted quality score."""

    def __init__(
        self,
        catalog: IndicatorCatalog,
        transport: Transport | None = None,
        journal: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        """``journal``, when given, is called under the lock with each
        registry mutation's record before the mutation is applied; if it
        raises, the mutation changes nothing."""
        self.catalog = catalog
        self._transport = transport if transport is not None else NullTransport()
        self._lock = threading.RLock()
        self._subscriptions: dict[str, Subscription] = {}
        self._registrations: dict[str, Registration] = {}
        self._service_registration: dict[str, str] = {}
        self._selection: dict[str, SelectionState] = {}
        self._cache: dict[tuple[TopicId, str], ContextSample] = {}
        self._journal = journal
        self._next_sub = 1
        self._next_reg = 1
        self._seq = 0
        self._dispatcher = _Dispatcher(self._transport, self._lock)

    # -- registries ---------------------------------------------------

    def subscribe(
        self, consumer_id: str, profile: RequirementProfile, callback_address: str
    ) -> str:
        """Admit a consumer; selection is computed immediately.

        Topics with no admissible provider trigger a renegotiation
        advisory right away. Returns the new subscription id.
        """
        result = validate_profile(profile, self.catalog)
        if not result:
            raise errors.BadRequest(f"invalid profile: {result.reason}")
        with self._lock:
            sub = Subscription(
                subscription_id=f"sub-{self._next_sub}",
                consumer_id=consumer_id,
                profile=profile,
                callback_address=callback_address,
                created_at=_now_ms(),
            )
            if self._journal is not None:
                self._journal(self._record(
                    "subscribe", sub.created_at,
                    subscription_id=sub.subscription_id,
                    consumer_id=consumer_id,
                    profile=profile.to_dict(),
                    callback_address=callback_address,
                ))
            self._add_subscription(sub, push=True)
            return sub.subscription_id

    def unsubscribe(self, subscription_id: str) -> None:
        with self._lock:
            self._get_subscription(subscription_id)
            if self._journal is not None:
                self._journal(self._record(
                    "unsubscribe", _now_ms(), subscription_id=subscription_id))
            self._remove_subscription(subscription_id)

    def register_context_service(self, offer: ServiceOffer, service_address: str) -> str:
        """Admit a service offer and reselect for every subscription."""
        result = validate_offer(offer, self.catalog)
        if not result:
            raise errors.BadRequest(f"invalid offer: {result.reason}")
        with self._lock:
            if offer.service_id in self._service_registration:
                raise errors.Conflict(
                    f"service {offer.service_id!r} already has an active registration"
                )
            reg = Registration(
                registration_id=f"reg-{self._next_reg}",
                offer=offer,
                service_address=service_address,
                created_at=_now_ms(),
            )
            if self._journal is not None:
                self._journal(self._record(
                    "register", reg.created_at,
                    registration_id=reg.registration_id,
                    offer=offer.to_dict(),
                    service_address=service_address,
                ))
            self._add_registration(reg, push=True)
            return reg.registration_id

    def deregister_context_service(self, registration_id: str) -> None:
        with self._lock:
            reg = self._registrations.get(registration_id)
            if reg is None:
                raise errors.NotFound(f"unknown registration {registration_id!r}")
            if self._journal is not None:
                self._journal(self._record(
                    "deregister", _now_ms(),
                    registration_id=registration_id, service_id=reg.offer.service_id))
            self._remove_registration(reg, push=True)

    # -- publications and queries --------------------------------------

    def notify_context_change(self, service_id: str, sample: ContextSample) -> None:
        """Accept one publication; fan out to subscriptions whose selected
        service for the topic is the publisher."""
        with self._lock:
            registration_id = self._service_registration.get(service_id)
            if registration_id is None:
                raise errors.Unregistered(f"service {service_id!r} is not registered")
            offer = self._registrations[registration_id].offer
            if sample.service_id != service_id:
                raise errors.BadRequest(
                    f"sample names service {sample.service_id!r}, publisher is {service_id!r}"
                )
            if not offer.offers_topic(sample.topic):
                raise errors.BadRequest(
                    f"service {service_id!r} does not offer topic {sample.topic!r}"
                )
            key = (sample.topic, service_id)
            cached = self._cache.get(key)
            if cached is not None and sample.produced_at < cached.produced_at:
                raise errors.BadRequest(
                    f"timestamp regression for {service_id!r}/{sample.topic!r}"
                )
            self._cache[key] = sample
            for sub in self._subscriptions.values():
                state = self._selection[sub.subscription_id]
                if sample.topic in sub.profile.topics and (
                    state.selected_for(sample.topic) == service_id
                ):
                    self._enqueue_notification(sub, sample)

    def get_current_topic_value(self, subscription_id: str, topic: TopicId) -> ContextSample:
        """Pull a fresh sample from the subscription's selected provider."""
        with self._lock:
            sub = self._get_subscription(subscription_id)
            self._require_subscribed(sub, topic)
            state = self._selection[subscription_id]
            selected = state.selected_for(topic)
            if selected is None:
                raise errors.NoProvider(
                    f"no admissible service for topic {topic!r}",
                    topics=renegotiation_report(state.decision),
                )
            reg = self._registrations[self._service_registration[selected]]
            address = reg.service_address
        # Network round trip happens outside the registry lock.
        data = self._transport.pull(address, topic)
        try:
            sample = ContextSample.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise errors.UpstreamUnavailable(
                f"malformed sample from {selected!r}: {exc}"
            ) from exc
        if sample.topic != topic or sample.service_id != selected:
            raise errors.UpstreamUnavailable(
                f"service {selected!r} answered with a mismatched sample"
            )
        with self._lock:
            key = (topic, selected)
            cached = self._cache.get(key)
            if cached is None or sample.produced_at >= cached.produced_at:
                self._cache[key] = sample
        return sample

    def get_last_topic_value(self, subscription_id: str, topic: TopicId) -> ContextSample:
        """Serve the cached sample without contacting any service.

        Prefers the subscription's own selected provider; a subscription
        that selected a provider which has not published yet falls back
        to the most recent sample from any service currently admissible
        for its profile.
        """
        with self._lock:
            sub = self._get_subscription(subscription_id)
            self._require_subscribed(sub, topic)
            selected = self._selection[subscription_id].selected_for(topic)
            if selected is not None:
                sample = self._cache.get((topic, selected))
                if sample is not None:
                    return sample
            candidates = []
            for reg in self._registrations.values():
                offer = reg.offer
                if not qos_feasible(offer, sub.profile):
                    continue
                if not qoc_feasible(offer, sub.profile, topic):
                    continue
                sample = self._cache.get((topic, offer.service_id))
                if sample is not None:
                    candidates.append(sample)
            if not candidates:
                raise errors.NoValueYet(f"no value published yet for topic {topic!r}")
            newest = max(s.produced_at for s in candidates)
            return min(
                (s for s in candidates if s.produced_at == newest),
                key=lambda s: s.service_id,
            )

    def find_context_consumers(self, topic: TopicId) -> list[str]:
        """Live subscriptions whose profile includes the topic, in admission order."""
        with self._lock:
            return [
                sub.subscription_id
                for sub in self._subscriptions.values()
                if topic in sub.profile.topics
            ]

    def find_context_services(self, topic: TopicId) -> list[str]:
        """Live registrations offering the topic, in admission order."""
        with self._lock:
            return [
                reg.offer.service_id
                for reg in self._registrations.values()
                if reg.offer.offers_topic(topic)
            ]

    def notify_renegotiation(self, subscription_id: str, topics: list[TopicId]) -> None:
        """Push an advisory listing unprovisionable topics to the subscriber."""
        with self._lock:
            sub = self._get_subscription(subscription_id)
            self._enqueue_advisory(sub, topics)

    # -- introspection --------------------------------------------------

    def get_decision(self, subscription_id: str) -> DecisionMatrix:
        with self._lock:
            self._get_subscription(subscription_id)
            return self._selection[subscription_id].decision

    def revision(self, subscription_id: str) -> int:
        with self._lock:
            self._get_subscription(subscription_id)
            return self._selection[subscription_id].revision

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until all enqueued notifications/advisories are delivered or dropped."""
        return self._dispatcher.drain(timeout)

    def close(self) -> None:
        self._dispatcher.close()

    # -- persistence hooks ----------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """Durable image of registries and counters (cache excluded)."""
        with self._lock:
            return {
                "next_sub": self._next_sub,
                "next_reg": self._next_reg,
                "seq": self._seq,
                "registrations": [
                    {
                        "registration_id": reg.registration_id,
                        "offer": reg.offer.to_dict(),
                        "service_address": reg.service_address,
                        "created_at": reg.created_at,
                    }
                    for reg in self._registrations.values()
                ],
                "subscriptions": [
                    {
                        "subscription_id": sub.subscription_id,
                        "consumer_id": sub.consumer_id,
                        "profile": sub.profile.to_dict(),
                        "callback_address": sub.callback_address,
                        "created_at": sub.created_at,
                        "revision": self._selection[sub.subscription_id].revision,
                    }
                    for sub in self._subscriptions.values()
                ],
            }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild registries from a snapshot taken by :meth:`snapshot_state`.

        Must be called on a fresh broker. Each registration, then each
        subscription, goes through the apply path that live mutations and
        :meth:`replay` share, without pushes, so decisions are recomputed
        from the restored offers; the persisted revisions and the id and
        ``seq`` counters are set afterwards. An offer or profile that does
        not fit the catalog, or a repeated service, registration or
        subscription id, raises ValueError.
        """
        with self._lock:
            if self._subscriptions or self._registrations:
                raise RuntimeError("restore_state requires an empty broker")
            for entry in state["registrations"]:
                offer = self._fitting_offer(entry["offer"])
                if entry["registration_id"] in self._registrations:
                    raise ValueError(f"registration {entry['registration_id']!r} repeats")
                self._add_registration(Registration(
                    registration_id=entry["registration_id"],
                    offer=offer,
                    service_address=entry["service_address"],
                    created_at=int(entry["created_at"]),
                ), push=False)
            for entry in state["subscriptions"]:
                profile = self._fitting_profile(entry["profile"], entry["subscription_id"])
                if entry["subscription_id"] in self._subscriptions:
                    raise ValueError(f"subscription {entry['subscription_id']!r} repeats")
                self._add_subscription(Subscription(
                    subscription_id=entry["subscription_id"],
                    consumer_id=entry["consumer_id"],
                    profile=profile,
                    callback_address=entry["callback_address"],
                    created_at=int(entry["created_at"]),
                ), push=False)
                self._selection[entry["subscription_id"]].revision = int(entry["revision"])
            self._next_sub = int(state["next_sub"])
            self._next_reg = int(state["next_reg"])
            self._seq = int(state["seq"])

    def replay(self, record: dict[str, Any]) -> None:
        """Apply one journal record as the mutation that wrote it did,
        enqueueing no push or advisory. A record that does not follow this
        broker's state (its ``seq`` or id, an unknown target, an offer or
        profile that does not fit the catalog) raises ValueError."""
        with self._lock:
            if record["seq"] != self._seq + 1:
                raise ValueError(f"record seq {record['seq']!r} does not follow {self._seq}")
            kind, at = record["kind"], int(record["at"])
            if kind == "subscribe":
                _expect_id(record["subscription_id"], f"sub-{self._next_sub}")
                self._add_subscription(Subscription(
                    subscription_id=record["subscription_id"],
                    consumer_id=record["consumer_id"],
                    profile=self._fitting_profile(record["profile"], record["subscription_id"]),
                    callback_address=record["callback_address"],
                    created_at=at,
                ), push=False)
            elif kind == "unsubscribe":
                if record["subscription_id"] not in self._subscriptions:
                    raise ValueError(f"unknown subscription {record['subscription_id']!r}")
                self._remove_subscription(record["subscription_id"])
            elif kind == "register":
                _expect_id(record["registration_id"], f"reg-{self._next_reg}")
                self._add_registration(Registration(
                    registration_id=record["registration_id"],
                    offer=self._fitting_offer(record["offer"]),
                    service_address=record["service_address"],
                    created_at=at,
                ), push=False)
            elif kind == "deregister":
                reg = self._registrations.get(record["registration_id"])
                if reg is None:
                    raise ValueError(f"unknown registration {record['registration_id']!r}")
                self._remove_registration(reg, push=False)
            else:
                raise ValueError(f"unknown record kind {kind!r}")

    # -- internals --------------------------------------------------------

    def _get_subscription(self, subscription_id: str) -> Subscription:
        sub = self._subscriptions.get(subscription_id)
        if sub is None:
            raise errors.NotFound(f"unknown subscription {subscription_id!r}")
        return sub

    @staticmethod
    def _require_subscribed(sub: Subscription, topic: TopicId) -> None:
        if topic not in sub.profile.topics:
            raise errors.NotSubscribed(
                f"subscription {sub.subscription_id!r} does not include topic {topic!r}"
            )

    def _live_offers(self) -> list[ServiceOffer]:
        return [reg.offer for reg in self._registrations.values()]

    def _fitting_offer(self, data: dict[str, Any]) -> ServiceOffer:
        """A restored offer that fits the catalog and names a service not yet registered."""
        offer = ServiceOffer.from_dict(data)
        result = validate_offer(offer, self.catalog)
        if not result:
            raise ValueError(f"offer {offer.service_id!r}: {result.reason}")
        if offer.service_id in self._service_registration:
            raise ValueError(f"service {offer.service_id!r} repeats")
        return offer

    def _fitting_profile(self, data: dict[str, Any], subscription_id: str) -> RequirementProfile:
        profile = RequirementProfile.from_dict(data)
        result = validate_profile(profile, self.catalog)
        if not result:
            raise ValueError(f"profile of {subscription_id!r}: {result.reason}")
        return profile

    # The apply path: live mutations (push=True), replay and restore
    # (push=False) change the registries, the id counters and ``seq`` only
    # here; restore then sets the counters the snapshot recorded.

    def _add_subscription(self, sub: Subscription, push: bool) -> None:
        self._seq += 1
        self._next_sub += 1
        self._subscriptions[sub.subscription_id] = sub
        decision = build_decision_matrix(self._live_offers(), sub.profile)
        self._selection[sub.subscription_id] = SelectionState(decision, revision=1)
        missing = renegotiation_report(decision)
        if push and missing:
            self._enqueue_advisory(sub, missing)

    def _remove_subscription(self, subscription_id: str) -> None:
        self._seq += 1
        del self._subscriptions[subscription_id]
        del self._selection[subscription_id]

    def _add_registration(self, reg: Registration, push: bool) -> None:
        self._seq += 1
        self._next_reg += 1
        self._registrations[reg.registration_id] = reg
        self._service_registration[reg.offer.service_id] = reg.registration_id
        self._reselect_all(push)

    def _remove_registration(self, reg: Registration, push: bool) -> None:
        self._seq += 1
        del self._registrations[reg.registration_id]
        del self._service_registration[reg.offer.service_id]
        self._reselect_all(push)

    def _reselect_all(self, push: bool) -> None:
        """Recompute every subscription's decision after a registry change.

        Revision bumps only when the decision actually changed; topics
        whose provider disappeared get a renegotiation advisory when
        ``push`` is set.
        """
        offers = self._live_offers()
        for sub in self._subscriptions.values():
            state = self._selection[sub.subscription_id]
            decision = build_decision_matrix(offers, sub.profile)
            if decision == state.decision:
                continue
            lost = [
                topic
                for topic, before, after in zip(
                    decision.topics, state.decision.selected, decision.selected
                )
                if before is not None and after is None
            ]
            self._selection[sub.subscription_id] = SelectionState(
                decision, revision=state.revision + 1
            )
            if push and lost:
                self._enqueue_advisory(sub, lost)

    def _enqueue_notification(self, sub: Subscription, sample: ContextSample) -> None:
        self._dispatcher.enqueue(sub.callback_address, make_envelope(
            "notify", {"subscription_id": sub.subscription_id, "sample": sample.to_dict()}))

    def _enqueue_advisory(self, sub: Subscription, topics: list[TopicId]) -> None:
        self._dispatcher.enqueue(sub.callback_address, make_envelope(
            "advisory", {"subscription_id": sub.subscription_id, "topics": list(topics)}))

    def _record(self, kind: str, at: int, **payload: Any) -> dict[str, Any]:
        return {"seq": self._seq + 1, "kind": kind, "at": at, **payload}


def _expect_id(got: str, expected: str) -> None:
    if got != expected:
        raise ValueError(f"record id {got!r} where {expected!r} comes next")
