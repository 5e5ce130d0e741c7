"""Broker state machine: subscription and registration registries, topic
value cache, selection-driven fan-out, and pull-through queries.

Mutations are serialized under a single lock (single-writer discipline);
notification dispatch runs on a dedicated worker thread off the mutation
path, giving per-subscription FIFO, at-most-once delivery. Reselection
is immediate and synchronous on any registry change; publications never
trigger reselection, because offers rather than observed values drive
selection.

Selection is kept incrementally. Each subscription stores, per profile
topic, its winner and the top feasible score (``SelectionState``), and
two indexes route by it: topic -> subscriptions, and (topic, service) ->
the subscriptions selecting that service now, in admission order. A
register or deregister scores only the one offer against each
subscription's top; it re-ranks a topic over the live offers only when
the offer lands within ``TIE_TOLERANCE`` of the top or took the winner
away. The result always equals a flat ``build_decision_matrix`` over the
live offers, which ``get_decision`` builds on demand.

Every registry mutation, live or restored, passes one check-then-apply
step, ``_mutate``, which holds every refusal of a subscribe, unsubscribe,
register or deregister. A live mutation is written ahead: under the lock
its record goes to the journal hook, if there is one, and it is applied
only when the hook returns. A subscribe or register record carries the
subscription's or registration's ``entry()``; a snapshot entry is the
same fields plus ``created_at`` (and a subscription's ``revision``).
After a restart, ``restore_state`` and ``replay`` parse each base entry
and each record and pass it to the same step, which applies it without
pushes.

Only the currently selected service's publications reach a subscriber.
Publications from other services still land in the topic cache, but are
never fanned out, which is what gives the selection algorithm
operational force.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import uuid
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Protocol

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
    TIE_TOLERANCE,
    DecisionMatrix,
    build_decision_matrix,
    qos_feasible,
    rank_topic,
    score,
)
from .wire import DeliveryStatus, make_envelope

log = logging.getLogger(__name__)


class Transport(Protocol):
    """How the broker reaches consumers (push) and services (pull).

    A transport must not mutate a pushed message: the envelopes of one
    publication share one sample dict. A transport may also define
    ``push_many(items) -> list[DeliveryStatus]``, which delivers a list of
    ``(callback_address, message)`` pairs like ``push`` on each in order,
    FIFO per address, one status per pair; the dispatch worker then hands
    it each batch it takes, and otherwise pushes one message at a time.
    """

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

    def entry(self) -> dict[str, Any]:
        """The fields a subscribe record and a snapshot entry share."""
        return {"subscription_id": self.subscription_id, "consumer_id": self.consumer_id,
                "profile": self.profile.to_dict(), "callback_address": self.callback_address}


@dataclass(frozen=True)
class Registration:
    registration_id: str
    offer: ServiceOffer
    service_address: str
    created_at: int

    def entry(self) -> dict[str, Any]:
        """The fields a register record and a snapshot entry share."""
        return {"registration_id": self.registration_id, "offer": self.offer.to_dict(),
                "service_address": self.service_address}


@dataclass(frozen=True)
class SelectionState:
    """A subscription's selection: one ``(winner or None, top)`` pair per
    profile topic, in profile order, where ``top`` is the highest feasible
    score (-inf for none; the winner, the smallest id within
    ``TIE_TOLERANCE`` of it, may score lower).

    ``revision`` counts the changes of the subscription's decision matrix:
    it starts at 1 and bumps on each register or deregister of an offer
    that meets the profile's QoS floors, since such an offer adds or
    removes a matrix column. A bump makes a new state.
    """

    winners: tuple[tuple[str | None, float], ...]
    revision: int


class _Dispatcher:
    """Single-worker delivery queue: global FIFO, hence per-subscription FIFO.

    The queue is guarded by the broker's lock, and each side takes it once
    per batch: a publication enqueues all its messages at once, and the
    worker takes everything queued at once, pushes it in order outside the
    lock, so it yields to registry work instead of contending for the
    interpreter with it, then counts the batch done in one more lock turn.
    ``close()`` sets ``_closing``; the worker pushes the batch it takes with
    the flag set, which holds all that was queued before the close, and stops.
    """

    def __init__(self, transport: Transport, lock: threading.RLock) -> None:
        self._transport = transport
        self._queue: list[tuple[str, dict[str, Any]]] = []
        self._pending = 0
        self._closing = False
        self._ready = threading.Condition(lock)
        self._idle = threading.Condition(lock)
        self._thread = threading.Thread(target=self._run, name="ctxbroker-dispatch", daemon=True)
        self._thread.start()

    def enqueue(self, items: list[tuple[str, dict[str, Any]]]) -> None:
        """Queue ``(callback_address, message)`` pairs in order; after
        ``close()``, drop them with one warning, since no worker pushes them."""
        with self._ready:
            if self._closing:
                log.warning("dropping %d message(s) enqueued after close", len(items))
                return
            self._pending += len(items)
            self._queue += items
            self._ready.notify()

    def _run(self) -> None:
        push_many = getattr(self._transport, "push_many", None)
        closing = False
        while not closing:
            with self._ready:
                while not (self._queue or self._closing):
                    self._ready.wait()
                batch, self._queue, closing = self._queue, [], self._closing
            if not batch:  # closed with nothing queued
                return
            if push_many is not None:
                try:
                    statuses = push_many(batch)
                except Exception:
                    log.exception("transport.push_many failed for %d message(s)", len(batch))
                    statuses = [DeliveryStatus(delivered=False, attempts=0)] * len(batch)
                for (address, message), status in zip(batch, statuses):
                    if not status.delivered:
                        _dropped(address, message, status)
            else:
                for address, message in batch:
                    try:
                        status = self._transport.push(address, message)
                    except Exception:
                        log.exception("transport.push failed for %s", address)
                        status = DeliveryStatus(delivered=False, attempts=0)
                    if not status.delivered:
                        _dropped(address, message, status)
            with self._idle:
                self._pending -= len(batch)
                if not self._pending:
                    self._idle.notify_all()

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until the queue is empty and no delivery is in flight."""
        with self._idle:
            return self._idle.wait_for(lambda: not self._pending, timeout)

    def close(self) -> None:
        with self._ready:
            self._closing = True
            self._ready.notify()
        self._thread.join(timeout=5.0)


def _dropped(address: str, message: dict[str, Any], status: DeliveryStatus) -> None:
    log.warning("dropping %s for %s after %d attempt(s)",
                message.get("kind"), address, status.attempts)


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
        # topic -> subscriptions with the topic, in admission order
        self._consumers: dict[TopicId, dict[str, Subscription]] = {}
        # (topic, service id) -> (admission number, subscription) of the
        # subscriptions selecting that service for the topic, sorted
        self._routes: dict[tuple[TopicId, str], list[tuple[int, Subscription]]] = {}
        self._admitted: dict[str, int] = {}
        self._admissions = itertools.count()
        self._cache: dict[tuple[TopicId, str], ContextSample] = {}
        self._journal = journal
        self._next_sub = 1
        self._next_reg = 1
        self._seq = 0
        # Push request ids "<boot>-<n>", unique across broker lifetimes.
        self._push_ids = map(f"{uuid.uuid4().hex}-{{}}".format, itertools.count(1))
        self._dispatcher = _Dispatcher(self._transport, self._lock)

    # -- registries ---------------------------------------------------

    def subscribe(
        self, consumer_id: str, profile: RequirementProfile, callback_address: str
    ) -> str:
        """Admit a consumer; selection is computed immediately.

        Topics with no admissible provider trigger a renegotiation
        advisory right away. Returns the new subscription id.
        """
        with self._lock:
            sub = Subscription(f"sub-{self._next_sub}", consumer_id, profile, callback_address,
                               _now_ms())
            self._mutate("subscribe", sub, sub.created_at)
            return sub.subscription_id

    def unsubscribe(self, subscription_id: str) -> None:
        with self._lock:
            self._mutate("unsubscribe", subscription_id, _now_ms())

    def register_context_service(self, offer: ServiceOffer, service_address: str) -> str:
        """Admit a service offer and reselect for every subscription."""
        with self._lock:
            reg = Registration(f"reg-{self._next_reg}", offer, service_address, _now_ms())
            self._mutate("register", reg, reg.created_at)
            return reg.registration_id

    def deregister_context_service(self, registration_id: str) -> None:
        with self._lock:
            self._mutate("deregister", registration_id, _now_ms())

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
            receivers = self._routes.get(key)
            if receivers:
                # One dict for every envelope of this publication: no
                # transport or other reader may mutate a queued message.
                shared = sample.to_dict()
                self._dispatcher.enqueue([
                    (sub.callback_address, make_envelope(
                        "notify", {"subscription_id": sub.subscription_id, "sample": shared},
                        next(self._push_ids)))
                    for _, sub in receivers])

    def get_current_topic_value(self, subscription_id: str, topic: TopicId) -> ContextSample:
        """Pull a fresh sample from the subscription's selected provider."""
        with self._lock:
            sub, winners, j = self._selection_of(subscription_id, topic)
            selected = winners[j][0]
            if selected is None:
                raise errors.NoProvider(
                    f"no admissible service for topic {topic!r}",
                    topics=_unprovisioned(sub.profile, winners),
                )
            registration_id = self._service_registration[selected]
            address = self._registrations[registration_id].service_address
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
            live = self._service_registration.get(selected) == registration_id
            if live and (cached is None or sample.produced_at >= cached.produced_at):
                self._cache[key] = sample
        return sample

    def get_last_topic_value(self, subscription_id: str, topic: TopicId) -> ContextSample:
        """Serve the cached sample without contacting any service.

        Prefers the subscription's own selected provider; a subscription
        that selected a provider which has not published yet falls back
        to the most recent sample from any service currently admissible
        for the topic under its profile, ties to the smallest service id.
        """
        with self._lock:
            sub, winners, j = self._selection_of(subscription_id, topic)
            sample = self._cache.get((topic, winners[j][0]))  # no key has a None service
            if sample is not None:
                return sample
            profile = sub.profile
            candidates = [
                cached for offer in self._live_offers()
                if (cached := self._cache.get((topic, offer.service_id))) is not None
                and qos_feasible(offer, profile) and score(offer, profile, j) is not None]
            if not candidates:
                raise errors.NoValueYet(f"no value published yet for topic {topic!r}")
            return min(candidates, key=lambda s: (-s.produced_at, s.service_id))

    def find_context_consumers(self, topic: TopicId) -> list[str]:
        """Live subscriptions whose profile includes the topic, in admission order."""
        with self._lock:
            return list(self._consumers.get(topic, ()))

    def find_context_services(self, topic: TopicId) -> list[str]:
        """Live registrations offering the topic, in admission order."""
        with self._lock:
            return [offer.service_id for offer in self._live_offers() if offer.offers_topic(topic)]

    def notify_renegotiation(self, subscription_id: str, topics: list[TopicId]) -> None:
        """Push an advisory listing unprovisionable topics to the subscriber."""
        with self._lock:
            sub = self._get_subscription(subscription_id)
            self._enqueue_advisory(sub, topics)

    # -- introspection --------------------------------------------------

    def get_decision(self, subscription_id: str) -> DecisionMatrix:
        """The subscription's full decision matrix, built from the live offers."""
        with self._lock:
            sub = self._get_subscription(subscription_id)
            return build_decision_matrix(self._live_offers(), sub.profile)

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
                    {**reg.entry(), "created_at": reg.created_at}
                    for reg in self._registrations.values()
                ],
                "subscriptions": [
                    {**sub.entry(), "created_at": sub.created_at,
                     "revision": self._selection[sub.subscription_id].revision}
                    for sub in self._subscriptions.values()
                ],
            }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild registries from a snapshot taken by :meth:`snapshot_state`.

        Must be called on a fresh broker. Each registration, then each
        subscription, goes through the apply step that :meth:`replay`
        shares, so decisions are recomputed from the restored offers; the
        persisted revisions and the id and ``seq`` counters are set
        afterwards. An entry the mutation step refuses raises its
        BrokerError; an id counter that would issue a restored id again
        raises ValueError.
        """
        with self._lock:
            if self._subscriptions or self._registrations:
                raise RuntimeError("restore_state requires an empty broker")
            for entry in state["registrations"]:
                self._apply("register", entry, int(entry["created_at"]))
            for entry in state["subscriptions"]:
                self._apply("subscribe", entry, int(entry["created_at"]))
                sid = entry["subscription_id"]
                self._selection[sid] = SelectionState(
                    self._selection[sid].winners, int(entry["revision"]))
            self._next_sub = _restored_counter(state["next_sub"], "sub-", self._subscriptions)
            self._next_reg = _restored_counter(state["next_reg"], "reg-", self._registrations)
            self._seq = int(state["seq"])

    def replay(self, record: dict[str, Any]) -> None:
        """Apply one journal record as the mutation that wrote it did,
        enqueueing no push or advisory. A record whose ``seq`` or new id
        does not come next raises ValueError; one the mutation step
        refuses raises its BrokerError."""
        with self._lock:
            if record["seq"] != self._seq + 1:
                raise ValueError(f"record seq {record['seq']!r} does not follow {self._seq}")
            if record["kind"] == "subscribe":
                _expect_id(record["subscription_id"], f"sub-{self._next_sub}")
            elif record["kind"] == "register":
                _expect_id(record["registration_id"], f"reg-{self._next_reg}")
            self._apply(record["kind"], record, int(record["at"]))

    # -- internals --------------------------------------------------------

    def _get_subscription(self, subscription_id: str) -> Subscription:
        sub = self._subscriptions.get(subscription_id)
        if sub is None:
            raise errors.NotFound(f"unknown subscription {subscription_id!r}")
        return sub

    def _selection_of(
        self, subscription_id: str, topic: TopicId
    ) -> tuple[Subscription, tuple[tuple[str | None, float], ...], int]:
        """The subscription, its winners, and the index of ``topic`` in its
        profile; NotFound or NotSubscribed when there is none."""
        sub = self._get_subscription(subscription_id)
        try:
            j = sub.profile.topic_index(topic)
        except ValueError:
            raise errors.NotSubscribed(
                f"subscription {subscription_id!r} does not include topic {topic!r}"
            ) from None
        return sub, self._selection[subscription_id].winners, j

    def _live_offers(self) -> list[ServiceOffer]:
        return [reg.offer for reg in self._registrations.values()]

    def _eligible(self, profile: RequirementProfile) -> list[ServiceOffer]:
        """The live offers that meet ``profile``'s QoS floors, in admission order."""
        return [offer for offer in self._live_offers() if qos_feasible(offer, profile)]

    def _apply(self, kind: str, entry: dict[str, Any], at: int) -> None:
        """Parse a restored base entry or a replayed record and pass it to
        the mutation step, which applies it without pushes."""
        if kind == "subscribe":
            target: Any = Subscription(
                entry["subscription_id"], entry["consumer_id"],
                RequirementProfile.from_dict(entry["profile"]), entry["callback_address"], at)
        elif kind == "register":
            target = Registration(entry["registration_id"], ServiceOffer.from_dict(entry["offer"]),
                                  entry["service_address"], at)
        else:  # the id a removal names; the step refuses any other kind
            target = entry.get("subscription_id" if kind == "unsubscribe" else "registration_id")
        self._mutate(kind, target, at, live=False)

    def _mutate(self, kind: str, target: Any, at: int, live: bool = True) -> None:
        """The one check-then-apply step of a live call, a restored base
        entry or a replayed record; ``target`` is the new Subscription or
        Registration, or the id a removal names. Each refusal raises a
        BrokerError before anything changes. A live mutation is then handed
        to the journal hook and applied with its pushes, another without."""
        if kind == "subscribe":
            sid = target.subscription_id
            _require_text(subscription_id=sid, consumer_id=target.consumer_id,
                          callback_address=target.callback_address)
            result = validate_profile(target.profile, self.catalog)
            if not result:
                raise errors.BadRequest(f"invalid profile of {sid!r}: {result.reason}")
            if sid in self._subscriptions:
                raise errors.Conflict(f"subscription {sid!r} repeats")
            fields, apply = target.entry, partial(self._add_subscription, target, live)
        elif kind == "register":
            offer = target.offer
            _require_text(registration_id=target.registration_id,
                          service_address=target.service_address)
            result = validate_offer(offer, self.catalog)
            if not result:
                raise errors.BadRequest(f"invalid offer {offer.service_id!r}: {result.reason}")
            if offer.service_id in self._service_registration:
                raise errors.Conflict(
                    f"service {offer.service_id!r} already has an active registration")
            if target.registration_id in self._registrations:
                raise errors.Conflict(f"registration {target.registration_id!r} repeats")
            fields, apply = target.entry, partial(self._add_registration, target, live)
        elif kind == "unsubscribe":
            _require_text(subscription_id=target)
            self._get_subscription(target)
            fields = partial(dict, subscription_id=target)
            apply = partial(self._remove_subscription, target)
        elif kind == "deregister":
            _require_text(registration_id=target)
            reg = self._registrations.get(target)
            if reg is None:
                raise errors.NotFound(f"unknown registration {target!r}")
            fields = partial(dict, registration_id=target, service_id=reg.offer.service_id)
            apply = partial(self._remove_registration, reg, live)
        else:
            raise errors.BadRequest(f"unknown record kind {kind!r}")
        if live and self._journal is not None:  # no record is built without a hook
            self._journal({"seq": self._seq + 1, "kind": kind, "at": at, **fields()})
        apply()

    # The apply path: live mutations (push=True), replay and restore
    # (push=False) change the registries, the id counters and ``seq`` only
    # here; restore then sets the counters the snapshot recorded.

    def _add_subscription(self, sub: Subscription, push: bool) -> None:
        self._seq += 1
        self._next_sub += 1
        self._subscriptions[sub.subscription_id] = sub
        self._admitted[sub.subscription_id] = next(self._admissions)
        profile = sub.profile
        eligible = self._eligible(profile)
        winners = tuple(rank_topic(eligible, profile, j) for j in range(len(profile.topics)))
        self._selection[sub.subscription_id] = SelectionState(winners, 1)
        for topic, (winner, _) in zip(profile.topics, winners):
            self._consumers.setdefault(topic, {})[sub.subscription_id] = sub
            self._route(sub, topic, None, winner)
        missing = _unprovisioned(profile, winners)
        if push and missing:
            self._enqueue_advisory(sub, missing)

    def _remove_subscription(self, subscription_id: str) -> None:
        self._seq += 1
        sub = self._subscriptions.pop(subscription_id)
        state = self._selection.pop(subscription_id)
        for topic, (winner, _) in zip(sub.profile.topics, state.winners):
            self._route(sub, topic, winner, None)
            consumers = self._consumers[topic]
            del consumers[subscription_id]
            if not consumers:
                del self._consumers[topic]
        del self._admitted[subscription_id]

    def _add_registration(self, reg: Registration, push: bool) -> None:
        self._seq += 1
        self._next_reg += 1
        self._registrations[reg.registration_id] = reg
        self._service_registration[reg.offer.service_id] = reg.registration_id
        self._reselect(reg.offer, push)

    def _remove_registration(self, reg: Registration, push: bool) -> None:
        self._seq += 1
        del self._registrations[reg.registration_id]
        del self._service_registration[reg.offer.service_id]
        for topic in reg.offer.offered_topics:  # a sample lives as long as its registration
            self._cache.pop((topic, reg.offer.service_id), None)
        self._reselect(reg.offer, push)

    def _reselect(self, offer: ServiceOffer, push: bool) -> None:
        """Bring every subscription up to date after ``offer`` was added
        to or removed from the live offers.

        A subscription whose QoS floors ``offer`` fails keeps its state.
        Any other gains or loses a decision-matrix column, so its revision
        bumps. Per topic, an offer scoring above the top by more than
        ``TIE_TOLERANCE`` has just won it, one below by more cannot have
        changed it, and one within that band (the removed winner always
        is) makes the topic re-ranked over the live offers. Topics whose
        provider disappeared get a renegotiation advisory when ``push`` is
        set.
        """
        sid = offer.service_id
        for sub in self._subscriptions.values():
            profile = sub.profile
            if not qos_feasible(offer, profile):
                continue
            state = self._selection[sub.subscription_id]
            winners = state.winners  # copied on the first topic that changes
            eligible = None
            lost = []
            for j, (winner, top) in enumerate(state.winners):
                s = score(offer, profile, j)
                if s is None or s < top - TIE_TOLERANCE:
                    continue
                if winners is state.winners:
                    winners = list(winners)
                if s > top + TIE_TOLERANCE:  # only when ``offer`` was added
                    winners[j] = (sid, s)
                else:
                    if eligible is None:
                        eligible = self._eligible(profile)
                    winners[j] = rank_topic(eligible, profile, j)
                after = winners[j][0]
                if after != winner:
                    self._route(sub, profile.topics[j], winner, after)
                    if after is None:
                        lost.append(profile.topics[j])
            self._selection[sub.subscription_id] = SelectionState(
                tuple(winners), state.revision + 1)
            if push and lost:
                self._enqueue_advisory(sub, lost)

    def _route(
        self, sub: Subscription, topic: TopicId, before: str | None, after: str | None
    ) -> None:
        """Move ``sub`` from the (topic, before) bucket to the (topic, after) one."""
        n = self._admitted[sub.subscription_id]
        if before is not None:
            bucket = self._routes[(topic, before)]
            del bucket[bisect_left(bucket, (n,))]
            if not bucket:
                del self._routes[(topic, before)]
        if after is not None:
            insort(self._routes.setdefault((topic, after), []), (n, sub))

    def _enqueue_advisory(self, sub: Subscription, topics: list[TopicId]) -> None:
        self._dispatcher.enqueue([(sub.callback_address, make_envelope(
            "advisory", {"subscription_id": sub.subscription_id, "topics": list(topics)},
            next(self._push_ids)))])


def _unprovisioned(profile: RequirementProfile, winners: tuple) -> list[TopicId]:
    """Topics left without a provider, in profile order."""
    return [topic for topic, (winner, _) in zip(profile.topics, winners) if winner is None]


def _expect_id(got: str, expected: str) -> None:
    if got != expected:
        raise ValueError(f"record id {got!r} where {expected!r} comes next")


def _require_text(**fields: Any) -> None:
    """Refuse an id or address that is not a string: it is journaled and
    later used as one."""
    for name, value in fields.items():
        if not isinstance(value, str):
            raise errors.BadRequest(f"{name} must be a string, not {type(value).__name__}")


def _restored_counter(value: Any, prefix: str, live_ids: Iterable[str]) -> int:
    """A persisted id counter, refused when an id it would issue,
    ``prefix`` followed by it or a larger number, is live already."""
    counter = int(value)
    for i in live_ids:
        n = i[len(prefix):]
        if i.startswith(prefix) and n.lstrip("-").isdecimal() and f"{prefix}{int(n)}" == i \
                and int(n) >= counter:
            raise ValueError(f"the counter issues {prefix}{counter} next, but {i!r} is live")
    return counter
