"""Model-based test of the write-ahead journal over crash and clean restarts.

A ``BrokerService`` over a persist file and a twin ``ContextBroker`` that
never restarts receive the same registry mutations. After every step,
each decision of the service equals ``oracle_select`` over the live
offers, and its ids, counters and revisions equal the twin's. A restart,
with or without ``close()``, gives back the state the service had. A
publication reaches exactly the subscriptions whose oracle winner for its
topic is the publisher, once each, in admission order.

Each service has its own address and one value per offered topic in the
transport. A pull-current answers the oracle winner's value (and caches
it unless a newer sample is cached). A pull-last changes nothing, so it
is checked for every subscription and topic after every step: it answers
the winner's cached sample, else the newest cached sample of any service
admissible for the topic (ties to the smallest id), else
``NO_VALUE_YET``. A service's samples leave the cache with its
registration, and the cache empties on restart.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from ctxbroker.broker import ContextBroker
from ctxbroker.model import ContextSample, IndicatorCatalog, ServiceOffer
from ctxbroker.selection import oracle_select
from ctxbroker.service import BrokerService, ServiceConfig
from ctxbroker.wire import make_envelope

from helpers import RecordingTransport, random_profile
from helpers import crash as crash_service

CATALOG = IndicatorCatalog(("q1", "q2"), ("s1",))
TOPICS = ("t1", "t2")
GRID = (0.3, 0.6, 0.9)  # coarse, so equal scores and the tie rule come up often
SEEDS = st.integers(0, 10_000)


def offer_for(service_id: str, seed: int) -> ServiceOffer:
    rng = random.Random(seed)
    offered = tuple(sorted(rng.sample(TOPICS, rng.randint(1, len(TOPICS)))))
    return ServiceOffer(
        service_id=service_id,
        cloud_id="c1",
        offered_topics=offered,
        qoc_offer={t: (rng.choice(GRID), rng.choice(GRID)) for t in offered},
        qos_offer=(rng.choice(GRID),),
    )


class JournalMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="ctxbroker-sm-"))
        self.config = ServiceConfig(catalog=CATALOG, persist_path=self.dir / "state.json")
        self.values: dict[str, dict[str, dict]] = {}  # service address -> topic -> sample
        self.cache: dict[tuple[str, str], dict] = {}  # (topic, service id) -> sample
        self.start()
        self.twin = ContextBroker(CATALOG, transport=RecordingTransport())
        self.offers: dict[str, ServiceOffer] = {}  # registration id -> offer, in admission order
        self.profiles: dict = {}  # subscription id -> profile, in admission order
        self.services = 0
        self.published = 0

    def start(self) -> None:
        self.transport = RecordingTransport()
        self.transport.values = self.values
        self.service = BrokerService(self.config, transport=self.transport)
        self.cache.clear()

    def send(self, kind: str, body: dict) -> dict:
        response = self.service.handle_request(make_envelope(kind, body))
        assert response["kind"] == "ack", response
        return response["body"]

    @initialize(seeds=st.lists(SEEDS, min_size=2, max_size=4), data=st.data())
    def populate(self, seeds: list[int], data: st.DataObject) -> None:
        """Start with services, subscriptions and samples of some services
        published at one time, so the pull checks meet cached winners,
        fallbacks and ties from the first step."""
        for seed in seeds:
            self.register(seed)
            self.subscribe(seed)
        self.published += 1
        for offer in list(self.offers.values()):
            for topic in offer.offered_topics:
                if data.draw(st.booleans()):
                    self.publish(offer, topic)

    @rule(seed=SEEDS)
    def subscribe(self, seed: int) -> None:
        profile = random_profile(random.Random(seed), CATALOG, max_topics=len(TOPICS))
        sub = self.send("subscribe", {"consumer_id": "app", "profile": profile.to_dict(),
                                      "callback_address": "cb://app"})["subscription_id"]
        assert sub == self.twin.subscribe("app", profile, "cb://app")
        self.profiles[sub] = profile

    @precondition(lambda self: self.profiles)
    @rule(data=st.data())
    def unsubscribe(self, data: st.DataObject) -> None:
        sub = data.draw(st.sampled_from(sorted(self.profiles)))
        self.send("unsubscribe", {"subscription_id": sub})
        self.twin.unsubscribe(sub)
        del self.profiles[sub]

    @rule(seed=SEEDS)
    def register(self, seed: int) -> None:
        self.services += 1
        offer = offer_for(f"cs-{self.services}", seed)
        address = f"svc://{offer.service_id}"
        # Not newer than the next publication, which the broker must accept.
        self.values[address] = {t: ContextSample(
            topic=t, payload=f"{address}/{t}", produced_at=self.published,
            service_id=offer.service_id).to_dict() for t in offer.offered_topics}
        reg = self.send("register", {"offer": offer.to_dict(),
                                     "service_address": address})["registration_id"]
        assert reg == self.twin.register_context_service(offer, address)
        self.offers[reg] = offer

    @precondition(lambda self: self.offers)
    @rule(data=st.data())
    def deregister(self, data: st.DataObject) -> None:
        reg = data.draw(st.sampled_from(sorted(self.offers)))
        self.send("deregister", {"registration_id": reg})
        self.twin.deregister_context_service(reg)
        for topic in self.offers[reg].offered_topics:  # a sample goes with its registration
            self.cache.pop((topic, self.offers[reg].service_id), None)
        del self.offers[reg]

    @precondition(lambda self: self.offers)
    @rule(data=st.data())
    def notify(self, data: st.DataObject) -> None:
        offer = self.offers[data.draw(st.sampled_from(sorted(self.offers)))]
        self.published += 1
        self.publish(offer, data.draw(st.sampled_from(offer.offered_topics)))

    def publish(self, offer: ServiceOffer, topic: str) -> None:
        """Publish a sample at the current time and check who receives it."""
        sample = ContextSample(topic=topic, payload=self.published,
                               produced_at=self.published, service_id=offer.service_id)
        pushed = len(self.transport.pushes)
        self.send("notify", {"service_id": offer.service_id, "sample": sample.to_dict()})
        self.cache[(topic, offer.service_id)] = sample.to_dict()
        assert self.service.broker.drain()
        live = list(self.offers.values())
        assert [m["body"]["subscription_id"] for _, m in self.transport.pushes[pushed:]
                if m["kind"] == "notify"] == [
            sub for sub, profile in self.profiles.items()
            if topic in profile.topics
            and oracle_select(live, profile).selected_for(topic) == offer.service_id]

    @precondition(lambda self: self.profiles)
    @rule(data=st.data())
    def pull_current(self, data: st.DataObject) -> None:
        sub = data.draw(st.sampled_from(sorted(self.profiles)))
        profile = self.profiles[sub]
        topic = data.draw(st.sampled_from(profile.topics))
        response = self.service.handle_request(
            make_envelope("pull-current", {"subscription_id": sub, "topic": topic}))
        winner = oracle_select(list(self.offers.values()), profile).selected_for(topic)
        if winner is None:
            assert response["body"]["code"] == "NO_PROVIDER", response
            return
        sample = self.values[f"svc://{winner}"][topic]
        assert response["body"] == {"sample": sample}
        cached = self.cache.get((topic, winner))
        if cached is None or sample["produced_at"] >= cached["produced_at"]:
            self.cache[(topic, winner)] = sample

    @invariant()
    def pull_last_serves_the_winner_or_the_newest_admissible(self) -> None:
        live = list(self.offers.values())
        for sub, profile in self.profiles.items():
            decision = oracle_select(live, profile)
            for topic in profile.topics:
                response = self.service.handle_request(
                    make_envelope("pull-last", {"subscription_id": sub, "topic": topic}))
                expected = self.cache.get((topic, decision.selected_for(topic)))
                if expected is None:
                    cached = [self.cache[(topic, o.service_id)] for o in live
                              if (topic, o.service_id) in self.cache
                              and oracle_select([o], profile).selected_for(topic) is not None]
                    if cached:
                        newest = max(c["produced_at"] for c in cached)
                        expected = min((c for c in cached if c["produced_at"] == newest),
                                       key=lambda c: c["service_id"])
                if expected is None:
                    assert response["body"]["code"] == "NO_VALUE_YET", response
                else:
                    assert response["body"] == {"sample": expected}

    @rule(crash=st.booleans())
    def restart(self, crash: bool) -> None:
        before = self.service.broker.snapshot_state()
        if crash:
            crash_service(self.service)
        else:
            self.service.close()
        self.start()
        assert self.service.broker.snapshot_state() == before

    @invariant()
    def decisions_follow_the_oracle_and_the_twin(self) -> None:
        state, twin = self.service.broker.snapshot_state(), self.twin.snapshot_state()
        for key in ("next_sub", "next_reg", "seq"):
            assert state[key] == twin[key]
        assert [r["registration_id"] for r in state["registrations"]] == list(self.offers)
        assert [(s["subscription_id"], s["revision"]) for s in state["subscriptions"]] == [
            (s["subscription_id"], s["revision"]) for s in twin["subscriptions"]]
        live = list(self.offers.values())
        for sub, profile in self.profiles.items():
            assert self.service.broker.get_decision(sub).selected == (
                oracle_select(live, profile).selected)

    def teardown(self) -> None:
        self.service.close()
        self.twin.close()
        shutil.rmtree(self.dir, ignore_errors=True)


JournalMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None, database=None)
TestJournalMachine = JournalMachine.TestCase
