"""Model-based test of the write-ahead journal over crash and clean restarts.

A ``BrokerService`` over a persist file and a twin ``ContextBroker`` that
never restarts receive the same registry mutations. After every step,
each decision of the service equals ``oracle_select`` over the live
offers, and its ids, counters and revisions equal the twin's. A restart,
with or without ``close()``, gives back the state the service had. A
publication reaches exactly the subscriptions whose oracle winner for its
topic is the publisher, once each, in admission order.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ctxbroker.broker import ContextBroker
from ctxbroker.model import ContextSample, IndicatorCatalog, ServiceOffer
from ctxbroker.selection import oracle_select
from ctxbroker.service import BrokerService, ServiceConfig
from ctxbroker.wire import make_envelope

from helpers import RecordingTransport, crash, random_profile

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
        self.start()
        self.twin = ContextBroker(CATALOG, transport=RecordingTransport())
        self.offers: dict[str, ServiceOffer] = {}  # registration id -> offer, in admission order
        self.profiles: dict = {}  # subscription id -> profile, in admission order
        self.services = 0
        self.published = 0

    def start(self) -> None:
        self.transport = RecordingTransport()
        self.service = BrokerService(self.config, transport=self.transport)

    def send(self, kind: str, body: dict) -> dict:
        response = self.service.handle_request(make_envelope(kind, body))
        assert response["kind"] == "ack", response
        return response["body"]

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
        reg = self.send("register", {"offer": offer.to_dict(),
                                     "service_address": "svc://x"})["registration_id"]
        assert reg == self.twin.register_context_service(offer, "svc://x")
        self.offers[reg] = offer

    @precondition(lambda self: self.offers)
    @rule(data=st.data())
    def deregister(self, data: st.DataObject) -> None:
        reg = data.draw(st.sampled_from(sorted(self.offers)))
        self.send("deregister", {"registration_id": reg})
        self.twin.deregister_context_service(reg)
        del self.offers[reg]

    @precondition(lambda self: self.offers)
    @rule(data=st.data())
    def notify(self, data: st.DataObject) -> None:
        offer = self.offers[data.draw(st.sampled_from(sorted(self.offers)))]
        topic = data.draw(st.sampled_from(offer.offered_topics))
        self.published += 1
        sample = ContextSample(topic=topic, payload=self.published,
                               produced_at=self.published, service_id=offer.service_id)
        pushed = len(self.transport.pushes)
        self.send("notify", {"service_id": offer.service_id, "sample": sample.to_dict()})
        assert self.service.broker.drain()
        live = list(self.offers.values())
        assert [m["body"]["subscription_id"] for _, m in self.transport.pushes[pushed:]
                if m["kind"] == "notify"] == [
            sub for sub, profile in self.profiles.items()
            if topic in profile.topics
            and oracle_select(live, profile).selected_for(topic) == offer.service_id]

    @rule()
    def crash_restart(self) -> None:
        before = self.service.broker.snapshot_state()
        crash(self.service)
        self.start()
        assert self.service.broker.snapshot_state() == before

    @rule()
    def clean_restart(self) -> None:
        before = self.service.broker.snapshot_state()
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
