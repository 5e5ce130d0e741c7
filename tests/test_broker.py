"""Broker state machine: registries, delivery policy, cache, advisories."""

from __future__ import annotations

import logging
import random
import re
import sys
import threading
import time

import pytest

from ctxbroker import errors
from ctxbroker.broker import ContextBroker
from ctxbroker.model import ContextSample, IndicatorCatalog, RequirementProfile, ServiceOffer
from ctxbroker.selection import build_decision_matrix, oracle_select
from ctxbroker.service import BrokerService, ServiceConfig

from conftest import make_offer
from helpers import RecordingTransport, random_catalog, random_offers, random_profile


@pytest.fixture
def transport():
    return RecordingTransport()


@pytest.fixture
def broker(threshold_catalog, transport):
    b = ContextBroker(threshold_catalog, transport=transport)
    yield b
    b.close()


def sample_for(service_id, payload="p", at=1_000, topic="location"):
    return ContextSample(topic=topic, payload=payload, produced_at=at, service_id=service_id)


# A push request id: the broker's boot id, a dash, and the push's number.
PUSH_ID = re.compile(r"([0-9a-f]{32})-([1-9][0-9]*)")


class GatedTransport(RecordingTransport):
    """Records pushes like RecordingTransport, but push number ``hold_at``
    (counted from 1) first sets ``holding`` and waits for ``gate``."""

    def __init__(self):
        super().__init__()
        self.hold_at = 1
        self.holding = threading.Event()
        self.gate = threading.Event()

    def push(self, callback_address, message):
        if len(self.pushes) + 1 == self.hold_at:  # only the dispatch thread pushes
            self.holding.set()
            self.gate.wait(10)
        return super().push(callback_address, message)


class GatedBatchTransport(GatedTransport):
    """A GatedTransport that also has ``push_many``, so the dispatch worker
    hands it each batch whole; it records the length of each."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def push_many(self, items):
        self.batches.append(len(items))
        return [self.push(address, message) for address, message in items]


class RaisingTransport(GatedTransport):
    """A GatedTransport whose push raises on the notify "a2" to cb://app-1."""

    def push(self, callback_address, message):
        if callback_address == "cb://app-1" and message["kind"] == "notify" \
                and message["body"]["sample"]["payload"] == "a2":
            raise RuntimeError("transport fault")
        return super().push(callback_address, message)


class RaisingBatchTransport(RecordingTransport):
    """A transport with ``push_many``, which raises on its first call and
    pushes each later batch in order."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def push_many(self, items):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("transport fault")
        return [self.push(address, message) for address, message in items]


def serve_three(transport, catalog, profile):
    """A broker over ``transport`` whose one service cs-a serves three
    subscriptions, app-0..app-2; the broker and the subscription ids."""
    b = ContextBroker(catalog, transport=transport)
    b.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
    return b, [b.subscribe(f"app-{i}", profile, f"cb://app-{i}") for i in range(3)]


@pytest.fixture(params=[GatedTransport, GatedBatchTransport], ids=["push", "push_many"])
def gated(request, threshold_catalog, threshold_profile):
    """``serve_three`` over a transport whose worker holds at its first
    push; it pushes one message at a time, or takes each batch whole."""
    transport = request.param()
    b, subs = serve_three(transport, threshold_catalog, threshold_profile)
    yield b, transport, subs
    transport.gate.set()
    b.close()


def kinds_per_subscription(transport, subs):
    """Each subscription's pushes, in order, as (kind, payload or topics)."""
    return {sub: [(m["kind"], m["body"]["sample"]["payload"] if m["kind"] == "notify"
                   else m["body"]["topics"])
                  for m in transport.messages(f"cb://app-{i}")]
            for i, sub in enumerate(subs)}


class TestSubscribe:
    def test_returns_fresh_id_and_populates_selection(self, broker, threshold_profile):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert sub == "sub-1"
        assert broker.get_decision(sub).topics == ("location",)
        assert broker.revision(sub) == 1

    def test_conforming_service_selected_at_admission(self, broker, threshold_profile, threshold_offers):
        for offer in threshold_offers:
            broker.register_context_service(offer, f"svc://{offer.service_id}")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert broker.get_decision(sub).selected == ("cs-conforming",)

    def test_no_services_triggers_advisory_for_all_topics(self, broker, threshold_profile, transport):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.drain()
        advisories = transport.messages("cb://app-1", kind="advisory")
        assert len(advisories) == 1
        assert advisories[0]["body"] == {"subscription_id": sub, "topics": ["location"]}

    def test_invalid_profile_rejected_with_reason(self, broker):
        bad = RequirementProfile(
            topics=("location",), qoc_min=((1.2, 0.9),), qos_min=(0.98,), weights=((1, 1),)
        )
        with pytest.raises(errors.BadRequest) as excinfo:
            broker.subscribe("app-1", bad, "cb://app-1")
        assert "outside" in str(excinfo.value)

    def test_same_consumer_and_profile_gets_distinct_subscription(self, broker, threshold_profile):
        first = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        second = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert first != second


class TestUnsubscribe:
    def test_removes_subscription(self, broker, threshold_profile):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.unsubscribe(sub)
        assert broker.find_context_consumers("location") == []

    def test_unknown_id(self, broker):
        with pytest.raises(errors.NotFound):
            broker.unsubscribe("sub-99")

    def test_double_unsubscribe(self, broker, threshold_profile):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.unsubscribe(sub)
        with pytest.raises(errors.NotFound):
            broker.unsubscribe(sub)

    def test_no_notifications_after_unsubscribe(self, broker, threshold_profile, transport):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://cs-a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.unsubscribe(sub)
        broker.notify_context_change("cs-a", sample_for("cs-a"))
        broker.drain()
        assert transport.messages("cb://app-1", kind="notify") == []


class TestRegister:
    def test_better_service_switches_selection_and_bumps_revision(
        self, broker, threshold_profile
    ):
        broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert broker.get_decision(sub).selected == ("cs-a",)
        revision = broker.revision(sub)
        broker.register_context_service(make_offer("cs-b", 0.95, 0.99, 0.99), "svc://b")
        assert broker.get_decision(sub).selected == ("cs-b",)
        assert broker.revision(sub) == revision + 1

    def test_duplicate_service_id_conflicts(self, broker):
        broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        with pytest.raises(errors.Conflict):
            broker.register_context_service(make_offer("cs-a", 0.8, 0.9, 0.99), "svc://a2")

    def test_reregister_after_deregister_is_allowed(self, broker):
        reg = broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        broker.deregister_context_service(reg)
        assert broker.register_context_service(
            make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a"
        ).startswith("reg-")

    def test_qos_infeasible_service_registered_but_never_selected(
        self, broker, threshold_profile
    ):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        revision = broker.revision(sub)
        broker.register_context_service(make_offer("cs-flaky", 0.9, 0.97, 0.97), "svc://f")
        assert broker.find_context_services("location") == ["cs-flaky"]
        assert broker.get_decision(sub).selected == (None,)
        # Decision matrix is unchanged (no new column), so no revision bump.
        assert broker.revision(sub) == revision

    def test_invalid_offer_rejected(self, broker):
        bad = ServiceOffer(
            service_id="cs-a",
            cloud_id="c",
            offered_topics=("location",),
            qoc_offer={"location": (0.9,)},
            qos_offer=(0.99,),
        )
        with pytest.raises(errors.BadRequest):
            broker.register_context_service(bad, "svc://a")


class TestDeregister:
    def test_unknown_id(self, broker):
        with pytest.raises(errors.NotFound):
            broker.deregister_context_service("reg-99")

    def test_losing_only_provider_sends_advisory(
        self, broker, threshold_profile, transport
    ):
        reg = broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.drain()
        before = len(transport.messages("cb://app-1", kind="advisory"))
        broker.deregister_context_service(reg)
        broker.drain()
        advisories = transport.messages("cb://app-1", kind="advisory")
        assert len(advisories) == before + 1
        assert advisories[-1]["body"]["topics"] == ["location"]
        assert broker.get_decision(sub).selected == (None,)

    def test_fallback_provider_takes_over_without_advisory(
        self, broker, threshold_profile, transport
    ):
        reg = broker.register_context_service(make_offer("cs-a", 0.95, 0.99, 0.99), "svc://a")
        broker.register_context_service(make_offer("cs-b", 0.85, 0.95, 0.99), "svc://b")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.deregister_context_service(reg)
        broker.drain()
        assert broker.get_decision(sub).selected == ("cs-b",)
        assert transport.messages("cb://app-1", kind="advisory") == []


class TestNotify:
    def test_selected_publisher_reaches_subscriber_once(
        self, broker, threshold_profile, transport
    ):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="42"))
        broker.drain()
        notifications = transport.messages("cb://app-1", kind="notify")
        assert len(notifications) == 1
        body = notifications[0]["body"]
        assert body["subscription_id"] == sub
        assert body["sample"]["payload"] == "42"

    def test_non_selected_publisher_does_not_notify(
        self, broker, threshold_profile, transport
    ):
        broker.register_context_service(make_offer("cs-best", 0.95, 0.99, 0.99), "svc://a")
        broker.register_context_service(make_offer("cs-spare", 0.85, 0.95, 0.99), "svc://b")
        broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.notify_context_change("cs-spare", sample_for("cs-spare"))
        broker.drain()
        assert transport.messages("cb://app-1", kind="notify") == []

    def test_unregistered_publisher_rejected(self, broker):
        with pytest.raises(errors.Unregistered):
            broker.notify_context_change("cs-ghost", sample_for("cs-ghost"))

    def test_unoffered_topic_rejected(self, broker):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        with pytest.raises(errors.BadRequest):
            broker.notify_context_change("cs-a", sample_for("cs-a", topic="humidity"))

    def test_sample_publisher_mismatch_rejected(self, broker):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        with pytest.raises(errors.BadRequest):
            broker.notify_context_change("cs-a", sample_for("cs-other"))

    def test_timestamp_regression_rejected_equal_allowed(self, broker):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        broker.notify_context_change("cs-a", sample_for("cs-a", at=2_000))
        broker.notify_context_change("cs-a", sample_for("cs-a", at=2_000))
        with pytest.raises(errors.BadRequest):
            broker.notify_context_change("cs-a", sample_for("cs-a", at=1_999))


class TestPullCurrent:
    def test_relays_fresh_sample_and_fills_cache(self, broker, threshold_profile, transport):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        transport.values["svc://a"] = {
            "location": sample_for("cs-a", payload="fresh", at=5_000).to_dict()
        }
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        sample = broker.get_current_topic_value(sub, "location")
        assert sample.payload == "fresh"
        assert broker.get_last_topic_value(sub, "location") == sample

    def test_topic_outside_subscription(self, broker, threshold_profile):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        with pytest.raises(errors.NotSubscribed):
            broker.get_current_topic_value(sub, "humidity")

    def test_no_provider_carries_advisory_topics(self, broker, threshold_profile):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        with pytest.raises(errors.NoProvider) as excinfo:
            broker.get_current_topic_value(sub, "location")
        assert excinfo.value.details["topics"] == ["location"]

    def test_unreachable_service(self, broker, threshold_profile, transport):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        transport.dead_services.add("svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        with pytest.raises(errors.UpstreamUnavailable):
            broker.get_current_topic_value(sub, "location")

    def test_unknown_subscription(self, broker):
        with pytest.raises(errors.NotFound):
            broker.get_current_topic_value("sub-404", "location")

    @pytest.mark.parametrize("answer", [
        {"topic": "location", "payload": "p", "service_id": "cs-a"},
        {**sample_for("cs-a").to_dict(), "produced_at": "noon"},
        ["not", "a", "sample"],
        sample_for("cs-a", topic="humidity").to_dict(),
        sample_for("cs-b").to_dict(),
    ], ids=["no-produced-at", "bad-produced-at", "not-an-object", "other-topic", "other-service"])
    def test_an_answer_that_is_not_the_asked_sample_is_refused_uncached(
        self, broker, threshold_profile, transport, answer
    ):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        # Admissible but not selected: pull-last falls back to its samples.
        broker.register_context_service(make_offer("cs-b", 0.85, 0.94, 0.99), "svc://b")
        transport.values["svc://a"] = {"location": answer}
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        with pytest.raises(errors.UpstreamUnavailable):
            broker.get_current_topic_value(sub, "location")
        with pytest.raises(errors.NoValueYet):
            broker.get_last_topic_value(sub, "location")


class TestPullLast:
    def test_before_any_publication(self, broker, threshold_profile):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        with pytest.raises(errors.NoValueYet):
            broker.get_last_topic_value(sub, "location")

    def test_returns_single_published_sample(self, broker, threshold_profile):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="one", at=1_000))
        assert broker.get_last_topic_value(sub, "location").payload == "one"

    def test_second_publication_wins(self, broker, threshold_profile):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="one", at=1_000))
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="two", at=2_000))
        assert broker.get_last_topic_value(sub, "location").payload == "two"

    def test_new_subscription_falls_back_to_feasible_publisher(
        self, broker, threshold_profile
    ):
        # The selected provider has not published; another admissible one has.
        broker.register_context_service(make_offer("cs-best", 0.95, 0.99, 0.99), "svc://a")
        broker.register_context_service(make_offer("cs-spare", 0.85, 0.95, 0.99), "svc://b")
        broker.notify_context_change("cs-spare", sample_for("cs-spare", payload="old", at=900))
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert broker.get_decision(sub).selected == ("cs-best",)
        assert broker.get_last_topic_value(sub, "location").payload == "old"

    def test_infeasible_publisher_never_leaks_values(self, broker, threshold_profile):
        # cs-stale publishes, but its offer fails the freshness floor: its
        # cached value must not reach this consumer.
        broker.register_context_service(make_offer("cs-stale", 0.75, 0.95, 0.99), "svc://a")
        broker.notify_context_change("cs-stale", sample_for("cs-stale", payload="leak"))
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        with pytest.raises(errors.NoValueYet):
            broker.get_last_topic_value(sub, "location")

    def test_qos_infeasible_publisher_never_leaks_values(self, broker, threshold_profile):
        # cs-flaky meets every QoC floor but fails the availability floor;
        # the selected cs-best has not published, so the fallback runs.
        broker.register_context_service(make_offer("cs-best", 0.95, 0.99, 0.99), "svc://a")
        broker.register_context_service(make_offer("cs-flaky", 0.90, 0.97, 0.97), "svc://b")
        broker.notify_context_change("cs-flaky", sample_for("cs-flaky", payload="leak"))
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        with pytest.raises(errors.NoValueYet):
            broker.get_last_topic_value(sub, "location")

    def test_fallback_tie_on_produced_at_goes_to_the_smallest_service_id(
        self, broker, threshold_profile
    ):
        broker.register_context_service(make_offer("cs-best", 0.95, 0.99, 0.99), "svc://a")
        broker.register_context_service(make_offer("cs-b", 0.85, 0.95, 0.99), "svc://b")
        broker.register_context_service(make_offer("cs-a", 0.86, 0.95, 0.99), "svc://c")
        broker.notify_context_change("cs-b", sample_for("cs-b", at=900))
        broker.notify_context_change("cs-a", sample_for("cs-a", at=900))
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert broker.get_last_topic_value(sub, "location").service_id == "cs-a"

    def test_fallback_prefers_the_newer_sample_of_another_provider(
        self, broker, threshold_profile
    ):
        broker.register_context_service(make_offer("cs-best", 0.95, 0.99, 0.99), "svc://a")
        broker.register_context_service(make_offer("cs-a", 0.86, 0.95, 0.99), "svc://b")
        broker.register_context_service(make_offer("cs-b", 0.85, 0.95, 0.99), "svc://c")
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="older", at=900))
        broker.notify_context_change("cs-b", sample_for("cs-b", payload="newer", at=950))
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert broker.get_last_topic_value(sub, "location").payload == "newer"

    def test_a_sample_lives_as_long_as_its_registration(self, broker, threshold_profile):
        offer = make_offer("cs-a", 0.9, 0.95, 0.99)
        reg = broker.register_context_service(offer, "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="before", at=2_000))
        broker.deregister_context_service(reg)
        broker.register_context_service(offer, "svc://a")  # the same id, a restarted clock
        with pytest.raises(errors.NoValueYet):
            broker.get_last_topic_value(sub, "location")
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="after", at=1_000))
        assert broker.get_last_topic_value(sub, "location").payload == "after"

    def test_registration_churn_leaves_one_entry_per_live_service_and_topic(
        self, broker, threshold_profile
    ):
        broker.register_context_service(make_offer("cs-kept", 0.9, 0.95, 0.99), "svc://k")
        broker.notify_context_change("cs-kept", sample_for("cs-kept"))
        for i in range(1000):
            reg = broker.register_context_service(make_offer(f"cs-{i}", 0.9, 0.95, 0.99), "svc://x")
            broker.notify_context_change(f"cs-{i}", sample_for(f"cs-{i}"))
            broker.deregister_context_service(reg)
        assert list(broker._cache) == [("location", "cs-kept")]

    def test_a_pull_through_answered_after_deregistration_is_not_cached(
        self, broker, threshold_profile, transport
    ):
        reg = broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        transport.values["svc://a"] = {"location": sample_for("cs-a").to_dict()}
        pull = transport.pull

        def pull_while_deregistering(address, topic):
            broker.deregister_context_service(reg)
            return pull(address, topic)

        transport.pull = pull_while_deregistering
        assert broker.get_current_topic_value(sub, "location").service_id == "cs-a"
        assert broker._cache == {}


class TestFindOperations:
    def test_empty_broker(self, broker):
        assert broker.find_context_consumers("location") == []
        assert broker.find_context_services("location") == []

    def test_consumers_filtered_by_topic_in_admission_order(self, broker, threshold_catalog):
        profile_loc = RequirementProfile(
            topics=("location",), qoc_min=((0.0, 0.0),), qos_min=(0.0,), weights=((1, 1),)
        )
        profile_tmp = RequirementProfile(
            topics=("temperature",), qoc_min=((0.0, 0.0),), qos_min=(0.0,), weights=((1, 1),)
        )
        s1 = broker.subscribe("app-1", profile_loc, "cb://1")
        s2 = broker.subscribe("app-2", profile_tmp, "cb://2")
        s3 = broker.subscribe("app-3", profile_loc, "cb://3")
        assert broker.find_context_consumers("location") == [s1, s3]
        assert broker.find_context_consumers("temperature") == [s2]
        broker.unsubscribe(s1)
        assert broker.find_context_consumers("location") == [s3]

    def test_services_filtered_by_topic_in_admission_order(self, broker):
        broker.register_context_service(make_offer("cs-a", 0.9, 0.9, 0.9), "svc://a")
        offer_b = ServiceOffer(
            service_id="cs-b",
            cloud_id="c",
            offered_topics=("temperature",),
            qoc_offer={"temperature": (0.9, 0.9)},
            qos_offer=(0.9,),
        )
        broker.register_context_service(offer_b, "svc://b")
        reg_c = broker.register_context_service(make_offer("cs-c", 0.8, 0.8, 0.8), "svc://c")
        assert broker.find_context_services("location") == ["cs-a", "cs-c"]
        assert broker.find_context_services("temperature") == ["cs-b"]
        broker.deregister_context_service(reg_c)
        assert broker.find_context_services("location") == ["cs-a"]


class TestDeliveryOrderAndCompleteness:
    def test_every_selected_publication_delivered_once_in_order(
        self, broker, threshold_profile, transport
    ):
        broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        broker.register_context_service(make_offer("cs-b", 0.95, 0.99, 0.99), "svc://b")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        assert broker.get_decision(sub).selected == ("cs-b",)
        expected = []
        for i in range(8):
            # Interleave publications; only cs-b is selected throughout.
            broker.notify_context_change("cs-a", sample_for("cs-a", payload=f"a{i}", at=i))
            broker.notify_context_change("cs-b", sample_for("cs-b", payload=f"b{i}", at=i))
            expected.append(f"b{i}")
        broker.drain()
        received = [
            m["body"]["sample"]["payload"]
            for m in transport.messages("cb://app-1", kind="notify")
        ]
        assert received == expected

    def test_switch_mid_stream_redirects_delivery(self, broker, threshold_profile, transport):
        broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="a1", at=1))
        broker.register_context_service(make_offer("cs-b", 0.95, 0.99, 0.99), "svc://b")
        assert broker.get_decision(sub).selected == ("cs-b",)
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="a2", at=2))
        broker.notify_context_change("cs-b", sample_for("cs-b", payload="b1", at=2))
        broker.drain()
        received = [
            (m["body"]["sample"]["service_id"], m["body"]["sample"]["payload"])
            for m in transport.messages("cb://app-1", kind="notify")
        ]
        assert received == [("cs-a", "a1"), ("cs-b", "b1")]

    def test_drain_waits_for_every_message_of_a_taken_batch(self, gated):
        broker, transport, subs = gated
        transport.hold_at = 3  # the last of one publication's three pushes
        broker.notify_context_change("cs-a", sample_for("cs-a"))
        assert transport.holding.wait(5)
        assert len(transport.pushes) == 2
        assert broker.drain(0.2) is False
        transport.gate.set()
        assert broker.drain(5) is True
        assert len(transport.pushes) == 3

    def test_fifo_per_subscription_across_publications_and_an_advisory(self, gated):
        broker, transport, subs = gated
        broker.notify_renegotiation(subs[0], ["primer"])  # holds the worker
        assert transport.holding.wait(5)
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="a1", at=1))
        for sub in subs:
            broker.notify_renegotiation(sub, ["location"])
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="a2", at=2))
        transport.gate.set()
        assert broker.drain(5)
        expected = [("notify", "a1"), ("advisory", ["location"]), ("notify", "a2")]
        assert kinds_per_subscription(transport, subs) == {
            sub: ([("advisory", ["primer"])] if i == 0 else []) + expected
            for i, sub in enumerate(subs)}
        if isinstance(transport, GatedBatchTransport):
            assert transport.batches == [1, 9]  # all queued behind the primer, in one call

    def test_a_notify_without_receivers_queues_nothing(self, gated):
        broker, transport, subs = gated
        broker.register_context_service(make_offer("cs-b", 0.85, 0.95, 0.97), "svc://b")
        assert broker.drain(5)
        broker.notify_context_change("cs-b", sample_for("cs-b"))  # selected by no one
        assert broker._dispatcher._pending == 0
        assert broker.drain(0) is True
        assert transport.pushes == []

    def test_close_delivers_what_was_queued_before_it(self, gated):
        broker, transport, subs = gated
        broker.notify_renegotiation(subs[0], ["primer"])  # holds the worker
        assert transport.holding.wait(5)
        broker.notify_context_change("cs-a", sample_for("cs-a", payload="a1"))
        # close() sets its flag while the pushes wait; the worker takes them in one batch.
        threading.Timer(0.2, transport.gate.set).start()
        broker.close()
        assert kinds_per_subscription(transport, subs) == {
            sub: ([("advisory", ["primer"])] if i == 0 else []) + [("notify", "a1")]
            for i, sub in enumerate(subs)}
        if isinstance(transport, GatedBatchTransport):
            assert transport.batches == [1, 3]  # then stops, with no empty batch

    def test_close_racing_publishers_pushes_each_earlier_message_once_in_order(self, gated):
        broker, transport, subs = gated
        transport.gate.set()
        sent = dict.fromkeys(subs, 0)  # advisories whose call has returned
        stop = threading.Event()

        def publish(sub):
            while not stop.is_set():
                broker.notify_renegotiation(sub, [f"n{sent[sub]}"])
                sent[sub] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=publish, args=(sub,)) for sub in subs]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.05)
            before_close = dict(sent)
            broker.close()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for sub, pushed in kinds_per_subscription(transport, subs).items():
            assert before_close[sub] > 0
            assert before_close[sub] <= len(pushed) <= sent[sub]
            assert pushed == [("advisory", [f"n{k}"]) for k in range(len(pushed))]

    def test_a_closed_broker_drops_what_is_sent_to_it(self, gated, caplog):
        broker, transport, subs = gated
        transport.gate.set()
        broker.close()
        caplog.set_level(logging.WARNING, logger="ctxbroker.broker")
        for k in range(1000):
            broker.notify_renegotiation(subs[k % 3], [f"n{k}"])
        start = time.monotonic()
        assert broker.drain(0.3) is True
        assert time.monotonic() - start < 0.1
        assert broker._dispatcher._pending == 0
        assert broker._dispatcher._queue == []
        assert transport.pushes == []
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "dropping 1 message(s) enqueued after close"] * 1000

    def test_a_push_that_raises_loses_only_its_message(self, threshold_catalog, threshold_profile):
        transport = RaisingTransport()
        broker, subs = serve_three(transport, threshold_catalog, threshold_profile)
        try:
            broker.notify_renegotiation(subs[0], ["primer"])  # holds the worker
            assert transport.holding.wait(5)
            for at, payload in enumerate(["a1", "a2", "a3"]):  # then queue in one batch
                broker.notify_context_change("cs-a", sample_for("cs-a", payload=payload, at=at))
            transport.gate.set()
            assert broker.drain(5) is True
            notifies = [("notify", "a1"), ("notify", "a2"), ("notify", "a3")]
            assert kinds_per_subscription(transport, subs) == {
                subs[0]: [("advisory", ["primer"])] + notifies,
                subs[1]: [notifies[0], notifies[2]],
                subs[2]: notifies}
        finally:
            transport.gate.set()
            broker.close()

    def test_a_push_many_that_raises_drops_only_its_batch(
        self, threshold_catalog, threshold_profile, caplog
    ):
        caplog.set_level(logging.WARNING, logger="ctxbroker.broker")
        transport = RaisingBatchTransport()
        broker, subs = serve_three(transport, threshold_catalog, threshold_profile)
        try:
            broker.notify_context_change("cs-a", sample_for("cs-a", payload="a1", at=1))
            assert broker.drain(5) is True
            broker.notify_context_change("cs-a", sample_for("cs-a", payload="a2", at=2))
            assert broker.drain(5) is True
        finally:
            broker.close()
        assert transport.calls == 2  # close() pushes no empty batch
        assert kinds_per_subscription(transport, subs) == {sub: [("notify", "a2")] for sub in subs}
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"dropping notify for cb://app-{i} after 0 attempt(s)" for i in range(3)]


class TestPushIdentity:
    def test_one_publication_pushes_one_sample_under_distinct_ids(
        self, broker, threshold_profile, transport
    ):
        broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        for i in range(5):
            broker.subscribe(f"app-{i}", threshold_profile, f"cb://app-{i}")
        sample = sample_for("cs-a", payload={"reading": 1})
        broker.notify_context_change("cs-a", sample)
        broker.drain()
        pushes = [m for _, m in transport.pushes]
        assert [m["kind"] for m in pushes] == ["notify"] * 5
        assert all(m["body"]["sample"] == sample.to_dict() for m in pushes)
        ids = [m["request_id"] for m in pushes]
        assert len(set(ids)) == 5
        assert all(PUSH_ID.fullmatch(i) for i in ids)

    def test_advisories_take_ids_of_the_same_form(self, broker, threshold_profile, transport):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")  # no provider yet
        broker.notify_renegotiation(sub, ["location"])
        broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
        broker.notify_context_change("cs-a", sample_for("cs-a"))
        broker.drain()
        assert [m["kind"] for _, m in transport.pushes] == ["advisory", "advisory", "notify"]
        found = [PUSH_ID.fullmatch(m["request_id"]) for _, m in transport.pushes]
        assert all(found)
        assert len({f.group(1) for f in found}) == 1  # one boot id
        assert len({f.group(2) for f in found}) == 3

    def test_two_brokers_never_share_a_push_id(self, threshold_catalog, threshold_profile):
        ids = []
        for _ in range(2):
            transport = RecordingTransport()
            broker = ContextBroker(threshold_catalog, transport=transport)
            broker.subscribe("app-1", threshold_profile, "cb://app-1")
            broker.register_context_service(make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
            broker.notify_context_change("cs-a", sample_for("cs-a"))
            broker.drain()
            broker.close()
            ids.append({m["request_id"] for _, m in transport.pushes})
        assert len(ids[0]) == len(ids[1]) == 2
        assert not ids[0] & ids[1]

    def test_a_restarted_service_never_reuses_a_push_id(
        self, threshold_catalog, threshold_profile, tmp_path
    ):
        config = ServiceConfig(catalog=threshold_catalog, persist_path=tmp_path / "state.json")
        ids = []
        for life in range(2):
            transport = RecordingTransport()
            service = BrokerService(config, transport=transport)
            if life == 0:
                service.broker.register_context_service(
                    make_offer("cs-a", 0.85, 0.95, 0.99), "svc://a")
                service.broker.subscribe("app-1", threshold_profile, "cb://app-1")
            service.broker.notify_context_change("cs-a", sample_for("cs-a", at=life))
            service.broker.drain()
            service.close()
            ids.append([m["request_id"] for _, m in transport.pushes])
        assert len(ids[0]) == len(ids[1]) == 1
        assert ids[0] != ids[1]


class TestEventLog:
    def test_holds_registry_mutations_only(self, threshold_catalog, threshold_profile, transport):
        records: list[dict] = []
        broker = ContextBroker(threshold_catalog, transport=transport, journal=records.append)
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        for at in range(50):
            broker.notify_context_change("cs-a", sample_for("cs-a", at=at))
        transport.values["svc://a"] = {"location": sample_for("cs-a", at=50).to_dict()}
        broker.get_current_topic_value(sub, "location")
        broker.get_last_topic_value(sub, "location")
        assert broker.drain()
        assert len(transport.messages("cb://app-1", kind="notify")) == 50
        assert [r["kind"] for r in records] == ["subscribe", "register"]
        broker.close()

    def test_a_failing_hook_changes_nothing(self, threshold_catalog, threshold_profile, transport):
        records: list[dict] = []
        fail = False

        def journal(record):
            if fail:
                raise OSError("disk full")
            records.append(record)

        broker = ContextBroker(threshold_catalog, transport=transport, journal=journal)
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        reg = broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        before = broker.snapshot_state()
        fail = True
        with pytest.raises(OSError):
            broker.subscribe("app-2", threshold_profile, "cb://app-2")
        with pytest.raises(OSError):
            broker.register_context_service(make_offer("cs-b", 0.9, 0.95, 0.99), "svc://b")
        with pytest.raises(OSError):
            broker.unsubscribe(sub)
        with pytest.raises(OSError):
            broker.deregister_context_service(reg)
        assert broker.snapshot_state() == before
        assert broker.find_context_services("location") == ["cs-a"]
        assert broker.get_decision(sub).selected == ("cs-a",)
        fail = False
        assert broker.subscribe("app-2", threshold_profile, "cb://app-2") == "sub-2"
        assert [r["seq"] for r in records] == [1, 2, 3]
        broker.close()

    def test_record_and_snapshot_entry_keys(self, threshold_catalog, threshold_profile, transport):
        # Journals and snapshots already on disk keep loading only while
        # these keys, and the record key order, stay as they are.
        records: list[dict] = []
        broker = ContextBroker(threshold_catalog, transport=transport, journal=records.append)
        reg = broker.register_context_service(make_offer("cs-a", 0.9, 0.95, 0.99), "svc://a")
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        state = broker.snapshot_state()
        broker.unsubscribe(sub)
        broker.deregister_context_service(reg)
        head = ["seq", "kind", "at"]
        assert [list(r) for r in records] == [
            head + ["registration_id", "offer", "service_address"],
            head + ["subscription_id", "consumer_id", "profile", "callback_address"],
            head + ["subscription_id"],
            head + ["registration_id", "service_id"],
        ]
        assert [r["kind"] for r in records] == ["register", "subscribe", "unsubscribe", "deregister"]
        assert records[3]["service_id"] == "cs-a"
        assert sorted(state) == ["next_reg", "next_sub", "registrations", "seq", "subscriptions"]
        assert sorted(state["registrations"][0]) == [
            "created_at", "offer", "registration_id", "service_address"]
        assert sorted(state["subscriptions"][0]) == [
            "callback_address", "consumer_id", "created_at", "profile", "revision",
            "subscription_id"]
        # A snapshot entry is its record's fields plus ``created_at``.
        for record, entry in zip(records, state["registrations"] + state["subscriptions"]):
            fields = list(record)[3:]
            assert {k: entry[k] for k in fields} == {k: record[k] for k in fields}
            assert entry["created_at"] == record["at"]
        broker.close()


def replay_events(catalog, events):
    """Rebuild a broker by replaying the mutation records its journal hook got."""
    replica = ContextBroker(catalog, transport=RecordingTransport())
    for record in events:
        replica.replay(record)
    return replica


class TestSelectionFreshness:
    def test_selection_always_equals_flat_rebuild_and_replay(self):
        rng = random.Random(77)
        for _ in range(20):
            catalog = random_catalog(rng, max_qoc=3, max_qos=2)
            transport = RecordingTransport()
            records: list[dict] = []
            broker = ContextBroker(catalog, transport=transport, journal=records.append)
            live_regs: list[str] = []
            live_subs: list[str] = []
            offers_by_reg: dict[str, ServiceOffer] = {}
            profile = random_profile(rng, catalog, max_topics=3)
            for step in range(30):
                roll = rng.random()
                if roll < 0.4:
                    pool = random_offers(rng, catalog, profile, max_services=3)
                    for offer in pool:
                        unique = ServiceOffer(
                            service_id=f"{offer.service_id}-{step}",
                            cloud_id=offer.cloud_id,
                            offered_topics=offer.offered_topics,
                            qoc_offer=dict(offer.qoc_offer),
                            qos_offer=offer.qos_offer,
                        )
                        reg = broker.register_context_service(unique, f"svc://{unique.service_id}")
                        live_regs.append(reg)
                        offers_by_reg[reg] = unique
                elif roll < 0.6 and live_regs:
                    reg = live_regs.pop(rng.randrange(len(live_regs)))
                    broker.deregister_context_service(reg)
                    del offers_by_reg[reg]
                elif roll < 0.85:
                    live_subs.append(
                        broker.subscribe(f"app-{step}", random_profile(rng, catalog, 3), "cb://x")
                    )
                elif live_subs:
                    broker.unsubscribe(live_subs.pop(rng.randrange(len(live_subs))))
            # Quiesced: every selection equals a flat rebuild over live offers.
            live_offers = [offers_by_reg[reg] for reg in live_regs]
            for sub in live_subs:
                decision = broker.get_decision(sub)
                profile_of_sub = RequirementProfile.from_dict(
                    next(
                        r["profile"]
                        for r in records
                        if r["kind"] == "subscribe" and r["subscription_id"] == sub
                    )
                )
                assert decision == build_decision_matrix(live_offers, profile_of_sub)
            # And a replay of the mutation log reproduces the same state.
            replica = replay_events(catalog, records)
            for sub in live_subs:
                assert replica.get_decision(sub) == broker.get_decision(sub)
            for topic in profile.topics:
                assert replica.find_context_services(topic) == broker.find_context_services(topic)
                assert replica.find_context_consumers(topic) == broker.find_context_consumers(topic)
            replica.close()
            broker.close()


def register_pullable(broker, transport, offer):
    """Register ``offer`` at an address whose pulls answer a sample of it on each topic."""
    address = f"svc://{offer.service_id}"
    transport.values[address] = {
        topic: sample_for(offer.service_id, topic=topic).to_dict()
        for topic in offer.offered_topics
    }
    return broker.register_context_service(offer, address)


def routed(broker, sub, topics):
    """The provider each topic of ``sub`` is routed to, as pull-current reads it."""
    providers = []
    for topic in topics:
        try:
            providers.append(broker.get_current_topic_value(sub, topic).service_id)
        except errors.NoProvider:
            providers.append(None)
    return tuple(providers)


def near_clone(rng, offer, service_id):
    """``offer``'s vectors under a new id, each QoC level nudged by a few
    ``TIE_TOLERANCE``-sized steps, so scores land in and just outside the tie band."""
    nudge = rng.choice((0.0, 4e-13, -4e-13, 8e-13, -1.6e-12))
    return ServiceOffer(
        service_id=service_id,
        cloud_id=offer.cloud_id,
        offered_topics=offer.offered_topics,
        qoc_offer={
            topic: tuple(min(1.0, max(0.0, q + nudge)) for q in levels)
            for topic, levels in offer.qoc_offer.items()
        },
        qos_offer=offer.qos_offer,
    )


class TestRevisionSemantics:
    def test_revision_bumps_iff_the_flat_matrix_changes(self):
        """A revision counts changes of a flat rebuild over the live offers,
        and routing always follows that rebuild's winners."""
        rng = random.Random(2011)
        for _ in range(30):
            catalog = random_catalog(rng, max_qoc=3, max_qos=2)
            transport = RecordingTransport()
            broker = ContextBroker(catalog, transport=transport)
            base = random_profile(rng, catalog, max_topics=3)
            offers: dict[str, ServiceOffer] = {}  # registration id -> offer
            profiles: dict[str, RequirementProfile] = {}
            made = 0

            def flat():
                return {sub: build_decision_matrix(list(offers.values()), profile)
                        for sub, profile in profiles.items()}

            for _ in range(40):
                before, revisions = flat(), {sub: broker.revision(sub) for sub in profiles}
                roll = rng.random()
                if roll < 0.45:
                    donors = (list(offers.values()) if offers and rng.random() < 0.4
                              else random_offers(rng, catalog, base, max_services=3))
                    if not donors:
                        continue
                    made += 1
                    offer = near_clone(rng, rng.choice(donors), f"cs{made:03d}")
                    offers[register_pullable(broker, transport, offer)] = offer
                elif roll < 0.7 and offers:
                    reg = rng.choice(sorted(offers))
                    broker.deregister_context_service(reg)
                    del offers[reg]
                elif roll < 0.9:
                    profile = random_profile(rng, catalog, max_topics=3)
                    profiles[broker.subscribe("app", profile, "cb://app")] = profile
                elif profiles:
                    sub = rng.choice(sorted(profiles))
                    broker.unsubscribe(sub)
                    del profiles[sub]
                after = flat()
                for sub in set(before) & set(after):
                    bumped = broker.revision(sub) - revisions[sub]
                    assert bumped == (after[sub] != before[sub]), (sub, bumped)
                for sub, profile in profiles.items():
                    assert routed(broker, sub, profile.topics) == after[sub].selected
            broker.close()


ONE_QOC = IndicatorCatalog(("q",), ("s",))
ONE_TOPIC = RequirementProfile(topics=("t",), qoc_min=((0.0,),), qos_min=(0.0,), weights=((1.0,),))


def level_offer(service_id, level):
    return ServiceOffer(service_id=service_id, cloud_id="c", offered_topics=("t",),
                        qoc_offer={"t": (level,)}, qos_offer=(1.0,))


class TestTieBand:
    """Scores within TIE_TOLERANCE of the top tie, and a tie goes to the
    smallest id: a = 0.5 and b = a + 0.8e-12 tie; c = a + 1.5e-12 ties b
    but not a."""

    A, B, C = (level_offer("a", 0.5), level_offer("b", 0.5 + 0.8e-12),
               level_offer("c", 0.5 + 1.5e-12))

    def run(self, steps):
        transport = RecordingTransport()
        broker = ContextBroker(ONE_QOC, transport=transport)
        sub = broker.subscribe("app", ONE_TOPIC, "cb://app")
        regs, live = {}, {}
        for verb, offer in steps:
            if verb == "register":
                regs[offer.service_id] = register_pullable(broker, transport, offer)
                live[offer.service_id] = offer
            else:
                broker.deregister_context_service(regs.pop(offer.service_id))
                del live[offer.service_id]
            assert routed(broker, sub, ("t",)) == oracle_select(list(live.values()),
                                                                 ONE_TOPIC).selected
        broker.close()

    def test_a_register_inside_the_band_of_the_top_but_not_of_the_winner(self):
        # a wins over b; c ties b but beats a, so b wins.
        self.run([("register", self.A), ("register", self.B), ("register", self.C)])

    def test_a_deregister_of_a_top_that_is_not_the_winner(self):
        # b wins over c; without c, a ties b again and wins.
        self.run([("register", self.A), ("register", self.B), ("register", self.C),
                  ("deregister", self.C)])

    def test_oracle_sees_the_ties(self):
        assert oracle_select([self.A, self.B], ONE_TOPIC).selected == ("a",)
        assert oracle_select([self.A, self.B, self.C], ONE_TOPIC).selected == ("b",)


class TestNotifyOrder:
    def test_receivers_are_pushed_in_admission_order(self, broker, transport):
        """sub-2 switches to cs-p before sub-1 does; a publication of cs-p
        still reaches sub-1 first."""
        loose = RequirementProfile(topics=("location",), qoc_min=((0.0, 0.0),),
                                   qos_min=(0.0,), weights=((1.0, 1.0),))
        strict = RequirementProfile(topics=("location",), qoc_min=((0.0, 0.0),),
                                    qos_min=(0.9,), weights=((1.0, 1.0),))
        first = broker.subscribe("app-1", loose, "cb://app-1")
        second = broker.subscribe("app-2", strict, "cb://app-2")
        reg_q = broker.register_context_service(make_offer("cs-q", 0.99, 0.99, 0.5), "svc://q")
        broker.register_context_service(make_offer("cs-p", 0.9, 0.9, 0.95), "svc://p")
        broker.deregister_context_service(reg_q)  # now sub-1 switches to cs-p
        broker.drain()
        del transport.pushes[:]
        broker.notify_context_change("cs-p", sample_for("cs-p"))
        broker.drain()
        assert [m["body"]["subscription_id"] for _, m in transport.pushes] == [first, second]


class TestExplicitRenegotiation:
    def test_manual_advisory(self, broker, threshold_profile, transport):
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        broker.drain()
        broker.notify_renegotiation(sub, ["location"])
        broker.drain()
        advisories = transport.messages("cb://app-1", kind="advisory")
        assert advisories[-1]["body"]["topics"] == ["location"]

    def test_unknown_subscription(self, broker):
        with pytest.raises(errors.NotFound):
            broker.notify_renegotiation("sub-404", ["location"])


class TestConcurrentMutations:
    def test_registry_consistent_after_parallel_registers(self, threshold_catalog, threshold_profile):
        transport = RecordingTransport()
        broker = ContextBroker(threshold_catalog, transport=transport)
        sub = broker.subscribe("app-1", threshold_profile, "cb://app-1")
        errors_seen: list[Exception] = []

        def register_batch(start):
            try:
                for k in range(start, start + 5):
                    broker.register_context_service(
                        make_offer(f"cs-{k:03d}", 0.85, 0.95, 0.99), f"svc://{k}"
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors_seen.append(exc)

        threads = [threading.Thread(target=register_batch, args=(i * 5,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors_seen
        services = broker.find_context_services("location")
        assert sorted(services) == [f"cs-{k:03d}" for k in range(30)]
        decision = broker.get_decision(sub)
        assert decision.selected == ("cs-000",)  # tie on equal offers breaks by id
        broker.close()
