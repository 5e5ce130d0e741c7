"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass line (a failed criterion fails its test instead)."""

from __future__ import annotations

import json
import random
import time

from ctxbroker.model import IndicatorCatalog, RequirementProfile, ServiceOffer
from ctxbroker.selection import (
    TIE_TOLERANCE,
    build_decision_matrix,
    oracle_select,
    qoc_feasible,
    qos_feasible,
    score,
    select_multi_cloud,
)
from ctxbroker.service import BrokerService, ServiceConfig
from ctxbroker.sim import Scenario, ScenarioEvent, run

from helpers import RecordingTransport, random_instance, random_sample
from test_service import FAST_RETRY, apply_requests, observable_state, random_requests
from test_sim import dominance_scenario


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_1_oracle_equivalence():
    rng = random.Random(20250101)
    started = time.monotonic()
    for _ in range(1000):
        _, offers, profile = random_instance(
            rng, max_services=10, max_topics=5, max_qoc=5, max_qos=4
        )
        fast = build_decision_matrix(offers, profile)
        slow = oracle_select(offers, profile)
        assert fast.selected == slow.selected
        assert fast.services == slow.services
        for fast_row, slow_row in zip(fast.scores, slow.scores):
            for x, y in zip(fast_row, slow_row):
                assert abs(x - y) <= 1e-9
        for x, y in zip(fast.max_score, slow.max_score):
            assert abs(x - y) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"1000 instances took {elapsed:.2f}s"
    report(1, f"oracle equivalence over 1000 instances in {elapsed:.2f}s")


def _threshold_setup():
    profile = RequirementProfile(
        topics=("location",),
        qoc_min=((0.80, 0.93),),   # freshness, probability of correctness
        qos_min=(0.98,),           # availability
        weights=((1.0, 1.0),),
    )

    def offer(service_id, freshness, correctness, availability):
        return ServiceOffer(
            service_id=service_id,
            cloud_id="cloud-1",
            offered_topics=("location",),
            qoc_offer={"location": (freshness, correctness)},
            qos_offer=(availability,),
        )

    conforming = offer("cs-conforming", 0.85, 0.95, 0.99)
    stale = offer("cs-stale", 0.75, 0.95, 0.99)
    flaky = offer("cs-flaky", 0.90, 0.97, 0.97)
    return profile, offer, conforming, stale, flaky


def test_criterion_2_threshold_fixture():
    profile, offer, conforming, stale, flaky = _threshold_setup()
    offers = [conforming, stale, flaky]

    assert qos_feasible(conforming, profile) is True
    assert qoc_feasible(conforming, profile, "location") is True
    assert qoc_feasible(stale, profile, "location") is False
    assert qos_feasible(flaky, profile) is False

    decision = build_decision_matrix(offers, profile)
    assert decision.selected == ("cs-conforming",)

    # Exact boundary: meeting every threshold exactly is still feasible.
    boundary = offer("cs-boundary", 0.80, 0.93, 0.98)
    assert qos_feasible(boundary, profile) is True
    assert qoc_feasible(boundary, profile, "location") is True

    # Perturbing any single offered value below its threshold flips the
    # conforming service to infeasible, leaving the topic unprovisioned.
    perturbations = [
        offer("cs-conforming", 0.79, 0.95, 0.99),
        offer("cs-conforming", 0.85, 0.92, 0.99),
        offer("cs-conforming", 0.85, 0.95, 0.97),
    ]
    for perturbed in perturbations:
        feasible = qos_feasible(perturbed, profile) and qoc_feasible(
            perturbed, profile, "location"
        )
        assert feasible is False
        degraded = build_decision_matrix([perturbed, stale, flaky], profile)
        assert degraded.selected == (None,)
    report(2, "worked threshold fixture selects the one conforming service")


def _feasible_tie_set(offers, profile, j):
    topic = profile.topics[j]
    candidates = [
        (o.service_id, score(o, profile, j))
        for o in offers
        if qos_feasible(o, profile) and qoc_feasible(o, profile, topic)
    ]
    if not candidates:
        return frozenset()
    best = max(score for _, score in candidates)
    return frozenset(sid for sid, score in candidates if score >= best - TIE_TOLERANCE)


def test_criterion_3_weight_scaling_invariance():
    rng = random.Random(20250303)
    for _ in range(200):
        _, offers, profile = random_instance(rng)
        j = rng.randrange(len(profile.topics))
        lam = rng.uniform(1e-9, 10.0)
        scaled = RequirementProfile(
            topics=profile.topics,
            qoc_min=profile.qoc_min,
            qos_min=profile.qos_min,
            weights=tuple(
                tuple(w * lam for w in row) if row_index == j else row
                for row_index, row in enumerate(profile.weights)
            ),
        )
        assert (
            build_decision_matrix(offers, profile).selected[j]
            == build_decision_matrix(offers, scaled).selected[j]
        )
        assert _feasible_tie_set(offers, profile, j) == _feasible_tie_set(offers, scaled, j)
    report(3, "scaling a weight row never moves the per-topic argmax")


def test_criterion_4_multi_cloud_union_equivalence():
    rng = random.Random(20250404)
    for _ in range(200):
        cloud_count = rng.randint(1, 4)
        _, offers, profile = random_instance(rng, clouds=cloud_count)
        order: list[str] = []
        grouped: dict[str, list[ServiceOffer]] = {}
        for offer in offers:
            if offer.cloud_id not in grouped:
                grouped[offer.cloud_id] = []
                order.append(offer.cloud_id)
            grouped[offer.cloud_id].append(offer)
        clouds = [(cloud_id, grouped[cloud_id]) for cloud_id in order]
        union = [o for _, cloud_offers in clouds for o in cloud_offers]
        assert select_multi_cloud(clouds, profile) == build_decision_matrix(union, profile)
    report(4, "per-cloud winners equal flat selection over the union")


def test_criterion_5_end_to_end_pubsub_soundness():
    scenario = dominance_scenario()
    in_process = run(scenario, mode="in-process")
    over_wire = run(scenario, mode="over-wire")
    assert in_process == over_wire

    topic_view = in_process.consumers["app-1"]["topics"]["location"]
    publications_by_selected = [
        e.payload for e in scenario.timeline
        if e.action == "publish" and e.service_id == "cs-high"
    ]
    # Exclusively the selected provider, exactly once each, in order.
    assert topic_view["received"] == [["cs-high", p] for p in publications_by_selected]
    assert topic_view["notifications"] == len(publications_by_selected)
    assert topic_view["last"] == ["cs-high", publications_by_selected[-1]]
    report(5, "pub/sub delivery sound and identical in both modes")


def test_criterion_6_renegotiation_path():
    catalog = IndicatorCatalog(("freshness", "correctness"), ("availability",))
    feasible = ServiceOffer(
        service_id="cs-only",
        cloud_id="cloud-1",
        offered_topics=("location",),
        qoc_offer={"location": (0.9, 0.95)},
        qos_offer=(0.99,),
    )
    hopeless = ServiceOffer(
        service_id="cs-under",
        cloud_id="cloud-1",
        offered_topics=("location",),
        qoc_offer={"location": (0.5, 0.95)},
        qos_offer=(0.99,),
    )
    profile = RequirementProfile(
        topics=("location",),
        qoc_min=((0.80, 0.93),),
        qos_min=(0.98,),
        weights=((1.0, 1.0),),
    )
    scenario = Scenario(
        seed=0,
        catalog=catalog,
        clouds=(("cloud-1", (feasible, hopeless)),),
        consumers=(("app-1", profile),),
        timeline=(
            ScenarioEvent(at=0, action="register", service_id="cs-only"),
            ScenarioEvent(at=1, action="register", service_id="cs-under"),
            ScenarioEvent(at=2, action="subscribe", consumer_id="app-1"),
            ScenarioEvent(at=3, action="publish", service_id="cs-only",
                          topic="location", payload="p1"),
            ScenarioEvent(at=4, action="deregister", service_id="cs-only"),
            ScenarioEvent(at=5, action="pull", consumer_id="app-1", topic="location"),
        ),
    )
    result = run(scenario)
    advisories = result.consumers["app-1"]["advisories"]
    assert advisories == [["location"]], "exactly one advisory naming the topic"
    assert result.totals["pull_errors"] == {"NO_PROVIDER": 1}
    history = result.consumers["app-1"]["topics"]["location"]["selected_history"]
    assert history == ["cs-only", None]
    report(6, "losing the only provider advises once and pulls NO_PROVIDER")


def test_criterion_7_crash_restart_equivalence(tmp_path):
    rng = random.Random(20250707)
    catalog = IndicatorCatalog(("q1", "q2"), ("s1",))
    topics = ["t1", "t2"]
    for case in range(50):
        requests = random_requests(rng, catalog)
        cut = rng.randint(0, len(requests))

        plain = tmp_path / f"case-{case}-plain.json"
        restart = tmp_path / f"case-{case}-restart.json"

        uninterrupted = BrokerService(
            ServiceConfig(catalog=catalog, persist_path=plain, retry=FAST_RETRY),
            transport=RecordingTransport(),
        )
        apply_requests(uninterrupted, requests)
        expected = observable_state(uninterrupted, topics)
        uninterrupted.close()

        config = ServiceConfig(catalog=catalog, persist_path=restart, retry=FAST_RETRY)
        before = BrokerService(config, transport=RecordingTransport())
        apply_requests(before, requests[:cut])
        before.close()
        after = BrokerService(config, transport=RecordingTransport())
        apply_requests(after, requests[cut:])
        assert observable_state(after, topics) == expected
        after.close()
    report(7, "snapshot, restart and replay match 50 uninterrupted runs")


def test_criterion_8_wire_round_trip():
    rng = random.Random(20250808)
    from ctxbroker.model import ContextSample

    for _ in range(1000):
        catalog, offers, profile = random_instance(rng, max_services=3)
        assert (
            RequirementProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
            == profile
        )
        for offer in offers:
            assert (
                ServiceOffer.from_dict(json.loads(json.dumps(offer.to_dict()))) == offer
            )
        sample = random_sample(rng)
        assert ContextSample.from_dict(json.loads(json.dumps(sample.to_dict()))) == sample
        assert IndicatorCatalog.from_dict(json.loads(json.dumps(catalog.to_dict()))) == catalog
    report(8, "canonical serialization round-trips 1000 generated values")
