"""Selection engine: feasibility, scoring, decision matrices, oracle."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxbroker.errors import Conflict, DimensionMismatch, NotSubscribed
from ctxbroker.model import IndicatorCatalog, RequirementProfile, ServiceOffer
from ctxbroker.selection import (
    TIE_TOLERANCE,
    build_decision_matrix,
    oracle_select,
    qoc_feasible,
    qos_feasible,
    rank_topic,
    renegotiation_report,
    score,
    select_multi_cloud,
)

from conftest import make_offer
from helpers import random_instance


def simple_profile(qoc_min=(0.8, 0.93), qos_min=(0.98,), weights=(1.0, 1.0)):
    return RequirementProfile(
        topics=("location",),
        qoc_min=(qoc_min,),
        qos_min=qos_min,
        weights=(weights,),
    )


class TestQosFeasible:
    def test_offer_above_availability_floor(self, threshold_profile):
        offer = make_offer("cs1", 0.85, 0.95, availability=0.99)
        assert qos_feasible(offer, threshold_profile) is True

    def test_offer_below_availability_floor(self, threshold_profile):
        offer = make_offer("cs1", 0.85, 0.95, availability=0.97)
        assert qos_feasible(offer, threshold_profile) is False

    def test_unconstrained_profile_accepts_any_offer(self):
        profile = simple_profile(qos_min=(0.0,))
        assert qos_feasible(make_offer("cs1", 0.1, 0.1, availability=0.0), profile)

    def test_equality_counts_as_feasible(self, threshold_profile):
        assert qos_feasible(make_offer("cs1", 0.85, 0.95, availability=0.98), threshold_profile)

    def test_catalog_mismatch_raises(self, threshold_profile):
        offer = ServiceOffer(
            service_id="cs1",
            cloud_id="c",
            offered_topics=("location",),
            qoc_offer={"location": (0.9, 0.9)},
            qos_offer=(0.99, 0.5),
        )
        with pytest.raises(DimensionMismatch):
            qos_feasible(offer, threshold_profile)


class TestQocFeasible:
    def test_offer_meeting_both_floors(self, threshold_profile):
        offer = make_offer("cs1", 0.85, 0.95, 0.99)
        assert qoc_feasible(offer, threshold_profile, "location") is True

    def test_one_indicator_below_floor_invalidates_topic(self, threshold_profile):
        offer = make_offer("cs1", 0.85, 0.90, 0.99)
        assert qoc_feasible(offer, threshold_profile, "location") is False

    def test_unoffered_topic_is_infeasible(self, threshold_profile):
        offer = ServiceOffer(
            service_id="cs1",
            cloud_id="c",
            offered_topics=("temperature",),
            qoc_offer={"temperature": (0.9, 0.9)},
            qos_offer=(0.99,),
        )
        assert qoc_feasible(offer, threshold_profile, "location") is False

    def test_unknown_topic_raises(self, threshold_profile):
        offer = make_offer("cs1", 0.85, 0.95, 0.99)
        with pytest.raises(NotSubscribed):
            qoc_feasible(offer, threshold_profile, "humidity")

    def test_equality_at_floor_is_feasible(self, threshold_profile):
        assert qoc_feasible(make_offer("cs1", 0.80, 0.93, 0.99), threshold_profile, "location")


class TestTopicScores:
    def test_feasible_topic_sums_weighted_row(self):
        profile = simple_profile(qoc_min=(0.0, 0.0), qos_min=(0.0,), weights=(0.7, 0.3))
        offer = make_offer("cs1", 0.9, 0.8, 1.0)
        value = score(offer, profile, 0)
        assert value == pytest.approx(0.87)
        # Brute-force summation oracle.
        total = 0.0
        for w, q in zip((0.7, 0.3), (0.9, 0.8)):
            total += w * q
        assert value == total

    def test_infeasible_topic_scores_zero(self, threshold_profile):
        offer = make_offer("cs1", 0.75, 0.95, 0.99)
        assert score(offer, threshold_profile, 0) is None
        assert build_decision_matrix([offer], threshold_profile).scores == ((0.0,),)

    def test_zero_weight_does_not_hide_a_violated_floor(self):
        profile = simple_profile(qoc_min=(0.8, 0.93), qos_min=(0.0,), weights=(1.0, 0.0))
        assert score(make_offer("cs1", 0.9, 0.5, 1.0), profile, 0) is None
        assert score(make_offer("cs1", 0.9, 0.95, 1.0), profile, 0) == 0.9

    def test_shape_mismatch_raises(self, threshold_profile):
        offer = ServiceOffer(
            service_id="cs1",
            cloud_id="c",
            offered_topics=("location",),
            qoc_offer={"location": (0.9,)},
            qos_offer=(0.99,),
        )
        with pytest.raises(DimensionMismatch):
            score(offer, threshold_profile, 0)
        short_weights = simple_profile(weights=(1.0,))
        with pytest.raises(DimensionMismatch):
            score(make_offer("cs1", 0.9, 0.95, 0.99), short_weights, 0)

    def test_a_vector_one_entry_longer_than_its_floors_raises(self, threshold_profile):
        # Each prefix meets its floors, so a kernel that truncated would accept.
        longer = ServiceOffer(
            service_id="cs1",
            cloud_id="c",
            offered_topics=("location",),
            qoc_offer={"location": (0.9, 0.95, 0.0)},
            qos_offer=(0.99, 0.0),
        )
        with pytest.raises(DimensionMismatch):
            score(longer, threshold_profile, 0)
        with pytest.raises(DimensionMismatch):
            qos_feasible(longer, threshold_profile)

    def test_single_indicator_equality_boundary(self):
        catalog = IndicatorCatalog(qoc_indicators=("p1",), qos_indicators=("s1",))
        profile = RequirementProfile(
            topics=("t1",), qoc_min=((0.5,),), qos_min=(0.0,), weights=((1.0,),)
        )
        offer = ServiceOffer(
            service_id="cs1",
            cloud_id="c",
            offered_topics=("t1",),
            qoc_offer={"t1": (0.5,)},
            qos_offer=(1.0,),
        )
        assert validate_dimensions(catalog, profile, offer)
        assert score(offer, profile, 0) == 0.5


def validate_dimensions(catalog, profile, offer):
    return (
        len(profile.qoc_min[0]) == catalog.qoc_count
        and len(offer.qos_offer) == catalog.qos_count
    )


class TestBuildDecisionMatrix:
    def test_highest_scorer_wins(self, threshold_profile):
        a = make_offer("cs-a", 0.87, 0.95, 0.99)
        b = make_offer("cs-b", 0.91, 0.95, 0.99)
        decision = build_decision_matrix([a, b], threshold_profile)
        assert decision.selected == ("cs-b",)
        assert decision.max_score[0] == decision.scores[0][1]
        # Exhaustive argmax oracle.
        oracle = oracle_select([a, b], threshold_profile)
        assert oracle.selected == decision.selected

    def test_tie_breaks_to_smallest_service_id(self):
        profile = simple_profile(qoc_min=(0.0, 0.0), qos_min=(0.0,))
        a = make_offer("cs-b", 0.5, 0.5, 1.0)
        b = make_offer("cs-a", 0.5, 0.5, 1.0)
        decision = build_decision_matrix([a, b], profile)
        assert decision.selected == ("cs-a",)

    def test_no_feasible_service_leaves_selection_absent(self, threshold_profile):
        decision = build_decision_matrix(
            [make_offer("cs-a", 0.7, 0.9, 0.99)], threshold_profile
        )
        assert decision.selected == (None,)
        assert decision.max_score == (0.0,)

    def test_empty_offer_list(self, threshold_profile):
        decision = build_decision_matrix([], threshold_profile)
        assert decision.selected == (None,)
        assert decision.services == ()

    def test_qos_infeasible_offer_contributes_no_column(self, threshold_profile):
        decision = build_decision_matrix(
            [make_offer("cs-flaky", 0.9, 0.97, 0.97)], threshold_profile
        )
        assert decision.services == ()
        assert decision.selected == (None,)

    def test_feasible_zero_score_service_is_still_selectable(self):
        # All-zero weights produce zero scores; feasibility must not be
        # confused with a zero entry.
        profile = simple_profile(qoc_min=(0.0, 0.0), qos_min=(0.0,), weights=(0.0, 0.0))
        decision = build_decision_matrix([make_offer("cs-a", 0.9, 0.9, 1.0)], profile)
        assert decision.selected == ("cs-a",)
        assert decision.max_score == (0.0,)

    def test_duplicate_service_ids_rejected(self, threshold_profile):
        offer = make_offer("cs-a", 0.85, 0.95, 0.99)
        with pytest.raises(Conflict):
            build_decision_matrix([offer, offer], threshold_profile)


class TestRenegotiationReport:
    def test_all_topics_provisioned(self, threshold_profile, threshold_offers):
        decision = build_decision_matrix(threshold_offers, threshold_profile)
        assert renegotiation_report(decision) == []

    def test_unprovisioned_topic_listed_in_order(self):
        profile = RequirementProfile(
            topics=("t1", "t2"),
            qoc_min=((0.0, 0.0), (0.99, 0.99)),
            qos_min=(0.0,),
            weights=((1.0, 1.0), (1.0, 1.0)),
        )
        offer = ServiceOffer(
            service_id="cs1",
            cloud_id="c",
            offered_topics=("t1", "t2"),
            qoc_offer={"t1": (0.5, 0.5), "t2": (0.5, 0.5)},
            qos_offer=(1.0,),
        )
        decision = build_decision_matrix([offer], profile)
        assert renegotiation_report(decision) == ["t2"]

    def test_empty_offers_list_every_topic(self):
        profile = RequirementProfile(
            topics=("t1", "t2"),
            qoc_min=((0.0, 0.0), (0.0, 0.0)),
            qos_min=(0.0,),
            weights=((1.0, 1.0), (1.0, 1.0)),
        )
        decision = build_decision_matrix([], profile)
        assert renegotiation_report(decision) == ["t1", "t2"]


class TestOracleEquivalence:
    def test_random_instances_match_exactly(self):
        rng = random.Random(1)
        for _ in range(300):
            _, offers, profile = random_instance(rng)
            fast = build_decision_matrix(offers, profile)
            slow = oracle_select(offers, profile)
            assert fast.selected == slow.selected
            assert fast.services == slow.services
            for fast_row, slow_row in zip(fast.scores, slow.scores):
                for x, y in zip(fast_row, slow_row):
                    assert abs(x - y) <= 1e-9

    def test_empty_offers(self, threshold_profile):
        assert oracle_select([], threshold_profile).selected == (None,)

    def test_single_feasible_service_selected_everywhere(self):
        profile = RequirementProfile(
            topics=("t1", "t2"),
            qoc_min=((0.0, 0.0), (0.0, 0.0)),
            qos_min=(0.0,),
            weights=((1.0, 1.0), (1.0, 1.0)),
        )
        offer = ServiceOffer(
            service_id="cs1",
            cloud_id="c",
            offered_topics=("t1", "t2"),
            qoc_offer={"t1": (0.4, 0.4), "t2": (0.6, 0.6)},
            qos_offer=(0.5,),
        )
        assert oracle_select([offer], profile).selected == ("cs1", "cs1")


GRID = st.integers(0, 100).map(lambda k: k / 100)
FLOOR = st.one_of(st.just(0.0), st.integers(0, 60).map(lambda k: k / 100))


@st.composite
def ranking_instances(draw):
    """A profile and offers, in random admission order, with levels on the
    0.01 grid. Some offers are exact duplicates of another under a smaller
    id; others are twins with each level vector reversed, which under a
    topic's equal weights score the same or, rounded differently, within
    ``TIE_TOLERANCE`` of it."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    topics = tuple(f"t{j}" for j in range(draw(st.integers(1, 3))))

    def vector(values, size):
        return draw(st.tuples(*[values] * size))

    profile = RequirementProfile(
        topics=topics,
        qoc_min=tuple(vector(FLOOR, m) for _ in topics),
        qos_min=vector(FLOOR, n),
        weights=tuple(vector(GRID, m) if draw(st.booleans()) else (draw(GRID),) * m
                      for _ in topics),
    )
    offers = []
    for i in range(draw(st.integers(0, 6))):
        offered = tuple(t for t in topics if draw(st.booleans()))
        offers.append(ServiceOffer(f"s{i}", "c", offered, {t: vector(GRID, m) for t in offered},
                                   vector(GRID, n)))
    for i, base in enumerate(draw(st.lists(st.sampled_from(offers), max_size=3)) if offers else []):
        if draw(st.booleans()):
            offers.append(replace(base, service_id=f"d{i}"))
        else:
            offers.append(replace(base, service_id=f"p{i}", qoc_offer={
                t: levels[::-1] for t, levels in base.qoc_offer.items()}))
    return profile, draw(st.permutations(offers))


# Equal weights sum (0.1, 0.2, 0.3) to 0.6000000000000001 and its reverse
# to 0.6: the second trails the top inside the tie band and wins on its id.
BAND = RequirementProfile(
    topics=("t",), qoc_min=((0.0, 0.0, 0.0),), qos_min=(0.0,), weights=((1.0, 1.0, 1.0),)
)
HIGH = ServiceOffer("b", "c", ("t",), {"t": (0.1, 0.2, 0.3)}, (1.0,))
LOW = ServiceOffer("a", "c", ("t",), {"t": (0.3, 0.2, 0.1)}, (1.0,))


class TestRankTopicAgainstOracle:
    @given(ranking_instances())
    @example((BAND, [HIGH, replace(LOW, service_id="c"), LOW]))
    @settings(max_examples=200, deadline=None)
    def test_winner_and_top_match_the_oracle(self, instance):
        profile, offers = instance
        oracle = oracle_select(offers, profile)
        eligible = [o for o in offers if qos_feasible(o, profile)]
        assert tuple(o.service_id for o in eligible) == oracle.services
        for j, row in enumerate(oracle.scores):
            winner, top = rank_topic(eligible, profile, j)
            assert winner == oracle.selected[j]
            if winner is None:
                assert top == float("-inf")
            else:  # weights and levels are >= 0, so no feasible cell is below an infeasible 0
                assert abs(top - max(row)) <= 1e-9

    def test_a_score_trailing_the_top_inside_the_tie_band_wins_on_its_id(self):
        top = score(HIGH, BAND, 0)
        assert 0 < top - score(LOW, BAND, 0) < TIE_TOLERANCE
        assert rank_topic([HIGH, LOW], BAND, 0) == ("a", top)
        assert oracle_select([HIGH, LOW], BAND).selected == ("a",)


def feasible_tie_set(offers, profile, j):
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


class TestSelectionProperties:
    def test_weight_scaling_keeps_argmax(self):
        rng = random.Random(2)
        for _ in range(150):
            _, offers, profile = random_instance(rng)
            j = rng.randrange(len(profile.topics))
            lam = rng.uniform(1e-6, 10.0)
            scaled = RequirementProfile(
                topics=profile.topics,
                qoc_min=profile.qoc_min,
                qos_min=profile.qos_min,
                weights=tuple(
                    tuple(w * lam for w in row) if row_index == j else row
                    for row_index, row in enumerate(profile.weights)
                ),
            )
            before = build_decision_matrix(offers, profile)
            after = build_decision_matrix(offers, scaled)
            assert before.selected[j] == after.selected[j]
            assert feasible_tie_set(offers, profile, j) == feasible_tie_set(offers, scaled, j)

    def test_monotone_dominance(self):
        rng = random.Random(3)
        checked = 0
        while checked < 150:
            _, offers, profile = random_instance(rng, max_services=8)
            for j, topic in enumerate(profile.topics):
                admissible = [
                    o
                    for o in offers
                    if qos_feasible(o, profile) and qoc_feasible(o, profile, topic)
                ]
                for a in admissible:
                    for b in admissible:
                        row_a = a.qoc_offer[topic]
                        row_b = b.qoc_offer[topic]
                        if all(x >= y for x, y in zip(row_a, row_b)):
                            score_a = score(a, profile, j)
                            score_b = score(b, profile, j)
                            assert score_a >= score_b - TIE_TOLERANCE
                            checked += 1

    def test_zero_thresholds_make_every_offering_service_feasible(self):
        rng = random.Random(4)
        for _ in range(100):
            catalog, offers, profile = random_instance(rng)
            vacuous = RequirementProfile(
                topics=profile.topics,
                qoc_min=tuple(tuple(0.0 for _ in row) for row in profile.qoc_min),
                qos_min=tuple(0.0 for _ in profile.qos_min),
                weights=profile.weights,
            )
            for offer in offers:
                assert qos_feasible(offer, vacuous)
                for topic in vacuous.topics:
                    assert qoc_feasible(offer, vacuous, topic) == offer.offers_topic(topic)

    def test_score_bounds(self):
        rng = random.Random(5)
        for _ in range(100):
            _, offers, profile = random_instance(rng)
            for offer in offers:
                if not qos_feasible(offer, profile):
                    continue
                for j in range(len(profile.topics)):
                    value = score(offer, profile, j)
                    if value is not None:
                        assert 0.0 <= value <= sum(profile.weights[j]) + TIE_TOLERANCE


class TestMultiCloud:
    def test_best_cloud_winner_goes_global(self):
        profile = simple_profile(qoc_min=(0.0, 0.0), qos_min=(0.0,), weights=(1.0, 1.0))
        cloud_a = [make_offer("cs-a1", 0.5, 0.37, 1.0, cloud_id="cloud-a")]
        cloud_b = [make_offer("cs-b1", 0.5, 0.41, 1.0, cloud_id="cloud-b")]
        decision = select_multi_cloud([("cloud-a", cloud_a), ("cloud-b", cloud_b)], profile)
        assert decision.selected == ("cs-b1",)
        assert decision.max_score[0] == pytest.approx(0.91)

    def test_single_cloud_degenerates_to_flat_selection(self, threshold_profile, threshold_offers):
        flat = build_decision_matrix(threshold_offers, threshold_profile)
        multi = select_multi_cloud([("cloud-a", threshold_offers)], threshold_profile)
        assert multi == flat

    def test_union_equivalence_on_random_instances(self):
        rng = random.Random(6)
        for _ in range(150):
            _, offers, profile = random_instance(rng, clouds=3)
            cloud_ids = []
            grouped: dict[str, list] = {}
            for offer in offers:
                if offer.cloud_id not in grouped:
                    grouped[offer.cloud_id] = []
                    cloud_ids.append(offer.cloud_id)
                grouped[offer.cloud_id].append(offer)
            clouds = [(cid, grouped[cid]) for cid in cloud_ids]
            union = [o for _, cloud_offers in clouds for o in cloud_offers]
            assert select_multi_cloud(clouds, profile) == build_decision_matrix(union, profile)

    def test_topic_feasible_in_no_cloud(self, threshold_profile):
        clouds = [
            ("cloud-a", [make_offer("cs-a1", 0.7, 0.95, 0.99, cloud_id="cloud-a")]),
            ("cloud-b", [make_offer("cs-b1", 0.9, 0.90, 0.99, cloud_id="cloud-b")]),
        ]
        decision = select_multi_cloud(clouds, threshold_profile)
        assert decision.selected == (None,)

    def test_tie_band_spans_clouds(self):
        # Cloud a's own tie band picks s0, which trails s2 by more than the
        # tolerance; over the union s1 ties s2 and wins on its id.
        profile = RequirementProfile(topics=("t",), qoc_min=((0.0,),), qos_min=(0.0,),
                                     weights=((1.0,),))

        def offer(service_id, level, cloud_id):
            return ServiceOffer(service_id=service_id, cloud_id=cloud_id, offered_topics=("t",),
                                qoc_offer={"t": (level,)}, qos_offer=(1.0,))

        clouds = [("a", [offer("s0", 0.5 - 0.8e-12, "a"), offer("s1", 0.5, "a")]),
                  ("b", [offer("s2", 0.5 + 0.5e-12, "b")])]
        union = [o for _, cloud_offers in clouds for o in cloud_offers]
        decision = select_multi_cloud(clouds, profile)
        assert decision.selected == ("s1",)
        assert decision == build_decision_matrix(union, profile)
        assert decision.selected == oracle_select(union, profile).selected

    def test_duplicate_service_id_across_clouds_rejected(self, threshold_profile):
        offer = make_offer("cs-a", 0.85, 0.95, 0.99)
        with pytest.raises(Conflict):
            select_multi_cloud([("c1", [offer]), ("c2", [offer])], threshold_profile)
