"""Per-topic provider selection by weighted multi-attribute scoring.

Pure, deterministic functions. A service is admissible for a topic only
if every offered QoC level meets the consumer's per-topic minimum and
every offered QoS level meets the consumer's global minimum; admissible
services are then ranked per topic by the weighted sum of their QoC
levels, and the top scorer wins the topic.

Feasibility is always decided on the raw offer-vs-minimum comparison,
never on weighted values: a zero weight must not mask a threshold
violation.

Scores of tied services are considered equal within ``TIE_TOLERANCE``
and the tie is broken by lexicographically smallest service id, so that
selection is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, mul
from typing import Any, Iterable, Sequence

from .errors import Conflict, DimensionMismatch, NotSubscribed
from .model import Matrix, RequirementProfile, ServiceOffer, TopicId, Vector

TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DecisionMatrix:
    """Topic x service score table with per-topic winner.

    ``selected[j]`` is None exactly when no admissible service exists
    for topic ``j``; otherwise ``scores[j]`` at the winner's column
    equals ``max_score[j]``.
    """

    topics: tuple[TopicId, ...]
    services: tuple[str, ...]
    scores: Matrix
    max_score: Vector
    selected: tuple[str | None, ...]

    def selected_for(self, topic: TopicId) -> str | None:
        return self.selected[self.topics.index(topic)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "topics": list(self.topics),
            "services": list(self.services),
            "scores": [list(row) for row in self.scores],
            "max_score": list(self.max_score),
            "selected": list(self.selected),
        }


def qos_feasible(offer: ServiceOffer, profile: RequirementProfile) -> bool:
    """True iff the offer meets every global QoS minimum.

    Services failing this are excluded from scoring entirely.
    """
    levels, minimums = offer.qos_offer, profile.qos_min
    if len(levels) != len(minimums):  # before ``map``, which stops at the shorter one
        raise DimensionMismatch(
            f"qos vector of {offer.service_id!r} has {len(levels)} entries, "
            f"profile expects {len(minimums)}"
        )
    return all(map(ge, levels, minimums))


def qoc_feasible(
    offer: ServiceOffer, profile: RequirementProfile, topic: TopicId
) -> bool:
    """True iff the offer covers ``topic`` at or above every QoC minimum.

    A service that does not offer the topic at all is infeasible for it.
    Equality with a minimum counts as feasible.
    """
    if topic not in profile.topics:
        raise NotSubscribed(f"topic {topic!r} is not in the profile")
    return score(offer, profile, profile.topic_index(topic)) is not None


def score(offer: ServiceOffer, profile: RequirementProfile, j: int) -> float | None:
    """Weighted QoC sum of ``offer`` for the profile's topic ``j``.

    None when the offer does not cover the topic or misses one of its QoC
    minimums. Floors are compared on the raw levels, so a zero weight
    never hides a violated minimum; equality with a minimum is met.
    Assumes the caller already filtered on :func:`qos_feasible`.
    """
    topic = profile.topics[j]
    levels = offer.qoc_offer.get(topic)
    if levels is None:
        return None
    minimums = profile.qoc_min[j]
    weights = profile.weights[j]
    if len(levels) != len(minimums) or len(levels) != len(weights):
        raise DimensionMismatch(  # before ``map``, which stops at the shorter vector
            f"qoc vector of {offer.service_id!r} for {topic!r} has {len(levels)} "
            f"entries, profile has {len(minimums)} minimums and {len(weights)} weights"
        )
    if not all(map(ge, levels, minimums)):
        return None
    return sum(map(mul, weights, levels))


def _check_unique_ids(offers: Iterable[ServiceOffer]) -> None:
    seen: set[str] = set()
    for offer in offers:
        if offer.service_id in seen:
            raise Conflict(f"duplicate service id {offer.service_id!r}")
        seen.add(offer.service_id)


def _rank(feasible: dict[str, float]) -> tuple[str | None, float]:
    """Winner among the feasible services, given as service id -> score:
    the smallest id within ``TIE_TOLERANCE`` of the top score; and that top
    score, -inf when there is none."""
    if not feasible:
        return None, float("-inf")
    top = max(feasible.values())
    floor = top - TIE_TOLERANCE
    return min(sid for sid, s in feasible.items() if s >= floor), top


def rank_topic(
    offers: Iterable[ServiceOffer], profile: RequirementProfile, j: int
) -> tuple[str | None, float]:
    """Winner of the profile's topic ``j`` among QoS-feasible ``offers``,
    as in :func:`build_decision_matrix`, and the top feasible score, which
    the winner may trail by up to ``TIE_TOLERANCE``; (None, -inf) when no
    offer is feasible for the topic."""
    return _rank({o.service_id: s for o in offers if (s := score(o, profile, j)) is not None})


def build_decision_matrix(
    offers: Sequence[ServiceOffer], profile: RequirementProfile
) -> DecisionMatrix:
    """Score every QoS-admissible offer per topic and pick winners.

    QoS-infeasible offers contribute no column. Row ``j`` holds each
    remaining service's weighted QoC sum, 0 where the service cannot
    satisfy the topic; ``selected[j]`` is the best admissible service or
    None when the topic is unprovisionable.
    """
    _check_unique_ids(offers)
    eligible = [o for o in offers if qos_feasible(o, profile)]

    rows = []
    max_score = []
    selected: list[str | None] = []
    for j in range(len(profile.topics)):
        row = []
        feasible = {}
        for o in eligible:
            s = score(o, profile, j)
            if s is None:
                row.append(0.0)
            else:
                row.append(s)
                feasible[o.service_id] = s
        rows.append(tuple(row))
        winner, _ = _rank(feasible)
        selected.append(winner)
        max_score.append(0.0 if winner is None else feasible[winner])
    return DecisionMatrix(
        topics=profile.topics,
        services=tuple(o.service_id for o in eligible),
        scores=tuple(rows),
        max_score=tuple(max_score),
        selected=tuple(selected),
    )


def select_multi_cloud(
    clouds: Sequence[tuple[str, Sequence[ServiceOffer]]],
    profile: RequirementProfile,
) -> DecisionMatrix:
    """Selection over offers grouped by cloud. Scores do not depend on cloud
    membership, so this is :func:`build_decision_matrix` over the union of
    all offers, in cloud order; service ids must be unique across clouds."""
    return build_decision_matrix([o for _, offers in clouds for o in offers], profile)


def renegotiation_report(decision: DecisionMatrix) -> list[TopicId]:
    """Topics left without a provider, in subscription order.

    These are the topics for which the consumer would have to lower its
    expectations before any registered service can serve it.
    """
    return [t for t, sel in zip(decision.topics, decision.selected) if sel is None]


def oracle_select(
    offers: Sequence[ServiceOffer], profile: RequirementProfile
) -> DecisionMatrix:
    """Brute-force reference selection for small instances (test support).

    Re-derives the whole decision by walking every (service, topic) pair
    with explicit loops and literal threshold checks on the raw values,
    sharing no code with the matrix pipeline above except the tie rule.
    Intended for instances up to roughly 12 services, 6 topics and 6
    indicators.
    """
    _check_unique_ids(offers)

    kept = []
    for offer in offers:
        ok = len(offer.qos_offer) == len(profile.qos_min)
        for k in range(len(profile.qos_min)):
            if not profile.qos_min[k] <= offer.qos_offer[k]:
                ok = False
        if ok:
            kept.append(offer)

    services = tuple(o.service_id for o in kept)
    rows = []
    max_score = []
    selected: list[str | None] = []
    for j, topic in enumerate(profile.topics):
        row = []
        feasible: list[tuple[str, float]] = []
        for offer in kept:
            suitable = topic in offer.qoc_offer
            if suitable:
                for i in range(len(profile.qoc_min[j])):
                    level = offer.qoc_offer[topic][i]
                    if not 0.0 <= profile.qoc_min[j][i] <= level <= 1.0:
                        suitable = False
            total = 0.0
            if suitable:
                for i in range(len(profile.qoc_min[j])):
                    total += profile.weights[j][i] * offer.qoc_offer[topic][i]
                feasible.append((offer.service_id, total))
            row.append(total)
        rows.append(tuple(row))
        if feasible:
            best = feasible[0][1]
            for _, score in feasible:
                if score > best:
                    best = score
            tied = [sid for sid, score in feasible if score >= best - TIE_TOLERANCE]
            winner = tied[0]
            for sid in tied:
                if sid < winner:
                    winner = sid
            winner_score = 0.0
            for sid, score in feasible:
                if sid == winner:
                    winner_score = score
            selected.append(winner)
            max_score.append(winner_score)
        else:
            selected.append(None)
            max_score.append(0.0)
    return DecisionMatrix(
        topics=profile.topics,
        services=services,
        scores=tuple(rows),
        max_score=tuple(max_score),
        selected=tuple(selected),
    )
